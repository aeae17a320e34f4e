"""Every function the traced benchmark launcher wraps still resolves.

``perfbench/launch.py`` wraps the functions in its ``LAYERS`` and ``COUNTED``
tables by module and attribute name. A renamed or removed one would otherwise
show only when a traced benchmark run installs the wraps.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def load_launch():
    """The launcher module, loaded by path; nothing is wrapped."""
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = load_launch()
WRAPPED = [(module, attr) for module, attr, *_ in launch.LAYERS + launch.COUNTED]


@pytest.mark.parametrize(
    "module, attr", WRAPPED, ids=[f"{m}:{a}" for m, a in WRAPPED]
)
def test_wrapped_attribute_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" resolves in two steps
        target = getattr(target, part)
    assert callable(target)
