"""Every function the traced benchmark launcher wraps still resolves and runs.

``perfbench/launch.py`` wraps the functions in its ``LAYERS`` and ``COUNTED``
tables by module and attribute name. A renamed or removed one, or one the
pipeline stops calling, would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phenorank import pipeline

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"


def load_by_path(name: str, path: Path):
    """A module of ``perfbench/``, loaded by path; nothing is wrapped."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = load_by_path("perfbench_launch", LAUNCH)
WRAPPED = [(module, attr) for module, attr, *_ in launch.LAYERS + launch.COUNTED]


@pytest.mark.parametrize(
    "module, attr", WRAPPED, ids=[f"{m}:{a}" for m, a in WRAPPED]
)
def test_wrapped_attribute_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" resolves in two steps
        target = getattr(target, part)
    assert callable(target)


def test_every_wrapped_layer_fires(tmp_path):
    """The ten steps through the launcher, as the traced benchmark runs them,
    on a 30-patient fixture workspace: every span and counter appears."""
    generate = load_by_path("perfbench_generate", ROOT / "perfbench" / "generate.py")
    paths = generate.write_inputs("fixture", 1, tmp_path / "inputs")
    config = {
        "seed": 1,
        "paths": {**{k: str(v) for k, v in paths.items()}, "workdir": "work"},
        "cohort": {"size": 30},
        "extraction": {"concurrency": 1},
        "training": {"boosted_rounds": 5, "boosted_patience": 5},
    }
    (tmp_path / "phenorank.yaml").write_text(json.dumps(config), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    seen = set()
    for i, step in enumerate(s.name for s in pipeline.STEPS):
        trace_path = tmp_path / f"trace_{i}.json"
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), str(trace_path), step],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{step}: {proc.stderr}"
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        seen.update(span[0] for span in trace["spans"])
        seen.update(trace["counters"])
    expected = {name for _, _, name, _ in launch.LAYERS}
    expected |= {name for _, _, name in launch.COUNTED}
    assert expected - seen == set()
