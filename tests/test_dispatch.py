"""The artifacts do not depend on numpy's SIMD dispatch.

numpy picks its AVX-512 kernels at import where the CPU has them, and some of
them round differently from the AVX2 and baseline ones (``np.exp``,
``np.power``). A child process draws a synthetic cohort on a 3,000-term
ontology and runs the ten steps on a 30-patient fixture workspace, once as
numpy starts by default and once with every AVX-512 target it dispatches to
turned off through ``NPY_DISABLE_CPU_FEATURES``; every digest must agree.

Run as a script (``python tests/test_dispatch.py OUT``, with ``src`` and
``tests`` on ``PYTHONPATH``) this file is that child: it works under ``OUT``
and prints one JSON line of features and digests.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def avx512_features() -> dict[str, bool]:
    """numpy's AVX-512 dispatch targets (``AVX512*``, ``X86_V4``) and whether
    it runs each one here."""
    try:
        from numpy._core import _multiarray_umath as umath  # numpy 2
    except ImportError:
        from numpy.core import _multiarray_umath as umath  # numpy 1.24
    return {
        t: bool(umath.__cpu_features__.get(t))
        for t in umath.__cpu_dispatch__
        if t.startswith("AVX512") or t == "X86_V4"
    }


def child(out: Path) -> dict:
    import helpers
    from phenorank import corpus, pipeline
    from phenorank.config import config_from_dict

    digests = {}
    cohort = corpus.synth_cohort(helpers.random_ontology_3000(), 100, seed=1)
    rows = json.dumps([p.to_dict() for p in cohort], sort_keys=True)
    digests["synth_cohort[random-3000]"] = hashlib.sha256(rows.encode()).hexdigest()

    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py"
    )
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    os.chdir(out)  # relative paths: no artifact names the directory
    generate.write_inputs("fixture", 1, Path("inputs"))
    cfg = config_from_dict(
        {
            "seed": 1,
            "paths": {
                "ontology": f"inputs/{generate.ONTOLOGY_FILE}",
                "disease_annotations": f"inputs/{generate.DISEASE_FILE}",
                "gene_annotations": f"inputs/{generate.GENE_FILE}",
                "workdir": "work",
            },
            "cohort": {"size": 30},
            "extraction": {"concurrency": 1},
            "training": {"boosted_rounds": 5, "boosted_patience": 5},
        }
    )
    for step in pipeline.STEPS:
        step.run(cfg)
    for path in sorted(Path("work").iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"features": avx512_features(), "digests": digests}


def run_child(out: Path, disabled: list[str]) -> dict:
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPY_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env["OMP_NUM_THREADS"] = "1"
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run(
        [sys.executable, __file__, str(out)],
        cwd=out, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_artifacts_do_not_depend_on_simd_dispatch(tmp_path):
    features = avx512_features()
    targets = [t for t, on in features.items() if on]
    if not targets:
        pytest.skip(f"this CPU runs none of numpy's AVX-512 targets {sorted(features)}")
    default = run_child(tmp_path / "default", [])
    off = run_child(tmp_path / "no-avx512", targets)
    assert default["features"] == features
    assert not any(off["features"].values()), off["features"]
    assert {"synth_cohort[random-3000]", "inputs.npz", "cohort.jsonl", "model.json"} <= set(
        default["digests"]
    )
    assert off["digests"] == default["digests"]


if __name__ == "__main__":
    print(json.dumps(child(Path(sys.argv[1]))))
