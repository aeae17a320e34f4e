"""Phenorank benchmark: the ten pipeline steps as ten CLI processes.

    python3 perfbench/run.py --workload fixture-200 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The runner generates the workload's
inputs from the seed (which is also the pipeline config ``seed``), then runs
``ingest`` through ``permtest`` one process at a time, the way a user runs
them, repeating the whole pipeline until ``--seconds`` have passed. Every
repetition's outputs are checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured without tracing. With ``--trace 1`` each step also runs once more
through ``launch.py``, which wraps the layers' public functions in spans;
the metrics are then BENCHMARK.json's per-layer metrics plus the tracing
overhead (traced minus untraced pipeline time). Every time is in seconds of
the reference machine: a step's wall time scaled by the machine speed that
``SpeedProbe`` measures while the step runs.

Each run also writes ``.bench_work/BENCH_<workload>_seed<seed>_trace<t>.json``
with the metrics, the checks and a run record (git sha, ``src/`` sha256 and
line count, nproc, Python and numpy versions, per-step wall seconds and speed
scales, and mention repeat share).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGEST_STORE = WORK / "digests.json"

STEPS = (
    "ingest",
    "synth",
    "chunk",
    "extract",
    "standardize",
    "train",
    "rank",
    "evaluate",
    "ablate",
    "permtest",
)
TEXT_STEPS = ("chunk", "extract", "standardize")
REPORT_STEPS = ("evaluate", "ablate", "permtest")
# The artifacts the determinism acceptance test watches.
WATCHED = (
    "model.json",
    "rankings.jsonl",
    "report_evaluation.json",
    "report_evaluation.csv",
    "report_ablation.json",
    "report_ablation.csv",
    "report_permutation.json",
    "report_permutation.csv",
)
# Extra ingest processes before the pipeline, so set-up time is a median.
SETUP_INGESTS = 3
# A run ends within this many seconds: another repetition starts only while
# 1.5x the last one still fits, and a step running at the deadline is killed.
RUN_BUDGET_S = 165.0
# Boosting rounds of every training run; see Bench.prepare.
BOOSTED_ROUNDS = 30
# CPU seconds of one probe unit on the reference machine, and the pause
# between units; see SpeedProbe.
PROBE_REFERENCE_S = 0.5e-3
PROBE_PERIOD_S = 0.02


@dataclass(frozen=True)
class Workload:
    shape: str  # ontology shape passed to generate.write_inputs
    patients: int


WORKLOADS = {
    "fixture-200": Workload(shape="fixture", patients=200),
    "hpo17k-100": Workload(shape="hpo17k", patients=100),
}


def probe_unit() -> float:
    """CPU seconds this thread spends on a fixed unit of interpreter work."""
    t0 = time.thread_time()
    table = {}
    for i in range(4000):
        table[i & 511] = i * i % 7
    return time.thread_time() - t0


class SpeedProbe:
    """Samples the machine's speed on the runner's idle thread while a step runs.

    A shared host changes speed by up to 2x within seconds and by about 15%
    for a minute at a time, on every core at once. So while a step process runs, a thread of the runner times
    a fixed unit of interpreter work every ``PROBE_PERIOD_S`` (about 2% of
    one core), counting only its own CPU time. ``scale`` converts the step's
    wall time to the reference machine, on which the unit takes
    ``PROBE_REFERENCE_S``. Over repeated hpo17k-100 pipelines on one seed
    this cut the spread of the pipeline time from 0.115 to 0.03 of its
    median, and of single steps from 0.09-0.30 to 0.02-0.13.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(probe_unit())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


@dataclass
class StepRun:
    step: str
    wall_s: float
    code: int
    stdout: str
    stderr: str
    scale: float = 1.0  # wall seconds to reference-machine seconds

    @property
    def time_s(self) -> float:
        return self.wall_s * self.scale

    def summary(self) -> dict:
        try:
            return json.loads(self.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {}


@dataclass
class Repetition:
    traced: bool
    steps: dict[str, StepRun] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    repeat_share: float = 0.0

    @property
    def ok(self) -> bool:
        return len(self.steps) == len(STEPS) and all(
            s.code == 0 for s in self.steps.values()
        )

    def time(self, steps=STEPS) -> float:
        """Reference-machine seconds of the given steps."""
        return sum(self.steps[s].time_s for s in steps)


class Bench:
    """One benchmark run: a run directory, its inputs, and its processes."""

    def __init__(self, workload: str, seed: int, patients: int | None = None):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.patients = patients or self.workload.patients
        self.started = time.monotonic()
        self.dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # One BLAS/OpenMP thread per step process leaves the other vCPU to
        # SpeedProbe. With two threads the scaled fixture-200 `train` time
        # still spread 0.18 over five seeds; with one it spread 0.06.
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            self.env[var] = "1"

    def prepare(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        paths = generate.write_inputs(self.workload.shape, self.seed, self.dir / "inputs")
        config = {
            "seed": self.seed,
            "paths": {k: str(v.relative_to(self.dir)) for k, v in paths.items()},
            "cohort": {"size": self.patients},
            "extraction": {"concurrency": 1},
            # Patience equal to the round limit: every seed boosts the same
            # number of rounds. Early stopping alone ended after 15 to 54
            # rounds on seeds 1-7 of hpo17k-100, which moved `train` from
            # 9 s to 18 s by seed alone.
            "training": {"boosted_rounds": BOOSTED_ROUNDS, "boosted_patience": BOOSTED_ROUNDS},
        }
        config["paths"]["workdir"] = "work"
        # JSON is YAML, so the file is a valid phenorank.yaml.
        (self.dir / "phenorank.yaml").write_text(json.dumps(config, indent=1), encoding="utf-8")
        h = hashlib.sha256()
        for path in [self.dir / "phenorank.yaml", *sorted(paths.values())]:
            h.update(path.read_bytes())
        self.inputs_sha = h.hexdigest()

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def run_step(self, step: str, trace_out: Path | None = None) -> StepRun:
        if trace_out is None:
            cmd = [sys.executable, "-m", "phenorank.cli", step]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(trace_out), step]
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd,
                    cwd=self.dir,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=max(1.0, self.remaining()),
                )
            except subprocess.TimeoutExpired:
                return StepRun(step, time.perf_counter() - t0, -1, "", "timed out")
            wall = time.perf_counter() - t0
        return StepRun(step, wall, proc.returncode, proc.stdout, proc.stderr, probe.scale)

    def samples(self, step: str, count: int) -> list[StepRun]:
        """``count`` more runs of one step; a failure aborts the run."""
        runs = []
        for _ in range(count):
            run = self.run_step(step)
            if run.code != 0:
                raise RuntimeError(f"{step} exited {run.code}: {run.stderr}")
            runs.append(run)
        return runs

    def warm_up(self) -> None:
        # Compiles bytecode on a fresh checkout; its time is not measured.
        subprocess.run(
            [sys.executable, "-c", "import phenorank.cli"],
            cwd=self.dir,
            env=self.env,
            check=True,
            capture_output=True,
            timeout=max(1.0, self.remaining()),
        )

    def pipeline(self, traced: bool) -> list[Repetition]:
        """Run the ten steps once, or with ``traced`` twice, step by step.

        A traced pass runs each step untraced and through the launcher, back
        to back, so both pipelines see the same machine speed; which goes
        first alternates from step to step, so a drift in speed favours
        neither. Both write the same artifacts. It returns the untraced
        repetition first.
        """
        reps = [Repetition(traced=False)] + ([Repetition(traced=True)] if traced else [])
        failed = False
        for i, step in enumerate(STEPS):
            for rep in reps if i % 2 == 0 else reversed(reps):
                trace_out = self.dir / f"trace_{i:02d}_{step}.json" if rep.traced else None
                run = self.run_step(step, trace_out)
                rep.steps[step] = run
                if trace_out is not None and trace_out.exists():
                    trace = json.loads(trace_out.read_text(encoding="utf-8"))
                    trace["scale"] = run.scale
                    rep.traces.append(trace)
                    trace_out.unlink()
                if run.code != 0:
                    print(f"step {step} exited {run.code}: {run.stderr.strip()}", file=sys.stderr)
                    failed = True
                    break
            if failed:
                break
        for rep in reps:
            check_outputs(rep, self.dir / "work")
        return reps


# -- output checks -----------------------------------------------------------------


def _read_jsonl(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


def _point(report: dict, k: int, metric: str) -> float:
    for row in report["rows"]:
        if row["k"] == k:
            return float(row["metrics"][metric]["point"])
    raise KeyError(f"no row for k={k}")


def artifact_digest(work: Path) -> str:
    h = hashlib.sha256()
    for name in WATCHED:
        h.update(name.encode("utf-8") + b"\0")
        h.update((work / name).read_bytes())
    return h.hexdigest()


def check_outputs(rep: Repetition, work: Path) -> None:
    """Fill in the repetition's checks, quality metrics and operation counts.

    Operations are the step processes, the chunks and the mentions. A step
    that exits non-zero, a chunk that failed extraction, a mention that
    errored or stayed unresolved, and each failed output check count as one
    failure.
    """
    rep.checks["steps_exit_0"] = rep.ok
    rep.attempted = len(STEPS)
    rep.failed = len(STEPS) - sum(1 for s in rep.steps.values() if s.code == 0)
    if not rep.ok:
        return
    extract = rep.steps["extract"].summary()
    rep.attempted += int(extract.get("chunks", 0))
    rep.failed += int(extract.get("failures", 0))
    trace_rows = _read_jsonl(work / "standardize_trace.jsonl")
    rep.attempted += len(trace_rows)
    rep.failed += sum(1 for r in trace_rows if r["error"] or r["resolved"] is None)
    surfaces = {r["surface"].lower() for r in trace_rows}
    rep.repeat_share = 1.0 - len(surfaces) / max(1, len(trace_rows))

    cohort = {r["patientId"]: set(r["curatedTerms"]) for r in _read_jsonl(work / "cohort.jsonl")}
    standardized = {
        r["patientId"]: set(r["terms"]) for r in _read_jsonl(work / "standardized.jsonl")
    }
    rep.checks["curated_subset_standardized"] = all(
        gold <= standardized.get(pid, set()) for pid, gold in cohort.items()
    )
    evaluation = json.loads((work / "report_evaluation.json").read_text(encoding="utf-8"))
    ablation = json.loads((work / "report_ablation.json").read_text(encoding="utf-8"))
    permutation = json.loads((work / "report_permutation.json").read_text(encoding="utf-8"))
    stage = next(
        r for r in ablation["reports"] if r["configuration"] == "extraction_standardization"
    )
    precisions = [_point(evaluation, row["k"], "precision") for row in evaluation["rows"]]
    rep.quality = {
        "val_map30": float(rep.steps["train"].summary()["validationMap30"]),
        "precision_at_10": _point(evaluation, 10, "precision"),
        "delta_precision_at_10": _point(permutation, 10, "delta_precision"),
        "recall_at_50_std": _point(stage, 50, "recall"),
    }
    rep.checks["recall_at_50_std_is_1"] = rep.quality["recall_at_50_std"] == 1.0
    rep.checks["precision_non_increasing"] = all(
        b <= a + 1e-12 for a, b in zip(precisions, precisions[1:])
    )
    rep.digest = artifact_digest(work)
    rep.failed += sum(1 for ok in rep.checks.values() if not ok)


def check_digest(reps: list[Repetition], key: str) -> bool:
    """All repetitions of this run, and every earlier run of the same source
    tree, config and inputs in this checkout, produced the same artifacts."""
    digests = {r.digest for r in reps}
    if len(digests) != 1 or "" in digests:
        return False
    digest = digests.pop()
    store = {}
    if DIGEST_STORE.exists():
        store = json.loads(DIGEST_STORE.read_text(encoding="utf-8"))
    if store.setdefault(key, digest) != digest:
        return False
    tmp = DIGEST_STORE.with_name(f"{DIGEST_STORE.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, DIGEST_STORE)
    return True


# -- metrics -----------------------------------------------------------------------


def end_to_end(reps: list[Repetition], setups: list[StepRun], notes: int) -> dict:
    ok = [r for r in reps if r.ok]
    median = statistics.median
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    values = {
        "pipeline_s": median(r.time() for r in ok),
        "setup_s": median([s.time_s for s in setups] + [r.steps["ingest"].time_s for r in ok]),
        "notes_per_s": median(notes / r.time(TEXT_STEPS) for r in ok),
        "train_s": median(r.steps["train"].time_s for r in ok),
        "report_s": median(r.time(REPORT_STEPS) for r in ok),
        # ru_maxrss of waited-for children: the largest step process, in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
    }
    values.update(ok[-1].quality)
    return values


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[i]
    return out


def layer_values(rep: Repetition) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline, summed over its processes."""
    times: dict[str, float] = {}
    counters: dict[str, float] = {}
    for trace in rep.traces:
        for name, value in self_times(trace["spans"]).items():
            times[name] = times.get(name, 0.0) + value * trace["scale"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values = {f"{name}_s": t for name, t in times.items()}
    values.update(counters)
    mentions = counters.get("standardization.mentions", 0)
    values.update(
        {
            "cli.import_s": statistics.median(t["import_s"] * t["scale"] for t in rep.traces),
            "cli.processes": len(rep.traces),
            "ranking.sampling.pool_calls": counters.get(
                "ranking.sampling.negative_pools_calls", 0
            ),
            "standardization.cache_hit_ratio": (
                1.0 - counters.get("standardization.retrieve_calls", 0) / mentions
                if mentions
                else 0.0
            ),
            "ranking.models.val_map30": rep.quality["val_map30"],
            "trace.pipeline_s": rep.time(),
        }
    )
    return values


def per_layer(reps: list[Repetition], names: list[str]) -> dict[str, float]:
    """Medians over traced pipelines, plus what the untraced ones measure."""
    traced = [layer_values(r) for r in reps if r.traced and r.ok]
    untraced = [r for r in reps if not r.traced and r.ok]
    median = statistics.median
    out = {
        "trace.pipeline_s": median(v["trace.pipeline_s"] for v in traced),
        "machine.pipeline_wall_s": median(
            sum(run.wall_s for run in r.steps.values()) for r in untraced
        ),
        "machine.speed_scale": median(run.scale for r in untraced for run in r.steps.values()),
    }
    out["trace.overhead_s"] = out["trace.pipeline_s"] - median(r.time() for r in untraced)
    for name in names:
        if name not in out:
            out[name] = median(v[name] for v in traced)
    return out


# -- run record --------------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_tree() -> tuple[str, int]:
    """sha256 over ``src/`` sources and their total line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def run_record(bench: Bench, reps: list[Repetition], setups: list[StepRun]) -> dict:
    import numpy

    src_sha, src_lines = src_tree()
    return {
        "workload": bench.name,
        "seed": bench.seed,
        "patients": bench.patients,
        "git_sha": _git_sha(),
        "src_sha256": src_sha,
        "src_lines": src_lines,
        "nproc": bench.nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setup_ingest_wall_s": [s.wall_s for s in setups],
        "setup_ingest_scale": [s.scale for s in setups],
        "repetitions": [
            {
                "traced": r.traced,
                "step_wall_s": {s: run.wall_s for s, run in r.steps.items()},
                "step_scale": {s: run.scale for s, run in r.steps.items()},
                "checks": r.checks,
                "digest": r.digest,
                "mention_repeat_share": r.repeat_share,
            }
            for r in reps
        ],
    }


# -- main --------------------------------------------------------------------------


def metric_specs(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def run(workload: str, seed: int, seconds: float, trace: bool, patients: int | None) -> dict:
    specs = metric_specs("per_layer" if trace else "end_to_end")
    bench = Bench(workload, seed, patients)
    bench.prepare()
    try:
        bench.warm_up()
        setups = [] if trace else bench.samples("ingest", SETUP_INGESTS)
        reps: list[Repetition] = []
        loop_start = time.monotonic()
        while True:
            reps.extend(bench.pipeline(traced=trace))
            if not all(r.ok for r in reps):
                break
            last = sum(run.wall_s for r in reps[-1 - trace :] for run in r.steps.values())
            if time.monotonic() - loop_start >= seconds or bench.remaining() < 1.5 * last:
                break
        all_ok = all(r.ok for r in reps)
        key = f"{src_tree()[0]}:{bench.inputs_sha}"
        digest_ok = all_ok and check_digest(reps, key)
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps) + (not digest_ok)
        values = {}
        if all_ok and trace:
            values = per_layer(reps, list(specs))
        elif all_ok:
            notes = int(reps[0].steps["synth"].summary()["notes"])
            values = end_to_end(reps, setups, notes)
        record = run_record(bench, reps, setups)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    missing = sorted(set(specs) - set(values))
    if values and missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": specs[name]} for name in specs if name in values}
    result = {
        "correct": digest_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(
        {
            "checks": {"digest_repeatable": digest_ok, **reps[-1].checks},
            "result": result,
        }
    )
    out = WORK / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{workload:>12} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"run record: {out.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Phenorank pipeline benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--patients", type=int, default=None, help="Cohort size override for quick checks."
    )
    args = parser.parse_args(argv)
    if not (SRC / "phenorank" / "cli.py").is_file():
        print(f"no phenorank sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.patients)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
