"""Pipeline benchmark for rbfuq: one workload, one seed, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

It sets up the workload, runs whole rounds of it until ``--seconds`` have
passed, checks every round's outputs, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (set-up time, time per round, work per
second, peak RSS); with ``--trace 1`` rounds alternate between plain and
traced, the set-up is traced as well, and the metrics are the per-layer
ones.  It imports rbfuq from
``src/`` next to this directory and exits with status 2 when that is
missing.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kernels", "sweep1d", "rerun")
SETUP_REPEATS = 5
SOLVER_LAUNCHES = 32


def _setup_probes(configs) -> list:
    """Run the set-up probe SETUP_REPEATS times; (wall, reported) pairs."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, configs)]
    out = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        out.append((time.perf_counter() - t, json.loads(proc.stdout.splitlines()[-1])))
    return out


def _solver_ms(work: Path) -> float:
    """Median wall time of the stub solver started directly, in ms."""
    from perfbench.workloads import stub_argv

    sample = work / "solver"
    sample.mkdir()
    params = sample / "params.txt"
    params.write_text("0.25 0.5 0.75\n")
    argv = stub_argv(params, sample, "0,1,2", sample / "log")
    times = []
    for _ in range(SOLVER_LAUNCHES):
        t = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - t)
    return 1000.0 * statistics.median(times)


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, results: Path) -> dict:
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS as CLASSES

    wl = CLASSES[name](work, seed)
    t = time.perf_counter()
    configs = wl.write_inputs()
    own = time.perf_counter() - t
    probes = _setup_probes(configs)
    # samples are launched only here (rerun's cold pass), so trace it too
    setup_tracer = Tracer() if trace else None
    with setup_tracer.patched(layers.targets()) if setup_tracer else nullcontext():
        t = time.perf_counter()
        wl.prepare()
        prepare_wall = time.perf_counter() - t
    own += prepare_wall

    rounds = []
    tracers = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        with tracer.patched(layers.targets()) if tracer else nullcontext():
            t = time.perf_counter()
            units = wl.timed()
            wall = time.perf_counter() - t
        ops, bad = wl.settle()
        attempted += ops
        failed += bad
        rounds.append((tracer, wall, units))
        if tracer:
            tracers.append((tracer, wall))
        if time.perf_counter() - start >= seconds and (not trace or tracers):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.validate()

    plain = [(wall, units) for tracer, wall, units in rounds if tracer is None]
    if not trace:
        metrics = {
            "setup_s": _metric(own + statistics.median(w for w, _ in probes), "s"),
            "run_s": _metric(statistics.median(w for w, _ in plain), "s"),
            "work_per_s": _metric(statistics.median(u / w for w, u in plain), "1/s"),
            "peak_rss_mb": _metric(peak_mb, "MiB"),
        }
    else:
        per_round = [layers.metrics(tr.spans, wall) for tr, wall in tracers]
        metrics = {
            key: _metric(statistics.median(m[key][0] for m in per_round), per_round[0][key][1])
            for key in per_round[0]
        }
        in_setup = layers.metrics(setup_tracer.spans, prepare_wall)
        for key in ("models.launched", "models.launch_ms"):
            metrics[key] = _metric(*in_setup[key])
        metrics["rbfuq.import_s"] = _metric(statistics.median(p["import_s"] for _, p in probes), "s")
        metrics["config.load_s"] = _metric(statistics.median(p["load_s"] for _, p in probes), "s")
        metrics["models.solver_ms"] = _metric(_solver_ms(work), "ms")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(w for _, w in tracers) - statistics.median(w for w, _ in plain), "s"
        )
        # the set-up's spans, and one list of spans per traced round;
        # a span's parent indexes into its own list
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"trace-{name}-seed{seed}.json", "w") as fh:
            json.dump({
                "setup": [dataclasses.asdict(s) for s in setup_tracer.spans],
                "rounds": [[dataclasses.asdict(s) for s in tr.spans] for tr, _ in tracers],
            }, fh)
    for problem in wl.check.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not wl.check.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rbfuq" / "__init__.py").is_file():
        print(f"rbfuq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import rbfuq

    if Path(rbfuq.__file__).resolve().parent != SRC / "rbfuq":
        print(f"imported rbfuq from {rbfuq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, HERE / "results")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
