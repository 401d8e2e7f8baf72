"""Fold perfbench runs into one committed summary, BENCH_<tag>.json.

Usage (from the repository root):

    python3 tools/bench_summary.py --tag lanczos \
        --side parent=/path/to/parent/checkout --side change=. \
        sweep1d:10 kernels:3 rerun:3

Each ``WORKLOAD:COUNT`` runs ``python3 perfbench/run.py --workload W
--seed S --seconds 25 --trace 0`` (the ``run_seconds`` of
``BENCHMARK.json``) for COUNT seeds from ``--first-seed`` on, once in
every checkout given by ``--side NAME=DIR`` (default: this repository, as
``change``).  With two sides the order alternates by seed, the first side
first on odd seeds.  The summary, written at the root of this
repository, holds per side, workload and end-to-end metric of
``BENCHMARK.json``, the median, the quartiles and the run count; with two
sides, how many seed pairs the second side won, tied and lost on each
metric, and a verdict on each by the no-regression rule (``verdict``);
every run's raw result; and the machine: nproc, the BLAS that
``numpy.show_config()`` reports, the BLAS thread variables, and the
Python, NumPy and SciPy versions.

``--claim WORKLOAD:METRIC`` (two sides only) also applies the gain rule
to one metric (``claim``): the second side must win at least 9 of every
10 seed pairs, and its median must beat the first side's by more than
the first side's quartile spread q3 - q1.  The result goes into the
summary as ``claim`` and is printed as ``met`` or ``not met``.

``--traced WORKLOAD`` (repeatable) adds one ``--trace 1`` run per side
after the pairs, with the first seed, and stores each side's per-layer
metrics under ``traced``: every value is the median over that run's
traced rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def perfbench_argv(workload: str, seed: int, seconds: float, trace: int = 0) -> list:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in ``checkout``: its last output line, with the seed."""
    argv = [sys.executable, *perfbench_argv(workload, seed, seconds, trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, **result}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def pair_counts(base: list, other: list, better: str) -> dict:
    """Seed pairs where ``other`` beat, tied or lost to ``base``."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (o - b) for b, o in zip(base, other)]
    return {"won": sum(d > 0 for d in diffs), "tied": sum(d == 0 for d in diffs), "lost": sum(d < 0 for d in diffs)}


def verdict(base: list, other: list, better: str, bound: float) -> dict:
    """``other`` against ``base`` on one metric with the relative ``bound`` of ``BENCHMARK.json``.

    ``relative`` is the signed change of the medians, positive when ``other``
    is worse.  The verdict is ``unresolved`` when the quartile spread of
    ``base``, (q3 - q1) / median, exceeds the bound, unless every run of
    ``other`` is better than every run of ``base``; ``worse`` when
    ``relative`` exceeds the bound; and ``within`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    stats = summary(base)
    relative = sign * (statistics.median(other) - stats["median"]) / stats["median"]
    all_better = max(sign * o for o in other) < min(sign * b for b in base)
    if (stats["q3"] - stats["q1"]) / stats["median"] > bound and not all_better:
        name = "unresolved"
    else:
        name = "worse" if relative > bound else "within"
    return {"relative": relative, "bound": bound, "verdict": name}


def claim(base: list, other: list, better: str) -> dict:
    """The gain rule for ``other`` against ``base`` on one metric.

    ``won`` counts the seed pairs ``other`` won; a tie counts for neither
    side, so it is a pair not won.  ``difference`` is the change of the
    medians in the metric's better direction, positive when ``other`` is
    better.  The claim is ``met`` when ``other`` won at least 9 of every
    10 pairs and ``difference`` exceeds ``base``'s q3 - q1.
    """
    won = pair_counts(base, other, better)["won"]
    sign = 1.0 if better == "lower" else -1.0
    stats = summary(base)
    difference = sign * (stats["median"] - statistics.median(other))
    parent_iqr = stats["q3"] - stats["q1"]
    met = 10 * won >= 9 * len(base) and difference > parent_iqr
    return {"won": won, "pairs": len(base), "difference": difference, "parent_iqr": parent_iqr, "met": met}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--side", action="append", default=[], metavar="NAME=DIR")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="apply the gain rule to one metric")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                        help="one --trace 1 run per side; its per-layer metrics go under traced")
    parser.add_argument("runs", nargs="*", metavar="WORKLOAD:COUNT")
    args = parser.parse_args(argv)
    if not args.runs and not args.traced:
        parser.error("give a WORKLOAD:COUNT or a --traced WORKLOAD")
    sides = dict(side.split("=", 1) for side in args.side) or {"change": str(ROOT)}
    sides = {name: Path(path).resolve() for name, path in sides.items()}
    if len(sides) > 2:
        parser.error("give at most two sides")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    if args.claim:
        claimed_workload, _, claimed_metric = args.claim.partition(":")
        if len(sides) != 2:
            parser.error("--claim needs two sides")
        if claimed_workload not in {spec.partition(":")[0] for spec in args.runs}:
            parser.error(f"--claim names workload {claimed_workload!r}, which is not run")
        if claimed_metric not in {m["name"] for m in end_to_end}:
            parser.error(f"--claim names {claimed_metric!r}, not an end-to-end metric of BENCHMARK.json")

    raw = {name: {} for name in sides}
    for spec in args.runs:
        workload, _, count = spec.partition(":")
        for seed in range(args.first_seed, args.first_seed + int(count or 1)):
            order = list(sides) if seed % 2 else list(sides)[::-1]
            for name in order:
                result = run_once(sides[name], workload, seed, seconds)
                raw[name].setdefault(workload, []).append(result)
                print(f"{workload} seed {seed} {name}: {json.dumps(result['metrics'])}", file=sys.stderr)

    report = {"machine": machine(), "seconds": seconds, "sides": {}, "pairs": {}, "verdicts": {}}
    for name, workloads in raw.items():
        report["sides"][name] = {}
        for workload, results in workloads.items():
            report["sides"][name][workload] = {
                "metrics": {
                    m["name"]: {**summary([r["metrics"][m["name"]]["value"] for r in results]), "unit": m["unit"]}
                    for m in end_to_end
                },
                "correct": sum(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "results": results,
            }
    if len(sides) == 2:
        base, other = list(sides)
        for workload in raw[base]:
            report["pairs"][workload], report["verdicts"][workload] = {}, {}
            for m in end_to_end:
                runs = [[r["metrics"][m["name"]]["value"] for r in raw[side][workload]] for side in (base, other)]
                report["pairs"][workload][m["name"]] = pair_counts(*runs, m["better"])
                result = verdict(*runs, m["better"], m["bound"])
                report["verdicts"][workload][m["name"]] = result
                print(f"{workload} {m['name']}: {result['verdict']} ({result['relative']:+.3f}, bound {m['bound']})",
                      file=sys.stderr)
    if args.claim:
        base, other = list(sides)
        better = next(m["better"] for m in end_to_end if m["name"] == claimed_metric)
        runs = [[r["metrics"][claimed_metric]["value"] for r in raw[side][claimed_workload]] for side in (base, other)]
        report["claim"] = {"workload": claimed_workload, "metric": claimed_metric, **claim(*runs, better)}
        print(f"claim {args.claim}: {'met' if report['claim']['met'] else 'not met'} "
              f"(won {report['claim']['won']} of {report['claim']['pairs']})")
    if args.traced:
        report["traced"] = {}
    for workload in args.traced:
        argv = perfbench_argv(workload, args.first_seed, seconds, trace=1)
        report["traced"][workload] = {
            "command": " ".join(["python3", *argv]),
            "note": "one run per side, after the pairs; each value is the median over that run's traced rounds",
        }
        for name, checkout in sides.items():
            result = run_once(checkout, workload, args.first_seed, seconds, trace=1)
            report["traced"][workload][name] = result["metrics"]
            print(f"{workload} traced {name}: {json.dumps(result['metrics'])}", file=sys.stderr)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
