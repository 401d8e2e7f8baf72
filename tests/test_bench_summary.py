"""The benchmark summary script's statistics and machine record."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def test_summary_is_median_and_inclusive_quartiles():
    assert bench_summary.summary([3.0, 1.0, 2.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4}
    assert bench_summary.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": 1}


def test_pair_counts_follow_the_better_direction():
    assert bench_summary.pair_counts([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == {"won": 1, "tied": 1, "lost": 1}
    assert bench_summary.pair_counts([1.0, 2.0], [2.0, 3.0], "higher") == {"won": 2, "tied": 0, "lost": 0}


def test_machine_names_blas_threads_and_versions():
    record = bench_summary.machine()
    assert record["nproc"] >= 1
    assert record["blas"]["name"]
    assert set(record["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert {"python", "numpy", "scipy"} <= set(record)
