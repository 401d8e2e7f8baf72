"""The benchmark summary script's statistics and machine record."""
import importlib.util
import json
from pathlib import Path

import pytest

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


def test_verdict_is_worse_beyond_the_bound():
    # medians 1.0 -> 1.3 on a lower-is-better metric: 30% worse, quartile spread 10%
    result = bench_summary.verdict([0.9, 1.0, 1.0, 1.1], [1.2, 1.3, 1.3, 1.4], "lower", 0.25)
    assert result["verdict"] == "worse" and result["bound"] == 0.25
    assert abs(result["relative"] - 0.3) < 1e-12


def test_verdict_is_within_the_bound_in_either_direction():
    within = bench_summary.verdict([9.0, 10.0, 10.0, 11.0], [8.0, 9.0, 9.0, 10.0], "higher", 0.25)
    assert within["verdict"] == "within" and abs(within["relative"] - 0.1) < 1e-12
    better = bench_summary.verdict([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], "lower", 0.1)
    assert better == {"relative": -0.5, "bound": 0.1, "verdict": "within"}


def test_verdict_is_unresolved_when_the_base_spread_exceeds_the_bound():
    # quartiles 0.6 and 1.0 around a median of 0.8: spread 50% against a bound of 25%
    noisy = [0.4, 0.6, 0.8, 1.0, 1.2]
    assert bench_summary.verdict(noisy, [0.8, 0.8, 0.8, 0.8, 0.8], "lower", 0.25)["verdict"] == "unresolved"
    assert bench_summary.verdict(noisy, [2.0, 2.0, 2.0, 2.0, 2.0], "lower", 0.25)["verdict"] == "unresolved"
    # unless every run of the other side is better than every base run
    assert bench_summary.verdict(noisy, [0.3, 0.3, 0.35, 0.3, 0.3], "lower", 0.25)["verdict"] == "within"


# ten seed pairs of a lower-is-better metric: parent quartiles 0.9625 and 1.0375
PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.2, 0.8, 1.0]


def test_claim_is_met_when_nine_of_ten_pairs_win_by_more_than_the_parent_spread():
    change = [p - 0.3 for p in PARENT[:9]] + [PARENT[9] + 0.1]  # loses the last pair
    result = bench_summary.claim(PARENT, change, "lower")
    assert result["won"] == 9 and result["pairs"] == 10 and result["met"]
    assert abs(result["difference"] - 0.3) < 1e-12 and abs(result["parent_iqr"] - 0.075) < 1e-12


def test_claim_is_not_met_with_eight_wins_or_a_small_difference():
    eight = [p - 0.3 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert bench_summary.claim(PARENT, eight, "lower")["won"] == 8
    assert not bench_summary.claim(PARENT, eight, "lower")["met"]
    small = [p - 0.05 for p in PARENT]  # wins every pair, by less than q3 - q1 = 0.075
    result = bench_summary.claim(PARENT, small, "lower")
    assert result["won"] == 10 and not result["met"]


def test_claim_ties_count_for_neither_side():
    nine = [p - 0.3 for p in PARENT[:9]] + PARENT[9:]
    assert bench_summary.claim(PARENT, nine, "lower")["met"]
    eight = [p - 0.3 for p in PARENT[:8]] + PARENT[8:]
    result = bench_summary.claim(PARENT, eight, "lower")
    assert result["won"] == 8 and not result["met"]


def test_claim_follows_the_better_direction():
    higher = [p + 0.3 for p in PARENT]
    assert bench_summary.claim(PARENT, higher, "higher")["met"]
    assert not bench_summary.claim(PARENT, higher, "lower")["met"]
    assert bench_summary.claim(PARENT, higher, "lower")["difference"] < 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--claim", "kernels:run_s", "kernels:1"],  # one side
        ["--side", "a=.", "--side", "b=.", "--claim", "rerun:run_s", "kernels:1"],  # not run
        ["--side", "a=.", "--side", "b=.", "--claim", "kernels:speed", "kernels:1"],  # no such metric
    ],
)
def test_claim_refuses_what_it_cannot_judge_before_any_run(argv):
    with pytest.raises(SystemExit) as exit_info:
        bench_summary.main(["--tag", "unused", *argv])
    assert exit_info.value.code == 2


def test_traced_stores_each_sides_per_layer_metrics(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text((bench_summary.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        layer = {"models.cached_ms": {"value": 0.03 if checkout.name == "a" else 0.01, "unit": "ms"}}
        return {"seed": seed, "correct": True, "attempted": 3, "failed": 0, "metrics": layer}

    monkeypatch.setattr(bench_summary, "run_once", run_once)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    sides = ["--side", f"a={tmp_path / 'a'}", "--side", f"b={tmp_path / 'b'}"]
    assert bench_summary.main(["--tag", "t", *sides, "--first-seed", "7", "--traced", "rerun"]) == 0
    assert calls == [("a", "rerun", 7, 1), ("b", "rerun", 7, 1)]
    traced = json.loads((tmp_path / "BENCH_t.json").read_text())["traced"]["rerun"]
    assert traced["command"] == "python3 perfbench/run.py --workload rerun --seed 7 --seconds 25 --trace 1"
    assert traced["a"] == {"models.cached_ms": {"value": 0.03, "unit": "ms"}}
    assert traced["b"] == {"models.cached_ms": {"value": 0.01, "unit": "ms"}}


def test_nothing_to_run_is_refused():
    with pytest.raises(SystemExit) as exit_info:
        bench_summary.main(["--tag", "unused"])
    assert exit_info.value.code == 2
