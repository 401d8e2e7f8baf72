import builtins
import json
import os
import shutil
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfuq import (
    External,
    ExternalCommandError,
    ExternalError,
    ExternalTimeoutError,
    OutputFormatError,
    OutputValueError,
    StaleSampleError,
    load_config,
    read_qoi,
    run_campaign,
    write_qoi,
)
from rbfuq.cli import EXIT_OK, main
from rbfuq.models import external

PY = sys.executable

ECHO_STUB = """\
import pathlib, struct, sys
params, out_dir = sys.argv[1], pathlib.Path(sys.argv[2])
vals = [float(t) for t in pathlib.Path(params).read_text().split()]
with open(out_dir / "qoi.bin", "wb") as fh:
    fh.write(struct.pack("<Q", len(vals)))
    for v in vals:
        fh.write(struct.pack("<d", v))
"""


# argv: params dir log; appends the sample directory to ``log``, then echoes the point
LOGGING_ECHO_STUB = ECHO_STUB + """\
with open(sys.argv[3], "a") as log:
    log.write(sys.argv[2] + "\\n")
"""


# argv: params dir index fail; exits 5 on sample ``fail``, echoes the point otherwise
FAILING_ECHO_STUB = """\
import struct, sys
params, out_dir, index, fail = sys.argv[1:5]
if index == fail:
    sys.exit(5)
with open(params) as fh:
    vals = [float(t) for t in fh.read().split()]
with open(out_dir + "/qoi.bin", "wb") as fh:
    fh.write(struct.pack("<Q%dd" % len(vals), len(vals), *vals))
"""


def make_stub(tmp_path, body, name="stub.py"):
    path = tmp_path / name
    path.write_text(body)
    return path


def echo_spec(tmp_path, **kw):
    stub = make_stub(tmp_path, ECHO_STUB)
    return External(
        command=f"{PY} {stub} {{params}} {{dir}}",
        root=str(tmp_path / "runs"),
        **kw,
    )


class TestQoiFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "qoi.bin"
        values = np.array([1.5, -2.25, 1e-300, 7.0])
        write_qoi(path, values)
        assert np.array_equal(read_qoi(path), values)

    def test_empty_vector(self, tmp_path):
        path = tmp_path / "qoi.bin"
        write_qoi(path, [])
        assert read_qoi(path).size == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "qoi.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="too short"):
            read_qoi(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "qoi.bin"
        path.write_bytes(struct.pack("<Q", 3) + struct.pack("<d", 1.0))
        with pytest.raises(ValueError, match="short"):
            read_qoi(path)

    def test_write_failing_midway_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "mean.bin"
        write_qoi(path, [1.0, 2.0])
        opened = []

        class FailingWrite:  # the one write stops after the count header, as a full disk would
            def __init__(self, name, mode):
                opened.append(str(name))
                self.fh = builtins.open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:8])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(external, "open", FailingWrite, raising=False)
        with pytest.raises(OSError, match="No space"):
            write_qoi(path, [3.0, 4.0, 5.0])
        monkeypatch.undo()
        # the header went to a file beside the target, never to the target
        assert len(opened) == 1 and opened[0] != str(path)
        assert opened[0].startswith(str(tmp_path))
        assert np.array_equal(read_qoi(path), [1.0, 2.0])
        assert [p.name for p in tmp_path.iterdir()] == ["mean.bin"]


class TestSingleSample:
    def test_echo_roundtrip_17_digits(self, tmp_path):
        spec = echo_spec(tmp_path)
        y = np.array([1.0 / 3.0, 0.1, -2.0 / 7.0])
        assert np.array_equal(run_campaign(spec, y).table, [y])

    def test_files_laid_out_per_sample(self, tmp_path):
        spec = echo_spec(tmp_path)
        run_campaign(spec, np.full((4, 1), 0.5))
        sample_dir = spec.samples_dir / "3"
        assert (sample_dir / "params.txt").exists()
        assert (sample_dir / "qoi.bin").exists()
        assert (sample_dir / "done").exists()

    def test_index_placeholder(self, tmp_path):
        body = ECHO_STUB + "\n(out_dir / ('tag' + sys.argv[3])).touch()\n"
        stub = make_stub(tmp_path, body)
        spec = External(
            command=f"{PY} {stub} {{params}} {{dir}} {{index}}",
            root=str(tmp_path / "runs"),
        )
        run_campaign(spec, np.full((3, 1), 0.5))
        assert sorted(p.name for p in (spec.samples_dir / "2").glob("tag*")) == ["tag2"]

    def test_expected_m_mismatch(self, tmp_path):
        spec = echo_spec(tmp_path, expected_m=5)
        with pytest.raises(OutputFormatError, match="expected 5"):
            run_campaign(spec, [[0.5, 0.5]])


def failing_spec(tmp_path, body, **kw):
    stub = make_stub(tmp_path, body)
    return External(command=f"{PY} {stub} {{params}} {{dir}}", root=str(tmp_path / "runs"), **kw)


class TestFailureModes:
    def test_nonzero_exit(self, tmp_path):
        spec = failing_spec(tmp_path, "import sys; print('boom', file=sys.stderr); sys.exit(3)")
        with pytest.raises(ExternalCommandError, match="sample 0.*exit status 3.*boom"):
            run_campaign(spec, [[0.5]])

    def test_unlaunchable_command(self, tmp_path):
        spec = External(command="/no/such/binary {params}", root=str(tmp_path / "runs"))
        with pytest.raises(ExternalCommandError, match="could not launch"):
            run_campaign(spec, [[0.5]])

    def test_timeout(self, tmp_path):
        spec = failing_spec(tmp_path, "import time; time.sleep(30)", timeout=0.5)
        with pytest.raises(ExternalTimeoutError, match="timed out"):
            run_campaign(spec, [[0.5]])

    def test_timeout_kills_the_process_tree(self, tmp_path):
        marker = tmp_path / "marker"
        spec = External(
            command=f'sh -c "(sleep 1; touch {marker}) & sleep 30"',
            root=str(tmp_path / "runs"),
            timeout=0.3,
        )
        with pytest.raises(ExternalTimeoutError, match="timed out"):
            run_campaign(spec, [[0.5]])
        time.sleep(1.5)  # the background child would have written its marker by now
        assert not marker.exists()

    def test_missing_output(self, tmp_path):
        spec = failing_spec(tmp_path, "pass")
        with pytest.raises(OutputFormatError, match="no output file"):
            run_campaign(spec, [[0.5]])

    def test_short_output(self, tmp_path):
        body = (
            "import pathlib, struct, sys\n"
            "pathlib.Path(sys.argv[2], 'qoi.bin').write_bytes(struct.pack('<Q', 9))\n"
        )
        with pytest.raises(OutputFormatError, match="short"):
            run_campaign(failing_spec(tmp_path, body), [[0.5]])

    def test_nan_output(self, tmp_path):
        body = (
            "import pathlib, struct, sys\n"
            "with open(pathlib.Path(sys.argv[2]) / 'qoi.bin', 'wb') as fh:\n"
            "    fh.write(struct.pack('<Q', 1) + struct.pack('<d', float('nan')))\n"
        )
        with pytest.raises(OutputValueError, match="non-finite"):
            run_campaign(failing_spec(tmp_path, body), [[0.5]])

    def test_errors_carry_sample_index(self, tmp_path):
        stub = make_stub(tmp_path, FAILING_ECHO_STUB)
        spec = External(command=f"{PY} {stub} {{params}} {{dir}} {{index}} 2", root=str(tmp_path / "runs"))
        with pytest.raises(ExternalError) as info:
            run_campaign(spec, np.full((3, 1), 0.5))
        assert info.value.sample_index == 2

    def test_failed_sample_not_marked_done(self, tmp_path):
        spec = failing_spec(tmp_path, "import sys; sys.exit(1)")
        with pytest.raises(ExternalCommandError):
            run_campaign(spec, [[0.5]])
        assert not (spec.samples_dir / "0" / "done").exists()


class TestCampaign:
    def test_table_rows_follow_point_order(self, tmp_path):
        spec = echo_spec(tmp_path)
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        result = run_campaign(spec, pts)
        assert np.array_equal(result.table, pts)
        assert result.launched == 3
        assert result.cached == 0

    def test_rerun_hits_cache(self, tmp_path):
        spec = echo_spec(tmp_path)
        pts = np.array([[0.1], [0.2], [0.3]])
        run_campaign(spec, pts)
        again = run_campaign(spec, pts)
        assert again.launched == 0
        assert again.cached == 3
        assert np.array_equal(again.table, pts)

    @pytest.mark.parametrize("where,sidecar", [(".", "first/ext.json"), ("sub", "../first/ext.json")])
    def test_study_sidecar_reruns_from_the_cache(self, tmp_path, monkeypatch, where, sidecar):
        # the sidecar echoes the root as an absolute path, so a rerun from
        # any working directory reads every sample back and launches none
        stub = make_stub(tmp_path, LOGGING_ECHO_STUB)
        log = tmp_path / "launches.log"
        monkeypatch.chdir(tmp_path)
        first_cwd = os.getcwd()
        (tmp_path / "cfg.json").write_text(json.dumps({
            "domain": {"kind": "unit", "dim": 1},
            "model": {"kind": "external", "command": f"{PY} {stub} {{params}} {{dir}} {log}", "root": "runs"},
            "kernels": [{"family": "gaussian"}],
            "schedule": [4, 8],
            "norm": "rel_scalar",
            "reference": {"kind": "kernel", "n_max": 12, "kernel": {"family": "gaussian"}},
            "jobs": 2,
            "csv": "ext.csv",
        }))
        assert main(["study", "--config", "cfg.json", "--out", "first"]) == EXIT_OK
        assert len(log.read_text().splitlines()) == 12
        (tmp_path / where).mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / where)
        assert main(["study", "--config", sidecar, "--out", "rerun"]) == EXIT_OK
        assert len(log.read_text().splitlines()) == 12
        assert (tmp_path / where / "rerun" / "study.csv").read_bytes() == (tmp_path / "first" / "ext.csv").read_bytes()
        assert load_config(sidecar).model.root == os.path.join(first_cwd, "runs")

    def test_cached_sample_at_another_point_is_refused(self, tmp_path):
        spec = echo_spec(tmp_path)
        assert run_campaign(spec, [[0.5]]).table[0, 0] == 0.5
        with pytest.raises(StaleSampleError, match="0.5") as info:
            run_campaign(spec, [[0.9]])
        assert info.value.sample_index == 0
        # the refusal changes nothing on disk: the old point still hits the cache
        assert run_campaign(spec, np.array([[0.5]])).cached == 1

    def test_cached_sample_without_params_is_refused(self, tmp_path):
        spec = echo_spec(tmp_path)
        run_campaign(spec, np.array([[0.1], [0.2]]))
        (spec.samples_dir / "1" / "params.txt").unlink()
        with pytest.raises(StaleSampleError) as info:
            run_campaign(spec, np.array([[0.1], [0.2]]))
        assert info.value.sample_index == 1

    def test_parallel_matches_serial(self, tmp_path):
        spec = echo_spec(tmp_path)
        pts = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
        serial = run_campaign(spec, pts).table
        spec2 = External(command=spec.command, root=str(tmp_path / "runs2"))
        parallel = run_campaign(spec2, pts, jobs=4).table
        assert np.array_equal(serial, parallel)

    def test_ragged_outputs_rejected(self, tmp_path):
        body = (
            "import pathlib, struct, sys\n"
            "params, out = sys.argv[1], pathlib.Path(sys.argv[2])\n"
            "n = 1 if out.name == '0' else 2\n"
            "with open(out / 'qoi.bin', 'wb') as fh:\n"
            "    fh.write(struct.pack('<Q', n) + b'\\x00' * (8 * n))\n"
        )
        stub = make_stub(tmp_path, body)
        spec = External(command=f"{PY} {stub} {{params}} {{dir}}", root=str(tmp_path / "runs"))
        with pytest.raises(OutputFormatError, match="values"):
            run_campaign(spec, np.array([[0.1], [0.2]]))

    def test_bad_jobs_rejected(self, tmp_path):
        spec = echo_spec(tmp_path)
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(spec, np.array([[0.1]]), jobs=0)

    def test_failure_propagates(self, tmp_path):
        stub = make_stub(tmp_path, "import sys; sys.exit(2)")
        spec = External(command=f"{PY} {stub} {{params}} {{dir}}", root=str(tmp_path / "runs"))
        with pytest.raises(ExternalCommandError):
            run_campaign(spec, np.array([[0.1], [0.2]]), jobs=2)


class TestCachedBeforeLaunch:
    """Cached samples are read before the pool, and only misses launch."""

    @pytest.mark.parametrize("fault", ["stale", "truncated"])
    def test_bad_cached_sample_refused_before_any_launch(self, tmp_path, fault):
        log = tmp_path / "launches.log"
        body = ECHO_STUB + "with open(sys.argv[3], 'a') as fh:\n    fh.write(out_dir.name + '\\n')\n"
        stub = make_stub(tmp_path, body)
        spec = External(command=f"{PY} {stub} {{params}} {{dir}} {log}", root=str(tmp_path / "runs"))
        pts = np.linspace(0.1, 0.6, 6).reshape(-1, 1)
        run_campaign(spec, pts[:3])
        log.unlink()
        if fault == "stale":
            (spec.samples_dir / "1" / "params.txt").write_text("0.9\n")
            expected = StaleSampleError
        else:
            (spec.samples_dir / "1" / "qoi.bin").write_bytes(struct.pack("<Q", 1))
            expected = OutputFormatError
        with pytest.raises(expected) as info:
            run_campaign(spec, pts, jobs=2)
        assert info.value.sample_index == 1
        assert not log.exists()
        assert sorted(p.name for p in spec.samples_dir.iterdir()) == ["0", "1", "2"]

    @settings(max_examples=10, deadline=None)
    @given(case=st.data())
    def test_partly_filled_root_matches_a_fresh_serial_run(self, tmp_path_factory, case):
        dim = case.draw(st.integers(1, 2), label="dim")
        coords = st.floats(allow_nan=False, allow_infinity=False)
        points = np.array(
            case.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=6)),
            dtype=float,
        )
        n = len(points)
        prefilled = case.draw(st.sets(st.integers(0, n - 1)), label="prefilled")
        jobs = case.draw(st.sampled_from([1, 2, 3]), label="jobs")
        fail = case.draw(st.none() | st.integers(0, n - 1), label="fail")

        tmp = tmp_path_factory.mktemp("campaign")
        stub = make_stub(tmp, FAILING_ECHO_STUB)

        def spec(root, failing):
            return External(command=f"{PY} -S {stub} {{params}} {{dir}} {{index}} {failing}", root=str(tmp / root))

        fresh = run_campaign(spec("fresh", -1), points)
        assert fresh.launched == n
        part = spec("part", -1 if fail is None else fail)
        for i in prefilled:
            shutil.copytree(tmp / "fresh" / "samples" / str(i), part.samples_dir / str(i))
        if fail is not None and fail not in prefilled:
            with pytest.raises(ExternalCommandError) as info:
                run_campaign(part, points, jobs=jobs)
            assert info.value.sample_index == fail
            assert not (part.samples_dir / str(fail) / "done").exists()
            return
        result = run_campaign(part, points, jobs=jobs)
        assert np.array_equal(result.table, fresh.table)
        assert (result.launched, result.cached) == (n - len(prefilled), len(prefilled))


def params_line(y):
    """A ``params.txt`` line as the protocol states it: 17 significant digits."""
    return " ".join(format(float(v), ".17g") for v in y) + "\n"


def fill_sample(spec, index, y, values):
    """Lay out a finished sample by hand, as a finished solve leaves it."""
    sample_dir = spec.samples_dir / str(index)
    sample_dir.mkdir(parents=True)
    (sample_dir / "params.txt").write_text(params_line(y))
    write_qoi(sample_dir / "qoi.bin", values)
    (sample_dir / "done").touch()
    return sample_dir


def logging_spec(tmp_path, **kw):
    """An echo solver that appends its sample index to ``launches.log``."""
    body = ECHO_STUB + "with open(sys.argv[3], 'a') as fh:\n    fh.write(out_dir.name + '\\n')\n"
    stub = make_stub(tmp_path, body)
    log = tmp_path / "launches.log"
    return External(command=f"{PY} {stub} {{params}} {{dir}} {log}", root=str(tmp_path / "runs"), **kw), log


# each cached fault: how it is laid on the sample, and the refusal it must meet
def _stale(d, y):
    (d / "params.txt").write_text("0.5 nan\n")  # no drawn point is NaN
    return StaleSampleError, f"params.txt reads '0.5 nan', not {params_line(y).strip()!r}; remove {d} to relaunch it"


def _no_params(d, y):
    (d / "params.txt").unlink()
    return StaleSampleError, f"params.txt reads '', not {params_line(y).strip()!r}; remove {d} to relaunch it"


def _no_output(d, y):
    (d / "qoi.bin").unlink()
    return OutputFormatError, f"no output file {d}/qoi.bin"


def _short_header(d, y):
    (d / "qoi.bin").write_bytes(b"\x02\x00\x00")
    return OutputFormatError, f"{d}/qoi.bin: too short for a count header"


def _short_payload(d, y):
    (d / "qoi.bin").write_bytes(struct.pack("<Q", len(y)) + b"\x00" * (8 * len(y) - 1))
    return OutputFormatError, f"{d}/qoi.bin: header promises {len(y)} values, file is short"


def _expected_m(d, y):
    write_qoi(d / "qoi.bin", [*y, 1.0])
    return OutputFormatError, f"expected {len(y)} values, got {len(y) + 1}"


def _non_finite(d, y):
    write_qoi(d / "qoi.bin", [*y[:-1], np.inf])
    return OutputValueError, "non-finite values in output"


def _other_count(d, y):
    write_qoi(d / "qoi.bin", [*y, 1.0])
    return OutputFormatError, f"sample has {len(y) + 1} values, sample 0 has {len(y)}"


CACHED_FAULTS = {
    "stale": _stale,
    "no params": _no_params,
    "no output": _no_output,
    "short header": _short_header,
    "short payload": _short_payload,
    "expected_m": _expected_m,
    "non-finite": _non_finite,
    "other count": _other_count,
}


class TestCachedReads:
    """The cached path reads each sample into its row of one table."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.data())
    def test_one_cached_fault_is_refused_before_any_launch(self, tmp_path_factory, case):
        kind = case.draw(st.sampled_from(sorted(CACHED_FAULTS)), label="kind")
        dim = case.draw(st.integers(1, 3), label="dim")
        n = case.draw(st.integers(2, 7), label="n")
        cached = case.draw(st.sets(st.integers(0, n - 1), min_size=1), label="cached")
        if kind == "other count":
            # a count is compared with sample 0's, as every row of a campaign is
            cached |= {0, case.draw(st.integers(1, n - 1), label="second")}
            fault = case.draw(st.sampled_from(sorted(cached - {0})), label="fault")
        else:
            fault = case.draw(st.sampled_from(sorted(cached)), label="fault")
        jobs = case.draw(st.integers(1, 3), label="jobs")
        points = np.array(case.draw(st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
            min_size=n, max_size=n,
        )))
        tmp = tmp_path_factory.mktemp("faults")
        spec, log = logging_spec(tmp, expected_m=dim if kind == "expected_m" else None)
        dirs = {i: fill_sample(spec, i, points[i], points[i]) for i in sorted(cached)}
        expected, message = CACHED_FAULTS[kind](dirs[fault], points[fault])
        with pytest.raises(ExternalError) as info:
            run_campaign(spec, points, jobs=jobs)
        assert type(info.value) is expected
        assert info.value.sample_index == fault
        assert str(info.value) == f"sample {fault}: {message}"
        assert not log.exists()
        assert sorted(int(p.name) for p in spec.samples_dir.iterdir()) == sorted(cached)

    def test_the_earliest_of_two_faults_is_refused_in_sample_order(self, tmp_path):
        # the finiteness pass runs after the reads, yet blames as a per-sample check would
        spec, log = logging_spec(tmp_path)
        points = np.array([[0.1], [0.2], [0.3], [0.4]])
        dirs = [fill_sample(spec, i, y, y) for i, y in enumerate(points)]
        _non_finite(dirs[1], points[1])
        _stale(dirs[3], points[3])
        with pytest.raises(OutputValueError) as info:
            run_campaign(spec, points)
        assert info.value.sample_index == 1
        _no_output(dirs[0], points[0])
        with pytest.raises(OutputFormatError) as info:
            run_campaign(spec, points)
        assert info.value.sample_index == 0
        assert not log.exists()

    @pytest.mark.parametrize("cached", [8, 7], ids=["all cached", "sample 7 launches"])
    def test_the_lowest_non_finite_sample_is_refused(self, tmp_path, cached):
        # with a sample to launch, the check pass refuses sample 3 before the pool starts
        spec, log = logging_spec(tmp_path)
        points = np.linspace(0.1, 0.8, 16).reshape(-1, 2)
        dirs = [fill_sample(spec, i, y, y) for i, y in enumerate(points[:cached])]
        for i in (6, 3, 5):
            _non_finite(dirs[i], points[i])
        with pytest.raises(OutputValueError) as info:
            run_campaign(spec, points)
        assert str(info.value) == "sample 3: non-finite values in output"
        assert not log.exists()

    def test_cached_rows_of_two_counts_are_refused_before_the_misses_launch(self, tmp_path):
        spec, log = logging_spec(tmp_path)
        points = np.array([[0.1], [0.2], [0.3], [0.4]])
        fill_sample(spec, 1, points[1], points[1])
        fill_sample(spec, 3, points[3], [0.4, 1.0])
        with pytest.raises(OutputFormatError) as info:
            run_campaign(spec, points)
        assert info.value.sample_index == 3
        assert str(info.value) == "sample 3: sample has 2 values, sample 1 has 1"
        assert not log.exists()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_a_launched_row_of_another_count_is_refused_at_its_turn(self, tmp_path, jobs):
        # samples 2 and 4 write two values; sample 3 runs long enough for the refusal
        # of sample 2 to cancel the launches still queued behind it
        body = (
            "import struct, sys, time\n"
            "out, index, log = sys.argv[2], int(sys.argv[3]), sys.argv[4]\n"
            "with open(log, 'a') as fh:\n"
            "    fh.write(str(index) + '\\n')\n"
            "if index == 3:\n"
            "    time.sleep(1.0)\n"
            "n = 2 if index in (2, 4) else 1\n"
            "with open(out + '/qoi.bin', 'wb') as fh:\n"
            "    fh.write(struct.pack('<Q%dd' % n, n, *[0.5] * n))\n"
        )
        stub = make_stub(tmp_path, body)
        log = tmp_path / "launches.log"
        spec = External(command=f"{PY} {stub} {{params}} {{dir}} {{index}} {log}", root=str(tmp_path / "runs"))
        with pytest.raises(OutputFormatError) as info:
            run_campaign(spec, np.linspace(0.1, 0.6, 6).reshape(-1, 1), jobs=jobs)
        assert str(info.value) == "sample 2: sample has 2 values, sample 0 has 1"
        if jobs == 1:
            assert sorted(log.read_text().split()) == ["0", "1", "2", "3"]

    def test_launched_rows_join_the_cached_table(self, tmp_path):
        spec, log = logging_spec(tmp_path, expected_m=2)
        points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        fill_sample(spec, 1, points[1], points[1])
        result = run_campaign(spec, points, jobs=2)
        assert np.array_equal(result.table, points) and result.table.dtype == np.float64
        assert (result.launched, result.cached) == (2, 1)
        assert sorted(log.read_text().split()) == ["0", "2"]

    def test_a_large_cached_table_is_the_campaigns_one_copy(self, tmp_path):
        import tracemalloc

        spec = External(command="false", root=str(tmp_path / "runs"))
        points = np.linspace(0.0, 1.0, 64).reshape(-1, 1)
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((64, 2**16))
        for i, y in enumerate(points):
            fill_sample(spec, i, y, rows[i])
        tracemalloc.start()
        try:
            result = run_campaign(spec, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(result.table, rows) and result.cached == 64
        assert peak <= 1.05 * rows.nbytes

    def test_an_empty_point_array_is_refused_before_any_directory(self, tmp_path):
        spec = echo_spec(tmp_path)
        with pytest.raises(ValueError, match=r"empty array of shape \(0, 3\)"):
            run_campaign(spec, np.empty((0, 3)))
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("point", [0.1, 1.0 / 3.0, -0.0, 1e-310, -2.5e300, 3])
    def test_params_lines_round_trip_every_double(self, tmp_path, point):
        spec = echo_spec(tmp_path)
        y = np.array([[point, 0.5]])
        run_campaign(spec, y)
        assert (spec.samples_dir / "0" / "params.txt").read_text() == params_line(y[0])
        assert run_campaign(spec, y).cached == 1
