"""Non-intrusive adapter around an external solver executable.

Per-sample file protocol under ``<root>/samples/<index>/``:

* ``params.txt``  one ASCII line, D space-separated decimals, 17
  significant digits;
* ``qoi.bin``     little-endian u64 count M followed by M little-endian
  f64 values, written by the solver;
* ``done``        empty marker created here only after a successful parse.

The command template is split into tokens first and the placeholders
``{params}``, ``{dir}``, ``{index}`` are substituted per token, so paths
containing spaces stay single arguments.  A sample whose directory holds
a ``done`` marker is never launched again; its ``params.txt`` must then
match the requested point bitwise, or the sample is refused as stale.
Each solve runs in its own session, so a timeout kills the solver's
whole process group, children included.

A campaign formats all its ``params.txt`` lines once and reads its cached
samples with ``os``-level calls: a ``stat`` of ``done``, one read of
``params.txt``, and one vectored read of ``qoi.bin`` whose payload lands
straight in the sample's row of the one result table.  The table is the
campaign's only copy of the outputs; one finiteness pass over it, in row
blocks of ``_FINITE_BLOCK`` entries, follows the reads, before any launch.
"""
from __future__ import annotations

import contextlib
import os
import shlex
import signal
import struct
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .._checks import _integer, _real, _string

# Table entries per row block of the finiteness pass, so its masks stay small.
_FINITE_BLOCK = 1 << 16


class ExternalError(RuntimeError):
    """Base class for solver-adapter failures; carries the sample index."""

    def __init__(self, sample_index: int, message: str):
        super().__init__(f"sample {sample_index}: {message}")
        self.sample_index = sample_index


class ExternalCommandError(ExternalError):
    """Solver exited with nonzero status."""


class ExternalTimeoutError(ExternalError):
    """Solver exceeded the configured timeout."""


class OutputFormatError(ExternalError):
    """Output file missing, truncated, or of unexpected length."""


class OutputValueError(ExternalError):
    """Output parsed but contains non-finite values."""


class StaleSampleError(ExternalError):
    """A cached sample was computed at a different parameter point."""


@dataclass(frozen=True)
class External:
    """External-solver model: command template plus working-dir root.

    A command token may hold only the placeholders ``{params}``, ``{dir}`` and
    ``{index}`` (``{{`` is a brace); one that cannot be filled is refused here.
    ``expected_m`` of None accepts whatever length the solver writes.
    """

    command: str
    root: str
    timeout: float = 60.0
    expected_m: int | None = None

    def __post_init__(self):
        _string(self.root, "root")
        if not _argv(_string(self.command, "command"), self.samples_dir / "0", 0):  # an unbalanced quote raises here too
            raise ValueError(f"command {self.command!r} names no program")
        object.__setattr__(self, "timeout", _real(self.timeout, "timeout", positive=True))
        if self.expected_m is not None and _integer(self.expected_m, "expected_m") < 1:
            raise ValueError(f"expected_m must be >= 1, got {self.expected_m}")

    @cached_property  # built once: every cached sample's path starts with it
    def samples_dir(self) -> Path:
        return Path(self.root) / "samples"


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` that then replaces
    it, so a reader sees the old file or the new one, never a part of either."""
    # unique per writing thread; open() gives it the mode the target would get
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


_COUNT = struct.Struct("<Q")  # the count header of a qoi file


def write_qoi(path, values) -> None:
    """Write a count-prefixed little-endian f64 vector, atomically (``_write_atomic``)."""
    values = np.asarray(values, dtype="<f8").ravel()
    _write_atomic(path, _COUNT.pack(values.size) + values.tobytes())


def _read_values(path, row=None) -> np.ndarray:
    """The values of the count-prefixed file at ``path``; ValueError on truncation.

    Bytes after the promised values are ignored.  When ``row`` has as many
    entries as the header promises, the values are read straight into it and
    ``row`` is returned; otherwise they go into a new array.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        head = bytearray(8)
        got = os.readv(fd, [head] if row is None else [head, row])
        if got < 8:
            raise ValueError(f"{path}: too short for a count header")
        (m,) = _COUNT.unpack(head)
        fits = row is not None and m == row.size
        # a read from a regular file stops short only at its end
        if (got if fits else os.fstat(fd).st_size) < 8 + 8 * m:
            raise ValueError(f"{path}: header promises {m} values, file is short")
        if fits:
            return row
        values = np.empty(m, dtype="<f8")
        os.preadv(fd, [values], 8)
        return values
    finally:
        os.close(fd)


def read_qoi(path) -> np.ndarray:
    """Read a count-prefixed vector; raises ValueError on truncation."""
    return _read_values(path)


def _checked_values(spec: External, index: int, qoi: str, row=None) -> np.ndarray:
    """A sample's output read by ``_read_values``, of ``expected_m`` values when that is set."""
    try:
        values = _read_values(qoi, row)
    except FileNotFoundError as exc:
        raise OutputFormatError(index, f"no output file {qoi}") from exc
    except ValueError as exc:
        raise OutputFormatError(index, str(exc)) from exc
    if spec.expected_m is not None and values.size != spec.expected_m:
        raise OutputFormatError(
            index, f"expected {spec.expected_m} values, got {values.size}"
        )
    return values


def _argv(command: str, sample_dir: Path, index: int) -> list:
    """The command's tokens with the placeholders of one sample filled in."""
    fields = {"params": str(sample_dir / "params.txt"), "dir": str(sample_dir), "index": str(index)}
    argv = []
    for token in shlex.split(command):
        try:
            argv.append(token.format(**fields))
        except (LookupError, ValueError, AttributeError, TypeError) as exc:
            raise ValueError(f"command token {token!r} takes only {{params}}, {{dir}} and {{index}}: {exc!r}") from exc
    return argv


def _launch(spec: External, line: bytes, index: int, sample_dir: Path) -> None:
    (sample_dir / "params.txt").write_bytes(line)
    argv = _argv(spec.command, sample_dir, index)
    try:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        )
    except OSError as exc:
        raise ExternalCommandError(index, f"could not launch {argv[0]}: {exc}") from exc
    with proc:
        try:
            _, stderr = proc.communicate(timeout=spec.timeout)
        except subprocess.TimeoutExpired as exc:
            # the unreaped leader keeps its group alive, so killpg reaches every member
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ExternalTimeoutError(index, f"timed out after {spec.timeout}s") from exc
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-3:]
        raise ExternalCommandError(
            index,
            f"exit status {proc.returncode}" + (": " + " | ".join(tail) if tail else ""),
        )


def _params_lines(pts: np.ndarray) -> list:
    """The ``params.txt`` line of every point, as bytes, formatted in one pass."""
    rows = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    # %.17g round-trips every double, so equal points give equal lines
    line = " ".join(["{:.17g}"] * rows.shape[1]) + "\n"
    return [line.format(*y).encode() for y in rows.tolist()]


def _check_params(index: int, sample_dir: str, line: bytes) -> None:
    """Refuse a finished sample whose ``params.txt`` does not hold exactly ``line``."""
    try:
        fd = os.open(f"{sample_dir}/params.txt", os.O_RDONLY)
    except FileNotFoundError:
        cached = b""
    else:
        try:
            # one byte past the line tells a longer file apart
            cached = os.read(fd, len(line) + 1)
            if cached == line:
                return
            while chunk := os.read(fd, 1 << 16):
                cached += chunk
        finally:
            os.close(fd)
    raise StaleSampleError(
        index,
        f"params.txt reads {cached.decode(errors='replace').strip()!r}, "
        f"not {line.decode().strip()!r}; remove {sample_dir} to relaunch it",
    )


def _refuse_non_finite(table, odd: dict, stop: int) -> None:
    """Refuse the first cached sample before ``stop`` with a non-finite value,
    checking the table in row blocks of about ``_FINITE_BLOCK`` entries."""
    bad = [i for i, values in odd.items() if i < stop and not np.isfinite(values).all()]
    if table is not None:
        rows = max(1, _FINITE_BLOCK // max(1, table.shape[1]))
        for s in range(0, stop, rows):
            hit = np.flatnonzero(~np.isfinite(table[s : min(s + rows, stop)]).all(axis=1))
            if hit.size:
                bad.append(s + int(hit[0]))
                break
    if bad:
        raise OutputValueError(min(bad), "non-finite values in output")


def _read_cached(spec: External, lines: list):
    """The outputs of every finished sample, each read into its row of one table.

    Returns the table and the indices of the samples to launch.  The table
    has ``expected_m`` columns, else as many as the first cached sample has
    values, and is None when neither is known; rows not read hold zeros.
    The first stale, malformed or non-finite sample in sample order is
    refused, and then the first whose count differs from the first cached
    sample's.
    """
    n = len(lines)
    table = None if spec.expected_m is None else np.zeros((n, spec.expected_m), dtype="<f8")
    misses, odd = [], {}  # odd: cached outputs of another count than the table's
    for i, line in enumerate(lines):
        sample_dir = f"{spec.samples_dir}/{i}"
        try:
            os.stat(f"{sample_dir}/done")
        except OSError:
            misses.append(i)
            continue
        try:
            _check_params(i, sample_dir, line)
            values = _checked_values(spec, i, f"{sample_dir}/qoi.bin", None if table is None else table[i])
        except ExternalError:
            _refuse_non_finite(table, odd, i)  # an earlier non-finite sample is refused first
            raise
        if table is None:
            first, table = i, np.zeros((n, values.size), dtype="<f8")
            table[i] = values
        elif values.size != table.shape[1]:
            odd[i] = values
    _refuse_non_finite(table, odd, n)
    if odd:
        i, values = next(iter(odd.items()))
        raise OutputFormatError(i, f"sample has {values.size} values, sample {first} has {table.shape[1]}")
    return table, misses


def _launched_values(spec: External, line: bytes, index: int) -> np.ndarray:
    """Launch the solver on one sample, parse its output, then mark it done."""
    sample_dir = spec.samples_dir / str(index)
    sample_dir.mkdir(parents=True, exist_ok=True)
    _launch(spec, line, index, sample_dir)
    values = _checked_values(spec, index, f"{sample_dir}/qoi.bin")
    if not np.isfinite(values).all():
        raise OutputValueError(index, "non-finite values in output")
    (sample_dir / "done").touch()
    return values


@dataclass(frozen=True)
class CampaignResult:
    """Sample table plus launch accounting for cache verification."""

    table: np.ndarray
    launched: int
    cached: int


def _check_jobs(jobs) -> None:
    """The one rule on the number of concurrent solves."""
    if _integer(jobs, "jobs") < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_campaign(spec: External, points, jobs: int = 1) -> CampaignResult:
    """Evaluate all rows of ``points``, at most ``jobs`` solvers at a time.

    Cached samples are read first, in sample order and in the calling
    thread, so a stale or corrupt one refuses the campaign before any
    solver starts.  Only the misses go to the pool.  Sample directories
    are index-disjoint, so workers never share files; rows of the result
    table follow the sample order regardless of completion order.  The
    first failure cancels the remaining launches.  When the launched rows
    do not all have one count, the first row whose count differs from
    sample 0's is refused once every launch has finished.
    """
    pts = np.atleast_2d(np.asarray(points.points if hasattr(points, "points") else points))
    if pts.size == 0:
        raise ValueError(f"points must hold at least one sample, got an empty array of shape {pts.shape}")
    _check_jobs(jobs)
    lines = _params_lines(pts)
    table, misses = _read_cached(spec, lines)
    off = {}  # launched samples whose count differs from the table's: their count
    if misses:
        # map yields in sample order and cancels the queued launches on the first failure
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for i, values in zip(misses, pool.map(lambda i: _launched_values(spec, lines[i], i), misses)):
                if table is None:
                    table = np.zeros((len(lines), values.size), dtype="<f8")
                if values.size == table.shape[1]:
                    table[i] = values
                else:
                    off[i] = values.size
    if off:
        counts = [off.get(i, table.shape[1]) for i in range(len(lines))]
        i = next(i for i, count in enumerate(counts) if count != counts[0])
        raise OutputFormatError(i, f"sample has {counts[i]} values, sample 0 has {counts[0]}")
    return CampaignResult(table=table, launched=len(misses), cached=len(lines) - len(misses))
