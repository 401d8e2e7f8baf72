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

A campaign formats all its ``params.txt`` lines once and checks each
sample's ``done`` with one ``access`` call.  It reads a cached sample with
``os``-level calls: one read of ``params.txt`` and one vectored read of
``qoi.bin``, whose payload lands straight in an array of the expected
count.  Each sample's values go to the caller's ``into(index, values)``
in sample order, so a campaign of cached samples holds one sample at a
time (a launched sample that finishes before its turn waits for it);
without ``into`` they fill one table.
"""
from __future__ import annotations

import contextlib
import math
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
from scipy.linalg.blas import ddot

from .._checks import _integer, _real, _string


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


def _read_values(path, m=None) -> np.ndarray:
    """The values of the count-prefixed file at ``path``; ValueError on truncation.

    Bytes after the promised values are ignored.  When the header promises
    ``m`` values, they are read with the header in one call; otherwise the
    file's size is checked before an array of the promised count is made.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        head, values = bytearray(8), np.empty(m or 0, dtype="<f8")
        got = os.readv(fd, [head, values])
        if got < 8:
            raise ValueError(f"{path}: too short for a count header")
        (count,) = _COUNT.unpack(head)
        fits = count == values.size
        # a read from a regular file stops short only at its end
        if (got if fits else os.fstat(fd).st_size) < 8 + 8 * count:
            raise ValueError(f"{path}: header promises {count} values, file is short")
        if not fits:
            values = np.empty(count, dtype="<f8")
            os.preadv(fd, [values], 8)
        return values
    finally:
        os.close(fd)


def read_qoi(path) -> np.ndarray:
    """Read a count-prefixed vector; raises ValueError on truncation."""
    return _read_values(path)


def _checked_values(spec: External, index: int, qoi: str, m=None) -> np.ndarray:
    """A sample's output read by ``_read_values`` (``m``: the count it
    likely has); refused unless its values are finite and, when
    ``expected_m`` is set, that many."""
    try:
        values = _read_values(qoi, m)
    except FileNotFoundError as exc:
        raise OutputFormatError(index, f"no output file {qoi}") from exc
    except ValueError as exc:
        raise OutputFormatError(index, str(exc)) from exc
    if spec.expected_m is not None and values.size != spec.expected_m:
        raise OutputFormatError(
            index, f"expected {spec.expected_m} values, got {values.size}"
        )
    # a finite sum of squares proves every value finite, in a quarter of the time of an elementwise
    # test on a short row; BLAS ddot warns of no overflow, so only a non-finite sum needs that test
    if values.size and not math.isfinite(ddot(values, values)) and not np.isfinite(values).all():
        raise OutputValueError(index, "non-finite values in output")
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
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    return [(line % tuple(y)).encode() for y in rows.tolist()]


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


def _launched_values(spec: External, line: bytes, index: int) -> np.ndarray:
    """Launch the solver on one sample, parse its output, then mark it done."""
    sample_dir = spec.samples_dir / str(index)
    sample_dir.mkdir(parents=True, exist_ok=True)
    _launch(spec, line, index, sample_dir)
    values = _checked_values(spec, index, f"{sample_dir}/qoi.bin")
    (sample_dir / "done").touch()
    return values


def _serve(spec: External, lines: list, dirs: list, order, into, missing=(), launched=None) -> None:
    """Hand the values of each sample in ``order`` to ``into(index, values)``.

    A sample in ``missing`` is the next result of the ``launched``
    iterator; any other is read from its finished directory in ``dirs``
    (``_check_params``, then ``_checked_values``).  The first fault in
    ``order`` is refused: a count is compared with ``expected_m``, else
    with the first sample's.
    """
    first, m = None, spec.expected_m
    for i in order:
        if i in missing:
            values = next(launched)
        else:
            _check_params(i, dirs[i], lines[i])
            values = _checked_values(spec, i, f"{dirs[i]}/qoi.bin", m)
        if first is None:
            first, m = i, values.size
        elif values.size != m:
            raise OutputFormatError(i, f"sample has {values.size} values, sample {first} has {m}")
        into(i, values)


class _Table:
    """The ``into`` of a caller that wants the table: one ``(N, M)`` array,
    allocated at the first sample's count M."""

    def __init__(self, n: int):
        self.n, self.rows = n, None

    def __call__(self, index: int, values) -> None:
        if self.rows is None:
            self.rows = np.empty((self.n, values.size))
        self.rows[index] = values


@dataclass(frozen=True)
class CampaignResult:
    """Sample table (None when the samples went to ``into``) plus launch
    accounting for cache verification."""

    table: np.ndarray | None
    launched: int
    cached: int


def _check_jobs(jobs) -> None:
    """The one rule on the number of concurrent solves."""
    if _integer(jobs, "jobs") < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_campaign(spec: External, points, jobs: int = 1, into=None) -> CampaignResult:
    """Evaluate all rows of ``points``, at most ``jobs`` solvers at a time.

    Each sample's values go to ``into(index, values)`` in sample order;
    without ``into`` they fill the result's table.  A sample with a
    ``done`` marker is read from its directory, any other is launched.
    When some must launch, a check pass first reads every cached sample in
    the calling thread, so a stale, malformed or non-finite one, or one
    whose count differs from the first cached sample's, refuses the
    campaign before any solver starts; only then is a cached sample read
    twice.  Sample directories are index-disjoint, so workers never share
    files.  The first fault in sample order is refused when its turn
    comes (a count is compared with sample 0's), and the launches still
    queued are cancelled.
    """
    pts = np.atleast_2d(np.asarray(points.points if hasattr(points, "points") else points))
    if pts.size == 0:
        raise ValueError(f"points must hold at least one sample, got an empty array of shape {pts.shape}")
    _check_jobs(jobs)
    lines = _params_lines(pts)
    n = len(lines)
    root = str(spec.samples_dir)  # formatted once: a Path takes longer to format than its string
    dirs = [f"{root}/{i}" for i in range(n)]
    # access() tells existence alone, in half the time of a stat()
    missing = {i for i, sample_dir in enumerate(dirs) if not os.access(f"{sample_dir}/done", os.F_OK)}
    if missing and len(missing) < n:  # the check pass
        _serve(spec, lines, dirs, [i for i in range(n) if i not in missing], lambda i, values: None)
    table = _Table(n) if into is None else into
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # map yields in sample order; a refusal cancels the launches still queued
        launched = pool.map(lambda i: _launched_values(spec, lines[i], i), sorted(missing))
        try:
            _serve(spec, lines, dirs, range(n), table, missing, launched)
        finally:
            pool.shutdown(cancel_futures=True)
    rows = table.rows if into is None else None
    return CampaignResult(table=rows, launched=len(missing), cached=n - len(missing))
