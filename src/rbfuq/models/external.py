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
        if not _argv(self.command, self.samples_dir / "0", 0):  # an unbalanced quote raises here too
            raise ValueError(f"command {self.command!r} names no program")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.expected_m is not None and self.expected_m < 1:
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


def write_qoi(path, values) -> None:
    """Write a count-prefixed little-endian f64 vector, atomically (``_write_atomic``)."""
    values = np.asarray(values, dtype="<f8").ravel()
    _write_atomic(path, struct.pack("<Q", values.size) + values.tobytes())


def read_qoi(path) -> np.ndarray:
    """Read a count-prefixed vector; raises ValueError on truncation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: too short for a count header")
    (m,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + 8 * m:
        raise ValueError(f"{path}: header promises {m} values, file is short")
    return np.frombuffer(raw[8 : 8 + 8 * m], dtype="<f8").astype(float)


def _parse_output(spec: External, index: int, sample_dir) -> np.ndarray:
    qoi = os.path.join(sample_dir, "qoi.bin")
    try:
        values = read_qoi(qoi)
    except FileNotFoundError as exc:
        raise OutputFormatError(index, f"no output file {qoi}") from exc
    except ValueError as exc:
        raise OutputFormatError(index, str(exc)) from exc
    if spec.expected_m is not None and values.size != spec.expected_m:
        raise OutputFormatError(
            index, f"expected {spec.expected_m} values, got {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise OutputValueError(index, "non-finite values in output")
    return values


def _argv(command: str, sample_dir: Path, index: int) -> list:
    """The command's tokens with the placeholders of one sample filled in."""
    fields = {"params": str(sample_dir / "params.txt"), "dir": str(sample_dir), "index": str(index)}
    argv = []
    for token in shlex.split(command):
        try:
            argv.append(token.format(**fields))
        except (LookupError, ValueError, AttributeError) as exc:
            raise ValueError(f"command token {token!r} takes only {{params}}, {{dir}} and {{index}}: {exc!r}") from exc
    return argv


def _launch(spec: External, line: str, index: int, sample_dir: Path) -> None:
    (sample_dir / "params.txt").write_bytes(line.encode())
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


def _params_line(y) -> str:
    # %.17g round-trips every double, so equal points give equal lines
    return " ".join(format(float(v), ".17g") for v in np.asarray(y).ravel()) + "\n"


def _cached_values(spec: External, line: str, index: int) -> np.ndarray | None:
    """The outputs of a finished sample at this point; None when it has no ``done`` marker."""
    sample_dir = os.path.join(spec.samples_dir, str(index))
    if not os.path.exists(os.path.join(sample_dir, "done")):
        return None
    try:
        with open(os.path.join(sample_dir, "params.txt"), "rb") as fh:
            cached = fh.read()
    except FileNotFoundError:
        cached = b""
    if cached != line.encode():
        raise StaleSampleError(
            index,
            f"params.txt reads {cached.decode(errors='replace').strip()!r}, "
            f"not {line.strip()!r}; remove {sample_dir} to relaunch it",
        )
    return _parse_output(spec, index, sample_dir)


def _launched_values(spec: External, line: str, index: int) -> np.ndarray:
    """Launch the solver on one sample, parse its output, then mark it done."""
    sample_dir = spec.samples_dir / str(index)
    sample_dir.mkdir(parents=True, exist_ok=True)
    _launch(spec, line, index, sample_dir)
    values = _parse_output(spec, index, sample_dir)
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
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_campaign(spec: External, points, jobs: int = 1) -> CampaignResult:
    """Evaluate all rows of ``points``, at most ``jobs`` solvers at a time.

    Cached samples are read first, in sample order and in the calling
    thread, so a stale or corrupt one refuses the campaign before any
    solver starts.  Only the misses go to the pool.  Sample directories
    are index-disjoint, so workers never share files; rows of the result
    table follow the sample order regardless of completion order.  The
    first failure cancels the remaining launches.
    """
    pts = np.atleast_2d(np.asarray(points.points if hasattr(points, "points") else points))
    _check_jobs(jobs)
    lines = [_params_line(y) for y in pts]
    results = [_cached_values(spec, line, i) for i, line in enumerate(lines)]
    misses = [i for i, values in enumerate(results) if values is None]
    if misses:
        # map yields in sample order and cancels the queued launches on the first failure
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for i, values in zip(misses, pool.map(lambda i: _launched_values(spec, lines[i], i), misses)):
                results[i] = values
    m = results[0].size
    for i, row in enumerate(results):
        if row.size != m:
            raise OutputFormatError(i, f"sample has {row.size} values, sample 0 has {m}")
    return CampaignResult(table=np.vstack(results), launched=len(misses), cached=len(results) - len(misses))
