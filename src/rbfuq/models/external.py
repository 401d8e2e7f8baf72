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

import os
import shlex
import signal
import struct
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .grid import GridField, GridSpec


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

    ``expected_m`` of None accepts whatever length the solver writes.
    """

    command: str
    root: str
    timeout: float = 60.0
    expected_m: int | None = None

    def __post_init__(self):
        if not shlex.split(self.command):  # an unbalanced quote raises here too
            raise ValueError(f"command {self.command!r} names no program")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.expected_m is not None and self.expected_m < 1:
            raise ValueError(f"expected_m must be >= 1, got {self.expected_m}")

    @property
    def samples_dir(self) -> Path:
        return Path(self.root) / "samples"


def write_qoi(path, values) -> None:
    """Write a count-prefixed little-endian f64 vector."""
    values = np.asarray(values, dtype="<f8").ravel()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.tobytes())


def read_qoi(path) -> np.ndarray:
    """Read a count-prefixed vector; raises ValueError on truncation."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: too short for a count header")
    (m,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + 8 * m:
        raise ValueError(f"{path}: header promises {m} values, file is short")
    return np.frombuffer(raw[8 : 8 + 8 * m], dtype="<f8").astype(float)


def _parse_output(spec: External, index: int, sample_dir: Path) -> np.ndarray:
    qoi = sample_dir / "qoi.bin"
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


def _launch(spec: External, line: str, index: int, sample_dir: Path) -> None:
    params = sample_dir / "params.txt"
    params.write_bytes(line.encode())
    fields = {"params": str(params), "dir": str(sample_dir), "index": str(index)}
    argv = [token.format(**fields) for token in shlex.split(spec.command)]
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


def _evaluate_values(spec: External, y, index: int) -> tuple:
    """Returns (values, launched); cached samples never launch."""
    sample_dir = spec.samples_dir / str(index)
    # %.17g round-trips every double, so equal points give equal lines
    line = " ".join(format(float(v), ".17g") for v in np.asarray(y).ravel()) + "\n"
    if (sample_dir / "done").exists():
        try:
            cached = (sample_dir / "params.txt").read_bytes()
        except FileNotFoundError:
            cached = b""
        if cached != line.encode():
            raise StaleSampleError(
                index,
                f"params.txt reads {cached.decode(errors='replace').strip()!r}, "
                f"not {line.strip()!r}; remove {sample_dir} to relaunch it",
            )
        return _parse_output(spec, index, sample_dir), False
    sample_dir.mkdir(parents=True, exist_ok=True)
    _launch(spec, line, index, sample_dir)
    values = _parse_output(spec, index, sample_dir)
    (sample_dir / "done").touch()
    return values, True


def external_evaluate(spec: External, y, sample_index: int) -> GridField:
    """Evaluate one sample through the file protocol (cache-aware)."""
    values, _ = _evaluate_values(spec, y, sample_index)
    return GridField(grid=GridSpec.index_line(values.size), values=values)


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

    Sample directories are index-disjoint, so workers never share files;
    rows of the result table follow the sample order regardless of
    completion order.  The first failure cancels the remaining work.
    """
    pts = np.atleast_2d(np.asarray(points.points if hasattr(points, "points") else points))
    _check_jobs(jobs)
    # map yields in sample order and cancels the queued samples on the first failure
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(pool.map(partial(_evaluate_values, spec), pts, range(len(pts))))
    results = [values for values, _ in outcomes]
    launched = sum(ran for _, ran in outcomes)
    m = results[0].size
    for i, row in enumerate(results):
        if row.size != m:
            raise OutputFormatError(i, f"sample has {row.size} values, sample 0 has {m}")
    cached = len(results) - launched
    return CampaignResult(table=np.vstack(results), launched=launched, cached=cached)
