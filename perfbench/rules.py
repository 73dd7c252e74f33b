"""Metric rules, environment stamp and calibration probe.

Every end-to-end metric is built as a :class:`Metric` that carries the
evidence behind it: its sample count, the seconds of timed work it
covers and, for a percentile or a fast time, which one and how many
repeats.  :func:`check_metric` refuses a metric whose timed window is
below its floor, whose percentile has fewer than :data:`MIN_BEYOND`
samples on either side, or whose fast time rests on a unit repeated
fewer than :data:`MIN_REPEATS` times.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence

import numpy as np

#: A percentile needs at least this many samples on each side of it.
MIN_BEYOND = 10
#: A fast time is the lower 2nd percentile of a unit's repeat times.
FAST_QUANTILE = 0.02
#: Least number of repeats behind every unit of a fast time.
MIN_REPEATS = 5
#: Least timed work (seconds) behind a throughput or latency metric.
WINDOW_FLOOR_S = 5.0
#: Least timed work (seconds) behind ``setup_s``.  Set-up is a median
#: of repeated set-ups and has the widest bound.
SETUP_FLOOR_S = 0.5
#: Least number of set-ups whose median is ``setup_s``.
MIN_SETUPS = 5


class MetricRuleError(RuntimeError):
    """An end-to-end metric lacks the evidence the rules demand."""


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str
    samples: int
    window_s: Optional[float]
    #: Percentile of the samples the value is (``None``: not a percentile).
    percentile: Optional[float] = None
    #: Fewest repeats of any unit behind a fast time (``None``: no units).
    repeats: Optional[int] = None
    note: str = ""


def fast_time(seconds: Sequence[float]) -> float:
    """The lower 2nd percentile of one unit's repeat times.

    That is the ``ceil(n / 50)``-th fastest of ``n`` repeats: the
    fastest of up to 50, the second fastest of up to 100, and so on.
    """
    ordered = sorted(seconds)
    return ordered[max(1, math.ceil(len(ordered) * FAST_QUANTILE)) - 1]


def fast_cycle(units: Mapping[Any, Sequence[float]]) -> Metric:
    """The summed fast times of every unit of a workload's cycle, in s.

    A cycle is one repeat of each unit.  The host alternates between a
    fast mode and a mode about 1.5 times slower, in phases that last
    seconds to minutes; a mean or median over a run moves with the share
    of the run spent in each.  The fast time of a unit that repeats
    every few hundred milliseconds or faster sits in the fast mode as
    long as the run holds a few fast cycles.
    """
    times = [list(t) for t in units.values()]
    return Metric(
        name="fast_cycle",
        value=float(sum(fast_time(t) for t in times)) if times else 0.0,
        unit="s",
        samples=sum(len(t) for t in times),
        window_s=float(sum(sum(t) for t in times)),
        repeats=min((len(t) for t in times), default=0),
    )


def percentile_metric(name: str, seconds: Sequence[float], q: float, note: str) -> Metric:
    """Percentile ``q`` of per-call latencies, in ms."""
    values = np.asarray(seconds, dtype=float)
    return Metric(
        name=name,
        value=float(np.percentile(values, q)) * 1e3 if len(values) else 0.0,
        unit="ms",
        samples=len(values),
        window_s=float(values.sum()),
        percentile=q,
        note=note,
    )


def check_metric(metric: Metric) -> None:
    """Raise :class:`MetricRuleError` if ``metric`` breaks a rule."""
    if metric.window_s is not None:
        floor = SETUP_FLOOR_S if metric.name == "setup_s" else WINDOW_FLOOR_S
        if metric.window_s < floor:
            raise MetricRuleError(
                f"{metric.name}: timed window {metric.window_s:.2f} s is below "
                f"its {floor} s floor"
            )
    if metric.name == "setup_s" and metric.samples < MIN_SETUPS:
        raise MetricRuleError(f"setup_s: median of {metric.samples} set-ups, need {MIN_SETUPS}")
    if metric.percentile is not None:
        side = metric.samples * min(metric.percentile, 100.0 - metric.percentile) / 100.0
        if side < MIN_BEYOND:
            raise MetricRuleError(
                f"{metric.name}: p{metric.percentile:g} of {metric.samples} samples "
                f"has {side:.1f} on one side, need {MIN_BEYOND}"
            )
    if metric.repeats is not None and metric.repeats < MIN_REPEATS:
        raise MetricRuleError(
            f"{metric.name}: a unit repeated {metric.repeats} times, need {MIN_REPEATS}"
        )
    if not metric.value > 0:
        raise MetricRuleError(f"{metric.name}: value {metric.value!r} is not positive")


def calibration_ms() -> float:
    """Time a fixed pure-Python plus numpy loop, in ms.

    Reported only as ``env.calib_*``; never used to normalise another
    number.  A drift between the start and end of a run, or between
    runs, points at the machine rather than the program.
    """
    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((120, 120))
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    for _ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 120.0)
    elapsed = time.perf_counter() - start
    if acc < 0 or not np.isfinite(matrix).all():
        raise RuntimeError("calibration loop produced an impossible result")
    return elapsed * 1e3


def _git_sha(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    """The stamp every result carries."""
    import scipy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src"),
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_times(src: Path, timeout: float = 120.0) -> dict:
    """``startup.import_*_s`` from ``python -X importtime -c 'import repro'``.

    ``import_repro_s`` is the cumulative time of the top-level
    ``repro`` import; ``import_scipy_s`` sums the self time of every
    ``scipy`` module loaded on the way.
    """
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    scipy_us = 0
    repro_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        module = parts[2].strip()
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
        elif module == "repro":
            repro_us = cumulative_us
    return {"startup.import_scipy_s": scipy_us / 1e6, "startup.import_repro_s": repro_us / 1e6}


def median(values: List[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))
