"""Shared plumbing of the benchmark: statistics, run context, hygiene.

Every workload module returns a :class:`Outcome`; :mod:`run` turns it into
the printed tables and the final JSON line.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

#: a ``.p90`` is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float | None:
    """90th percentile, or ``None`` below :data:`P90_MIN_SAMPLES`."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


@dataclass
class Outcome:
    """What one workload pass measured and checked.

    ``named`` holds the workload's own end-to-end figures under their
    descriptive names (``migrate_s.p50``, ``rounds_per_s``, ...) as
    ``name -> (value, unit, samples)``; ``e2e`` holds the workload-generic
    contract metrics every workload reports (see ``spec.json``).
    """

    workload: str
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: largest per-rank state the workload moves (for the context line)
    state_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def figure(self, key: str, value, unit: str,
               samples: int | None = None) -> None:
        self.named[key] = (value, unit, samples)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call, wall clock."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Scratch:
    """A private temp root inside the checkout.

    ``tempfile`` is pointed here for the whole run (forked ranks inherit
    it), so the recovery layer's temp directories land inside the
    checkout and the hygiene check can see any it leaves behind.
    """

    def __init__(self, root: str):
        self.path = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.path, exist_ok=True)
        self._saved = tempfile.tempdir
        tempfile.tempdir = self.path

    def leftovers(self, prefix: str = "repro-") -> list[str]:
        return sorted(n for n in os.listdir(self.path)
                      if n.startswith(prefix))

    def close(self) -> None:
        tempfile.tempdir = self._saved
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run's directory is still there


def check_hygiene(out: Outcome, cluster, scratch: Scratch,
                  grace: float = 5.0) -> None:
    """After a cluster run: every child reaped, no recovery dir left.

    A leftover is counted as a failed operation, so an orphaned
    destination shows up instead of quietly slowing the next run.
    """
    deadline = time.monotonic() + grace
    alive = []
    while True:
        alive = [m for m in cluster.members() if m.proc.is_alive()]
        alive += [p for p in multiprocessing.active_children()
                  if all(p is not m.proc for m in alive)]
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    for child in alive:
        proc = getattr(child, "proc", child)
        out.fail(f"hygiene: child pid {proc.pid} still alive after the run")
        proc.kill()
        proc.join(1.0)
    for name in scratch.leftovers():
        out.fail(f"hygiene: temp dir {name} left behind")
        shutil.rmtree(os.path.join(scratch.path, name), ignore_errors=True)


def llc_bytes() -> int | None:
    """Last-level cache size where the platform reports it via sysconf."""
    for key in ("SC_LEVEL4_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE",
                "SC_LEVEL2_CACHE_SIZE"):
        try:
            value = os.sysconf(key)
        except (ValueError, OSError):
            continue
        if value > 0:
            return value
    return None


def context_lines(state_bytes: int) -> list[str]:
    import numpy as np

    llc = llc_bytes()
    llc_txt = (f"{llc / 2**20:.0f} MiB" if llc
               else "not reported by sysconf")
    return [
        f"nproc={os.cpu_count()}  python={platform.python_version()}  "
        f"numpy={np.__version__}",
        "traffic: loopback only (127.0.0.1), one driver thread, closed loop",
        f"largest rank state: {state_bytes / 2**20:.2f} MiB; "
        f"last-level cache: {llc_txt}",
    ]
