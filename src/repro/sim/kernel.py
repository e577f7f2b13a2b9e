"""Virtual-time cooperative-thread simulation kernel.

This module provides the deterministic concurrency substrate the whole
reproduction runs on. Simulated processes are ordinary Python callables
running on real OS threads, but the kernel runs exactly one thread at a
time and advances a *virtual clock*, so:

* blocking code reads naturally (no ``yield``-style inversion), which keeps
  the protocol implementations close to the paper's pseudo-code;
* runs are bit-for-bit deterministic — the ready queue is FIFO and timers
  are ordered by ``(time, sequence)``;
* virtual time is free: a simulated 10 Mbit/s Ethernet transfer of 7.5 MB
  costs microseconds of wall time;
* a genuine deadlock (every live thread blocked, no pending timer) is
  *detected* and reported rather than hanging the test suite — this is the
  instrument used to check the paper's Theorem 1.

Control moves by *direct handoff*. Every simulated thread owns a raw lock
it sleeps on while it is not running. A thread that blocks makes the
scheduling decision itself, on its own OS thread: it pops the FIFO ready
queue (skipping finished threads) and, while that is empty, fires due
timers in ``(time, sequence)`` order up to the ``run(until=)`` horizon.
If the pick is the blocking thread itself — a ``sleep`` or compute charge
with nothing else runnable — it simply carries on, with no OS switch at
all. Otherwise it releases the chosen thread's lock and sleeps on its
own: one OS context switch per simulated event. Control returns to the
thread that called :meth:`Kernel.run` only when nothing is runnable
(completion, deadlock or the time horizon), when a thread finishes, or
when the kernel shuts down; that caller then makes the same decision with
the same code, so the schedule does not depend on which OS thread made
it. :attr:`Kernel.stats` counts the steps and how each was taken.
"""

from __future__ import annotations

import _thread
import heapq
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.util.errors import DeadlockError, SimThreadError, SimulationError, ThreadKilled

__all__ = ["Kernel", "KernelStats", "SimThread", "TIMEOUT"]


class _Timeout:
    """Sentinel returned by a wait primitive that timed out."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<TIMEOUT>"


#: Singleton sentinel produced by timed waits that expire.
TIMEOUT = _Timeout()

# Thread lifecycle states.
_NEW = "new"
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_FINISHED = "finished"


def _held_lock() -> Any:
    """A raw lock created held: ``release()`` signals, ``acquire()`` waits."""
    lock = _thread.allocate_lock()
    lock.acquire()
    return lock


@dataclass(slots=True)
class KernelStats:
    """How the kernel has dispatched its threads so far.

    Every dispatch of a simulated thread is one of ``steps``, taken one of
    three ways: an ``os_handoff`` (the blocking thread wakes its successor
    directly: one OS context switch), an ``inline_resume`` (the blocking
    thread picked itself and carried on: no switch), or a step of the
    :meth:`Kernel.run` loop (a switch to the thread and, later, one back);
    the loop's steps are ``steps - os_handoffs - inline_resumes``.
    """

    steps: int = 0
    os_handoffs: int = 0
    inline_resumes: int = 0


class SimThread:
    """A simulated thread of control managed by a :class:`Kernel`.

    Application code never constructs these directly; use
    :meth:`Kernel.spawn`. The public surface is introspective (``name``,
    ``alive``, ``exception``) plus :meth:`kill` and :meth:`join`.
    """

    def __init__(self, kernel: "Kernel", fn: Callable[..., Any], args: tuple,
                 kwargs: dict, name: str, daemon: bool = False):
        self.kernel = kernel
        self.name = name
        #: daemon threads (schedulers, services) do not keep the run alive
        #: and are excluded from deadlock accounting
        self.daemon = daemon
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self._lock = _held_lock()
        self._real: threading.Thread | None = None
        self.state = _NEW
        #: description of what the thread is blocked on (for diagnostics)
        self.wait_reason: str | None = None
        #: value handed over by the waker; see Kernel._wake
        self._wake_value: Any = None
        #: monotonically increasing token invalidating stale wake timers
        self._wait_token = 0
        #: set when the thread must die at its next scheduling point
        self._kill_requested = False
        #: unhandled exception that terminated the thread, if any
        self.exception: BaseException | None = None
        self.result: Any = None
        self._joiners: list[SimThread] = []

    # -- introspection -----------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state not in (_FINISHED,)

    def __repr__(self) -> str:
        return f"<SimThread {self.name} {self.state}>"

    # -- control -----------------------------------------------------------
    def kill(self) -> None:
        """Request asynchronous termination of this thread.

        The thread unwinds with :class:`ThreadKilled` the next time it is
        scheduled; if it is currently blocked it is made ready immediately.
        Used by the migration protocol to terminate the source-side process
        once state transfer completes, and by :meth:`Kernel.shutdown`.
        """
        if not self.alive:
            return
        self._kill_requested = True
        if self.state == _BLOCKED:
            self.kernel._wake(self, None)

    def join(self, timeout: float | None = None) -> bool:
        """Block the *calling* simulated thread until this one finishes.

        Returns ``True`` if the thread finished, ``False`` on timeout.
        """
        if self.state == _FINISHED:
            return True
        me = self.kernel._require_current()
        self._joiners.append(me)
        got = self.kernel._block(f"join({self.name})", timeout)
        if got is TIMEOUT:
            if me in self._joiners:
                self._joiners.remove(me)
            return False
        return True

    # -- internals ---------------------------------------------------------
    def _start_real(self) -> None:
        self._real = threading.Thread(
            target=self._bootstrap, name=f"sim:{self.name}", daemon=True)
        self._real.start()

    def _bootstrap(self) -> None:
        try:
            if self._kill_requested:
                raise ThreadKilled()
            self.result = self._fn(*self._args, **self._kwargs)
        except ThreadKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported via kernel
            self.exception = exc
        finally:
            self.state = _FINISHED
            kernel = self.kernel
            kernel._on_thread_finished(self)
            # Hand control back to the run() caller, which checks this
            # thread's exception; the OS thread then exits.
            kernel.current = None
            kernel._finished = self
            kernel._kernel_lock.release()


class Kernel:
    """Deterministic virtual-time scheduler for :class:`SimThread` objects.

    Typical use::

        k = Kernel()
        k.spawn(producer, name="producer")
        k.spawn(consumer, name="consumer")
        k.run()            # drive to completion (raises on thread errors)
        print(k.now)       # total virtual time elapsed
    """

    def __init__(self, trace: "object | None" = None):
        self._now = 0.0
        self._seq = 0
        # timers: heap of (time, seq, fn); cancelled timers keep a tombstone
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._cancelled: set[int] = set()
        self._ready: deque[SimThread] = deque()
        self._threads: list[SimThread] = []
        # the run() caller sleeps on this while simulated threads run
        self._kernel_lock = _held_lock()
        self.current: SimThread | None = None
        self._running = False
        self._shutdown = False
        #: horizon of the current run(); blocking threads honour it too
        self._until: float | None = None
        #: thread whose finish handed control back to the run() caller
        self._finished: SimThread | None = None
        #: exception a timer callback raised on a simulated thread's OS
        #: thread, re-raised by the run() caller
        self._timer_error: BaseException | None = None
        self.stats = KernelStats()
        #: optional repro.sim.trace.Trace recording scheduler-level events
        self.trace = trace

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- spawning --------------------------------------------------------------
    def spawn(self, fn: Callable[..., Any], *args: Any, name: str | None = None,
              daemon: bool = False, **kwargs: Any) -> SimThread:
        """Create a simulated thread running ``fn(*args, **kwargs)``.

        The thread becomes ready immediately (it will first run when the
        scheduler reaches it, at the current virtual time). Daemon threads
        (``daemon=True``) do not keep :meth:`run` alive: once every
        non-daemon thread has finished, ``run()`` returns even if daemon
        threads are still blocked — like Python's own daemon threads.
        """
        if self._shutdown:
            raise SimulationError("kernel has been shut down")
        if name is None:
            name = f"{getattr(fn, '__name__', 'thread')}-{len(self._threads)}"
        th = SimThread(self, fn, args, kwargs, name, daemon=daemon)
        self._threads.append(th)
        th.state = _READY
        self._ready.append(th)
        return th

    # -- timers ------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> int:
        """Schedule ``fn()`` to run in kernel context at virtual time *when*.

        Returns a timer id usable with :meth:`cancel_timer`. ``fn`` must not
        block; it typically wakes threads or enqueues messages.
        """
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule timer in the past ({when} < {self._now})")
        seq = self._next_seq()
        heapq.heappush(self._timers, (max(when, self._now), seq, fn))
        return seq

    def call_later(self, delay: float, fn: Callable[[], None]) -> int:
        """Schedule ``fn()`` after *delay* virtual seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn)

    def cancel_timer(self, timer_id: int) -> None:
        """Cancel a timer returned by :meth:`call_at` / :meth:`call_later`."""
        self._cancelled.add(timer_id)

    # -- blocking primitives (called from inside simulated threads) --------
    def _require_current(self) -> SimThread:
        th = self.current
        if th is None or threading.current_thread() is not th._real:
            raise SimulationError(
                "blocking primitive called from outside a simulated thread")
        return th

    def sleep(self, delay: float) -> None:
        """Suspend the calling thread for *delay* virtual seconds.

        Implemented as a wait that always times out, so it shares the
        token-invalidation machinery of :meth:`_block`.
        """
        if delay < 0:
            raise SimulationError(f"negative sleep {delay}")
        self._block(f"sleep({delay:g})", timeout=delay)

    def yield_now(self) -> None:
        """Let every other currently-ready thread run before continuing."""
        self._block("yield", timeout=0.0)

    def _block(self, reason: str, timeout: float | None = None) -> Any:
        """Block the calling thread until woken; returns the wake value.

        If *timeout* is given and expires first, returns :data:`TIMEOUT`.
        This is the single choke point every higher-level synchronization
        object (events, queues, channels) is built on. The calling thread
        also picks who runs next (see the module docstring).
        """
        th = self._require_current()
        if self._shutdown:
            # unwinding from shutdown(): control may only go back to it
            raise ThreadKilled()
        th.state = _BLOCKED
        th.wait_reason = reason
        th._wait_token += 1
        token = th._wait_token
        if timeout is not None:
            if timeout < 0:
                raise SimulationError(f"negative timeout {timeout}")
            self.call_later(
                timeout, lambda: self._wake_if_token(th, token, TIMEOUT))
        self.current = None
        try:
            nxt = self._next_runnable()
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            # a timer callback failed: that is run()'s error, not ours
            self._timer_error = exc
            nxt = None
        if nxt is th:
            self.stats.steps += 1
            self.stats.inline_resumes += 1
            self.current = th
        else:
            if nxt is None:
                self._kernel_lock.release()
            else:
                self.stats.os_handoffs += 1
                self._dispatch(nxt)
            th._lock.acquire()
        th.state = _RUNNING
        th.wait_reason = None
        if th._kill_requested:
            raise ThreadKilled()
        return th._wake_value

    def _wake(self, th: SimThread, value: Any = None) -> None:
        """Make a blocked thread ready, delivering *value* from its wait."""
        if th.state != _BLOCKED:
            return
        th._wait_token += 1  # invalidate any pending timeout timer
        th._wake_value = value
        th.state = _READY
        self._ready.append(th)

    def _wake_if_token(self, th: SimThread, token: int, value: Any) -> None:
        """Timer callback: wake *th* only if it is still in the same wait."""
        if th.state == _BLOCKED and th._wait_token == token:
            th._wake_value = value
            th._wait_token += 1
            th.state = _READY
            self._ready.append(th)

    def _on_thread_finished(self, th: SimThread) -> None:
        for joiner in th._joiners:
            self._wake(joiner, None)
        th._joiners.clear()

    # -- main loop ----------------------------------------------------------
    def run(self, until: float | None = None, raise_on_thread_error: bool = True,
            detect_deadlock: bool = True) -> None:
        """Drive the simulation.

        Runs until all threads finish, *until* virtual time is reached, or a
        deadlock / thread error is detected.

        Parameters
        ----------
        until:
            Stop once the clock would advance past this virtual time; timers
            beyond it stay pending and a later ``run()`` resumes them.
        raise_on_thread_error:
            Re-raise (wrapped in :class:`SimThreadError`) the first unhandled
            exception from any simulated thread.
        detect_deadlock:
            Raise :class:`DeadlockError` when live threads exist but nothing
            is runnable and no timer is pending.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._running = True
        self._until = until
        try:
            while True:
                th = self._next_runnable()
                if th is not None:
                    self._step(th)
                    err, self._timer_error = self._timer_error, None
                    if err is not None:
                        raise err
                    done, self._finished = self._finished, None
                    if raise_on_thread_error and done is not None \
                            and done.exception is not None:
                        raise SimThreadError(done.name, done.exception) \
                            from done.exception
                    continue
                live = [t for t in self._threads if t.alive and not t.daemon]
                if not live:
                    return  # clean completion (daemon threads may linger)
                if until is not None and self._peek_timer_time() is not None:
                    return  # stopped at the time horizon with timers pending
                if detect_deadlock:
                    blocked = [
                        f"{t.name}: waiting on {t.wait_reason or '<unknown>'}"
                        for t in live
                    ]
                    raise DeadlockError(
                        f"deadlock at t={self._now:g}: {len(live)} thread(s) "
                        "blocked with no pending timers", blocked)
                return
        finally:
            self._running = False

    def _peek_timer_time(self) -> float | None:
        while self._timers and self._timers[0][1] in self._cancelled:
            _, seq, _ = heapq.heappop(self._timers)
            self._cancelled.discard(seq)
        return self._timers[0][0] if self._timers else None

    def _fire_next_timer(self) -> bool:
        when = self._peek_timer_time()
        if when is None:
            return False
        until = self._until
        if until is not None and when > until:
            self._now = until
            return False
        when, _seq, fn = heapq.heappop(self._timers)
        if when > self._now:
            self._now = when
        fn()
        return True

    def _next_runnable(self) -> SimThread | None:
        """Pop the next thread to run, firing due timers while none is
        ready; ``None`` once nothing is runnable up to the horizon."""
        ready = self._ready
        while True:
            while ready:
                th = ready.popleft()
                if th.state != _FINISHED:
                    return th
            if not self._fire_next_timer():
                return None

    def _dispatch(self, th: SimThread) -> None:
        """Give *th* control; the caller must then wait or exit."""
        self.stats.steps += 1
        self.current = th
        th.state = _RUNNING
        if th._real is None:
            th._start_real()
        else:
            th._lock.release()

    def _step(self, th: SimThread) -> None:
        """Run *th* from the run() caller until control comes back: the
        simulation may hand off through many threads before it does."""
        self._dispatch(th)
        self._kernel_lock.acquire()

    # -- teardown -------------------------------------------------------------
    def shutdown(self) -> None:
        """Kill all live threads so no OS threads outlive the simulation.

        Safe to call multiple times; the kernel is unusable afterwards.
        """
        self._shutdown = True
        for th in self._threads:
            if not th.alive:
                continue
            th._kill_requested = True
            if th._real is None:
                th.state = _FINISHED
                continue
            th._lock.release()
            self._kernel_lock.acquire(timeout=5.0)
            th._real.join(timeout=5.0)
        self._finished = None
        self._ready.clear()
        self._timers.clear()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
