"""Unit tests for the virtual-time cooperative-thread kernel."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.sim import TIMEOUT, Kernel, SimEvent, SimQueue
from repro.util.errors import DeadlockError, SimThreadError, SimulationError


def test_single_thread_runs_to_completion(kernel):
    out = []
    kernel.spawn(lambda: out.append("ran"))
    kernel.run()
    assert out == ["ran"]


def test_thread_result_recorded(kernel):
    th = kernel.spawn(lambda: 42)
    kernel.run()
    assert th.result == 42
    assert not th.alive


def test_clock_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_sleep_advances_virtual_time(kernel):
    times = []

    def body():
        kernel.sleep(1.5)
        times.append(kernel.now)
        kernel.sleep(0.5)
        times.append(kernel.now)

    kernel.spawn(body)
    kernel.run()
    assert times == [1.5, 2.0]
    assert kernel.now == 2.0


def test_sleep_zero_is_allowed(kernel):
    def body():
        kernel.sleep(0.0)

    kernel.spawn(body)
    kernel.run()
    assert kernel.now == 0.0


def test_negative_sleep_rejected(kernel):
    def body():
        kernel.sleep(-1.0)

    kernel.spawn(body)
    with pytest.raises(SimThreadError) as ei:
        kernel.run()
    assert isinstance(ei.value.original, SimulationError)


def test_threads_interleave_deterministically(kernel):
    log = []

    def worker(name, delay):
        for i in range(3):
            kernel.sleep(delay)
            log.append((name, kernel.now))

    kernel.spawn(worker, "a", 1.0)
    kernel.spawn(worker, "b", 1.5)
    kernel.run()
    # At t=3.0 both wake; b's timer was scheduled first (at t=1.5) so b runs
    # first — simultaneous timers fire in scheduling order.
    assert log == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0),
        ("b", 4.5),
    ]


def test_same_time_wakeups_fire_in_spawn_order(kernel):
    log = []

    def w(name):
        kernel.sleep(1.0)
        log.append(name)

    for name in ("x", "y", "z"):
        kernel.spawn(w, name)
    kernel.run()
    assert log == ["x", "y", "z"]


def test_determinism_across_runs():
    def scenario():
        k = Kernel()
        log = []

        def w(name, d):
            for _ in range(5):
                k.sleep(d)
                log.append((name, k.now))

        k.spawn(w, "a", 0.3)
        k.spawn(w, "b", 0.7)
        k.spawn(w, "c", 0.7)
        k.run()
        k.shutdown()
        return log

    assert scenario() == scenario()


def test_yield_now_lets_other_threads_run(kernel):
    log = []

    def first():
        log.append("first-start")
        kernel.yield_now()
        log.append("first-end")

    def second():
        log.append("second")

    kernel.spawn(first)
    kernel.spawn(second)
    kernel.run()
    assert log == ["first-start", "second", "first-end"]


def test_call_later_fires_in_order(kernel):
    fired = []
    kernel.call_later(2.0, lambda: fired.append(2))
    kernel.call_later(1.0, lambda: fired.append(1))
    kernel.call_later(3.0, lambda: fired.append(3))
    kernel.run()
    assert fired == [1, 2, 3]
    assert kernel.now == 3.0


def test_cancel_timer(kernel):
    fired = []
    tid = kernel.call_later(1.0, lambda: fired.append("no"))
    kernel.call_later(2.0, lambda: fired.append("yes"))
    kernel.cancel_timer(tid)
    kernel.run()
    assert fired == ["yes"]


def test_call_at_in_past_rejected(kernel):
    def body():
        kernel.sleep(5.0)
        kernel.call_at(1.0, lambda: None)

    kernel.spawn(body)
    with pytest.raises(SimThreadError):
        kernel.run()


def test_run_until_stops_at_horizon(kernel):
    log = []

    def body():
        for _ in range(10):
            kernel.sleep(1.0)
            log.append(kernel.now)

    kernel.spawn(body)
    kernel.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert kernel.now == 3.5
    kernel.run()  # resume to completion
    assert log[-1] == 10.0


def test_exception_propagates_as_sim_thread_error(kernel):
    def bad():
        raise ValueError("boom")

    kernel.spawn(bad, name="bad")
    with pytest.raises(SimThreadError) as ei:
        kernel.run()
    assert ei.value.thread_name == "bad"
    assert isinstance(ei.value.original, ValueError)


def test_exception_can_be_collected_instead_of_raised(kernel):
    def bad():
        raise ValueError("boom")

    th = kernel.spawn(bad)
    kernel.run(raise_on_thread_error=False)
    assert isinstance(th.exception, ValueError)


def test_deadlock_detected(kernel):
    ev = SimEvent(kernel, "never")

    def stuck():
        ev.wait()

    kernel.spawn(stuck, name="stuck-1")
    kernel.spawn(stuck, name="stuck-2")
    with pytest.raises(DeadlockError) as ei:
        kernel.run()
    assert len(ei.value.blocked) == 2
    assert any("stuck-1" in b for b in ei.value.blocked)


def test_deadlock_not_reported_when_timer_pending(kernel):
    ev = SimEvent(kernel)

    def stuck():
        ev.wait()

    kernel.spawn(stuck)
    kernel.call_later(1.0, ev.set)
    kernel.run()  # completes thanks to the timer
    assert kernel.now == 1.0


def test_kill_blocked_thread(kernel):
    ev = SimEvent(kernel)
    log = []

    def victim():
        try:
            ev.wait()
            log.append("unreachable")
        finally:
            log.append("cleanup")

    th = kernel.spawn(victim)

    def killer():
        kernel.sleep(1.0)
        th.kill()

    kernel.spawn(killer)
    kernel.run()
    assert log == ["cleanup"]
    assert not th.alive


def test_kill_before_first_run(kernel):
    log = []
    th = kernel.spawn(lambda: log.append("ran"))
    th.kill()
    kernel.run()
    assert log == []
    assert not th.alive


def test_join(kernel):
    log = []

    def worker():
        kernel.sleep(2.0)
        log.append("worker-done")

    th = kernel.spawn(worker)

    def waiter():
        assert th.join()
        log.append(("joined", kernel.now))

    kernel.spawn(waiter)
    kernel.run()
    assert log == ["worker-done", ("joined", 2.0)]


def test_join_timeout(kernel):
    def worker():
        kernel.sleep(10.0)

    th = kernel.spawn(worker)
    results = []

    def waiter():
        results.append(th.join(timeout=1.0))

    kernel.spawn(waiter)
    kernel.run()
    assert results == [False]


def test_join_already_finished(kernel):
    th = kernel.spawn(lambda: None)
    ok = []

    def waiter():
        kernel.sleep(1.0)
        ok.append(th.join())

    kernel.spawn(waiter)
    kernel.run()
    assert ok == [True]


def test_blocking_primitive_outside_thread_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.sleep(1.0)


def test_run_is_not_reentrant(kernel):
    def body():
        kernel.run()

    kernel.spawn(body)
    with pytest.raises(SimThreadError) as ei:
        kernel.run()
    assert isinstance(ei.value.original, SimulationError)


def test_shutdown_kills_everything():
    k = Kernel()
    ev = SimEvent(k)
    cleaned = []

    def stuck(name):
        try:
            ev.wait()
        finally:
            cleaned.append(name)

    k.spawn(stuck, "a")
    k.spawn(stuck, "b")
    with pytest.raises(DeadlockError):
        k.run()
    k.shutdown()
    assert sorted(cleaned) == ["a", "b"]


def test_spawn_after_shutdown_rejected():
    k = Kernel()
    k.shutdown()
    with pytest.raises(SimulationError):
        k.spawn(lambda: None)


def test_kernel_context_manager():
    with Kernel() as k:
        k.spawn(lambda: k.sleep(1.0))
        k.run()
        assert k.now == 1.0


def test_many_threads_complete(kernel):
    done = []

    def w(i):
        kernel.sleep(i * 0.01)
        done.append(i)

    for i in range(100):
        kernel.spawn(w, i)
    kernel.run()
    assert done == list(range(100))


def test_timeout_sentinel_distinct_from_values(kernel):
    ev = SimEvent(kernel)
    got = []

    def waiter():
        got.append(ev.wait(timeout=1.0))

    kernel.spawn(waiter)
    kernel.run()
    assert got == [False]
    assert TIMEOUT is not False and TIMEOUT is not None


# -- direct handoff: counters ----------------------------------------------

def test_lone_sleeper_never_switches_threads(kernel):
    def body():
        kernel.sleep(1.0)
        kernel.sleep(1.0)

    kernel.spawn(body)
    kernel.run()
    # the run loop starts it; both wake-ups resume it in place
    assert (kernel.stats.steps, kernel.stats.os_handoffs,
            kernel.stats.inline_resumes) == (3, 0, 2)


def test_yield_ping_pong_hands_off_once_per_yield(kernel):
    n = 50

    def body():
        for _ in range(n):
            kernel.yield_now()

    kernel.spawn(body)
    kernel.spawn(body)
    kernel.run()
    # one direct switch per yield; the run loop starts the first thread
    # and resumes the second after the first finishes
    assert kernel.stats.os_handoffs == 2 * n
    assert kernel.stats.steps == 2 * n + 2
    assert kernel.stats.inline_resumes == 0


# -- direct handoff: dispatching from simulated threads ----------------------

def _handoff_to_raiser(kernel):
    """'a' yields straight to 'b', which raises: the run loop never
    steps 'b' itself."""
    log = []

    def a():
        log.append("a0")
        kernel.yield_now()
        log.append("a1")

    def b():
        log.append("b")
        raise ValueError("boom")

    return log, kernel.spawn(a, name="a"), kernel.spawn(b, name="b")


def test_error_in_thread_reached_by_handoff_names_that_thread(kernel):
    log, _, _ = _handoff_to_raiser(kernel)
    with pytest.raises(SimThreadError) as ei:
        kernel.run()
    assert ei.value.thread_name == "b"
    assert isinstance(ei.value.original, ValueError)
    assert kernel.stats.os_handoffs == 1
    assert log == ["a0", "b"]


def test_error_in_thread_reached_by_handoff_can_be_collected(kernel):
    log, a, b = _handoff_to_raiser(kernel)
    kernel.run(raise_on_thread_error=False)
    assert isinstance(b.exception, ValueError)
    assert a.exception is None and not a.alive
    assert log == ["a0", "b", "a1"]


def test_run_until_horizon_reached_inside_inline_dispatch(kernel):
    log = []

    def body():
        for _ in range(3):
            kernel.sleep(1.0)
            log.append(kernel.now)

    th = kernel.spawn(body)
    kernel.run(until=1.5)
    # woken in place at 1.0; its next timer lies past the horizon
    assert log == [1.0] and kernel.now == 1.5 and th.alive
    assert kernel.stats.inline_resumes == 1
    kernel.run()
    assert log == [1.0, 2.0, 3.0] and not th.alive


def test_kill_from_timer_fired_by_the_victim_itself(kernel):
    cleaned = []

    def sleeper():
        try:
            kernel.sleep(10.0)
        finally:
            cleaned.append(kernel.now)

    th = kernel.spawn(sleeper)
    kernel.call_later(1.0, th.kill)
    kernel.run()
    assert cleaned == [1.0] and not th.alive and th.exception is None


def test_kill_from_timer_fired_by_another_thread(kernel):
    ev = SimEvent(kernel, "never")
    log = []

    def waiter():
        try:
            ev.wait()
        finally:
            log.append(("waiter-killed", kernel.now))

    def sleeper():
        kernel.sleep(2.0)
        log.append(("sleeper-done", kernel.now))

    victim = kernel.spawn(waiter)
    kernel.spawn(sleeper)
    kernel.call_later(1.0, victim.kill)
    kernel.run()
    assert log == [("waiter-killed", 1.0), ("sleeper-done", 2.0)]


def test_shutdown_mid_handoff_leaves_no_live_os_thread():
    k = Kernel()
    ev = SimEvent(k, "never")
    cleaned = []

    def spinner(name):
        try:
            for _ in range(1000):
                k.yield_now()
        finally:
            cleaned.append(name)

    def waiter(name):
        try:
            ev.wait()
        finally:
            cleaned.append(name)

    def stubborn():
        try:
            ev.wait()
        finally:
            cleaned.append("stubborn")
            k.sleep(1.0)  # blocking while shut down: killed again at once
            cleaned.append("unreachable")

    def crasher():
        raise RuntimeError("crash while the others wait on a handoff")

    for i in range(3):
        k.spawn(spinner, f"spin{i}", name=f"mid-handoff-spin{i}")
    k.spawn(waiter, "wait", name="mid-handoff-wait")
    k.spawn(stubborn, name="mid-handoff-stubborn")
    k.spawn(crasher, name="mid-handoff-crash")
    k.spawn(waiter, "late", name="mid-handoff-late")  # never starts
    with pytest.raises(SimThreadError):
        k.run()
    k.shutdown()
    assert sorted(cleaned) == ["spin0", "spin1", "spin2", "stubborn", "wait"]
    assert not [t for t in threading.enumerate()
                if t.name.startswith("sim:mid-handoff-")]


def test_blocking_from_timer_fired_on_a_simulated_thread_rejected(kernel):
    def body():
        kernel.sleep(2.0)

    kernel.spawn(body)
    # fired from body's own OS thread while it picks its successor
    kernel.call_later(1.0, lambda: kernel.sleep(1.0))
    with pytest.raises(SimulationError) as ei:
        kernel.run()
    # raised by the callback, out of run(): body did not die of it
    assert ei.type is SimulationError


def test_blocking_from_foreign_os_thread_rejected(kernel):
    errors = []

    def foreign():
        try:
            kernel.sleep(1.0)
        except SimulationError as exc:
            errors.append(exc)

    def body():
        t = threading.Thread(target=foreign)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive()

    kernel.spawn(body)
    kernel.run()
    assert len(errors) == 1


def _mixed_program(nthreads):
    """Threads mixing yields, sleeps, queue hand-offs and new spawns."""
    k = Kernel()
    q = SimQueue(k, name="q")
    log = []

    def worker(i):
        for j in range(20):
            if (i + j) % 3 == 0:
                k.yield_now()
            elif (i + j) % 3 == 1:
                k.sleep(0.001 * ((i * j) % 5))
            else:
                q.put((i, j))
                log.append(("got", i, q.get()))
            log.append((i, j, k.now))
        if i % 4 == 0:  # started by a handoff from a simulated thread
            k.spawn(lambda: log.append(("child", i, k.now)))

    for i in range(nthreads):
        k.spawn(worker, i)
    try:
        k.run()
        return log, k.stats
    finally:
        k.shutdown()


def test_handoff_deterministic_under_tiny_switch_interval():
    """Many more OS threads than cores, with the interpreter switching
    threads as often as it can: every run keeps the same schedule."""
    log, stats = _mixed_program(16)
    assert sum(1 for e in log if e[0] == "child") == 4
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_mixed_program(16) for _ in range(3)]
    finally:
        sys.setswitchinterval(saved)
    assert runs == [(log, stats)] * 3
