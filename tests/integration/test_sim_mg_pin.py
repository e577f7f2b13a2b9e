"""The paper's Section 6.3 heterogeneous MG run, pinned event for event.

Eight ranks solve kernel MG (n = 64, four V-cycles) on the simulated
Ultra 5 cluster; rank 0 starts on the slow DEC 5000/120 (MIPS32, on a
10 Mbit/s segment) and migrates to an idle SPARC32 Ultra 5 after two
V-cycles. The run exercises every layer built on the kernel's
``_block``/``_wake`` (events, queues, network, VM, sim protocol), so a
change to how the kernel hands control between threads must leave its
trace identical. The event count, digest (sha256 over ``str(ev)`` of
every trace event), final clock and number of thread dispatches below
were recorded with the original two-semaphore kernel.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Application, VirtualMachine
from repro.apps.mg import make_mg_program, num_levels_dist
from repro.codec import MIPS32, SPARC32
from repro.experiments.mg_runs import DEC_SPEED, ULTRA5_FLOPS
from repro.sim.network import ETHERNET_10M

N = 64
NRANKS = 8
ITERATIONS = 4
MIGRATE_AFTER = 2
RHS_SEED = 12345

PINNED_EVENTS = 5184
PINNED_SHA256 = \
    "6fae1c3722625ddc48f4eb55e7640f03e73eca4c5ea89318cb1f876e91df8425"
PINNED_NOW = 6.592612280857136
PINNED_STEPS = 8696


def build_mg_6_3() -> Application:
    vm = VirtualMachine()
    vm.add_host("dec0", cpu_speed=DEC_SPEED)
    for i in range(1, NRANKS):
        vm.add_host(f"u{i}")
    vm.add_host("sched")
    vm.add_host("spare")
    for other in vm.hosts:
        if other != "dec0":
            vm.network.set_link("dec0", other, ETHERNET_10M)
    program = make_mg_program(
        N, iterations=ITERATIONS, levels=num_levels_dist(N, N // NRANKS),
        flop_rate=ULTRA5_FLOPS, seed=RHS_SEED, results={})
    arches = {"dec0": MIPS32, "spare": SPARC32}
    arches.update({f"u{i}": SPARC32 for i in range(1, NRANKS)})
    app = Application(
        vm, program,
        placement=["dec0"] + [f"u{i}" for i in range(1, NRANKS)],
        scheduler_host="sched", architectures=arches)
    app.start()
    app.migrate_after_event("app_vcycle_done", rank=0, dest_host="spare",
                            actor="p0", iter=MIGRATE_AFTER - 1)
    return app


@pytest.fixture(scope="module")
def mg_run():
    app = build_mg_6_3()
    try:
        app.run()
        return app, [str(ev) for ev in app.vm.trace]
    finally:
        app.vm.shutdown()


def test_mg_6_3_trace_is_pinned(mg_run):
    app, lines = mg_run
    assert len(app.migrations) == 1 and app.migrations[0].completed
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == PINNED_EVENTS
    assert digest == PINNED_SHA256
    assert app.vm.kernel.now == PINNED_NOW


def test_mg_6_3_switches_threads_less_than_once_per_step(mg_run):
    app, _ = mg_run
    stats = app.vm.kernel.stats
    # the same 8,696 thread dispatches as the two-semaphore kernel, which
    # paid two OS context switches for each
    assert stats.steps == PINNED_STEPS
    loop_steps = stats.steps - stats.os_handoffs - stats.inline_resumes
    assert stats.os_handoffs < stats.steps
    assert stats.os_handoffs + 2 * loop_steps < stats.steps
