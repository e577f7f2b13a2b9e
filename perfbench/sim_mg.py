"""``sim-mg``: the paper's Section 6.3 heterogeneous MG run, repeated.

Eight ranks solve kernel MG (n = 64, four V-cycles) on the simulated
Ultra 5 cluster; rank 0 starts on the slow DEC 5000/120 (MIPS32, on a
10 Mbit/s segment) and migrates to an idle SPARC32 Ultra 5 after two
V-cycles. Only the simulator kernel's thread hand-off, the MG operators
and the byte-swapping codec run here: no socket, no fork.

Each run's right-hand side comes from one of four seeds drawn from the
benchmark seed. The oracle is :mod:`repro.apps.mg.serial` run on the
same right-hand side and V-cycle depth: residual norms and the solution
must match, and the migration must have completed.

The workload pins its process to one CPU while it runs. The kernel runs
one simulated thread at a time and hands control between OS threads
through semaphores; left free, each hand-off may wake a thread on the
other CPU, and on a shared virtual machine those cross-CPU wake-ups made
the same run take anywhere from 0.6 s to 1.7 s. Pinned, the run time
measures the simulator's own work.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from repro import Application, VirtualMachine
from repro.analysis.metrics import migration_breakdown
from repro.apps.mg import make_mg_program, num_levels_dist
from repro.apps.mg.serial import make_rhs, residual_norm, vcycle_serial
from repro.codec import MIPS32, SPARC32
from repro.experiments.mg_runs import DEC_SPEED, ULTRA5_FLOPS
from repro.sim.network import ETHERNET_10M

from common import Outcome, p50, timed

N = 64
NRANKS = 8
ITERATIONS = 4
MIGRATE_AFTER = 2
#: distinct right-hand sides per benchmark run (each needs a serial
#: reference solve, done before the timed loop)
RHS_SEEDS = 4


def inputs(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(RHS_SEEDS)]


def reference(mg_seed: int, levels: int) -> tuple[np.ndarray, list[float]]:
    v = make_rhs(N, mg_seed)
    u = np.zeros_like(v)
    norms = []
    for _ in range(ITERATIONS):
        u = vcycle_serial(u, v, levels)
        norms.append(residual_norm(u, v))
    return u, norms


def build(mg_seed: int, levels: int, results: dict) -> Application:
    """Construct and start one Section 6.3 run (the timed set-up)."""
    vm = VirtualMachine()
    vm.add_host("dec0", cpu_speed=DEC_SPEED)
    for i in range(1, NRANKS):
        vm.add_host(f"u{i}")
    vm.add_host("sched")
    vm.add_host("spare")
    for other in vm.hosts:
        if other != "dec0":
            vm.network.set_link("dec0", other, ETHERNET_10M)
    program = make_mg_program(N, iterations=ITERATIONS, levels=levels,
                              flop_rate=ULTRA5_FLOPS, seed=mg_seed,
                              results=results)
    arches = {"dec0": MIPS32, "spare": SPARC32}
    arches.update({f"u{i}": SPARC32 for i in range(1, NRANKS)})
    app = Application(vm, program,
                      placement=["dec0"] + [f"u{i}" for i in
                                            range(1, NRANKS)],
                      scheduler_host="sched", architectures=arches)
    app.start()
    app.migrate_after_event("app_vcycle_done", rank=0, dest_host="spare",
                            actor="p0", iter=MIGRATE_AFTER - 1)
    return app


def check(out: Outcome, app: Application, results: dict,
          ref: tuple[np.ndarray, list[float]]) -> bool:
    u_ref, norms_ref = ref
    if not (len(app.migrations) == 1 and app.migrations[0].completed):
        out.fail("sim-mg: rank 0's migration did not complete")
        return False
    if sorted(results) != list(range(NRANKS)):
        out.fail(f"sim-mg: results from ranks {sorted(results)}")
        return False
    for rank in range(NRANKS):
        if not np.allclose(results[rank]["rnorms"], norms_ref,
                           rtol=1e-12, atol=0.0):
            out.fail(f"sim-mg: rank {rank} residual norms "
                     f"{results[rank]['rnorms']} != serial {norms_ref}")
            return False
    u = np.concatenate([results[r]["u"] for r in range(NRANKS)], axis=0)
    if not np.allclose(u, u_ref, rtol=1e-12, atol=1e-14):
        out.fail("sim-mg: solution differs from the serial reference")
        return False
    return True


def migrating_state(run: dict) -> dict:
    """Rank 0's program state with the keys, shapes and types it migrates
    with after two V-cycles (``u`` holds the run's final values)."""
    nz = N // NRANKS
    final = run["state"]
    return {"u": final["u"], "v": make_rhs(N, run["seed"])[:nz].copy(),
            "iter": MIGRATE_AFTER, "rnorms": final["rnorms"][:MIGRATE_AFTER],
            "hosts": ["dec0"]}


def run(seed: int, seconds: float, probe=None, corrupt: bool = False
        ) -> Outcome:
    """Repeat MG runs for *seconds*; *probe* (traced pass) is told about
    every finished run so it can read the kernel and operator timers.
    *corrupt* perturbs the reference (the self-test's oracle check)."""
    out = Outcome("sim-mg")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        _loop(out, seed, seconds, probe, corrupt)
    finally:
        os.sched_setaffinity(0, cpus)
    out.notes.append(f"pinned to CPU {min(cpus)} of {sorted(cpus)}")
    out.notes.append(f"fail_ratio base: MG runs ({out.attempted})")
    out.state_bytes = 2 * (N // NRANKS) * N * N * 8
    return out


def _loop(out: Outcome, seed: int, seconds: float, probe, corrupt: bool
          ) -> None:
    levels = num_levels_dist(N, N // NRANKS)
    seeds = inputs(seed)
    refs = {s: reference(s, levels) for s in seeds}
    if corrupt:
        for _, norms in refs.values():
            norms[-1] *= 1 + 1e-9
    setups, runs, rates = [], [], []
    migrate_vs = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (not runs and out.failed < 3):
        mg_seed = seeds[i % len(seeds)]
        i += 1
        out.attempted += 1
        results: dict = {}
        if probe is not None:
            probe.begin_run()
        app, t_setup = timed(build, mg_seed, levels, results)
        setups.append(t_setup)
        try:
            _, t_run = timed(app.run)
        except Exception as exc:  # a failed run is counted, not fatal
            out.fail(f"sim-mg: run raised {type(exc).__name__}: {exc}")
            app.vm.shutdown()
            continue
        _, t_down = timed(app.vm.shutdown)
        runs.append(t_run)
        if not check(out, app, results, refs[mg_seed]):
            continue
        rates.append(NRANKS * ITERATIONS / (t_setup + t_run + t_down))
        bd = migration_breakdown(app.vm.trace, "p0", "p0.m1")
        migrate_vs.append(bd.migrate)
        if probe is not None:
            probe.end_run(results, bd, mg_seed)
    out.e2e = {
        "setup_s": p50(setups),
        "op_s.p50": p50(runs) if runs else float("nan"),
        "work_per_s": p50(rates) if rates else float("nan"),
    }
    out.figure("setup_s", out.e2e["setup_s"], "s", len(setups))
    out.figure("sim_run_s.p50", out.e2e["op_s.p50"], "s", len(runs))
    out.figure("vcycles_per_s", out.e2e["work_per_s"], "1/s", len(rates))
    if migrate_vs:
        out.figure("mg_migrate_vs", p50(migrate_vs), "vs", len(migrate_vs))
