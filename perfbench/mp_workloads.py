"""The three multiprocess workloads, driven by one thread in this process.

* ``migrate-bulk`` -- two ranks ping-pong (1 ms compute per round) while
  rank 1, carrying 32 MiB of seeded ``numpy_state``, is migrated back to
  back. The codec, chunking, framing and restore carry the bytes.
* ``ring-migrate`` -- a three-rank token ring passing 4 KiB payloads;
  ranks 1 and 2 (64 KiB of state each) are migrated in alternation, each
  request a fixed interval after the previous commit. Drain, reject,
  lookup and reconnect coordination plus the per-message data path do
  the work; the codec does little.
* ``crash-recover`` -- a three-rank relay with checkpoints every 4 poll
  points; rank 1 carries 1 MiB of ballast mutated every item and is
  SIGKILLed at seeded offsets in steady state, then restarted by the
  supervisor from its newest checkpoint (migration from disk).

Each workload measures cluster set-up several times (throwaway clusters
that stop at once, plus the measured one) and reports the median.
"""

from __future__ import annotations

import bisect
import random
import time

from repro.obs import ObsConfig
from repro.recovery import RecoverySpec, RestartPolicy
from repro.runtime import MPCluster

import programs
from common import Outcome, check_hygiene, p50, p90, timed

#: cluster set-ups per run: throwaway clusters plus the measured one
SETUP_TRIALS = 21
#: per-operation safety net: a migration or recovery slower than this is
#: counted as failed (and ends the measurement)
OP_TIMEOUT = 30.0
JOIN_TIMEOUT = 60.0

BULK_BYTES = 32 << 20
BULK_COMPUTE_S = 1e-3

RING_TOKEN_BYTES = 4 << 10
RING_STATE_BYTES = 64 << 10
#: pause between one migration's commit and the next request
RING_INTERVAL_S = 0.1

RELAY_BALLAST_BYTES = 1 << 20
RELAY_CHECKPOINT_EVERY = 4
#: seeded kill offset after the previous recovery committed
KILL_DELAY_S = (0.10, 0.30)


class _Run:
    """One measured cluster plus the set-up trials before it."""

    def __init__(self, out: Outcome, scratch, make, traced: bool):
        self.out = out
        self.scratch = scratch
        self.make = make
        self.obs = ObsConfig() if traced else None
        self.setups: list[float] = []

    def _setup(self, stop):
        cluster = self.make(stop, self.obs)
        cluster.start()
        return cluster

    def _trials(self, count: int) -> None:
        for _ in range(count):
            cluster, seconds = timed(self._setup, programs.stop_flag(True))
            self.setups.append(seconds)
            try:
                cluster.join(timeout=JOIN_TIMEOUT)
            except Exception as exc:
                self.out.fail(f"set-up trial: {type(exc).__name__}: {exc}")
            finally:
                cluster.terminate()
            check_hygiene(self.out, cluster, self.scratch)

    def start(self):
        """Time throwaway set-ups, then start the measured cluster. Half
        of the throwaway set-ups run before the measurement and half
        after, so interference at one moment cannot move the median."""
        self._trials((SETUP_TRIALS - 1) // 2)
        self.stop = programs.stop_flag()
        self.cluster, seconds = timed(self._setup, self.stop)
        self.setups.append(seconds)
        return self.cluster

    def finish(self) -> dict | None:
        """Stop the ranks, join, tear down and check hygiene."""
        self.stop.value = 1
        results = None
        try:
            results = self.cluster.join(timeout=JOIN_TIMEOUT)
        except Exception as exc:
            self.out.fail(f"join: {type(exc).__name__}: {exc}")
        finally:
            self.cluster.terminate()
        check_hygiene(self.out, self.cluster, self.scratch)
        self._trials(SETUP_TRIALS - 1 - (SETUP_TRIALS - 1) // 2)
        return results


def _wait_windows(cluster, count: int) -> float | None:
    """Poll until *count* migration windows committed; commit time."""
    deadline = time.perf_counter() + OP_TIMEOUT
    while time.perf_counter() < deadline:
        if len(cluster.migration_windows()) >= count:
            return time.perf_counter()
        time.sleep(0.0005)
    return None


def _wait_value(shared, count: int) -> bool:
    deadline = time.perf_counter() + OP_TIMEOUT
    while shared.value < count:
        if time.perf_counter() >= deadline:
            return False
        time.sleep(0.0005)
    return True


def _migrate(out: Outcome, cluster, rank: int, done: int
             ) -> tuple[float, float] | None:
    """One timed migration: ``(t_call, t_commit)`` or None on failure."""
    out.attempted += 1
    t_call = time.perf_counter()
    try:
        cluster.migrate(rank)
    except RuntimeError as exc:
        out.fail(f"migrate({rank}): {exc}")
        return None
    t_commit = _wait_windows(cluster, done + 1)
    if t_commit is None:
        live = [m.role for m in cluster.members()
                if m.rank == rank and m.proc.is_alive()]
        out.fail(f"migrate({rank}): no commit within {OP_TIMEOUT}s (rank "
                 f"status {cluster.rank_status(rank)!r}, live processes "
                 f"{live})")
        return None
    return t_call, t_commit


def _check_intact(out: Outcome, rank: int, flags: list) -> None:
    for k, ok in enumerate(flags):
        if not ok:
            out.fail(f"rank {rank} incarnation {k}: state not intact")


def _set_e2e(out: Outcome, setups, ops, work, op_name, work_name,
             work_unit):
    out.e2e = {"setup_s": p50(setups),
               "op_s.p50": p50(ops) if ops else float("nan"),
               "work_per_s": work}
    out.figure("setup_s", out.e2e["setup_s"], "s", len(setups))
    out.figure(f"{op_name}.p50", out.e2e["op_s.p50"], "s", len(ops))
    q90 = p90(ops)
    out.figure(f"{op_name}.p90", q90 if q90 is not None else
               f"n/a (n={len(ops)} < 100)", "s", len(ops))
    out.figure(work_name, work, work_unit)


# ---------------------------------------------------------------------------

def migrate_bulk(seed: int, seconds: float, scratch, traced: bool = False,
                 corrupt: bool = False) -> tuple[Outcome, dict]:
    out = Outcome("migrate-bulk")
    payload = programs.payload_state(BULK_BYTES, seed)
    expected = programs.copy_state(payload)
    if corrupt:  # self-test: the oracle must catch a flipped byte
        expected["u16"][0] ^= 1
    out.state_bytes = sum(payload[k].nbytes for k in programs.ARRAYS)

    checked = programs.shared_counter()

    def make(stop, obs):
        checked.value = 0
        return MPCluster(programs.bulk_program(stop, expected,
                                               BULK_COMPUTE_S, checked),
                         nranks=2, obs=obs,
                         init_states=[{}, dict(payload, intact=[])])

    run = _Run(out, scratch, make, traced)
    cluster = run.start()
    spans = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        # back to back, but only once rank 1 has checked its restored
        # state: the oracle's comparison is not migration time
        if not _wait_value(checked, len(spans) + 1):
            out.fail(f"rank 1 did not finish its start-up check within "
                     f"{OP_TIMEOUT}s")
            break
        span = _migrate(out, cluster, 1, len(spans))
        if span is None:
            break
        spans.append(span)
    windows = cluster.migration_windows()
    results = run.finish()
    ops = [t1 - t0 for t0, t1 in spans]
    work, units = float("nan"), 0
    if results is not None:
        r0, r1 = results[0], results[1]
        if r0["errors"] or r1["errors"]:
            out.fail(f"ping-pong: {r0['errors']}+{r1['errors']} bad rounds")
        _check_intact(out, 1, r1["intact"])
        if len(r1["intact"]) != len(spans) + 1:
            out.fail(f"rank 1 started {len(r1['intact'])} times for "
                     f"{len(spans)} migrations")
        if r1["digest"] != programs.digest(expected, expected):
            out.fail("rank 1's final payload digest differs from the input")
        units = r0["rounds"]
        work = units / (r0["t"][1] - r0["t"][0])
    _set_e2e(out, run.setups, ops, work, "migrate_s", "pingpong_per_s",
             "1/s")
    out.notes.append(f"fail_ratio base: migrations ({out.attempted})")
    return out, {"cluster": run.cluster, "spans": spans,
                 "windows": windows, "state": payload, "work": units}


def ring_migrate(seed: int, seconds: float, scratch, traced: bool = False,
                 corrupt: bool = False) -> tuple[Outcome, dict]:
    out = Outcome("ring-migrate")
    rng = random.Random(seed)
    token = rng.randbytes(RING_TOKEN_BYTES)
    first = rng.choice((1, 2))
    states = {r: {"blob": programs.ballast(RING_STATE_BYTES, seed * 3 + r)}
              for r in (1, 2)}
    expected = {r: programs.copy_state(s) for r, s in states.items()}
    if corrupt:
        expected[first]["blob"][0] ^= 1
    out.state_bytes = RING_STATE_BYTES

    def make(stop, obs):
        return MPCluster(programs.ring_program(stop, token, expected),
                         nranks=3, obs=obs,
                         init_states=[{}] + [dict(states[r], intact=[])
                                             for r in (1, 2)])

    run = _Run(out, scratch, make, traced)
    cluster = run.start()
    spans, ranks = [], []
    deadline = time.perf_counter() + seconds
    rank = first
    while time.perf_counter() < deadline:
        time.sleep(RING_INTERVAL_S)
        span = _migrate(out, cluster, rank, len(spans))
        if span is None:
            break
        spans.append(span)
        ranks.append(rank)
        rank = 3 - rank
    windows = cluster.migration_windows()
    results = run.finish()
    ops = [t1 - t0 for t0, t1 in spans]
    work, units = float("nan"), 0
    if results is not None:
        r0 = results[0]
        errors = sum(results[r]["errors"] for r in range(3))
        if errors:
            out.fail(f"ring: {errors} tokens out of sequence or corrupted")
        for r in (1, 2):
            _check_intact(out, r, results[r]["intact"])
            if len(results[r]["intact"]) != ranks.count(r) + 1:
                out.fail(f"rank {r} started {len(results[r]['intact'])} "
                         f"times for {ranks.count(r)} migrations")
        starts, lats = r0["starts"], r0["lats"]
        units = r0["rounds"]
        work = units / (r0["t"][1] - r0["t"][0])
        round_us = [x * 1e6 for x in lats]
        out.figure("round_us.p50", p50(round_us), "us", len(round_us))
        out.figure("round_us.p90", p90(round_us), "us", len(round_us))
        stalls = []
        for t_call, t_commit in spans:
            lo = max(0, bisect.bisect_right(starts, t_call) - 1)
            hi = bisect.bisect_left(starts, t_commit)
            if hi > lo:
                stalls.append(max(lats[lo:hi]) * 1e3)
        if stalls:
            out.figure("stall_ms.p50", p50(stalls), "ms", len(stalls))
    _set_e2e(out, run.setups, ops, work, "migrate_s", "rounds_per_s",
             "1/s")
    out.notes.append(f"fail_ratio base: migrations ({out.attempted}); "
                     f"first migrated rank {first}")
    return out, {"cluster": run.cluster, "spans": spans,
                 "windows": windows, "state": states[first],
                 "token": token, "work": units}


def crash_recover(seed: int, seconds: float, scratch, traced: bool = False,
                  corrupt: bool = False) -> tuple[Outcome, dict]:
    out = Outcome("crash-recover")
    rng = random.Random(seed)
    base = programs.ballast(RELAY_BALLAST_BYTES, seed)
    expected = base.copy()
    if corrupt:
        expected[0] ^= 1
    out.state_bytes = base.nbytes
    spec = RecoverySpec(checkpoint_every=RELAY_CHECKPOINT_EVERY,
                        policy=RestartPolicy(base_delay=0.0,
                                             max_restarts=10**9))

    def make(stop, obs):
        return MPCluster(programs.relay_program(stop, expected), nranks=3,
                         obs=obs, recovery=spec,
                         init_states=[{}, {"ballast": base.copy()}, {}])

    run = _Run(out, scratch, make, traced)
    cluster = run.start()
    kills = []  # (t_kill wall, t_kill, t_commit)
    deadline = time.perf_counter() + seconds
    while True:
        delay = rng.uniform(*KILL_DELAY_S)
        if time.perf_counter() + delay >= deadline:
            break
        time.sleep(delay)
        out.attempted += 1
        done = cluster.recovery_report()["restarts"]
        wall = time.time()
        t_kill = time.perf_counter()
        try:
            cluster.kill_rank(1)
        except RuntimeError as exc:
            out.fail(f"kill_rank(1): {exc}")
            break
        t_commit = None
        limit = t_kill + OP_TIMEOUT
        while time.perf_counter() < limit:
            if cluster.recovery_report()["restarts"] > done:
                t_commit = time.perf_counter()
                break
            time.sleep(0.0005)
        if t_commit is None:
            out.fail(f"recovery of rank 1 not committed within "
                     f"{OP_TIMEOUT}s")
            break
        kills.append((wall, t_kill, t_commit))
    report = cluster.recovery_report()
    results = run.finish()
    ops = [t1 - t0 for _, t0, t1 in kills]
    work, n = float("nan"), 0
    if report["permanent_failures"]:
        out.fail(f"supervisor escalated: {report['permanent_failures']}")
    if results is not None:
        r0, r1, r2 = results[0], results[1], results[2]
        n = r0["sent"]
        errors = r0["errors"] + r1["errors"] + r2["errors"]
        if errors:
            out.fail(f"relay: {errors} items out of order or duplicated")
        if not (r2["received"] == r2["announced"] == r1["i"] == n):
            out.fail(f"relay: sink got {r2['received']} of {n} items")
        _check_intact(out, 1, r1["intact"])
        if r1["ballast"] != programs.array_digest(
                programs.mutate_upto(expected, n)):
            out.fail("rank 1's final ballast differs from the input "
                     "mutated once per item")
        work = n / (r0["t"][1] - r0["t"][0])
    _set_e2e(out, run.setups, ops, work, "recover_s", "items_per_s", "1/s")
    out.notes.append(f"fail_ratio base: recoveries ({out.attempted})")
    # rank 1's program state as its checkpoints and recoveries carry it
    state = {"ballast": base, "i": n, "intact": [True], "errors": 0}
    return out, {"cluster": run.cluster, "kills": kills, "report": report,
                 "state": state, "work": n}
