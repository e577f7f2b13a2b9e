"""Rank programs and seeded inputs of the three multiprocess workloads.

Programs are closures handed to :class:`repro.runtime.MPCluster`, whose
ranks are forked, so every incarnation (first start, migration
destination, recovery replacement) inherits the same closure: the
generated inputs it checks against and a shared stop flag. The driver
thread sets the flag once its measurement window is over and no
migration or recovery is in flight; rank 0 then winds the computation
down through the ranks' own messages.

Every (re)start of a state-carrying rank records whether its state is
intact, and every message is checked on arrival, so the driver can count
a corrupted transfer or a lost, duplicated or reordered message as a
failed operation.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time

import numpy as np

from repro.analysis.fastpath import numpy_state

#: arrays of :func:`repro.analysis.fastpath.numpy_state`
ARRAYS = ("u64", "f64", "i32", "c128", "f32", "u16")

_CTX = multiprocessing.get_context("fork")


def stop_flag(stopped: bool = False):
    """A fork-shared flag; ranks poll it lock-free once per round."""
    flag = _CTX.RawValue("b", 0)
    flag.value = int(stopped)
    return flag


def shared_counter():
    """A fork-shared counter with a single writing rank."""
    return _CTX.RawValue("i", 0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _fill(arr: np.ndarray, rng: np.random.Generator) -> None:
    if arr.dtype.kind in "iu":
        info = np.iinfo(arr.dtype)
        arr[...] = rng.integers(info.min, info.max, arr.shape,
                                dtype=arr.dtype, endpoint=True)
    elif arr.dtype.kind == "c":
        arr[...] = (rng.standard_normal(arr.shape)
                    + 1j * rng.standard_normal(arr.shape))
    else:
        arr[...] = rng.standard_normal(arr.shape)


def payload_state(nbytes: int, seed: int) -> dict:
    """``numpy_state(nbytes)`` with every array refilled from *seed*."""
    state = numpy_state(nbytes)
    rng = np.random.default_rng(seed)
    for key in ARRAYS:
        _fill(state[key], rng)
    return state


def copy_state(state: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in state.items()}


def intact(state: dict, expected: dict) -> bool:
    """Every input entry of *state* equals *expected*'s."""
    for key, want in expected.items():
        got = state.get(key)
        if isinstance(want, np.ndarray):
            if not (isinstance(got, np.ndarray)
                    and np.array_equal(got, want)):
                return False
        elif got != want:
            return False
    return True


def digest(state: dict, keys) -> str:
    h = hashlib.sha256()
    for key in sorted(keys):
        value = state[key]
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def ballast(nbytes: int, seed: int) -> np.ndarray:
    """*nbytes* of seeded random bytes."""
    return np.random.default_rng(seed).integers(0, 256, nbytes,
                                                dtype=np.uint8)


def mutation(i):
    """The byte item *i* XORs into the ballast (ints or int arrays)."""
    return (i * 131 + 7) & 0xFF


def mutate_upto(base: np.ndarray, n: int) -> np.ndarray:
    """*base* after the relay's per-item mutation of items ``0..n-1``."""
    out = base.copy()
    idx = np.arange(n, dtype=np.int64)
    np.bitwise_xor.at(out, idx % out.size, mutation(idx).astype(np.uint8))
    return out


# ---------------------------------------------------------------------------
# migrate-bulk: 2-rank ping-pong, rank 1 carries the bulk state
# ---------------------------------------------------------------------------

def bulk_program(stop, expected: dict, compute_s: float, checked):
    """*checked* counts rank 1's finished start-up checks, so the driver
    can keep the 32 MiB comparison out of the next migration's time."""

    def program(api, state):
        if api.rank == 0:
            rounds = errors = 0
            t_first = time.perf_counter()
            while not stop.value:
                api.send(1, rounds, tag=0)
                if api.recv(src=1, tag=0).body != rounds:
                    errors += 1
                rounds += 1
                api.compute(compute_s)
                api.poll_migration(state)
            t_last = time.perf_counter()
            api.send(1, -1, tag=0)
            return {"rounds": rounds, "errors": errors,
                    "t": (t_first, t_last)}
        state.setdefault("intact", []).append(intact(state, expected))
        checked.value += 1
        errors = state.get("errors", 0)
        while True:
            ping = api.recv(src=0, tag=0).body
            if ping < 0:
                break
            if ping != state.get("i", 0):
                errors += 1
            api.send(0, ping, tag=0)
            state["i"] = ping + 1
            state["errors"] = errors
            api.poll_migration(state)
        return {"intact": state["intact"], "errors": errors,
                "digest": digest(state, expected)}

    return program


# ---------------------------------------------------------------------------
# ring-migrate: 3-rank token ring, ranks 1 and 2 carry small states
# ---------------------------------------------------------------------------

def ring_program(stop, token: bytes, expected: dict):
    def program(api, state):
        me, size = api.rank, api.size
        if me == 0:
            seq = errors = 0
            starts: list[float] = []
            lats: list[float] = []
            t_first = time.perf_counter()
            while not stop.value:
                t0 = time.perf_counter()
                api.send(1, (seq, token), tag=0)
                got_seq, got = api.recv(src=size - 1, tag=0).body
                t1 = time.perf_counter()
                if got_seq != seq or got != token:
                    errors += 1
                starts.append(t0)
                lats.append(t1 - t0)
                seq += 1
                api.poll_migration(state)
            t_last = time.perf_counter()
            api.send(1, (-1, b""), tag=0)
            api.recv(src=size - 1, tag=0)
            return {"rounds": seq, "errors": errors, "starts": starts,
                    "lats": lats, "t": (t_first, t_last)}
        state.setdefault("intact", []).append(
            intact(state, expected[me]))
        right = (me + 1) % size
        errors = state.get("errors", 0)
        while True:
            got_seq, got = api.recv(src=me - 1, tag=0).body
            if got_seq < 0:
                api.send(right, (got_seq, got), tag=0)
                break
            if got_seq != state.get("seq", 0) or got != token:
                errors += 1
            api.send(right, (got_seq, got), tag=0)
            state["seq"] = got_seq + 1
            state["errors"] = errors
            api.poll_migration(state)
        return {"intact": state["intact"], "errors": errors,
                "seq": state.get("seq", 0)}

    return program


# ---------------------------------------------------------------------------
# crash-recover: 3-rank relay with credits, rank 1 carries mutated ballast
# ---------------------------------------------------------------------------

#: items rank 0 may have in flight before it waits for the sink's ack
RELAY_WINDOW = 8


def relay_program(stop, base: np.ndarray):
    def program(api, state):
        me = api.rank
        if me == 0:
            sent = acked = errors = 0
            t_first = time.perf_counter()
            while not stop.value:
                api.send(1, sent, tag=0)
                sent += 1
                while sent - acked > RELAY_WINDOW:
                    if api.recv(src=2, tag=1).body != acked:
                        errors += 1
                    acked += 1
                api.poll_migration(state)
            t_last = time.perf_counter()
            api.send(1, -1 - sent, tag=0)
            while acked < sent:
                if api.recv(src=2, tag=1).body != acked:
                    errors += 1
                acked += 1
            return {"sent": sent, "errors": errors, "t": (t_first, t_last)}
        if me == 1:
            i = state.get("i", 0)
            state.setdefault("intact", []).append(
                bool(np.array_equal(state["ballast"], mutate_upto(base, i))))
            errors = state.get("errors", 0)
            ball = state["ballast"]
            while True:
                item = api.recv(src=0, tag=0).body
                if item < 0:
                    api.send(2, item, tag=0)
                    break
                if item != i:
                    errors += 1
                ball[i % ball.size] ^= mutation(i)
                api.send(2, item, tag=0)
                i += 1
                state["i"] = i
                state["errors"] = errors
                api.poll_migration(state)
            return {"intact": state["intact"], "errors": errors, "i": i,
                    "ballast": array_digest(ball)}
        nxt = state.get("next", 0)
        errors = state.get("errors", 0)
        while True:
            item = api.recv(src=1, tag=0).body
            if item < 0:
                return {"received": nxt, "errors": errors,
                        "announced": -1 - item}
            if item != nxt:
                errors += 1
            nxt = item + 1
            api.send(0, item, tag=1)
            state["next"] = nxt
            state["errors"] = errors
            api.poll_migration(state)

    return program
