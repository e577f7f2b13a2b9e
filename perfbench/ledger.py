"""Per-layer figures for the traced pass.

Three sources, all outside ``src/``:

* the program's own observability -- ``ObsConfig`` phase spans,
  ``migration_window`` events and the ``mp.*`` / ``recovery.*`` /
  ``sup.*`` counters of an :class:`~repro.runtime.MPCluster` run;
* wrappers installed from this file around the simulator kernel's step
  and the MG operators (:class:`SimProbe`);
* replays of public layer calls on the workload's exact inputs, run
  after the cluster has terminated: ``encode_parts``/``decode``,
  ``ChunkSource``/``ChunkAssembler``, ``send_frame_fast``/``FrameReader``
  over a socketpair and ``CheckpointStore.save_blob``/``load_blob``.
  Every workload replays every one of these layers, also those it does
  not run itself (``spec.json`` says which figures each one should and
  should not move).

Every figure is a median over operations unless its unit says otherwise.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import threading
import time
from collections import defaultdict

from repro.codec import decode, encode_parts
from repro.core.checkpointing import CheckpointStore
from repro.core.streaming import DEFAULT_CHUNK_BYTES, ChunkAssembler, ChunkSource
from repro.runtime.framing import FrameReader, send_frame_fast
from repro.sim.kernel import Kernel

from common import p50

#: replays repeat until they have moved at least this many bytes
REPLAY_MIN_BYTES = 48 << 20
REPLAY_MIN_REPS = 3
ROUNDTRIPS = 2000


# ---------------------------------------------------------------------------
# simulator probes
# ---------------------------------------------------------------------------

class SimProbe:
    """Times the kernel's thread steps and the MG operators per run."""

    def __init__(self):
        import repro.apps.mg.spmd as spmd

        self._spmd = spmd
        self._saved = {"_step": Kernel._step, "run": Kernel.run}
        self._ops = ("apply_27", "prolong", "restrict", "smooth")
        self._saved_ops = {name: getattr(spmd, name) for name in self._ops}
        self.per_run: list[dict] = []
        self._cur = None
        probe = self
        step, krun = Kernel._step, Kernel.run

        def timed_step(kernel, th):
            t0 = time.perf_counter()
            step(kernel, th)
            probe._cur["step_s"] += time.perf_counter() - t0
            probe._cur["steps"] += 1

        def timed_run(kernel, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return krun(kernel, *args, **kwargs)
            finally:
                probe._cur["run_s"] += time.perf_counter() - t0

        def wrap(fn):
            def timed_op(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._cur["ops_s"] += time.perf_counter() - t0
            return timed_op

        Kernel._step = timed_step
        Kernel.run = timed_run
        for name, fn in self._saved_ops.items():
            setattr(spmd, name, wrap(fn))

    def begin_run(self) -> None:
        self._cur = {"steps": 0, "step_s": 0.0, "run_s": 0.0, "ops_s": 0.0}

    def end_run(self, results, breakdown, mg_seed: int) -> None:
        self._cur.update(bd=breakdown, state=results[0], seed=mg_seed)
        self.per_run.append(self._cur)

    def close(self) -> None:
        Kernel._step = self._saved["_step"]
        Kernel.run = self._saved["run"]
        for name, fn in self._saved_ops.items():
            setattr(self._spmd, name, fn)

    def layers(self) -> dict[str, float]:
        runs = self.per_run
        if not runs:
            return {}
        bd = runs[-1]["bd"]
        return {
            "sim.kernel.steps": p50([r["steps"] for r in runs]),
            "sim.kernel.self_s": p50([r["run_s"] - r["step_s"]
                                      for r in runs]),
            "sim.kernel.step_us": p50([r["step_s"] / r["steps"] * 1e6
                                       for r in runs]),
            "mg.operators_s": p50([r["ops_s"] for r in runs]),
            "sim.phase.coordinate_vs": bd.coordinate,
            "sim.phase.collect_vs": bd.collect,
            "sim.phase.tx_vs": bd.tx,
            "sim.phase.restore_vs": bd.restore,
        }


# ---------------------------------------------------------------------------
# mp runtime: spans, windows and counters
# ---------------------------------------------------------------------------

def _spans_by_trace(events: list[dict]) -> dict[str, dict[str, tuple]]:
    """trace id -> phase -> (start, end) from ``span_end`` records."""
    out: dict[str, dict[str, tuple]] = defaultdict(dict)
    for ev in events:
        if ev["kind"] == "span_end" and ev.get("trace_id"):
            out[ev["trace_id"]][ev["phase"]] = (ev["ts"] - ev["seconds"],
                                                ev["ts"])
    return out


def _covered(intervals: list[tuple], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _counters(cluster) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    scan_total = scan_count = 0
    for rec in cluster.metrics_snapshot():
        if rec["type"] == "histogram":
            if rec["name"] == "mp.recvlist_scan":
                scan_total += rec["total"]
                scan_count += rec["count"]
        elif rec["type"] == "counter":
            totals[rec["name"]] += rec["value"]
    totals["_scan_mean"] = scan_total / scan_count if scan_count else 0.0
    return totals


def _per_op(c: dict, ops: int, work: float) -> dict[str, float]:
    """Counters per migration or recovery, and per unit of work."""
    n = max(1, ops)
    return {
        "mp.lookups": c["mp.lookups"] / n,
        "mp.connects": c["mp.connects"] / n,
        "mp.connect_retries": c["mp.connect_retries"] / n,
        "mp.frames_out": c["mp.frames_out"] / work,
        "mp.link_flushes": c["mp.link_flushes"] / work,
        "mp.frames_per_flush": (c["mp.frames_out"] / c["mp.link_flushes"]
                                if c["mp.link_flushes"] else 0.0),
        "mp.bytes_out": c["mp.bytes_out"] / work,
        "mp.recvlist_scan": c["_scan_mean"],
        "recovery.checkpoints": c["recovery.checkpoints"] / work,
    }


def migration_layers(cluster, spans: list[tuple], windows: list[dict],
                     work: float) -> dict[str, float]:
    """Ledger of timed migrations: launch + phases + unaccounted."""
    traces = _spans_by_trace(cluster.obs_events())
    rows = defaultdict(list)
    for (t_call, t_commit), win in zip(spans, windows):
        phases = dict(traces.get(win.get("trace_id"), {}))
        if "restore" in phases and "transfer" in phases:
            # the destination opens its restore span when it is spawned;
            # only the part after the last state byte left is restore work
            a, b = phases["restore"]
            phases["restore"] = (max(a, phases["transfer"][1]), b)
        rows["mp.window_s"].append(win["seconds"])
        rows["mp.launch_s"].append(t_commit - t_call - win["seconds"])
        for name, (a, b) in phases.items():
            rows[f"mp.phase.{name}_s"].append(b - a)
        ledger = [span for name, span in phases.items() if name != "reject"]
        lo = win["t0"]
        rows["mp.unaccounted_s"].append(
            win["seconds"] - _covered(ledger, lo, lo + win["seconds"]))
    out = {k: p50(v) for k, v in rows.items()}
    out.update(_per_op(_counters(cluster), len(spans), work))
    return out


def recovery_layers(cluster, kills: list[tuple], report: dict,
                    work: float) -> dict[str, float]:
    """Ledger of timed recoveries: detect + restart + unaccounted."""
    events = cluster.obs_events()
    starts = sorted(ev["ts"] for ev in events
                    if ev["kind"] == "span_start"
                    and ev.get("phase") == "recover")
    traces = _spans_by_trace(events)
    rec_traces = [t for tid, t in traces.items() if tid.startswith("rec-")]
    detect, unacc = [], []
    restarts = [e["seconds"] for e in report["events"]]
    for (wall, t_kill, t_commit), start, rank_s in zip(kills, starts,
                                                       restarts):
        detect.append(start - wall)
        unacc.append((t_commit - t_kill) - (start - wall) - rank_s)
    out = {
        "recovery.detect_s": p50(detect) if detect else 0.0,
        "recovery.rank_s": p50(restarts) if restarts else 0.0,
        "mp.unaccounted_s": p50(unacc) if unacc else 0.0,
    }
    for name in ("restore", "commit"):
        vals = [t[name][1] - t[name][0] for t in rec_traces if name in t]
        if vals:
            out[f"mp.phase.{name}_s"] = p50(vals)
    c = _counters(cluster)
    n = max(1, len(kills))
    out.update({
        "recovery.replayed_msgs": c["recovery.replayed_msgs"] / n,
        "recovery.dups_dropped": c["recovery.dups_dropped"] / n,
        "recovery.dup_ratio": (c["recovery.dups_dropped"]
                               / c["recovery.replayed_msgs"]
                               if c["recovery.replayed_msgs"] else 0.0),
        "sup.restarts": c["sup.restarts"],
    })
    out.update(_per_op(c, len(kills), work))
    return out


# ---------------------------------------------------------------------------
# replays of public layer calls
# ---------------------------------------------------------------------------

def _reps(nbytes: int, cap: int = 200) -> int:
    return min(cap, max(REPLAY_MIN_REPS,
                        -(-REPLAY_MIN_BYTES // max(1, nbytes))))


def replay_codec(state, arch) -> tuple[dict, bytes]:
    blob = b"".join(encode_parts(state, arch))  # untimed warm-up
    enc, dec = [], []
    for _ in range(_reps(len(blob))):
        t0 = time.perf_counter()
        parts = encode_parts(state, arch)
        t1 = time.perf_counter()
        blob = b"".join(parts)
        t2 = time.perf_counter()
        decode(blob)
        t3 = time.perf_counter()
        enc.append(t1 - t0)
        dec.append(t3 - t2)
    mb = len(blob) / 1e6
    return {
        "codec.encode_s": p50(enc),
        "codec.decode_s": p50(dec),
        "codec.encode_mb_s": mb / p50(enc),
        "codec.decode_mb_s": mb / p50(dec),
        "codec.bytes": len(blob),
    }, blob


def replay_streaming(state, arch, nbytes: int) -> dict:
    times, nchunks = [], 0
    for _ in range(_reps(nbytes)):
        t0 = time.perf_counter()
        source = ChunkSource(state, arch, DEFAULT_CHUNK_BYTES)
        sink = ChunkAssembler()
        while not source.exhausted:
            sink.add(source.next_chunk())
        sink.assemble()
        times.append(time.perf_counter() - t0)
        nchunks = source.nchunks
    return {"streaming.chunks": nchunks,
            "streaming.chunk_s": p50(times) / nchunks}


def _echo(sock: socket.socket) -> None:
    reader = FrameReader(sock)
    try:
        while True:
            frame = reader.read_frame()
            if frame is None:
                return
            send_frame_fast(sock, frame)
    except Exception:  # peer closed: the replay is over
        return


def replay_framing(token: bytes, blob: bytes) -> dict:
    a, b = socket.socketpair()
    echo = threading.Thread(target=_echo, args=(b,), daemon=True)
    echo.start()
    reader = FrameReader(a)
    rtts = []
    try:
        for seq in range(ROUNDTRIPS):
            frame = ("data", 0, 0, (seq, token))
            t0 = time.perf_counter()
            send_frame_fast(a, frame)
            got = reader.read_frame()
            rtts.append(time.perf_counter() - t0)
            if got != frame:
                raise AssertionError("framing replay: echo differs")
        send_frame_fast(a, None)
        echo.join(5.0)
    finally:
        a.close()
        b.close()
    # one-way state stream in chunk-sized frames
    a, b = socket.socketpair()
    got: list[int] = []

    def drain() -> None:
        rd = FrameReader(b)
        while True:
            frame = rd.read_frame()
            got.append(len(frame[2]))
            if frame[3]:
                return

    view = memoryview(blob)
    size = DEFAULT_CHUNK_BYTES
    reps = _reps(len(blob))
    times = []
    try:
        for _ in range(reps):
            got.clear()
            t = threading.Thread(target=drain, daemon=True)
            t0 = time.perf_counter()
            t.start()
            for seq, off in enumerate(range(0, len(blob), size)):
                last = off + size >= len(blob)
                send_frame_fast(a, ("state_chunk", seq,
                                    bytes(view[off:off + size]), last,
                                    len(blob), None))
            t.join(30.0)
            times.append(time.perf_counter() - t0)
            if sum(got) != len(blob):
                raise AssertionError("framing replay: stream truncated")
    finally:
        view.release()
        a.close()
        b.close()
    return {"framing.roundtrip_us.4k": p50(rtts) * 1e6,
            "framing.chunk_mb_s": len(blob) / 1e6 / p50(times)}


def replay_checkpointing(blob: bytes) -> dict:
    save, load = [], []
    for v in range(1, _reps(len(blob), cap=20) + 1):
        root = tempfile.mkdtemp(prefix="perfbench-ckpt-")
        try:
            store = CheckpointStore(os.path.join(root, "ckpt"))
            t0 = time.perf_counter()
            store.save_blob(0, v, blob)
            t1 = time.perf_counter()
            back = store.load_blob(0, v)
            load.append(time.perf_counter() - t1)
            save.append(t1 - t0)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if back != blob:
            raise AssertionError("checkpoint replay: blob differs")
    return {"checkpointing.save_s": p50(save),
            "checkpointing.load_s": p50(load)}


def replays(state, arch, token: bytes) -> dict:
    """Every layer replay on one workload's state and message payload."""
    out, blob = replay_codec(state, arch)
    out.update(replay_streaming(state, arch, len(blob)))
    out.update(replay_framing(token, blob))
    out.update(replay_checkpointing(blob))
    return out
