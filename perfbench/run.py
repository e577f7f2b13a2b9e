#!/usr/bin/env python3
"""The repository benchmark: four workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring-migrate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with observability off and
prints them, each workload's own named figures, the failure count and
the run context. ``--trace 1`` runs the same workload twice -- untraced,
then with ``ObsConfig`` spans and counters on plus the benchmark's own
timers -- and prints the per-layer ledger and the tracing overhead on
every end-to-end metric. The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, metrics and which layer metric feeds which end-to-end metric
are listed in ``perfbench/spec.json``. The program under test is the
``repro`` package in ``src/``; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-mg", "migrate-bulk", "ring-migrate", "crash-recover")


def _spec() -> dict:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program() -> None:
    """Put ``src/`` first on the path; fail loudly when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program under {src}; run from a "
                         f"checkout of the repository")
    sys.path[:0] = [src, HERE]
    import repro  # noqa: F401  (fail here, before any output)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_pass(workload: str, seed: int, seconds: float, scratch,
             traced: bool = False, corrupt: bool = False):
    """One measured pass; returns ``(Outcome, per-layer dict)``."""
    import ledger
    import mp_workloads
    import sim_mg
    from repro.codec import MIPS32, NATIVE

    token = random.Random(seed).randbytes(4096)
    if workload == "sim-mg":
        probe = ledger.SimProbe() if traced else None
        try:
            out = sim_mg.run(seed, seconds, probe=probe, corrupt=corrupt)
        finally:
            if probe is not None:
                probe.close()
        if not traced:
            return out, {}
        layers = probe.layers()
        if probe.per_run:
            layers.update(ledger.replays(
                sim_mg.migrating_state(probe.per_run[-1]), MIPS32, token))
        return out, layers
    fn = {"migrate-bulk": mp_workloads.migrate_bulk,
          "ring-migrate": mp_workloads.ring_migrate,
          "crash-recover": mp_workloads.crash_recover}[workload]
    out, extra = fn(seed, seconds, scratch, traced=traced, corrupt=corrupt)
    if not traced:
        return out, {}
    work = max(1, extra["work"])
    if workload == "crash-recover":
        layers = ledger.recovery_layers(extra["cluster"], extra["kills"],
                                        extra["report"], work)
    else:
        layers = ledger.migration_layers(extra["cluster"], extra["spans"],
                                         extra["windows"], work)
    # the cluster has terminated: replays cannot inflate its fork cost
    layers.update(ledger.replays(extra["state"], NATIVE,
                                 extra.get("token", token)))
    return out, layers


def _print_outcome(out, title: str) -> None:
    print(f"== {out.workload}: {title}")
    print(f"   {'metric':<22} {'value':>14}  {'unit':<6} samples")
    fail_ratio = out.failed / out.attempted if out.attempted else 1.0
    rows = list(out.named.items()) + [
        ("fail_ratio", (fail_ratio, "ratio",
                        f"{out.failed}/{out.attempted}"))]
    for name, (value, unit, samples) in rows:
        print(f"   {name:<22} {_fmt(value):>14}  {unit:<6} "
              f"{'' if samples is None else samples}")
    for note in out.notes:
        print(f"   ({note})")
    for what in out.failures:
        print(f"   FAILED: {what}")


def _contract_metrics(values: dict, spec_metrics: dict) -> dict:
    """Every contract metric by name; a value that could not be measured
    (a failed run) reads 0 -- the run is then reported incorrect."""
    out = {}
    for name, meta in spec_metrics.items():
        value = values.get(name, 0.0)
        out[name] = {"value": value if math.isfinite(value) else 0.0,
                     "unit": meta["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="short run of every workload plus oracle checks")
    args = ap.parse_args(argv)
    _import_program()
    if args.self_test:
        import selftest
        return selftest.main(ROOT, _spec())
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import common

    spec = _spec()
    sys.stdout.flush()
    scratch = common.Scratch(ROOT)
    try:
        base, _ = run_pass(workload, seed, seconds, scratch)
        outs = [base]
        layers: dict = {}
        if traced:
            out_t, layers = run_pass(workload, seed, seconds, scratch,
                                     traced=True)
            outs.append(out_t)
            for name, value in base.e2e.items():
                traced_value = out_t.e2e.get(name, math.nan)
                if not (value > 0 and traced_value > 0):
                    continue  # a failed pass; already counted
                ratio = traced_value / value
                if spec["end_to_end"][name]["better"] == "higher":
                    ratio = 1 / ratio
                layers[f"overhead.{name}"] = ratio - 1
    finally:
        scratch.close()
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)}")
    for line in common.context_lines(base.state_bytes):
        print(f"   {line}")
    print(f"   why: {spec['workloads'][workload]['why']}")
    _print_outcome(base, "end to end, observability off")
    if traced:
        _print_outcome(outs[1], "end to end, traced")
        print(f"== {workload}: per-layer ledger (traced pass)")
        for name, meta in spec["per_layer"].items():
            mark = "" if name in layers else "   (layer not exercised)"
            print(f"   {name:<28} {_fmt(layers.get(name, 0.0)):>14}  "
                  f"{meta['unit']}{mark}")
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    metrics = (_contract_metrics(layers, spec["per_layer"]) if traced
               else _contract_metrics(base.e2e, spec["end_to_end"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
