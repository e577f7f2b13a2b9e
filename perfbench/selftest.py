"""``run.py --self-test``: is the benchmark itself sound?

* ``BENCHMARK.json`` and ``spec.json`` name the same workloads and
  metrics, with the same units and directions;
* a short traced pass of every workload passes its oracles, emits every
  end-to-end metric as a finite, non-zero number and fills the per-layer
  metrics of the layers that workload exercises;
* a pass on deliberately corrupted expectations (a flipped byte or a
  perturbed reference) is counted as failed by every workload's oracle.
"""

from __future__ import annotations

import json
import math
import os

import common
from run import WORKLOADS, run_pass

SECONDS = 1.0
#: per-layer metrics each workload must fill (the rest may read 0)
EXERCISED = {
    "sim-mg": ("sim.kernel.", "mg.operators_s", "sim.phase.", "codec."),
    "migrate-bulk": ("codec.", "streaming.", "framing.", "mp.window_s",
                     "mp.launch_s", "mp.phase.transfer_s",
                     "mp.unaccounted_s", "mp.frames_out"),
    "ring-migrate": ("mp.phase.drain_s", "mp.lookups", "mp.connects",
                     "mp.frames_out", "mp.recvlist_scan", "framing."),
    "crash-recover": ("checkpointing.", "recovery.detect_s",
                      "recovery.rank_s", "recovery.checkpoints",
                      "sup.restarts"),
}


def _check_contract(root: str, spec: dict) -> list[str]:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return [f"{path} is missing"]
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for section in ("end_to_end", "per_layer"):
        ours = {n: (m["unit"], m["better"])
                for n, m in spec[section].items()}
        theirs = {m["name"]: (m["unit"], m["better"])
                  for m in bench[section]}
        if ours != theirs:
            diff = sorted(set(ours.items()) ^ set(theirs.items()))
            problems.append(f"{section} differs from spec.json: {diff}")
    return problems


def _check_pass(workload: str, spec: dict, scratch) -> list[str]:
    out, layers = run_pass(workload, 1, SECONDS, scratch, traced=True)
    problems = [f"oracle: {f}" for f in out.failures]
    if out.attempted < 1:
        problems.append("no operation attempted")
    for name in spec["end_to_end"]:
        value = out.e2e.get(name)
        if value is None or not math.isfinite(value) or value <= 0:
            problems.append(f"end-to-end {name} = {value!r}")
    for name, (value, unit, _) in out.named.items():
        if not unit:
            problems.append(f"{name} has no unit")
    unknown = set(layers) - set(spec["per_layer"])
    if unknown:
        problems.append(f"per-layer names not in spec: {sorted(unknown)}")
    for prefix in EXERCISED[workload]:
        hits = [n for n in spec["per_layer"] if n.startswith(prefix)]
        for name in hits:
            if not layers.get(name):
                problems.append(f"per-layer {name} not measured")
    return problems


def main(root: str, spec: dict) -> int:
    problems = [f"contract: {p}" for p in _check_contract(root, spec)]
    scratch = common.Scratch(root)
    try:
        for workload in WORKLOADS:
            found = _check_pass(workload, spec, scratch)
            print(f"{'ok  ' if not found else 'FAIL'} {workload}: metrics "
                  f"and oracles", flush=True)
            problems += [f"{workload}: {p}" for p in found]
            corrupted, _ = run_pass(workload, 1, SECONDS, scratch,
                                    corrupt=True)
            caught = corrupted.failed > 0
            print(f"{'ok  ' if caught else 'FAIL'} {workload}: corrupted "
                  f"input counted as {corrupted.failed} failed "
                  f"operation(s)", flush=True)
            if not caught:
                problems.append(f"{workload}: corrupted input not caught")
    finally:
        scratch.close()
    for p in problems:
        print(f"  problem: {p}")
    print("self-test", "passed" if not problems else "FAILED")
    return 0 if not problems else 1
