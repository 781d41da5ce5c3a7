"""Benchmark of the ``wnc`` CLI: verify, classify and sweep.

Usage (from the repository root):

    python3 bench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

One closed-loop client runs whole rounds of the workload's CLI calls, one at
a time, until ``--seconds`` have passed.  Each call runs ``wnc.cli.main`` in
a fresh interpreter, as a user's call does.  Outputs are checked after the
clock stops.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` every call runs three times (with
layer spans, plain, and with tracemalloc around builds) and the object holds
the per-layer metrics.  Full results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from workloads import Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join("bench", "out")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170  # every call is stopped by then, so a run ends within 180 s

END_TO_END = {"setup_s": "s", "rings_per_s": "rings/s", "peak_rss_mb": "MB"}

SPAN_METRICS = {
    "construct.parse_s": ["construct.parse"],
    "construct.build_s": [f"construct.build.{c}" for c in (
        "zn", "prod", "mat", "tri", "eqdiag", "idealize", "corner", "quot", "skew")],
    **{f"construct.build.{c}_s": [f"construct.build.{c}"] for c in (
        "zn", "prod", "mat", "tri", "eqdiag", "idealize", "corner", "quot", "skew")},
    "construct.quotient_s": ["construct.quotient"],
    "construct.corner_s": ["construct.corner"],
    "table.axioms_s": ["table.axioms"],
    "structure.structure_s": ["structure.structure"],
    "structure.all_ideals_s": ["structure.all_ideals"],
    "structure.subset_s": ["structure.subset"],
    "structure.ideal_generated_by_s": ["structure.ideal_generated_by"],
    "decomp.ring_verdict_s": ["decomp.ring_verdict"],
    "decomp.exchange_s": ["decomp.exchange"],
    "decomp.pi_regular_s": ["decomp.pi_regular"],
    "decomp.lift_s": ["decomp.lift"],
    **{f"theorems.check.{cid}_s": [f"theorems.check.{cid}"] for cid in workloads.CHECK_IDS},
    "theorems.applicable_s": ["theorems.applicable"],
    "theorems.default_corpus_s": ["theorems.default_corpus"],
    "theorems.runner_self_s": ["theorems.runner"],
    "cli.main_self_s": ["cli.main"],
}
COUNT_METRICS = {
    "construct.build_calls": "build_calls",
    "table.axioms_calls": "axioms_calls",
    "structure.structure_calls": "structure_calls",
    "structure.subset_calls": "subset_calls",
    "structure.ideals_found": "ideals_found",
    "decomp.ring_verdict_calls": "ring_verdict_calls",
    "decomp.s_verdict_calls": "s_verdict_calls",
    "decomp.elements_decided": "elements_decided",
    "theorems.cells": "cells",
}
RATIO_METRICS = {
    "structure.structure_hit_ratio": ("structure_hits", "structure_calls"),
    "decomp.verdict_hit_ratio": ("verdict_hits", "ring_verdict_calls"),
}
LAYERS = ("construct", "table", "structure", "decomp", "theorems", "cli")


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    units.update({"construct.build_peak_mb": "MB", "trace.overhead_s": "s"})
    return units


class Runner:
    """Runs calls in fresh interpreters and checks their outputs."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: list[str] = []
        self._checked: dict = {}
        # every call runs under the default element budget
        self._env = {k: v for k, v in os.environ.items() if k != "WNC_SIZE_BUDGET"}

    def call(self, op: workloads.Op, mode: str) -> dict:
        spec = json.dumps({"argv": op.argv, "mode": mode, "sample": op.sample})
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        spawned = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, WORKER], input=spec, capture_output=True,
                                  text=True, timeout=limit, env=self._env)
            result = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            result = {"exit": None, "stderr": f"worker: {exc!r}"}
        else:
            result["setup_s"] = result["ready"] - spawned
        self._judge(op, result)
        return result

    def _judge(self, op: workloads.Op, result: dict) -> None:
        self.attempted += 1
        key = (op.name, result.get("exit"), result.get("stdout"), json.dumps(result.get("sample")))
        if key not in self._checked:
            self._checked[key] = op.check(result)
        status, message = self._checked[key]
        result["ok"] = status == Outcome.OK
        if status == Outcome.FAILED:
            self.failed += 1
            self.failures.append(f"{op.name}: {message}")
        elif status == Outcome.WRONG:
            self.wrong.append(f"{op.name}: {message}")


def _round_rate(ops: list[workloads.Op], results: list[dict]) -> float | None:
    done = [(op, r) for op, r in zip(ops, results) if r["ok"]]
    busy = sum(r["main_s"] for _, r in done)
    return sum(op.rings for op, _ in done) / busy if busy else None


def timed_rounds(runner: Runner, ops: list[workloads.Op], seconds: float) -> dict:
    rates, peaks, setups = [], [], []
    start = time.perf_counter()
    while True:
        results = [runner.call(op, "plain") for op in ops]
        rate = _round_rate(ops, results)
        if rate is not None:
            rates.append(rate)
        peaks.append(max(r.get("peak_rss_kb", 0) for r in results) / 1024)
        setups += [r["setup_s"] for r in results if "setup_s" in r]
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "rings_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": statistics.median(peaks),
    }
    detail = {"rounds": len(peaks), "rings_per_s": rates, "peak_rss_mb": peaks,
              "setup_s": setups}
    return {"metrics": metrics, "units": END_TO_END, "detail": detail}


def _layer_round(traced: list[dict], plain: list[dict], memory: list[dict]) -> dict:
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for r in traced:
        for name, value in r.get("self_s", {}).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in r.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    values = {m: sum(self_s.get(s, 0.0) for s in spans) for m, spans in SPAN_METRICS.items()}
    values.update({m: counts.get(c, 0) for m, c in COUNT_METRICS.items()})
    values.update({m: counts.get(h, 0) / counts[c] if counts.get(c) else 0.0
                   for m, (h, c) in RATIO_METRICS.items()})
    values["construct.build_peak_mb"] = max(
        r.get("build_peak_bytes", 0) for r in memory) / 2**20
    values["trace.overhead_s"] = (sum(r.get("main_s", 0.0) for r in traced)
                                  - sum(r.get("main_s", 0.0) for r in plain))
    total = sum(self_s.values())
    shares = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / total
              for layer in LAYERS} if total else {}
    return {"values": values, "layer_share": shares, "traced_s": total,
            "plain_s": sum(r.get("main_s", 0.0) for r in plain)}


def traced_rounds(runner: Runner, ops: list[workloads.Op], seconds: float) -> dict:
    rounds = []
    start = time.perf_counter()
    while True:
        traced = [runner.call(op, "trace") for op in ops]
        plain = [runner.call(op, "plain") for op in ops]
        memory = [runner.call(op, "memory") for op in ops]
        rounds.append(_layer_round(traced, plain, memory))
        if time.perf_counter() - start >= seconds:
            break
    units = per_layer_units()
    # median_low reports an observed round, so counts stay whole numbers
    metrics = {m: statistics.median_low(r["values"][m] for r in rounds) for m in units}
    shares = {layer: statistics.median(r["layer_share"].get(layer, 0.0) for r in rounds)
              for layer in LAYERS}
    return {"metrics": metrics, "units": units, "detail": {"rounds": rounds, "layer_share": shares}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "wnc", "cli.py")):
        sys.stderr.write("bench: src/wnc is missing; run from a wnc source checkout\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = workloads.make_ops(args.workload, args.seed, OUT_DIR)
    runner = Runner(started)
    measure = traced_rounds if args.trace else timed_rounds
    outcome = measure(runner, ops, args.seconds)
    for line in runner.failures[:3] + runner.wrong[:10]:
        sys.stderr.write(f"bench: {line}\n")
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": outcome["units"][name]}
                    for name, value in outcome["metrics"].items()},
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": outcome["detail"], "wrong": runner.wrong,
                   "failures": runner.failures}, fh, indent=1)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
