"""The four workloads: their CLI calls and the checks on each call's output.

Every check compares the program's output with values computed here or in
``oracle``, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle as o

CHECK_IDS = (
    "prop-J-subset-Nil", "thm-quotient-image", "thm-finite-product",
    "prop-nilradical-quotient", "thm-idealization", "thm-zn-classification",
    "lem-weakstar-annihilators", "thm-weakstar-corner", "prop-01-unique-maximal",
    "thm-s-rigidity", "thm-weakstar-exchange", "thm-strongly-nil-clean-iff",
    "cor-strongly-pi-regular", "thm-weak-jclean-bundle",
)

# Commutative rings of order 128-180 from vectorised constructors; three of
# the four are weak nil clean.  Ideal lattices and the O(n^3) axiom scan
# dominate; builds are cheap.
MID_CORPUS = ("Z(128)", "Z(144)", "idealize(Z(12),self)", "prod(Z(4),Z(9),Z(5))")

# One ring of order 256-625 from each loop-built constructor.  Builds dominate.
LARGE_RINGS: dict[str, Callable[[], o.Ring]] = {
    "M2(Z(4))": lambda: o.mat(2, o.zn(4)),
    "T2(Z(7))": lambda: o.tri(2, o.zn(7)),
    "eqdiag3(Z(4))": lambda: o.eqdiag(3, o.zn(4)),
    "idealize(Z(25),self)": lambda: o.idealize_self(o.zn(25)),
    "skew(prod(Z(2),Z(2)),swap(1,2),4)": lambda: o.skew(
        o.prod(o.zn(2), o.zn(2)), o.swap_factors([o.zn(2), o.zn(2)], 1, 2), 4,
        "skew(prod(Z(2),Z(2)),swap(1,2),4)"),
    # build_idealize uses the left action on both sides, so this table is not
    # the documented trivial extension: the call fails the table comparison
    # on every run until that is fixed.
    "idealize(T2(Z(2)),self)": lambda: o.idealize_self(o.tri(2, o.zn(2))),
}

SWEEP_KINDS = ("clean", "nil-clean", "j-clean", "weak-nil-clean", "weak-j-clean")
SWEEP_MAX = 400

# Table entries compared per classify call; a ring with at most this many
# entries is compared in full, so the comparison does not depend on the seed.
SAMPLE_PAIRS = 4096


class Outcome:
    OK = "ok"
    FAILED = "failed"  # the call did not complete, or built another ring
    WRONG = "wrong"  # the call completed and its output is wrong


@dataclass
class Op:
    """One CLI call: its arguments, the rings it carries and its output check."""

    name: str
    argv: list[str]
    rings: int
    check: Callable[[dict], tuple[str, Optional[str]]]
    sample: Optional[list[tuple[int, int]]] = None


def _completed(result: dict) -> Optional[str]:
    if result.get("exit") != 0:
        return f"exit {result.get('exit')}: {result.get('stderr', '')[-300:]}"
    return None


def default_corpus_labels() -> list[str]:
    """The documented default corpus; corners run over every idempotent."""
    labels = [f"Z({n})" for n in range(2, 37)]
    labels += ["M2(Z(2))", "M2(Z(3))", "T2(Z(2))", "T2(Z(3))", "eqdiag2(Z(2))", "eqdiag2(Z(6))"]
    labels += ["prod(Z(4),Z(9))", "prod(Z(9),Z(9))", "prod(Z(2),Z(3),Z(3))"]
    labels += ["idealize(Z(6),self)", "idealize(Z(5),self)", "idealize(Z(6),Z(3))"]
    for q in (2, 3):
        labels += [f"corner(M2(Z({q})),{e})" for e in o.mat(2, o.zn(q)).idempotents]
    labels += ["quot(Z(36),[6])", "skew(Z(6),id,2)", "skew(prod(Z(3),Z(3)),swap(1,2),2)"]
    return labels


def _verify_check(labels: list[str]) -> Callable:
    expected = sorted((label, cid) for label in labels for cid in CHECK_IDS)
    predicted = {label: o.predicted_applicability(label) for label in labels}

    def check(result: dict):
        problem = _completed(result)
        if problem:
            return Outcome.FAILED, problem
        cells = json.loads(result["stdout"])
        if [(c["ring"], c["check_id"]) for c in cells] != expected:
            return Outcome.WRONG, f"{len(cells)} cells, expected {len(expected)} in (ring, check) order"
        for cell in cells:
            if cell["outcome"] not in ("pass", "not-applicable"):
                return Outcome.WRONG, f"cell {cell}"
            want = predicted[cell["ring"]].get(cell["check_id"])
            if want is not None and want != (cell["outcome"] == "pass"):
                return Outcome.WRONG, f"applicability of {cell}, predicted {want}"
        return Outcome.OK, None
    return check


def _sweep_check(result: dict):
    problem = _completed(result)
    if problem:
        return Outcome.FAILED, problem
    lines = [",".join(("n",) + SWEEP_KINDS)]
    for n in range(2, SWEEP_MAX + 1):
        verdicts = o.zn_verdicts(n)
        lines.append(",".join([str(n)] + ["true" if verdicts[k] else "false" for k in SWEEP_KINDS]))
    if result["stdout"] != "\n".join(lines) + "\n":
        got = result["stdout"].splitlines()
        bad = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), len(got))
        return Outcome.WRONG, f"sweep line {bad}: {got[bad:bad + 1]} != {lines[bad:bad + 1]}"
    return Outcome.OK, None


def _classify_check(ring: o.Ring, sample: list[tuple[int, int]]) -> Callable:
    def check(result: dict):
        problem = _completed(result)
        if problem:
            return Outcome.FAILED, problem
        if result.get("order") != ring.order:
            return Outcome.FAILED, f"built order {result.get('order')}, expected {ring.order}"
        for (a, b), got in zip(sample, result["sample"]):
            want = [int(ring.add[a, b]), int(ring.mul[a, b])]
            if got != want:
                return Outcome.FAILED, f"(add, mul) at ({a}, {b}) is {got}, expected {want}"
        entries = json.loads(result["stdout"])
        if len(entries) != len(o.ALL_KINDS):
            return Outcome.WRONG, f"{len(entries)} verdicts"
        for kind, entry in zip(o.ALL_KINDS, entries):
            problem = o.check_classify_entry(ring, kind, entry)
            if problem:
                return Outcome.WRONG, f"{ring.label} {problem}"
        return Outcome.OK, None
    return check


def _table_sample(order: int, seed: int, label: str) -> list[tuple[int, int]]:
    if order * order <= SAMPLE_PAIRS:
        return [(a, b) for a in range(order) for b in range(order)]
    rng = random.Random(f"{seed}/{label}")
    return [(rng.randrange(order), rng.randrange(order)) for _ in range(SAMPLE_PAIRS)]


def make_ops(workload: str, seed: int, out_dir: str) -> list[Op]:
    """The calls of one round of ``workload``; ``seed`` draws the table sample."""
    if workload == "verify-default":
        argv = ["verify", "--corpus", "default", "--checks", "all", "--format", "json"]
        labels = default_corpus_labels()
        return [Op("verify default", argv, len(labels), _verify_check(labels))]
    if workload == "verify-mid":
        path = os.path.join(out_dir, "mid_corpus.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(MID_CORPUS) + "\n")
        argv = ["verify", "--corpus", path, "--checks", "all", "--format", "json"]
        return [Op("verify mid", argv, len(MID_CORPUS), _verify_check(list(MID_CORPUS)))]
    if workload == "classify-large":
        ops = []
        for label, make in LARGE_RINGS.items():
            ring = make()
            sample = _table_sample(ring.order, seed, label)
            argv = ["classify", "--ring", label, "--kinds", ",".join(o.ALL_KINDS),
                    "--format", "json"]
            ops.append(Op(f"classify {label}", argv, 1, _classify_check(ring, sample), sample))
        return ops
    if workload == "sweep-zn":
        argv = ["sweep", "--zn", f"2..{SWEEP_MAX}", "--kinds", ",".join(SWEEP_KINDS),
                "--format", "csv"]
        return [Op("sweep", argv, SWEEP_MAX - 1, _sweep_check)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-default", "verify-mid", "classify-large", "sweep-zn")
