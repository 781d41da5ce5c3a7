"""Tests of the benchmark's own oracle.  Run with ``python -m pytest bench``."""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle as o  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wnc.construct import build_text  # noqa: E402

FAULTY = "idealize(T2(Z(2)),self)"


def _missing(ring, kind):
    certs = o.canonical_certs(ring, kind)
    return [x for x in range(ring.order) if x not in certs]


def test_z6_golden_values():
    z6 = o.zn(6)
    assert z6.idempotents == (0, 1, 3, 4)
    assert o.canonical_certs(z6, "weak-nil-clean")[2] == {
        "x": 2, "e": 4, "companion": 0, "sign": "-", "commutes": True}
    assert _missing(z6, "weak-nil-clean") == []
    assert _missing(z6, "nil-clean")[0] == 2


def test_certificate_checker():
    z6 = o.zn(6)
    good = {"x": 2, "e": 4, "companion": 0, "sign": "-", "commutes": True}
    assert o.cert_is_valid(z6, "weak-nil-clean", good)
    assert not o.cert_is_valid(z6, "nil-clean", good)  # nil clean allows '+' only
    assert not o.cert_is_valid(z6, "weak-nil-clean", {**good, "companion": 2})
    assert not o.cert_is_valid(z6, "weak-nil-clean", {**good, "commutes": False})
    assert o.has_no_decomposition(z6, "nil-clean", 2)
    assert not o.has_no_decomposition(z6, "weak-nil-clean", 2)


def test_matches_program_m2_z2_entry_for_entry():
    mine, theirs = o.mat(2, o.zn(2)), build_text("M2(Z(2))")
    assert (mine.order, mine.zero, mine.one, mine.label) == (
        theirs.order, theirs.zero, theirs.one, theirs.label)
    for table in ("add", "mul", "neg"):
        assert np.array_equal(getattr(mine, table), getattr(theirs, table)), table


def test_flags_idealize_t2_z2():
    mine, theirs = o.idealize_self(o.tri(2, o.zn(2))), build_text(FAULTY)
    assert o.associativity_failure(mine.mul) is None
    assert o.associativity_failure(theirs.mul) == (1, 8, 16)
    op = next(op for op in workloads.make_ops("classify-large", 7, HERE) if FAULTY in op.argv)
    assert len(op.sample) == mine.order ** 2  # compared in full, whatever the seed
    result = {"exit": 0, "order": theirs.order, "stdout": "[]",
              "sample": [[int(theirs.add[a, b]), int(theirs.mul[a, b])] for a, b in op.sample]}
    status, message = op.check(result)
    assert status == workloads.Outcome.FAILED, message


def test_zn_closed_forms_agree_with_search():
    for n in range(2, 65):
        ring = o.zn(n)
        found = {kind: not _missing(ring, kind) for kind in workloads.SWEEP_KINDS}
        assert found == o.zn_verdicts(n), n


def test_default_corpus_make_up():
    labels = workloads.default_corpus_labels()
    assert len(labels) == len(set(labels)) == 72
    assert sum(label.startswith("corner(") for label in labels) == 22


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
