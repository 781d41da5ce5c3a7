"""Command-line surface: formats, exit codes, determinism."""

import dataclasses
import hashlib
import json

import pytest

import naive
import wnc.cli
from wnc import decomp
from wnc.cli import main
from wnc.construct import build_text
from wnc.decomp import (
    DecompKind,
    _verdicts_json,
    find_decomp,
    kind_takes_subset,
    ring_verdict,
    verdict_to_json,
    zero_one_subset,
)

ALL_KINDS = ",".join(kind.value for kind in DecompKind)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_table(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "Z(6)",
        "--kinds", "weak-nil-clean,nil-clean", "--plain",
    )
    assert code == 0
    assert out == (
        "kind            holds  witness\n"
        "weak-nil-clean  true\n"
        "nil-clean       false  2\n"
    )


def test_classify_banner_suppression(capsys):
    code, out, _ = run_cli(capsys, "classify", "--ring", "Z(6)", "--kinds", "nil-clean")
    assert code == 0
    assert out.startswith("# wnc ")
    code, plain_out, _ = run_cli(
        capsys, "classify", "--ring", "Z(6)", "--kinds", "nil-clean", "--plain"
    )
    assert code == 0
    assert not plain_out.startswith("#")


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "Z(6)",
        "--kinds", "weak-nil-clean,nil-clean", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["ring"] == "Z(6)"
    assert payload[0]["kind"] == "weak-nil-clean" and payload[0]["holds"] is True
    assert payload[1]["kind"] == "nil-clean" and payload[1]["witness"] == 2
    certs = {c["x"]: c for c in payload[0]["certs"]}
    assert certs[2] == {"x": 2, "e": 4, "companion": 0, "sign": "-", "commutes": True}


def test_classify_expect(capsys):
    code, _, _ = run_cli(
        capsys, "classify", "--ring", "Z(6)",
        "--kinds", "weak-nil-clean,nil-clean",
        "--expect", "weak-nil-clean=true,nil-clean=false", "--plain",
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "classify", "--ring", "Z(6)", "--kinds", "nil-clean",
        "--expect", "nil-clean=true", "--plain",
    )
    assert code == 1
    assert "expectation failed" in err
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "Z(6)", "--kinds", "weak-nil-clean",
        "--expect", "weak-nil-clean",
    )
    assert code == 2 and out == ""


def test_element_output(capsys):
    code, out, _ = run_cli(
        capsys, "element", "--ring", "Z(6)", "--element", "5",
        "--kinds", "weak-nil-clean,nil-clean", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "kind,found,idempotent,companion,sign,commutes",
        "weak-nil-clean,true,1,0,-,true",
        "nil-clean,false,,,,",
    ]
    code, out, _ = run_cli(
        capsys, "element", "--ring", "Z(6)", "--element", "5",
        "--kinds", "weak-nil-clean", "--format", "json",
    )
    assert code == 0
    assert out == (
        '[\n'
        '  {\n'
        '    "ring": "Z(6)",\n'
        '    "kind": "weak-nil-clean",\n'
        '    "x": 5,\n'
        '    "cert": {\n'
        '      "e": 1,\n'
        '      "companion": 0,\n'
        '      "sign": "-",\n'
        '      "commutes": true\n'
        '    }\n'
        '  }\n'
        ']\n'
    )


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--zn", "2..12",
        "--kinds", "weak-nil-clean,nil-clean", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,weak-nil-clean,nil-clean"
    assert len(lines) == 1 + 11
    weak_not_nil = [
        int(line.split(",")[0])
        for line in lines[1:]
        if line.split(",")[1] == "true" and line.split(",")[2] == "false"
    ]
    assert weak_not_nil == [3, 6, 9, 12]
    code, out, _ = run_cli(capsys, "sweep", "--zn", "7..7", "--kinds", "clean",
                           "--format", "csv")
    assert (code, out) == (0, "n,clean\n7,true\n")


def test_sweep_to_100_matches_classification(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--zn", "2..100",
        "--kinds", "weak-nil-clean,nil-clean", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    weak_not_nil = [int(r[0]) for r in rows if r[1] == "true" and r[2] == "false"]
    assert weak_not_nil == [3, 6, 9, 12, 18, 24, 27, 36, 48, 54, 72, 81, 96]


SWEEP_KINDS = ("clean", "nil-clean", "j-clean", "weak-nil-clean", "weak-j-clean")


def _zn_closed_forms(n):
    """The paper's verdicts for Z(n): clean always, nil and j clean iff n = 2^r,
    weak nil and weak j clean iff n = 2^r·3^t."""
    m = n
    while m % 2 == 0:
        m //= 2
    power_of_two = m == 1
    while m % 3 == 0:
        m //= 3
    return {"clean": True, "nil-clean": power_of_two, "j-clean": power_of_two,
            "weak-nil-clean": m == 1, "weak-j-clean": m == 1}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_to_400_matches_closed_forms(capsys, fmt):
    code, out, _ = run_cli(capsys, "sweep", "--zn", "1..400", "--kinds", ",".join(SWEEP_KINDS),
                           "--format", fmt)
    assert code == 0
    rows = [{"n": n, **_zn_closed_forms(n)} for n in range(1, 401)]
    # the whole text, so that row order and true versus 1 would show
    if fmt == "json":
        assert out == json.dumps(rows, indent=2) + "\n"
    else:
        assert out.splitlines() == [",".join(["n", *SWEEP_KINDS])] + [
            ",".join([str(row["n"])] + ["true" if row[k] else "false" for k in SWEEP_KINDS])
            for row in rows]


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--zn", "8..9", "--kinds", "nil-clean", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [
        {"n": 8, "nil-clean": True},
        {"n": 9, "nil-clean": False},
    ]


def test_sweep_checks_the_budget_before_building(capsys, monkeypatch):
    def no_build(ring, budget=None):
        raise AssertionError(f"built {ring} past the budget check")

    monkeypatch.delenv("WNC_SIZE_BUDGET", raising=False)
    monkeypatch.setattr(wnc.cli, "build_text", no_build)
    monkeypatch.setattr(wnc.cli, "build", no_build)
    code, out, err = run_cli(capsys, "sweep", "--zn", "2..30000", "--kinds", "nil-clean")
    assert code == 2 and out == ""
    assert err == "error: Z(30000) needs 30000 elements, over the budget of 20000\n"


def test_sweep_matches_loop_oracle_on_every_kind(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--zn", "1..48", "--kinds", ALL_KINDS,
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(range(1, 49))
    for row in rows:
        ring = build_text(f"Z({row['n']})")
        for kind in DecompKind:
            s = {ring.zero, ring.one} if kind_takes_subset(kind) else None
            holds, _, _ = naive.verdict(naive.all_decomps(ring, kind.value, s))
            assert row[kind.value] is holds, (row["n"], kind.value)


@pytest.mark.parametrize("spec", ["a..b", "２..５", "2..٥", "1_0..1_2", "+2..5", "2..5\u00a0",
                                  "\u20032..5", "2..", "- 2..5"])
def test_sweep_bounds_are_ascii_integers(capsys, spec):
    code, out, err = run_cli(capsys, "sweep", "--zn", spec, "--kinds", "clean")
    lo, _, hi = spec.partition("..")
    bad = next(bound for bound in (lo, hi) if bound not in ("2", "5"))
    assert (code, out) == (2, "")
    assert err == f"error: invalid literal for int() with base 10: {bad!r}\n"


def test_integer_arguments_take_ascii_whitespace(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--zn", " 2\t..\n5 ", "--kinds", "clean",
                           "--format", "csv")
    assert code == 0 and [line[0] for line in out.splitlines()[1:]] == list("2345")
    code, out, _ = run_cli(capsys, "element", "--ring", "Z(6)", "--element", " 5\t",
                           "--kinds", "nil-clean", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "nil-clean,false,,,,"


@pytest.mark.parametrize("element", ["x", "٣", "３", "1_0", "+3", "3\u00a0", ""])
def test_element_is_an_ascii_integer(capsys, element):
    code, out, err = run_cli(capsys, "element", "--ring", "Z(6)", "--element", element,
                             "--kinds", "nil-clean")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"wnc element: error: argument --element: invalid int value: {element!r}")


def test_huge_bound_exits_two_with_saturated_message(capsys):
    for label in ("M72(Z(7))", "M10000(Z(7))"):
        code, out, err = run_cli(capsys, "classify", "--ring", label, "--kinds", "clean")
        assert code == 2 and out == ""
        assert err == (f"error: {label} needs more than 10**4300 elements, "
                       "over the budget of 20000\n")


def test_verify_survives_hostile_lines(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(4)\nZ(\u00a06)\nZ(" + "9" * 5000 + ")\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--format", "csv")
    assert code == 1
    rows = out.splitlines()[1:]
    assert sum(row.startswith("Z(4),") for row in rows) == 14
    assert sum(row.endswith("too long (at position 2)") for row in rows) == 1
    corpus.write_text("Z(4)\nM72(Z(7)) !waive\n", encoding="utf-8")
    assert run_cli(capsys, "verify", "--corpus", str(corpus))[0] == 0


@pytest.mark.parametrize("raw", ["abc", "1e3", "0", "-5"])
@pytest.mark.parametrize("argv", [
    ("sweep", "--zn", "2..5", "--kinds", "clean"),
    ("verify", "--corpus", "default"),
])
def test_bad_size_budget_names_the_variable(capsys, monkeypatch, raw, argv):
    monkeypatch.setenv("WNC_SIZE_BUDGET", raw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: WNC_SIZE_BUDGET must be a positive integer, got '{raw}'\n"


def test_verify_with_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# small corpus\nZ(6)\nZ(9)\nZ(30000) !waive\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--format", "json")
    assert code == 0
    cells = json.loads(out)
    outcomes = {(c["ring"], c["check_id"]): c["outcome"] for c in cells}
    assert outcomes[("Z(30000)", "build")] == "waived"
    assert outcomes[("Z(9)", "prop-J-subset-Nil")] == "pass"
    assert all(o in ("pass", "not-applicable", "waived") for o in outcomes.values())


def test_verify_default_corpus_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "default", "--format", "json")
    assert code == 0
    cells = json.loads(out)
    assert cells and all(c["outcome"] in ("pass", "not-applicable") for c in cells)


def test_verify_empty_corpus_csv_header_only(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing here\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--format", "csv")
    assert code == 0
    assert out == "ring,check_id,outcome,witness\n"


def test_verify_reports_failure_exit(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(oops\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--format", "json")
    assert code == 1
    cells = json.loads(out)
    assert cells[0]["outcome"] == "error"


def test_verify_reports_non_ascii_digits_as_one_error_cell(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(4)\nZ(²)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), "--format", "json")
    assert code == 1 and err == ""
    cells = json.loads(out)
    assert {c["ring"] for c in cells} == {"Z(4)", "Z(²)"}
    assert all(c["outcome"] in ("pass", "not-applicable") for c in cells if c["ring"] == "Z(4)")
    bad = [c for c in cells if c["ring"] == "Z(²)"]
    assert [(c["check_id"], c["outcome"]) for c in bad] == [("build", "error")]
    assert "unexpected character '²' (at position 2)" in bad[0]["witness"]


def test_verify_reads_a_file_separator_as_part_of_its_line(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(6)\x1cZ(4)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), "--format", "json")
    assert code == 1 and err == ""
    cells = json.loads(out)
    assert [(c["ring"], c["check_id"], c["outcome"]) for c in cells] == [
        ("Z(6)\x1cZ(4)", "build", "error")]
    assert cells[0]["witness"].endswith("unexpected character '\\x1c' (at position 4)")


def test_coordinate_limit_exits_two(capsys):
    code, out, err = run_cli(capsys, "classify", "--ring", "M600(Z(1))", "--kinds", "clean")
    assert code == 2 and out == ""
    assert err == "error: M600(Z(1)) needs 360000 coordinates, over the limit of 63\n"


def test_verify_check_selection(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(4)\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(corpus),
        "--checks", "thm-zn-classification", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "ring,check_id,outcome,witness",
        "Z(4),thm-zn-classification,pass,",
    ]
    # non-commutative rings of order 256
    corpus.write_text("M2(Z(4))\nT2(Z(4))\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(corpus),
        "--checks", "thm-s-rigidity,thm-weakstar-corner,thm-weak-jclean-bundle", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["ring,check_id,outcome,witness"] + [
        f"{ring},{check},pass,"
        for ring in ("M2(Z(4))", "T2(Z(4))")
        for check in ("thm-s-rigidity", "thm-weak-jclean-bundle", "thm-weakstar-corner")]


def test_verify_output_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(4)\n", encoding="utf-8")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(corpus), "--format", "json",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))


def test_dump_tables(capsys):
    code, out, _ = run_cli(capsys, "dump", "--ring", "Z(2)", "--what", "tables")
    assert code == 0
    assert out == (
        "# ring,Z(2),order,2\n"
        "# table,add\n0,1\n1,0\n"
        "# table,mul\n0,0\n0,1\n"
        "# table,neg\n0,1\n"
        "# zero,0,one,1\n"
    )


def test_dump_structure(capsys):
    code, out, _ = run_cli(capsys, "dump", "--ring", "Z(12)", "--what", "structure")
    assert code == 0
    assert out == "\n".join([
        "# ring,Z(12),order,12",
        "# units,4,idempotents,4,nilpotents,2,radical,2",
        "index,element,unit,inverse,idempotent,nilpotency,radical",
        "0,0,false,,true,1,true",
        "1,1,true,1,true,,false",
        "2,2,false,,false,,false",
        "3,3,false,,false,,false",
        "4,4,false,,true,,false",
        "5,5,true,5,false,,false",
        "6,6,false,,false,2,true",
        "7,7,true,7,false,,false",
        "8,8,false,,false,,false",
        "9,9,false,,true,,false",
        "10,10,false,,false,,false",
        "11,11,true,11,false,,false",
    ]) + "\n"


def test_dump_takes_only_csv(capsys):
    default = run_cli(capsys, "dump", "--ring", "Z(4)")
    assert default[0] == 0
    assert run_cli(capsys, "dump", "--ring", "Z(4)", "--format", "csv") == default
    code, out, _ = run_cli(capsys, "dump", "--ring", "Z(4)", "--format", "json")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "dump", "--ring", "Z(4)", "--plain")
    assert code == 2 and out == ""


def test_dump_structure_names_coordinates(capsys):
    code, out, _ = run_cli(capsys, "dump", "--ring", "M2(Z(2))", "--what", "structure")
    assert code == 0
    assert '"[[1,0],[0,0]]"' in out or "[[1,0],[0,0]]" in out


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "classify", "--ring", "Z(6", "--kinds", "nil-clean")[0] == 2
    assert run_cli(capsys, "classify", "--ring", "Z(6)", "--kinds", "bogus")[0] == 2
    assert run_cli(capsys, "sweep", "--zn", "9..2", "--kinds", "nil-clean")[0] == 2
    assert run_cli(capsys, "classify", "--ring", "Z(30000)", "--kinds", "nil-clean")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "element", "--ring", "Z(6)", "--element", "9",
                   "--kinds", "nil-clean")[0] == 2


@pytest.mark.parametrize("argv,message", [
    (("sweep", "--zn", "2..3", "--kinds", "clean,nil-clean,clean"),
     "kind 'clean' is given twice"),
    (("sweep", "--zn", "2..3", "--kinds", "clean,nil-clean, clean", "--format", "json"),
     "kind 'clean' is given twice"),
    (("classify", "--ring", "Z(6)", "--kinds", "nil-clean,nil-clean"),
     "kind 'nil-clean' is given twice"),
    (("element", "--ring", "Z(6)", "--element", "5", "--kinds", "nil-clean,nil-clean"),
     "kind 'nil-clean' is given twice"),
    (("classify", "--ring", "Z(6)", "--kinds", "nil-clean",
      "--expect", "nil-clean=false,nil-clean=true"),
     "--expect names kind 'nil-clean' twice"),
    (("verify", "--corpus", "default",
      "--checks", "thm-zn-classification,thm-zn-classification"),
     "check ids given twice: ['thm-zn-classification']"),
], ids=["sweep-csv", "sweep-json", "classify", "element", "expect", "verify"])
def test_repeated_names_exit_two(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,spaced", [
    (("classify", "--ring", "Z(6)", "--kinds", "nil-clean,weak-nil-clean"),
     ("classify", "--ring", "Z(6)", "--kinds", " nil-clean, ,weak-nil-clean,")),
    (("classify", "--ring", "Z(6)", "--kinds", "nil-clean", "--expect", "nil-clean=true"),
     ("classify", "--ring", "Z(6)", "--kinds", "nil-clean", "--expect", ",nil-clean=true, ")),
    (("classify", "--ring", "Z(6)", "--kinds", "nil-clean"),
     ("classify", "--ring", "Z(6)", "--kinds", "nil-clean", "--expect", " , ")),
    (("verify", "--corpus", "default", "--checks", "prop-J-subset-Nil", "--format", "csv"),
     ("verify", "--corpus", "default", "--checks", "prop-J-subset-Nil,", "--format", "csv")),
], ids=["kinds", "expect", "expect-blank", "checks"])
def test_comma_lists_skip_blank_names(capsys, argv, spaced):
    assert run_cli(capsys, *spaced) == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv,message", [
    (("classify", "--ring", "Z(6)", "--kinds", " , "), "no decomposition kinds given"),
    (("verify", "--corpus", "default", "--checks", ""), "no check ids given"),
    (("verify", "--corpus", "default", "--checks", " ,, "), "no check ids given"),
], ids=["kinds", "checks-empty", "checks-blank"])
def test_comma_lists_with_no_name_exit_two(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_deep_nesting_exits_two_without_traceback(capsys):
    ring = "corner(" * 3000 + "Z(2)" + ",1)" * 3000
    code, out, err = run_cli(capsys, "classify", "--ring", ring, "--kinds", "nil-clean")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_s_variant_kinds_use_zero_one(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "Z(6)", "--kinds", "s-weak-nil-clean",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["s"] == [0, 1] and payload[0]["holds"] is False


def test_output_is_byte_identical_across_runs(capsys):
    args = ("classify", "--ring", "Z(12)", "--kinds", "weak-nil-clean,j-clean")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# The first 16 hex digits of the sha256 of the stdout of each command.
_PINNED_OUTPUTS = [
    (("verify", "--corpus", "default", "--checks", "all", "--format", "json"), "4fd40da416a111b6"),
    (("sweep", "--zn", "2..400", "--kinds",
      "nil-clean,weak-nil-clean,clean,j-clean,weak-star-nil-clean", "--format", "json"),
     "643b0aaeddbad0a8"),
    (("classify", "--ring", "M2(Z(3))", "--kinds", ALL_KINDS, "--format", "json"),
     "232dfb7d1bc20aca"),
    (("classify", "--ring", "T2(Z(4))", "--kinds", ALL_KINDS, "--format", "json"),
     "255e8f555b12af1f"),
    (("classify", "--ring", "idealize(Z(6),self)", "--kinds", ALL_KINDS, "--format", "json"),
     "7b5200440739e43f"),
    (("dump", "--ring", "Z(12)", "--what", "structure"), "41990c316c3afeea"),
    (("dump", "--ring", "M2(Z(2))", "--what", "structure"), "e734015b9ef438cd"),
    (("dump", "--ring", "T2(Z(3))", "--what", "structure"), "77d7ea8d38ba23ea"),
    (("dump", "--ring", "M2(Z(5))", "--what", "structure"), "6a5b71036828db5c"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUTS,
                         ids=[" ".join(argv[:3]) for argv, _ in _PINNED_OUTPUTS])
def test_output_matches_its_pinned_hash(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _verdicts(ring):
    return [ring_verdict(ring, kind, zero_one_subset(ring) if kind_takes_subset(kind) else None)
            for kind in DecompKind]


def _reference_json(ring, verdict):
    """The verdict JSON built field by field from the certificate objects."""
    out = {"ring": ring.label, "kind": verdict.kind.value}
    if verdict.s is not None:
        out["s"] = list(verdict.s)
    out["holds"] = verdict.holds
    out["witness"] = verdict.witness
    out["certs"] = [
        {"x": x, "e": cert.idempotent, "companion": cert.companion, "sign": cert.sign,
         "commutes": cert.commutes}
        for x, cert in sorted(verdict.certs.items())
    ]
    return out


@pytest.mark.parametrize("label", [
    "Z(1)", "Z(6)", "M2(Z(2))", "T2(Z(3))", "idealize(T2(Z(2)),self)",
    "skew(prod(Z(2),Z(2)),swap(1,2),4)",
])
def test_classify_json_matches_verdict_to_json(capsys, label):
    code, out, _ = run_cli(capsys, "classify", "--ring", label, "--kinds", ALL_KINDS,
                           "--format", "json")
    ring = build_text(label)
    assert code == 0
    verdicts = _verdicts(ring)
    # strings, not parsed values, so that true versus 1 would show
    reference = json.dumps([_reference_json(ring, v) for v in verdicts], indent=2)
    assert out == reference + "\n"
    assert json.dumps([verdict_to_json(ring, v) for v in verdicts], indent=2) == reference


def test_classify_json_writes_empty_certificates():
    ring = build_text("Z(6)")
    verdicts = _verdicts(ring)
    empty = [dataclasses.replace(v, targets=v.targets[:0], idempotents=v.idempotents[:0],
                                 companions=v.companions[:0], signs=v.signs[:0],
                                 commutes=v.commutes[:0]) for v in verdicts[6:8]]
    mixed = [verdicts[0], *empty, verdicts[-1]]
    assert all(not v.certs for v in empty) and empty[1].s == (0, 1)
    assert _verdicts_json(ring, mixed) == json.dumps(
        [_reference_json(ring, v) for v in mixed], indent=2) + "\n"


@pytest.fixture
def certs_made(monkeypatch):
    """Every DecompCert the library builds while the test runs."""
    made = []

    def counting(*args):
        made.append(args)
        return cert_type(*args)

    cert_type = decomp.DecompCert
    monkeypatch.setattr(decomp, "DecompCert", counting)
    return made


def test_certificates_are_built_only_when_read(capsys, certs_made):
    assert run_cli(capsys, "sweep", "--zn", "2..60", "--kinds", ALL_KINDS)[0] == 0
    for fmt in ("json", "table"):
        assert run_cli(capsys, "classify", "--ring", "M2(Z(2))", "--kinds", ALL_KINDS,
                       "--format", fmt)[0] == 0
    assert run_cli(capsys, "verify", "--corpus", "default", "--checks", "all")[0] == 0
    assert certs_made == []
    ring = build_text("M2(Z(2))")
    assert verdict_to_json(ring, ring_verdict(ring, DecompKind.WEAK_NIL_CLEAN))["certs"]
    assert certs_made == []
    cert = find_decomp(ring, 7, DecompKind.WEAK_NIL_CLEAN)
    assert certs_made == [(DecompKind.WEAK_NIL_CLEAN, 7, cert.idempotent, cert.companion,
                           cert.sign, cert.commutes)]
    verdict = ring_verdict(ring, DecompKind.WEAK_NIL_CLEAN)
    assert len(certs_made) == 1 and "certs" not in vars(verdict)
    assert verdict.certs[7] == cert and len(certs_made) == 1 + len(verdict.certs)
