"""The argv reader: the usual argv is read off the subcommand table with no
argparse parser built, and every argv parses as the argparse tree it replaced."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import wnc.cli
from wnc.cli import (
    FORMATS,
    _ascii_int,
    _parse_args,
    cmd_classify,
    cmd_dump,
    cmd_element,
    cmd_sweep,
    cmd_verify,
    main,
)
from wnc.decomp import DecompKind
from wnc.theorems import check_ids

ALL_KINDS = ",".join(kind.value for kind in DecompKind)
SRC = Path(__file__).resolve().parent.parent / "src"


# --- the reference: the CLI's argparse tree before the subcommand table ----------

def _element_arg(text: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnc",
        description="Finite-ring cleanness toolkit: classify, sweep, verify, dump.",
        epilog=(
            "Ring grammar: Z(n) | prod(e,e,...) | M<k>(e) | T<k>(e) | eqdiag<k>(e) | "
            "idealize(e, self|Z(m)) | corner(e, index) | quot(e, [i,...]) | "
            "skew(e, id|swap(i,j), n).  Keywords are case-insensitive."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", default="-", help="output path ('-' = stdout)")

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="table")
        p.add_argument("--plain", action="store_true",
                       help="suppress the version banner in table output")
        add_output(p)

    p = sub.add_parser("classify", help="decide ring-level cleanness kinds")
    p.add_argument("--ring", required=True, help="ring expression")
    p.add_argument("--kinds", required=True, help="comma-separated kind names")
    p.add_argument("--expect", default=None,
                   help="assert outcomes, e.g. weak-nil-clean=true,nil-clean=false")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("element", help="find decompositions of one element")
    p.add_argument("--ring", required=True)
    p.add_argument("--element", required=True, type=_element_arg)
    p.add_argument("--kinds", required=True)
    add_common(p)
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("sweep", help="classify Z_n over a range")
    p.add_argument("--zn", required=True, help="range of ASCII integers, e.g. 2..100")
    p.add_argument("--kinds", required=True)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the theorem suite over a corpus")
    p.add_argument("--corpus", default="default", help="'default' or a corpus file path")
    p.add_argument("--checks", default="all",
                   help="'all' or comma-separated check ids: " + ",".join(check_ids()))
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="dump operation tables or the structure map")
    p.add_argument("--ring", required=True)
    p.add_argument("--what", choices=("tables", "structure"), default="structure")
    p.add_argument("--format", choices=("csv",), default="csv")
    add_output(p)
    p.set_defaults(func=cmd_dump)

    return parser


# --- differential: every argv parses as the reference parses it -------------------

COMMANDS = ["classify", "element", "sweep", "verify", "dump"]
NAMES = ["--ring", "--kinds", "--expect", "--format", "--plain", "--output", "--element",
         "--zn", "--corpus", "--checks", "--what"]
VALUES = ["Z(6)", "", "-1", "-x", " -x", "a b", "json", "xml", "2..5", "clean,nil-clean",
          "5", "٣"]
# each name cut to its shortest prefix that no other name shares, and "--c", which two share
ABBREVIATIONS = ["--r", "--k", "--ex", "--f", "--p", "--o", "--el", "--z", "--co", "--ch",
                 "--w", "--c"]
TOKENS = (COMMANDS + ["bogus"] + NAMES + ABBREVIATIONS + ["-h", "--help", "--"] + VALUES
          + [f"{name}={value}" for name in NAMES for value in VALUES])

# a subcommand, then options spelled out, each with a value or none: the usual form
# and its near misses
_spelled_out = st.builds(
    lambda command, pairs: [command] + [token for pair in pairs for token in pair],
    st.sampled_from(COMMANDS),
    st.lists(st.one_of(st.tuples(st.sampled_from(NAMES), st.sampled_from(VALUES)),
                       st.tuples(st.sampled_from(NAMES))), max_size=6),
)


def _outcome(parse, argv):
    """parse(argv)'s namespace, or its SystemExit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "parsed", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


def _reference(argv):
    return _build_parser().parse_args(argv)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=8), _spelled_out))
@example(["classify", "--ring", "Z(6)", "--kinds", "clean,nil-clean", "--plain"])
@example(["element", "--ring", "Z(6)", "--element", " 5", "--kinds", "clean"])
@example(["element", "--ring", "Z(6)", "--element", "٣", "--kinds", "clean"])
@example(["sweep", "--zn", "2..5", "--kinds", "clean", "--format", "xml"])
@example(["verify", "--plain", "--plain"])
@example(["dump", "--ring", "Z(6)", "--plain"])
@example(["verify", "--corpus", " -x", "--checks", ""])
@example(["verify", "--corpus"])
@example([])
def test_argv_parses_as_the_reference_parser_parses_it(argv):
    got = _outcome(_parse_args, argv)
    assert got == _outcome(_reference, argv)
    if got[0] == "parsed":
        assert got[1]["func"] is _reference(argv).func


def test_help_is_the_reference_parsers():
    for argv in [["-h"], ["--help"]] + [[command, "-h"] for command in COMMANDS]:
        got = _outcome(_parse_args, argv)
        assert got[:2] == ("exit", 0) and got[2].startswith("usage: wnc")
        assert got == _outcome(_reference, argv)


# --- the usual argv builds no argparse parser -------------------------------------

MID_CORPUS = "Z(128)\nZ(144)\nidealize(Z(12),self)\nprod(Z(4),Z(9),Z(5))\n"


def _usual_argv(corpus_path):
    """The benchmark's forms and the README's examples."""
    return [
        ["classify", "--ring", "idealize(Z(25),self)", "--kinds", ALL_KINDS, "--format", "json"],
        ["verify", "--corpus", str(corpus_path), "--checks", "all", "--format", "json"],
        ["sweep", "--zn", "2..400", "--kinds", "clean,nil-clean,j-clean,weak-nil-clean,weak-j-clean",
         "--format", "csv"],
        ["classify", "--ring", "Z(6)", "--kinds", "weak-nil-clean,nil-clean"],
        ["sweep", "--zn", "2..100", "--kinds", "weak-nil-clean,nil-clean", "--format", "csv"],
        ["element", "--ring", "Z(6)", "--element", "5", "--kinds", "weak-nil-clean"],
        ["verify", "--corpus", "default", "--checks", "all", "--format", "json"],
        ["dump", "--ring", "M2(Z(2))", "--what", "structure"],
    ]


_RUN_IN_FRESH_PROCESS = """
import contextlib, io, json, sys
import wnc.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [wnc.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "argparse": "argparse" in sys.modules}))
"""


def test_usual_argv_never_imports_argparse(tmp_path):
    corpus = tmp_path / "mid_corpus.txt"
    corpus.write_text(MID_CORPUS, encoding="utf-8")
    argvs = _usual_argv(corpus)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _RUN_IN_FRESH_PROCESS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == {"codes": [0] * len(argvs), "argparse": False}


def test_usual_argv_builds_no_parser(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("the usual argv built an argparse parser")
    monkeypatch.setattr(wnc.cli, "_build_parser", refuse)
    corpus = tmp_path / "mid_corpus.txt"
    corpus.write_text(MID_CORPUS, encoding="utf-8")
    for argv in _usual_argv(corpus):
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""
