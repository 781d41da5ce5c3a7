"""Command-line front end: classify rings and elements, sweep Z_n, run the
theorem suite, and dump tables.

Exit codes: 0 success / all checks pass, 1 a check failed or an --expect
assertion did not hold, 2 usage or build errors.  Output is deterministic;
the human table format prints a version banner unless --plain is given.

The subcommands and their options are declared once, in ``_COMMANDS``.  The
usual argv is read off that table; any other goes to an argparse parser built
from it, so help, abbreviations and usage errors are argparse's.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from .construct import Zn, _ascii_int, _check_budget, build, build_text, size_budget
from .decomp import (
    DecompKind,
    _verdicts_json,
    find_decomp,
    kind_takes_subset,
    ring_verdict,
)
from .errors import RingError
from .structure import structure
from .table import tables_to_csv
from .theorems import (
    check_ids,
    default_corpus,
    parse_corpus,
    report_to_json,
    run_suite,
    suite_failed,
)

FORMATS = ("table", "json", "csv")


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


def _emit(text: str, output: Optional[str]) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _split_names(spec: str) -> list[str]:
    """The names of a comma list, each stripped, blank ones skipped."""
    return [name.strip() for name in spec.split(",") if name.strip()]


def _parse_kinds(spec: str) -> list[DecompKind]:
    kinds = []
    for name in _split_names(spec):
        kind = DecompKind.from_name(name)
        if kind in kinds:
            raise ValueError(f"kind {name!r} is given twice")
        kinds.append(kind)
    if not kinds:
        raise ValueError("no decomposition kinds given")
    return kinds


def _default_s(ring, kind: DecompKind):
    # The S variants have no set syntax on the CLI; they use the distinguished
    # subset {0, 1}.
    return (ring.zero, ring.one) if kind_takes_subset(kind) else None


def _banner(args) -> str:
    return "" if args.plain else f"# wnc {__version__}\n"


def _write(args, headers: Sequence[str], rows: Sequence[Sequence[str]], json_text) -> None:
    """Emit the report in args.format; json_text() builds the JSON only when it is asked for."""
    if args.format == "json":
        _emit(json_text(), args.output)
    elif args.format == "csv":
        _emit(_render_csv(headers, rows), args.output)
    else:
        _emit(_banner(args) + _render_table(headers, rows), args.output)


def cmd_classify(args) -> int:
    ring = build_text(args.ring)
    kinds = _parse_kinds(args.kinds)
    expect = {}
    for clause in _split_names(args.expect or ""):
        name, _, want = clause.partition("=")
        name, want = name.strip(), want.strip().lower()
        if want not in ("true", "false"):
            raise ValueError(f"--expect wants true/false, got {want!r}")
        if name not in {kind.value for kind in kinds}:
            raise ValueError(f"--expect names unclassified kind {name!r}")
        if name in expect:
            raise ValueError(f"--expect names kind {name!r} twice")
        expect[name] = want
    verdicts = [ring_verdict(ring, kind, _default_s(ring, kind)) for kind in kinds]
    rows = [[v.kind.value, _bool_text(v.holds), "" if v.witness is None else str(v.witness)]
            for v in verdicts]
    _write(args, ["kind", "holds", "witness"], rows, lambda: _verdicts_json(ring, verdicts))
    got = {v.kind.value: v.holds for v in verdicts}
    failures = [f"{name}: expected {want}, got {_bool_text(got[name])}"
                for name, want in expect.items() if got[name] != (want == "true")]
    for failure in failures:
        sys.stderr.write(f"expectation failed: {failure}\n")
    return 1 if failures else 0


def cmd_element(args) -> int:
    ring = build_text(args.ring)
    ring.check_element(args.element)
    results = [(kind, find_decomp(ring, args.element, kind, _default_s(ring, kind)))
               for kind in _parse_kinds(args.kinds)]
    headers = ["kind", "found", "idempotent", "companion", "sign", "commutes"]
    rows = [[kind.value, "false", "", "", "", ""] if cert is None else
            [kind.value, "true", str(cert.idempotent), str(cert.companion), cert.sign,
             _bool_text(cert.commutes)]
            for kind, cert in results]
    _write(args, headers, rows, lambda: json.dumps([
        {"ring": ring.label, "kind": kind.value, "x": args.element,
         "cert": None if cert is None else {"e": cert.idempotent, "companion": cert.companion,
                                            "sign": cert.sign, "commutes": cert.commutes}}
        for kind, cert in results], indent=2) + "\n")
    return 0


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise ValueError(f"range must look like 2..100, got {spec!r}")
    start, end = _ascii_int(lo), _ascii_int(hi)
    if start < 1 or end < start:
        raise ValueError(f"empty or invalid range {spec!r}")
    return start, end


def cmd_sweep(args) -> int:
    start, end = _parse_range(args.zn)
    kinds = _parse_kinds(args.kinds)
    _check_budget(Zn(end), size_budget())
    names = [kind.value for kind in kinds]
    holds = []
    # Largest ring first: glibc raises its mmap threshold to each freed block's
    # size, so the smaller rings after it reuse heap pages instead of faulting
    # fresh ones in.
    for n in range(end, start - 1, -1):
        ring = build(Zn(n))
        holds.append([ring_verdict(ring, kind, _default_s(ring, kind)).holds for kind in kinds])
    holds.reverse()
    rows = [[str(n)] + [_bool_text(h) for h in row] for n, row in enumerate(holds, start)]
    _write(args, ["n"] + names, rows, lambda: json.dumps(
        [{"n": n, **dict(zip(names, row))} for n, row in enumerate(holds, start)],
        indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.corpus == "default":
        corpus = default_corpus()
    else:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            corpus = parse_corpus(fh.read())
    selected = None if args.checks == "all" else _split_names(args.checks)
    if selected == []:
        raise ValueError("no check ids given")
    cells = run_suite(corpus, selected)
    rows = [[cell["ring"], cell["check_id"], cell["outcome"], cell.get("witness", "")]
            for cell in cells]
    _write(args, ["ring", "check_id", "outcome", "witness"], rows, lambda: report_to_json(cells))
    return 1 if suite_failed(cells) else 0


def cmd_dump(args) -> int:
    ring = build_text(args.ring)
    if args.what == "tables":
        _emit(tables_to_csv(ring), args.output)
        return 0
    cache = structure(ring)
    lines = [
        f"# ring,{ring.label},order,{ring.order}",
        f"# units,{cache.unit_mask.sum()},idempotents,{len(cache.idempotents)},"
        f"nilpotents,{cache.nil_mask.sum()},radical,{cache.radical_mask.sum()}",
    ]
    headers = ["index", "element", "unit", "inverse", "idempotent", "nilpotency", "radical"]
    columns = (cache.unit_mask, cache.inverse_of, cache.nil_index, cache.radical_mask)
    rows = [
        [str(x), ring.name_of(x), _bool_text(unit), str(inverse) if unit else "",
         _bool_text(x in cache.idempotent_set), str(index) if index else "", _bool_text(rad)]
        for x, unit, inverse, index, rad in zip(ring.elements(), *(c.tolist() for c in columns))
    ]
    _emit("\n".join(lines) + "\n" + _render_csv(headers, rows), args.output)
    return 0


class _Option(NamedTuple):
    """One ``--name`` option of a subcommand.  A flag takes no value and stores True;
    every other option takes one value, read by ``read`` when given (a ValueError
    refuses it), else kept as the text."""

    name: str
    help: Optional[str] = None
    required: bool = False
    default: object = None
    choices: Optional[tuple[str, ...]] = None
    read: Optional[Callable[[str], object]] = None
    flag: bool = False


class _Command(NamedTuple):
    help: str
    func: Callable[..., int]
    options: tuple[_Option, ...]


_FORMAT = _Option("format", choices=FORMATS, default="table")
_PLAIN = _Option("plain", "suppress the version banner in table output", default=False,
                 flag=True)
_OUTPUT = _Option("output", "output path ('-' = stdout)", default="-")

# Every subcommand and option, in help order: the argv reader and the argparse
# parser are both read off this table.
_COMMANDS = {
    "classify": _Command("decide ring-level cleanness kinds", cmd_classify, (
        _Option("ring", "ring expression", required=True),
        _Option("kinds", "comma-separated kind names", required=True),
        _Option("expect", "assert outcomes, e.g. weak-nil-clean=true,nil-clean=false"),
        _FORMAT, _PLAIN, _OUTPUT)),
    "element": _Command("find decompositions of one element", cmd_element, (
        _Option("ring", required=True),
        _Option("element", required=True, read=_ascii_int),
        _Option("kinds", required=True),
        _FORMAT, _PLAIN, _OUTPUT)),
    "sweep": _Command("classify Z_n over a range", cmd_sweep, (
        _Option("zn", "range of ASCII integers, e.g. 2..100", required=True),
        _Option("kinds", required=True),
        _FORMAT, _PLAIN, _OUTPUT)),
    "verify": _Command("run the theorem suite over a corpus", cmd_verify, (
        _Option("corpus", "'default' or a corpus file path", default="default"),
        _Option("checks", "'all' or comma-separated check ids: " + ",".join(check_ids()),
                default="all"),
        _FORMAT, _PLAIN, _OUTPUT)),
    "dump": _Command("dump operation tables or the structure map", cmd_dump, (
        _Option("ring", required=True),
        _Option("what", choices=("tables", "structure"), default="structure"),
        _Option("format", choices=("csv",), default="csv"),
        _OUTPUT)),
}


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives argv, when argv has the usual form; else None.

    The usual form is a subcommand, then its options spelled out as ``--flag`` or
    ``--name value`` with a value that does not start with '-', with every required
    option given and every value valid; as in argparse, the last of a repeated option
    counts.  argparse reads any such argv to the same namespace; the rest (help,
    ``--name=value``, abbreviations, errors) is left to it, so its messages and exit
    codes stay its own."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {"--" + opt.name: opt for opt in command.options}
    given: dict[str, object] = {}
    i = 1
    while i < len(argv):
        opt = options.get(argv[i])
        if opt is None:
            return None
        if opt.flag:
            given[opt.name] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if opt.choices is not None and value not in opt.choices:
            return None
        if opt.read is not None:
            try:
                value = opt.read(value)
            except ValueError:
                return None
        given[opt.name] = value
        i += 2
    if any(opt.required and opt.name not in given for opt in command.options):
        return None
    values = {opt.name: given.get(opt.name, opt.default) for opt in command.options}
    return SimpleNamespace(command=argv[0], **values, func=command.func)


def _build_parser():
    """The argparse parser of the table, for every argv that _read_argv leaves."""
    import argparse

    def typed(read):
        def value(text):
            try:
                return read(text)
            except ValueError:  # every reader in the table reads an int
                raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        return value

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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            if opt.flag:
                p.add_argument("--" + opt.name, action="store_true", default=opt.default,
                               help=opt.help)
            else:
                p.add_argument("--" + opt.name, required=opt.required, default=opt.default,
                               choices=opt.choices, type=opt.read and typed(opt.read),
                               help=opt.help)
        p.set_defaults(func=command.func)
    return parser


def _parse_args(argv: Sequence[str]):
    """argv's namespace, read off the table for the usual form, else by argparse."""
    args = _read_argv(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        size_budget()  # a bad WNC_SIZE_BUDGET stops every subcommand before any output
        return args.func(args)
    except (RingError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError:
        sys.stderr.write("error: input is nested too deeply\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
