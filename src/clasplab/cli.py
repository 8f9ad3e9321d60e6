"""Command-line interface.

Every subcommand reads a diagram from a file, stdin, or a named generator,
and writes JSON by default (text mode is a human courtesy).  Nothing is
random, so identical invocations produce byte-identical output.  Exit
codes: 0 success, 1 domain error (structured JSON on stderr), 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each handler imports the modules it runs, so a process loads only those.
from . import diagram as diagram_mod
from .errors import BudgetExceeded, ClaspLabError

_GENERATORS = ("unknot", "trefoil", "torus4", "braid")
#: braid needs --strands and --word, which the upper diagram has no twin of.
_UPPER_GENERATORS = ("unknot", "trefoil", "torus4")
#: Subcommands that run an enumeration or search, and so take --budget.
_BUDGETED = ("rulings", "clasps", "parity", "obstruct", "cobordism", "search")
#: The step budget of every listing when neither --budget nor
#: CLASPLAB_BUDGET sets one; search keeps SEARCH_NODE_BUDGET.  A
#: listing's memory grows with its steps: braid(2, [1]*26) needs 1.03 M
#: and about 160 MB, and no row of the golden corpus needs 1,300.
LISTING_BUDGET = 1_000_000


class _UsageError(Exception):
    pass


def _integer(text: str) -> int:
    """An optional ``-`` and a run of ASCII digits, the only integer
    spelling options and CLASPLAB_BUDGET accept (``int()`` also reads
    ``+``, spaces, underscores and other scripts' digits)."""
    value = diagram_mod.ascii_number(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return -value if text.startswith("-") else value


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _braced(switches) -> str:
    return "{" + ",".join(map(str, switches)) + "}"


def _read_source(path: str) -> str:
    try:
        if path == "-":
            # bytes, so that the locale cannot change how stdin decodes
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # a NUL in the path, or not UTF-8
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _generated(args, upper: bool = False) -> diagram_mod.FrontDiagram:
    """The diagram that --generate (or --generate-upper) names."""
    if upper:
        name, n = args.generate_upper, args.upper_n
        name_flag, n_flag = "--generate-upper", "--upper-n"
    else:
        name, n = args.generate, args.n
        name_flag, n_flag = "--generate", "--n"
    if name == "unknot":
        return diagram_mod.generate_unknot()
    if name == "trefoil":
        return diagram_mod.generate_trefoil()
    if name == "torus4":
        if n is None:
            raise _UsageError(f"{name_flag} torus4 needs {n_flag}")
        if n < 0:
            raise _UsageError(f"{n_flag} must be >= 0, got {n}")
        return diagram_mod.generate_torus4(n)
    if name == "braid":
        if args.strands is None or args.word is None:
            raise _UsageError("--generate braid needs --strands and --word")
        try:
            word = [_integer(t) for t in args.word.split(",") if t.strip()]
        except argparse.ArgumentTypeError:
            raise _UsageError("--word must be comma-separated integers, "
                              f"got {args.word!r}") from None
        return diagram_mod.generate_negative_braid_closure(args.strands, word)
    raise _UsageError(f"unknown generator {name!r}")


def _input_text(args):
    """The text of --input, or None when --generate names the input."""
    if args.generate is not None and args.input is not None:
        raise _UsageError("--input and --generate are mutually exclusive")
    if args.generate is not None:
        return None
    if args.input is None:
        raise _UsageError("need --input PATH|- or --generate NAME")
    return _read_source(args.input)


def _load_diagram(args) -> diagram_mod.FrontDiagram:
    text = _input_text(args)
    return _generated(args) if text is None else diagram_mod.parse(text)


def _parse_ruling(text: str):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise _UsageError(f"--ruling must be a JSON array: {exc}") from exc
    # bool is a subclass of int, so JSON true would pass as ordinal 1.
    if not isinstance(data, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in data):
        raise _UsageError("--ruling must be a JSON array of integers")
    return frozenset(data)


def _emit(args, payload: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise _UsageError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(payload)


def _budget(args, default=None) -> int:
    """--budget, else CLASPLAB_BUDGET, else ``default`` (LISTING_BUDGET
    when None), which sets ``args.default_budget`` so that running out
    of it names --budget."""
    budget, source = args.budget, "--budget"
    if budget is None:
        env = os.environ.get("CLASPLAB_BUDGET")
        if not env:
            args.default_budget = True
            return LISTING_BUDGET if default is None else default
        try:
            budget, source = _integer(env), "CLASPLAB_BUDGET"
        except argparse.ArgumentTypeError:
            raise _UsageError(
                f"CLASPLAB_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise _UsageError(f"{source} must be >= 0, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> int:
    # A generated diagram is valid by construction, so every violation
    # lies in a parsed word, at an event that has a source line.
    text = _input_text(args)
    word, lines = (_generated(args).events, ()) if text is None \
        else diagram_mod.parse_with_lines(text)
    report = diagram_mod.validate(word)
    violations = [{"event": v.event_index, "line": lines[v.event_index - 1],
                   "rule": v.rule} for v in report.violations]
    if args.format == "text":
        body = "ok\n" if report.ok else "".join(
            f"violation at event {v['event']} (line {v['line']}): "
            f"{v['rule']}\n" for v in violations)
    else:
        body = _dumps({"ok": report.ok, "violations": violations})
    _emit(args, body)
    return 0 if report.ok else 1


def _cmd_rulings(args) -> int:
    from .rulings import enumerate_rulings
    diagram = _load_diagram(args)
    rulings = enumerate_rulings(diagram, budget=_budget(args))
    listed = [sorted(r) for r in rulings]
    if args.format == "text":
        body = "".join(_braced(r) + "\n" for r in listed)
        body = body or "(no normal rulings)\n"
    else:
        body = _dumps(listed)
    _emit(args, body)
    return 0


#: Per-subcommand (row of one ruling's report, text line of one row).
_REPORT_FORMATS = {
    "clasps": (lambda sw, report: {"switches": sw, **report.to_json()},
               lambda r: f"switches {_braced(r['switches'])}: "
                         f"{r['total']} clasps, {r['parity']}\n"),
    "parity": (lambda sw, report: {"switches": sw, "clasps": report.total,
                                   "parity": report.parity},
               lambda r: f"{_braced(r['switches'])}: {r['parity']}\n"),
}


def _cmd_reports(args) -> int:
    """``clasps`` and ``parity``: one row per ruling, or for --ruling."""
    from .clasps import clasp_report, ruling_reports
    diagram = _load_diagram(args)
    if args.ruling is not None:
        ruling = _parse_ruling(args.ruling)
        reports = [(ruling, clasp_report(diagram, ruling))]
    else:
        reports = ruling_reports(diagram, _budget(args))
    row, line = _REPORT_FORMATS[args.command]
    rows = [row(sorted(r), report) for r, report in reports]
    if args.format == "text":
        body = "".join(map(line, rows))
    else:
        body = _dumps(rows if args.ruling is None else rows[0])
    _emit(args, body)
    return 0


def _cmd_obstruct(args) -> int:
    from .fillability import obstruction_verdict
    diagram = _load_diagram(args)
    verdict = obstruction_verdict(diagram, budget=_budget(args))
    if args.format == "text":
        lines = [f"verdict: {verdict.verdict}\n"]
        for e in verdict.evidence:
            lines.append(f"  ruling {_braced(e.switches)}: "
                         f"{e.clasps} clasps, {e.parity}\n")
        if verdict.note:
            lines.append(f"note: {verdict.note}\n")
        body = "".join(lines)
    else:
        body = _dumps(verdict.to_json())
    _emit(args, body)
    return 0


def _cmd_cobordism(args) -> int:
    from .fillability import cobordism_parity_check
    if args.upper is not None and args.generate_upper is not None:
        raise _UsageError("--upper and --generate-upper are mutually "
                          "exclusive")
    lower = _load_diagram(args)
    if args.upper is not None:
        upper = diagram_mod.parse(_read_source(args.upper))
    elif args.generate_upper is not None:
        upper = _generated(args, upper=True)
    else:
        raise _UsageError("need --upper PATH or --generate-upper NAME")
    result = cobordism_parity_check(lower, upper, budget=_budget(args))
    if args.format == "text":
        body = f"{result.status}\n"
        if result.reason:
            body += f"reason: {result.reason}\n"
    else:
        body = _dumps(result.to_json())
    _emit(args, body)
    return 0


def _cmd_apply_script(args) -> int:
    from .fillability import run_script
    from .moves import parse_script
    text = _read_source(args.script)
    certificate = run_script(parse_script(text))
    if args.format == "text":
        body = (f"final diagram: {certificate.diagram}\n"
                f"ruling: {_braced(sorted(certificate.ruling))}\n"
                f"clasps: {certificate.report.total} "
                f"({certificate.report.parity})\n")
    else:
        body = _dumps(certificate.to_json())
    _emit(args, body)
    return 0


def _cmd_search(args) -> int:
    if args.depth is not None and args.depth < 0:
        raise _UsageError(f"--depth must be >= 0, got {args.depth}")
    from . import fillability
    depth = fillability.SEARCH_DEPTH if args.depth is None else args.depth
    diagram = _load_diagram(args)
    result = fillability.search_filling(
        diagram, depth_bound=depth,
        node_budget=_budget(args, fillability.SEARCH_NODE_BUDGET))
    if args.format == "text":
        body = f"{result.status}\n"
        if result.script is not None:
            body += "".join(str(m) + "\n" for m in result.script)
    else:
        body = _dumps(result.to_json())
    _emit(args, body)
    return 0


def _cmd_generate(args) -> int:
    diagram = _generated(args)
    _emit(args, diagram_mod.serialize(diagram))
    return 0


def _cmd_render(args) -> int:
    from .render import ascii_render, svg_render
    diagram = _load_diagram(args)
    ruling = _parse_ruling(args.ruling) if args.ruling is not None else None
    if args.style == "ascii":
        if ruling is not None:
            raise _UsageError("ascii rendering does not take --ruling")
        body = ascii_render(diagram)
    else:
        body = svg_render(diagram, ruling)
    _emit(args, body)
    return 0


# ---------------------------------------------------------------------------

def _add_io_flags(p, needs_diagram=True):
    if needs_diagram:
        p.add_argument("--input", "-i", metavar="PATH",
                       help="diagram file, or - for stdin")
        p.add_argument("--generate", choices=_GENERATORS,
                       help="synthesize the input instead of reading it")
        p.add_argument("--n", type=_integer, help="parameter for torus4")
        p.add_argument("--strands", type=_integer,
                       help="strand count for braid")
        p.add_argument("--word", help="comma-separated braid letters")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clasplab",
        description="Front diagrams, normal rulings, clasp parity, and "
                    "the decomposable-filling obstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {}

    def register(name, fn, needs_diagram=True):
        p = sub.add_parser(name)
        _add_io_flags(p, needs_diagram)
        if name in _BUDGETED:
            p.add_argument("--budget", type=_integer,
                           help="node budget for enumeration/search "
                                "(default: $CLASPLAB_BUDGET, else a "
                                "built-in bound)")
        handlers[name] = fn
        return p

    register("validate", _cmd_validate)
    register("rulings", _cmd_rulings)
    for name in _REPORT_FORMATS:
        p = register(name, _cmd_reports)
        p.add_argument("--ruling", help="JSON array of switch ordinals")
    register("obstruct", _cmd_obstruct)
    p = register("cobordism", _cmd_cobordism)
    p.add_argument("--upper", metavar="PATH",
                   help="upper diagram file for the parity test")
    p.add_argument("--generate-upper", choices=_UPPER_GENERATORS,
                   help="synthesize the upper diagram")
    p.add_argument("--upper-n", type=_integer,
                   help="torus4 parameter for --generate-upper")
    p = register("apply-script", _cmd_apply_script, needs_diagram=False)
    p.add_argument("--script", required=True, metavar="PATH",
                   help="move script file, or - for stdin")
    p = register("search", _cmd_search)
    p.add_argument("--depth", type=_integer, help="search depth bound")
    register("generate", _cmd_generate)
    p = register("render", _cmd_render)
    p.add_argument("--ruling", help="JSON array of switch ordinals")
    p.add_argument("--style", choices=("svg", "ascii"), default="svg")

    parser.set_defaults(handlers=handlers, default_budget=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = args.handlers[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except ClaspLabError as exc:
        message = str(exc)
        if args.default_budget and isinstance(exc, BudgetExceeded):
            message += " (the default budget; --budget N sets another)"
        sys.stderr.write(_dumps({"error": type(exc).__name__,
                                 "message": message}))
        return 1
    except MemoryError:
        pass  # written below: leaving the handler frees the failing frames
    message = "out of memory"
    if args.command in _BUDGETED:
        message += "; --budget N bounds the listing"
    sys.stderr.write(_dumps({"error": "MemoryError", "message": message}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
