"""clasplab: combinatorics of Legendrian front diagrams.

Event-word fronts, normal ruling enumeration, clasp counts and parity,
the front move calculus with ruling transport, and the resulting
obstruction to building a link from the empty front by births, saddles
and isotopy moves.

Names resolve lazily (PEP 562): importing the package loads no
submodule, and the first use of a public name imports its home module.
So ``import clasplab`` is cheap, and each CLI subcommand loads only the
modules it runs.
"""

from importlib import import_module as _import_module

#: The public names, by home module.
_NAMES = {
    "clasps": """ClaspReport ClaspState CrossingRecord PairClasps Resolution
        clasp_report resolve ruling_reports""",
    "diagram": """Event FrontDiagram StrandTrace ValidationReport Violation
        generate_negative_braid_closure generate_torus4 generate_trefoil
        generate_unknot lc parse rc serialize trace_components
        transpose_events validate x""",
    "errors": """BudgetExceeded ClaspLabError EvennessViolation
        InvalidBraidLetter InvalidDiagram InvalidRuling NotApplicable
        ParseError ScriptError TransportFailure""",
    "fillability": """CobordismParity FillingCertificate ObstructionVerdict
        SearchResult cobordism_parity_check obstruction_verdict
        random_script run_script search_filling""",
    "moves": """Move RulingTransport apply_move enumerate_applicable_moves
        parse_script serialize_script""",
    "render": "ascii_render svg_render",
    "rulings": """PairingState enumerate_rulings is_normal_ruling scan
        switch_flags switches_of""",
}
_HOMES = {name: module for module, names in _NAMES.items()
          for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
