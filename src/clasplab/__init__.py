"""clasplab: combinatorics of Legendrian front diagrams.

Event-word fronts, normal ruling enumeration, clasp counts and parity,
the front move calculus with ruling transport, and the resulting
obstruction to building a link from the empty front by births, saddles
and isotopy moves.
"""

from .clasps import (ClaspReport, ClaspState, CrossingRecord, PairClasps,
                     Resolution, brute_pair_clasps, clasp_report, resolve,
                     ruling_reports)
from .diagram import (Event, FrontDiagram, StrandTrace, ValidationReport,
                      Violation, disjoint_union, generate_negative_braid_closure,
                      generate_torus4, generate_trefoil, generate_unknot,
                      lc, n_components, parse, rc, serialize, stacked_union,
                      trace_components, transpose_events, validate, x)
from .errors import (BudgetExceeded, ClaspLabError, EvennessViolation,
                     InternalInvariantError, InvalidBraidLetter,
                     InvalidDiagram, InvalidRuling, NotApplicable,
                     ParseError, ScriptError, TransportFailure, UnknownEye)
from .fillability import (CobordismParity, FillingCertificate,
                          ObstructionVerdict, SearchResult,
                          cobordism_parity_check, obstruction_verdict,
                          random_script, run_script, search_filling)
from .moves import (Move, RulingTransport, apply_move,
                    enumerate_applicable_moves, normalize, parse_script,
                    serialize_script)
from .render import ascii_render, svg_render
from .rulings import (EMPTY_RULING, NormalRuling, PairingState,
                      brute_force_rulings, enumerate_rulings,
                      is_normal_ruling, scan, switch_flags, switches_of)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ClaspLabError", "ClaspReport", "ClaspState",
    "CobordismParity", "CrossingRecord", "EMPTY_RULING", "EvennessViolation",
    "Event", "FillingCertificate", "FrontDiagram", "InternalInvariantError",
    "InvalidBraidLetter",
    "InvalidDiagram", "InvalidRuling", "Move", "NormalRuling",
    "NotApplicable", "ObstructionVerdict", "PairClasps", "PairingState",
    "ParseError", "Resolution", "RulingTransport", "ScriptError",
    "SearchResult", "StrandTrace", "TransportFailure", "UnknownEye",
    "ValidationReport", "Violation", "apply_move", "ascii_render",
    "brute_force_rulings", "brute_pair_clasps", "clasp_report",
    "cobordism_parity_check", "disjoint_union",
    "enumerate_applicable_moves", "enumerate_rulings",
    "generate_negative_braid_closure", "generate_torus4",
    "generate_trefoil", "generate_unknot", "is_normal_ruling", "lc",
    "n_components", "normalize", "obstruction_verdict", "parse",
    "parse_script", "random_script", "rc", "resolve", "ruling_reports",
    "run_script", "scan", "search_filling", "serialize", "serialize_script",
    "stacked_union", "svg_render", "switch_flags", "switches_of",
    "trace_components", "transpose_events", "validate", "x",
]
