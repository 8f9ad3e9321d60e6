"""clasplab: combinatorics of Legendrian front diagrams.

Event-word fronts, normal ruling enumeration, clasp counts and parity,
the front move calculus with ruling transport, and the resulting
obstruction to building a link from the empty front by births, saddles
and isotopy moves.
"""

from .clasps import (ClaspReport, CrossingRecord, PairClasps, Resolution,
                     brute_pair_clasps, clasp_intervals, clasp_report,
                     count_clasps_pair, parity, resolve)
from .diagram import (Event, FrontDiagram, StrandTrace, ValidationReport,
                      Violation, disjoint_union, generate_negative_braid_closure,
                      generate_torus4, generate_trefoil, generate_unknot,
                      lc, n_components, parse, rc, serialize, stacked_union,
                      trace_components, transpose_events, validate, x)
from .errors import (BudgetExceeded, ClaspLabError, EvennessViolation,
                     InvalidBraidLetter, InvalidDiagram, InvalidRuling,
                     NotApplicable, OutOfDomain, ParseError, SameEye,
                     ScriptError, TransportFailure, UnknownEye)
from .fillability import (CobordismParity, FillingCertificate, MoveScript,
                          ObstructionVerdict, SearchResult,
                          cobordism_parity_check, obstruction_verdict,
                          random_script, run_script, search_filling)
from .moves import (Move, RulingTransport, apply_move,
                    enumerate_applicable_moves, normalize, parse_script,
                    serialize_script, transport_ruling)
from .render import ascii_render, svg_render
from .rulings import (EMPTY_RULING, NormalRuling, PairingState,
                      brute_force_rulings, enumerate_rulings,
                      is_normal_ruling, pairing_state_at, switch_allowed)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ClaspLabError", "ClaspReport", "CobordismParity",
    "CrossingRecord", "EMPTY_RULING", "Event", "EvennessViolation",
    "FillingCertificate", "FrontDiagram", "InvalidBraidLetter",
    "InvalidDiagram", "InvalidRuling", "Move", "MoveScript", "NormalRuling",
    "NotApplicable", "ObstructionVerdict", "OutOfDomain", "PairClasps",
    "PairingState", "ParseError", "Resolution", "RulingTransport", "SameEye",
    "ScriptError", "SearchResult", "StrandTrace", "TransportFailure",
    "UnknownEye", "ValidationReport", "Violation", "apply_move",
    "ascii_render", "brute_force_rulings", "brute_pair_clasps",
    "clasp_intervals", "clasp_report", "cobordism_parity_check",
    "count_clasps_pair", "disjoint_union", "enumerate_applicable_moves",
    "enumerate_rulings", "generate_negative_braid_closure", "generate_torus4",
    "generate_trefoil", "generate_unknot", "is_normal_ruling", "lc",
    "n_components", "normalize", "obstruction_verdict", "pairing_state_at",
    "parity", "parse", "parse_script", "random_script", "rc", "resolve",
    "run_script", "search_filling", "serialize", "serialize_script",
    "stacked_union", "svg_render", "switch_allowed", "trace_components",
    "transport_ruling", "transpose_events", "validate", "x",
]
