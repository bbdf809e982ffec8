"""surfgen: production-rule surface realization.

Feature-structure documents (GIL) go in; a template grammar (TGL) of
precondition-action rules turns them into text; all solutions stream out
best-first under user criteria, with generated substrings reused across
alternatives through a table of backtrack points.
"""

from .engine import EngineError, Stats
from .gil import FeatureStructure, GilError, parse_gil
from .morpho import Lexicon, MorphoError, load_lexicon
from .prefs import (
    CriteriaError,
    CriteriaSpec,
    Criterion,
    best_first_stream,
    load_criteria,
    parse_criteria,
    rank_solutions,
)
from .session import GenerationSession, ResolvedNode, Solution
from .tgl import (
    Diagnostic,
    Grammar,
    Registries,
    Severity,
    TglError,
    format_grammar,
    parse_grammar,
    validate_grammar,
)

__version__ = "0.1.0"

__all__ = [
    # entry points
    "parse_gil", "parse_grammar", "validate_grammar", "format_grammar",
    "parse_criteria", "load_criteria", "load_lexicon", "best_first_stream",
    "rank_solutions", "GenerationSession", "Registries",
    # the types they return
    "CriteriaSpec", "Criterion", "Solution", "ResolvedNode", "Stats",
    "FeatureStructure", "Grammar", "Lexicon", "Diagnostic", "Severity",
    # the errors they raise
    "GilError", "TglError", "MorphoError", "CriteriaError", "EngineError",
]
