"""Finitely presented infinite words, and the machinery that tells their
languages apart: Büchi automata with a full boolean algebra, bounded
congruence computations, a two-player interval game with executable
strategies, a second-order formula layer with language predicates, and a
finite-word reduction pipeline.

The usual imports:

>>> from omegaword import up_word, automaton, accepts_up, get_oracle

``import omegaword`` loads none of the submodules.  `_PUBLIC` lists each
public name under the module that defines it; the first use of a name
imports that module (and what it imports) and binds the name here, so
``from omegaword import parse_automaton`` loads only `errors`, `words` and
`buchi`.  A submodule name such as ``omegaword.game`` resolves the same
way.  ``__all__`` and ``dir()`` are read from the same table.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "buchi": (
        "BuchiAutomaton", "accepts_up", "automaton", "complement",
        "format_automaton", "intersect", "is_empty", "parse_automaton",
        "transition_monoid", "union",
    ),
    "congruence": (
        "Classifier", "arnold_classes_bounded", "check_condition1",
        "check_condition2_bounded", "classifier", "format_classifier",
        "lemma_repair", "parse_classifier", "profile_kernel_classifier",
        "right_classes_bounded",
    ),
    "errors": (
        "AlphabetMismatchError", "BudgetExceededError", "FormatError",
        "IllegalMoveError", "OmegawordError", "UnsupportedFormulaError",
        "UnsupportedWordError",
    ),
    "game": (
        "GameTranscript", "adjudicate", "get_duplicator", "get_spoiler",
        "play_bounded", "transcript_from_json", "transcript_to_json",
        "validate_transcript",
    ),
    "mso": (
        "UPValuation", "compile_to_buchi", "encode_congruence_game",
        "evaluate", "format_formula", "mso_satisfiable", "parse_formula",
    ),
    "oracles": ("LanguageOracle", "get_oracle"),
    "trio": (
        "AnBnOracle", "RationalTransducer", "SeparatedWord",
        "apply_transducer", "get_finite_oracle", "loop_representation",
        "member_L1", "member_L2", "parse_separated", "project_to_separators",
        "right_congruence_finite", "transducer",
    ),
    "words": (
        "Alphabet", "BlockWord", "FiniteWord", "UPWord", "alphabet",
        "apply_hom", "canonical", "finite_word", "format_word",
        "homomorphism", "parse_word", "to_up_word", "up_equal", "up_word",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _PUBLIC:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_MODULE_OF, *_PUBLIC})
