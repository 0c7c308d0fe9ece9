"""One digest over outputs that speed-ups of the automaton core must keep.

The digest covers the serialized `compile_to_buchi` automata and the
`mso_satisfiable` witnesses of the 60 seed-9 depth-5 sentences at budget
1000 (the compile timings of the roadmap and the benchmark's sentence set),
and the `is_empty` witnesses of 300 seeded random automata.  A failing call
contributes its error class name.  A change that alters any state order,
transition set or witness changes the digest.
"""

from __future__ import annotations

import hashlib
import random

from helpers import random_automaton, random_sentence
from omegaword.buchi import format_automaton, is_empty
from omegaword.errors import OmegawordError
from omegaword.mso import compile_to_buchi, mso_satisfiable
from omegaword.words import format_word

PINNED = "0df2d3e2730cf494b19300c456b9e66f9ecc3c92e77d0bf53ce207e704fa3021"


def _outcome(call) -> str:
    try:
        return call()
    except OmegawordError as exc:
        return type(exc).__name__


def _sat_text(phi) -> str:
    sat, model = mso_satisfiable(phi, "ab", state_budget=1000)
    return f"sat {format_word(model.word)}" if sat else "unsat"


def _empty_text(a) -> str:
    empty, witness = is_empty(a)
    return "empty" if empty else format_word(witness)


def output_lines() -> list[str]:
    lines = []
    rng = random.Random(9)
    for _ in range(60):
        phi = random_sentence(rng, depth=5)
        lines.append(_outcome(lambda: format_automaton(
            compile_to_buchi(phi, "ab", state_budget=1000))))
        lines.append(_outcome(lambda: _sat_text(phi)))
    rng = random.Random(4)
    for k in range(300):
        lines.append(_empty_text(random_automaton(rng, max_states=4 if k < 200 else 10)))
    return lines


def test_outputs_match_pinned_digest():
    digest = hashlib.sha256("\n".join(output_lines()).encode()).hexdigest()
    assert digest == PINNED
