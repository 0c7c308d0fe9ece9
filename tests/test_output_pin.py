"""Digests over outputs that speed-ups of the automaton core must keep.

`PINNED` covers the serialized `compile_to_buchi` automata and the
`mso_satisfiable` witnesses of the 60 seed-9 depth-5 sentences at budget
1000 (the compile timings of the roadmap and the benchmark's sentence set),
and the `is_empty` witnesses of 300 seeded random automata.  A failing call
contributes its error class name.  A change that alters any state order,
transition set or witness changes the digest.

`PINNED_COMPLEMENT` covers the profile monoid and the complement of 300
more seeded random automata: each monoid's witness words, idempotent
indices and `unit`, and each serialized complement at state budget 2000.
A failing call contributes its error class and message.

`PINNED_GAME` covers bounded plays of the interval game: every word of the
benchmark's game workload against `U` and `Uprime` under every strategy pair
at horizons 10 and 50 (rng seed 0), and the diverging spoiler against the
copy duplicator on `blocks(a,b;affine 1 0)` at horizon 200.  Each play adds
its `transcript_to_json` text, then the `validate_transcript` messages of
copies whose V_i are shifted or stretched over non-a positions and of one
copy with an out-of-range scheme.  The transcript includes the materialized
family prefix, so the digest also pins how far round 2 reads the family.

`PINNED_CONDITION1` covers the classifier side: `check_condition1`,
`lemma_repair` (serialized) and `state_representatives` (in discovery order)
of seeded random classifiers, among them single-state ones and ones over
three letters where one letter acts like another, in alphabet orders that
differ from the letters' string order; and `profile_kernel_classifier`
(serialized) of seeded random automata, among them automata whose coded
letters share columns.  Small budgets add budget errors (class and message).
The digest is checked in fresh interpreters under several hash seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from helpers import (REPO, lifted_automaton, random_automaton, random_classifier,
                     random_sentence, run_python, twin_classifier)
from omegaword.buchi import (complement, format_automaton, is_empty, transition_monoid,
                             with_canonical_names)
from omegaword.congruence import (check_condition1, format_classifier, lemma_repair,
                                  profile_kernel_classifier, state_representatives)
from omegaword.errors import OmegawordError
from omegaword.game import (IndexScheme, Interval, get_duplicator, get_spoiler, play_bounded,
                            transcript_to_json, validate_transcript)
from omegaword.mso import compile_to_buchi, mso_satisfiable
from omegaword.oracles import get_oracle
from omegaword.words import format_word, parse_word

PINNED = "0df2d3e2730cf494b19300c456b9e66f9ecc3c92e77d0bf53ce207e704fa3021"
PINNED_COMPLEMENT = "99fc7b78126d7ea52df58c9e2f5265df97d7479d16f6743329e3343261f5659d"
PINNED_GAME = "9d575646973b4c217d840fd9752bc0f3dfeb08353c7c9db6afb7519c2257552a"


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


def _monoid_text(a) -> str:
    m = transition_monoid(a, budget=2000)
    witnesses = " ".join("".join(w.letters) for w in m.witnesses)
    return f"{witnesses} | {m.idempotents()} | {m.unit}"


def complement_lines() -> list[str]:
    lines = []
    rng = random.Random(7)
    for count, max_states, letters in ((200, 4, "ab"), (60, 6, "ab"), (40, 4, "abc")):
        for _ in range(count):
            a = random_automaton(rng, max_states=max_states, letters=letters)
            for call in (lambda: _monoid_text(a), lambda: format_automaton(
                    with_canonical_names(complement(a, state_budget=2000)))):
                try:
                    lines.append(call())
                except OmegawordError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
    return lines


def test_complement_and_monoid_match_pinned_digest():
    digest = hashlib.sha256("\n".join(complement_lines()).encode()).hexdigest()
    assert digest == PINNED_COMPLEMENT


GAME_WORDS = ("blocks(a,b;affine 1 0)", "blocks(a,b;affine 2 1)", "(aab)^w",
              "blocks(a,b;constant 3)", "b(aaaab)^w")
GAME_STRATEGIES = (("random", "copy"), ("random", "random"), ("random", "constant"),
                   ("diverging", "copy"), ("diverging", "random"),
                   ("diverging", "constant"))


def _tampered(t) -> list:
    """Illegal copies of a played transcript: V_i moved one position either
    way, V_i stretched by seven positions, and a scheme past the horizon."""
    def chosen(f):
        return replace(t, chosen=tuple(f(v) for v in t.chosen))

    return [chosen(lambda v: Interval(v.first + 1, v.last + 1)),
            chosen(lambda v: Interval(max(v.first - 1, 0), v.last - 1 if v.first else v.last)),
            chosen(lambda v: Interval(v.first, v.last + 7)),
            replace(t, scheme=IndexScheme((), (t.horizon + 1,)))]


def game_lines() -> list[str]:
    plays = [(w, o, sp, du, h) for h in (10, 50) for w in GAME_WORDS
             for o in ("U", "Uprime") for sp, du in GAME_STRATEGIES]
    plays.append(("blocks(a,b;affine 1 0)", "U", "diverging", "copy", 200))
    lines = []
    for w, o, sp, du, h in plays:
        rng = random.Random(0)
        t = play_bounded(parse_word(w), get_oracle(o), get_spoiler(sp, rng),
                         get_duplicator(du, rng), horizon=h)
        lines.append(transcript_to_json(t))
        for bad in _tampered(t):
            lines.append(" | ".join(validate_transcript(bad)))
    return lines


def test_game_plays_match_pinned_digest():
    digest = hashlib.sha256("\n".join(game_lines()).encode()).hexdigest()
    assert digest == PINNED_GAME


PINNED_CONDITION1 = "fbcb2286b33bb1083e116e1ed4aaa4cb25784033eec97854c02080f70b0ae0c0"


def _spelled(*words) -> str:
    return " ".join(".".join(w) or "-" for w in words)


def _violation_text(c, budget: int) -> str:
    v = check_condition1(c, budget=budget)
    if v is None:
        return "holds"
    return " ".join([v.side, _spelled(v.u.letters, v.u_prime.letters, v.w.letters),
                     v.class_before, *v.classes_after])


def _pinned(lines: list, call) -> None:
    try:
        lines.append(call())
    except OmegawordError as exc:
        lines.append(f"{type(exc).__name__}: {exc}")


def condition1_lines() -> list[str]:
    lines = []
    rng = random.Random(23)
    classifiers = ([random_classifier(rng, max_states=6) for _ in range(120)]
                   + [random_classifier(rng, max_states=1) for _ in range(5)]
                   + [twin_classifier(rng, max_states=k) for k in (1, 3, 5) for _ in range(25)])
    for k, c in enumerate(classifiers):
        reps = state_representatives(c)
        lines.append(" ".join(f"{q}:{_spelled(w)}" for q, w in reps.items()))
        _pinned(lines, lambda: _violation_text(c, 200000))
        _pinned(lines, lambda: format_classifier(lemma_repair(c)))
        if k % 4 == 0:
            for budget in (1, 2, 3, 5, 8):
                _pinned(lines, lambda: _violation_text(c, budget))
            _pinned(lines, lambda: format_classifier(lemma_repair(c, budget=6)))
    rng = random.Random(29)
    automata = ([random_automaton(rng, max_states=3) for _ in range(40)]
                + [random_automaton(rng, max_states=3, letters="abc") for _ in range(15)]
                + [lifted_automaton(rng, tracks=1, max_states=3) for _ in range(15)])
    for k, a in enumerate(automata):
        for budget in (2000, 1, 2, 5) if k % 5 == 0 else (2000,):
            _pinned(lines, lambda: format_classifier(profile_kernel_classifier(a, budget=budget)))
    return lines


def condition1_digest() -> str:
    return hashlib.sha256("\n".join(condition1_lines()).encode()).hexdigest()


def test_condition1_outputs_match_pinned_digest():
    assert condition1_digest() == PINNED_CONDITION1


@pytest.mark.parametrize("hash_seed", ["0", "1", "12345"])
def test_condition1_digest_under_hash_seeds(hash_seed, monkeypatch):
    monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
    proc = run_python(["-c", f"import sys; sys.path.insert(0, {str(REPO / 'tests')!r}); "
                             "from test_output_pin import condition1_digest; "
                             "print(condition1_digest())"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PINNED_CONDITION1
