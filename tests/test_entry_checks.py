"""Inputs are checked where they enter; internal builders trust their callers.

`FiniteWord._of`, `UPWord._of`, `Interval._of` and `SeparatedWord._of` build
without a check.  Here each one is wrapped with the checks of its public
constructor while a sample of every layer that uses them runs: the bounded
partitions, the condition-(2) check, game plays with a JSON round trip, trio
membership, the trio's transducers and loop languages, the neutral-letter
sampler and the MSO layer.  No check may fail, and every builder must be
reached, so that the test cannot pass by calling none of them.
"""

import random
from collections import Counter

import pytest

from helpers import random_automaton, random_sentence
from omegaword.congruence import (arnold_classes_bounded, check_condition2_bounded,
                                  profile_kernel_classifier, right_classes_bounded)
from omegaword.errors import BudgetExceededError
from omegaword.game import (Interval, get_duplicator, get_spoiler, play_bounded,
                            transcript_from_json, transcript_to_json)
from omegaword.mso import LAtom, UPValuation, evaluate, indicator_set, mso_satisfiable
from omegaword.oracles import RegularOracle, get_oracle, neutral_letter_check
from omegaword.trio import (AnBnOracle, SeparatedWord, apply_transducer, format_separated,
                            loop_representation, member_L1, member_L2, parse_separated,
                            transducer)
from omegaword.words import Alphabet, FiniteWord, UPWord, alphabet, parse_word, up_word

AB = alphabet("ab")
BUILDERS = (FiniteWord, UPWord, Interval, SeparatedWord)


def _shape_faults(fields) -> list:
    """Field types the public constructors take for granted: letter and
    segment sequences are tuples, interval bounds are ints."""
    return [f"field {f!r} is a {type(f).__name__}" for f in fields
            if not isinstance(f, Alphabet) and type(f) not in (tuple, int)]


@pytest.fixture
def checked_builders(monkeypatch):
    """Counts the calls of each unchecked builder and records every input
    that its public constructor rejects or builds differently."""
    calls: Counter = Counter()
    faults: list = []
    for cls in BUILDERS:
        unchecked = cls._of

        def of(klass, *fields, cls=cls, unchecked=unchecked):
            calls[cls.__name__] += 1
            built = unchecked(*fields)
            problems = _shape_faults(fields)
            try:
                if cls(*fields) != built:
                    problems.append("the constructor builds a different value")
            except Exception as e:  # any rejection is a fault, recorded below
                problems.append(f"{type(e).__name__}: {e}")
            faults.extend(f"{cls.__name__}{fields!r}: {p}" for p in problems)
            return built

        monkeypatch.setattr(cls, "_of", classmethod(of))
    return calls, faults


def test_unchecked_builders_only_see_valid_input(checked_builders):
    calls, faults = checked_builders

    for name in ("U", "Uprime", "P", "primes"):
        for build in (arnold_classes_bounded, right_classes_bounded):
            build(get_oracle(name), word_bound=2, context_bound=2)

    rng = random.Random(2)
    for i in range(4):
        a = random_automaton(rng, 2 + i % 3)
        check_condition2_bounded(profile_kernel_classifier(a), RegularOracle(a),
                                 word_bound=2, cycle_bound=2)

    plays = [("blocks(a,b;affine 1 0)", "U", "diverging", "copy"),
             ("blocks(a,b;affine 1 0)", "U", "random", "random"),
             ("ab(aab)^w", "U", "diverging", "copy"),
             ("ab(aab)^w", "U", "diverging", "random"),
             ("blocks(a,b;constant 2)", "U", "random", "constant:a"),
             ("(aab1)^w", "Uprime", "diverging", "copy"),
             ("(aab1)^w", "Uprime", "random", "random"),
             ("blocks(a,b;affine 2 0)", "Uprime", "random", "copy"),
             ("b(ab)^w", "P", "random", "random"),
             ("blocks(a,b;ep 1|2 3)", "U", "diverging", "constant:a")]
    for k, (text, oracle, sp, du) in enumerate(plays):
        rng = random.Random(k)
        t = play_bounded(parse_word(text), get_oracle(oracle), get_spoiler(sp, rng),
                         get_duplicator(du, rng), horizon=6)
        js = transcript_to_json(t)
        assert transcript_to_json(transcript_from_json(js)) == js

    anbn = AnBnOracle()
    for text in ("ab#aabb", "a#aab", "#", "ba#ab", "aab#b"):
        member_L1(anbn, text)
    loops = loop_representation(anbn)
    assert loops.member(up_word("b", "ab", AB)) and not loops.member(up_word("", "a", AB))
    assert neutral_letter_check(get_oracle("Uprime"), samples=20, rng=random.Random(1)) is None
    copy_ab = transducer("ab", "ab", ["q"], ["q"], ["q"],
                         [("q", "a", "ab", "q"), ("q", "b", "", "q")])
    assert len(apply_transducer(copy_ab, FiniteWord(AB, ("a", "b", "a")))[0]) == 1
    for text in ("a#aa#a%#aa%#", "#%#", "a#", "b#ab#%#a%#", "ab#%#ab%#"):
        assert member_L2(anbn, text) == member_L2(anbn, parse_separated(text, AB))
        assert format_separated(parse_separated(text, AB)) == text

    rng = random.Random(9)
    for _ in range(10):
        phi = random_sentence(rng, depth=5)
        try:
            sat, model = mso_satisfiable(phi, "ab", state_budget=1000)
            if sat:
                assert evaluate(phi, model, state_budget=1000)
            evaluate(phi, UPValuation(word=up_word("a", "ab", AB)), state_budget=1000)
        except BudgetExceededError:
            pass
    partition = UPValuation(sets={"Xa": indicator_set("", "10"), "Xb": indicator_set("", "01")})
    assert not evaluate(LAtom("L", ("Xa", "Xb")), partition, {"L": get_oracle("U")})

    assert faults == []
    assert set(calls) == {cls.__name__ for cls in BUILDERS}, calls


def test_the_wrapper_reports_a_bad_input(checked_builders):
    """The fixture itself: an input the constructor rejects is recorded."""
    calls, faults = checked_builders
    FiniteWord._of(AB, ("c",))
    Interval._of(3, 1)
    UPWord._of(AB, (), ())
    assert calls == Counter({"FiniteWord": 1, "Interval": 1, "UPWord": 1})
    assert len(faults) == 3
