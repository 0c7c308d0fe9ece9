import random
from itertools import permutations, product

import pytest

from omegaword.buchi import format_automaton
from omegaword.congruence import (
    GrowingBlockSequence,
    PeriodicWordSequence,
    check_condition1,
    classifier,
    profile_kernel_classifier,
    validate_condition2_witness,
)
from omegaword.errors import (
    AlphabetMismatchError,
    DegenerateErasureError,
    FormatError,
    UnsupportedWordError,
)
from omegaword.oracles import (
    LanguageOracle,
    LassoOracle,
    NeutralOracle,
    PrimeBlocksOracle,
    RegularOracle,
    SingletonOracle,
    UnboundedBlocksOracle,
    get_oracle,
    neutral_letter_check,
)
from omegaword.words import (
    alphabet,
    finite_word,
    parse_word,
    to_up_word,
    up_word,
)

from helpers import random_automaton

AB = alphabet("ab")
AB1 = alphabet("ab1")


def w(text):
    return parse_word(text)


class TestUnboundedBlocks:
    def test_lasso_words(self):
        u = UnboundedBlocksOracle()
        assert u.member(w("(a)^w"))
        assert u.member(w("bbb(a)^w"))
        assert not u.member(w("(ab)^w"))
        assert not u.member(w("aaaa(ba)^w"))
        assert not u.member(w("(b)^w"))

    def test_block_words(self):
        u = UnboundedBlocksOracle()
        assert u.member(w("blocks(a,b;affine 1 0)"))
        assert u.member(w("blocks(a,b;affine 2 5)"))
        assert not u.member(w("blocks(a,b;constant 3)"))
        assert not u.member(w("blocks(a,b;ep 1|2 3)"))
        # growing b-blocks cap the a-runs at zero
        assert not u.member(w("blocks(b,a;affine 1 0)"))

    def test_finite_word_unsupported(self):
        with pytest.raises(UnsupportedWordError):
            UnboundedBlocksOracle().member(finite_word("ab", AB))

    def test_embedding(self):
        u = UnboundedBlocksOracle()
        assert u.member(up_word("", "a", alphabet("a")))
        with pytest.raises(AlphabetMismatchError):
            u.member(up_word("", "ac", alphabet("abc")))

    def test_bounded_block_word_embeds_by_the_letters_it_spells(self):
        # every block of 1s is empty: the word is a^omega and never shows a 1
        u = get_oracle("U")
        assert u.member(w("blocks(1,a;constant 0)")) is u.member(w("(a)^w")) is True
        assert u.member(w("blocks(1,b;ep 0|0)")) is u.member(w("(b)^w")) is False
        with pytest.raises(AlphabetMismatchError):
            u.member(w("blocks(1,a;constant 1)"))
        with pytest.raises(AlphabetMismatchError):
            u.member(w("blocks(1,a;affine 1 0)"))


class TestNeutralUnboundedBlocks:
    def test_erasure_semantics(self):
        o = get_oracle("Uprime")
        assert o.member(w("(a1)^w"))
        assert o.member(w("b11(1a)^w"))
        assert not o.member(w("(ab1)^w"))
        assert not o.member(w("1(1ba)^w"))
        assert o.member(w("(a)^w"))

    def test_degenerate_erasure(self):
        o = get_oracle("Uprime")
        with pytest.raises(DegenerateErasureError):
            o.member(w("(1)^w"))
        with pytest.raises(DegenerateErasureError):
            o.member(w("ab(1)^w"))

    def test_block_words_with_neutral_pieces(self):
        o = get_oracle("Uprime")
        assert o.member(w("blocks(a,b;affine 1 0)"))
        assert o.member(w("blocks(a,1;affine 1 0)"))
        assert o.member(w("blocks(a,1;constant 2)"))
        assert o.member(w("blocks(1,a;constant 3)"))
        assert not o.member(w("blocks(1,b;constant 3)"))
        assert not o.member(w("blocks(b,1;affine 1 0)"))
        with pytest.raises(DegenerateErasureError):
            o.member(w("blocks(b,1;constant 0)"))

    def test_agrees_with_plain_oracle_on_neutral_free_words(self):
        o, u = get_oracle("Uprime"), UnboundedBlocksOracle()
        rng = random.Random(5)
        for _ in range(100):
            p = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 3)))
            v = tuple(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
            word = up_word(p, v, AB)
            assert o.member(word) == u.member(word)

    def test_neutral_letter_check_passes(self):
        o = get_oracle("Uprime")
        assert neutral_letter_check(o, samples=150, rng=random.Random(1)) is None

    def test_neutral_letter_check_needs_neutral(self):
        with pytest.raises(UnsupportedWordError):
            neutral_letter_check(UnboundedBlocksOracle(), samples=1,
                                 rng=random.Random(0))

    def test_neutral_letter_check_needs_a_neutral_letter_of_the_alphabet(self):
        outside = get_oracle("Uprime")
        outside.neutral_letter = "2"
        with pytest.raises(AlphabetMismatchError, match="letter '2' is not in alphabet"):
            neutral_letter_check(outside, samples=1, rng=random.Random(0))

    def test_neutral_letter_check_catches_fakes(self):
        class Fake(NeutralOracle):
            def decide(self, word):  # the check samples lasso words only
                return "1" in word.prefix  # blatantly not neutral

        fake = Fake(UnboundedBlocksOracle(), "1")
        bad = neutral_letter_check(fake, samples=150, rng=random.Random(2))
        assert bad is not None
        assert bad["expected"] != bad["got"]


class TestNeutralOracle:
    """Uprime is `neutral:U` under its old name.  Its verdicts are checked
    against U on erasures that the tests build themselves."""

    DEGENERATE = "erasing the neutral letter leaves a finite word"

    @staticmethod
    def erase(z):
        return "".join(x for x in z if x != "1")

    def test_uprime_is_the_wrapper_of_u(self):
        o = get_oracle("Uprime")
        assert isinstance(o, NeutralOracle) and type(o.base) is UnboundedBlocksOracle
        assert (o.name, o.alphabet, o.neutral_letter) == ("Uprime", AB1, "1")
        assert o.has_violation_finder

    def test_lassos_are_decided_by_u_on_their_erasure(self):
        o, u = get_oracle("Uprime"), UnboundedBlocksOracle()
        for n, m in product(range(4), range(1, 4)):
            for p, v in product(product("ab1", repeat=n), product("ab1", repeat=m)):
                word = up_word(p, v, AB1)
                if set(v) == {"1"}:
                    with pytest.raises(DegenerateErasureError) as exc:
                        o.member(word)
                    assert str(exc.value) == self.DEGENERATE
                else:
                    assert o.member(word) is u.member(
                        up_word(self.erase(p), self.erase(v), AB)), word

    def test_block_words_of_every_letter_pair(self):
        o, u = get_oracle("Uprime"), UnboundedBlocksOracle()
        for block, sep in permutations("ab1", 2):
            for spec in ("constant 0", "constant 2", "ep 1|1 2", "ep 3 0|0 1"):
                word = w(f"blocks({block},{sep};{spec})")
                lasso = to_up_word(word)
                if set(lasso.period) == {"1"}:
                    with pytest.raises(DegenerateErasureError) as exc:
                        o.member(word)
                    assert str(exc.value) == self.DEGENERATE
                else:
                    assert o.member(word) is u.member(up_word(
                        self.erase(lasso.prefix), self.erase(lasso.period), AB)), word
            for spec in ("affine 1 0", "affine 2 3"):
                # the growing blocks of the non-neutral letter, or its omega-power
                expected = (sep if block == "1" else block) == "a"
                assert o.member(w(f"blocks({block},{sep};{spec})")) is expected

    @pytest.mark.parametrize("base", ["U", "P", "primes", "singleton:a(ab)^w",
                                      "singleton:blocks(a,b;affine 1 0)", "regular"])
    def test_every_registry_base_passes_neutral_letter_check(self, base, tmp_path):
        if base == "regular":
            path = tmp_path / "aut.txt"
            path.write_text(format_automaton(random_automaton(random.Random(4))))
            base = f"regular:{path}"
        o = get_oracle(f"neutral:{base}")
        assert (o.name, o.neutral_letter) == (f"neutral:{base}", "1")
        assert o.alphabet.letters == get_oracle(base).alphabet.letters + ("1",)
        assert neutral_letter_check(o, samples=500, rng=random.Random(3)) is None

    def test_finder_is_the_bases(self):
        assert get_oracle("neutral:U").has_violation_finder
        assert not get_oracle("neutral:P").has_violation_finder
        c = classifier(AB, ("q",), "q", {("q", "a"): "q", ("q", "b"): "q"}, {"q": "all"})
        with pytest.raises(UnsupportedWordError, match="^neutral:P has no violation finder$"):
            get_oracle("neutral:P").find_condition2_violation(c)

    def test_registry_rejects_a_base_without_room_for_the_letter(self):
        with pytest.raises(FormatError, match="Uprime already has the letter 1"):
            get_oracle("neutral:Uprime")
        with pytest.raises(FormatError, match="unknown oracle 'nope'"):
            get_oracle("neutral:nope")


class TestLassoOracle:
    def test_membership(self):
        p = LassoOracle()
        assert p.member(w("(ab)^w"))
        assert p.member(w("bbb(a)^w"))
        assert p.member(w("blocks(a,b;constant 2)"))
        assert p.member(w("blocks(a,b;ep 1 2|3)"))
        assert not p.member(w("blocks(a,b;affine 1 0)"))


class TestPrimeBlocks:
    def test_periods(self):
        pr = PrimeBlocksOracle()
        assert pr.member(w("(aab)^w"))
        assert pr.member(w("(aaab)^w"))
        assert not pr.member(w("(ab)^w"))
        assert not pr.member(w("(aaaab)^w"))
        assert pr.member(w("(" + "a" * 7 + "b)^w"))
        assert not pr.member(w("(a)^w"))
        assert not pr.member(w("(abab)^w"))  # primitive root ab, n = 1

    def test_prefix_irrelevant_and_rotations(self):
        pr = PrimeBlocksOracle()
        assert pr.member(w("bbbb(aab)^w"))
        assert pr.member(w("a(aba)^w"))  # same word as (aab)^w after a shift

    def test_blocks(self):
        pr = PrimeBlocksOracle()
        assert pr.member(w("blocks(a,b;constant 3)"))
        assert not pr.member(w("blocks(a,b;constant 4)"))
        assert not pr.member(w("blocks(a,b;affine 1 0)"))


class TestSingleton:
    def test_lasso_target(self):
        s = SingletonOracle(w("(ab)^w"))
        assert s.member(w("(ab)^w"))
        assert s.member(w("a(ba)^w"))  # the same word, presented differently
        assert not s.member(w("(ba)^w"))
        assert not s.member(w("blocks(a,b;affine 1 0)"))
        assert s.member(w("blocks(a,b;constant 1)"))  # (ab)^w again

    def test_growing_target(self):
        s = SingletonOracle(w("blocks(a,b;affine 1 0)"))
        assert s.member(w("blocks(a,b;affine 1 0)"))
        assert not s.member(w("blocks(a,b;affine 2 0)"))
        assert not s.member(w("(ab)^w"))

    def test_finite_target_rejected(self):
        with pytest.raises(UnsupportedWordError):
            SingletonOracle(finite_word("ab", AB))


class TestRegularOracle:
    def test_membership_and_limits(self, tmp_path):
        rng = random.Random(9)
        a = random_automaton(rng)
        o = RegularOracle(a)
        from omegaword.buchi import accepts_up
        for _ in range(50):
            word = up_word(
                tuple(rng.choice("ab") for _ in range(rng.randrange(0, 3))),
                tuple(rng.choice("ab") for _ in range(rng.randrange(1, 4))), AB)
            assert o.member(word) == accepts_up(a, word)
        with pytest.raises(UnsupportedWordError):
            o.member(w("blocks(a,b;affine 1 0)"))


def test_bounded_block_words_are_decided_as_their_lassos():
    """Every oracle gives a block word with bounded lengths over its
    alphabet the verdict, or the error, of the lasso word it spells."""
    from omegaword.trio import AnBnOracle, loop_representation

    rng = random.Random(17)
    oracles = [get_oracle(name) for name in ("U", "Uprime", "P", "primes")]
    oracles += [SingletonOracle(w("a(ab)^w")), SingletonOracle(w("blocks(a,b;ep 1|1 2)")),
                RegularOracle(random_automaton(rng)), loop_representation(AnBnOracle())]

    def outcome(o, word):
        try:
            return o.member(word)
        except (DegenerateErasureError, UnsupportedWordError, AlphabetMismatchError) as exc:
            return type(exc), str(exc)

    specs = ["constant 0", "constant 2", "ep 1|1 2", "ep 3 0|0 1", "ep 2|0"]
    for o in oracles:
        pairs = [(x, y) for x in o.alphabet for y in o.alphabet if x != y]
        for (block, sep), spec in product(pairs, specs):
            word = w(f"blocks({block},{sep};{spec})")
            assert outcome(o, word) == outcome(o, to_up_word(word)), (o.name, word)


class SpyOracle(LanguageOracle):
    """Records every word its `decide` sees, and answers True."""

    def __init__(self, letters):
        self.alphabet = letters
        self.seen = []

    def decide(self, word):
        self.seen.append(word)
        return True


class TestOneHook:
    """`member` normalizes a word once and hands it to `decide`, the one
    method an oracle defines."""

    def test_base_decide_names_the_presentation(self):
        class Bare(LanguageOracle):
            name = "bare"

        with pytest.raises(UnsupportedWordError, match="^bare does not decide lasso words$"):
            Bare().member(w("(ab)^w"))
        with pytest.raises(UnsupportedWordError, match="^bare does not decide lasso words$"):
            Bare().member(w("blocks(a,b;constant 2)"))
        with pytest.raises(UnsupportedWordError, match="^bare does not decide block words$"):
            Bare().member(w("blocks(a,b;affine 1 0)"))

    def test_decide_sees_a_lasso_or_a_growing_block_word_over_the_alphabet(self):
        spy = SpyOracle(AB1)
        for text in ("(a)^w", "b(ab)^w", "blocks(a,b;ep 1|0 2)", "blocks(b,1;affine 1 0)"):
            assert spy.member(w(text))
        with pytest.raises(UnsupportedWordError):
            spy.member(finite_word("ab", AB))
        assert [x.text() for x in spy.seen] == ["(a)^w", "b(ab)^w", "ab(baab)^w",
                                                "blocks(b,1;affine 1 0)"]
        assert all(x.alphabet == AB1 for x in spy.seen)

    def test_the_neutral_wrapper_hands_its_base_words_over_the_base_alphabet(self):
        spy = SpyOracle(AB)
        wrapper = NeutralOracle(spy, "1")
        for text in ("1a(1b)^w", "blocks(a,b;affine 1 0)", "blocks(1,b;affine 1 0)"):
            assert wrapper.member(parse_word(text, AB1))
        assert [x.text() for x in spy.seen] == ["a(b)^w", "blocks(a,b;affine 1 0)", "(b)^w"]
        assert all(x.alphabet == AB for x in spy.seen)

    def test_every_oracle_class_defines_decide_once(self):
        from omegaword.trio import AnBnOracle, loop_representation

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        ours = {c for c in subclasses(LanguageOracle) if c.__module__.startswith("omegaword.")}
        assert ours == {UnboundedBlocksOracle, LassoOracle, PrimeBlocksOracle, SingletonOracle,
                        RegularOracle, NeutralOracle, type(loop_representation(AnBnOracle()))}
        for c in ours:
            assert "decide" in vars(c), c.__name__
            assert not [k for k in dir(c) if k.startswith("membership")], c.__name__


class TestRegistry:
    def test_names(self):
        assert get_oracle("U").name == "U"
        assert get_oracle("Uprime").neutral_letter == "1"
        assert get_oracle("P").member(w("(ab)^w"))
        assert get_oracle("primes").member(w("(aab)^w"))
        s = get_oracle("singleton:a(b)^w")
        assert s.member(w("a(b)^w")) and not s.member(w("(b)^w"))
        with pytest.raises(FormatError):
            get_oracle("nonsense")

    def test_regular_from_file(self, tmp_path):
        a = random_automaton(random.Random(3))
        path = tmp_path / "aut.txt"
        path.write_text(format_automaton(a))
        o = get_oracle(f"regular:{path}")
        assert o.alphabet == a.alphabet


class TestViolationFinder:
    def test_trivial_classifier(self):
        c = classifier(AB, ("q",), "q",
                       {("q", "a"): "q", ("q", "b"): "q"}, {"q": "all"})
        u = UnboundedBlocksOracle()
        witness = u.find_condition2_violation(c)
        assert validate_condition2_witness(c, u, witness)
        assert witness.original_member != witness.replaced_member
        assert isinstance(witness.original, GrowingBlockSequence)
        # every factor is replaced by the empty word: the first note that
        # applies is the replacement product's own
        assert witness.replaced_product is None
        assert witness.note == "product is a finite word"

    def test_growing_candidate_is_one_word(self):
        """U's finder lists the factors of one growing word, whose product is
        that word itself, not a copy built per call."""
        for oracle in (UnboundedBlocksOracle(), get_oracle("Uprime")):
            for c in (classifier(AB, ("q",), "q", {("q", "a"): "q", ("q", "b"): "q"},
                                 {"q": "all"}),
                      classifier(AB, ("e", "qa", "qb"), "e",
                                 {(q, x): "q" + x for q in ("e", "qa", "qb") for x in "ab"},
                                 {"e": "e", "qa": "A", "qb": "B"})):
                witness = oracle.find_condition2_violation(c)
                assert isinstance(witness.original, GrowingBlockSequence)
                assert witness.original_product is witness.original.product()
                assert witness.original_product == parse_word("blocks(a,b;affine 1 0)")

    def test_growing_candidate_note(self):
        # the class of a^i b is "ends in b", represented by b: b^omega
        c = classifier(AB, ("e", "qa", "qb"), "e",
                       {(q, x): "q" + x for q in ("e", "qa", "qb") for x in "ab"},
                       {"e": "e", "qa": "A", "qb": "B"})
        witness = UnboundedBlocksOracle().find_condition2_violation(c)
        assert witness.replaced_product == up_word("", "b", AB)
        assert witness.note == "growing blocks vs bounded replacement"

    def test_parity_classifier_needs_second_candidate(self):
        # length parity: every replacement erases to a or eps, so the
        # growing sequence's replacement is still a member and the finder
        # must fall back to a constant sequence
        c = classifier(AB, ("p0", "p1"), "p0",
                       {("p0", "a"): "p1", ("p0", "b"): "p1",
                        ("p1", "a"): "p0", ("p1", "b"): "p0"},
                       {"p0": "even", "p1": "odd"})
        assert check_condition1(c) is None
        u = UnboundedBlocksOracle()
        witness = u.find_condition2_violation(c)
        assert validate_condition2_witness(c, u, witness)
        assert isinstance(witness.original, PeriodicWordSequence)
        assert witness.original_member is False
        assert witness.replaced_member is True
        assert witness.note == "constant blocks vs all-a replacement tail"

    def test_kernel_classifiers_always_lose(self):
        rng = random.Random(21)
        u = UnboundedBlocksOracle()
        for _ in range(10):
            a = random_automaton(rng)
            c = profile_kernel_classifier(a)
            witness = u.find_condition2_violation(c)
            assert validate_condition2_witness(c, u, witness)

    def test_neutral_oracle_finder(self):
        rng = random.Random(22)
        o = get_oracle("Uprime")
        for letters in ("ab", "ab1"):
            for _ in range(5):
                a = random_automaton(rng, letters=letters)
                c = profile_kernel_classifier(a)
                witness = o.find_condition2_violation(c)
                assert validate_condition2_witness(c, o, witness)

    def test_needs_ab(self):
        c = classifier(alphabet("a"), ("q",), "q", {("q", "a"): "q"}, {"q": "x"})
        with pytest.raises(UnsupportedWordError):
            UnboundedBlocksOracle().find_condition2_violation(c)


# ---------------------------------------------------------------------------
# every registry form's verdicts on a fixed word set, pinned by one digest

PINNED_VERDICTS = "0b34de47cc928dd918fbc30b0a03b87e7377b6f361b241f37d104ba060f6b0d5"

INFINITELY_MANY_B = """alphabet a b
states p q
initial p
accepting q
p a p
p b q
q a p
q b q
"""


def _pin_words(alpha) -> list:
    """Every lasso over `alpha` with prefix length at most 2 and period
    length 1 or 2; every block word over two of its letters with bounded
    and with growing lengths; and three words outside the oracle's domain
    or alphabet."""
    letters = alpha.letters
    words = [up_word(p, v, alpha) for n in range(3) for m in (1, 2)
             for p in product(letters, repeat=n) for v in product(letters, repeat=m)]
    specs = ("constant 0", "constant 2", "ep 1|0 2", "affine 1 0", "affine 2 1")
    words += [parse_word(f"blocks({x},{y};{spec})", alpha)
              for x, y in permutations(letters, 2) for spec in specs]
    words += [finite_word("ab", AB), parse_word("(a)^w"), parse_word("(ac)^w")]
    return words


def _verdict(oracle, word) -> str:
    try:
        return str(oracle.member(word))
    except (AlphabetMismatchError, DegenerateErasureError, UnsupportedWordError) as exc:
        return f"{type(exc).__name__}: {exc}"


def verdict_lines(path) -> list:
    from omegaword.trio import AnBnOracle, loop_representation

    path.write_text(INFINITELY_MANY_B, encoding="utf-8")
    forms = ["U", "Uprime", "P", "primes", "singleton:a(ab)^w",
             "singleton:blocks(a,b;affine 1 0)", f"regular:{path}", "neutral:P",
             "neutral:primes", "neutral:singleton:a(ab)^w",
             "neutral:singleton:blocks(a,b;affine 1 0)", f"neutral:regular:{path}"]
    oracles = [(f.replace(str(path), "FILE"), get_oracle(f)) for f in forms]
    oracles.append(("loop:anbn", loop_representation(AnBnOracle(), power_bound=4)))
    return [f"{label}\t{word.text()}\t{_verdict(oracle, word)}"
            for label, oracle in oracles for word in _pin_words(oracle.alphabet)]


def test_registry_verdicts_match_pinned_digest(tmp_path):
    import hashlib

    lines = verdict_lines(tmp_path / "inf_b.aut")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_VERDICTS
