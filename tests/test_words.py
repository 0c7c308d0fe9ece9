import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegaword.errors import (
    AlphabetMismatchError,
    DegenerateProductError,
    FormatError,
    UnsupportedHomomorphismError,
    UnsupportedWordError,
)
from helpers import ref_first_other_letter
from omegaword.words import (
    AffineLengths,
    BlockWord,
    ConstantLengths,
    EventuallyPeriodicLengths,
    FiniteWord,
    UPWord,
    alphabet,
    apply_hom,
    canonical,
    concat,
    erasing_hom,
    finite_word,
    first_other_letter,
    format_word,
    homomorphism,
    letter_at,
    max_letter_run,
    next_letter_run,
    omega_product,
    parse_word,
    prefix_of,
    to_up_word,
    up_equal,
    up_word,
)

AB = alphabet("ab")
AB1 = alphabet("ab1")


# ---------------------------------------------------------------------------
# letter_at on each presentation


def test_letter_at_finite():
    w = finite_word("ab1a", AB1)
    assert [letter_at(w, i) for i in range(4)] == ["a", "b", "1", "a"]
    with pytest.raises(IndexError):
        letter_at(w, 4)


def test_letter_at_lasso():
    w = up_word("ab", "ba", AB)
    assert prefix_of(w, 8) == tuple("abbababa")


def test_letter_at_growing_blocks():
    # k_n = n: a b aa b aaa b ...
    w = BlockWord(AB, "a", "b", AffineLengths(1, 0))
    assert prefix_of(w, 12) == tuple("abaabaaabaaa")


def test_letter_at_growing_blocks_deep():
    # spot-check far positions against a directly generated expansion
    w = BlockWord(AB, "a", "b", AffineLengths(2, 1))
    expanded = []
    for n in range(1, 40):
        expanded.extend(["a"] * (2 * n + 1) + ["b"])
    for i in [0, 5, 100, 777, len(expanded) - 1]:
        assert letter_at(w, i) == expanded[i]


def _random_block_or_lasso(rng: random.Random):
    kind = rng.choice(["affine", "constant", "ep", "lasso"])
    if kind == "lasso":
        return _random_lasso(rng, rng.choice(["ab", "abc"]))
    block, sep = rng.sample("ab", 2)
    if kind == "affine":
        rate = rng.randint(1, 3)
        lengths = AffineLengths(rate, rng.randint(-rate, 4))
    elif kind == "constant":
        lengths = ConstantLengths(rng.randint(0, 4))
    else:
        lengths = EventuallyPeriodicLengths(
            tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3))),
            tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3))))
    return BlockWord(AB, block, sep, lengths)


def _expanded(w: BlockWord, n: int) -> list[str]:
    """The first n letters of a block word, written out segment by segment."""
    out, m = [], 1
    while len(out) < n:
        out += [w.block] * w.lengths.nth(m) + [w.sep]
        m += 1
    return out[:n]


def test_first_other_letter_matches_letter_scan():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(300):
        w = _random_block_or_lasso(rng)
        letters = w.alphabet.letters
        ends = []
        if isinstance(w, BlockWord) and w._up_form is None:
            ends = [w._segment_end(m) for m in rng.sample(range(1, 150), 3)]
        for _ in range(12):
            start = rng.choice([rng.randint(0, 60), rng.randint(0, 3000),
                                rng.randint(10 ** 4, 2 * 10 ** 4)]
                               + [e - 1 for e in ends])  # separators of growing words
            last = start + rng.choice([0, 1, rng.randint(0, 8), rng.randint(0, 400)])
            for letter in letters:
                got = first_other_letter(w, letter, start, last)
                assert got == ref_first_other_letter(w, letter, start, last)
                outcomes.add(got is None)
        assert first_other_letter(w, letters[0], 9, 8) is None
        if isinstance(w, BlockWord):
            # letter_at against the written-out schedule, far positions included
            plain = _expanded(w, 12000)
            for i in rng.sample(range(12000), 40):
                assert letter_at(w, i) == plain[i]
    assert outcomes == {True, False}


def test_first_other_letter_on_growing_blocks():
    w = BlockWord(AB, "a", "b", AffineLengths(1, 0))  # a b aa b aaa b ...
    assert first_other_letter(w, "a", 2, 3) is None
    assert first_other_letter(w, "a", 2, 9) == 4
    assert first_other_letter(w, "b", 4, 4) is None
    assert first_other_letter(w, "b", 4, 6) == 5
    empty_first = BlockWord(AB, "a", "b", AffineLengths(1, -1))  # b ab aab ...
    assert first_other_letter(empty_first, "b", 0, 5) == 1
    assert first_other_letter(empty_first, "a", 0, 5) == 0


def test_lasso_scan_stops_after_one_period(monkeypatch):
    import omegaword.words as words

    calls = []
    real = words.letter_at

    def counted(w, i):
        calls.append(i)
        if len(calls) > 100:
            raise AssertionError("the scan did not stop")
        return real(w, i)

    monkeypatch.setattr(words, "letter_at", counted)
    bounded = BlockWord(AB, "a", "b", EventuallyPeriodicLengths((3,), (2, 1)))
    ba = up_word("b", "a", AB)
    cases = [(ba, "a", 0, 0), (ba, "a", 1, None), (ba, "a", 5, None),
             (up_word("ab", "aab", AB), "a", 8, 10), (up_word("", "b", AB), "a", 0, 0),
             (bounded, "a", 0, 3), (bounded, "a", 4, 6)]
    for w, letter, first, want in cases:
        u = w._up_form if isinstance(w, BlockWord) else w
        calls.clear()
        assert first_other_letter(w, letter, first, 10 ** 12) == want
        assert len(calls) <= len(u.prefix) + len(u.period)
    with pytest.raises(IndexError):
        first_other_letter(ba, "a", -1, 10 ** 12)


def test_constant_blocks_equal_lasso():
    w = BlockWord(AB, "a", "b", ConstantLengths(2))
    assert up_equal(to_up_word(w), up_word("", "aab", AB))


def test_eventually_periodic_blocks():
    w = BlockWord(AB, "a", "b", EventuallyPeriodicLengths((1, 2), (3,)))
    assert up_equal(to_up_word(w), up_word("abaab", "aaab", AB))


def test_growing_blocks_not_lasso_convertible():
    w = BlockWord(AB, "a", "b", AffineLengths(1, 0))
    with pytest.raises(UnsupportedWordError):
        to_up_word(w)


# ---------------------------------------------------------------------------
# lasso equality and canonical forms


def test_up_equal_basic():
    assert up_equal(up_word("", "ab", AB), up_word("a", "ba", AB))
    assert up_equal(up_word("", "ab", AB), up_word("", "abab", AB))
    assert not up_equal(up_word("", "ab", AB), up_word("", "ba", AB))


def test_up_equal_alphabet_strict():
    with pytest.raises(AlphabetMismatchError):
        up_equal(up_word("", "a", alphabet("a")), up_word("", "a", AB))


def _random_lasso(rng: random.Random, letters: str = "ab") -> UPWord:
    a = alphabet(letters)
    p = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
    v = "".join(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
    return up_word(p, v, a)


def test_canonical_is_a_normal_form():
    # up_equal(u, v) holds exactly when the canonical presentations coincide
    rng = random.Random(7)
    words = [_random_lasso(rng) for _ in range(120)]
    for u in words:
        assert up_equal(u, canonical(u))
        assert canonical(canonical(u)) == canonical(u)
    for u in words[:40]:
        for v in words[:40]:
            assert up_equal(u, v) == (canonical(u) == canonical(v))


def test_rotations_and_powers_are_equal():
    rng = random.Random(11)
    for _ in range(60):
        u = _random_lasso(rng)
        k = rng.randrange(0, len(u.period))
        rotated = UPWord(u.alphabet, u.prefix + u.period[:k],
                         u.period[k:] + u.period[:k])
        powered = UPWord(u.alphabet, u.prefix, u.period * rng.randrange(1, 4))
        assert up_equal(u, rotated)
        assert up_equal(u, powered)


def test_equal_presentations_agree_everywhere():
    rng = random.Random(13)
    for _ in range(60):
        u = _random_lasso(rng)
        v = canonical(u)
        horizon = 3 * max(len(u.prefix) + len(u.period), len(v.prefix) + len(v.period))
        assert prefix_of(u, horizon) == prefix_of(v, horizon)


@settings(max_examples=60, deadline=None)
@given(p1=st.text("ab", max_size=3), v1=st.text("ab", min_size=1, max_size=4),
       p2=st.text("ab", max_size=3), v2=st.text("ab", min_size=1, max_size=4))
def test_up_equal_matches_long_prefix_comparison(p1, v1, p2, v2):
    u, v = up_word(p1, v1, AB), up_word(p2, v2, AB)
    horizon = 4 * (len(p1) + len(v1) + len(p2) + len(v2)) + 12
    assert up_equal(u, v) == (prefix_of(u, horizon) == prefix_of(v, horizon))


# ---------------------------------------------------------------------------
# concatenation and infinite products


def test_concat():
    assert concat(finite_word("ab", AB), up_word("", "ba", AB)) == up_word("ab", "ba", AB)
    assert concat(finite_word("a", AB), finite_word("b", AB)) == finite_word("ab", AB)


def test_omega_product():
    head = [finite_word("a", AB)]
    cycle = [finite_word("ab", AB), finite_word("b", AB)]
    assert omega_product(head, cycle) == up_word("a", "abb", AB)


def test_omega_product_degenerate():
    eps = finite_word("", AB)
    with pytest.raises(DegenerateProductError):
        omega_product([finite_word("a", AB)], [eps, eps])
    with pytest.raises(DegenerateProductError):
        omega_product([finite_word("a", AB)], [])


# ---------------------------------------------------------------------------
# homomorphisms


def test_erasing_hom_on_each_presentation():
    h = erasing_hom(AB1, "1")
    assert apply_hom(h, finite_word("ab1a", AB1)) == finite_word("aba", AB)
    assert apply_hom(h, up_word("1a", "a1", AB1)) == up_word("a", "a", AB)
    collapsed = apply_hom(h, up_word("a", "1", AB1))
    assert collapsed == finite_word("a", AB)


def test_hom_on_block_words():
    h = erasing_hom(AB1, "1")
    w = BlockWord(AB1, "a", "b", AffineLengths(1, 0))
    img = apply_hom(h, w)
    assert isinstance(img, BlockWord)
    assert (img.block, img.sep, img.lengths) == ("a", "b", AffineLengths(1, 0))

    collapse = homomorphism({"a": "c", "b": "c"}, AB, alphabet("c"))
    img2 = apply_hom(collapse, BlockWord(AB, "a", "b", AffineLengths(1, 0)))
    assert img2 == up_word("", "c", alphabet("c"))

    doubling = homomorphism({"a": "ab", "b": "b"}, AB, AB)
    with pytest.raises(UnsupportedHomomorphismError):
        apply_hom(doubling, BlockWord(AB, "a", "b", ConstantLengths(2)))


def test_hom_commutes_with_concat():
    rng = random.Random(17)
    h = erasing_hom(AB1, "1")
    for _ in range(60):
        x = finite_word("".join(rng.choice("ab1") for _ in range(rng.randrange(0, 4))), AB1)
        w = _random_lasso(rng, "ab1")
        lhs = apply_hom(h, concat(x, w))
        rhs_x = apply_hom(h, x)
        rhs_w = apply_hom(h, w)
        if isinstance(rhs_w, FiniteWord):
            assert lhs == concat(rhs_x, rhs_w)
        else:
            assert up_equal(lhs, concat(rhs_x, rhs_w))


# ---------------------------------------------------------------------------
# letter-run search


def _naive_next_run(w, letter, min_len, start, horizon=400):
    for p in range(start, horizon):
        if all(letter_at(w, p + d) == letter for d in range(min_len)):
            return (p, p + min_len - 1)
    return None


def test_run_search_on_lasso_words():
    rng = random.Random(23)
    for _ in range(150):
        w = _random_lasso(rng)
        letter = rng.choice("ab")
        min_len = rng.randrange(1, 5)
        start = rng.randrange(0, 25)
        got = next_letter_run(w, letter, min_len, start)
        want = _naive_next_run(w, letter, min_len, start)
        assert got == want, (w, letter, min_len, start)


def test_run_search_matches_scan_on_every_small_lasso():
    """Every lasso over {a,b} with a prefix of at most 3 letters and a
    period of 1-3, both letters, min_len 1-6 and start -2..15.  The scan
    reaches one period and one window past max(start, |prefix|), so any
    window it misses repeats one it saw; its longest run is the longest of
    the word, unless the period is all one letter."""
    for prefix, period in product((p for n in range(4) for p in product("ab", repeat=n)),
                                  (p for n in range(1, 4) for p in product("ab", repeat=n))):
        w = UPWord(AB, prefix, period)
        text = "".join(prefix_of(w, 15 + len(prefix) + len(period) + 6))
        for letter, other in ("ab", "ba"):
            unbounded = set(period) == {letter}
            for min_len in range(1, 7):
                for start in range(-2, 16):
                    horizon = max(start, 0) + len(prefix) + len(period) + min_len
                    want = _naive_next_run(w, letter, min_len, max(start, 0), horizon)
                    assert next_letter_run(w, letter, min_len, start) == want, (
                        w, letter, min_len, start)
                    longest = max(map(len, text[:horizon].split(other)))
                    assert max_letter_run(w, letter) == (None if unbounded else longest)
    assert next_letter_run(up_word("", "ab", AB), "a", 1, 1) == (2, 2)


def test_run_search_none_means_none():
    w = up_word("aaaa", "ba", AB)  # one run of four a's, then singletons
    assert max_letter_run(w, "a") == 4
    assert next_letter_run(w, "a", 2, 10) is None
    assert next_letter_run(w, "a", 4, 0) == (0, 3)
    assert next_letter_run(w, "a", 5, 0) is None


def test_run_search_on_growing_blocks():
    w = BlockWord(AB, "a", "b", AffineLengths(1, 0))
    assert max_letter_run(w, "a") is None
    # first run of length >= 3 is the third block, positions 5..7
    assert next_letter_run(w, "a", 3, 0) == (5, 7)
    # a query starting inside a block may use the remainder of that block
    assert next_letter_run(w, "a", 2, 6) == (6, 7)
    assert max_letter_run(w, "b") == 1


def test_run_search_on_growing_blocks_matches_scan(monkeypatch):
    """Against the position scan at every start before 200 on several
    growing schedules; a far start reads only the segment ends its segment
    search needs, not every segment before it."""
    for lengths in (AffineLengths(1, 0), AffineLengths(1, -1), AffineLengths(2, 1),
                    AffineLengths(3, -2)):
        w = BlockWord(AB, "a", "b", lengths)
        for start in range(200):
            for min_len in (1, 2, 5):
                got = next_letter_run(w, "a", min_len, start)
                assert got == _naive_next_run(w, "a", min_len, start), (lengths, start)
    w = BlockWord(AB, "a", "b", AffineLengths(1, 0))
    calls = []
    segment_end = BlockWord._segment_end

    def counted(self, m):
        calls.append(m)
        return segment_end(self, m)

    monkeypatch.setattr(BlockWord, "_segment_end", counted)
    assert next_letter_run(w, "a", 3, 19900) == (19900, 19902)
    assert len(calls) < 40


def test_run_search_all_letter_period():
    w = up_word("b", "a", AB)
    assert max_letter_run(w, "a") is None
    assert next_letter_run(w, "a", 7, 3) == (3, 9)


# ---------------------------------------------------------------------------
# text syntax


@pytest.mark.parametrize("text", [
    "ab1a",
    "eps",
    "ab(ba)^w",
    "(a)^w",
    "blocks(a,b;affine 1 0)",
    "blocks(a,b;constant 3)",
    "blocks(a,b;ep 1 2|3 4)",
    "blocks(a,b;ep |2)",
])
def test_parse_format_round_trip(text):
    w = parse_word(text, AB1)
    assert format_word(w) == text
    assert parse_word(format_word(w), AB1) == w


def test_parse_infers_alphabet():
    w = parse_word("ab(ba)^w")
    assert w.alphabet == AB


def test_parse_rejects_garbage():
    for bad in ["a(b", "blocks(a;affine 1)", "blocks(a,b;affine x y)", "a(b)^w)"]:
        with pytest.raises(FormatError):
            parse_word(bad)


def test_block_word_validation():
    with pytest.raises(FormatError):
        BlockWord(AB, "a", "a", ConstantLengths(1))
    with pytest.raises(FormatError):
        AffineLengths(0, 3)
    with pytest.raises(FormatError):
        EventuallyPeriodicLengths((1,), ())
