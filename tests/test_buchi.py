import random

import pytest

from helpers import (all_up_words, lifted_automaton, random_automaton, random_up, ref_accepts,
                     ref_complement, ref_intersect, ref_profile, ref_transition_monoid, run_python)
from omegaword.buchi import (
    BuchiAutomaton,
    _column,
    _letter_classes,
    _refusing_pairs,
    accepts_up,
    automaton,
    complement,
    compose_profiles,
    format_automaton,
    intersect,
    inverse_map_letters,
    is_empty,
    map_letters,
    parse_automaton,
    reachable_fragment,
    transition_monoid,
    union,
    with_canonical_names,
)
from omegaword.errors import AlphabetMismatchError, BudgetExceededError, FormatError
from omegaword.words import UPWord, alphabet, homomorphism, up_word

AB = alphabet("ab")


def inf_a():
    """Words with infinitely many a's (deterministic: state = last letter)."""
    return automaton(AB, ["qb", "qa"], ["qb"], ["qa"],
                     [("qb", "a", "qa"), ("qb", "b", "qb"),
                      ("qa", "a", "qa"), ("qa", "b", "qb")])


def test_accepts_up_hand_cases():
    a = inf_a()
    assert accepts_up(a, up_word("", "ab", AB))
    assert accepts_up(a, up_word("bbb", "a", AB))
    assert not accepts_up(a, up_word("", "b", AB))
    assert not accepts_up(a, up_word("aaaa", "b", AB))


def test_accepts_up_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        accepts_up(inf_a(), up_word("", "a", alphabet("abc")))


def test_accepts_up_agrees_with_reference():
    rng = random.Random(101)
    for _ in range(300):
        a = random_automaton(rng)
        w = random_up(rng)
        assert accepts_up(a, w) == ref_accepts(a, w), (format_automaton(a), w.text())
    # wider draws: up to 12 states, periods up to 6, and the tuple-labelled
    # states of unions, intersections and complements
    for k in range(300):
        kind = k % 4
        if kind == 0:
            a = random_automaton(rng, max_states=12)
        elif kind == 3:
            a = complement(random_automaton(rng, max_states=3))
        else:
            op = union if kind == 1 else intersect
            a = op(random_automaton(rng, max_states=6), random_automaton(rng, max_states=6))
        w = random_up(rng, max_period=6)
        assert accepts_up(a, w) == ref_accepts(a, w), (k, w.text())
    # coded automata whose letters share rows, and automata with several
    # initial states, under periods up to 8
    for k in range(200):
        if k % 2:
            a = lifted_automaton(rng, tracks=rng.randrange(1, 3))
        else:
            b = random_automaton(rng, max_states=8)
            a = automaton(AB, b.states, rng.sample(b.states, rng.randrange(1, len(b.states) + 1)),
                          b.accepting, b.transitions)
        letters = a.alphabet.letters
        w = UPWord(a.alphabet, tuple(rng.choices(letters, k=rng.randrange(0, 4))),
                   tuple(rng.choices(letters, k=rng.randrange(1, 9))))
        assert accepts_up(a, w) == ref_accepts(a, w), (k, w.text())
    # one state: a one-node component holds a cycle only through a self-loop
    for loop in (True, False):
        a = automaton(AB, ["q"], ["q"], ["q"], [("q", "a", "q")] if loop else [])
        for period, accepted in (("a", loop), ("aa", loop), ("ab", False)):
            w = up_word("", period, AB)
            assert accepts_up(a, w) == ref_accepts(a, w) == accepted, (loop, period)
    # complements of more than 100 states
    for seed in (5, 29, 41):
        a = complement(random_automaton(random.Random(seed), max_states=5), state_budget=2000)
        assert len(a.states) > 100
        for _ in range(15):
            w = random_up(rng, max_period=8)
            assert accepts_up(a, w) == ref_accepts(a, w), (seed, w.text())


def test_is_empty_hand_cases():
    a = inf_a()
    empty, witness = is_empty(a)
    assert not empty and accepts_up(a, witness)
    # accepting state unreachable -> empty
    b = automaton(AB, ["q0", "q1"], ["q0"], ["q1"], [("q0", "a", "q0")])
    assert is_empty(b) == (True, None)
    # accepting state reachable but not on a cycle -> empty
    c = automaton(AB, ["q0", "q1"], ["q0"], ["q1"], [("q0", "a", "q1")])
    assert is_empty(c) == (True, None)


def test_is_empty_witness_round_trip():
    rng = random.Random(7)
    nonempty = 0
    for _ in range(200):
        a = random_automaton(rng)
        empty, witness = is_empty(a)
        if empty:
            assert witness is None
            # no lasso word should be accepted; sample a few
            for _ in range(5):
                assert not accepts_up(a, random_up(rng))
        else:
            nonempty += 1
            assert accepts_up(a, witness)
    assert nonempty > 50  # the generator produces plenty of nonempty languages


def test_union_intersection_semantics():
    rng = random.Random(55)
    for _ in range(120):
        a, b = random_automaton(rng), random_automaton(rng)
        u, x = union(a, b), intersect(a, b)
        for _ in range(6):
            w = random_up(rng)
            wa, wb = accepts_up(a, w), accepts_up(b, w)
            assert accepts_up(u, w) == (wa or wb)
            assert accepts_up(x, w) == (wa and wb)


def test_complement_hand_case():
    comp = complement(inf_a())
    assert accepts_up(comp, up_word("", "b", AB))
    assert accepts_up(comp, up_word("aaa", "b", AB))
    assert not accepts_up(comp, up_word("", "ab", AB))
    assert not accepts_up(comp, up_word("", "a", AB))


def test_complement_semantics_randomized():
    rng = random.Random(2024)
    for _ in range(40):
        a = random_automaton(rng)
        comp = complement(a)
        for _ in range(8):
            w = random_up(rng)
            assert accepts_up(comp, w) != accepts_up(a, w), (format_automaton(a), w.text())


def test_complement_of_empty_language_is_universal():
    b = automaton(AB, ["q0"], ["q0"], [], [("q0", "a", "q0"), ("q0", "b", "q0")])
    comp = complement(b)
    for w in [up_word("", "a", AB), up_word("ab", "ba", AB)]:
        assert accepts_up(comp, w)


def brute_refusing_pairs(m, initial):
    """Every (s, t) of the monoid `m` with t*t = t, s*t = s and no path from
    an `initial` state to some q in s that meets an accepting q-cycle in t,
    found by testing each element against each idempotent state by state;
    ``out[s]`` lists its t in index order."""
    states = range(len(m.identity.reach))
    cycles = {t: [q for q in states if m.elements[t].reach_acc[q] >> q & 1]
              for t in range(len(m.elements)) if m.compose(t, t) == t}
    out: dict = {}
    for s, p in enumerate(m.elements):
        for t, qs in cycles.items():
            if m.compose(s, t) == s and not any(p.reach[i] >> q & 1 for i in initial for q in qs):
                out.setdefault(s, []).append(t)
    return out


def test_refusing_pairs_from_left_ideals_match_brute_force():
    """The left-ideal scan of `complement` finds exactly the refusing linked
    pairs of the element-by-idempotent scan, each list in the same order, on
    300 automata of up to 6 states over ab and abc (monoids of at most 400
    elements, so that the brute force stays quick)."""
    rng = random.Random(2929)
    tested = pairs = k = 0
    while tested < 300:
        a = random_automaton(rng, max_states=6, letters=("ab", "abc")[k % 2],
                             accept_prob=(0.45, 1.0, 0.2)[k % 3])
        k += 1
        try:
            m = transition_monoid(a, budget=400)
        except BudgetExceededError:
            continue
        want = brute_refusing_pairs(m, a._table.initial)
        assert _refusing_pairs(m, a._table.initial) == want, format_automaton(a)
        tested += 1
        pairs += sum(map(len, want.values()))
    assert pairs > 3000


def test_complement_with_an_identity_letter():
    """A letter that loops on every state has the empty word's profile, so the
    monoid's `unit` is an element; on every lasso with |u|, |v| <= 3 exactly
    one of the automaton and its complement accepts."""
    rng = random.Random(4242)
    abc = alphabet("abc")
    lassos = all_up_words("abc", 3, 3)
    for _ in range(12):
        b = random_automaton(rng, max_states=4)
        a = automaton(abc, b.states, b.initial, b.accepting,
                      b.transitions | {(q, "c", q) for q in b.states})
        m = transition_monoid(a)
        assert m.unit < len(m.elements) and m.letter("c") == m.unit
        comp = complement(a)
        for w in lassos:
            assert accepts_up(comp, w) != accepts_up(a, w), (format_automaton(a), w.text())


def test_complement_budget():
    rng = random.Random(3)
    a = random_automaton(rng, max_states=4)
    with pytest.raises(BudgetExceededError):
        complement(a, state_budget=2)


def test_transition_monoid_properties():
    rng = random.Random(31)
    for _ in range(25):
        a = random_automaton(rng)
        m = transition_monoid(a)
        letter_ids = {x: m.letter(x) for x in a.alphabet}
        assert set(letter_ids.values()) <= set(range(len(m.elements)))
        for i in range(len(m.elements)):
            for j in range(len(m.elements)):
                k = m.compose(i, j)  # closure: lookup succeeds
                # concatenating witnesses witnesses the composition
                joined = m.witnesses[i].letters + m.witnesses[j].letters
                assert m.profile_of(joined) == m.elements[k]


def test_monoid_compose_matches_profiles():
    """The Cayley-table walk against the profile product, `unit` on either
    side included (pairs sampled past 300 elements), and the idempotents
    against the profile-level list: on random automata of up to 12 states
    and on the tuple-labelled outputs of union and intersect."""
    rng = random.Random(77)
    cases = [random_automaton(rng, max_states=4 if k < 30 else 12) for k in range(40)]
    for _ in range(10):
        a, b = random_automaton(rng), random_automaton(rng)
        cases += [union(a, b), intersect(a, b)]
    for a in cases:
        m = transition_monoid(a)
        ids = list(range(len(m.elements))) + [m.unit]
        pairs = [(i, j) for i in ids for j in ids] if len(ids) <= 300 else [
            (rng.choice(ids), rng.choice(ids)) for _ in range(5000)]
        pairs += [(m.unit, j) for j in ids] + [(i, m.unit) for i in ids]

        def profile(i):
            return m.identity if i == m.unit else m.elements[i]

        for i, j in pairs:
            prod = compose_profiles(profile(i), profile(j))
            assert m.compose(i, j) == (m.unit if prod == m.identity else m._index[prod])
        assert m.idempotents() == [i for i, p in enumerate(m.elements)
                                   if compose_profiles(p, p) == p]


def test_monoid_budget_counts_letter_profiles():
    a = automaton("ab", ["q"], ["q"], ["q"], [("q", "a", "q")])
    with pytest.raises(BudgetExceededError, match="transition monoid exceeded 1 elements"):
        transition_monoid(a, budget=1)
    assert len(transition_monoid(a, budget=2).elements) == 2


def test_profiles_match_reference():
    rng = random.Random(41)
    for k in range(80):
        # the last draws have up to 12 states, so rows use wide bit masks
        a = random_automaton(rng, max_states=4 if k < 60 else 12)
        m = transition_monoid(a)
        letters = tuple(rng.choice("ab") for _ in range(rng.randrange(1, 5)))
        p = m.profile_of(letters)
        reach, reach_acc = ref_profile(a, letters)
        idx = {q: i for i, q in enumerate(a.states)}
        for s in a.states:
            for d in a.states:
                assert (p.reach[idx[s]] >> idx[d] & 1) == ((s, d) in reach)
                assert (p.reach_acc[idx[s]] >> idx[d] & 1) == ((s, d) in reach_acc)


def test_import_loads_no_numpy():
    proc = run_python(["-c", "import sys, omegaword; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_monoid_witnesses_are_shortest():
    a = inf_a()
    m = transition_monoid(a)
    for i, wit in enumerate(m.witnesses):
        assert m.profile_of(wit.letters) == m.elements[i]
        assert len(wit) <= 3  # two states: short witnesses suffice


def revalidated(a):
    """`a` rebuilt from its label views by the validating constructor."""
    return BuchiAutomaton(a.alphabet, a.states, a.initial, a.accepting, a.transitions)


def test_constructions_match_the_validating_constructor():
    """Every construction builds its index table without the label checks.
    Its result, rebuilt from the label views through the checked
    constructor, is equal: the same states in the same order and the same
    table, so rows are ascending and free of repeats.  `intersect` also
    equals the full labelled product cut to its reachable part."""
    rng = random.Random(515)
    ab1 = alphabet("ab1")
    homs = [homomorphism({"a": "a", "b": "a"}, AB, alphabet("a")),
            homomorphism({"a": "b", "b": "a"}, AB, AB),
            homomorphism({"a": "c", "b": "a"}, AB, alphabet("abc"))]  # b gets no rows
    back = homomorphism({"a": "a", "b": "b", "1": "a"}, ab1, AB)
    checked = 0
    for k in range(150):
        a, b = (random_automaton(rng, max_states=5, accept_prob=(0.45, 1.0, 0.2)[k % 3])
                for _ in range(2))
        # several initial states, some of them unreachable from the others
        a = automaton(AB, a.states, rng.sample(a.states, rng.randrange(len(a.states) + 1)),
                      a.accepting, a.transitions)
        product = intersect(a, b)
        assert product == ref_intersect(a, b)
        outputs = [union(a, b), product, reachable_fragment(a), inverse_map_letters(a, back),
                   with_canonical_names(union(b, a))]
        outputs += [map_letters(a, h) for h in homs]
        try:
            outputs.append(complement(a, state_budget=2000))
        except BudgetExceededError:
            pass
        for out in outputs:
            again = revalidated(out)
            assert again == out and hash(again) == hash(out)
            checked += 1
    assert checked > 1300


def test_letter_class_constructions_match_per_letter_references():
    """On coded-alphabet automata whose letters share successor columns
    (lifted from "ab" by `inverse_map_letters`, so rows are shared objects,
    or rebuilt by the checked constructor, so they are equal by value only):
    `intersect` equals `ref_intersect`, and `transition_monoid` and
    `complement` equal the per-letter copies `ref_transition_monoid` and
    `ref_complement` in elements, witnesses, right Cayley table, unit,
    idempotents and serialized complement, budget errors included."""
    rng = random.Random(919)
    shared = raised = 0
    for k in range(90):
        tracks = 1 + k % 2
        a = lifted_automaton(rng, tracks, max_states=4, accept_prob=(0.45, 1.0, 0.2)[k % 3])
        b = lifted_automaton(rng, tracks, max_states=4)
        if k % 3 == 0:
            a = revalidated(a)
        reps, _ = _letter_classes(_column(a._table.succ[x]) for x in a.alphabet)
        shared += len(reps) < len(a.alphabet)
        product = intersect(a, b)
        assert product == ref_intersect(a, b)
        # letters whose two columns are the same lists share one product row list
        ta, tb, tp = a._table, b._table, product._table
        for x in a.alphabet:
            for y in a.alphabet:
                if ta.succ[x] is ta.succ[y] and tb.succ[x] is tb.succ[y]:
                    assert tp.succ[x] is tp.succ[y]
        for x in (a, product):
            m, want = transition_monoid(x), ref_transition_monoid(x)
            assert (m.elements, m.witnesses, m._right, m.unit, m.idempotents()) == (
                want.elements, want.witnesses, want._right, want.unit, want.idempotents())
            budget = rng.choice((30, 2000))
            outcomes = []
            for build in (complement, ref_complement):
                try:
                    outcomes.append(format_automaton(with_canonical_names(
                        build(x, state_budget=budget))))
                except BudgetExceededError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            raised += "exceeded" in outcomes[0]
    assert shared > 80 and raised > 5


# ---------------------------------------------------------------------------
# relabelings


def test_map_letters():
    h = homomorphism({"a": "a", "b": "a"}, AB, alphabet("a"))
    img = map_letters(inf_a(), h)
    assert accepts_up(img, up_word("", "a", alphabet("a")))


def test_inverse_map_letters():
    ab1 = alphabet("ab1")
    h = homomorphism({"a": "a", "b": "b", "1": "a"}, ab1, AB)
    pre = inverse_map_letters(inf_a(), h)
    assert accepts_up(pre, up_word("", "1b", ab1))   # image (ab)^w
    assert accepts_up(pre, up_word("", "1", ab1))    # image (a)^w
    assert not accepts_up(pre, up_word("1", "b", ab1))


def test_inverse_then_map_round_trip_semantics():
    rng = random.Random(77)
    ab1 = alphabet("ab1")
    h = homomorphism({"a": "a", "b": "b", "1": "a"}, ab1, AB)
    for _ in range(40):
        a = random_automaton(rng)
        pre = inverse_map_letters(a, h)
        for _ in range(5):
            w = random_up(rng, letters="ab1")
            image = up_word("".join(h.image(x)[0] for x in w.prefix),
                            "".join(h.image(x)[0] for x in w.period), AB)
            assert accepts_up(pre, w) == accepts_up(a, image)


# ---------------------------------------------------------------------------
# text format


ROUND_TRIP = """\
alphabet a b
states q0 q1
initial q0
accepting q1
q0 a q0
q0 a q1
q1 b q1
"""


def test_parse_format_round_trip():
    a = parse_automaton(ROUND_TRIP)
    assert format_automaton(a) == ROUND_TRIP
    assert parse_automaton(format_automaton(a)) == a


def test_format_requires_string_states():
    a = union(inf_a(), inf_a())  # tuple states
    with pytest.raises(FormatError):
        format_automaton(a)
    canonical = with_canonical_names(a)
    assert parse_automaton(format_automaton(canonical)) == canonical
    # the parser drops lines that start with "#", so such a state cannot be written
    for bad in ("#q", "#"):
        hashed = automaton(AB, ["q0", bad], ["q0"], [bad], [("q0", "a", bad), (bad, "b", bad)])
        with pytest.raises(FormatError):
            format_automaton(hashed)


def test_parse_rejects_bad_files():
    for bad in ["", "alphabet a\nstates q\ninitial q", ROUND_TRIP.replace("alphabet", "letters"),
                ROUND_TRIP + "q0 a\n", ROUND_TRIP + "q0 c q1\n", ROUND_TRIP + "q0 a q9\n"]:
        with pytest.raises(FormatError):
            parse_automaton(bad)


def test_reachable_fragment():
    a = automaton(AB, ["q0", "q1", "q2"], ["q0"], ["q2"],
                  [("q0", "a", "q0"), ("q2", "b", "q2")])
    frag = reachable_fragment(a)
    assert frag.states == ("q0",)
    assert frag.accepting == frozenset()
