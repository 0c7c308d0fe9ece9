import random
from collections import Counter

import pytest

from omegaword import congruence
from omegaword.buchi import accepts_up, automaton
from omegaword.congruence import (
    BoundedPartition,
    Classifier,
    Condition2ViolationWitness,
    GrowingBlockSequence,
    PeriodicWordSequence,
    _partition,
    arnold_classes_bounded,
    check_condition1,
    check_condition2_bounded,
    class_representatives,
    classifier,
    format_classifier,
    lemma_repair,
    parse_classifier,
    product_member,
    profile_kernel_classifier,
    right_classes_bounded,
    state_representatives,
    validate_condition2_witness,
)
from omegaword.errors import (AlphabetMismatchError, BudgetExceededError,
                              DegenerateErasureError, FormatError)
from omegaword.game import ConstantDuplicator, DivergingSpoiler, play_bounded
from omegaword.oracles import (
    LanguageOracle,
    RegularOracle,
    get_oracle,
)
from omegaword.words import (AffineLengths, BlockWord, ConstantLengths, EventuallyPeriodicLengths,
                             UPWord, alphabet, finite_word, prefix_of, up_word)

from helpers import (_ref_transformation_monoid, kernel_universe, random_automaton,
                     random_classifier, ref_bounded_classes, ref_check_condition1,
                     ref_check_condition2_bounded, ref_condition2_candidates, ref_lemma_repair,
                     ref_state_representatives, twin_classifier)

AB = alphabet("ab")


class _AskedOracle(LanguageOracle):
    """Forwards `member` to an oracle and counts each lasso word asked."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.neutral_letter = inner.neutral_letter
        self.asked = Counter()

    def member(self, w):
        self.asked[(w.prefix, w.period)] += 1
        return self.inner.member(w)


def last_letter_classifier():
    # class = last letter (empty word on its own): compatible on both sides
    delta = {}
    for q in ("qe", "qa", "qb"):
        delta[(q, "a")] = "qa"
        delta[(q, "b")] = "qb"
    return classifier(AB, ("qe", "qa", "qb"), "qe", delta,
                      {"qe": "e", "qa": "A", "qb": "B"})


def right_broken_classifier():
    # q1 and q2 share a label but an appended "a" tells them apart
    delta = {
        ("q0", "a"): "q1", ("q0", "b"): "q2",
        ("q1", "a"): "q1", ("q1", "b"): "q1",
        ("q2", "a"): "q0", ("q2", "b"): "q2",
    }
    return classifier(AB, ("q0", "q1", "q2"), "q0", delta,
                      {"q0": "z", "q1": "o", "q2": "o"})


def ends_in_a_classifier():
    # "ends in a, or empty" vs "ends in b": right-compatible only
    delta = {}
    for q in ("i", "qa", "qb"):
        delta[(q, "a")] = "qa"
        delta[(q, "b")] = "qb"
    return classifier(AB, ("i", "qa", "qb"), "i", delta,
                      {"i": "P", "qa": "P", "qb": "N"})


def inf_a():
    # accepts the lasso words whose period contains an a
    return automaton(
        "ab", ["qa", "qb"], ["qb"], ["qa"],
        [("qa", "a", "qa"), ("qa", "b", "qb"),
         ("qb", "a", "qa"), ("qb", "b", "qb")])


class UnboundedRunsStub:
    """Membership for the unbounded-a-runs language on lasso words only,
    computed directly from the period; enough for the bounded searches."""

    alphabet = AB

    def member(self, w):
        return "b" not in w.period and len(w.period) > 0


class CountingOracle(LanguageOracle):
    """Forwards `member` to a registry oracle and counts the calls; the
    neutral letter is declared as the wrapped oracle declares it."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.neutral_letter = inner.neutral_letter
        self.calls = 0

    def member(self, w):
        self.calls += 1
        return self.inner.member(w)


class NeutralRegularOracle(RegularOracle):
    """A `RegularOracle` whose automaton loops on `1` at every state, which
    makes `1` neutral; a period of only 1s has no infinite erasure."""

    neutral_letter = "1"

    def decide(self, w):
        if isinstance(w, UPWord) and set(w.period) == {"1"}:
            raise DegenerateErasureError("erasing the neutral letter leaves a finite word")
        return super().decide(w)


def neutral_automaton(rng):
    a = random_automaton(rng, max_states=3)
    return automaton("ab1", a.states, a.initial, a.accepting,
                     a.transitions | {(q, "1", q) for q in a.states})


class TestCondition1:
    def test_compatible_classifier_passes(self):
        assert check_condition1(last_letter_classifier()) is None

    def test_right_violation_found_minimal(self):
        v = check_condition1(right_broken_classifier())
        assert v is not None
        assert v.side == "right"
        assert (v.u.text(), v.u_prime.text(), v.w.text()) == ("a", "b", "a")
        assert v.class_before == "o"
        assert set(v.classes_after) == {"o", "z"}
        x, y = v.contexts()
        assert x == ("a", "a") and y == ("b", "a")

    def test_right_violation_ties_broken_by_words(self):
        """Two same-class pairs give right violations of total length 2; the
        later pair in declared order, (s0, s2), has the smaller words and
        wins, as does right over the left violation of the same length."""
        c = classifier("ab", ["s0", "s1", "s2", "s3"], "s0",
                       {("s0", "a", "s2"), ("s0", "b", "s1"), ("s1", "a", "s3"),
                        ("s1", "b", "s1"), ("s2", "a", "s2"), ("s2", "b", "s3"),
                        ("s3", "a", "s3"), ("s3", "b", "s3")},
                       {"s0": "A", "s1": "A", "s2": "A", "s3": "B"})
        v = check_condition1(c)
        assert v.side == "right"
        assert (v.u.text(), v.u_prime.text(), v.w.text()) == ("eps", "a", "b")
        assert v.classes_after == ("A", "B")

    def test_left_only_violation(self):
        c = ends_in_a_classifier()
        v = check_condition1(c)
        assert v is not None
        assert v.side == "left"
        assert (v.u.text(), v.u_prime.text(), v.w.text()) == ("eps", "a", "b")
        x, y = v.contexts()
        assert c.classify(x) != c.classify(y)

    def test_violation_contexts_really_separate(self):
        for make in (right_broken_classifier, ends_in_a_classifier):
            c = make()
            v = check_condition1(c)
            x, y = v.contexts()
            # u and u' agree, the padded words do not
            assert c.classify(v.u.letters) == c.classify(v.u_prime.letters)
            assert c.classify(x) != c.classify(y)


def counter_classifier():
    # a turns s0 -> s1 -> s2 -> s0 and b resets to s0: the transformation
    # monoid is the identity, a, aa and the three constant maps
    delta = {}
    for i in range(3):
        delta[(f"s{i}", "a")] = f"s{(i + 1) % 3}"
        delta[(f"s{i}", "b")] = "s0"
    return classifier(AB, ("s0", "s1", "s2"), "s0", delta, {"s0": "x", "s1": "y", "s2": "y"})


class TestCondition1Budget:
    def test_budget_error_names_the_exact_count(self):
        c = counter_classifier()
        assert len(_ref_transformation_monoid(c, 100)) == 6
        for k in range(1, 6):
            with pytest.raises(BudgetExceededError) as exc:
                check_condition1(c, budget=k)
            assert str(exc.value) == f"classifier transformation monoid exceeded {k} elements"
        assert violation_key(check_condition1(c, budget=6)) == violation_key(check_condition1(c))

    def test_budget_errors_match_reference(self):
        # every budget from 1 to one past the monoid's size: the same error
        # message, or the same violation, as the eager reference
        rng = random.Random(31)
        raised = 0
        for _ in range(40):
            c = random_classifier(rng, max_states=5)
            size = len(_ref_transformation_monoid(c, 10**6))
            for k in range(1, size + 2):
                try:
                    want = violation_key(ref_check_condition1(c, budget=k))
                except BudgetExceededError as exc:
                    want = str(exc)
                try:
                    got = violation_key(check_condition1(c, budget=k))
                except BudgetExceededError as exc:
                    got = str(exc)
                    raised += 1
                assert got == want
        assert raised


class TestRepair:
    def test_repair_right_broken(self):
        c = lemma_repair(right_broken_classifier())
        assert check_condition1(c) is None
        assert c.index == 1

    def test_repair_ends_in_a(self):
        c = lemma_repair(ends_in_a_classifier())
        assert check_condition1(c) is None

    def test_repair_random_classifiers(self):
        rng = random.Random(7)
        for _ in range(40):
            c = random_classifier(rng)
            before = c.index
            repaired = lemma_repair(c)
            assert check_condition1(repaired) is None
            assert repaired.index >= 1
            assert before - repaired.index <= before - 1

    def test_one_monoid_closure_per_call(self, monkeypatch):
        # a merge renames classes only, so lemma_repair builds the
        # transformation monoid once, however many merges it makes
        rng = random.Random(23)
        corpus = [random_classifier(rng, max_states=6) for _ in range(540)]
        calls = []
        closure = congruence._closure

        def spy(seeds, gens, act, budget, what):
            calls.append(what)
            return closure(seeds, gens, act, budget, what)

        monkeypatch.setattr(congruence, "_closure", spy)
        merges = sum(c.index - lemma_repair(c).index for c in corpus)
        assert merges > 0
        assert calls.count("classifier transformation monoid") == len(corpus)
        for c in corpus:
            check_condition1(c)
        assert calls.count("classifier transformation monoid") == 2 * len(corpus)


def condition1_instances():
    """The 40 classifiers of the benchmark corpus (seed 1, up to 5 states),
    300 seeded random classifiers of up to 4 states, and 300 of up to 4
    states over three letters in alphabet orders other than string order
    (`twin_classifier`): witnesses follow the alphabet order while keys
    compare raw tuples."""
    rng = random.Random(1)
    corpus = [random_classifier(rng, max_states=5) for _ in range(40)]
    rng = random.Random(23)
    corpus += [random_classifier(rng) for _ in range(300)]
    rng = random.Random(37)
    return corpus + [twin_classifier(rng) for _ in range(300)]


def violation_key(v):
    if v is None:
        return None
    return (v.side, v.u, v.u_prime, v.w, v.class_before, v.classes_after)


class TestCondition1Reference:
    def test_check_condition1_matches_eager_reference(self):
        sides = set()
        for c in condition1_instances():
            got, want = check_condition1(c), ref_check_condition1(c)
            assert violation_key(got) == violation_key(want)
            sides.add(None if want is None else want.side)
        assert sides == {None, "left", "right"}

    def test_lemma_repair_matches_eager_reference(self):
        for c in condition1_instances():
            assert format_classifier(lemma_repair(c)) == format_classifier(ref_lemma_repair(c))


class TestRepresentatives:
    def test_state_reps_shortest(self):
        c = right_broken_classifier()
        reps = state_representatives(c)
        assert reps["q0"] == ()
        assert reps["q1"] == ("a",)
        assert reps["q2"] == ("b",)
        for q, w in reps.items():
            assert c.state_after(w) == q

    def test_state_reps_and_reachable_match_reference(self):
        # the reference keeps the breadth-first search of its own; the
        # library's representatives keep its discovery order
        rng = random.Random(37)
        for _ in range(60):
            c = random_classifier(rng, max_states=6)
            want = ref_state_representatives(c)
            assert list(state_representatives(c).items()) == list(want.items())
            assert c.reachable == tuple(q for q in c.states if q in want)

    def test_class_reps_are_shortest_per_class(self):
        rng = random.Random(3)
        for _ in range(20):
            c = random_classifier(rng)
            reps = class_representatives(c)
            assert set(reps) == {c.class_of_state(q) for q in c.reachable}
            for name, w in reps.items():
                assert c.classify(w.letters) == name
            # nothing shorter reaches the class
            shortest = {}
            layer = [()]
            for _ in range(4):
                for u in layer:
                    shortest.setdefault(c.classify(u), len(u))
                layer = [u + (x,) for u in layer for x in "ab"]
            for name, w in reps.items():
                assert len(w) == shortest[name]


class TestKernelClassifier:
    def test_kernel_passes_condition1(self):
        rng = random.Random(11)
        for _ in range(15):
            a = random_automaton(rng)
            c = profile_kernel_classifier(a)
            assert check_condition1(c) is None

    def test_kernel_is_multiplicative(self):
        rng = random.Random(12)
        a = random_automaton(rng)
        c = profile_kernel_classifier(a)
        reps = class_representatives(c)
        for _ in range(100):
            u = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 5)))
            v = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 5)))
            ru = reps[c.classify(u)].letters
            rv = reps[c.classify(v)].letters
            assert c.classify(u + v) == c.classify(ru + rv)


class TestCondition2:
    def test_trivial_classifier_fails_for_unbounded_runs(self):
        c = classifier(AB, ("q",), "q",
                       {("q", "a"): "q", ("q", "b"): "q"}, {"q": "all"})
        oracle = UnboundedRunsStub()
        w = check_condition2_bounded(c, oracle, word_bound=1, cycle_bound=1)
        assert w is not None
        assert w.original_member != w.replaced_member
        assert validate_condition2_witness(c, oracle, w)

    def test_witness_with_a_replacement_in_another_class_is_rejected(self):
        # a and b lie in different classes of the last-letter classifier, so
        # the verdicts alone (a^w in U, b^w not) do not make a witness
        c = last_letter_classifier()
        oracle = get_oracle("U")
        original = PeriodicWordSequence((), (finite_word("a", AB),))
        replaced = PeriodicWordSequence((), (finite_word("b", AB),))
        assert product_member(oracle, original)[0] and not product_member(oracle, replaced)[0]
        witness = Condition2ViolationWitness(original, replaced, original.product(),
                                             replaced.product(), True, False)
        assert not validate_condition2_witness(c, oracle, witness)

    def test_kernel_classifier_of_automaton_finds_nothing(self):
        a = inf_a()
        c = profile_kernel_classifier(a)

        class AutomatonOracle:
            alphabet = AB

            def member(self, w):
                return accepts_up(a, w)

        assert check_condition2_bounded(c, AutomatonOracle(),
                                        word_bound=2, cycle_bound=2) is None

    def test_memo_matches_memo_free_reference(self):
        """The same witness (or None) as the memo-free reference on random
        classifiers against U, Uprime and regular oracles, and on the kernel
        classifiers of up to 5 classes of the `classes` benchmark workload
        against their own automaton and against U.  The search asks the
        oracle about the same products as the reference, each once: only the
        witness's validation asks about its two products again."""
        rng = random.Random(41)
        cases = []
        for k in range(36):
            c = random_classifier(rng, max_states=4)
            if k % 3 == 2:
                cases.append((c, RegularOracle(random_automaton(rng, max_states=3))))
            else:
                cases.append((c, get_oracle(("U", "Uprime")[k % 3])))
        for a in kernel_universe():
            c = profile_kernel_classifier(a)
            if c.index <= 5:
                cases += [(c, RegularOracle(a)), (c, get_oracle("U"))]
        outcomes = set()
        for c, inner in cases:
            oracle, ref_oracle = _AskedOracle(inner), _AskedOracle(inner)
            got = check_condition2_bounded(c, oracle, word_bound=2, cycle_bound=2)
            assert got == ref_check_condition2_bounded(c, ref_oracle, word_bound=2,
                                                       cycle_bound=2)
            asked = oracle.asked
            assert asked.keys() == ref_oracle.asked.keys()
            if got is not None:
                for w in (got.original_product, got.replaced_product):
                    if w is not None:
                        asked[(w.prefix, w.period)] -= 1
            assert set(asked.values()) == {1}
            outcomes.add((type(inner).__name__, got is None))
        assert {ok for _, ok in outcomes} == {True, False}
        assert {name for name, _ in outcomes} == {
            "UnboundedBlocksOracle", "NeutralOracle", "RegularOracle"}

    def test_sequences_are_built_only_for_differing_verdicts(self, monkeypatch):
        """`_condition2_witness`, and with it the two `PeriodicWordSequence`s
        of a candidate, runs once per candidate whose two `product_member`
        verdicts differ, up to the witness returned: never for the kernel
        classifiers of the `classes` benchmark workload against their own
        automaton, whose verdicts always agree."""
        calls, built = Counter(), Counter()
        witness, post_init = congruence._condition2_witness, PeriodicWordSequence.__post_init__

        def spy(*args, **kwargs):
            calls["witness"] += 1
            return witness(*args, **kwargs)

        def count(seq):
            built["sequences"] += 1
            post_init(seq)

        monkeypatch.setattr(congruence, "_condition2_witness", spy)
        monkeypatch.setattr(PeriodicWordSequence, "__post_init__", count)
        cases = [(profile_kernel_classifier(a), RegularOracle(a)) for a in kernel_universe()]
        rng = random.Random(7)
        for k in range(32):
            c = random_classifier(rng, max_states=4)
            cases.append((c, RegularOracle(random_automaton(rng, max_states=3)) if k % 5 == 4
                          else get_oracle(("U", "Uprime", "P", "primes")[k % 5])))
        differing = []
        for c, oracle in cases:
            calls.clear()
            built.clear()
            got = check_condition2_bounded(c, oracle, word_bound=2, cycle_bound=2)
            made = (calls["witness"], built["sequences"])
            expected = 0
            for original, replaced, (om, _), (rm, _) in ref_condition2_candidates(
                    c, oracle, word_bound=2, cycle_bound=2):
                if om != rm:
                    expected += 1
                    if got is not None and (original, replaced) == (got.original, got.replaced):
                        break
            else:
                assert got is None
            assert made == (expected, 2 * expected)
            differing.append(expected)
        assert differing[:40] == [0] * 40
        assert any(differing[40:])

    def test_bounds_out_of_range_are_refused(self):
        # at cycle bound 0 no cycle would be tried, and no violation reported
        c = classifier(AB, ("q",), "q", {("q", "a"): "q", ("q", "b"): "q"}, {"q": "all"})
        oracle = get_oracle("U")
        assert check_condition2_bounded(c, oracle, word_bound=0, cycle_bound=1) is None
        assert check_condition2_bounded(c, oracle, word_bound=1, cycle_bound=1) is not None
        with pytest.raises(FormatError, match="cycle bound must be at least 1"):
            check_condition2_bounded(c, oracle, word_bound=1, cycle_bound=0)
        with pytest.raises(FormatError, match="word bound must be at least 0"):
            check_condition2_bounded(c, oracle, word_bound=-1, cycle_bound=1)

    def test_product_member_degenerate_is_false(self):
        oracle = UnboundedRunsStub()
        seq = PeriodicWordSequence((), (finite_word("", AB),))
        verdict, note = product_member(oracle, seq)
        assert verdict is False
        assert "finite" in note

    def test_sequences(self):
        u = finite_word("ab", AB)
        v = finite_word("b", AB)
        seq = PeriodicWordSequence((u,), (v,))
        assert seq.nth(1) == u
        assert seq.nth(2) == v and seq.nth(17) == v
        assert seq.product() == up_word("ab", "b", alpha=AB)
        g = GrowingBlockSequence(BlockWord(AB, "a", "b", AffineLengths(2, 1)))
        assert g.nth(1).text() == "aaab"
        assert g.nth(3).text() == "a" * 7 + "b"
        assert g.product()._up_form is None
        assert "..." in seq.describe() and "..." in g.describe()

    def test_growing_sequence_checks_its_letters(self):
        for block, sep in (("c", "b"), ("a", "c")):
            with pytest.raises(AlphabetMismatchError, match="letter 'c' is not in alphabet"):
                GrowingBlockSequence(BlockWord(AB, block, sep, AffineLengths(1, 0)))

    @pytest.mark.parametrize("letters, block, sep", [("ab", "a", "b"), ("ab", "b", "a"),
                                                     ("abc", "c", "a"), ("1ab", "1", "b")])
    @pytest.mark.parametrize("rate, offset", [(1, -1), (1, 0), (2, -2), (2, 1), (3, 4)])
    def test_growing_factors_spell_their_word(self, letters, block, sep, rate, offset):
        """The factors u_1 ... u_m concatenate to the word's first n letters,
        n the end of segment m, read through `letter_at`'s segment search."""
        word = BlockWord(alphabet(letters), block, sep, AffineLengths(rate, offset))
        g = GrowingBlockSequence(word)
        assert g.product() is word
        spelled: tuple = ()
        for m in range(1, 13):
            u = g.nth(m)
            assert u.alphabet == word.alphabet
            spelled += u.letters
            assert spelled == prefix_of(word, word._segment_end(m))
        assert g.nth(1).letters == (block,) * (rate + offset) + (sep,)

    @pytest.mark.parametrize("lengths", [ConstantLengths(0), ConstantLengths(3),
                                         EventuallyPeriodicLengths((5,), (1, 2)),
                                         EventuallyPeriodicLengths((), (4,))])
    def test_growing_sequence_refuses_a_bounded_word(self, lengths):
        with pytest.raises(FormatError, match="needs a growing block word"):
            GrowingBlockSequence(BlockWord(AB, "a", "b", lengths))

    @pytest.mark.parametrize("offset, exponent", [(-1, "1*i-1"), (0, "1*i+0"), (2, "1*i+2")])
    def test_growing_sequence_describes_its_offset_with_one_sign(self, offset, exponent):
        g = GrowingBlockSequence(BlockWord(AB, "a", "b", AffineLengths(1, offset)))
        assert g.describe() == f"[a^({exponent})b for i = 1, 2, ...]"


def brute_force_partition(words, rows):
    """Related pairs are rows that agree wherever both are defined (None is
    a wildcard); the classes are the transitive closure of that relation, in
    the order of their first words, and the triples the first ten (i, j, k)
    with i ~ j, j ~ k and not i ~ k."""
    n = len(rows)
    rel = [[all(x == y or x is None or y is None for x, y in zip(rows[i], rows[j]))
            for j in range(n)] for i in range(n)]
    cls = [None] * n
    classes = []
    for i in range(n):
        if cls[i] is None:
            cls[i], todo, members = len(classes), [i], []
            while todo:
                x = todo.pop()
                members.append(x)
                for y in range(n):
                    if rel[x][y] and cls[y] is None:
                        cls[y] = cls[i]
                        todo.append(y)
            classes.append(tuple(words[x] for x in sorted(members)))
    triples = [(words[i], words[j], words[k])
               for i in range(n) for j in range(n) for k in range(n)
               if len({i, j, k}) == 3 and rel[i][j] and rel[j][k] and not rel[i][k]]
    return BoundedPartition(tuple(classes), tuple(triples[:10]))


def partition_texts(part):
    return ([[w.text() for w in cls] for cls in part.classes],
            [tuple(w.text() for w in t) for t in part.non_transitive])


class TestBoundedCongruences:
    @pytest.mark.parametrize("build", [arnold_classes_bounded, right_classes_bounded])
    def test_bounds_out_of_range_are_refused(self, build):
        oracle = get_oracle("U")
        assert partition_texts(build(oracle, word_bound=0, context_bound=1)) == ([["eps"]], [])
        with pytest.raises(FormatError, match="word bound must be at least 0"):
            build(oracle, word_bound=-1, context_bound=2)
        with pytest.raises(FormatError, match="context bound must be at least 1"):
            build(oracle, word_bound=2, context_bound=0)

    def test_unbounded_runs_two_classes(self):
        part = arnold_classes_bounded(UnboundedRunsStub(),
                                      word_bound=2, context_bound=2)
        assert len(part.classes) == 2
        assert part.non_transitive == ()
        by_text = {}
        for cls in part.classes:
            for w in cls:
                by_text[w.text()] = id(cls)
        assert by_text["eps"] == by_text["a"] == by_text["aa"]
        assert by_text["b"] == by_text["ab"] == by_text["ba"] == by_text["bb"]
        assert by_text["a"] != by_text["b"]

    def test_prefix_independent_language_one_right_class(self):
        class PrimesStub:
            alphabet = AB

            def member(self, w):
                from omegaword.words import canonical
                root = canonical(w).period
                n = len(root) - 1
                return root.count("b") == 1 and n >= 2 and all(
                    n % d for d in range(2, n))

        part = right_classes_bounded(PrimesStub(), word_bound=2, context_bound=2)
        assert len(part.classes) == 1

    def test_partition_surfaces_non_transitive_verdicts(self):
        words = [finite_word(t, AB) for t in ("a", "b", "ab")]
        # b's first slot is a wildcard: b agrees with a and with ab, which
        # disagree with each other there
        rows = [(True, True), (None, True), (False, True)]
        part = _partition(words, rows)
        assert isinstance(part, BoundedPartition)
        assert len(part.non_transitive) > 0
        assert len(part.classes) == 1  # closure merges all three

    @pytest.mark.parametrize("rows, expected_triples", [
        # T and F groups both agree with the wildcard row at index 2: more
        # than ten triples, of which the first ten in (i, j, k) order
        ([(True,), (False,), (None,), (True,), (False,), (True,), (False,), (True,)],
         [(0, 2, 1), (0, 2, 4), (0, 2, 6), (1, 2, 0), (1, 2, 3), (1, 2, 5), (1, 2, 7),
          (3, 2, 1), (3, 2, 4), (3, 2, 6)]),
        # the wildcard row agrees with no group: nothing merges
        ([(True, True), (None, False), (False, True), (True, True)], []),
        # it agrees with one group only: that group merges, no triple
        ([(False, True), (True, False), (None, False), (True, False)], []),
    ], ids=["capped", "wildcard-alone", "one-group"])
    def test_partition_hand_cases_match_brute_force(self, rows, expected_triples):
        words = congruence._words_up_to(AB, 3)[:len(rows)]
        part = _partition(words, rows)
        assert part == brute_force_partition(words, rows)
        assert part.non_transitive == tuple(
            tuple(words[x] for x in t) for t in expected_triples)

    def test_partition_matches_brute_force_on_random_rows(self):
        rng = random.Random(17)
        words = congruence._words_up_to(AB, 4)
        capped = wildcard_alone = 0
        for _ in range(600):
            n, m = rng.randint(1, 30), rng.randint(1, 4)
            rows = [tuple(rng.random() < 0.5 for _ in range(m)) for _ in range(n)]
            w = rng.randrange(n) if rng.random() < 0.8 else None  # the wildcard word
            if w is not None:
                rows[w] = tuple(None if rng.random() < 0.6 else x for x in rows[w])
            part = _partition(words[:n], rows)
            assert part == brute_force_partition(words[:n], rows)
            capped += len(part.non_transitive) == 10
            wildcard_alone += w is not None and None in rows[w] and (words[w],) in part.classes
        assert capped and wildcard_alone

    @pytest.mark.parametrize("name,word_bound", [
        pytest.param("U", 2, id="U"), pytest.param("P", 2, id="P"),
        pytest.param("primes", 2, id="primes"), pytest.param("Uprime", 2, id="Uprime"),
        pytest.param("Uprime", 3, id="Uprime-3")])
    @pytest.mark.parametrize("kind", ["arnold", "right"])
    def test_partition_matches_pairwise_reference(self, kind, name, word_bound):
        build = arnold_classes_bounded if kind == "arnold" else right_classes_bounded
        oracle = get_oracle(name)
        part = build(oracle, word_bound=word_bound, context_bound=2)
        assert partition_texts(part) == ref_bounded_classes(oracle, kind, word_bound, 2)

    @pytest.mark.parametrize("bounds", [(2, 2), (3, 2)], ids=["2/2", "3/2"])
    @pytest.mark.parametrize("build", [arnold_classes_bounded, right_classes_bounded])
    def test_neutral_letter_oracle_asked_as_often_as_without(self, build, bounds):
        # Uprime is U with the neutral letter 1: asked only about erasures,
        # it needs exactly U's queries
        calls = {}
        for name in ("U", "Uprime"):
            oracle = CountingOracle(get_oracle(name))
            build(oracle, word_bound=bounds[0], context_bound=bounds[1])
            calls[name] = oracle.calls
        assert calls["Uprime"] == calls["U"] > 0

    def test_oracle_without_neutral_letter_gets_raw_partition(self):
        # "some 1 occurs": the letter 1 is not neutral here, and no
        # neutral letter is declared, so no word may be erased
        a = automaton("ab1", ["p", "q"], ["p"], ["q"],
                      [("p", "a", "p"), ("p", "b", "p"), ("p", "1", "q"),
                       ("q", "a", "q"), ("q", "b", "q"), ("q", "1", "q")])
        oracle = RegularOracle(a)
        assert oracle.neutral_letter is None
        for kind, build in (("arnold", arnold_classes_bounded),
                            ("right", right_classes_bounded)):
            part = build(oracle, word_bound=2, context_bound=1)
            assert partition_texts(part) == ref_bounded_classes(oracle, kind, 2, 1)
            classes = [{w.text() for w in cls} for cls in part.classes]
            assert {"eps", "a", "b"} in [cls & {"eps", "a", "b"} for cls in classes]
            assert not any({"eps", "1"} <= cls for cls in classes)

    def test_non_transitive_partitions_match_pairwise_reference(self):
        rng = random.Random(5)
        surfaced = 0
        for _ in range(120):
            oracle = RegularOracle(random_automaton(rng, max_states=3))
            for kind, build in (("arnold", arnold_classes_bounded),
                                ("right", right_classes_bounded)):
                part = build(oracle, word_bound=2, context_bound=1)
                assert partition_texts(part) == ref_bounded_classes(oracle, kind, 2, 1)
                surfaced += bool(part.non_transitive)
        assert surfaced  # the wildcard slots were exercised

    def test_neutral_letter_partitions_match_pairwise_reference(self):
        # the reference compares raw words over raw contexts, where the empty
        # word's power slots are wildcards; the erased rows hold False there
        rng = random.Random(3)
        for _ in range(60):
            oracle = NeutralRegularOracle(neutral_automaton(rng))
            with pytest.raises(DegenerateErasureError):
                oracle.member(up_word("a", "11", oracle.alphabet))
            for kind, build in (("arnold", arnold_classes_bounded),
                                ("right", right_classes_bounded)):
                part = build(oracle, word_bound=2, context_bound=1)
                assert part.non_transitive == ()
                assert partition_texts(part) == ref_bounded_classes(oracle, kind, 2, 1)
        # at context bound 0 no raw context would force the empty power slot
        with pytest.raises(FormatError):
            build(oracle, word_bound=2, context_bound=0)

    def test_neutral_letter_partitions(self):
        oracle = get_oracle("Uprime")
        part = arnold_classes_bounded(oracle, word_bound=2, context_bound=2)
        classes = [{w.text() for w in cls} for cls in part.classes]
        with_b = {w.text() for cls in part.classes for w in cls if "b" in w.letters}
        assert classes == [{"eps", "1", "11"}, {"a", "aa", "1a", "a1"}, with_b]
        assert part.non_transitive == ()
        right = right_classes_bounded(oracle, word_bound=2, context_bound=2)
        assert len(right.classes) == 1
        # inserting or deleting the neutral letter never changes the class
        for p in (part, arnold_classes_bounded(oracle, word_bound=3, context_bound=2)):
            class_of_erasure = {}
            for i, cls in enumerate(p.classes):
                for w in cls:
                    erased = tuple(x for x in w.letters if x != "1")
                    assert class_of_erasure.setdefault(erased, i) == i


class TestClassifierFormat:
    def test_round_trip(self):
        for make in (last_letter_classifier, right_broken_classifier,
                     ends_in_a_classifier):
            c = make()
            assert parse_classifier(format_classifier(c)) == c

    def test_format_rejects_class_names_that_do_not_round_trip(self):
        c = last_letter_classifier()
        for bad in ("x y", "", 3):
            with pytest.raises(FormatError):
                format_classifier(classifier(AB, c.states, c.initial, c.delta,
                                             {**dict(c.classes), "qa": bad}))
        # state names that the parser reads as a comment or as a class line
        for bad in ("#q", "#", "class"):
            def name(q):
                return bad if q == "qa" else q
            renamed = classifier(AB, tuple(map(name, c.states)), name(c.initial),
                                 [(name(q), x, name(d)) for q, x, d in c.delta],
                                 {name(q): k for q, k in c.classes})
            with pytest.raises(FormatError):
                format_classifier(renamed)

    def test_rejects(self):
        with pytest.raises(FormatError):
            parse_classifier("alphabet a b\nstates q\ninitial q\nclass q c\nq a q\n")
        with pytest.raises(FormatError):  # missing class line
            parse_classifier("alphabet a\nstates q\ninitial q\nq a q\n")
        with pytest.raises(FormatError):  # nondeterministic
            parse_classifier("alphabet a\nstates q p\ninitial q\n"
                             "class q c\nclass p c\nq a q\nq a p\np a q\n")
        with pytest.raises(FormatError):  # two class lines for one state
            parse_classifier("alphabet a\nstates q\ninitial q\nclass q x\nclass q y\nq a q\n")

    def test_unreachable_only_class_rejected(self):
        with pytest.raises(FormatError):
            classifier(AB, ("q", "dead"), "q",
                       {("q", "a"): "q", ("q", "b"): "q",
                        ("dead", "a"): "q", ("dead", "b"): "q"},
                       {"q": "live", "dead": "ghost"})


class TestClassifierBasics:
    def test_classify_and_index(self):
        c = last_letter_classifier()
        assert c.classify(()) == "e"
        assert c.classify(("a", "b", "a")) == "A"
        assert c.equivalent(("a",), ("b", "a"))
        assert not c.equivalent(("a",), ("b",))
        assert c.index == 3

    def test_totality_enforced(self):
        with pytest.raises(FormatError):
            classifier(AB, ("q",), "q", {("q", "a"): "q"}, {"q": "c"})


_LOOP = {("q", "a"): "q", ("q", "b"): "q"}


@pytest.mark.parametrize("states, initial, delta, classes, message", [
    (("q", "q"), "q", _LOOP, {"q": "c"}, "duplicate state"),
    (("q",), "p", _LOOP, {"q": "c"}, "initial state not declared"),
    (("q",), "q", {**_LOOP, ("p", "a"): "q"}, {"q": "c"}, "transition uses undeclared state"),
    (("q",), "q", {**_LOOP, ("q", "c"): "q"}, {"q": "c"}, "transition letter 'c' not in alphabet"),
    (("q", "p"), "q", [("q", "a", "q"), ("q", "a", "p"), ("q", "b", "q"), ("p", "a", "q"),
                       ("p", "b", "q")], {"q": "c", "p": "c"},
     "nondeterministic transition at ('q', 'a')"),
    (("q",), "q", {("q", "a"): "q"}, {"q": "c"}, "missing transition at ('q', 'b')"),
    (("q",), "q", _LOOP, {"q": "c", "p": "d"}, "classes must label every state exactly once"),
    (("q", "p"), "q", {**_LOOP, ("p", "a"): "q", ("p", "b"): "q"}, {"q": "c", "p": "d"},
     "every class name must label some reachable state"),
])
def test_checked_constructor_messages(states, initial, delta, classes, message):
    with pytest.raises(FormatError) as exc:
        classifier(AB, states, initial, delta, classes)
    assert str(exc.value) == message


class TestCheckedEntry:
    def test_equality_ignores_the_order_of_classes(self):
        c = last_letter_classifier()
        d = Classifier(c.alphabet, c.states, c.initial, c.delta, tuple(reversed(c.classes)))
        assert d == c and hash(d) == hash(c)
        assert d != Classifier(c.alphabet, c.states, c.initial, c.delta,
                               (("qe", "e"), ("qa", "A"), ("qb", "A")))

    def test_internal_constructions_run_no_check(self, monkeypatch):
        # lemma_repair's merges, kernel classifiers and the diverging
        # spoiler's round-5 response classifiers build their tables directly
        rng = random.Random(23)
        corpus = [random_classifier(rng, max_states=6) for _ in range(540)]
        rng = random.Random(11)
        automata = [random_automaton(rng) for _ in range(15)]
        calls = []
        checked = Classifier.__init__

        def spy(self, *args):
            calls.append(args)
            checked(self, *args)

        monkeypatch.setattr(Classifier, "__init__", spy)
        assert parse_classifier(format_classifier(corpus[0])) == corpus[0]
        assert len(calls) == 1
        merges = sum(c.index - lemma_repair(c).index for c in corpus)
        kernels = [profile_kernel_classifier(a) for a in automata]
        t = play_bounded(up_word("", "aab", AB), get_oracle("Uprime"),
                         DivergingSpoiler(), ConstantDuplicator("a"), horizon=10)
        assert merges > 0 and len(kernels) == 15 and t.scheme is not None
        assert len(calls) == 1
