"""Formula layer: syntax, scope checking, compilation, evaluation,
satisfiability, and the game-sentence constructor."""

from __future__ import annotations

import random
from itertools import product

import pytest

from helpers import (all_up_words, lifted_automaton, random_automaton, random_sentence,
                     ref_direct_sim_quotient, ref_reduce, ref_universal_pos)
import omegaword.mso as mso
from omegaword.buchi import (BuchiAutomaton, _column, _letter_classes, accepts_up, automaton,
                             complement, intersect, is_empty)
from omegaword.errors import BudgetExceededError, FormatError, UnsupportedFormulaError
from omegaword.mso import (And, ExistsSet, ForallSet, In, LAtom, Less, Letter, Not,
                           UPValuation, check_scopes, code_valuation, coded_alphabet,
                           compile_to_buchi, count_latoms, decode_partition,
                           encode_congruence_game, evaluate, format_formula,
                           formula_size, free_variables, has_latoms,
                           indicator_set, is_closed, mso_satisfiable,
                           parse_formula, render_formula, singleton_set)
from omegaword.oracles import LassoOracle, RegularOracle
from omegaword.words import alphabet, up_word

AB = alphabet("ab")

INF_A = "(forall1 x (exists1 y (and (< x y) (letter y a))))"


def inf_a_oracle():
    nba = automaton("ab", ["q0", "q1"], {"q0"}, {"q1"},
                    {("q0", "b", "q0"), ("q0", "a", "q1"),
                     ("q1", "a", "q1"), ("q1", "b", "q0")})
    return RegularOracle(nba, name="infA")


class TestSyntax:
    def test_parse_format_round_trip(self):
        texts = [
            INF_A,
            "(exists1 x (letter x a))",
            "(not (or (< x y) (in x X)))",
            "(implies (in x X) (in x Y))",
            "(exists2 X (forall1 x (in x X)))",
            "(pred L Xa Xb)",
            "(and (< x y) (< y z) (letter z b))",
        ]
        for text in texts:
            phi = parse_formula(text)
            assert format_formula(phi) == text
            assert parse_formula(format_formula(phi)) == phi

    def test_parse_rejects_malformed(self):
        bad = ["", "x", "(< x)", "(bogus x y)", "(and)", "(not a b)",
               "(exists1 (x) (< x x))", "(< x y) extra", "(", ")",
               "(pred L)", "(implies (< x y))"]
        for text in bad:
            with pytest.raises(FormatError):
                parse_formula(text)

    def test_render_math_style(self):
        phi = parse_formula(INF_A)
        text = render_formula(phi)
        assert "∀x" in text and "∃y" in text and "∧" in text
        assert "letter(y) = a" in text and "x < y" in text
        assert "∈" in render_formula(In("x", "X"))
        assert render_formula(LAtom("L", ("Xa", "Xb"))) == "L(Xa, Xb)"
        assert render_formula(Not(Less("x", "y"))) == "¬(x < y)"

    def test_size_counts_nodes(self):
        assert formula_size(Less("x", "y")) == 1
        assert formula_size(And((Less("x", "y"), In("x", "X")))) == 3
        assert formula_size(LAtom("L", ("X", "Y"))) == 3
        assert formula_size(parse_formula(INF_A)) == 5

    def test_free_variables_and_closedness(self):
        phi = parse_formula("(and (< x y) (exists1 y2 (in y2 X)))")
        pos, sets = free_variables(phi)
        assert pos == {"x", "y"} and sets == {"X"}
        assert not is_closed(phi)
        assert is_closed(parse_formula(INF_A))

    def test_latom_detection(self):
        phi = parse_formula("(and (pred L X Y) (pred L X Y))")
        assert has_latoms(phi) and count_latoms(phi) == 2
        assert not has_latoms(parse_formula(INF_A))


class TestScopes:
    def test_well_scoped(self):
        assert check_scopes(parse_formula(INF_A)) == []
        reuse = parse_formula(
            "(and (exists1 x (letter x a)) (exists1 x (letter x b)))")
        assert check_scopes(reuse) == []

    def test_rebinding_along_a_path(self):
        phi = parse_formula("(exists1 x (exists1 x (< x x)))")
        assert any("bound twice" in p for p in check_scopes(phi))

    def test_unbound_variables(self):
        problems = check_scopes(parse_formula("(< x y)"))
        assert len(problems) == 2 and all("unbound" in p for p in problems)
        assert check_scopes(parse_formula("(< x y)"),
                            free_positions=("x", "y")) == []

    def test_sort_clashes(self):
        phi = parse_formula("(exists2 X (exists1 x (< x X)))")
        assert any("used as a position" in p for p in check_scopes(phi))
        phi = parse_formula("(exists1 x (in x x))")
        assert any("used as a set" in p for p in check_scopes(phi))

    ILL_SCOPED = (("(exists1 x (and (letter x a) (exists1 x (letter x b))))", "'x' bound twice"),
                  ("(exists1 x (in x x))", "position variable 'x' used as a set"),
                  ("(exists2 X (exists1 x (< x X)))", "set variable 'X' used as a position"))

    def test_compile_rejects_ill_scoped_formulas(self):
        for text, message in self.ILL_SCOPED:
            with pytest.raises(FormatError, match=message):
                compile_to_buchi(parse_formula(text), AB)
        with pytest.raises(FormatError, match="'x' bound twice"):  # rebinds a free name
            compile_to_buchi(parse_formula("(exists1 x (letter x a))"), AB, ("x",))
        # a free name may ride at both sorts; the caller promises a singleton
        compile_to_buchi(parse_formula("(and (in x x) (letter x a))"), AB, ("x",))

    def test_satisfiable_rejects_ill_scoped_formulas(self):
        for text, message in self.ILL_SCOPED:
            with pytest.raises(FormatError, match=message):
                mso_satisfiable(parse_formula(text), AB)

    def test_evaluate_rejects_ill_scoped_formulas(self):
        val = UPValuation(word=up_word("", "ab", AB), positions={"x": 0})
        for text, message in self.ILL_SCOPED:
            with pytest.raises(FormatError, match=message):
                evaluate(parse_formula(text), val)
        with pytest.raises(FormatError, match="'x' bound twice"):
            evaluate(parse_formula("(and (letter x a) (exists1 x (letter x b)))"), val)
        assert evaluate(parse_formula("(and (letter x a) (exists1 y (letter y b)))"), val)


class TestCompile:
    def test_infinitely_many_a(self):
        machine = compile_to_buchi(parse_formula(INF_A), AB)
        assert accepts_up(machine, up_word("", "ab", AB))
        assert not accepts_up(machine, up_word("a", "b", AB))

    def test_some_a(self):
        machine = compile_to_buchi(parse_formula("(exists1 x (letter x a))"), AB)
        assert accepts_up(machine, up_word("bbbbba", "b", AB))
        assert not accepts_up(machine, up_word("", "b", AB))

    def test_unsatisfiable_atom(self):
        machine = compile_to_buchi(parse_formula("(exists1 x (< x x))"), AB)
        empty, witness = is_empty(machine)
        assert empty and witness is None

    def test_free_context_tracks(self):
        phi = parse_formula("(in x X)")
        machine = compile_to_buchi(phi, AB, free=("x", "X"))
        assert machine.alphabet == coded_alphabet(AB, 2)
        word = up_word("abab", "ab", AB)
        inside = code_valuation(word, [singleton_set(2), indicator_set("001", "1")])
        outside = code_valuation(word, [singleton_set(2), indicator_set("1", "0")])
        assert accepts_up(machine, inside)
        assert not accepts_up(machine, outside)

    def test_quantifier_duality(self):
        body = parse_formula("(exists1 x (and (in x X) (letter x a)))")
        left = compile_to_buchi(Not(ExistsSet("X", body)), AB)
        right = compile_to_buchi(ForallSet("X", Not(body)), AB)
        for word in all_up_words("ab", 2, 2):
            assert accepts_up(left, word) == accepts_up(right, word)

    def test_rejects_latoms_and_bad_context(self):
        with pytest.raises(UnsupportedFormulaError):
            compile_to_buchi(LAtom("L", ("X", "Y")), AB)
        with pytest.raises(UnsupportedFormulaError):
            compile_to_buchi(parse_formula("(< x y)"), AB)
        with pytest.raises(FormatError):
            compile_to_buchi(parse_formula("(< x y)"), AB, free=("x", "x"))
        with pytest.raises(FormatError):
            compile_to_buchi(parse_formula("(exists1 x (letter x z))"), AB)

    def test_atoms_match_direct_semantics(self):
        """Every atom and its negation, compiled over the tracks (x, y, X),
        against `evaluate`'s direct atom semantics on valuations whose
        position tracks are singletons."""
        ctx = ("x", "y", "X")
        atoms = [parse_formula(text) for text in (
            "(< x y)", "(< y x)", "(< x x)", "(in x X)", "(in y X)",
            "(letter x a)", "(letter y b)")]
        sets = [indicator_set("", "0"), indicator_set("", "1"), indicator_set("01", "0"),
                indicator_set("1", "01"), indicator_set("", "10")]
        words = [up_word("", "a", AB), up_word("ab", "b", AB), up_word("b", "ab", AB)]
        verdicts = []
        for atom in atoms:
            for phi in (atom, Not(atom)):
                machine = compile_to_buchi(phi, AB, ctx)
                for word, big, i, j in product(words, sets, range(4), range(4)):
                    val = UPValuation(word=word, positions={"x": i, "y": j}, sets={"X": big})
                    coded = code_valuation(word, [singleton_set(i), singleton_set(j), big])
                    want = evaluate(phi, val)
                    assert accepts_up(machine, coded) == want, (format_formula(phi), i, j)
                    verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)
        for phi in (Letter("x", "c"), Not(Letter("x", "c"))):
            with pytest.raises(FormatError):
                compile_to_buchi(phi, AB, ctx)

    def test_fixed_automata_built_once_per_compile(self, monkeypatch):
        """Equal atoms, and the singleton promises of existential position
        quantifiers at one track count, share one automaton within a
        compile: 8 occurrences, 5 distinct.  The next compile builds its
        own."""
        built = []
        original = mso._track_automaton

        def spy(base, m, k, edges):
            built.append((m, k))
            return original(base, m, k, edges)

        monkeypatch.setattr(mso, "_track_automaton", spy)
        phi = parse_formula("(exists1 x (and (letter x a) (exists1 y (and (< x y) (letter y a)))"
                            " (exists1 z (and (< x z) (letter z a)))))")
        first = compile_to_buchi(phi, AB)
        assert sorted(built) == [(1, 2), (1, 2), (2, 2), (2, 2), (2, 3)]
        assert compile_to_buchi(phi, AB) == first and len(built) == 10

    def test_negated_compile_matches_complement(self):
        """The negation pushed inward by the compiler against the
        profile-monoid complement of the plain compile, an independent path:
        both accept the same lassos with |u|, |v| <= 2.  Sentences whose
        complement exceeds the budget are skipped (4 of the 40)."""
        rng = random.Random(5)
        words = all_up_words("ab", 2, 2)
        checked = accepted = 0
        for _ in range(40):
            phi = random_sentence(rng, depth=3)
            try:
                other = complement(compile_to_buchi(phi, AB), state_budget=1000)
            except BudgetExceededError:
                continue
            negated = compile_to_buchi(Not(phi), AB)
            checked += 1
            for w in words:
                verdict = accepts_up(other, w)
                assert accepts_up(negated, w) == verdict, (format_formula(phi), w.text())
                accepted += verdict
        assert checked >= 36
        assert 0 < accepted < checked * len(words)


class TestReduce:
    """`_reduce` against the four-pass reference chain `helpers.ref_reduce`:
    equal automata (states tuple and order, initial, accepting and
    transition sets), so no compile output can move."""

    @staticmethod
    def random_draws() -> list:
        rng = random.Random(404)
        cases = []
        for k in range(320):
            accept_prob = (0.45, 1.0, 0.0, 0.2)[k % 4]
            cases.append(random_automaton(rng, max_states=12, accept_prob=accept_prob))
        while True:  # one automaton that is still above the gate after bisimulation
            big = random_automaton(rng, max_states=400, accept_prob=0.3)
            if len(ref_reduce(big).states) > mso._SIM_STATE_GATE:
                break
        cases.append(big)
        return cases

    @staticmethod
    def compile_inputs(monkeypatch, sentences: int = 20) -> list:
        """Every `_reduce` input of the first seed-9 depth-5 compiles."""
        seen = []
        original = mso._reduce

        def spy(a):
            seen.append(a)
            return original(a)

        monkeypatch.setattr(mso, "_reduce", spy)
        rng = random.Random(9)
        for _ in range(sentences):
            phi = random_sentence(rng, depth=5)
            try:
                compile_to_buchi(phi, AB, state_budget=1000)
            except BudgetExceededError:
                pass
        monkeypatch.setattr(mso, "_reduce", original)
        return seen

    def test_matches_reference_on_random_automata(self):
        cases = self.random_draws()
        sizes = []
        for a in cases:
            want = ref_reduce(a)
            assert mso._reduce(a) == want
            sizes.append(len(want.states))
        assert sizes.count(0) > 60  # no live state: all-rejecting draws and more
        assert any(len(a.accepting) == len(a.states) > 3 for a in cases)

    def test_matches_reference_on_compile_inputs(self, monkeypatch):
        seen = self.compile_inputs(monkeypatch)
        assert len(seen) > 150
        for a in seen:
            assert mso._reduce(a) == ref_reduce(a)

    def test_returns_its_input_exactly_on_a_no_op(self, monkeypatch):
        """`_reduce(a) is a` exactly when the reference leaves `a` as it is,
        on the random draws and on the compile inputs."""
        for cases in (self.random_draws(), self.compile_inputs(monkeypatch, 60)):
            same = 0
            for a in cases:
                unchanged = ref_reduce(a) == a
                assert (mso._reduce(a) is a) == unchanged
                same += unchanged
            assert 0 < same < len(cases)

    def test_matches_reference_on_shared_columns(self):
        """Coded-alphabet automata whose letters share successor columns,
        alone or in a product with a second one, and every third one rebuilt
        by the checked constructor, so its columns are equal by value only."""
        rng = random.Random(505)
        shared = 0
        for k in range(120):
            a = lifted_automaton(rng, 1 + k % 3, max_states=8,
                                 accept_prob=(0.45, 1.0, 0.2)[k % 3])
            if k % 2:
                a = intersect(a, lifted_automaton(rng, 1 + k % 3, max_states=4))
            if k % 3 == 0:
                a = automaton(a.alphabet, a.states, a.initial, a.accepting, a.transitions)
            reps, _ = _letter_classes(_column(a._table.succ[x]) for x in a.alphabet)
            shared += len(reps) < len(a.alphabet)
            assert mso._reduce(a) == ref_reduce(a)
        assert shared > 100

    def test_unreduced_compile_accepts_the_same_words(self, monkeypatch):
        """Independent of every reduction: a compile with `_reduce` as the
        identity accepts exactly the lasso words a normal compile accepts."""
        rng = random.Random(33)
        sentences = [random_sentence(rng, depth=3) for _ in range(60)]
        words = all_up_words("ab", 2, 2)
        reduced = [compile_to_buchi(phi, AB) for phi in sentences]
        monkeypatch.setattr(mso, "_reduce", lambda a: a)
        accepted = 0
        for phi, machine in zip(sentences, reduced):
            plain = compile_to_buchi(phi, AB)
            assert len(plain.states) >= len(machine.states)
            for w in words:
                verdict = accepts_up(machine, w)
                assert accepts_up(plain, w) == verdict, (format_formula(phi), w.text())
                accepted += verdict
        assert 0 < accepted < len(sentences) * len(words)


class TestUniversalPos:
    """The breakpoint construction against the frozenset construction
    `helpers.ref_universal_pos`: equal automata (states tuple and labels,
    initial, accepting and transition sets), or the same exception type and
    message."""

    @staticmethod
    def outcome(construct, a, base, outer, budget):
        try:
            return construct(a, base, outer, budget)
        except BudgetExceededError as exc:
            return type(exc), str(exc)

    def test_matches_reference_on_random_automata(self):
        rng = random.Random(606)
        raised = built = 0
        for k in range(240):
            outer = k % 2
            a = random_automaton(rng, max_states=8, accept_prob=(0.45, 1.0, 0.2)[k % 3],
                                 letters=coded_alphabet(AB, outer + 1).letters)
            # labels whose sorted order is not the declared order
            n = len(a.states)
            names = [(f"p{i}", i, (i % 2, f"p{i}"))[k % 3] for i in rng.sample(range(n), n)]
            to = dict(zip(a.states, names))
            a = automaton(a.alphabet, names, {to[q] for q in a.initial},
                          {to[q] for q in a.accepting},
                          {(to[s], x, to[d]) for s, x, d in a.transitions})
            budget = rng.choice((12, 40, 1000))
            want = self.outcome(ref_universal_pos, a, AB, outer, budget)
            assert self.outcome(mso._universal_pos, a, AB, outer, budget) == want
            if isinstance(want, tuple):
                raised += 1
            else:
                built += bool(want.states)
        assert raised > 20 and built > 20

    def test_matches_reference_on_shared_columns(self):
        """Outer letters that share their pair of successor columns, with
        budgets low enough that some constructions raise."""
        rng = random.Random(707)
        raised = built = 0
        for k in range(160):
            outer = 1 + k % 2
            a = lifted_automaton(rng, outer + 1, max_states=6,
                                 accept_prob=(0.45, 1.0, 0.2)[k % 3])
            budget = rng.choice((12, 40, 1000))
            want = self.outcome(ref_universal_pos, a, AB, outer, budget)
            assert self.outcome(mso._universal_pos, a, AB, outer, budget) == want
            if isinstance(want, tuple):
                raised += 1
            else:
                built += bool(want.states)
        assert raised > 10 and built > 20

    def test_branching_cap_matches_reference(self):
        """An inner automaton wide enough that the first state with two
        threads has 28 * 28 * 28 = 21952 > `_SPAWN_COMBO_CAP` choices: the
        construction raises before it expands them, as the reference does."""
        n = 28
        letters = coded_alphabet(AB, 1).letters
        a = automaton(letters, range(n), [0], range(n),
                      [(p, x, q) for p in range(n) for x in letters for q in range(n)])
        want = self.outcome(ref_universal_pos, a, AB, 0, 1000)
        assert want == (BudgetExceededError, "universal-position branching 21952 exceeds cap")
        assert self.outcome(mso._universal_pos, a, AB, 0, 1000) == want

    def test_matches_reference_on_compile_inputs(self, monkeypatch):
        seen = []
        original = mso._universal_pos

        def spy(a, base, outer, budget):
            seen.append((a, base, outer, budget))
            return original(a, base, outer, budget)

        monkeypatch.setattr(mso, "_universal_pos", spy)
        rng = random.Random(9)
        for _ in range(20):
            phi = random_sentence(rng, depth=5)
            try:
                compile_to_buchi(phi, AB, state_budget=1000)
            except BudgetExceededError:
                pass
        assert len(seen) > 30
        raised = 0
        for args in seen:
            want = self.outcome(ref_universal_pos, *args)
            assert self.outcome(original, *args) == want
            raised += isinstance(want, tuple)
        assert raised > 0


class TestDirectSimQuotient:
    """The simulation step against `helpers.ref_direct_sim_quotient`, the
    form that builds every pruned row before it compares: equal results,
    None included."""

    def test_matches_reference_on_compile_inputs(self, monkeypatch):
        seen = []
        original = mso._direct_sim_quotient

        def spy(edges, acc, init):
            seen.append((edges, acc, init))
            return original(edges, acc, init)

        monkeypatch.setattr(mso, "_direct_sim_quotient", spy)
        compile_seed9_set()
        assert len(seen) > 300
        none = 0
        for args in seen:
            want = ref_direct_sim_quotient(*args)
            assert original(*args) == want
            none += want is None
        assert 0 < none < len(seen)

    def test_matches_reference_on_random_graphs(self):
        """Graphs of 1 to 12 nodes over 1 to 4 letters with several initial
        nodes; rows ascending without repeats, as `_reduce` writes them."""
        rng = random.Random(808)
        outcomes = {"none": 0, "merged": 0, "pruned": 0}
        for k in range(360):
            m = rng.randint(1, 12)
            letters = rng.randint(1, 4)
            fanout = (1, 2, 3, m)[k % 4]
            edges = [[sorted(rng.sample(range(m), rng.randint(0, min(fanout, m))))
                      for _ in range(m)] for _ in range(letters)]
            acc = [rng.random() < (0.5, 1.0, 0.2)[k % 3] for _ in range(m)]
            init = set(rng.sample(range(m), rng.randint(1, min(3, m))))
            want = ref_direct_sim_quotient(edges, acc, init)
            assert mso._direct_sim_quotient(edges, acc, init) == want
            if want is None:
                outcomes["none"] += 1
            else:
                outcomes["merged" if len(want[1]) < m else "pruned"] += 1
        assert min(outcomes.values()) > 30, outcomes


def compile_seed9_set():
    """Compile the 60 seed-9 depth-5 sentences at budget 1000 (the pinned set)."""
    rng = random.Random(9)
    for _ in range(60):
        phi = random_sentence(rng, depth=5)
        try:
            compile_to_buchi(phi, AB, state_budget=1000)
        except BudgetExceededError:
            pass


class TestTrustedConstruction:
    """The compiler builds every automaton from an index table and never runs
    the label checks of the public constructor."""

    def test_compile_runs_no_label_validation(self, monkeypatch):
        calls = []
        original = BuchiAutomaton.__init__

        def spy(self, *args):
            calls.append(args)
            original(self, *args)

        monkeypatch.setattr(BuchiAutomaton, "__init__", spy)
        compile_seed9_set()
        assert calls == []
        automaton(AB, ["q"], ["q"], ["q"], [("q", "a", "q")])  # the spy sees the public path
        assert len(calls) == 1

    def test_compile_steps_match_the_validating_constructor(self, monkeypatch):
        """Every `_track_automaton`, `_universal_pos` and `_reduce` result of
        the seed-9 compile, rebuilt from its label views through the checked
        constructor, is an equal automaton."""
        outputs = []
        for name in ("_track_automaton", "_universal_pos", "_reduce"):
            def spy(*args, original=getattr(mso, name)):
                out = original(*args)
                outputs.append(out)
                return out

            monkeypatch.setattr(mso, name, spy)
        compile_seed9_set()
        assert len(outputs) > 1000
        for a in outputs:
            assert BuchiAutomaton(a.alphabet, a.states, a.initial, a.accepting,
                                  a.transitions) == a


class TestEvaluate:
    def test_atoms_on_explicit_bindings(self):
        val = UPValuation(word=up_word("ab", "ba", AB),
                          positions={"x": 1, "y": 3},
                          sets={"X": indicator_set("01", "0")})
        assert evaluate(parse_formula("(< x y)"), val)
        assert not evaluate(parse_formula("(< y x)"), val)
        assert evaluate(parse_formula("(in x X)"), val)
        assert not evaluate(parse_formula("(in y X)"), val)
        assert evaluate(parse_formula("(letter x b)"), val)
        assert evaluate(parse_formula("(implies (< y x) (< x x))"), val)

    def test_quantifier_dispatch_matches_compile(self):
        phi = parse_formula(INF_A)
        assert evaluate(phi, UPValuation(word=up_word("", "ab", AB)))
        assert not evaluate(phi, UPValuation(word=up_word("a", "b", AB)))

    def test_quantified_subformula_with_free_variables(self):
        phi = parse_formula("(exists1 y (and (< x y) (in y X)))")
        val = UPValuation(word=up_word("", "ab", AB),
                          positions={"x": 3},
                          sets={"X": indicator_set("00001", "0")})
        assert evaluate(phi, val)
        val2 = UPValuation(word=up_word("", "ab", AB),
                           positions={"x": 5},
                           sets={"X": indicator_set("00001", "0")})
        assert not evaluate(phi, val2)

    def test_latom_partition_semantics(self):
        oracle = inf_a_oracle()
        atom = parse_formula("(pred R Xa Xb)")
        even_odd = UPValuation(sets={"Xa": indicator_set("", "10"),
                                     "Xb": indicator_set("", "01")})
        assert evaluate(atom, even_odd, {"R": oracle})
        only_b_late = UPValuation(sets={"Xa": indicator_set("1", "0"),
                                        "Xb": indicator_set("0", "1")})
        assert not evaluate(atom, only_b_late, {"R": oracle})
        overlap = UPValuation(sets={"Xa": indicator_set("", "1"),
                                    "Xb": indicator_set("", "01")})
        assert not evaluate(atom, overlap, {"R": oracle})
        gaps = UPValuation(sets={"Xa": indicator_set("", "100"),
                                 "Xb": indicator_set("", "010")})
        assert not evaluate(atom, gaps, {"R": oracle})

    def test_lasso_language_atom_true_on_lasso_valuations(self):
        rng = random.Random(5)
        atom = parse_formula("(pred P Xa Xb)")
        oracle = LassoOracle()
        for _ in range(20):
            bits = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
            head = "".join(rng.choice("01") for _ in range(rng.randrange(0, 3)))
            first = indicator_set(head, bits)
            other = indicator_set("".join("10"[c == "1"] for c in head),
                                  "".join("10"[c == "1"] for c in bits))
            val = UPValuation(sets={"Xa": first, "Xb": other})
            assert evaluate(atom, val, {"P": oracle})

    def test_errors(self):
        with pytest.raises(UnsupportedFormulaError):
            evaluate(ExistsSet("X", LAtom("L", ("X", "Y"))),
                     UPValuation(), {"L": LassoOracle()})
        with pytest.raises(UnsupportedFormulaError):
            evaluate(parse_formula("(pred L X Y)"), UPValuation(sets={}))
        with pytest.raises(FormatError):
            evaluate(parse_formula("(< x y)"), UPValuation(positions={"x": 0}))
        with pytest.raises(UnsupportedFormulaError):
            evaluate(parse_formula("(pred P X)"),
                     UPValuation(sets={"X": indicator_set("", "1")}),
                     {"P": LassoOracle()})

    def test_agreement_smoke(self):
        rng = random.Random(11)
        for _ in range(12):
            phi = random_sentence(rng, "ab", depth=3)
            machine = compile_to_buchi(phi, AB)
            for _ in range(5):
                prefix = "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
                period = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
                word = up_word(prefix, period, AB)
                assert evaluate(phi, UPValuation(word=word)) == \
                    accepts_up(machine, word)


class TestSatisfiable:
    def test_inf_a_and_inf_b(self):
        phi = parse_formula(
            "(and (forall1 x (exists1 y (and (< x y) (letter y a))))"
            " (forall1 u (exists1 v (and (< u v) (letter v b)))))")
        sat, model = mso_satisfiable(phi, "ab")
        assert sat and model is not None and model.word is not None
        assert evaluate(phi, model)

    def test_all_a_with_some_b(self):
        phi = parse_formula(
            "(and (forall1 x (letter x a)) (exists1 y (letter y b)))")
        sat, model = mso_satisfiable(phi, "ab")
        assert not sat and model is None

    def test_no_position_below_itself(self):
        sat, model = mso_satisfiable(parse_formula("(forall1 x (not (< x x)))"),
                                     "ab")
        assert sat and model is not None

    def test_witness_with_free_set(self):
        phi = parse_formula("(exists1 x (and (in x X) (letter x b)))")
        sat, model = mso_satisfiable(phi, "ab", free=("X",))
        assert sat and "X" in model.sets
        assert evaluate(phi, model)


class TestPartitionCoding:
    def test_decode_partition(self):
        tracks = [indicator_set("", "10"), indicator_set("", "01")]
        word = decode_partition(tracks, AB)
        assert word == up_word("", "ab", AB)
        assert decode_partition([indicator_set("", "1"),
                                 indicator_set("", "01")], AB) is None
        with pytest.raises(FormatError):
            decode_partition([indicator_set("", "1")], AB)

    def test_code_valuation_letters(self):
        word = up_word("a", "ab", AB)
        coded = code_valuation(word, [singleton_set(1)])
        assert coded.alphabet == coded_alphabet(AB, 1)
        assert coded.prefix[0] == "a|0"
        from omegaword.words import letter_at
        assert letter_at(coded, 1) == "a|1"
        assert letter_at(coded, 2) == "b|0"


class TestEncodeGame:
    def test_structure(self):
        phi = encode_congruence_game(alphabet("ab1"))
        assert is_closed(phi)
        assert check_scopes(phi) == []
        assert count_latoms(phi) == 1
        assert parse_formula(format_formula(phi)) == phi
        assert "∀X1" in render_formula(phi)

    def test_latom_arity_matches_alphabet(self):

        def only_atom(f):
            if isinstance(f, LAtom):
                return f
            from omegaword.mso import _children
            for c in _children(f):
                found = only_atom(c)
                if found is not None:
                    return found
            return None

        for letters in ("a1", "ab1", "abc1"):
            atom = only_atom(encode_congruence_game(alphabet(letters)))
            assert atom is not None and len(atom.args) == len(letters)

    def test_size_exactly_affine(self):
        sizes = [formula_size(encode_congruence_game(alphabet("abcde"[:k - 1] + "1")))
                 for k in range(2, 7)]
        steps = {b - a for a, b in zip(sizes, sizes[1:])}
        assert len(steps) == 1

    def test_rejects_bad_alphabets(self):
        with pytest.raises(FormatError):
            encode_congruence_game(alphabet("ab"), neutral="1")
        with pytest.raises(FormatError):
            encode_congruence_game(alphabet("1"), neutral="1")
