"""Shared test utilities: seeded random instances and independent reference
implementations used to cross-check the library."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from itertools import chain, product
from pathlib import Path
from typing import Optional

import networkx as nx

from omegaword.buchi import (DEFAULT_STATE_BUDGET, BuchiAutomaton, Profile, Table,
                             TransitionMonoid, automaton, compose_profiles,
                             inverse_map_letters, reachable_fragment)
from omegaword.congruence import classifier
from omegaword.errors import BudgetExceededError, DegenerateErasureError
from omegaword.mso import (_SIM_STATE_GATE, _SPAWN_COMBO_CAP, And, ExistsPos, ExistsSet,
                           ForallPos, ForallSet, Formula, Implies, In, Less, Letter, Not, Or,
                           _drop_last_bit, coded_alphabet)
from omegaword.words import Alphabet, FiniteWord, UPWord, alphabet, homomorphism, up_word


REPO = Path(__file__).resolve().parents[1]


def run_python(args: list) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this checkout."""
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def random_automaton(rng: random.Random, max_states: int = 4, letters: str = "ab",
                     accept_prob: float = 0.45, states: Optional[int] = None) -> BuchiAutomaton:
    """A random automaton on `states` states, or on 1 to `max_states` drawn."""
    n = rng.randrange(1, max_states + 1) if states is None else states
    states = [f"q{i}" for i in range(n)]
    trans = set()
    for q in states:
        for x in letters:
            k = rng.choices([0, 1, 2], weights=[25, 55, 20])[0]
            for d in rng.sample(states, min(k, n)):
                trans.add((q, x, d))
    accepting = {q for q in states if rng.random() < accept_prob}
    return automaton(alphabet(letters), states, {states[0]}, accepting, trans)


def kernel_universe() -> list[BuchiAutomaton]:
    """The 40 automata whose kernel classifiers the `classes` benchmark
    workload checks: seed 2, automaton i on 2 + i % 3 states."""
    rng = random.Random(2)
    return [random_automaton(rng, states=2 + i % 3) for i in range(40)]


def random_up(rng: random.Random, letters: str = "ab", max_prefix: int = 3,
              max_period: int = 3) -> UPWord:
    p = "".join(rng.choice(letters) for _ in range(rng.randrange(0, max_prefix + 1)))
    v = "".join(rng.choice(letters) for _ in range(rng.randrange(1, max_period + 1)))
    return up_word(p, v, alphabet(letters))


def random_classifier(rng: random.Random, max_states: int = 4,
                      max_classes: int = 3):
    n = rng.randrange(1, max_states + 1)
    states = [f"s{i}" for i in range(n)]
    delta = {(q, x): rng.choice(states) for q in states for x in "ab"}
    # only label-reachable classes keep the constructor happy: compute first
    seen = {"s0"}
    frontier = ["s0"]
    while frontier:
        q = frontier.pop()
        for x in "ab":
            d = delta[(q, x)]
            if d not in seen:
                seen.add(d)
                frontier.append(d)
    names = [f"c{i}" for i in range(max_classes)]
    while True:
        classes = {q: rng.choice(names) for q in states}
        reach_names = {classes[q] for q in seen}
        if all(classes[q] in reach_names for q in states):
            break
    return classifier(alphabet("ab"), states, "s0", delta, classes)


def twin_classifier(rng: random.Random, max_states: int = 4):
    """A random "ab" classifier with a third letter c that acts like a or b,
    over an alphabet order drawn from "bac", "abc" and "cab"."""
    base = random_classifier(rng, max_states=max_states)
    twin = rng.choice("ab")
    delta = {(q, x): base.step(q, twin if x == "c" else x) for q in base.states for x in "abc"}
    return classifier(alphabet(rng.choice(("bac", "abc", "cab"))), base.states, base.initial,
                      delta, dict(base.classes))


def _post(a: BuchiAutomaton):
    """``post(q, x)``: the x-successors of state q, read off the transition
    set, so that no reference shares the successor table it checks."""
    succ: dict = {}
    for s, x, d in a.transitions:
        succ.setdefault((s, x), []).append(d)
    return lambda q, x: succ.get((q, x), ())


def ref_accepts(a: BuchiAutomaton, w: UPWord) -> bool:
    """Independent lasso membership via networkx reachability and SCCs."""
    post = _post(a)
    current = set(a.initial)
    for x in w.prefix:
        current = {d for q in current for d in post(q, x)}
    n = len(w.period)
    g = nx.DiGraph()
    for q in a.states:
        for i in range(n):
            g.add_node((q, i))
            for d in post(q, w.period[i]):
                g.add_edge((q, i), (d, (i + 1) % n))
    reach = set()
    for s in ((q, 0) for q in current):
        reach |= nx.descendants(g, s) | {s}
    for comp in nx.strongly_connected_components(g):
        on_cycle = len(comp) > 1 or any(g.has_edge(c, c) for c in comp)
        if not on_cycle:
            continue
        if any(node in reach and node[0] in a.accepting for node in comp):
            return True
    return False


def all_up_words(letters: str = "ab", max_prefix: int = 3,
                 max_period: int = 3) -> list[UPWord]:
    """Every lasso word with the given presentation size bounds."""
    alpha = alphabet(letters)
    out = []
    for np in range(max_prefix + 1):
        for prefix in product(letters, repeat=np):
            for nv in range(1, max_period + 1):
                for period in product(letters, repeat=nv):
                    out.append(UPWord(alpha, prefix, period))
    return out


def _segment_groups(letters: tuple[str, ...], budget: int):
    """All tuples of finite segments whose token cost fits the budget, paired
    with the cost actually used.  Each segment costs its length plus one (the
    separator that closes it), matching how separated words are measured."""
    yield (), 0
    for seglen in range(budget):
        for seg in product(letters, repeat=seglen):
            for rest, used in _segment_groups(letters, budget - seglen - 1):
                yield (seg,) + rest, used + seglen + 1


def all_separated_words(letters: str = "ab", max_tokens: int = 10):
    """Every separated word of token length <= max_tokens, counting each
    letter and each separator (the marked one included) as one token.

    The right-hand groups of each remaining budget come in `_segment_groups`
    order, built from the groups of the smaller budgets.  They are kept for
    the budgets below ``max_tokens - 1``, which recur; the two largest are
    asked for at most twice and are streamed each time."""
    from omegaword.trio import SeparatedWord

    alpha = alphabet(letters)
    base = tuple(letters)
    segment = {seg: FiniteWord(alpha, seg)
               for n in range(max_tokens) for seg in product(base, repeat=n)}
    kept: dict = {}

    def right_groups(budget: int):
        if budget in kept:
            return kept[budget]
        groups = chain([()], ((segment[seg],) + rest for n in range(budget)
                              for seg in product(base, repeat=n)
                              for rest in right_groups(budget - n - 1)))
        if budget < max_tokens - 1:
            groups = kept[budget] = list(groups)
        return groups

    for left, used in _segment_groups(base, max_tokens):
        lw = tuple(segment[seg] for seg in left)
        for rw in right_groups(max_tokens - used):
            yield SeparatedWord(alpha, lw, rw)


def ref_parse_separated(text: str, letters):
    """`parse_separated` as a left-to-right scan, one character at a time:
    ``%#`` is read first, then ``#``, then a letter of the alphabet."""
    from omegaword.errors import FormatError
    from omegaword.trio import MARKED_SEPARATOR, SEPARATOR, SeparatedWord

    alpha = alphabet(letters)
    left: list[FiniteWord] = []
    right: list[FiniteWord] = []
    current: list[str] = []
    i = 0
    while i < len(text):
        if text.startswith(MARKED_SEPARATOR, i):
            right.append(FiniteWord(alpha, tuple(current)))
            current = []
            i += len(MARKED_SEPARATOR)
        elif text[i] == SEPARATOR:
            if right:
                raise FormatError("plain separator after a marked one")
            left.append(FiniteWord(alpha, tuple(current)))
            current = []
            i += 1
        elif text[i] in alpha:
            current.append(text[i])
            i += 1
        else:
            raise FormatError(f"letter {text[i]!r} is not in {alpha.letters}")
    if current:
        raise FormatError("trailing letters after the last separator")
    return SeparatedWord(alpha, tuple(left), tuple(right))


def ref_first_other_letter(w, letter: str, first: int, last: int):
    """The first position in first..last whose letter is not `letter`, or
    None, by asking `letter_at` at every position in turn."""
    from omegaword.words import letter_at

    for p in range(first, last + 1):
        if letter_at(w, p) != letter:
            return p
    return None


def ref_scheme_search(spoiler, w_words, v_words):
    """The diverging spoiler's direct scheme search without deduplication:
    every single-index cycle, then every two-index cycle, each put to the
    oracle, until one separates."""
    from omegaword.game import IndexScheme

    n = spoiler.horizon
    singles = [IndexScheme((), (i,)) for i in range(1, n + 1)]
    pairs = [IndexScheme((), (i, j))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for scheme in singles + pairs:
        if spoiler._separates(scheme, w_words, v_words):
            return scheme
    return None


def ref_distinct_cycles(w_words, v_words) -> list[tuple[int, ...]]:
    """The cycles the diverging spoiler's scheme search puts to the oracle,
    in order: every single-index cycle, then every two-index cycle, each
    kept only when no earlier kept cycle has the same (w_i, v_i) contents."""
    n = len(w_words)
    contents = list(zip(w_words, v_words))
    singles = [(i,) for i in range(1, n + 1)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    tried = set()
    out = []
    for cycle in singles + pairs:
        key = tuple(contents[i - 1] for i in cycle)
        if key not in tried:
            tried.add(key)
            out.append(cycle)
    return out


def ref_transcript_json(t, move_alphabet=None) -> str:
    """A transcript's JSON text through the standard library's encoder:
    the document as a dict, then `json.dumps(indent=2, sort_keys=True)`."""
    import json

    from omegaword.words import format_word

    if move_alphabet is None:
        move_alphabet = (t.spoiler_words[0].alphabet if t.spoiler_words
                         else t.word.alphabet)

    def iv(x):
        return [x.first, x.last]

    doc = {
        "word": format_word(t.word),
        "word_alphabet": list(t.word.alphabet.letters),
        "move_alphabet": list(move_alphabet.letters),
        "horizon": t.horizon,
        "oracle": t.oracle_name,
        "family": [iv(x) for x in t.family],
        "family_note": t.family_note,
        "selected": [iv(x) for x in t.selected],
        "chosen": [iv(x) for x in t.chosen],
        "spoiler_words": [w.text() for w in t.spoiler_words],
        "duplicator_words": [w.text() for w in t.duplicator_words],
        "scheme": None if t.scheme is None else {
            "head": list(t.scheme.head), "cycle": list(t.scheme.cycle)},
        "forfeit": None if t.forfeit is None else list(t.forfeit),
        "verdicts": None if t.verdicts is None else list(t.verdicts),
        "verdict_notes": list(t.verdict_notes),
        "winner": t.winner,
        "adjudication_error": t.adjudication_error,
        "notes": list(t.notes),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def ref_condition2_candidates(c, oracle, *, word_bound: int, cycle_bound: int):
    """The candidates of `check_condition2_bounded`, without a memo, in its
    enumeration order (heads of up to `HEAD_BOUND` factors, cycles of 1 to
    `cycle_bound` factors, factors length-lexicographic), lazily: each
    sequence whose replacement changes a factor, that replacement, and both
    `product_member` verdicts with their notes."""
    from omegaword.congruence import (HEAD_BOUND, PeriodicWordSequence, class_representatives,
                                      product_member)

    reps = class_representatives(c)
    words = [FiniteWord(c.alphabet, w) for n in range(word_bound + 1)
             for w in product(c.alphabet.letters, repeat=n)]

    def rep(w):
        return reps[c.classify(w.letters)]

    heads = [h for n in range(HEAD_BOUND + 1) for h in product(words, repeat=n)]
    cycles = [cyc for n in range(1, cycle_bound + 1) for cyc in product(words, repeat=n)]
    for head in heads:
        for cycle in cycles:
            if all(rep(w) == w for w in head + cycle):
                continue
            original = PeriodicWordSequence(head, cycle)
            replaced = PeriodicWordSequence(tuple(map(rep, head)), tuple(map(rep, cycle)))
            yield (original, replaced, product_member(oracle, original),
                   product_member(oracle, replaced))


def ref_check_condition2_bounded(c, oracle, *, word_bound: int, cycle_bound: int):
    """`check_condition2_bounded` without a memo: every candidate sequence
    and its replacement are put to the oracle through `product_member`, in
    the same enumeration order (`ref_condition2_candidates`)."""
    from omegaword.congruence import Condition2ViolationWitness, validate_condition2_witness
    from omegaword.errors import DegenerateProductError

    for original, replaced, (om, note_o), (rm, note_r) in ref_condition2_candidates(
            c, oracle, word_bound=word_bound, cycle_bound=cycle_bound):
        if om == rm:
            continue
        try:
            replaced_product = replaced.product()
        except DegenerateProductError:
            replaced_product = None
        witness = Condition2ViolationWitness(original, replaced, original.product(),
                                             replaced_product, om, rm, note_o or note_r)
        if validate_condition2_witness(c, oracle, witness):
            return witness
    return None


def ref_bounded_classes(oracle, kind: str, word_bound: int, context_bound: int):
    """Independent pairwise bounded congruence ("arnold" or "right").

    Each pair of words is compared by plain loops over every context, asking
    the oracle directly with no memo.  A power whose repeated word is empty is
    skipped, and a word whose neutral erasure is finite is a non-member.
    Returns (classes, non_transitive) as texts: the classes of the transitive
    closure ordered by first word, and the first ten triples (i, j, k) in
    index order with i~j and j~k but not i~k.
    """
    alpha = oracle.alphabet
    letters = tuple(alpha)

    def up_to(n):
        return [w for k in range(n + 1) for w in product(letters, repeat=k)]

    def member(prefix, period):
        try:
            return bool(oracle.member(UPWord(alpha, prefix, period)))
        except DegenerateErasureError:
            return False

    words, finite = up_to(word_bound), up_to(context_bound)
    tails = [(x, y) for x in finite for y in finite if y]

    def related(u, v):
        if kind == "arnold":
            for w in finite:
                for z in finite:
                    if u + z and v + z and member(w, u + z) != member(w, v + z):
                        return False
            pairs = [(w + u, w + v) for w in finite]
        else:
            pairs = [(u, v)]
        return all(member(p + x, y) == member(q + x, y)
                   for p, q in pairs for x, y in tails)

    n = len(words)
    rel = [[True] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rel[i][j] = rel[j][i] = related(words[i], words[j])
    text = ["".join(w) or "eps" for w in words]
    classes, placed = [], set()
    for i in range(n):
        if i in placed:
            continue
        component, stack = {i}, [i]
        while stack:
            a = stack.pop()
            for b in range(n):
                if rel[a][b] and b not in component:
                    component.add(b)
                    stack.append(b)
        placed |= component
        classes.append([text[k] for k in sorted(component)])
    bad = [(text[i], text[j], text[k])
           for i in range(n) for j in range(n) for k in range(n)
           if len({i, j, k}) == 3 and rel[i][j] and rel[j][k] and not rel[i][k]]
    return classes, bad[:10]


def ref_state_representatives(c) -> dict:
    """Shortest (length-lexicographic) word reaching each reachable state."""
    reps = {c.initial: ()}
    frontier = [c.initial]
    while frontier:
        nxt = []
        for q in frontier:
            for a in c.alphabet:
                d = c.step(q, a)
                if d not in reps:
                    reps[d] = reps[q] + (a,)
                    nxt.append(d)
        frontier = nxt
    return reps


def _ref_transformation_monoid(c, budget: int) -> list[tuple[tuple, tuple[str, ...]]]:
    """All state transformations induced by words, with shortest witnesses.

    Transformations are tuples over the reachable states (in declared order);
    the identity, witnessed by the empty word, comes first.
    """
    order = list(c.reachable)
    pos = {q: i for i, q in enumerate(order)}
    ident = tuple(range(len(order)))
    letter_fn = {}
    for a in c.alphabet:
        letter_fn[a] = tuple(pos[c.step(q, a)] for q in order)
    elements = {ident: ()}
    queue = [ident]
    while queue:
        g = queue.pop(0)
        for a in c.alphabet:
            f = letter_fn[a]
            h = tuple(f[g[i]] for i in range(len(order)))
            if h not in elements:
                if len(elements) >= budget:
                    raise BudgetExceededError(
                        f"classifier transformation monoid exceeded {budget} elements")
                elements[h] = elements[g] + (a,)
                queue.append(h)
    return [(g, w) for g, w in elements.items()]


def _ref_right_violations(c) -> list:
    from omegaword.congruence import Condition1Violation

    reps = ref_state_representatives(c)
    order = list(c.reachable)
    found = []
    for i, p in enumerate(order):
        for q in order[i + 1:]:
            if c.class_of_state(p) != c.class_of_state(q):
                continue
            # BFS on state pairs for a separating suffix
            start = (p, q)
            back: dict = {start: None}
            frontier = [start]
            hit = None
            while frontier and hit is None:
                nxt = []
                for (s, t) in frontier:
                    for a in c.alphabet:
                        s2, t2 = c.step(s, a), c.step(t, a)
                        key = (s2, t2)
                        if key in back:
                            continue
                        back[key] = ((s, t), a)
                        if c.class_of_state(s2) != c.class_of_state(t2):
                            hit = key
                            break
                        nxt.append(key)
                    if hit:
                        break
                frontier = nxt
            if hit is None:
                continue
            letters: list[str] = []
            node = hit
            while back[node] is not None:
                node, a = back[node]
                letters.append(a)
            w = tuple(reversed(letters))
            u, u2 = sorted((reps[p], reps[q]), key=lambda x: (len(x), x))
            found.append(Condition1Violation(
                "right", FiniteWord(c.alphabet, u), FiniteWord(c.alphabet, u2),
                FiniteWord(c.alphabet, w), c.class_of_state(p),
                (c.classify(u + w), c.classify(u2 + w))))
    return found


def _ref_left_violations(c, budget: int) -> list:
    from omegaword.congruence import Condition1Violation

    order = list(c.reachable)
    pos = {q: i for i, q in enumerate(order)}
    reps = ref_state_representatives(c)
    elements = _ref_transformation_monoid(c, budget)
    init = pos[c.initial]
    by_class: dict = {}
    for g, wit in elements:
        by_class.setdefault(c.class_of_state(order[g[init]]), []).append((g, wit))
    found = []
    for group in by_class.values():
        group.sort(key=lambda gw: (len(gw[1]), gw[1]))
        for i, (g, wu) in enumerate(group):
            for (h, wu2) in group[i + 1:]:
                for s_idx, s in enumerate(order):
                    cg = c.class_of_state(order[g[s_idx]])
                    ch = c.class_of_state(order[h[s_idx]])
                    if cg != ch:
                        w = reps[s]
                        found.append(Condition1Violation(
                            "left", FiniteWord(c.alphabet, wu),
                            FiniteWord(c.alphabet, wu2), FiniteWord(c.alphabet, w),
                            c.classify(wu), (cg, ch)))
                        break
    return found


def ref_check_condition1(c, *, budget: int = 200000):
    """Condition (1) the eager way: every right and every left violation is
    built as a validated instance, and the smallest is kept by `min`
    (total witness length, right before left, then the words)."""
    found = _ref_right_violations(c) + _ref_left_violations(c, budget)
    if not found:
        return None
    return min(found, key=lambda v: (
        len(v.u) + len(v.u_prime) + len(v.w),
        v.side != "right",
        v.u.letters, v.u_prime.letters, v.w.letters))


def ref_lemma_repair(c, *, budget: int = 200000):
    """`lemma_repair`'s merge loop driven by `ref_check_condition1`."""
    from omegaword.congruence import Classifier

    while True:
        violation = ref_check_condition1(c, budget=budget)
        if violation is None:
            return c
        x, y = violation.contexts()
        keep, drop = sorted((c.classify(x), c.classify(y)))
        relabeled = tuple((q, keep if name == drop else name) for q, name in c.classes)
        c = Classifier(c.alphabet, c.states, c.initial, c.delta, relabeled)


def random_sentence(rng: random.Random, letters: str = "ab",
                    depth: int = 4) -> Formula:
    """Closed predicate-free sentence: a Boolean combination of quantified
    chunks, so direct evaluation and one-shot compilation disagree loudly if
    either is wrong."""
    fresh_pos = iter(f"v{i}" for i in range(100))
    fresh_set = iter(f"V{i}" for i in range(100))

    def atom(pos_vars, set_vars):
        kinds = []
        if pos_vars:
            kinds += ["less", "letter", "letter"]
        if pos_vars and set_vars:
            kinds += ["in", "in"]
        if not kinds:
            v = next(fresh_pos)
            return ExistsPos(v, Letter(v, rng.choice(letters)))
        kind = rng.choice(kinds)
        if kind == "less":
            return Less(rng.choice(pos_vars), rng.choice(pos_vars))
        if kind == "letter":
            return Letter(rng.choice(pos_vars), rng.choice(letters))
        return In(rng.choice(pos_vars), rng.choice(set_vars))

    def chunk(d, pos_vars, set_vars):
        roll = rng.random()
        if d <= 0 or (roll < 0.3 and pos_vars):
            return atom(pos_vars, set_vars)
        if roll < 0.6 and len(pos_vars) < 3:
            v = next(fresh_pos)
            kind = rng.choice((ExistsPos, ForallPos))
            return kind(v, chunk(d - 1, pos_vars + (v,), set_vars))
        if roll < 0.72 and len(set_vars) < 2:
            v = next(fresh_set)
            kind = rng.choice((ExistsSet, ForallSet))
            return kind(v, chunk(d - 1, pos_vars, set_vars + (v,)))
        if roll < 0.82:
            return Not(chunk(d - 1, pos_vars, set_vars))
        parts = tuple(chunk(d - 1, pos_vars, set_vars) for _ in range(2))
        kind = rng.choice(("and", "or", "implies"))
        if kind == "and":
            return And(parts)
        if kind == "or":
            return Or(parts)
        return Implies(parts[0], parts[1])

    pieces = [chunk(depth - 1, (), ()) for _ in range(rng.choice((1, 2, 2, 3)))]
    out = pieces[0]
    for piece in pieces[1:]:
        kind = rng.choice(("and", "or", "implies"))
        if kind == "and":
            out = And((out, piece))
        elif kind == "or":
            out = Or((out, piece))
        else:
            out = Implies(out, piece)
    if rng.random() < 0.25:
        out = Not(out)
    return out


def ref_profile(a: BuchiAutomaton, letters) -> tuple[frozenset, frozenset]:
    """Independent word profile: (pairs with a path, pairs with a path through
    an accepting state, endpoints included), by direct dynamic programming."""
    post = _post(a)
    pairs = {(q, q, q in a.accepting) for q in a.states}
    for x in letters:
        nxt = set()
        for (p, q, acc) in pairs:
            for d in post(q, x):
                nxt.add((p, d, acc or d in a.accepting))
        pairs = nxt
    reach = frozenset((p, q) for (p, q, _) in pairs)
    reach_acc = frozenset((p, q) for (p, q, acc) in pairs if acc)
    return reach, reach_acc


def ref_intersect(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    """The two-phase product of `omegaword.buchi.intersect` on state labels:
    every (p, q, phase) state in the order p, q, phase, every transition
    between them, then the reachable fragment."""
    states = [(p, q, phase) for p in a.states for q in b.states for phase in (1, 2)]
    trans = set()
    for p, x, p2 in a.transitions:
        for q, y, q2 in b.transitions:
            if x == y:
                trans.add(((p, q, 1), x, (p2, q2, 2 if p in a.accepting else 1)))
                trans.add(((p, q, 2), x, (p2, q2, 1 if q in b.accepting else 2)))
    return reachable_fragment(automaton(
        a.alphabet, states, [(p, q, 1) for p in a.initial for q in b.initial],
        [(p, q, 2) for p in a.states for q in b.accepting], trans))


def ref_reduce(a: BuchiAutomaton) -> BuchiAutomaton:
    """The reduction of `omegaword.mso._reduce` as a chain of four whole
    passes, each building an automaton on state labels: reachable fragment,
    live fragment, forward-bisimulation quotient, then (between 2 and
    `_SIM_STATE_GATE` states) the direct-simulation quotient with dominated
    edges pruned and a last reachable fragment."""
    a = _ref_live_fragment(reachable_fragment(a))
    return _ref_sim_reduce(_ref_bisim_quotient(a))


def _ref_live_fragment(a: BuchiAutomaton) -> BuchiAutomaton:
    """Keep only states from which an accepting cycle is reachable."""
    g = nx.DiGraph()
    g.add_nodes_from(a.states)
    g.add_edges_from((s, d) for s, _x, d in a.transitions)
    live = set()
    for comp in nx.strongly_connected_components(g):
        if len(comp) > 1 or any(g.has_edge(q, q) for q in comp):
            live |= comp & a.accepting
    frontier = list(live)
    while frontier:
        q = frontier.pop()
        for p in g.predecessors(q):
            if p not in live:
                live.add(p)
                frontier.append(p)
    if live == set(a.states):
        return a
    return BuchiAutomaton(
        a.alphabet, tuple(q for q in a.states if q in live),
        a.initial & live, a.accepting & live,
        frozenset(t for t in a.transitions if t[0] in live and t[2] in live))


def _ref_bisim_quotient(a: BuchiAutomaton) -> BuchiAutomaton:
    """Quotient by forward bisimulation (acceptance-respecting)."""
    if not a.states:
        return a
    post = _post(a)
    block = {q: int(q in a.accepting) for q in a.states}
    while True:
        signature = {
            q: (block[q], tuple(frozenset(block[d] for d in post(q, x))
                                for x in a.alphabet))
            for q in a.states}
        renumber: dict = {}
        refined = {}
        for q in a.states:
            sig = signature[q]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            refined[q] = renumber[sig]
        if refined == block:
            break
        block = refined
    classes = len(set(block.values()))
    if classes == len(a.states):
        return a
    return BuchiAutomaton(
        a.alphabet, tuple(range(classes)),
        frozenset(block[q] for q in a.initial),
        frozenset(block[q] for q in a.accepting),
        frozenset((block[s], x, block[d]) for (s, x, d) in a.transitions))


def _ref_sim_quotient_classes(a: BuchiAutomaton) -> tuple[list[int], list[int], list[list[bool]]]:
    """Direct-simulation preorder plus its equivalence classes.

    Returns (class of each state, representative of each class, preorder
    matrix).  Direct simulation demands accepting states be matched by
    accepting states, which is what makes quotienting and dominated-edge
    pruning language-preserving for Büchi acceptance.
    """
    n = len(a.states)
    idx = {q: i for i, q in enumerate(a.states)}
    acc = [q in a.accepting for q in a.states]
    succ = _post(a)
    post = [[tuple(idx[d] for d in succ(q, x)) for x in a.alphabet]
            for q in a.states]
    sim = [[not acc[i] or acc[j] for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = sim[i]
            for j in range(n):
                if i == j or not row[j]:
                    continue
                for pi, pj in zip(post[i], post[j]):
                    if not all(any(sim[p][q] for q in pj) for p in pi):
                        row[j] = False
                        changed = True
                        break
    cls: list[int] = []
    reps: list[int] = []
    for i in range(n):
        for k, r in enumerate(reps):
            if sim[i][r] and sim[r][i]:
                cls.append(k)
                break
        else:
            cls.append(len(reps))
            reps.append(i)
    return cls, reps, sim


def _ref_sim_reduce(a: BuchiAutomaton) -> BuchiAutomaton:
    """Quotient by direct-simulation equivalence and drop dominated edges."""
    n = len(a.states)
    if n < 2 or n > _SIM_STATE_GATE:
        return a
    cls, reps, sim = _ref_sim_quotient_classes(a)
    idx = {q: i for i, q in enumerate(a.states)}
    grouped: dict = {}
    for s, x, d in a.transitions:
        grouped.setdefault((cls[idx[s]], x), set()).add(cls[idx[d]])
    trans = set()
    for (s, x), targets in grouped.items():
        for t in targets:
            if not any(t2 != t and sim[reps[t]][reps[t2]] for t2 in targets):
                trans.add((s, x, t))
    if len(reps) == n and len(trans) == len(a.transitions):
        return a
    return reachable_fragment(BuchiAutomaton(
        a.alphabet, tuple(range(len(reps))),
        frozenset(cls[idx[q]] for q in a.initial),
        frozenset(k for k, r in enumerate(reps) if a.states[r] in a.accepting),
        frozenset(trans)))


def ref_direct_sim_quotient(edges: list, acc: list, init: set) -> Optional[tuple]:
    """Quotient a graph by direct-simulation equivalence and drop dominated
    edges; None when that changes nothing.  The earlier form of
    `omegaword.mso._direct_sim_quotient`, which builds every pruned row
    with a pairwise scan before it compares the result with its input.

    ``edges[x][c]`` lists the successors of node c under the x-th letter.
    ``sim[c]`` is the bit mask of the nodes that simulate c, the greatest
    fixpoint of: an accepting node is simulated only by accepting ones, and
    d simulates c only when, for every letter x and x-successor p of c, some
    x-successor of d simulates p; that is ``sim[c] &= pre_x(sim[p])``.
    Returns the quotient's (edges, accepting flags, initial nodes), its
    classes numbered by first member.
    """
    m = len(acc)
    full = (1 << m) - 1
    acc_mask = sum(1 << c for c in range(m) if acc[c])
    pre = [[0] * m for _ in edges]
    for row, px in zip(edges, pre):
        for c, targets in enumerate(row):
            for d in targets:
                px[d] |= 1 << c
    sim = [acc_mask if f else full for f in acc]
    letters = [(row, px, {}) for row, px in zip(edges, pre)]
    changed = True
    while changed:
        changed = False
        for c in range(m):
            mask = sim[c]
            for row, px, memo in letters:
                for p in row[c]:
                    bits = sim[p]
                    allowed = memo.get(bits)
                    if allowed is None:  # pre_x(bits), remembered per mask
                        allowed = 0
                        rest = bits
                        while rest:
                            low = rest & -rest
                            allowed |= px[low.bit_length() - 1]
                            rest ^= low
                        memo[bits] = allowed
                    mask &= allowed
            if mask != sim[c]:
                sim[c] = mask
                changed = True
    cls: list[int] = []
    reps: list[int] = []
    for c in range(m):
        for k, r in enumerate(reps):
            if sim[c] >> r & 1 and sim[r] >> c & 1:
                cls.append(k)
                break
        else:
            cls.append(len(reps))
            reps.append(c)
    out = []
    for row in edges:
        grouped = [set() for _ in reps]
        for c, targets in enumerate(row):
            grouped[cls[c]].update(cls[d] for d in targets)
        out.append([sorted(u for u in targets
                           if not any(v != u and sim[reps[u]] >> reps[v] & 1 for v in targets))
                    for targets in grouped])
    if len(reps) == m and out == edges:
        return None
    return out, [acc[r] for r in reps], {cls[c] for c in init}


def ref_universal_pos(a: BuchiAutomaton, base: Alphabet, outer: int,
                      budget: int) -> BuchiAutomaton:
    """The breakpoint construction of `omegaword.mso._universal_pos` on
    state labels: S, T and O are frozensets, successors are looked up per
    (state, outer letter), and every set is walked in `sorted` order.  The
    result goes through `ref_reduce`."""
    alpha = coded_alphabet(base, outer)
    post0: dict = {}
    post1: dict = {}
    for s, x, d in a.transitions:
        olet, bit = _drop_last_bit(x, outer)
        target = post0 if bit == "0" else post1
        target.setdefault((s, olet), set()).add(d)
    acc = a.accepting
    init = (frozenset(a.initial), frozenset(), frozenset())
    order = [init]
    seen = {init}
    trans = set()
    i = 0
    while i < len(order):
        S, T, O = order[i]
        i += 1
        for olet in alpha:
            spawn = sorted({d for q in S for d in post1.get((q, olet), ())})
            if not spawn:
                continue  # some placement has no run: reject along this branch
            threads = sorted(T)
            choices = [sorted(post0.get((t, olet), ())) for t in threads]
            if any(not alts for alts in choices):
                continue  # a mandatory thread dies under every choice
            combos = len(spawn) * math.prod(len(alts) for alts in choices)
            if combos > _SPAWN_COMBO_CAP:
                raise BudgetExceededError(
                    f"universal-position branching {combos} exceeds cap")
            S2 = frozenset(d for q in S for d in post0.get((q, olet), ()))
            for picked in product(*choices):
                chased = frozenset(c for t, c in zip(threads, picked) if t in O)
                for newcomer in spawn:
                    T2 = frozenset(picked) | {newcomer}
                    O2 = (chased if O else T2) - acc
                    st = (S2, T2, O2)
                    trans.add(((S, T, O), olet, st))
                    if st not in seen:
                        seen.add(st)
                        order.append(st)
                        if len(order) > budget:
                            raise BudgetExceededError(
                                f"universal-position automaton exceeds {budget} states")
    return ref_reduce(BuchiAutomaton(
        alpha, tuple(order), frozenset({init}),
        frozenset(st for st in order if not st[2]), frozenset(trans)))


def lifted_automaton(rng: random.Random, tracks: int, max_states: int = 6,
                     accept_prob: float = 0.45) -> BuchiAutomaton:
    """A seeded automaton over "ab" read back over ``coded_alphabet(ab,
    tracks)`` through `inverse_map_letters`: each coded letter takes the
    column of its base letter, or of a random one of a and b, so that many
    letters share a successor column."""
    a = random_automaton(rng, max_states=max_states, accept_prob=accept_prob)
    coded = coded_alphabet(a.alphabet, tracks)
    mode = rng.randrange(3)  # base letters, random letters, or base when the last bit is 0

    def image(x: str) -> str:
        return x[0] if mode == 0 or mode == 2 and x.endswith("0") else rng.choice("ab")

    images = {x: image(x) for x in coded}
    return inverse_map_letters(a, homomorphism(images, coded, a.alphabet))


def ref_transition_monoid(a: BuchiAutomaton, *, budget: int = 50000) -> TransitionMonoid:
    """`omegaword.buchi.transition_monoid` before letter classes: one right
    Cayley column per letter, each computed by a profile product."""
    n = len(a.states)
    t = a._table
    acc_mask = sum(1 << i for i, f in enumerate(t.accepting) if f)
    elements: list[Profile] = []
    columns: list[tuple[int, ...]] = []
    index: dict = {}

    def add(p: Profile, witness: tuple[int, ...]) -> int:
        k = index.get(p)
        if k is None:
            if len(elements) >= budget:
                raise BudgetExceededError(f"transition monoid exceeded {budget} elements")
            k = index[p] = len(elements)
            elements.append(p)
            columns.append(witness)
        return k

    letters: dict = {}
    for c, x in enumerate(a.alphabet):
        reach = tuple(sum(1 << j for j in row) for row in t.succ[x])
        letters[x] = add(Profile(reach, tuple(r if f else r & acc_mask
                                              for r, f in zip(reach, t.accepting))), (c,))
    gens = list(enumerate(letters.values()))
    right: list[list[int]] = []
    for p, wit in zip(elements, columns):  # both lists grow while this runs
        right.append([add(compose_profiles(p, elements[k]), wit + (c,)) for c, k in gens])
    identity = Profile(tuple(1 << i for i in range(n)),
                       tuple(1 << i if f else 0 for i, f in enumerate(t.accepting)))
    unit = index.get(identity, len(elements))
    if unit == len(elements):
        right.append(list(letters.values()))
    return TransitionMonoid(a, elements, identity, unit, letters, right, columns)


def ref_complement(a: BuchiAutomaton, *,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> BuchiAutomaton:
    """`omegaword.buchi.complement` before letter classes, on
    `ref_transition_monoid`: one move list and one successor row per letter."""
    a = reachable_fragment(a)
    letters = a.alphabet.letters
    if not a.states or not a.initial:
        return BuchiAutomaton._of_table(
            a.alphabet, ("all",), Table({x: [[0]] for x in letters}, (0,), (True,)))
    monoid = ref_transition_monoid(a, budget=state_budget)
    init_rows = a._table.initial

    # refusing linked pairs, grouped by the prefix profile s; the empty word
    # is linked only when it shares its profile with an element
    jumps: dict = {}
    for t in monoid.idempotents():
        loops = 0  # states q with an accepting q-cycle under t
        for q, row in enumerate(monoid.elements[t].reach_acc):
            loops |= row & 1 << q
        for s, p in enumerate(monoid.elements):
            if monoid.compose(s, t) == s and not any(p.reach[i] & loops for i in init_rows):
                jumps.setdefault(s, []).append(t)

    gens = [monoid.letter(x) for x in letters]
    start = ("track", monoid.unit)
    index = {start: 0}
    order = [start]
    moves: dict = {}  # node -> per letter its successor nodes
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node[0] == "track":
            m = node[1]
            out = moves[node] = [[("track", monoid.compose(m, g))]
                                 + [("check", g, t, False) for t in jumps.get(m, ())]
                                 for g in gens]
        else:
            _, m, t, _fresh = node
            out = moves[node] = [[("check", monoid.compose(m, g), t, False)]
                                 + ([("check", g, t, True)] if m == t else [])
                                 for g in gens]
        for nn in (nn for targets in out for nn in targets):
            if nn not in index:
                if len(order) >= state_budget:
                    raise BudgetExceededError(f"complement exceeded {state_budget} states")
                index[nn] = len(order)
                order.append(nn)
                frontier.append(nn)
    succ = {x: [sorted({index[nn] for nn in moves[node][c]}) for node in order]
            for c, x in enumerate(letters)}
    return BuchiAutomaton._of_table(
        a.alphabet, tuple(order),
        Table(succ, (0,), tuple(n[0] == "check" and n[3] for n in order)))
