"""Nondeterministic Buchi automata over finite alphabets.

Supported operations: membership of lasso words, emptiness with a lasso
witness, union, intersection, complementation, and letter-to-letter
relabelings.  Complementation goes through the automaton's transition
profiles: the profile of a finite word records, per state pair, whether the
word admits a path, and whether it admits a path through an accepting state
(endpoints included).  Profiles of all nonempty words form a finite monoid;
pairs (s, t) with s*t = s and t*t = t classify every infinite word, and the
complement is the union of the word classes of the non-accepting pairs.

The textual format, one automaton per file::

    alphabet a b
    states q0 q1
    initial q0
    accepting q1
    q0 a q0
    q0 a q1

Header lines in that order, then one `source letter target` line per
transition.  Serialization is the exact inverse of parsing for automata
whose states are strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import AlphabetMismatchError, BudgetExceededError, FormatError
from .words import Alphabet, FiniteWord, Homomorphism, UPWord
from .words import alphabet as make_alphabet

State = Hashable
Transition = tuple[State, str, State]

DEFAULT_STATE_BUDGET = 10**6


class Table(NamedTuple):
    """An automaton's transitions on state indices (declared order):
    ``succ[x][i]`` lists the x-successors of state i in ascending order,
    `initial` the initial indices in ascending order, and ``accepting[i]``
    whether state i accepts.  Shared by every reader; never mutated."""

    succ: dict
    initial: tuple[int, ...]
    accepting: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class BuchiAutomaton:
    alphabet: Alphabet
    states: tuple[State, ...]
    initial: frozenset
    accepting: frozenset
    transitions: frozenset

    def __post_init__(self):
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise FormatError("duplicate state")
        for q in self.initial | self.accepting:
            if q not in declared:
                raise FormatError(f"undeclared state {q!r}")
        for src, letter, dst in self.transitions:
            if src not in declared or dst not in declared:
                raise FormatError(f"transition uses undeclared state: {(src, letter, dst)!r}")
            if letter not in self.alphabet:
                raise FormatError(f"transition letter {letter!r} not in alphabet")

    def __eq__(self, other):
        if not isinstance(other, BuchiAutomaton):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.states == other.states
                and self.initial == other.initial and self.accepting == other.accepting
                and self.transitions == other.transitions)

    def __hash__(self):
        return hash((self.alphabet, self.states, self.initial, self.accepting))

    @cached_property
    def _index(self) -> dict:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def _table(self) -> Table:
        """The transitions on state indices; the one source of successors."""
        idx = self._index
        succ = {x: [[] for _ in self.states] for x in self.alphabet}
        for src, letter, dst in self.transitions:
            succ[letter][idx[src]].append(idx[dst])
        for rows in succ.values():
            for row in rows:
                row.sort()
        return Table(succ, tuple(sorted(idx[q] for q in self.initial)),
                     tuple(q in self.accepting for q in self.states))


def automaton(letters, states: Sequence[State], initial: Iterable[State],
              accepting: Iterable[State], transitions: Iterable[Transition]) -> BuchiAutomaton:
    alpha = letters if isinstance(letters, Alphabet) else make_alphabet(letters)
    return BuchiAutomaton(alpha, tuple(states), frozenset(initial),
                          frozenset(accepting), frozenset(transitions))


# ---------------------------------------------------------------------------
# reachability, SCCs, membership, emptiness


def _reachable(rows: Sequence[Sequence[list]], sources: Iterable[int]) -> list[bool]:
    """Per node: is it reachable from the `sources` nodes?  ``rows[x][i]``
    lists the successors of node i under the x-th letter."""
    seen = [False] * len(rows[0])
    frontier = list(sources)
    for i in frontier:
        seen[i] = True
    while frontier:
        i = frontier.pop()
        for row in rows:
            for j in row[i]:
                if not seen[j]:
                    seen[j] = True
                    frontier.append(j)
    return seen


def reachable_fragment(a: BuchiAutomaton) -> BuchiAutomaton:
    """Restrict to states reachable from the initial set (declared order kept)."""
    t = a._table
    seen = _reachable(list(t.succ.values()), t.initial)
    states = tuple(q for q, s in zip(a.states, seen) if s)
    keep = set(states)
    # every target of a reachable source is reachable
    trans = frozenset(tr for tr in a.transitions if tr[0] in keep)
    return BuchiAutomaton(a.alphabet, states, a.initial, a.accepting & keep, trans)


def _cyclic_sccs(roots: Iterable, succ: Callable) -> Iterator[list]:
    """The strongly connected components that hold a cycle, among the nodes
    reachable from `roots`; ``succ(node)`` lists a node's successors.  Each
    is yielded as soon as Tarjan's algorithm (iterative) completes it, so a
    caller may stop early."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = 0
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_stack and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        q = stack.pop()
                        on_stack.discard(q)
                        comp.append(q)
                        if q == node:
                            break
                    if len(comp) > 1 or node in succ(node):
                        yield comp


def _cycle_nodes(nodes: Iterable, adj) -> set:
    """Nodes lying on some cycle of the graph; ``adj[node]`` holds the
    successors of each node (a dict, or a list for nodes 0..n-1)."""
    return {q for comp in _cyclic_sccs(nodes, adj.__getitem__) for q in comp}


def accepts_up(a: BuchiAutomaton, w: UPWord) -> bool:
    """Does the automaton accept the lasso word ``prefix . period^omega``?

    Decided on the product of the automaton with the period positions, on
    int nodes ``q*n + i`` (state q at period position i of n): the word is
    accepted exactly when, from some state reachable on the prefix, the
    product reaches a cycle through an accepting state.
    """
    if w.alphabet != a.alphabet:
        raise AlphabetMismatchError("word and automaton alphabets differ")
    t = a._table
    current = t.initial
    for x in w.prefix:
        rows = t.succ[x]
        current = {j for i in current for j in rows[i]}
    n = len(w.period)
    cols = [t.succ[x] for x in w.period]
    acc = t.accepting

    def succ(node: int) -> list[int]:
        q, i = divmod(node, n)
        k = i + 1 if i + 1 < n else 0
        return [d * n + k for d in cols[i][q]]

    return any(acc[node // n] for comp in _cyclic_sccs([q * n for q in current], succ)
               for node in comp)


def is_empty(a: BuchiAutomaton) -> tuple[bool, Optional[UPWord]]:
    """Emptiness with a lasso witness.

    Returns (True, None) for an empty language, else (False, w) where w is an
    accepted lasso word: shortest prefix to the first viable accepting state
    (ties broken by declared order), then a shortest cycle through it.
    """
    t = a._table
    rows = [t.succ[x] for x in a.alphabet]
    seen = _reachable(rows, t.initial)
    reach = [i for i, s in enumerate(seen) if s]
    adj = {i: {j for row in rows for j in row[i]} for i in reach}
    targets = {i for i in _cycle_nodes(reach, adj) if t.accepting[i]}
    if not targets:
        return (True, None)
    letters = a.alphabet.letters
    state, prefix = _shortest_path(rows, letters, [(i, ()) for i in t.initial], targets)
    steps = [(j, (x,)) for x, row in zip(letters, rows) for j in row[state]]
    _, period = _shortest_path(rows, letters, steps, {state})
    return (False, UPWord(a.alphabet, prefix, period))


def _shortest_path(rows: Sequence[Sequence[list]], letters: Sequence[str],
                   starts: Iterable[tuple[int, tuple[str, ...]]],
                   goal: set) -> tuple[int, tuple[str, ...]]:
    """Breadth-first search from the ordered (node, word) `starts` to a node
    of `goal`; returns that node and the word leading to it.  A node keeps
    the first word that reaches it: earlier starts first, then letters in
    alphabet order, then successors in ascending order."""
    words: dict = {}
    queue: list[int] = []
    for i, word in starts:
        if i not in words:
            if i in goal:
                return i, word
            words[i] = word
            queue.append(i)
    for i in queue:
        for x, row in zip(letters, rows):
            for j in row[i]:
                if j not in words:
                    words[j] = words[i] + (x,)
                    if j in goal:
                        return j, words[j]
                    queue.append(j)
    raise AssertionError("goal unreachable")


# ---------------------------------------------------------------------------
# boolean operations


def union(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("union needs a shared alphabet")
    states = tuple((0, q) for q in a.states) + tuple((1, q) for q in b.states)
    trans = {((0, s), x, (0, d)) for s, x, d in a.transitions}
    trans |= {((1, s), x, (1, d)) for s, x, d in b.transitions}
    return BuchiAutomaton(
        a.alphabet, states,
        frozenset({(0, q) for q in a.initial} | {(1, q) for q in b.initial}),
        frozenset({(0, q) for q in a.accepting} | {(1, q) for q in b.accepting}),
        frozenset(trans))


def intersect(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    """Two-phase product: phase 1 waits for an accepting state of `a`, phase 2
    for one of `b`; meeting phase 2's goal is the acceptance condition."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("intersection needs a shared alphabet")
    states = []
    trans = set()
    for p in a.states:
        for q in b.states:
            states.append((p, q, 1))
            states.append((p, q, 2))
    b_moves: dict = {x: [] for x in b.alphabet}
    for q, y, q2 in b.transitions:
        b_moves[y].append((q, q2))
    for p, x, p2 in a.transitions:
        for q, q2 in b_moves[x]:
            trans.add(((p, q, 1), x, (p2, q2, 2 if p in a.accepting else 1)))
            trans.add(((p, q, 2), x, (p2, q2, 1 if q in b.accepting else 2)))
    initial = frozenset((p, q, 1) for p in a.initial for q in b.initial)
    accepting = frozenset((p, q, 2) for p in a.states for q in b.states if q in b.accepting)
    return reachable_fragment(
        BuchiAutomaton(a.alphabet, tuple(states), initial, accepting, frozenset(trans)))


# ---------------------------------------------------------------------------
# transition profiles and the profile monoid


class Profile(NamedTuple):
    """Reachability data of one finite word over an n-state automaton, one
    int bit mask per source state (states numbered in declared order): bit q
    of ``reach[p]`` says a path p -> q exists, bit q of ``reach_acc[p]`` that
    one exists visiting an accepting state (endpoints count).  Every
    ``reach_acc`` row is a subset of its ``reach`` row."""

    reach: tuple[int, ...]
    reach_acc: tuple[int, ...]


def compose_profiles(p: Profile, q: Profile) -> Profile:
    qr, qa = q.reach, q.reach_acc
    reach = []
    reach_acc = []
    for row, acc in zip(p.reach, p.reach_acc):
        r = ra = 0
        while row:
            low = row & -row
            j = low.bit_length() - 1
            r |= qr[j]
            ra |= qr[j] if acc & low else qa[j]
            row ^= low
        reach.append(r)
        reach_acc.append(ra)
    return Profile(tuple(reach), tuple(reach_acc))


@dataclass(eq=False)
class TransitionMonoid:
    """Profiles of all nonempty words over an automaton, with shortest
    witness words (discovered breadth-first, so length-lexicographic).
    Elements are addressed by index.  `identity` is the empty word's profile
    and `unit` its index: the element sharing that profile if there is one,
    else ``len(elements)``; `compose` accepts `unit` on either side.

    The breadth-first search keeps the right Cayley table (Froidure & Pin,
    *Algorithms for computing finite semigroups*, 1997): ``_right[i][c]`` is
    the index of ``elements[i]`` times the profile of the c-th alphabet
    letter, and ``_columns[j]`` spells the witness of j as alphabet
    positions.  Since ``elements[j]`` is the product of its witness's letter
    profiles, associativity makes ``compose(i, j)`` a walk from i along
    those columns, one list lookup per letter."""

    automaton: BuchiAutomaton
    elements: list
    witnesses: list
    identity: Profile
    unit: int
    _index: dict
    _letters: dict
    _right: list
    _columns: list

    def letter(self, a: str) -> int:
        return self._letters[a]

    def compose(self, i: int, j: int) -> int:
        if i == self.unit:
            return j
        if j == self.unit:
            return i
        right = self._right
        for c in self._columns[j]:
            i = right[i][c]
        return i

    def idempotents(self) -> list[int]:
        return [i for i in range(len(self.elements)) if self.compose(i, i) == i]

    def profile_of(self, letters: Sequence[str]) -> Profile:
        out = self.identity
        for a in letters:
            out = compose_profiles(out, self.elements[self._letters[a]])
        return out


def transition_monoid(a: BuchiAutomaton, *, budget: int = 50000) -> TransitionMonoid:
    """Generate the monoid of profiles of nonempty words, breadth-first by
    witness length, with its right Cayley table.  Raises BudgetExceededError
    past `budget` elements."""
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
    names = a.alphabet.letters
    wit_words = [FiniteWord(a.alphabet, tuple(names[c] for c in col)) for col in columns]
    return TransitionMonoid(a, elements, wit_words, identity,
                            index.get(identity, len(elements)), index, letters, right, columns)


# ---------------------------------------------------------------------------
# complementation


def complement(a: BuchiAutomaton, *, state_budget: int = DEFAULT_STATE_BUDGET) -> BuchiAutomaton:
    """Complement via the profile monoid.

    Every infinite word factors as u w_1 w_2 ... where u has some profile s,
    every w_i has one idempotent profile t, and s*t = s.  Such a pair either
    proves acceptance for all its words (some initial-to-q path in s meets an
    accepting q-cycle in t) or refuses it for all of them.  The complement
    automaton guesses a refusing pair, reads u inside a profile tracker, and
    then checks the factorization: blocks are certified one at a time by a
    reset edge available exactly when the running block profile equals t.
    Only the reachable part is ever built.  Every monoid product here is a
    walk on the monoid's right Cayley table: a track or check step is one
    lookup, and the test ``s*t = s`` one lookup per letter of t's witness.
    """
    a = reachable_fragment(a)
    if not a.states or not a.initial:
        q = "all"
        return BuchiAutomaton(a.alphabet, (q,), frozenset([q]), frozenset([q]),
                              frozenset((q, x, q) for x in a.alphabet))
    monoid = transition_monoid(a, budget=state_budget)
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

    start = ("track", monoid.unit)
    states: dict = {start: None}
    order = [start]
    trans = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        new_nodes = []
        if node[0] == "track":
            m = node[1]
            for x in a.alphabet:
                nxt = ("track", monoid.compose(m, monoid.letter(x)))
                trans.add((node, x, nxt))
                new_nodes.append(nxt)
                for t in jumps.get(m, ()):
                    jt = ("check", monoid.letter(x), t, False)
                    trans.add((node, x, jt))
                    new_nodes.append(jt)
        else:
            _, m, t, _fresh = node
            for x in a.alphabet:
                nxt = ("check", monoid.compose(m, monoid.letter(x)), t, False)
                trans.add((node, x, nxt))
                new_nodes.append(nxt)
                if m == t:
                    reset = ("check", monoid.letter(x), t, True)
                    trans.add((node, x, reset))
                    new_nodes.append(reset)
        for nn in new_nodes:
            if nn not in states:
                if len(states) >= state_budget:
                    raise BudgetExceededError(f"complement exceeded {state_budget} states")
                states[nn] = None
                order.append(nn)
                frontier.append(nn)
    accepting = frozenset(n for n in order if n[0] == "check" and n[3])
    return BuchiAutomaton(a.alphabet, tuple(order), frozenset([start]),
                          accepting, frozenset(trans))


# ---------------------------------------------------------------------------
# relabelings


def map_letters(a: BuchiAutomaton, h: Homomorphism) -> BuchiAutomaton:
    """Apply a letter-to-letter homomorphism to every transition label."""
    if h.source != a.alphabet:
        raise AlphabetMismatchError("homomorphism source differs from automaton alphabet")
    for x in h.source:
        if len(h.image(x)) != 1:
            raise FormatError("map_letters needs a letter-to-letter homomorphism")
    trans = frozenset((s, h.image(x)[0], d) for s, x, d in a.transitions)
    return BuchiAutomaton(h.target, a.states, a.initial, a.accepting, trans)


def inverse_map_letters(a: BuchiAutomaton, h: Homomorphism) -> BuchiAutomaton:
    """Automaton for the inverse image under a letter-to-letter homomorphism
    into this automaton's alphabet."""
    if h.target != a.alphabet:
        raise AlphabetMismatchError("homomorphism target differs from automaton alphabet")
    for x in h.source:
        if len(h.image(x)) != 1:
            raise FormatError("inverse_map_letters needs a letter-to-letter homomorphism")
    trans = set()
    for g in h.source:
        img = h.image(g)[0]
        for (s, x, d) in a.transitions:
            if x == img:
                trans.add((s, g, d))
    return BuchiAutomaton(h.source, a.states, a.initial, a.accepting, frozenset(trans))


def with_canonical_names(a: BuchiAutomaton) -> BuchiAutomaton:
    """Rename states to q0, q1, ... in declared order (for serialization)."""
    names = {q: f"q{i}" for i, q in enumerate(a.states)}
    return BuchiAutomaton(
        a.alphabet, tuple(names[q] for q in a.states),
        frozenset(names[q] for q in a.initial),
        frozenset(names[q] for q in a.accepting),
        frozenset((names[s], x, names[d]) for s, x, d in a.transitions))


# ---------------------------------------------------------------------------
# text format


def parse_automaton(text: str) -> BuchiAutomaton:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 4:
        raise FormatError("automaton file needs alphabet/states/initial/accepting lines")
    heads = {}
    for i, key in enumerate(("alphabet", "states", "initial", "accepting")):
        parts = lines[i].split()
        if not parts or parts[0] != key:
            raise FormatError(f"line {i + 1} must start with '{key}'")
        heads[key] = parts[1:]
    trans = []
    for ln in lines[4:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"bad transition line {ln!r}")
        trans.append((parts[0], parts[1], parts[2]))
    return BuchiAutomaton(Alphabet(tuple(heads["alphabet"])), tuple(heads["states"]),
                          frozenset(heads["initial"]), frozenset(heads["accepting"]),
                          frozenset(trans))


def format_automaton(a: BuchiAutomaton) -> str:
    for q in a.states:
        if not isinstance(q, str) or not q or any(c.isspace() for c in q):
            raise FormatError(
                "serialization needs string state names; see with_canonical_names")
    idx = a._index
    order = sorted(a.transitions, key=lambda t: (idx[t[0]], a.alphabet.index(t[1]), idx[t[2]]))
    lines = [
        "alphabet " + " ".join(a.alphabet.letters),
        "states " + " ".join(a.states),
        "initial " + " ".join(sorted(a.initial, key=idx.__getitem__)),
        "accepting " + " ".join(sorted(a.accepting, key=idx.__getitem__)),
    ]
    lines += [f"{s} {x} {d}" for s, x, d in order]
    return "\n".join(lines) + "\n"
