"""Nondeterministic Buchi automata over finite alphabets.

Supported operations: membership of lasso words, emptiness with a lasso
witness, union, intersection, complementation, and letter-to-letter
relabelings.  Complementation goes through the automaton's transition
profiles: the profile of a finite word records, per state pair, whether the
word admits a path, and whether it admits a path through an accepting state
(endpoints included).  Profiles of all nonempty words form a finite monoid;
pairs (s, t) with s*t = s and t*t = t classify every infinite word, and the
complement is the union of the word classes of the non-accepting pairs.

An automaton is stored as its state labels plus one `Table`: successor
lists on state indices, the initial indices and one acceptance flag per
state.  Every algorithm here and in the formula compiler reads and writes
that table; the frozensets of labels `initial`, `accepting` and
`transitions` are views derived from it on first read.  Input is validated
where it enters: the public constructor `BuchiAutomaton(...)`, `automaton`
and `parse_automaton` check their labels, and the constructions, which
build index tables directly, go through the unchecked `_of_table`.

The textual format, one automaton per file::

    alphabet a b
    states q0 q1
    initial q0
    accepting q1
    q0 a q0
    q0 a q1

Header lines in that order, then one `source letter target` line per
transition; lines starting with ``#`` are comments.  Serialization is the
exact inverse of parsing for automata whose states are strings, and it
refuses a state name that the parser would read as a comment.
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
    ``succ[x][i]`` lists the x-successors of state i in ascending order
    without repeats, `initial` the initial indices in ascending order, and
    ``accepting[i]`` whether state i accepts.  Rows may be shared between
    automata, and between the letters of one table (the letter-class
    constructions give every letter of a class its representative's rows);
    they are never mutated."""

    succ: dict
    initial: tuple[int, ...]
    accepting: tuple[bool, ...]


@dataclass(frozen=True, eq=False, init=False)
class BuchiAutomaton:
    """State labels plus the index `Table`, the one stored form.

    ``BuchiAutomaton(alphabet, states, initial, accepting, transitions)``
    checks its labels (no duplicate state, every named state declared, every
    letter in the alphabet) and builds the table; constructions that hold a
    table go through the unchecked `_of_table`.  `initial`, `accepting` and
    `transitions` are label frozensets derived from the table on first read.
    Equality compares the alphabet, the states and the table."""

    alphabet: Alphabet
    states: tuple[State, ...]
    _table: Table

    def __init__(self, alphabet: Alphabet, states: tuple[State, ...], initial: frozenset,
                 accepting: frozenset, transitions: frozenset):
        idx = {q: i for i, q in enumerate(states)}
        if len(idx) != len(states):
            raise FormatError("duplicate state")
        for q in initial | accepting:
            if q not in idx:
                raise FormatError(f"undeclared state {q!r}")
        succ = {x: [set() for _ in states] for x in alphabet}
        for src, letter, dst in transitions:
            if src not in idx or dst not in idx:
                raise FormatError(f"transition uses undeclared state: {(src, letter, dst)!r}")
            if letter not in alphabet:
                raise FormatError(f"transition letter {letter!r} not in alphabet")
            succ[letter][idx[src]].add(idx[dst])
        self.__dict__.update(alphabet=alphabet, states=states, _table=Table(
            {x: [sorted(row) for row in rows] for x, rows in succ.items()},
            tuple(sorted(idx[q] for q in initial)), tuple(q in accepting for q in states)))

    @classmethod
    def _of_table(cls, alphabet: Alphabet, states: tuple[State, ...],
                  table: Table) -> BuchiAutomaton:
        """The automaton of a table that already has `Table`'s form; no check."""
        a = object.__new__(cls)
        a.__dict__.update(alphabet=alphabet, states=states, _table=table)
        return a

    @cached_property
    def initial(self) -> frozenset:
        return frozenset(self.states[i] for i in self._table.initial)

    @cached_property
    def accepting(self) -> frozenset:
        return frozenset(q for q, f in zip(self.states, self._table.accepting) if f)

    @cached_property
    def transitions(self) -> frozenset:
        states = self.states
        return frozenset((states[i], x, states[j]) for x, rows in self._table.succ.items()
                         for i, row in enumerate(rows) for j in row)

    def __eq__(self, other):
        if not isinstance(other, BuchiAutomaton):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.states == other.states
                and self._table == other._table)

    def __hash__(self):
        return hash((self.alphabet, self.states, self._table.initial, self._table.accepting))


def automaton(letters, states: Sequence[State], initial: Iterable[State],
              accepting: Iterable[State], transitions: Iterable[Transition]) -> BuchiAutomaton:
    alpha = make_alphabet(letters)
    return BuchiAutomaton(alpha, tuple(states), frozenset(initial),
                          frozenset(accepting), frozenset(transitions))


def _letter_classes(columns: Iterable[Hashable]) -> tuple[list[int], list[int]]:
    """Letter classes: letters whose successor columns are equal.

    ``columns`` gives one hashable column per letter in alphabet order.
    Returns ``(reps, cls)``: ``reps`` lists the first letter of each class in
    alphabet order, and ``cls[c]`` is the class of letter c, so that
    ``reps[cls[c]]`` is the first letter with c's column.  A per-letter
    construction that visits letters in alphabet order can compute one
    result per class and copy it to the class's other letters: a later
    letter with the same column finds only states, elements and witnesses
    its representative already made."""
    first: dict = {}
    reps: list[int] = []
    cls = []
    for c, col in enumerate(columns):
        k = first.setdefault(col, len(reps))
        if k == len(reps):
            reps.append(c)
        cls.append(k)
    return reps, cls


def _closure(seeds: Iterable[tuple[Hashable, tuple]], gens: dict, act: Callable,
             budget: int, what: str) -> tuple[list, list, list, dict]:
    """The closure of the `seeds` under the right action of the generators
    (Froidure & Pin, *Algorithms for computing finite semigroups*, 1997).

    ``seeds`` gives (element, witness) pairs, a repeated element keeping its
    first witness; ``gens`` maps labels to generators, in order.  Each
    element x, in discovery order, is multiplied by each generator g,
    ``act(x, g)``, and a new product is witnessed by x's witness plus g's
    label, so witnesses after the seeds are length-lexicographic.  Equal
    generators form one class (`_letter_classes`), multiplied once under
    the first label.  Returns the elements, their witnesses, the right
    Cayley table (``right[i][c]`` for the c-th generator) and the element
    index.  Raises BudgetExceededError, naming `what`, past `budget`
    elements, and FormatError for a budget below 1."""
    if budget < 1:
        raise FormatError("the budget must be at least 1")
    elements: list = []
    words: list = []
    index: dict = {}
    for x, w in seeds:
        if x not in index:
            if len(elements) >= budget:
                raise BudgetExceededError(f"{what} exceeded {budget} elements")
            index[x] = len(elements)
            elements.append(x)
            words.append(w)
    labels, values = list(gens), list(gens.values())
    reps, cls = _letter_classes(values)
    pairs = [((labels[c],), values[c]) for c in reps]
    shared = len(reps) < len(cls)
    right: list = []
    for x, w in zip(elements, words):  # both lists grow while this runs
        row = []
        for label, g in pairs:
            y = act(x, g)
            k = index.get(y)
            if k is None:
                if len(elements) >= budget:
                    raise BudgetExceededError(f"{what} exceeded {budget} elements")
                k = index[y] = len(elements)
                elements.append(y)
                words.append(w + label)
            row.append(k)
        right.append([row[r] for r in cls] if shared else row)
    return elements, words, right, index


def _column(rows: Sequence[Sequence[int]]) -> tuple:
    """One letter's successor rows as a hashable column, for `_letter_classes`."""
    return tuple(map(tuple, rows))


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
    """Restrict to states reachable from the initial set (declared order kept).
    Letters that share their rows keep sharing them, restricted once."""
    t = a._table
    shared = {id(rows): rows for rows in t.succ.values()}
    seen = _reachable(list(shared.values()), t.initial)
    if all(seen):
        return a
    keep = [i for i, s in enumerate(seen) if s]
    pos = {i: k for k, i in enumerate(keep)}
    # every target of a reachable source is reachable; renumbering keeps rows ascending
    new = {k: [[pos[j] for j in rows[i]] for i in keep] for k, rows in shared.items()}
    succ = {x: new[id(rows)] for x, rows in t.succ.items()}
    return BuchiAutomaton._of_table(
        a.alphabet, tuple(a.states[i] for i in keep),
        Table(succ, tuple(pos[i] for i in t.initial), tuple(t.accepting[i] for i in keep)))


def _accepting_cycle_nodes(cols: Sequence[Sequence[Iterable[int]]], roots: Iterable[int],
                           accepting: Sequence[bool]) -> Iterator[int]:
    """The accepting nodes on cycles of a table's product with a cycle of
    ``n = len(cols)`` positions, among the nodes reachable from the states
    `roots` at position 0.

    Node ``q*n + i`` is state q at position i; its successors are the nodes
    ``d*n + (i+1) % n`` for d in ``cols[i][q]``, read straight from the
    rows, and it accepts when ``accepting[q]`` does.  With n = 1 this is the
    graph ``cols[0]`` itself.  Tarjan's algorithm (SIAM J. Comput. 1972),
    iterative, on flat lists: ``index[v]`` is 0 while v is unvisited, its
    search number while it is on the stack, and `done`, larger than every
    number, once its component closed, so one comparison with ``low`` both
    tests "on the stack" and lowers the link.  Each component is handled as
    it closes, and its accepting nodes are yielded if it holds a cycle, so
    a caller may stop at the first (Couvreur, FM 1999).  A component of one
    node holds a cycle only through a self-loop, which needs n = 1: for
    n > 1 every edge moves on to the next position."""
    n = len(cols)
    index = [0] * (len(accepting) * n)
    low = index.copy()
    done = len(index) + 1
    stack: list[int] = []
    counter = 0
    for q in roots:
        root = q * n
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(cols[0][q]), 1 % n)]  # per open node: its successors, their position
        while work:
            node, succ, k = work[-1]
            for d in succ:
                nxt = d * n + k
                x = index[nxt]
                if not x:
                    counter += 1
                    index[nxt] = low[nxt] = counter
                    stack.append(nxt)
                    work.append((nxt, iter(cols[k][d]), k + 1 if k + 1 < n else 0))
                    break
                if x < low[node]:
                    low[node] = x
            else:
                work.pop()
                m = low[node]
                if work:
                    parent = work[-1][0]
                    if m < low[parent]:
                        low[parent] = m
                if m == index[node]:
                    v = stack.pop()
                    index[v] = done
                    if v == node:
                        if n == 1 and accepting[v] and v in cols[0][v]:
                            yield v
                        continue
                    comp = [v]
                    while v != node:
                        v = stack.pop()
                        index[v] = done
                        comp.append(v)
                    for v in comp:
                        if accepting[v // n]:
                            yield v


def accepts_up(a: BuchiAutomaton, w: UPWord) -> bool:
    """Does the automaton accept the lasso word ``prefix . period^omega``?

    Decided on the product of the automaton with the n period positions:
    node ``q*n + i`` is state q about to read the period's letter i, and
    its successors are ``d*n + (i+1) % n`` for the successors d of q under
    that letter.  The word is accepted exactly when, from some state
    reachable on the prefix, the product reaches a strongly connected
    component that holds a cycle and an accepting state.  A one-node
    component holds a cycle only through a self-loop, so only when n = 1.
    The search (`_accepting_cycle_nodes`) stops at the first such component.
    """
    if w.alphabet != a.alphabet:
        raise AlphabetMismatchError("word and automaton alphabets differ")
    t = a._table
    current = t.initial
    for x in w.prefix:
        rows = t.succ[x]
        current = {j for i in current for j in rows[i]}
    for _ in _accepting_cycle_nodes([t.succ[x] for x in w.period], current, t.accepting):
        return True
    return False


def is_empty(a: BuchiAutomaton) -> tuple[bool, Optional[UPWord]]:
    """Emptiness with a lasso witness.

    Returns (True, None) for an empty language, else (False, w) where w is an
    accepted lasso word: shortest prefix to the first viable accepting state
    (ties broken by declared order), then a shortest cycle through it.
    """
    t = a._table
    rows = [t.succ[x] for x in a.alphabet]
    distinct = {id(r): r for r in rows}.values()  # letters may share their rows
    merged = [{j for r in distinct for j in r[i]} for i in range(len(a.states))]
    targets = set(_accepting_cycle_nodes([merged], t.initial, t.accepting))
    if not targets:
        return (True, None)
    letters = a.alphabet.letters
    state, prefix = _shortest_path(rows, letters, [(i, ()) for i in t.initial], targets)
    steps = [(j, (x,)) for x, row in zip(letters, rows) for j in row[state]]
    _, period = _shortest_path(rows, letters, steps, {state})
    return (False, UPWord._of(a.alphabet, prefix, period))


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
    ta, tb = a._table, b._table
    na = len(a.states)
    succ = {x: rows + [[j + na for j in row] for row in tb.succ[x]]
            for x, rows in ta.succ.items()}
    return BuchiAutomaton._of_table(
        a.alphabet, tuple((0, q) for q in a.states) + tuple((1, q) for q in b.states),
        Table(succ, ta.initial + tuple(i + na for i in tb.initial),
              ta.accepting + tb.accepting))


def intersect(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    """Two-phase product: phase 1 waits for an accepting state of `a`, phase 2
    for one of `b`; meeting phase 2's goal is the acceptance condition.  Only
    the reachable states (p, q, phase) are built, in the order p, q, phase.
    One product row is built per class of letters whose (a column, b
    column) pairs are the same two lists, and the letters of a class share
    it.  Columns are keyed by identity, not hashed: constructions give the
    letters of a class one shared list, so this finds nearly every class of
    equal columns without reading a row, and letters with equal but
    separate columns get equal rows of their own."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("intersection needs a shared alphabet")
    ta, tb = a._table, b._table
    nb = len(b.states)
    letters = a.alphabet.letters
    index: dict = {}  # (id of a's column, id of b's column) -> class
    pairs = []  # per class its two columns
    cls = []
    for x in letters:
        ra, rb = ta.succ[x], tb.succ[x]
        k = index.setdefault((id(ra), id(rb)), len(pairs))
        if k == len(pairs):
            pairs.append((ra, rb))
        cls.append(k)
    start = [(p * nb + q) * 2 for p in ta.initial for q in tb.initial]
    out: dict = {}  # reached number -> per class its successor numbers, ascending
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        if node not in out:
            p, q = divmod(node // 2, nb)
            bit = not tb.accepting[q] if node & 1 else ta.accepting[p]  # the next phase
            out[node] = [[(p2 * nb + q2) * 2 + bit for p2 in ra[p] for q2 in rb[q]]
                         for ra, rb in pairs]
            frontier += [k for row in out[node] for k in row if k not in out]
    order = sorted(out)  # number (p * |b| + q) * 2 + phase - 1 ranks (p, q, phase)
    pos = {k: i for i, k in enumerate(order)}
    states = tuple((a.states[k // 2 // nb], b.states[k // 2 % nb], k % 2 + 1) for k in order)
    rows = [[[pos[k] for k in out[node][r]] for node in order] for r in range(len(pairs))]
    succ = {x: rows[r] for x, r in zip(letters, cls)}
    accepting = tuple(k % 2 == 1 and tb.accepting[k // 2 % nb] for k in order)
    return BuchiAutomaton._of_table(
        a.alphabet, states, Table(succ, tuple(pos[k] for k in start), accepting))


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
    witness words (length-lexicographic).  Elements are addressed by index.
    `identity` is the empty word's profile and `unit` its index: the element
    sharing that profile if there is one, else ``len(elements)``.

    `rows` is the right Cayley table, the unit's row included: ``rows[i][c]``
    is the index of element i (the empty word for i = `unit`) times the
    profile of the c-th alphabet letter.  ``_columns[j]`` spells the witness
    of j as alphabet positions.  Since ``elements[j]`` is the product of its
    witness's letter profiles, associativity makes ``compose(i, j)`` a walk
    from i along those columns, one list lookup per letter; `compose`
    accepts `unit` on either side.  `left_ideal` reads the same table from
    the other side."""

    automaton: BuchiAutomaton
    elements: list
    identity: Profile
    unit: int
    _letters: dict
    rows: list
    _columns: list

    @cached_property
    def witnesses(self) -> list[FiniteWord]:
        """The shortest witness word of each element, spelled from `_columns`."""
        alpha = self.automaton.alphabet
        return [FiniteWord._of(alpha, tuple(alpha.letters[c] for c in col))
                for col in self._columns]

    def letter(self, a: str) -> int:
        return self._letters[a]

    def compose(self, i: int, j: int) -> int:
        if j == self.unit:
            return i
        rows = self.rows
        for c in self._columns[j]:
            i = rows[i][c]
        return i

    def idempotents(self) -> list[int]:
        return [i for i in range(len(self.elements)) if self.compose(i, i) == i]

    @cached_property
    def _left(self) -> list[tuple[int, list[int]]]:
        """Per distinct letter profile g: g and its products g*y by y, -1 until needed."""
        n = len(self.elements)
        return [(g, [-1] * n) for g in dict.fromkeys(self._letters.values())]

    def left_ideal(self, e: int) -> list[int]:
        """The left ideal M^1 e of element e, the products s*e for s a
        profile or the empty word, in discovery order: e first, then the
        closure of {e} under left multiplication by the letter profiles.
        Each product g*y is one `compose` walk, made at most once per (g, y)
        over the monoid's life and shared by every ideal that meets it."""
        left = self._left
        ideal = [e]
        seen = {e}
        for y in ideal:  # grows while this runs
            for g, products in left:
                x = products[y]
                if x < 0:
                    x = products[y] = self.compose(g, y)
                if x not in seen:
                    seen.add(x)
                    ideal.append(x)
        return ideal

    def profile_of(self, letters: Sequence[str]) -> Profile:
        out = self.identity
        for a in letters:
            out = compose_profiles(out, self.elements[self._letters[a]])
        return out


def transition_monoid(a: BuchiAutomaton, *, budget: int = 50000) -> TransitionMonoid:
    """The monoid of profiles of nonempty words: the `_closure` of the letter
    profiles, with witnesses spelled as alphabet positions.  Letters with
    equal successor columns have one profile and share their rows.  When the
    empty word has a profile of its own, its row (the letter profiles) is
    appended to the table.  Raises BudgetExceededError past `budget`
    elements."""
    n = len(a.states)
    t = a._table
    acc_mask = sum(1 << i for i, f in enumerate(t.accepting) if f)
    gens = []
    for x in a.alphabet:
        reach = tuple(sum(1 << j for j in row) for row in t.succ[x])
        gens.append(Profile(reach, tuple(r if f else r & acc_mask
                                         for r, f in zip(reach, t.accepting))))
    elements, columns, right, index = _closure(
        ((p, (c,)) for c, p in enumerate(gens)), dict(enumerate(gens)), compose_profiles,
        budget, "transition monoid")
    letters = {x: index[p] for x, p in zip(a.alphabet, gens)}
    identity = Profile(tuple(1 << i for i in range(n)),
                       tuple(1 << i if f else 0 for i, f in enumerate(t.accepting)))
    unit = index.get(identity, len(elements))
    if unit == len(elements):
        right.append(list(letters.values()))
    return TransitionMonoid(a, elements, identity, unit, letters, right, columns)


# ---------------------------------------------------------------------------
# complementation


def _refusing_pairs(monoid: TransitionMonoid, init_rows: Sequence[int]) -> dict:
    """The refusing linked pairs (s, e), grouped by s: ``jumps[s]`` lists, in
    `idempotents` order, each idempotent e with s*e = s under which no
    initial-to-q path of s meets an accepting q-cycle of e.

    The s linked to e are its left ideal M^1 e = {s : s*e = s}, since
    s*e*e = s*e, so the scan visits only linked pairs.  An s is read only
    through its start-reach mask R(s), the OR of its initial rows, and an e
    through its loop mask, the states with an accepting cycle under e.  The
    empty word is linked only when it shares its profile with an element,
    and then only to itself, as in the product test s*e = s."""
    starts = [0] * len(monoid.elements)  # R(s)
    for s, p in enumerate(monoid.elements):
        for i in init_rows:
            starts[s] |= p.reach[i]
    jumps: dict = {}
    for e in monoid.idempotents():
        loops = 0  # states q with an accepting q-cycle under e
        for q, row in enumerate(monoid.elements[e].reach_acc):
            loops |= row & 1 << q
        for s in monoid.left_ideal(e):
            if not starts[s] & loops:
                jumps.setdefault(s, []).append(e)
    return jumps


def complement(a: BuchiAutomaton, *, state_budget: int = DEFAULT_STATE_BUDGET) -> BuchiAutomaton:
    """Complement via the profile monoid.

    Every infinite word factors as u w_1 w_2 ... where u has some profile s,
    every w_i has one idempotent profile t, and s*t = s.  Such a pair either
    proves acceptance for all its words (some initial-to-q path in s meets an
    accepting q-cycle in t) or refuses it for all of them.  The complement
    automaton guesses a refusing pair, reads u inside a profile tracker, and
    then checks the factorization: blocks are certified one at a time by a
    reset edge available exactly when the running block profile equals t.
    Only the reachable part is ever built.

    The refusing pairs come from `_refusing_pairs`: for each idempotent t,
    the s with s*t = s are `monoid.left_ideal(t)`, so the scan costs at
    most |M| * |Sigma| witness walks (one per letter and element, over all
    idempotents) plus sum over t of |M^1 t| * |Sigma| lookups, not one
    walk per (element, idempotent) pair.  The search runs on packed int
    nodes: ("track", m) is m and ("check", m, t, fresh) is
    |M| + 1 + (m * |M| + t) * 2 + fresh; a move is one lookup in
    `monoid.rows`, which holds the unit's row.  Nodes become the labelled
    tuples only when the automaton is built.  Letters with one profile form
    a class: each node's moves and each successor row are built once per
    class, and its letters share the row.
    """
    if state_budget < 1:
        raise FormatError("the state budget must be at least 1")
    a = reachable_fragment(a)
    letters = a.alphabet.letters
    if not a.states or not a.initial:
        return BuchiAutomaton._of_table(
            a.alphabet, ("all",), Table({x: [[0]] for x in letters}, (0,), (True,)))
    monoid = transition_monoid(a, budget=state_budget)
    jumps = _refusing_pairs(monoid, a._table.initial)

    n = len(monoid.elements)
    checks = n + 1  # codes below are track nodes, the unit's included
    right = monoid.rows
    reps, cls = _letter_classes(monoid.letter(x) for x in letters)
    gens = [(c, monoid.letter(letters[c])) for c in reps]
    start = monoid.unit
    index = {start: 0}
    order = [start]
    moves: dict = {}  # node -> per letter class its successor nodes
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node < checks:
            row = right[node]
            out = moves[node] = [[row[c]] + [checks + (g * n + t) * 2 for t in jumps.get(node, ())]
                                 for c, g in gens]
        else:
            m, t = divmod((node - checks) >> 1, n)
            row = right[m]
            out = moves[node] = [[checks + (row[c] * n + t) * 2]
                                 + ([checks + (g * n + t) * 2 + 1] if m == t else [])
                                 for c, g in gens]
        for nn in (nn for targets in out for nn in targets):
            if nn not in index:
                if len(order) >= state_budget:
                    raise BudgetExceededError(f"complement exceeded {state_budget} states")
                index[nn] = len(order)
                order.append(nn)
                frontier.append(nn)
    rows = [[sorted({index[nn] for nn in moves[node][r]}) for node in order]
            for r in range(len(reps))]
    succ = {x: rows[r] for x, r in zip(letters, cls)}
    labels = []
    for node in order:
        if node < checks:
            labels.append(("track", node))
        else:
            m, t = divmod((node - checks) >> 1, n)
            labels.append(("check", m, t, bool(node - checks & 1)))
    return BuchiAutomaton._of_table(
        a.alphabet, tuple(labels),
        Table(succ, (0,), tuple(lab[0] == "check" and lab[3] for lab in labels)))


# ---------------------------------------------------------------------------
# relabelings


def map_letters(a: BuchiAutomaton, h: Homomorphism) -> BuchiAutomaton:
    """Apply a letter-to-letter homomorphism to every transition label."""
    if h.source != a.alphabet:
        raise AlphabetMismatchError("homomorphism source differs from automaton alphabet")
    for x in h.source:
        if len(h.image(x)) != 1:
            raise FormatError("map_letters needs a letter-to-letter homomorphism")
    return _relabel(a, h.target, lambda x: h.image(x)[0])


def _relabel(a: BuchiAutomaton, alpha: Alphabet, image: Callable[[str], str]) -> BuchiAutomaton:
    """Read each letter x as the letter ``image(x)`` of `alpha`; letters
    with one image merge their rows.  Unchecked; see `map_letters`."""
    t = a._table
    merged: dict = {y: [] for y in alpha}
    for x, rows in t.succ.items():
        merged[image(x)].append(rows)
    succ = {y: [sorted({j for rows in group for j in rows[i]}) for i in range(len(a.states))]
            for y, group in merged.items()}
    return BuchiAutomaton._of_table(alpha, a.states, Table(succ, t.initial, t.accepting))


def inverse_map_letters(a: BuchiAutomaton, h: Homomorphism) -> BuchiAutomaton:
    """Automaton for the inverse image under a letter-to-letter homomorphism
    into this automaton's alphabet."""
    if h.target != a.alphabet:
        raise AlphabetMismatchError("homomorphism target differs from automaton alphabet")
    for x in h.source:
        if len(h.image(x)) != 1:
            raise FormatError("inverse_map_letters needs a letter-to-letter homomorphism")
    t = a._table
    succ = {g: t.succ[h.image(g)[0]] for g in h.source}
    return BuchiAutomaton._of_table(h.source, a.states, Table(succ, t.initial, t.accepting))


def with_canonical_names(a: BuchiAutomaton) -> BuchiAutomaton:
    """Rename states to q0, q1, ... in declared order (for serialization)."""
    return BuchiAutomaton._of_table(
        a.alphabet, tuple(f"q{i}" for i in range(len(a.states))), a._table)


# ---------------------------------------------------------------------------
# text format


def _read_header(text: str, kind: str, keys: tuple[str, ...]) -> tuple[dict, list[str]]:
    """The header of an automaton or classifier file: the words after each
    of the `keys`, which open the first lines in that order, and the lines
    after them.  Blank lines and comment lines (``#``) are skipped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < len(keys):
        raise FormatError(f"{kind} file needs {'/'.join(keys)} lines")
    heads = {}
    for i, key in enumerate(keys):
        parts = lines[i].split()
        if parts[0] != key:
            raise FormatError(f"line {i + 1} must start with '{key}'")
        heads[key] = parts[1:]
    return heads, lines[len(keys):]


def parse_automaton(text: str) -> BuchiAutomaton:
    heads, rest = _read_header(text, "automaton", ("alphabet", "states", "initial", "accepting"))
    trans = []
    for ln in rest:
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
        if q.startswith("#"):
            raise FormatError(f"state name {q!r} would be read back as a comment")
    t = a._table
    letters = a.alphabet.letters
    lines = [
        "alphabet " + " ".join(letters),
        "states " + " ".join(a.states),
        "initial " + " ".join(a.states[i] for i in t.initial),
        "accepting " + " ".join(q for q, f in zip(a.states, t.accepting) if f),
    ]
    rows = [t.succ[x] for x in letters]
    lines += [f"{q} {x} {a.states[j]}" for i, q in enumerate(a.states)
              for x, row in zip(letters, rows) for j in row[i]]
    return "\n".join(lines) + "\n"
