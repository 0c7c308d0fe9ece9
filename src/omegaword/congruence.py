"""Finite classifiers of finite words and congruence checks against them.

A Classifier is a total deterministic automaton whose states are labeled
with class names; it presents a finite-index equivalence on finite words
(two words are equivalent when they reach states with the same label).
It is stored as its alphabet, its state labels and one index table: the
successor index per letter and state, the initial index and one class name
per state, in declared order.  Input is checked where it enters:
`Classifier(...)`, `classifier` and `parse_classifier` check the labels and
build the table, while `lemma_repair`'s merges, `profile_kernel_classifier`
and the game's response classifiers build tables through the unchecked
`Classifier._of_table`.  The shortest word to each state is found once per
classifier and shared by the checks below.

For an equivalence to recognize a language of infinite words it must
(1) be compatible with concatenation on both sides, and
(2) never change membership of an infinite product when each factor is
    replaced by an equivalent word.

Condition (1) is decidable exactly from the classifier and `check_condition1`
decides it, returning a smallest violating instance; `lemma_repair` merges
the offending classes until the check passes, which takes at most
(index - 1) merges since every merge lowers the class count by one.  Both
read one class matrix.  Its row k is element k of the classifier
transformation monoid (built by `buchi._closure`, in discovery order), its
column s is reachable state s (in declared order), and its entry is the
class that element k reaches from state s.  Two columns of one class that
some row tells apart break compatibility on the right, and two rows that
agree at the initial state's column but differ elsewhere break it on the
left.
Condition (2) quantifies over all sequences of finite words, so only a
bounded search is offered; language oracles may ship an unbounded finder for
their own structure (see the oracles module).

The bounded congruences of an infinite-word language itself (two-sided with
lasso tails and infinite products, or right with lasso tails only) are
sampled the same way: all context instantiations up to a length bound of at
least 1.  Each word gets one row of membership verdicts over the fixed
contexts (an observation table), and words with equal rows form one group;
the one row that may hold wildcards merges groups as `BoundedPartition`
says.

When the oracle declares a neutral letter, every verdict depends only on
the words with that letter erased (see `LanguageOracle.neutral_letter`).
So a word enters the table as its erasure, the contexts are enumerated over
the other letters (exactly the erasures of all contexts, in the same
order), and the oracle is asked once per distinct erased infinite word.  A
raw context whose period erases to nothing is no infinite word and answers
False in every row, so it is left out.

A power w(u v)^omega whose repeated word u v is empty is no infinite word
either.  Without a neutral letter n this happens only for u and v empty:
the empty word's two-sided row leaves those slots undefined (the wildcard
None).  Right rows have no power slots, so at most one row has wildcards,
and non-transitivity can only come from it.  With n, the erased empty slot
holds False instead, which relates the same words.  For the raw context
v = n gives the empty word False at w(n)^omega, a finite word after
erasure, and gives a word u its verdict at w(u n)^omega, which is its
verdict at w(u)^omega; so a word related to the empty word is False there
already.  A nonempty raw word that erases to nothing holds that False as a
defined verdict.  So no row has a wildcard, and a neutral-letter partition
has no non-transitive triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, Sequence, Union

from .buchi import BuchiAutomaton, _closure, _read_header, transition_monoid
from .errors import (
    DegenerateErasureError,
    DegenerateProductError,
    FormatError,
)
from .words import (
    Alphabet,
    BlockWord,
    FiniteWord,
    UPWord,
    Word,
    alphabet,
    canonical_parts,
    omega_product,
)

State = Hashable


class _Table(NamedTuple):
    """A classifier on state indices (declared order): ``succ[x][i]`` is the
    x-successor of state i, `initial` the initial index and ``names[i]`` the
    class name of state i."""

    succ: dict
    initial: int
    names: tuple[str, ...]


@dataclass(frozen=True, init=False)
class Classifier:
    """Stored as the module docstring says; the constructor checks its
    labels, `_of_table` does not.  `initial`, `delta` and `classes` are
    derived from the table; equality compares alphabet, states and table."""

    alphabet: Alphabet
    states: tuple[State, ...]
    _table: _Table = field(hash=False)  # holds a dict, so only equality reads it

    def __init__(self, alphabet: Alphabet, states: tuple[State, ...], initial: State,
                 delta: frozenset, classes: tuple[tuple[State, str], ...]):
        idx = {q: i for i, q in enumerate(states)}
        if len(idx) != len(states):
            raise FormatError("duplicate state")
        if initial not in idx:
            raise FormatError("initial state not declared")
        succ = {a: [None] * len(states) for a in alphabet}
        for (q, a, d) in delta:
            if q not in idx or d not in idx:
                raise FormatError("transition uses undeclared state")
            if a not in alphabet:
                raise FormatError(f"transition letter {a!r} not in alphabet")
            if succ[a][idx[q]] is not None:
                raise FormatError(f"nondeterministic transition at {(q, a)!r}")
            succ[a][idx[q]] = idx[d]
        for q, i in idx.items():
            for a, row in succ.items():
                if row[i] is None:
                    raise FormatError(f"missing transition at {(q, a)!r}")
        names = dict(classes)
        if names.keys() != idx.keys() or len(classes) != len(states):
            raise FormatError("classes must label every state exactly once")
        self.__dict__.update(alphabet=alphabet, states=states, _table=_Table(
            {a: tuple(row) for a, row in succ.items()}, idx[initial],
            tuple(names[q] for q in states)))
        if {self._table.names[i] for i in self._orbit} != set(names.values()):
            raise FormatError("every class name must label some reachable state")

    @classmethod
    def _of_table(cls, alphabet: Alphabet, states: tuple[State, ...],
                  table: _Table) -> Classifier:
        """The classifier of a table that already has `_Table`'s form; no check."""
        c = object.__new__(cls)
        c.__dict__.update(alphabet=alphabet, states=states, _table=table)
        return c

    @cached_property
    def _orbit(self) -> dict:
        """Shortest (length-lexicographic) word per reachable state index,
        in discovery order: the orbit of the initial index under the
        letters' successor rows, built by `buchi._closure`."""
        t = self._table
        ids, words, _, _ = _closure([(t.initial, ())], t.succ, lambda i, row: row[i],
                                    len(self.states), "classifier orbit")
        return dict(zip(ids, words))

    @property
    def initial(self) -> State:
        return self.states[self._table.initial]

    @cached_property
    def delta(self) -> frozenset:
        return frozenset((self.states[i], a, self.states[j])
                         for a, row in self._table.succ.items() for i, j in enumerate(row))

    @property
    def classes(self) -> tuple[tuple[State, str], ...]:
        return tuple(zip(self.states, self._table.names))

    @property
    def reachable(self) -> tuple[State, ...]:
        return tuple(self.states[i] for i in sorted(self._orbit))

    def _after(self, letters: Sequence[str]) -> int:
        succ, i = self._table.succ, self._table.initial
        for a in letters:
            i = succ[a][i]
        return i

    def step(self, q: State, a: str) -> State:
        return self.states[self._table.succ[a][self.states.index(q)]]

    def state_after(self, letters: Sequence[str]) -> State:
        return self.states[self._after(letters)]

    def class_of_state(self, q: State) -> str:
        return self._table.names[self.states.index(q)]

    def classify(self, letters: Sequence[str]) -> str:
        return self._table.names[self._after(letters)]

    def equivalent(self, u: Sequence[str], v: Sequence[str]) -> bool:
        return self.classify(u) == self.classify(v)

    @property
    def index(self) -> int:
        return len({self._table.names[i] for i in self._orbit})


def classifier(letters, states: Sequence[State], initial: State,
               delta: Union[dict, Iterable], classes: dict) -> Classifier:
    alpha = alphabet(letters)
    if isinstance(delta, dict):
        edges = frozenset((q, a, d) for (q, a), d in delta.items())
    else:
        edges = frozenset(delta)
    return Classifier(alpha, tuple(states), initial, edges, tuple(classes.items()))


# ---------------------------------------------------------------------------
# shortest representatives


def state_representatives(c: Classifier) -> dict:
    """Shortest (length-lexicographic) word reaching each reachable state, in
    discovery order (`Classifier._orbit`)."""
    return {c.states[i]: w for i, w in c._orbit.items()}


def class_representatives(c: Classifier) -> dict:
    """Shortest (length-lexicographic) word per class name."""
    names = c._table.names
    out: dict = {}
    for i, letters in sorted(c._orbit.items(), key=lambda kv: (len(kv[1]), kv[1])):
        if names[i] not in out:
            out[names[i]] = FiniteWord._of(c.alphabet, letters)
    return out


# ---------------------------------------------------------------------------
# condition (1): concatenation compatibility, decided exactly


@dataclass(frozen=True)
class Condition1Violation:
    """u and u' are classified alike, yet appending (side "right") or
    prepending (side "left") the context word w separates them."""

    side: str
    u: FiniteWord
    u_prime: FiniteWord
    w: FiniteWord
    class_before: str
    classes_after: tuple[str, str]

    def contexts(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        if self.side == "right":
            return (self.u.letters + self.w.letters, self.u_prime.letters + self.w.letters)
        return (self.w.letters + self.u.letters, self.w.letters + self.u_prime.letters)


def _monoid(c: Classifier, budget: int) -> tuple[list, list, list]:
    """The classifier transformation monoid, all of the class matrix that
    does not depend on class names: the matrix's columns (the reachable
    state indices, in declared order), and its rows (the `buchi._closure` of
    the identity, witnessed by the empty word, under the letters' successor
    rows), as tuples of column positions with their witnesses, in discovery
    order.  Raises BudgetExceededError past `budget` elements."""
    order = sorted(c._orbit)
    pos = {q: k for k, q in enumerate(order)}
    maps = {a: tuple(pos[row[q]] for q in order) for a, row in c._table.succ.items()}
    elements, words, _, _ = _closure(
        [(tuple(range(len(order))), ())], maps, lambda g, f: tuple(map(f.__getitem__, g)),
        budget, "classifier transformation monoid")
    return order, elements, words


def _smallest_violation(c: Classifier, names: Sequence[str], monoid: tuple) -> Optional[tuple]:
    """The smallest violation of condition (1) when state index i has class
    ``names[i]``, as (key, class before, classes after), or None.

    It reads the class matrix of `monoid` (see the module docstring).
    Candidates are compared by the key (total length, side, u, u2, w) on raw
    tuples, side 0 (right) before 1 (left); no two tie, since distinct
    states have distinct shortest words and every element one witness.  A
    scan stops once even its shortest remaining candidate is longer than the
    best total.

    Right: two columns p, q of one class, reached first by u before u2 in
    raw length-lexicographic order (`Classifier._orbit`), are separated by
    the first row whose entries at p and q differ, and w is its witness.
    This w is the shortest word separating p and q, length-lexicographic in
    alphabet order, the first hit of a breadth-first search on state pairs.
    For `_closure` discovers the elements in that order of their witnesses,
    and gives each element its least witness.  So a word v that separates p
    and q acts like some element whose witness is no greater than v and
    separates them too: the least separating word is the witness of the
    first row that tells p and q apart.

    Left: two rows with the same entry at the initial column, with
    witnesses wu before wu2 in raw length-lexicographic order, are separated
    by the first column s where they differ, and w is the shortest word
    reaching s.  Each group is sorted on raw tuples, since discovery order
    follows the alphabet order, which need not be the letters' string
    order."""
    order, elements, words = monoid
    reps = c._orbit
    col = [names[q] for q in order]
    rows = [tuple(map(col.__getitem__, g)) for g in elements]
    columns = list(zip(*rows))
    best = None
    for p, q in itertools.combinations(range(len(order)), 2):
        if col[p] != col[q]:
            continue
        u, u2 = reps[order[p]], reps[order[q]]
        if (len(u2), u2) < (len(u), u):
            u, u2, p, q = u2, u, q, p
        if best is not None and len(u) + len(u2) + 1 > best[0][0] or columns[p] == columns[q]:
            continue  # even a one-letter w is too long, or no row separates p and q
        k = next(k for k, (x, y) in enumerate(zip(columns[p], columns[q])) if x != y)
        key = (len(u) + len(u2) + len(words[k]), 0, u, u2, words[k])
        if best is None or key < best[0]:
            best = (key, col[p], (rows[k][p], rows[k][q]))
    init = order.index(c._table.initial)
    by_class: dict = {}
    for row, w in zip(rows, words):
        by_class.setdefault(row[init], []).append((row, w))
    for group in by_class.values():
        if len({rg for rg, _ in group}) == 1:
            continue  # no pair of the group is separated
        group.sort(key=lambda rw: (len(rw[1]), rw[1]))
        for i, (rg, wu) in enumerate(group):
            if best is not None and 2 * len(wu) > best[0][0]:
                break
            for rh, wu2 in itertools.islice(group, i + 1, None):
                if best is not None and len(wu) + len(wu2) > best[0][0]:
                    break
                if rg == rh:
                    continue
                s = next(s for s, (x, y) in enumerate(zip(rg, rh)) if x != y)
                w = reps[order[s]]
                key = (len(wu) + len(wu2) + len(w), 1, wu, wu2, w)
                if best is None or key < best[0]:
                    best = (key, rg[init], (rg[s], rh[s]))
    return best


def check_condition1(c: Classifier, *, budget: int = 200000) -> Optional[Condition1Violation]:
    """Exact concatenation-compatibility check.

    Returns None when appending or prepending any word preserves the
    classifier's equivalence, else a violating instance: the smallest,
    ordered by total witness length, then by side (right before left), then
    by the words themselves.  Both sides are read off one class matrix,
    built from one closure of the transformation monoid; it raises
    BudgetExceededError past `budget` monoid elements."""
    found = _smallest_violation(c, c._table.names, _monoid(c, budget))
    if found is None:
        return None
    (_, side, *words), before, after = found
    return Condition1Violation(("right", "left")[side],
                               *(FiniteWord._of(c.alphabet, w) for w in words), before, after)


def lemma_repair(c: Classifier, *, budget: int = 200000) -> Classifier:
    """Merge classes until check_condition1 passes.

    Each round merges the two classes separated by the reported violation,
    lowering the class count by one, so at most (index - 1) merges happen.
    A merge renames classes only, and the transformation monoid does not
    depend on names: it is built once per call, and each round reads the
    class matrix again under the merged names.
    """
    monoid = _monoid(c, budget)
    names = c._table.names
    for _ in range(c.index):
        found = _smallest_violation(c, names, monoid)
        if found is None:
            if names is c._table.names:
                return c
            return Classifier._of_table(c.alphabet, c.states, c._table._replace(names=names))
        keep, drop = sorted(found[2])
        names = tuple(keep if name == drop else name for name in names)
    raise AssertionError("merge count exceeded the class count bound")


# ---------------------------------------------------------------------------
# word sequences and condition (2)


@dataclass(frozen=True)
class PeriodicWordSequence:
    """u_1, u_2, ... where `head` lists the first few words and `cycle`
    repeats forever after."""

    head: tuple[FiniteWord, ...]
    cycle: tuple[FiniteWord, ...]

    def __post_init__(self):
        if not self.cycle:
            raise FormatError("a periodic word sequence needs a nonempty cycle")

    def nth(self, i: int) -> FiniteWord:
        if i < 1:
            raise IndexError("sequences are 1-indexed")
        if i <= len(self.head):
            return self.head[i - 1]
        return self.cycle[(i - len(self.head) - 1) % len(self.cycle)]

    def product(self) -> UPWord:
        return omega_product(self.head, self.cycle)

    def describe(self) -> str:
        h = " ".join(w.text() for w in self.head)
        cyc = " ".join(w.text() for w in self.cycle)
        return f"[{h} | {cyc} ...]" if h else f"[{cyc} ...]"


@dataclass(frozen=True)
class GrowingBlockSequence:
    """The factors u_i = block^{k_i} sep of one growing block word, whose
    product is that word; a block word with bounded lengths is refused."""

    word: BlockWord

    def __post_init__(self):
        if self.word._up_form is not None:
            raise FormatError("a growing block sequence needs a growing block word")

    def nth(self, i: int) -> FiniteWord:
        if i < 1:
            raise IndexError("sequences are 1-indexed")
        w = self.word
        return FiniteWord._of(w.alphabet, (w.block,) * w.lengths.nth(i) + (w.sep,))

    def product(self) -> BlockWord:
        return self.word

    def describe(self) -> str:
        w = self.word
        return f"[{w.block}^({w.lengths.rate}*i{w.lengths.offset:+d}){w.sep} for i = 1, 2, ...]"


WordSequence = Union[PeriodicWordSequence, GrowingBlockSequence]


def product_member(oracle, seq: WordSequence) -> tuple[bool, str]:
    """Membership of an infinite product in the oracle's language.

    Products that are not infinite words (the repeated factors concatenate to
    the empty word, or erasing the oracle's neutral letter leaves a finite
    word) are not members of a language of infinite words; they answer False
    with an explanatory note rather than failing.
    """
    try:
        w = seq.product()
    except DegenerateProductError:
        return (False, "product is a finite word")
    return _word_member(oracle, w)


def _word_member(oracle, w: Word) -> tuple[bool, str]:
    """The oracle's verdict on w, where a word whose neutral erasure is a
    finite word is no member (False, with a note)."""
    try:
        return (bool(oracle.member(w)), "")
    except DegenerateErasureError:
        return (False, "neutral erasure leaves a finite word")


@dataclass(frozen=True)
class Condition2ViolationWitness:
    """A sequence of factors, the classifier-equivalent replacement sequence,
    and the two products the oracle tells apart."""

    original: WordSequence
    replaced: WordSequence
    original_product: Word
    replaced_product: Optional[Word]
    original_member: bool
    replaced_member: bool
    note: str = ""


WITNESS_INDICES = 12  # factor indices whose equivalence a witness check re-derives
HEAD_BOUND = 1  # longest head of the factor sequences `check_condition2_bounded` tries


def validate_condition2_witness(c: Classifier, oracle,
                                witness: Condition2ViolationWitness) -> bool:
    """Re-derive everything the witness claims: per-index equivalence of the
    two sequences at indices 1 to `WITNESS_INDICES`, and both membership
    verdicts."""
    for i in range(1, WITNESS_INDICES + 1):
        u, r = witness.original.nth(i), witness.replaced.nth(i)
        if not c.equivalent(u.letters, r.letters):
            return False
    om, _ = product_member(oracle, witness.original)
    rm, _ = product_member(oracle, witness.replaced)
    return (om, rm) == (witness.original_member, witness.replaced_member) and om != rm


def _condition2_witness(c: Classifier, oracle, original: WordSequence, replaced: WordSequence,
                        note: str = "", member: Callable = product_member,
                        ) -> Optional[Condition2ViolationWitness]:
    """The witness that the oracle tells the products of `original` and
    `replaced` apart, or None when its verdicts agree or the witness fails
    `validate_condition2_witness`.  The witness's note is the first
    product's note, else the second's, else `note`.  A replacement product
    that is no infinite word is recorded as None.  `member(oracle, seq)`
    gives the two verdicts with their notes, as `product_member` does; the
    validation asks `product_member` itself."""
    om, note_o = member(oracle, original)
    rm, note_r = member(oracle, replaced)
    if om == rm:
        return None
    try:
        replaced_product = replaced.product()
    except DegenerateProductError:
        replaced_product = None
    witness = Condition2ViolationWitness(original, replaced, original.product(), replaced_product,
                                         om, rm, note_o or note_r or note)
    return witness if validate_condition2_witness(c, oracle, witness) else None


def _letter_tuples(letters: Sequence[str], n: int) -> list[tuple[str, ...]]:
    """All tuples of up to n letters, length-lexicographic in the order of
    `letters`."""
    out: list[tuple[str, ...]] = [()]
    layer = [()]
    for _ in range(n):
        layer = [w + (a,) for w in layer for a in letters]
        out.extend(layer)
    return out


def _words_up_to(alpha: Alphabet, n: int) -> list[FiniteWord]:
    return [FiniteWord._of(alpha, w) for w in _letter_tuples(alpha, n)]


def check_condition2_bounded(c: Classifier, oracle, *, word_bound: int,
                             cycle_bound: int) -> Optional[Condition2ViolationWitness]:
    """Bounded search for a product-recognition violation.

    Enumerates eventually periodic factor sequences (factors up to
    `word_bound` letters, at least 0, heads up to `HEAD_BOUND` factors,
    cycles up to `cycle_bound` factors, at least 1), replaces each factor by
    its class's shortest representative, and compares the oracle's verdicts
    on the two products.  Returns the first (in enumeration order) validated
    witness, or None.  A bound out of range raises FormatError.

    The search runs on letter tuples: each head and each cycle gets its
    concatenated letters, its replacement's letters and whether the
    replacement changes a factor once per call.  Many candidate sequences
    share a product, so the verdict and note of each product are kept for
    the call, keyed by its raw prefix and period letters (all factors share
    the classifier's alphabet); an empty period is a finite word and answers
    False without asking the oracle, as `product_member` does.  The two
    `PeriodicWordSequence`s of a candidate are built, and the witness
    validated, only when its two verdicts differ.
    """
    if word_bound < 0:
        raise FormatError("the word bound must be at least 0")
    if cycle_bound < 1:
        raise FormatError("the cycle bound must be at least 1")
    verdicts: dict = {}

    def verdict(prefix: tuple, period: tuple) -> tuple[bool, str]:
        key = (prefix, period)
        got = verdicts.get(key)
        if got is None:
            got = verdicts[key] = (_word_member(oracle, UPWord._of(c.alphabet, prefix, period))
                                   if period else (False, "product is a finite word"))
        return got

    def member(oracle, seq: PeriodicWordSequence) -> tuple[bool, str]:
        return verdict(tuple(x for w in seq.head for x in w.letters),
                       tuple(x for w in seq.cycle for x in w.letters))

    reps = class_representatives(c)
    words = _words_up_to(c.alphabet, word_bound)
    replacement = {w.letters: reps[c.classify(w.letters)] for w in words}

    def parts(lengths: range) -> list[tuple]:
        """(factors, replaced factors, their letters, the replaced letters,
        whether a factor changes) per factor tuple, in enumeration order."""
        out = []
        for k in lengths:
            for factors in itertools.product(words, repeat=k):
                replaced = tuple(replacement[w.letters] for w in factors)
                out.append((factors, replaced, tuple(x for w in factors for x in w.letters),
                            tuple(x for w in replaced for x in w.letters),
                            any(r.letters != w.letters for w, r in zip(factors, replaced))))
        return out

    cycles = parts(range(1, cycle_bound + 1))
    for head, rhead, prefix, rprefix, head_changes in parts(range(HEAD_BOUND + 1)):
        for cycle, rcycle, period, rperiod, cycle_changes in cycles:
            if not (head_changes or cycle_changes):
                continue
            if verdict(prefix, period)[0] == verdict(rprefix, rperiod)[0]:
                continue
            witness = _condition2_witness(c, oracle, PeriodicWordSequence(head, cycle),
                                          PeriodicWordSequence(rhead, rcycle), member=member)
            if witness is not None:
                return witness
    return None


# ---------------------------------------------------------------------------
# classifiers from automata


def profile_kernel_classifier(a: BuchiAutomaton, *, budget: int = 50000) -> Classifier:
    """The classifier whose states are the automaton's transition profiles,
    each its own class.  Words are equivalent exactly when their profiles
    coincide, which is compatible with concatenation by construction."""
    m = transition_monoid(a, budget=budget)
    order = [m.unit] + [i for i in range(len(m.elements)) if i != m.unit]
    pos = {i: k for k, i in enumerate(order)}
    names = tuple("e" if i == m.unit else f"m{i}" for i in order)
    # the unit's row: past the table when the empty word has its own profile
    right = m._right + [[m.letter(x) for x in a.alphabet]]
    succ = {x: tuple(pos[right[i][k]] for i in order) for k, x in enumerate(a.alphabet)}
    return Classifier._of_table(a.alphabet, names, _Table(succ, 0, names))


# ---------------------------------------------------------------------------
# bounded congruences of an infinite-word language


def _memo_member(oracle) -> Callable[[tuple, tuple], bool]:
    """Membership of prefix.period^omega given as erased letter tuples (no
    neutral letter, nonempty period), asking the oracle once per distinct
    infinite word.  A first memo, keyed by the raw period and prefix,
    answers a repeated pair without canonicalizing it; on a miss the pair is
    canonicalized and looked up in the canonical memo, keyed by the
    canonical period, then by the canonical prefix, which decides what
    reaches the oracle.  Both are keyed by period first, so that the many
    words sharing a period hold no key pair each.  A `UPWord` is built only
    on a canonical miss, for the oracle."""
    alpha = oracle.alphabet
    raw: dict = {}
    memo: dict = {}

    def member(prefix: tuple, period: tuple) -> bool:
        by_raw = raw.get(period)
        if by_raw is None:
            by_raw = raw[period] = {}
        got = by_raw.get(prefix)
        if got is None:
            cprefix, cperiod = canonical_parts(prefix, period)
            by_prefix = memo.setdefault(cperiod, {})
            got = by_prefix.get(cprefix)
            if got is None:
                got = by_prefix[cprefix] = _word_member(
                    oracle, UPWord._of(alpha, cprefix, cperiod))[0]
            by_raw[prefix] = got
        return got

    return member


@dataclass(frozen=True)
class BoundedPartition:
    """Classes of words up to the word bound, under one bounded congruence.

    Words with equal verdict rows form one group.  At most one row has
    wildcards (see the module docstring), and its group absorbs every group
    whose row agrees with it wherever it is defined; the classes are these
    merged groups and the other groups, in the order of their first words,
    each in word order.  Two groups absorbed through the wildcard row
    disagree with each other, so each pair of their words around a word
    with that row fails transitivity.  The first ten such triples (i, j, k),
    in word order of i, then j, then k, are surfaced in `non_transitive`
    rather than repaired; no other triple fails, since rows without
    wildcards agree only when they are equal.
    """

    classes: tuple[tuple[FiniteWord, ...], ...]
    non_transitive: tuple[tuple[FiniteWord, FiniteWord, FiniteWord], ...]


def _partition(words: list[FiniteWord], rows: list[tuple]) -> BoundedPartition:
    """The `BoundedPartition` of `words` with verdict rows `rows`."""
    index: dict = {}
    group = [index.setdefault(r, len(index)) for r in rows]
    owner = list(range(len(index)))  # the group whose class holds each group
    bad: tuple = ()
    wild = next((r for r in index if None in r), None)
    if wild is not None:
        hub = index[wild]
        slots = [k for k, x in enumerate(wild) if x is not None]
        for g, r in enumerate(index):
            if all(r[k] == wild[k] for k in slots):
                owner[g] = hub
        absorbed = [i for i, g in enumerate(group) if g != hub and owner[g] == hub]
        if len({group[i] for i in absorbed}) > 1:
            centre = [j for j, g in enumerate(group) if g == hub]
            bad = tuple(itertools.islice(
                ((words[i], words[j], words[k]) for i in absorbed for j in centre
                 for k in absorbed if group[k] != group[i]), 10))
    classes: dict = {}
    for u, g in zip(words, group):
        classes.setdefault(owner[g], []).append(u)
    return BoundedPartition(tuple(map(tuple, classes.values())), bad)


def _bounded_partition(oracle, word_bound: int, context_bound: int,
                       two_sided: bool) -> BoundedPartition:
    """The partition of the words up to `word_bound` letters, from one
    verdict row per erased word over the erased contexts (see the module
    docstring).  The right row of w u is built once per word w u, since it
    is shared by many pairs (w, u)."""
    if word_bound < 0:
        raise FormatError("the word bound must be at least 0")
    if context_bound < 1:
        raise FormatError("the context bound must be at least 1")
    neutral = getattr(oracle, "neutral_letter", None)
    finite = _letter_tuples([x for x in oracle.alphabet if x != neutral], context_bound)
    tails = [(x, y) for x in finite for y in finite if y]
    empty_power = None if neutral is None else False
    member = _memo_member(oracle)

    @cache
    def right_row(z: tuple) -> tuple:
        return tuple(member(z + x, y) for x, y in tails)

    @cache
    def arnold_row(u: tuple) -> tuple:
        return (tuple(member(w, u + v) if u or v else empty_power
                      for w in finite for v in finite)
                + tuple(right_row(w + u) for w in finite))

    row = arnold_row if two_sided else right_row
    words = _words_up_to(oracle.alphabet, word_bound)
    return _partition(words, [row(tuple(x for x in u.letters if x != neutral)
                                  if neutral in u.letters else u.letters) for u in words])


def arnold_classes_bounded(oracle, *, word_bound: int, context_bound: int) -> BoundedPartition:
    """Partition all words up to `word_bound` letters (at least 0) by the
    bounded two-sided congruence of the oracle's language: contexts
    w _ x(y)^omega and powers w(_ v)^omega with pieces up to
    `context_bound` letters (at least 1) over the erased letters.  A bound
    out of range raises FormatError."""
    return _bounded_partition(oracle, word_bound, context_bound, True)


def right_classes_bounded(oracle, *, word_bound: int, context_bound: int) -> BoundedPartition:
    """Partition all words up to `word_bound` letters (at least 0) by the
    bounded right congruence of the oracle's language: contexts
    _ x(y)^omega only, with pieces up to `context_bound` letters (at least
    1) over the erased letters.  A bound out of range raises FormatError."""
    return _bounded_partition(oracle, word_bound, context_bound, False)


# ---------------------------------------------------------------------------
# text format: the automaton format plus one `class q c` line per state


def parse_classifier(text: str) -> Classifier:
    heads, rest = _read_header(text, "classifier", ("alphabet", "states", "initial"))
    if len(heads["initial"]) != 1:
        raise FormatError("classifiers have exactly one initial state")
    classes: dict = {}
    delta = {}
    for ln in rest:
        parts = ln.split()
        if parts[0] == "class":
            if len(parts) != 3:
                raise FormatError(f"bad class line {ln!r}")
            if parts[1] in classes:
                raise FormatError(f"duplicate class line for {parts[1]!r}")
            classes[parts[1]] = parts[2]
        elif len(parts) == 3:
            if (parts[0], parts[1]) in delta:
                raise FormatError(f"duplicate transition at {(parts[0], parts[1])!r}")
            delta[(parts[0], parts[1])] = parts[2]
        else:
            raise FormatError(f"bad line {ln!r}")
    return classifier(Alphabet(tuple(heads["alphabet"])), tuple(heads["states"]),
                      heads["initial"][0], delta, classes)


def format_classifier(c: Classifier) -> str:
    for kind, names in (("state", c.states), ("class", c._table.names)):
        for q in names:
            if not isinstance(q, str) or not q or any(ch.isspace() for ch in q):
                raise FormatError(f"serialization needs string {kind} names")
    for q in c.states:
        if q.startswith("#") or q == "class":
            raise FormatError(f"state name {q!r} would be read back as a comment or class line")
    lines = [
        "alphabet " + " ".join(c.alphabet.letters),
        "states " + " ".join(c.states),
        "initial " + str(c.initial),
    ]
    lines += [f"class {q} {name}" for q, name in c.classes]
    lines += [f"{q} {a} {c.states[row[i]]}"
              for i, q in enumerate(c.states) for a, row in c._table.succ.items()]
    return "\n".join(lines) + "\n"
