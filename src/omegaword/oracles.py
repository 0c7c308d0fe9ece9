"""Membership oracles for languages of infinite words.

An oracle declares its alphabet and decides membership in one method,
`decide`, which `LanguageOracle.member` calls on a lasso word or a growing
block word over that alphabet; it fails loudly on any word it cannot decide
exactly.  The registry covers:

* ``U``        words over {a, b} whose all-`a` stretches are unbounded
* ``Uprime``   ``neutral:U`` under its old name
* ``P``        the ultimately periodic (lasso-presentable) words over {a, b}
* ``primes``   words ending in (a^n b)-blocks repeated forever, n prime
* ``singleton:<word>``  one infinite word
* ``regular:<file>``    the language of the automaton in the file
* ``neutral:<oracle>``  the words over the oracle's alphabet plus a neutral
                        letter ``1`` that land in the oracle after erasing it

``U`` and its neutral wrappers also ship a violation finder: given any finite
classifier, it produces a factor sequence and a classwise-equivalent
replacement whose infinite products the language tells apart.  No finite
classifier survives this, which is the structural reason these languages
are not recognized by any finite-state device.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from .buchi import BuchiAutomaton, accepts_up
from .errors import (
    AlphabetMismatchError,
    DegenerateErasureError,
    FormatError,
    UnsupportedWordError,
)
from .words import (
    AffineLengths,
    Alphabet,
    BlockWord,
    FiniteWord,
    InfiniteWord,
    UPWord,
    Word,
    _check_letters,
    alphabet,
    canonical_parts,
    max_letter_run,
    parse_word,
    with_alphabet,
)

if TYPE_CHECKING:
    from .congruence import Classifier, Condition2ViolationWitness

AB = alphabet("ab")


class LanguageOracle:
    """Base class: one normalization, then the subclass's `decide`.

    Words whose letters all belong to the oracle's alphabet are accepted
    regardless of the (possibly smaller) alphabet they were built over.  A
    block word with bounded lengths is read as its lasso form `_up_form`,
    and only the letters it spells must embed (all blocks may be empty).
    So `decide` sees a lasso word or a growing block word, and a subclass
    tests the presentation only where its answer depends on it.
    """

    name: str = "?"
    alphabet: Alphabet = AB
    neutral_letter: Optional[str] = None
    """A letter whose insertion or deletion never changes membership, or
    None.  The bounded partitions of the congruence module rely on this
    contract: they build one verdict row per erased word, over contexts
    without that letter, and ask the oracle only about erased words.
    `neutral_letter_check` tests the contract by sampling."""
    finder: Optional[Callable[[LanguageOracle, Classifier], Condition2ViolationWitness]] = None
    """The violation finder, called as ``finder(oracle, classifier)``, or None."""

    def member(self, w: Word) -> bool:
        if isinstance(w, FiniteWord):
            raise UnsupportedWordError("a finite word is not an infinite word")
        if isinstance(w, BlockWord) and w._up_form is not None:
            w = w._up_form
        return self.decide(self._embed(w))

    def _embed(self, w: Word) -> Word:
        if w.alphabet == self.alphabet:
            return w
        letters = set(w.prefix) | set(w.period) if isinstance(w, UPWord) else {w.block, w.sep}
        if letters <= set(self.alphabet.letters):
            if isinstance(w, UPWord):
                return UPWord._of(self.alphabet, w.prefix, w.period)
            return with_alphabet(w, self.alphabet)
        raise AlphabetMismatchError(
            f"word over {w.alphabet.letters} does not embed into {self.alphabet.letters}")

    def decide(self, w: InfiniteWord) -> bool:
        """Membership of a lasso word or a growing block word over the
        oracle's alphabet; see the class docstring."""
        kind = "lasso" if isinstance(w, UPWord) else "block"
        raise UnsupportedWordError(f"{self.name} does not decide {kind} words")

    def find_condition2_violation(self, c: Classifier) -> Condition2ViolationWitness:
        if self.finder is None:
            raise UnsupportedWordError(f"{self.name} has no violation finder")
        return self.finder(self, c)

    @property
    def has_violation_finder(self) -> bool:
        return self.finder is not None


def _unbounded_runs_violation(oracle: LanguageOracle,
                              c: Classifier) -> Condition2ViolationWitness:
    """A product-recognition violation against any finite classifier: the
    finder of `UnboundedBlocksOracle` and of its neutral wrappers.

    The factor sequence u_i = a^i b has an eventually periodic class
    sequence (the classifier has finitely many states), so the classwise
    replacement sequence uses finitely many representative words and its
    product has bounded all-`a` runs, or no `b` at all.  Either way one of
    two candidates separates the products:

    * the growing sequence itself: its product has unbounded runs and
      belongs, while the replacement product usually does not;
    * otherwise every repeated replacement erases to a block of `a` only,
      and a constant sequence a^n b ... (not a member) gets replaced by a
      word with an all-`a` tail (a member).
    """
    from .congruence import (GrowingBlockSequence, PeriodicWordSequence, _condition2_witness,
                             class_representatives)

    if not {"a", "b"} <= set(c.alphabet.letters):
        raise UnsupportedWordError("the violation finder needs letters a and b")
    if not set(c.alphabet.letters) <= set(oracle.alphabet.letters):
        raise AlphabetMismatchError("classifier alphabet must embed into the oracle's")
    reps = class_representatives(c)

    def rep_after(i: int) -> FiniteWord:
        word = ("a",) * i + ("b",)
        return reps[c.classify(word)]

    # states after a^i trace a rho shape; find its head and cycle lengths
    seen = {}
    s, row = c._table.initial, c._table.succ["a"]
    i = 0
    while s not in seen:
        seen[s] = i
        s = row[s]
        i += 1
    mu, lam = seen[s], i - seen[s]
    start = max(mu, 1)
    head = tuple(rep_after(j) for j in range(1, start))
    cycle = tuple(rep_after(j) for j in range(start, start + lam))

    growing = GrowingBlockSequence(BlockWord(c.alphabet, "a", "b", AffineLengths(1, 0)))
    witness = _condition2_witness(c, oracle, growing,
                                  PeriodicWordSequence(head, cycle),
                                  "growing blocks vs bounded replacement")
    if witness is not None:
        return witness

    # replacement product was still a member: every repeated representative
    # erases to a-only letters and at least one has an a; a constant
    # sequence at that index flips the verdicts
    for j in range(start, start + lam):
        r = rep_after(j)
        if "a" in r.letters:
            u = FiniteWord._of(c.alphabet, ("a",) * j + ("b",))
            witness = _condition2_witness(c, oracle, PeriodicWordSequence((), (u,)),
                                          PeriodicWordSequence((), (r,)),
                                          "constant blocks vs all-a replacement tail")
            if witness is not None:
                return witness
    raise AssertionError("no violation found; the classifier cannot be finite")


class UnboundedBlocksOracle(LanguageOracle):
    """Words over {a, b} whose maximal all-`a` intervals have unbounded size.

    A lasso word qualifies exactly when its period is all `a` (the word ends
    in an infinite `a`-tail); any period containing `b` caps the runs.  A
    block word qualifies exactly when its block lengths are unbounded.
    """

    name = "U"
    alphabet = AB
    finder = staticmethod(_unbounded_runs_violation)

    def decide(self, w: InfiniteWord) -> bool:
        return max_letter_run(w, "a") is None


class LassoOracle(LanguageOracle):
    """The ultimately periodic words: every lasso word belongs, and a block
    word belongs exactly when its length sequence is bounded (growing blocks
    produce aperiodic words)."""

    name = "P"
    alphabet = AB

    def decide(self, w: InfiniteWord) -> bool:
        return isinstance(w, UPWord)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeBlocksOracle(LanguageOracle):
    """Words with a tail (a^n b)(a^n b)... for a prime n.

    Prefix-independent: membership only looks at the eventual period.  A
    lasso word belongs when its primitive period is a rotation of a^n b with
    n prime; growing block words never belong (their tails are aperiodic).
    """

    name = "primes"
    alphabet = AB

    def decide(self, w: InfiniteWord) -> bool:
        if isinstance(w, BlockWord):
            return False
        root = canonical_parts(w.prefix, w.period)[1]
        return root.count("b") == 1 and _is_prime(len(root) - 1)


class SingletonOracle(LanguageOracle):
    """Exactly one infinite word."""

    def __init__(self, target: Word):
        if isinstance(target, FiniteWord):
            raise UnsupportedWordError("a singleton language needs an infinite word")
        self.target = target
        self.alphabet = target.alphabet
        self.name = f"singleton:{target.text()}"
        up = target._up_form if isinstance(target, BlockWord) else target
        self._lasso = None if up is None else canonical_parts(up.prefix, up.period)

    def decide(self, w: InfiniteWord) -> bool:
        if isinstance(w, UPWord):
            return canonical_parts(w.prefix, w.period) == self._lasso
        return w == self.target


class RegularOracle(LanguageOracle):
    """Membership decided by a Buchi automaton (lasso-presentable words)."""

    def __init__(self, automaton: BuchiAutomaton, name: Optional[str] = None):
        self.automaton = automaton
        self.alphabet = automaton.alphabet
        self.name = name or "regular"

    def decide(self, w: InfiniteWord) -> bool:
        if isinstance(w, BlockWord):
            raise UnsupportedWordError("automaton oracles decide lasso-presentable words only")
        return accepts_up(self.automaton, w)


class NeutralOracle(LanguageOracle):
    """The words over `base`'s alphabet plus `letter` whose erasure (every
    `letter` deleted) belongs to `base`; `letter` is neutral by construction.

    Erasure must leave an infinite word: a lasso word whose period is all
    `letter` has none and is rejected as unsupported (DegenerateErasureError).
    A growing block word whose block letter is neutral erases to sep^omega,
    one whose separator is neutral to block^omega, and any other goes to
    `base` as the same block word over `base`'s alphabet.  The violation
    finder is `base`'s, asked about this oracle.
    """

    def __init__(self, base: LanguageOracle, letter: str, name: Optional[str] = None):
        self.base = base
        self.alphabet = Alphabet(base.alphabet.letters + (letter,))
        self.neutral_letter = letter
        self.finder = base.finder
        self.name = name or f"neutral:{base.name}"

    def _erase(self, z: tuple) -> tuple:
        letter = self.neutral_letter
        return tuple(x for x in z if x != letter) if letter in z else z

    def decide(self, w: InfiniteWord) -> bool:
        base = self.base
        if isinstance(w, BlockWord):
            if self.neutral_letter not in (w.block, w.sep):
                return base.decide(with_alphabet(w, base.alphabet))
            w = UPWord._of(self.alphabet, (), (w.block, w.sep))  # erases as w does
        period = self._erase(w.period)
        if not period:
            raise DegenerateErasureError("erasing the neutral letter leaves a finite word")
        return base.decide(UPWord._of(base.alphabet, self._erase(w.prefix), period))


# ---------------------------------------------------------------------------
# the neutral-letter property, tested by sampling


def neutral_letter_check(oracle: LanguageOracle, *, samples: int,
                         rng: random.Random) -> Optional[dict]:
    """Sample words and check that inserting or deleting the oracle's neutral
    letter never flips membership.  Returns None, or a counterexample record.

    Sampled periods always keep at least one non-neutral letter, so every
    tested word stays inside the oracle's decidable domain.
    """
    neutral = oracle.neutral_letter
    if neutral is None:
        raise UnsupportedWordError(f"{oracle.name} has no neutral letter")
    _check_letters((neutral,), oracle.alphabet)  # the variants are built unchecked
    letters = oracle.alphabet.letters
    solid = [x for x in letters if x != neutral]

    def sample() -> UPWord:
        p = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
        v = [rng.choice(letters) for _ in range(rng.randrange(0, 4))]
        v.insert(rng.randrange(0, len(v) + 1), rng.choice(solid))
        return UPWord._of(oracle.alphabet, p, tuple(v))

    for _ in range(samples):
        w = sample()
        base = oracle.member(w)
        variants = []
        i = rng.randrange(0, len(w.prefix) + 1)
        variants.append(UPWord._of(oracle.alphabet,
                                   w.prefix[:i] + (neutral,) + w.prefix[i:], w.period))
        j = rng.randrange(0, len(w.period) + 1)
        variants.append(UPWord._of(oracle.alphabet, w.prefix,
                                   w.period[:j] + (neutral,) + w.period[j:]))
        if neutral in w.prefix:
            k = w.prefix.index(neutral)
            variants.append(UPWord._of(oracle.alphabet,
                                       w.prefix[:k] + w.prefix[k + 1:], w.period))
        if neutral in w.period and any(x != neutral for x in w.period):
            k = w.period.index(neutral)
            variants.append(UPWord._of(oracle.alphabet, w.prefix,
                                       w.period[:k] + w.period[k + 1:]))
        for v in variants:
            got = oracle.member(v)
            if got != base:
                return {"word": w, "variant": v, "expected": base, "got": got}
    return None


# ---------------------------------------------------------------------------
# registry


def get_oracle(name: str) -> LanguageOracle:
    """Resolve an oracle by registry name (see the module docstring)."""
    if name == "U":
        return UnboundedBlocksOracle()
    if name == "Uprime":
        return NeutralOracle(UnboundedBlocksOracle(), "1", "Uprime")
    if name == "P":
        return LassoOracle()
    if name == "primes":
        return PrimeBlocksOracle()
    if name.startswith("singleton:"):
        return SingletonOracle(parse_word(name[len("singleton:"):]))
    if name.startswith("regular:"):
        path = name[len("regular:"):]
        from .buchi import parse_automaton
        with open(path, "r", encoding="utf-8") as fh:
            return RegularOracle(parse_automaton(fh.read()), name=name)
    if name.startswith("neutral:"):
        base = get_oracle(name[len("neutral:"):])
        if "1" in base.alphabet:
            raise FormatError(f"{base.name} already has the letter 1")
        return NeutralOracle(base, "1", name)
    raise FormatError(f"unknown oracle {name!r}")
