"""Finitely presented words: finite words, lasso words, and block words.

Three presentation classes are supported.

* FiniteWord: a plain finite sequence of letters.
* UPWord: an ultimately periodic ("lasso") word ``prefix . period^omega``.
* BlockWord: a word ``B^{k_1} S B^{k_2} S ...`` built from a block letter B
  and a separator letter S, where the block lengths ``k_1, k_2, ...`` come
  from a finitely described integer sequence (constant, affine, or
  eventually periodic); it grows exactly when its lasso form `_up_form` is None.

All presentations are immutable values.  Equality of dataclass instances is
structural (same presentation); semantic equality of the denoted infinite
words is `up_equal` for lasso-representable words.

Letters are checked where a word enters: the constructors `FiniteWord(...)`
and `UPWord(...)`, `finite_word`, `up_word`, `with_alphabet` and
`parse_word` check every letter against the alphabet; the constructors
refuse an alphabet that is no `Alphabet`, and `finite_word` and `up_word`
read theirs through `alphabet(...)`.  Words built from
letters of words already checked (`canonical`, `concat`, `omega_product`,
`apply_hom`, whose images `Homomorphism` checks when it is built, and the
internal builders of the other modules) go through the unchecked
`FiniteWord._of` and `UPWord._of`, which trust their caller.

The textual syntax, used by the CLI and the test corpus:

* finite words: ``ab1a`` (one character per letter), ``eps`` for the empty word
* lasso words: ``ab(ba)^w``
* block words: ``blocks(a,b;affine 1 0)``, ``blocks(a,b;constant 3)``,
  ``blocks(a,b;ep 1 2|3 4)`` (head ``1 2``, repeated part ``3 4``); the
  block and separator letters are single characters, as in the other forms
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    AlphabetMismatchError,
    DegenerateProductError,
    FormatError,
    UnsupportedHomomorphismError,
    UnsupportedWordError,
)


# ---------------------------------------------------------------------------
# alphabets


@dataclass(frozen=True)
class Alphabet:
    """An ordered, duplicate-free tuple of letters.

    Letters are nonempty strings without whitespace.  Most concrete alphabets
    here are single characters (``a``, ``b``, ``1``); the formula compiler
    also builds composite letters such as ``a|01``.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise FormatError("alphabet must contain at least one letter")
        seen = set()
        for x in self.letters:
            if not isinstance(x, str) or not x or any(c.isspace() for c in x):
                raise FormatError(f"bad letter {x!r}")
            if x in seen:
                raise FormatError(f"duplicate letter {x!r}")
            seen.add(x)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


def alphabet(spec: Union[Alphabet, str, Iterable[str]]) -> Alphabet:
    """Convenience constructor: ``alphabet("ab1")`` or ``alphabet(["a","b"])``;
    an `Alphabet` is returned as it is."""
    return spec if isinstance(spec, Alphabet) else Alphabet(tuple(spec))


def _check_letters(letters: Sequence[str], alpha: Alphabet) -> None:
    if not isinstance(alpha, Alphabet):
        raise FormatError(f"an alphabet must be an Alphabet, not {type(alpha).__name__}")
    known = alpha.letters
    for x in letters:
        if x not in known:
            raise AlphabetMismatchError(f"letter {x!r} is not in alphabet {known}")


# ---------------------------------------------------------------------------
# finite and lasso words


@dataclass(frozen=True)
class FiniteWord:
    """A finite word.  The constructor checks that the alphabet is an
    `Alphabet` and every letter lies in it; `_of` does not."""

    alphabet: Alphabet
    letters: tuple[str, ...]

    def __post_init__(self):
        _check_letters(self.letters, self.alphabet)

    @classmethod
    def _of(cls, alphabet: Alphabet, letters: tuple[str, ...]) -> FiniteWord:
        """The word of letters already known to lie in `alphabet`; no check."""
        w = object.__new__(cls)
        d = w.__dict__
        d["alphabet"] = alphabet
        d["letters"] = letters
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        return format_word(self)


@dataclass(frozen=True)
class UPWord:
    """An ultimately periodic word ``prefix . period^omega``.  The
    constructor checks that the alphabet is an `Alphabet`, the period is
    nonempty and every letter lies in the alphabet; `_of` does not."""

    alphabet: Alphabet
    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        if not self.period:
            raise FormatError("the period of a lasso word must be nonempty")
        _check_letters(self.prefix, self.alphabet)
        _check_letters(self.period, self.alphabet)

    @classmethod
    def _of(cls, alphabet: Alphabet, prefix: tuple[str, ...],
            period: tuple[str, ...]) -> UPWord:
        """The lasso word of a nonempty period and a prefix whose letters are
        already known to lie in `alphabet`; no check."""
        w = object.__new__(cls)
        d = w.__dict__
        d["alphabet"] = alphabet
        d["prefix"] = prefix
        d["period"] = period
        return w

    def text(self) -> str:
        return format_word(self)


# ---------------------------------------------------------------------------
# block-length sequences


@dataclass(frozen=True)
class ConstantLengths:
    """k_n = value for every n >= 1."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise FormatError("block lengths must be nonnegative")

    def nth(self, n: int) -> int:
        return self.value


@dataclass(frozen=True)
class AffineLengths:
    """k_n = rate * n + offset for n >= 1, rate >= 1 (strictly growing)."""

    rate: int
    offset: int

    def __post_init__(self):
        if self.rate < 1:
            raise FormatError("affine block lengths need rate >= 1; use constant otherwise")
        if self.rate + self.offset < 0:
            raise FormatError("first block length would be negative")

    def nth(self, n: int) -> int:
        return self.rate * n + self.offset


@dataclass(frozen=True)
class EventuallyPeriodicLengths:
    """k_1 .. k_h from `head`, then `cycle` repeated forever."""

    head: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise FormatError("the repeated part of a block-length sequence must be nonempty")
        if any(k < 0 for k in self.head + self.cycle):
            raise FormatError("block lengths must be nonnegative")

    def nth(self, n: int) -> int:
        if n <= len(self.head):
            return self.head[n - 1]
        return self.cycle[(n - len(self.head) - 1) % len(self.cycle)]


LengthSequence = Union[ConstantLengths, AffineLengths, EventuallyPeriodicLengths]


@dataclass(frozen=True)
class BlockWord:
    """``block^{k_1} sep block^{k_2} sep ...`` with k_n from `lengths`."""

    alphabet: Alphabet
    block: str
    sep: str
    lengths: LengthSequence

    def __post_init__(self):
        if self.block == self.sep:
            raise FormatError("block letter and separator letter must differ")
        _check_letters((self.block, self.sep), self.alphabet)

    def text(self) -> str:
        return format_word(self)

    def _segment_end(self, m: int) -> int:
        """Number of positions used by blocks 1..m and their separators."""
        r, o = self.lengths.rate, self.lengths.offset  # type: ignore[union-attr]
        return r * m * (m + 1) // 2 + (o + 1) * m

    def _segment_of(self, i: int) -> int:
        """The segment (block m and its separator) holding position i, for
        strictly growing blocks: the first m whose end exceeds i."""
        lo, hi = 1, 2
        while self._segment_end(hi) <= i:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self._segment_end(mid) > i:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @cached_property
    def _up_form(self) -> Optional[UPWord]:
        if isinstance(self.lengths, AffineLengths):
            return None
        if isinstance(self.lengths, ConstantLengths):
            head: tuple[int, ...] = ()
            cycle: tuple[int, ...] = (self.lengths.value,)
        else:
            head, cycle = self.lengths.head, self.lengths.cycle
        seg = lambda k: (self.block,) * k + (self.sep,)
        prefix = sum((seg(k) for k in head), ())
        period = sum((seg(k) for k in cycle), ())
        return UPWord._of(self.alphabet, prefix, period)


Word = Union[FiniteWord, UPWord, BlockWord]
InfiniteWord = Union[UPWord, BlockWord]


def finite_word(text_or_letters: Union[str, Sequence[str]], alpha) -> FiniteWord:
    return FiniteWord(alphabet(alpha), tuple(text_or_letters))


def up_word(prefix: Union[str, Sequence[str]], period: Union[str, Sequence[str]],
            alpha) -> UPWord:
    return UPWord(alphabet(alpha), tuple(prefix), tuple(period))


def with_alphabet(w: Word, alpha: Alphabet) -> Word:
    """Re-read a word over a (usually larger) alphabet, keeping its letters."""
    if isinstance(w, FiniteWord):
        return FiniteWord(alpha, w.letters)
    if isinstance(w, UPWord):
        return UPWord(alpha, w.prefix, w.period)
    return BlockWord(alpha, w.block, w.sep, w.lengths)


# ---------------------------------------------------------------------------
# core operations


def letter_at(w: Word, i: int) -> str:
    """The letter at position i (0-based).

    Finite words raise IndexError past their end; infinite presentations
    answer for every nonnegative position.
    """
    if i < 0:
        raise IndexError("negative position")
    if isinstance(w, FiniteWord):
        return w.letters[i]
    if isinstance(w, UPWord):
        if i < len(w.prefix):
            return w.prefix[i]
        return w.period[(i - len(w.prefix)) % len(w.period)]
    # block word
    up = w._up_form
    if up is not None:
        return letter_at(up, i)
    # strictly growing blocks: segment m ends with its separator
    return w.block if i < w._segment_end(w._segment_of(i)) - 1 else w.sep


def first_other_letter(w: Word, letter: str, first: int, last: int) -> Optional[int]:
    """The first position in first..last whose letter is not `letter`, or None.

    On a growing block word the segment holding `first` is searched once;
    from there each step jumps to the next letter change, so the cost
    follows the number of segments the window spans, not its length.  Other
    presentations are scanned position by position; on a lasso (or a block
    word with bounded blocks) the scan stops one period past
    max(first, |prefix|), since every later position repeats the letter one
    period earlier.
    """
    if isinstance(w, BlockWord) and w._up_form is not None:
        w = w._up_form
    if isinstance(w, UPWord) and first >= 0:
        last = min(last, max(first, len(w.prefix)) + len(w.period) - 1)
    if not isinstance(w, BlockWord):
        return next((p for p in range(first, last + 1) if letter_at(w, p) != letter), None)
    if first < 0:
        raise IndexError("negative position")
    m, p = w._segment_of(first), first
    while p <= last:
        sep = w._segment_end(m) - 1  # blocks of segment m lie before sep
        if p < sep:
            if letter != w.block:
                return p
            p = sep
        elif letter != w.sep:
            return p
        else:
            m, p = m + 1, p + 1
    return None


def prefix_of(w: Word, n: int) -> tuple[str, ...]:
    """The first n letters of w."""
    return tuple(letter_at(w, i) for i in range(n))


def _primitive_root(v: tuple[str, ...]) -> tuple[str, ...]:
    n = len(v)
    for d in range(1, n + 1):
        if n % d == 0 and v == v[:d] * (n // d):
            return v[:d]
    return v  # unreachable


def canonical_parts(prefix: tuple[str, ...],
                    period: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Shortest prefix and primitive period of prefix.period^omega, as raw
    letter tuples.  The result uses exactly the letters of the input: the
    primitive root and its rotations keep the period's letters, and a
    dropped prefix letter equals a period letter."""
    if not period:
        raise FormatError("the period of a lasso word must be nonempty")
    period = _primitive_root(period)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = (period[-1],) + period[:-1]
    return prefix, period


def canonical(w: UPWord) -> UPWord:
    """Shortest-prefix, primitive-period presentation of the same word."""
    return UPWord._of(w.alphabet, *canonical_parts(w.prefix, w.period))


def up_equal(u: UPWord, v: UPWord) -> bool:
    """Do two lasso presentations denote the same infinite word?

    Decided by comparing letters up to the max prefix length plus the least
    common multiple of the period lengths; past that point both words are
    periodic with a common period, so agreement there implies agreement
    everywhere.
    """
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("up_equal needs words over the same alphabet")
    bound = max(len(u.prefix), len(v.prefix)) + math.lcm(len(u.period), len(v.period))
    return all(letter_at(u, i) == letter_at(v, i) for i in range(bound))


def concat(x: FiniteWord, w: Word) -> Word:
    """Prepend the finite word x to w."""
    if x.alphabet != w.alphabet:
        raise AlphabetMismatchError("concat needs words over the same alphabet")
    if isinstance(w, FiniteWord):
        return FiniteWord._of(x.alphabet, x.letters + w.letters)
    if isinstance(w, UPWord):
        return UPWord._of(x.alphabet, x.letters + w.prefix, w.period)
    raise UnsupportedWordError("cannot prepend to a block word exactly; convert it first")


def omega_product(head: Sequence[FiniteWord], cycle: Sequence[FiniteWord]) -> UPWord:
    """The infinite product u_1 u_2 ... given by `head` then `cycle` repeated.

    Raises DegenerateProductError when the repeated part concatenates to the
    empty word, since the product is then a finite word and not an infinite
    one.
    """
    words = list(head) + list(cycle)
    if not cycle:
        raise DegenerateProductError("an infinite product needs a nonempty repeated part")
    alpha = words[0].alphabet if words else None
    for wd in words:
        if wd.alphabet != alpha:
            raise AlphabetMismatchError("all factors must share one alphabet")
    prefix = sum((wd.letters for wd in head), ())
    period = sum((wd.letters for wd in cycle), ())
    if not period:
        raise DegenerateProductError("the repeated factors concatenate to the empty word")
    return UPWord._of(alpha, prefix, period)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    """A monoid homomorphism given by letter images, extended letterwise."""

    source: Alphabet
    target: Alphabet
    images: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        mapped = {a for a, _ in self.images}
        if mapped != set(self.source.letters):
            raise FormatError("homomorphism must map exactly the source letters")
        if len(mapped) != len(self.images):
            raise FormatError("duplicate letter image")
        for _, img in self.images:
            _check_letters(img, self.target)

    @cached_property
    def _map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.images)

    def image(self, a: str) -> tuple[str, ...]:
        return self._map[a]

    def of(self, letters: Sequence[str]) -> tuple[str, ...]:
        return sum((self._map[a] for a in letters), ())


def homomorphism(mapping: dict[str, str], source: Alphabet, target: Alphabet) -> Homomorphism:
    """Build a homomorphism from ``{letter: image_string}`` (letters are chars)."""
    images = tuple(sorted((a, tuple(img)) for a, img in mapping.items()))
    return Homomorphism(source, target, images)


def erasing_hom(source: Alphabet, erased: str, target: Optional[Alphabet] = None) -> Homomorphism:
    """The homomorphism erasing one letter and fixing all others."""
    if target is None:
        target = Alphabet(tuple(x for x in source.letters if x != erased))
    return homomorphism(
        {x: ("" if x == erased else x) for x in source.letters}, source, target)


def apply_hom(h: Homomorphism, w: Word) -> Word:
    """Apply h to a word, staying within the exact presentation classes.

    Finite and lasso words always work (a lasso word whose period image is
    empty collapses to a finite word).  Block words work exactly when both
    the block letter and the separator letter map to single letters: either
    the images differ, giving a block word with the same length sequence, or
    they coincide and the image is the constant lasso word.  Anything else
    raises UnsupportedHomomorphismError.
    """
    if w.alphabet != h.source:
        raise AlphabetMismatchError("word alphabet differs from homomorphism source")
    if isinstance(w, FiniteWord):
        return FiniteWord._of(h.target, h.of(w.letters))
    if isinstance(w, UPWord):
        prefix, period = h.of(w.prefix), h.of(w.period)
        if not period:
            return FiniteWord._of(h.target, prefix)
        return UPWord._of(h.target, prefix, period)
    bi, si = h.image(w.block), h.image(w.sep)
    if len(bi) == 1 and len(si) == 1:
        if bi == si:
            return UPWord._of(h.target, (), bi)
        return BlockWord(h.target, bi[0], si[0], w.lengths)
    raise UnsupportedHomomorphismError(
        "block words support only homomorphisms sending the block letter and "
        "the separator letter to single letters")


# ---------------------------------------------------------------------------
# letter runs (used by the interval game to find long all-`a` stretches)


def _runs_in(window: Sequence[str], letter: str) -> list[tuple[int, int]]:
    runs, start = [], None
    for i, x in enumerate(window):
        if x == letter and start is None:
            start = i
        elif x != letter and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(window) - 1))
    return runs


def max_letter_run(w: InfiniteWord, letter: str) -> Optional[int]:
    """Length of the longest `letter`-run in w, or None when runs are unbounded.

    Exact: decided from the presentation, not by sampling.  On a lasso whose
    period is not all-`letter`, the window prefix + 2 periods holds every
    run length.  A run inside the periodic part is shorter than the period
    (it would otherwise cover every residue), and a run that starts in the
    prefix dies before one full period for the same reason.  So each run
    that starts in the prefix or in the first period copy ends inside the
    window, and every later run repeats one of those or a tail of one.
    """
    if isinstance(w, BlockWord) and w._up_form is not None:
        w = w._up_form
    if isinstance(w, BlockWord):
        if letter == w.block:
            return None  # growing blocks
        # consecutive separators would need two adjacent empty blocks, and a
        # strictly growing length sequence has at most one empty block
        return 1 if letter == w.sep else 0
    if all(x == letter for x in w.period):
        return None
    return max((e - s + 1 for s, e in _runs_in(w.prefix + w.period * 2, letter)), default=0)


def next_letter_run(w: InfiniteWord, letter: str, min_len: int,
                    start: int) -> Optional[tuple[int, int]]:
    """First position p >= start where positions p..p+min_len-1 all carry `letter`.

    Returns (p, p + min_len - 1), or None when no such window exists anywhere
    at or after `start` (a negative start counts as 0).  Exact for lasso
    words and for the block letter of a growing block word.

    One search: a window that meets another letter at q moves on to q + 1.
    On a lasso a window that starts past the prefix recurs one period later,
    so the search stops one period past max(start, |prefix|).  On a growing
    block word the blocks outgrow every window, so it needs no stop.
    """
    if min_len <= 0:
        raise ValueError("min_len must be positive")
    p = max(start, 0)
    if isinstance(w, BlockWord) and w._up_form is not None:
        w = w._up_form
    if isinstance(w, BlockWord):
        if letter != w.block:
            raise UnsupportedWordError(
                "run search on growing block words supports only the block letter")
        stop = None
    else:
        stop = max(p, len(w.prefix)) + len(w.period)
    while stop is None or p < stop:
        q = first_other_letter(w, letter, p, p + min_len - 1)
        if q is None:
            return (p, p + min_len - 1)
        p = q + 1
    return None


# ---------------------------------------------------------------------------
# text syntax


_UP_RE = re.compile(r"^([^()\s]*)\(([^()\s]+)\)\^w$")
_BLOCKS_RE = re.compile(r"^blocks\(\s*([^\s,;()])\s*,\s*([^\s,;()])\s*;\s*([^;)]+)\)$")


def parse_word(text: str, alpha: Optional[Alphabet] = None) -> Word:
    """Parse the textual word syntax (see the module docstring).

    When `alpha` is omitted it is inferred as the sorted set of letters that
    occur in the text.  Only single-character letters can be written in this
    syntax.
    """
    text = text.strip()
    m = _BLOCKS_RE.match(text)
    if m:
        block, sep, spec = m.group(1), m.group(2), m.group(3).strip()
        lengths = _parse_lengths(spec)
        a = alpha or Alphabet(tuple(sorted({block, sep})))
        return BlockWord(a, block, sep, lengths)
    m = _UP_RE.match(text)
    if m:
        prefix, period = m.group(1), m.group(2)
        if prefix == "eps":
            prefix = ""
        a = alpha or Alphabet(tuple(sorted(set(prefix + period))))
        return UPWord(a, tuple(prefix), tuple(period))
    if text == "eps" or text == "":
        if alpha is None:
            raise FormatError("an empty word needs an explicit alphabet")
        return FiniteWord(alpha, ())
    if "(" in text or ")" in text:
        raise FormatError(f"cannot parse word {text!r}")
    a = alpha or Alphabet(tuple(sorted(set(text))))
    return FiniteWord(a, tuple(text))


def _parse_lengths(spec: str) -> LengthSequence:
    parts = spec.split()
    if not parts:
        raise FormatError("empty block-length spec")
    kind, rest = parts[0], parts[1:]
    try:
        if kind == "constant" and len(rest) == 1:
            return ConstantLengths(int(rest[0]))
        if kind == "affine" and len(rest) == 2:
            return AffineLengths(int(rest[0]), int(rest[1]))
        if kind == "ep":
            joined = " ".join(rest)
            if "|" not in joined:
                raise FormatError("ep lengths need 'head|cycle'")
            head_s, cycle_s = joined.split("|", 1)
            head = tuple(int(t) for t in head_s.split())
            cycle = tuple(int(t) for t in cycle_s.split())
            return EventuallyPeriodicLengths(head, cycle)
    except ValueError as exc:
        raise FormatError(f"bad block-length spec {spec!r}") from exc
    raise FormatError(f"bad block-length spec {spec!r}")


def _text_of(letters: Sequence[str]) -> str:
    """The letters as one text; each (nonempty) letter must be one character."""
    text = "".join(letters)
    if len(text) != len(letters):
        raise FormatError("text syntax supports single-character letters only")
    return text


def format_word(w: Word) -> str:
    """Render a word in the textual syntax; inverse of parse_word."""
    if isinstance(w, FiniteWord):
        return _text_of(w.letters) or "eps"
    if isinstance(w, UPWord):
        return f"{_text_of(w.prefix)}({_text_of(w.period)})^w"
    block, sep = _text_of((w.block, w.sep))
    ls = w.lengths
    if isinstance(ls, ConstantLengths):
        spec = f"constant {ls.value}"
    elif isinstance(ls, AffineLengths):
        spec = f"affine {ls.rate} {ls.offset}"
    else:
        spec = "ep " + " ".join(str(k) for k in ls.head) + "|" + " ".join(str(k) for k in ls.cycle)
    return f"blocks({block},{sep};{spec})"


def to_up_word(w: Word) -> UPWord:
    """Convert to a lasso presentation, when one exists."""
    if isinstance(w, UPWord):
        return w
    if isinstance(w, BlockWord):
        u = w._up_form
        if u is None:
            raise UnsupportedWordError("a growing block word is not ultimately periodic")
        return u
    raise UnsupportedWordError("a finite word is not an infinite word")
