"""Finite-word machinery: transducers, right congruences, separated words.

The pipeline here makes one closure argument executable.  Start from a
finite-word language with infinitely many right-congruence classes (the
bundled ``anbn`` oracle is the standard example).  A class closed under
rational transductions that contains it also contains the pairing language
``{u#u' : u and u' in the same class}``; from there, the two-separator
language below, whose members are forced to use both separators equally
often; and finally — erasing everything except separators — the counting
language ``#^n %#^n``.  The operations implement the membership semantics of
each stage so the forcing argument can be checked exhaustively at small
sizes.

A separated word is written over the segment alphabet plus two separator
symbols, ``#`` and the marked ``%#`` (parsed atomically, in that order:
every plain separator precedes every marked one, and every segment is
closed by a separator)::

    a#aa#a%#aa%#        segments (a, aa) and (a, aa)
    #%#                 two empty segments

Membership in the two-separator language asks, with ``~`` the right
congruence of the underlying finite-word language: the first segments of
both groups are equivalent; so are the last ones; within a group the
segments are pairwise inequivalent; and equivalence propagates stepwise —
``left[i] ~ right[j]`` forces ``left[i+1] ~ right[j+1]``.

Right congruences are decided exactly when the oracle knows its classes,
and otherwise approximated by searching for a distinguishing suffix up to a
bound; every verdict records which of the two it was.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional, Union

from .errors import AlphabetMismatchError, FormatError
from .oracles import LanguageOracle
from .words import (Alphabet, BlockWord, FiniteWord, InfiniteWord, _check_letters, alphabet,
                    canonical_parts)

SEPARATOR = "#"
MARKED_SEPARATOR = "%#"
SEPARATOR_ALPHABET = Alphabet((SEPARATOR, MARKED_SEPARATOR))

DEFAULT_SUFFIX_BOUND = 8
DEFAULT_OUTPUT_CAP = 64
DEFAULT_POWER_BOUND = 16


# ---------------------------------------------------------------------------
# rational transducers


@dataclass(frozen=True)
class RationalTransducer:
    """A finite-state word relation; edges carry an (input, output) pair.

    Either side of an edge label may be empty, so the relation can erase,
    pad, and desynchronize the two sides arbitrarily.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    states: tuple
    initial: frozenset
    final: frozenset
    edges: frozenset  # of (src, input: tuple[str, ...], output: tuple[str, ...], dst)

    def __post_init__(self):
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise FormatError("duplicate state")
        for q in self.initial | self.final:
            if q not in declared:
                raise FormatError(f"undeclared state {q!r}")
        for src, ins, outs, dst in self.edges:
            if src not in declared or dst not in declared:
                raise FormatError(f"edge uses undeclared state: {(src, dst)!r}")
            for x in ins:
                if x not in self.input_alphabet:
                    raise FormatError(f"edge input letter {x!r} not in alphabet")
            for x in outs:
                if x not in self.output_alphabet:
                    raise FormatError(f"edge output letter {x!r} not in alphabet")


def transducer(input_letters, output_letters, states, initial, final,
               edges) -> RationalTransducer:
    """Convenience constructor; edge labels may be given as plain strings."""
    ia = alphabet(input_letters)
    oa = alphabet(output_letters)
    packed = frozenset((src, tuple(ins), tuple(outs), dst)
                       for src, ins, outs, dst in edges)
    return RationalTransducer(ia, oa, tuple(states), frozenset(initial),
                              frozenset(final), packed)


def identity_transducer(letters) -> RationalTransducer:
    alpha = alphabet(letters)
    return transducer(alpha, alpha, ["q"], ["q"], ["q"],
                      [("q", x, x, "q") for x in alpha.letters])


def erasing_transducer(letters) -> RationalTransducer:
    alpha = alphabet(letters)
    return transducer(alpha, alpha, ["q"], ["q"], ["q"],
                      [("q", x, "", "q") for x in alpha.letters])


def apply_transducer(t: RationalTransducer, w: FiniteWord, *,
                     output_cap: int = DEFAULT_OUTPUT_CAP,
                     ) -> tuple[frozenset, bool]:
    """All outputs the transducer can produce on input w.

    Outputs longer than `output_cap` are cut off (empty-input loops can pump
    indefinitely); the second component reports whether that happened, so a
    False there means the image is exactly the returned set.
    """
    for x in w.letters:
        if x not in t.input_alphabet:
            raise AlphabetMismatchError(
                f"input letter {x!r} is not in the transducer's input alphabet")
    outputs = set()
    truncated = False
    seen = set()
    frontier = [(q, 0, ()) for q in sorted(t.initial, key=str)]
    seen.update(frontier)
    while frontier:
        state, pos, out = frontier.pop()
        if pos == len(w.letters) and state in t.final:
            outputs.add(out)
        for src, ins, outs, dst in t.edges:
            if src != state or w.letters[pos:pos + len(ins)] != ins:
                continue
            grown = out + outs
            if len(grown) > output_cap:
                truncated = True
                continue
            nxt = (dst, pos + len(ins), grown)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return (frozenset(FiniteWord._of(t.output_alphabet, out) for out in outputs),
            truncated)


# ---------------------------------------------------------------------------
# finite-word language oracles and their right congruences


class FiniteLanguageOracle:
    """Membership for a finite-word language, with an optional exact
    right-congruence decision (``None`` means "not known exactly")."""

    name: str = "?"
    alphabet: Alphabet = alphabet("ab")

    def member(self, w: FiniteWord) -> bool:
        raise NotImplementedError

    def same_class(self, u: FiniteWord, v: FiniteWord) -> Optional[bool]:
        return None


@lru_cache(maxsize=None)
def _anbn_class(letters: tuple[str, ...]):
    """Right-congruence class of a word for the language a^n b^n (n >= 1).

    Classes: ("a", i) for a run of i letters a (residual still unbounded);
    ("d", d) for a^i b^j with 1 <= j <= i and deficit d = i - j (residual is
    the single word b^d); and "dead" for everything else.
    """
    i = 0
    while i < len(letters) and letters[i] == "a":
        i += 1
    rest = letters[i:]
    if any(x != "b" for x in rest) or len(rest) > i:
        return "dead"
    if not rest:
        return ("a", i)
    return ("d", i - len(rest))


class AnBnOracle(FiniteLanguageOracle):
    """The language a^n b^n for n >= 1 — the stock non-regular example.

    Its right congruence is known in closed form (see `class_of`), so
    equivalence questions are answered exactly rather than by bounded
    search; the congruence has one class per deficit, hence infinitely many.
    """

    name = "anbn"
    alphabet = alphabet("ab")

    def member(self, w: FiniteWord) -> bool:
        return _anbn_class(w.letters) == ("d", 0)

    def class_of(self, w: FiniteWord):
        return _anbn_class(w.letters)

    def same_class(self, u: FiniteWord, v: FiniteWord) -> Optional[bool]:
        return _anbn_class(u.letters) == _anbn_class(v.letters)


class ExplicitOracle(FiniteLanguageOracle):
    """A finite language given by listing its words."""

    def __init__(self, words, letters, name: str = "explicit"):
        self.alphabet = alphabet(letters)
        self.words = frozenset(
            w.letters if isinstance(w, FiniteWord) else tuple(w) for w in words)
        self.name = name

    def member(self, w: FiniteWord) -> bool:
        return w.letters in self.words


def get_finite_oracle(name: str) -> FiniteLanguageOracle:
    if name == "anbn":
        return AnBnOracle()
    raise FormatError(f"unknown finite-word oracle {name!r}")


@dataclass(frozen=True)
class CongruenceVerdict:
    """Outcome of a right-congruence question.

    `exact` is True when the answer is certain: the oracle decided it, or a
    distinguishing suffix was found (kept in `witness`).  An inexact verdict
    is always positive — it only says no suffix up to the bound separates
    the words.
    """

    equivalent: bool
    exact: bool
    witness: Optional[FiniteWord] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _coerce_finite(text_or_word: Union[str, FiniteWord],
                   letters: Alphabet) -> FiniteWord:
    """The word over `letters` of a text, or of a finite word whose letters
    all belong to `letters`, whatever alphabet it was built over."""
    if isinstance(text_or_word, FiniteWord):
        if text_or_word.alphabet == letters:
            return text_or_word
        text_or_word = text_or_word.letters
    _check_letters(text_or_word, letters)
    return FiniteWord._of(letters, tuple(text_or_word))


def _distinguishing_suffix(language: FiniteLanguageOracle, u: FiniteWord,
                           v: FiniteWord, bound: int) -> Optional[FiniteWord]:
    alpha = language.alphabet
    for n in range(bound + 1):
        for tail in product(alpha.letters, repeat=n):
            if (language.member(FiniteWord._of(alpha, u.letters + tail))
                    != language.member(FiniteWord._of(alpha, v.letters + tail))):
                return FiniteWord._of(alpha, tail)
    return None


def right_congruence_finite(language: FiniteLanguageOracle,
                            u: Union[str, FiniteWord],
                            v: Union[str, FiniteWord], *,
                            bound: int = DEFAULT_SUFFIX_BOUND) -> CongruenceVerdict:
    """Are u and v right-congruent for the language (u·s and v·s always
    agree on membership)?

    An oracle that knows the pair congruent settles it at once.  Otherwise a
    distinguishing suffix up to the bound settles it negatively with a
    witness; failing that, the oracle's own negative decision is used when it
    has one, and as a last resort the bounded search's failure is reported as
    an inexact positive.
    """
    u = _coerce_finite(u, language.alphabet)
    v = _coerce_finite(v, language.alphabet)
    known = language.same_class(u, v)
    if known:
        return CongruenceVerdict(True, True, None)
    witness = _distinguishing_suffix(language, u, v, bound)
    if witness is not None:
        return CongruenceVerdict(False, True, witness)
    if known is not None:
        return CongruenceVerdict(known, True, None)
    return CongruenceVerdict(True, False, None)


def _same_class(language: FiniteLanguageOracle, u: FiniteWord, v: FiniteWord,
                bound: int) -> bool:
    known = language.same_class(u, v)
    if known is not None:
        return known
    return _distinguishing_suffix(language, u, v, bound) is None


# ---------------------------------------------------------------------------
# separated words and the staged languages


@dataclass(frozen=True)
class SeparatedWord:
    """Segments over a base alphabet, grouped by the two separators.

    Denotes the word ``left[0] # … left[n-1] # right[0] %# … right[m-1] %#``
    — every plain-separated segment precedes every marked one, and each
    segment is closed by its separator, so the grouping is unambiguous.
    Either group (or both) may be empty, as may any individual segment.
    """

    alphabet: Alphabet
    left: tuple[FiniteWord, ...]
    right: tuple[FiniteWord, ...]

    def __post_init__(self):
        for seg in self.left + self.right:
            if seg.alphabet is not self.alphabet and seg.alphabet != self.alphabet:
                raise AlphabetMismatchError(
                    "separated-word segments must share the base alphabet")

    @classmethod
    def _of(cls, alphabet: Alphabet, left: tuple[FiniteWord, ...],
            right: tuple[FiniteWord, ...]) -> SeparatedWord:
        """The separated word of segments already over `alphabet`; no check."""
        s = object.__new__(cls)
        d = s.__dict__
        d["alphabet"] = alphabet
        d["left"] = left
        d["right"] = right
        return s


def separated_word(left, right, letters) -> SeparatedWord:
    alpha = alphabet(letters)
    return SeparatedWord(alpha,
                         tuple(_coerce_finite(s, alpha) for s in left),
                         tuple(_coerce_finite(s, alpha) for s in right))


@lru_cache(maxsize=64)
def _separated_pattern(letters: tuple[str, ...]) -> re.Pattern:
    """The separated words over `letters`, as one pattern: group 1 spans the
    plain-separated segments, group 2 the marked ones.  A segment letter is
    any one-character letter but ``#``; ``%`` is one only where no ``#``
    follows, so ``%#`` always reads as the marked separator and every other
    ``#`` as a plain one."""
    plain = "".join(re.escape(x) for x in letters if len(x) == 1 and x not in "#%")
    choices = ([f"[{plain}]"] if plain else []) + (["%(?!#)"] if "%" in letters else [])
    seg = f"(?:{'|'.join(choices)})*" if choices else ""
    return re.compile(f"((?:{seg}#)*)((?:{seg}%#)*)")


def _separated_groups(text: str, alpha: Alphabet) -> tuple[str, str]:
    """The plain and the marked group of a separated word's text, each with
    its closing separators; raises FormatError for any other text."""
    m = _separated_pattern(alpha.letters).fullmatch(text)
    if m is None:
        raise FormatError(_separated_error(text, alpha))
    return m.groups()


def _separated_error(text: str, alpha: Alphabet) -> str:
    """Why a text that `_separated_pattern` rejects is no separated word:
    the first fault of a left-to-right scan."""
    in_right = False
    i = 0
    while i < len(text):
        if text.startswith(MARKED_SEPARATOR, i):
            in_right = True
            i += len(MARKED_SEPARATOR)
        elif text[i] == SEPARATOR:
            if in_right:
                return "plain separator after a marked one"
            i += 1
        elif text[i] in alpha:
            i += 1
        else:
            return f"letter {text[i]!r} is not in {alpha.letters}"
    return "trailing letters after the last separator"


def _segments(group: str, sep: str, alpha: Alphabet) -> tuple[FiniteWord, ...]:
    """The segments of a group that `_separated_groups` returned."""
    of = FiniteWord._of
    return tuple([of(alpha, tuple(x)) for x in group.split(sep)[:-1]])


def parse_separated(text: str, letters) -> SeparatedWord:
    """Parse ``w1#…wn#v1%#…vm%#``; the marked separator ``%#`` is atomic."""
    alpha = alphabet(letters)
    left, right = _separated_groups(text, alpha)
    return SeparatedWord._of(alpha, _segments(left, SEPARATOR, alpha),
                             _segments(right, MARKED_SEPARATOR, alpha))


def format_separated(s: SeparatedWord) -> str:
    return ("".join("".join(seg.letters) + SEPARATOR for seg in s.left)
            + "".join("".join(seg.letters) + MARKED_SEPARATOR for seg in s.right))


def member_L1(language: FiniteLanguageOracle, s: Union[str, FiniteWord], *,
              bound: int = DEFAULT_SUFFIX_BOUND) -> CongruenceVerdict:
    """Membership in the pairing language: u#u' with u, u' right-congruent.

    The input must contain exactly one plain separator.
    """
    text = s if isinstance(s, str) else "".join(s.letters)
    if text.count(SEPARATOR) != 1:
        raise FormatError("the pairing language needs exactly one separator")
    u, v = text.split(SEPARATOR)
    return right_congruence_finite(language, u, v, bound=bound)


def member_L2(language: FiniteLanguageOracle, s: Union[str, SeparatedWord], *,
              bound: int = DEFAULT_SUFFIX_BOUND) -> bool:
    """Membership in the two-separator language over the given base language.

    With ``~`` the right congruence: the groups' first segments are
    equivalent, so are their last ones, each group is pairwise
    inequivalent, and ``left[i] ~ right[j]`` forces the successors
    ``left[i+1] ~ right[j+1]`` whenever both exist.  Those conditions chain
    the groups together stepwise, which is what forces members to use both
    separators equally often.

    Text is checked by one match, as `parse_separated` checks it; a text
    with an empty group is answered before any segment is built.  The
    segments of a separated word over another alphabet are checked against
    the language's alphabet.
    """
    if isinstance(s, str):
        alpha = alphabet(language.alphabet)
        left, right = _separated_groups(s, alpha)
        if not left or not right:
            return False
        w = _segments(left, SEPARATOR, alpha)
        v = _segments(right, MARKED_SEPARATOR, alpha)
    else:
        w, v = s.left, s.right
        if s.alphabet.letters != language.alphabet.letters:
            for seg in w + v:
                _check_letters(seg.letters, language.alphabet)
        if not w or not v:
            return False

    def eq(x: FiniteWord, y: FiniteWord) -> bool:
        return _same_class(language, x, y, bound)

    if not eq(w[0], v[0]) or not eq(w[-1], v[-1]):
        return False
    for group in (w, v):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if eq(group[i], group[j]):
                    return False
    for i in range(len(w) - 1):
        for j in range(len(v) - 1):
            if eq(w[i], v[j]) and not eq(w[i + 1], v[j + 1]):
                return False
    return True


def project_to_separators(s: SeparatedWord) -> FiniteWord:
    """Erase the segments, keeping the separator skeleton."""
    return FiniteWord._of(SEPARATOR_ALPHABET,
                          (SEPARATOR,) * len(s.left) + (MARKED_SEPARATOR,) * len(s.right))


# ---------------------------------------------------------------------------
# from finite to infinite words


class _LoopOracle(LanguageOracle):
    """Words of the form prefix·v^ω with v in a finite-word language.

    A lasso word belongs exactly when some rotation of its primitive period,
    raised to some positive power, is in the language; the search is bounded
    by `power_bound`, so a miss beyond the bound is reported as a
    non-member.
    """

    def __init__(self, language: FiniteLanguageOracle, power_bound: int):
        self.language = language
        self.power_bound = power_bound
        self.alphabet = language.alphabet
        self.name = f"loop:{language.name}"

    def decide(self, w: InfiniteWord) -> bool:
        if isinstance(w, BlockWord):
            return False  # growing blocks are never ultimately periodic
        root = canonical_parts(w.prefix, w.period)[1]
        rotations = {root[i:] + root[:i] for i in range(len(root))}
        for r in sorted(rotations):
            for k in range(1, self.power_bound + 1):
                if self.language.member(FiniteWord._of(self.alphabet, r * k)):
                    return True
        return False


def loop_representation(language: FiniteLanguageOracle, *,
                        power_bound: int = DEFAULT_POWER_BOUND) -> LanguageOracle:
    """The infinite-word language of loops over a finite-word one."""
    return _LoopOracle(language, power_bound)
