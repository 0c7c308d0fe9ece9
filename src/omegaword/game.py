"""The interval game that separates bounded from unbounded a-runs.

One play, parametrised by an infinite word and a language oracle L:

1. Spoiler lays out an infinite family of pairwise disjoint intervals.
2. Duplicator picks members W_1, W_2, ... of that family and interleaves
   them with intervals V_i of its own whose positions all carry the
   letter a in the word: W_1 < V_1 < W_2 < V_2 < ...
3. Spoiler picks finite words w_i with |w_i| < |W_i|.
4. Duplicator picks finite words v_i with |v_i| < |V_i|.
5. Spoiler picks an increasing index sequence.
6. Duplicator wins when the products w_{i_1} w_{i_2} ... and
   v_{i_1} v_{i_2} ... agree about membership in L.

When the word has all-a intervals of unbounded size, Duplicator can always
answer v_i = w_i inside a large enough V_i and win; otherwise Duplicator's
vocabulary is finite and Spoiler can cash in a product-recognition violation
of L.  Bounded play materializes `horizon` interval pairs and word pairs,
restricts round 5 to eventually periodic index schemes (so round 6 is
decidable on lasso presentations), and makes every illegal move an
immediate forfeit.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Iterator, Optional

from .congruence import (
    Classifier,
    PeriodicWordSequence,
    _Table,
    _words_up_to,
    product_member,
)
from .errors import BudgetExceededError, FormatError, IllegalMoveError, UnsupportedWordError
from .words import (
    Alphabet,
    FiniteWord,
    Word,
    alphabet,
    finite_word,
    first_other_letter,
    format_word,
    next_letter_run,
    parse_word,
)

SPOILER = "Spoiler"
DUPLICATOR = "Duplicator"

FAMILY_BUDGET = 100000
SCAN_BUDGET = 10 ** 6  # farthest V_i end the copy, random and constant duplicators play
VOCAB_BOUND = 2  # longest word DivergingSpoiler picks its round-3 words from


@dataclass(frozen=True)
class Interval:
    """Positions first..last.  The constructor checks 0 <= first <= last;
    `_of` does not."""

    first: int
    last: int

    def __post_init__(self):
        if self.first < 0 or self.last < self.first:
            raise FormatError(f"bad interval [{self.first}, {self.last}]")

    @classmethod
    def _of(cls, first: int, last: int) -> Interval:
        """The interval of bounds already known to satisfy 0 <= first <= last;
        no check."""
        v = object.__new__(cls)
        d = v.__dict__
        d["first"] = first
        d["last"] = last
        return v

    def __len__(self):
        return self.last - self.first + 1

    def __lt__(self, other):  # the interval order: strictly before
        return self.last < other.first


class IntervalFamily:
    """An infinite family of pairwise disjoint intervals in increasing order,
    given by a 1-based generator; bounded play materializes a prefix."""

    def __init__(self, nth: Callable[[int], Interval], note: str):
        self._nth = nth
        self.note = note
        self._cache: list[Interval] = []

    def _grow(self) -> Interval:
        """Materialize the next member, under `FAMILY_BUDGET`, checking that
        it lies after the last one."""
        cache = self._cache
        if len(cache) >= FAMILY_BUDGET:
            raise BudgetExceededError("interval family budget exhausted")
        v = self._nth(len(cache) + 1)
        if cache and not (cache[-1] < v):
            raise FormatError("family intervals must be increasing")
        cache.append(v)
        return v

    def materialize(self, n: int) -> tuple[Interval, ...]:
        while len(self._cache) < n:
            self._grow()
        return tuple(self._cache[:n])

    def next_after(self, pos: int) -> Interval:
        """First family member whose positions all lie beyond `pos`.  The
        members' starts increase, so a binary search finds it among the
        materialized ones; otherwise the cache grows in place, one member at
        a time, until a member starts beyond `pos`."""
        i = bisect_right(self._cache, pos, key=lambda v: v.first)
        if i < len(self._cache):
            return self._cache[i]
        while True:
            v = self._grow()
            if v.first > pos:
                return v

    @property
    def materialized(self) -> tuple[Interval, ...]:
        return tuple(self._cache)


def fixed_family(intervals, note="fixed") -> IntervalFamily:
    """A family given by an explicit prefix; continues with unit intervals
    beyond the last listed one (so that it is genuinely infinite)."""
    items = tuple(intervals)

    def nth(i: int) -> Interval:
        if i <= len(items):
            return items[i - 1]
        base = (items[-1].last if items else -1) + 2 * (i - len(items))
        return Interval(base, base)

    return IntervalFamily(nth, note)


@dataclass(frozen=True)
class IndexScheme:
    """Eventually periodic index sequence: the listed head, then the cycle's
    word pairs repeating forever (reusing materialized rounds)."""

    head: tuple[int, ...]
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class GameTranscript:
    word: Word
    horizon: int
    oracle_name: str
    family: tuple[Interval, ...]            # materialized round-1 prefix
    family_note: str
    selected: tuple[Interval, ...]          # round 2: the W_i
    chosen: tuple[Interval, ...]            # round 2: the V_i
    spoiler_words: tuple[FiniteWord, ...]   # round 3
    duplicator_words: tuple[FiniteWord, ...]  # round 4
    scheme: Optional[IndexScheme]           # round 5
    forfeit: Optional[tuple[str, int, str]]  # (player, round, reason)
    verdicts: Optional[tuple[bool, bool]]
    verdict_notes: tuple[str, str]
    winner: Optional[str]
    adjudication_error: Optional[str]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Forfeit:
    """Returned by a strategy that cannot (or will not) move legally."""

    reason: str


# ---------------------------------------------------------------------------
# legality


def validate_transcript(t: GameTranscript) -> list[str]:
    """All rule violations in the recorded rounds (empty list: legal play),
    round by round.  Rounds cut short by a forfeit are simply absent and not
    judged.  `play_bounded` judges each move of rounds 2-5 by the same
    per-round rules, so a move it accepts is one this reports nothing for."""
    return (_round1_faults(t.family)
            + _round2_faults(t.word, t.family, t.selected, t.chosen)
            + _words_faults(3, t.spoiler_words, t.selected, len(t.selected))
            + _words_faults(4, t.duplicator_words, t.chosen, len(t.selected))
            + _round5_faults(t.scheme, len(t.spoiler_words)))


def _round1_faults(family) -> list[str]:
    return [f"round1 disjointness: {a} vs {b}"
            for a, b in zip(family, family[1:]) if not a < b]


def _round2_faults(word: Word, family, selected, chosen) -> list[str]:
    """The round-2 rules.  The label check reports the first non-a position
    of each V_i.  It asks `first_other_letter`, which on a growing block
    word jumps from segment to segment instead of reading every position of
    V_i."""
    out = []
    if len(chosen) != len(selected):
        out.append("round2 pairing: each W_i needs its V_i")
    fam = set(family)
    for i, w in enumerate(selected, 1):
        if w not in fam:
            out.append(f"round2 membership: W_{i} not in the family")
    chain: list[Interval] = []
    for w, v in zip(selected, chosen):
        chain += [w, v]
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            out.append(f"round2 interleaving: {a} not before {b}")
    for i, v in enumerate(chosen, 1):
        p = first_other_letter(word, "a", v.first, v.last)
        if p is not None:
            out.append(f"round2 labels: V_{i} covers a non-a position {p}")
    return out


def _words_faults(round_no: int, words, intervals, pairs: int) -> list[str]:
    """The rules of round 3 (Spoiler's w_i, each shorter than its W_i) or
    round 4 (Duplicator's v_i, each shorter than its V_i), with one word per
    interval pair when any word was played."""
    w, iv = ("w", "W") if round_no == 3 else ("v", "V")
    out = [f"round{round_no} length bound: |{w}_{i}| = {len(x)} vs |{iv}_{i}| = {len(v)}"
           for i, (x, v) in enumerate(zip(words, intervals), 1) if len(x) >= len(v)]
    if words and len(words) != pairs:
        out.append(f"round{round_no} count: one word per interval pair")
    return out


def _round5_faults(scheme: Optional[IndexScheme], rounds: int) -> list[str]:
    """The round-5 rules, for a scheme over `rounds` materialized rounds."""
    out = []
    if scheme is not None:
        seq = scheme.head + scheme.cycle
        if not scheme.cycle:
            out.append("round5 cycle: must be nonempty")
        if any(i < 1 or i > rounds for i in seq):
            out.append("round5 range: indices must refer to materialized rounds")
        elif any(a >= b for a, b in zip(seq, seq[1:])):
            out.append("round5 ordering: indices must increase strictly")
    return out


def _factor_sequences(scheme: IndexScheme, w_words, v_words) -> tuple[PeriodicWordSequence, ...]:
    """The two factor sequences that `scheme` picks: from Spoiler's words
    w_i, then from Duplicator's words v_i."""
    return tuple(PeriodicWordSequence(tuple(words[i - 1] for i in scheme.head),
                                      tuple(words[i - 1] for i in scheme.cycle))
                 for words in (w_words, v_words))


def adjudicate(t: GameTranscript, oracle) -> GameTranscript:
    """Winner as a pure function of the transcript (idempotent): forfeits
    lose immediately; otherwise the scheme's two products are put to the
    oracle and Duplicator wins exactly when the verdicts agree."""
    if t.forfeit is None and t.scheme is None:
        return replace(t, winner=None, adjudication_error="no round-5 scheme")
    verdicts, verdict_notes, winner, error = _adjudication(
        t.forfeit, t.scheme, t.spoiler_words, t.duplicator_words, oracle)
    return replace(t, verdicts=verdicts, verdict_notes=verdict_notes, winner=winner,
                   adjudication_error=error)


def _adjudication(forfeit, scheme: Optional[IndexScheme], w_words, v_words, oracle) -> tuple:
    """(verdicts, verdict_notes, winner, adjudication_error) of a play that
    ended in `forfeit`, or else with `scheme`."""
    if forfeit is not None:
        return None, ("", ""), DUPLICATOR if forfeit[0] == SPOILER else SPOILER, None
    seq_w, seq_v = _factor_sequences(scheme, w_words, v_words)
    try:
        mw, note_w = product_member(oracle, seq_w)
        mv, note_v = product_member(oracle, seq_v)
    except UnsupportedWordError as e:
        return None, ("", ""), None, f"oracle could not decide a product: {e}"
    return (mw, mv), (note_w, note_v), DUPLICATOR if mw == mv else SPOILER, None


# ---------------------------------------------------------------------------
# the engine


def play_bounded(word: Word, oracle, spoiler, duplicator, *,
                 horizon: int) -> GameTranscript:
    """One bounded play.  Strategies move through their round callbacks; a
    move of the wrong shape raises IllegalMoveError, and a move that breaks
    a rule forfeits for its author, with the messages `validate_transcript`
    reports for it as the reason: rounds 2-5 are judged by the validator's
    own per-round rules.  Each legal move is kept, and the transcript is
    built once, when play ends; it always passes validate_transcript and
    carries the adjudication."""
    if horizon < 1:
        raise IllegalMoveError("horizon must be at least 1")
    spoiler.begin(word, oracle, horizon)
    duplicator.begin(word, oracle, horizon)
    family = None
    selected = chosen = w_words = v_words = ()
    scheme = None

    def end(forfeit: Optional[tuple[str, int, str]] = None) -> GameTranscript:
        """The adjudicated transcript of the moves kept so far."""
        verdicts, verdict_notes, winner, error = _adjudication(
            forfeit, scheme, w_words, v_words, oracle)
        return GameTranscript(
            word, horizon, getattr(oracle, "name", "?"),
            family.materialized if family else (), family.note if family else "",
            selected, chosen, w_words, v_words, scheme, forfeit,
            verdicts, verdict_notes, winner, error, tuple(getattr(spoiler, "notes", ())))

    # round 1
    move = spoiler.round1()
    if isinstance(move, Forfeit):
        return end((SPOILER, 1, move.reason))
    if not isinstance(move, IntervalFamily):
        raise IllegalMoveError("round 1 must produce an IntervalFamily")
    family = move

    # round 2
    move = duplicator.round2(family)
    if isinstance(move, Forfeit):
        return end((DUPLICATOR, 2, move.reason))
    pairs = list(move)
    if len(pairs) != horizon or not all(
            isinstance(w, Interval) and isinstance(v, Interval) for w, v in pairs):
        raise IllegalMoveError("round 2 must produce horizon many (W, V) pairs")
    ws = tuple(w for w, _ in pairs)
    vs = tuple(v for _, v in pairs)
    bad = _round2_faults(word, family.materialized, ws, vs)
    if bad:
        return end((DUPLICATOR, 2, "; ".join(bad)))
    selected, chosen = ws, vs

    # round 3
    move = spoiler.round3(selected)
    if isinstance(move, Forfeit):
        return end((SPOILER, 3, move.reason))
    words = _as_words(move, horizon, oracle.alphabet, "round 3")
    bad = _words_faults(3, words, selected, horizon)
    if bad:
        return end((SPOILER, 3, "; ".join(bad)))
    w_words = words

    # round 4
    move = duplicator.round4(w_words, chosen)
    if isinstance(move, Forfeit):
        return end((DUPLICATOR, 4, move.reason))
    words = _as_words(move, horizon, oracle.alphabet, "round 4")
    bad = _words_faults(4, words, chosen, horizon)
    if bad:
        return end((DUPLICATOR, 4, "; ".join(bad)))
    v_words = words

    # round 5
    move = spoiler.round5(w_words, v_words)
    if isinstance(move, Forfeit):
        return end((SPOILER, 5, move.reason))
    if not isinstance(move, IndexScheme):
        raise IllegalMoveError("round 5 must produce an IndexScheme")
    bad = _round5_faults(move, horizon)
    if bad:
        return end((SPOILER, 5, "; ".join(bad)))
    scheme = move
    return end()


def _as_words(move, horizon, alpha: Alphabet, where: str) -> tuple[FiniteWord, ...]:
    words = list(move)
    if len(words) != horizon or not all(isinstance(w, FiniteWord) for w in words):
        raise IllegalMoveError(f"{where} must produce horizon many finite words")
    for w in words:
        if any(x not in alpha for x in w.letters):
            raise IllegalMoveError(f"{where} word {w.text()!r} leaves the oracle alphabet")
    return tuple(words)


# ---------------------------------------------------------------------------
# duplicator strategies


def _random_words(rng, alpha: Alphabet, intervals) -> list[FiniteWord]:
    """One random word per interval, shorter than it: its length drawn by
    `randrange`, then each letter by `choice`."""
    out = []
    for iv in intervals:
        k = rng.randrange(0, len(iv))
        out.append(FiniteWord._of(alpha, tuple(rng.choice(alpha.letters) for _ in range(k))))
    return out


class _Strategy:
    def begin(self, word, oracle, horizon):
        self.word = word
        self.oracle = oracle
        self.horizon = horizon
        self.notes: list[str] = []

    def _round2(self, family: IntervalFamily, need: Callable[[Interval], int],
                forfeit: str, pick_last: Optional[Callable[[int, int], int]] = None):
        """Round 2 of the duplicators: take each W_i from the family after
        the previous V_i and put V_i at the first all-a window of `need(W_i)`
        positions after W_i; `pick_last(s, e)`, when given, picks V_i's end
        inside that window s..e.  Forfeits with `forfeit`, formatted with
        `need` and W_i's `last`, when no such window remains, and when the
        window ends past `SCAN_BUDGET`."""
        pairs = []
        pos = -1
        for _ in range(self.horizon):
            w = family.next_after(pos)
            n = need(w)
            run = next_letter_run(self.word, "a", n, w.last + 1)
            if run is None:
                return Forfeit(forfeit.format(need=n, last=w.last))
            s, e = run
            if e > SCAN_BUDGET:
                return Forfeit(f"scan budget {SCAN_BUDGET} exhausted")
            v = Interval(s, e if pick_last is None else pick_last(s, e))
            pairs.append((w, v))
            pos = v.last
        return pairs


class CopyDuplicator(_Strategy):
    """Mirror the opponent: pick V_i as an all-a interval at least as long
    as W_i (so that v_i = w_i is always legal) and answer v_i = w_i.
    Forfeits honestly when the word has no long enough a-run ahead, which is
    exactly the case of bounded a-runs."""

    def round2(self, family: IntervalFamily):
        return self._round2(family, len,
                            "no all-a interval of size {need} beyond position {last}")

    def round4(self, w_words, chosen):
        return list(w_words)


class RandomDuplicator(_Strategy):
    """V_i is the first a-position after W_i, and every answer is the empty
    word: V_i's end is drawn inside a one-position window and each answer's
    length below |V_i| = 1, so both draws have one outcome, though they
    still consume the seeded stream.  Drawing V_i inside the whole a-run
    changes `PINNED_GAME` and the benchmark goldens, so that fix waits for
    their re-record (ROADMAP item 12)."""

    def __init__(self, rng):
        self.rng = rng

    def round2(self, family: IntervalFamily):
        return self._round2(family, lambda w: 1, "no a-labelled position remains",
                            self.rng.randint)

    def round4(self, w_words, chosen):
        return _random_words(self.rng, self.oracle.alphabet, chosen)


class ConstantDuplicator(_Strategy):
    """Always answers the same word, inside a-runs just long enough for it."""

    def __init__(self, text: str = "a"):
        self.text = text

    def round2(self, family: IntervalFamily):
        need = len(self.text) + 1
        return self._round2(family, lambda w: need, "no all-a interval of size {need} remains")

    def round4(self, w_words, chosen):
        return [finite_word(self.text, self.oracle.alphabet)] * self.horizon  # words are immutable


# ---------------------------------------------------------------------------
# spoiler strategies


class RandomSpoiler(_Strategy):
    """Random disjoint intervals, random short words, random legal scheme."""

    def __init__(self, rng):
        self.rng = rng

    def round1(self):
        rng = self.rng
        items: list[Interval] = []

        def nth(i: int) -> Interval:
            while len(items) < i:
                start = (items[-1].last + rng.randint(1, 4)) if items else rng.randint(0, 3)
                items.append(Interval(start, start + rng.randint(0, 4)))
            return items[i - 1]

        return IntervalFamily(nth, "random sizes 1-5, gaps 1-4")

    def round3(self, selected):
        return _random_words(self.rng, self.oracle.alphabet, selected)

    def round5(self, w_words, v_words):
        n = self.horizon
        k = self.rng.randint(1, min(3, n))
        h = self.rng.randint(0, min(2, n - k))
        seq = sorted(self.rng.sample(range(1, n + 1), h + k))
        return IndexScheme(tuple(seq[:h]), tuple(seq[h:]))


class DivergingSpoiler(_Strategy):
    """The structural winning recipe for words with bounded a-runs.

    Round 1 makes the interval sizes diverge (size i at the i-th interval),
    which caps any Duplicator's vocabulary when a-runs are bounded.  Round 3
    cycles through all short words so every one of them recurs.  Round 5
    reconstructs Duplicator's response function from the observed rounds,
    asks the oracle's violation finder for a pair of product-separated
    sequences against it, and realizes that witness inside the transcript;
    when the witness needs rounds beyond the horizon, a direct scheme search
    over the materialized rounds stands in (noted in the transcript).  That
    search tries the single-index cycles, then the two-index ones, and puts
    each distinct cycle of (w_i, v_i) pairs to the oracle once: a repeat of
    a tried cycle has the same two products.  It walks only the first
    occurrence i of each distinct pair content: first the singles (i,),
    then for each such i, the first later position j of each content, by
    ascending j (`_distinct_cycles`).  These are the first cycles of each
    content in the order singles, then pairs (i, j) lexicographically, so
    the work is O(n·d) for horizon n and d distinct contents, and it puts
    at most d + d² cycles to the oracle, not n squared.
    """

    def begin(self, word, oracle, horizon):
        super().begin(word, oracle, horizon)
        if not getattr(oracle, "has_violation_finder", False):
            raise UnsupportedWordError(
                f"the diverging strategy needs an oracle with a violation finder, "
                f"not {getattr(oracle, 'name', '?')}")

    def round1(self):
        def nth(i: int) -> Interval:
            start = (i - 1) * (i + 2) // 2
            return Interval(start, start + i - 1)

        return IntervalFamily(nth, "sizes 1,2,3,... with unit gaps")

    def round3(self, selected):
        vocab = _words_up_to(self.oracle.alphabet, VOCAB_BOUND)
        out = []
        p = 0
        for w in selected:
            for step in range(len(vocab)):
                cand = vocab[(p + step) % len(vocab)]
                if len(cand) < len(w):
                    out.append(cand)
                    p = (p + step + 1) % len(vocab)
                    break
        return out

    def round5(self, w_words, v_words):
        scheme = self._realize_witness(w_words, v_words)
        if scheme is not None:
            return scheme
        scheme = self._scheme_search(w_words, v_words)
        if scheme is not None:
            self.notes.append("witness not realizable within horizon; "
                              "direct scheme search succeeded")
            return scheme
        self.notes.append("horizon insufficient: no separating scheme found")
        return IndexScheme((), (self.horizon,))

    def _realize_witness(self, w_words, v_words) -> Optional[IndexScheme]:
        c = _response_classifier(self.oracle.alphabet, w_words, v_words)
        witness = self.oracle.find_condition2_violation(c)
        if not isinstance(witness.original, PeriodicWordSequence):
            self.notes.append("witness sequence is not eventually periodic")
            return None
        head, cycle = witness.original.head, witness.original.cycle
        targets = list(head) + list(cycle)
        indices = []
        nxt = 1
        for tgt in targets:
            for i in range(nxt, self.horizon + 1):
                if w_words[i - 1].letters == tgt.letters:
                    indices.append(i)
                    nxt = i + 1
                    break
            else:
                return None
        scheme = IndexScheme(tuple(indices[:len(head)]), tuple(indices[len(head):]))
        if self._separates(scheme, w_words, v_words):
            self.notes.append("violation witness realized in the transcript")
            return scheme
        return None

    def _scheme_search(self, w_words, v_words) -> Optional[IndexScheme]:
        for cycle in _distinct_cycles(list(zip(w_words, v_words))):
            scheme = IndexScheme((), cycle)
            if self._separates(scheme, w_words, v_words):
                return scheme
        return None

    def _separates(self, scheme, w_words, v_words) -> bool:
        return _adjudication(None, scheme, w_words, v_words, self.oracle)[2] == SPOILER


def _distinct_cycles(contents: list) -> Iterator[tuple[int, ...]]:
    """The 1-based cycles (i,) and (i, j), i < j, whose contents no earlier
    one had, in the order: all singles by i, then all pairs by (i, j).

    A content's first single is at its first occurrence.  A content pair
    (x, y) first occurs at the first occurrence i of x, with j the first
    occurrence of y after i, since every later occurrence of x sees only
    contents that also follow i.  So only first occurrences need a walk to
    the right, and the walk from i stops once it has met every content."""
    firsts: dict = {}  # content -> its first position, 0-based
    ids = [firsts.setdefault(x, i) for i, x in enumerate(contents)]
    yield from ((i + 1,) for i in firsts.values())
    for i in firsts.values():
        seen: set = set()
        for j in range(i + 1, len(ids)):
            if ids[j] not in seen:
                seen.add(ids[j])
                yield (i + 1, j + 1)
                if len(seen) == len(firsts):
                    break


def _response_classifier(alpha: Alphabet, w_words, v_words) -> Classifier:
    """Duplicator's observed response function, as a total classifier.

    The kernel of w_i -> v_i (most frequent response per word, earliest on
    ties), presented as a prefix tree over the observed words; unobserved
    words inherit the class of their longest observed ancestor, and
    everything beyond the tree falls into a sink with the overall most
    common class.
    """
    counts: dict = {}
    for w, v in zip(w_words, v_words):
        counts.setdefault(w.letters, Counter())[v.text()] += 1
    f = {}
    for w, cnt in counts.items():
        best = max(cnt.items(), key=lambda kv: kv[1])
        f[w] = best[0]
    overall = Counter(f.values())
    default = overall.most_common(1)[0][0] if overall else "eps"

    nodes = {()}
    for w in f:
        for k in range(len(w) + 1):
            nodes.add(w[:k])
    node_list = sorted(nodes, key=lambda p: (len(p), p))
    pos = {p: i for i, p in enumerate(node_list)}
    sink = len(node_list)
    names: list = []
    for p in node_list:  # an unobserved node inherits its parent's class
        names.append(f[p] if p in f else names[pos[p[:-1]]] if p else default)
    succ = {x: tuple([pos.get(p + (x,), sink) for p in node_list] + [sink]) for x in alpha}
    return Classifier._of_table(alpha, tuple(node_list) + (("#sink",),),
                                _Table(succ, 0, tuple(names) + (default,)))


# ---------------------------------------------------------------------------
# registries and serialization


def get_spoiler(name: str, rng=None):
    if name == "random":
        if rng is None:
            raise FormatError("the random spoiler needs a seeded rng")
        return RandomSpoiler(rng)
    if name == "diverging":
        return DivergingSpoiler()
    raise FormatError(f"unknown spoiler strategy {name!r}")


def get_duplicator(name: str, rng=None):
    if name == "copy":
        return CopyDuplicator()
    if name == "random":
        if rng is None:
            raise FormatError("the random duplicator needs a seeded rng")
        return RandomDuplicator(rng)
    if name.startswith("constant"):
        text = name.split(":", 1)[1] if ":" in name else "a"
        return ConstantDuplicator(text)
    raise FormatError(f"unknown duplicator strategy {name!r}")


def _row(x, *kinds: type) -> bool:
    """Is x a JSON list of values of exactly these kinds, in this order?"""
    return (type(x) is list and len(x) == len(kinds)
            and all(type(v) is k for v, k in zip(x, kinds)))


def _list_of(x, kind: type) -> bool:
    return type(x) is list and all(type(v) is kind for v in x)


_TEXT = ("a string", lambda x: type(x) is str)
_NULL_OR_TEXT = ("null or a string", lambda x: x is None or type(x) is str)
_TEXTS = ("a list of strings", lambda x: _list_of(x, str))
# The kind of each field of a transcript document but the intervals, which
# `_intervals_from_json` checks.
_FIELD_KINDS = {
    "adjudication_error": _NULL_OR_TEXT,
    "duplicator_words": _TEXTS,
    "family_note": _TEXT,
    "forfeit": ("null or [str, int, str]", lambda x: x is None or _row(x, str, int, str)),
    "horizon": ("an int >= 1", lambda x: type(x) is int and x >= 1),
    "move_alphabet": _TEXTS,
    "notes": _TEXTS,
    "oracle": _TEXT,
    "scheme": ("null or int lists under head and cycle",
               lambda x: x is None or (type(x) is dict and _list_of(x.get("head"), int)
                                       and _list_of(x.get("cycle"), int))),
    "spoiler_words": _TEXTS,
    "verdict_notes": ("two strings", lambda x: _row(x, str, str)),
    "verdicts": ("null or two bools", lambda x: x is None or _row(x, bool, bool)),
    "winner": _NULL_OR_TEXT,
    "word": _TEXT,
    "word_alphabet": _TEXTS,
}
# The keys of a transcript document, in the sorted order its JSON text has.
_TRANSCRIPT_KEYS = tuple(sorted([*_FIELD_KINDS, "chosen", "family", "selected"]))

# One interval at its depth in the document, as `json.dumps(indent=2)` lays it out.
_INTERVAL = "[\n      %d,\n      %d\n    ]"


def _json_list(items, indent: str) -> str:
    """A JSON array of already encoded `items` as `json.dumps(indent=2)`
    lays it out when its closing bracket is at `indent`."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def transcript_to_json(t: GameTranscript, move_alphabet: Optional[Alphabet] = None) -> str:
    """The transcript as the text `json.dumps(doc, indent=2, sort_keys=True)`
    gives for its document, written directly: the standard library lays out
    an indented document in its pure-Python encoder, and most of a
    transcript is `[first, last]` pairs, which get one format each here.
    Strings and scalars still go through `json.dumps`."""
    if move_alphabet is None:
        move_alphabet = (t.spoiler_words[0].alphabet if t.spoiler_words
                         else t.word.alphabet)
    enc = json.dumps

    def scalars(xs) -> str:
        return _json_list([enc(x) for x in xs], "  ")

    def intervals(xs) -> str:
        return _json_list([_INTERVAL % (x.first, x.last) for x in xs], "  ")

    scheme = "null" if t.scheme is None else (
        '{\n    "cycle": ' + _json_list([enc(i) for i in t.scheme.cycle], "    ")
        + ',\n    "head": ' + _json_list([enc(i) for i in t.scheme.head], "    ") + "\n  }")
    values = (
        enc(t.adjudication_error),
        intervals(t.chosen),
        scalars([w.text() for w in t.duplicator_words]),
        intervals(t.family),
        enc(t.family_note),
        "null" if t.forfeit is None else scalars(t.forfeit),
        enc(t.horizon),
        scalars(move_alphabet.letters),
        scalars(t.notes),
        enc(t.oracle_name),
        scheme,
        intervals(t.selected),
        scalars([w.text() for w in t.spoiler_words]),
        scalars(t.verdict_notes),
        "null" if t.verdicts is None else scalars(t.verdicts),
        enc(t.winner),
        enc(format_word(t.word)),
        scalars(t.word.alphabet.letters),
    )
    return "{\n" + ",\n".join(
        f'  "{k}": {v}' for k, v in zip(_TRANSCRIPT_KEYS, values)) + "\n}"


def _intervals_from_json(doc: dict, key: str) -> tuple[Interval, ...]:
    """The intervals under `key`, a list whose pairs are each checked once
    here, as they enter: two ints with 0 <= first <= last."""
    if type(doc[key]) is not list:
        raise FormatError(f"not a transcript: {key} holds {doc[key]!r}, not a list of pairs")
    out = []
    for x in doc[key]:
        if type(x) is not list or len(x) != 2 or type(x[0]) is not int or type(x[1]) is not int:
            raise FormatError(f"not a transcript: {key} holds {x!r}, not a [first, last] pair")
        first, last = x
        if first < 0 or last < first:
            raise FormatError(f"bad interval [{first}, {last}]")
        out.append(Interval._of(first, last))
    return tuple(out)


def transcript_from_json(text: str) -> GameTranscript:
    """The transcript of a `transcript_to_json` text.  Raises FormatError
    ("not a transcript: ...") for text that is not JSON, a document that is
    not an object, a missing key, an interval that is not a two-int list,
    or a value of the wrong kind.  Each distinct move-word text is checked
    against the move alphabet once, and its repeats share that word."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not a transcript: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"not a transcript: a JSON object is needed, not {type(doc).__name__}")
    missing = [k for k in _TRANSCRIPT_KEYS if k not in doc]
    if missing:
        raise FormatError(f"not a transcript: missing {', '.join(missing)}")
    for key, (kind, ok) in _FIELD_KINDS.items():
        if not ok(doc[key]):
            raise FormatError(f"not a transcript: {key} holds {doc[key]!r}, not {kind}")
    walpha = alphabet(doc["word_alphabet"])
    malpha = alphabet(doc["move_alphabet"])

    @cache  # for this document only: a repeated move-word text is checked once
    def fw(s: str) -> FiniteWord:
        return finite_word(() if s == "eps" else s, malpha)

    scheme = doc["scheme"]
    return GameTranscript(
        word=parse_word(doc["word"], walpha),
        horizon=doc["horizon"],
        oracle_name=doc["oracle"],
        family=_intervals_from_json(doc, "family"),
        family_note=doc["family_note"],
        selected=_intervals_from_json(doc, "selected"),
        chosen=_intervals_from_json(doc, "chosen"),
        spoiler_words=tuple(fw(s) for s in doc["spoiler_words"]),
        duplicator_words=tuple(fw(s) for s in doc["duplicator_words"]),
        scheme=None if scheme is None else IndexScheme(
            tuple(scheme["head"]), tuple(scheme["cycle"])),
        forfeit=None if doc["forfeit"] is None else tuple(doc["forfeit"]),
        verdicts=None if doc["verdicts"] is None else tuple(doc["verdicts"]),
        verdict_notes=tuple(doc["verdict_notes"]),
        winner=doc["winner"],
        adjudication_error=doc["adjudication_error"],
        notes=tuple(doc["notes"]),
    )
