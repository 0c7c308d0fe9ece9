import json
import random

import pytest

from helpers import (ref_distinct_cycles, ref_first_other_letter, ref_scheme_search,
                     ref_transcript_json)
from omegaword import game
from omegaword.congruence import Condition2ViolationWitness, PeriodicWordSequence
from omegaword.errors import (AlphabetMismatchError, BudgetExceededError, FormatError,
                              IllegalMoveError, UnsupportedWordError)
from omegaword.game import (
    DUPLICATOR,
    SPOILER,
    ConstantDuplicator,
    CopyDuplicator,
    DivergingSpoiler,
    Forfeit,
    GameTranscript,
    IndexScheme,
    Interval,
    IntervalFamily,
    RandomDuplicator,
    RandomSpoiler,
    _distinct_cycles,
    adjudicate,
    fixed_family,
    get_duplicator,
    get_spoiler,
    play_bounded,
    transcript_from_json,
    transcript_to_json,
    validate_transcript,
)
from omegaword.oracles import (
    LassoOracle,
    UnboundedBlocksOracle,
    get_oracle,
)
from omegaword.words import alphabet, finite_word, parse_word, up_word

AB = alphabet("ab")


def affine_word():
    return parse_word("blocks(a,b;affine 1 0)")


class TestIntervals:
    def test_basics(self):
        v = Interval(3, 5)
        assert len(v) == 3
        assert Interval(0, 1) < Interval(2, 2)
        assert not Interval(0, 2) < Interval(2, 5)
        with pytest.raises(FormatError):
            Interval(4, 2)
        with pytest.raises(FormatError):
            Interval(-1, 2)

    def test_family(self):
        fam = fixed_family([Interval(0, 1), Interval(3, 3)])
        assert fam.materialize(2) == (Interval(0, 1), Interval(3, 3))
        beyond = fam.materialize(4)[3]
        assert beyond.first > 3
        assert fam.next_after(1) == Interval(3, 3)
        assert fam.next_after(100).first > 100

    def test_next_after_returns_first_member_beyond(self):
        fam = IntervalFamily(lambda i: Interval(3 * i, 3 * i + (i % 2)), "steps")
        assert fam.next_after(10) == Interval(12, 12)
        assert fam.materialized[-1] == Interval(12, 12)  # nothing read past it
        for pos in range(-1, 40):
            got = fam.next_after(pos)
            assert got == next(v for v in fam.materialized if v.first > pos)
            assert fam.materialized[-1].first <= max(pos + 3, 12)
        assert fam.next_after(3) == Interval(6, 6)
        assert fam.next_after(2) == Interval(3, 4)

    def test_family_must_increase(self):
        fam = IntervalFamily(lambda i: Interval(0, 1), "broken")
        with pytest.raises(FormatError):
            fam.materialize(2)
        fam = IntervalFamily(lambda i: Interval(5 - i, 5 - i), "decreasing")
        with pytest.raises(FormatError):
            fam.next_after(4)

    def test_next_after_keeps_the_budget(self, monkeypatch):
        monkeypatch.setattr(game, "FAMILY_BUDGET", 5)
        fam = IntervalFamily(lambda i: Interval(2 * i, 2 * i), "evens")
        assert fam.next_after(9) == Interval(10, 10)
        with pytest.raises(BudgetExceededError):
            fam.next_after(10)
        assert fam.materialized == fam.materialize(5)


def legal_transcript():
    return GameTranscript(
        word=up_word("", "a", AB), horizon=1, oracle_name="U",
        family=(Interval(0, 1), Interval(4, 5)), family_note="fixed",
        selected=(Interval(0, 1),), chosen=(Interval(2, 2),),
        spoiler_words=(finite_word("a", AB),),
        duplicator_words=(finite_word("", AB),),
        scheme=IndexScheme((), (1,)), forfeit=None,
        verdicts=None, verdict_notes=("", ""), winner=None,
        adjudication_error=None)


class TestValidate:
    def test_legal(self):
        assert validate_transcript(legal_transcript()) == []

    def test_round1_disjointness(self):
        t = legal_transcript()
        t = _with(t, family=(Interval(0, 1), Interval(1, 2)))
        assert any("round1 disjointness" in m for m in validate_transcript(t))

    def test_round2_membership_and_labels(self):
        t = _with(legal_transcript(), selected=(Interval(0, 2),))
        assert any("round2 membership" in m for m in validate_transcript(t))
        t = _with(legal_transcript(), word=up_word("", "ab", AB))
        # V = [2,2] sits on an a, but make it sit on the b at position 1
        t = _with(t, chosen=(Interval(1, 1),))
        msgs = validate_transcript(t)
        assert any("round2" in m and "label" in m for m in msgs)

    def test_round2_label_message_names_first_non_a_position(self):
        # blocks(a,b;affine 1 0) = a b aa b aaa b ...: position 4 is a b
        t = _with(legal_transcript(), word=affine_word(), chosen=(Interval(2, 5),))
        assert [m for m in validate_transcript(t) if "labels" in m] == [
            "round2 labels: V_1 covers a non-a position 4"]
        far = Interval(10 ** 5, 10 ** 5 + 2000)
        t = _with(t, chosen=(far,))
        p = ref_first_other_letter(t.word, "a", far.first, far.last)
        assert p is not None
        assert [m for m in validate_transcript(t) if "labels" in m] == [
            f"round2 labels: V_1 covers a non-a position {p}"]

    def test_round2_interleaving(self):
        t = _with(legal_transcript(), chosen=(Interval(1, 2),))  # overlaps W_1
        assert any("round2 interleaving" in m for m in validate_transcript(t))

    def test_round3_length_bound_strict(self):
        t = _with(legal_transcript(), spoiler_words=(finite_word("aa", AB),))
        assert any("round3 length bound" in m for m in validate_transcript(t))

    def test_round4_length_bound(self):
        t = _with(legal_transcript(), duplicator_words=(finite_word("a", AB),))
        assert any("round4 length bound" in m for m in validate_transcript(t))

    def test_round5(self):
        t = _with(legal_transcript(), scheme=IndexScheme((), ()))
        assert any("round5 cycle" in m for m in validate_transcript(t))
        t = _with(legal_transcript(), scheme=IndexScheme((), (2,)))
        assert any("round5 range" in m for m in validate_transcript(t))
        t = _with(legal_transcript(), scheme=IndexScheme((1,), (1,)))
        assert any("round5 ordering" in m for m in validate_transcript(t))


def _with(t, **kw):
    from dataclasses import replace
    return replace(t, **kw)


class TestPlays:
    def test_copy_beats_random_on_growing_blocks(self):
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(7)),
                         CopyDuplicator(), horizon=10)
        assert t.winner == DUPLICATOR
        assert t.forfeit is None
        assert t.verdicts[0] == t.verdicts[1]
        assert validate_transcript(t) == []

    def test_copy_many_seeds_both_oracles(self):
        for oracle in (UnboundedBlocksOracle(), get_oracle("Uprime")):
            for seed in range(20):
                t = play_bounded(affine_word(), oracle,
                                 RandomSpoiler(random.Random(seed)),
                                 CopyDuplicator(), horizon=6)
                assert t.winner == DUPLICATOR
                assert validate_transcript(t) == []

    def test_diverging_beats_copy_on_lasso(self):
        t = play_bounded(up_word("", "aab", AB), UnboundedBlocksOracle(),
                         DivergingSpoiler(), CopyDuplicator(), horizon=10)
        assert t.winner == SPOILER
        assert t.forfeit is not None and t.forfeit[0] == DUPLICATOR
        assert t.forfeit[1] == 2
        assert validate_transcript(t) == []

    def test_diverging_beats_copy_even_with_long_runs(self):
        # runs of length 5 exist, but the family sizes grow past them
        t = play_bounded(up_word("", "aaaaab", AB), UnboundedBlocksOracle(),
                         DivergingSpoiler(), CopyDuplicator(), horizon=10)
        assert t.winner == SPOILER

    def test_diverging_beats_constant_responder(self):
        t = play_bounded(up_word("", "aab", AB), get_oracle("Uprime"),
                         DivergingSpoiler(), ConstantDuplicator("a"), horizon=10)
        assert t.winner == SPOILER
        assert t.forfeit is None
        assert t.verdicts[0] != t.verdicts[1]
        assert validate_transcript(t) == []

    def test_copy_survives_on_word_in_language(self):
        # copy never forfeits when runs are unbounded, whatever the spoiler
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         DivergingSpoiler(), CopyDuplicator(), horizon=8)
        assert t.winner == DUPLICATOR
        assert t.forfeit is None

    def test_bad_interval_choice_forfeits(self):
        class BadDuplicator(CopyDuplicator):
            def round2(self, family):
                w = family.materialize(1)[0]
                # V on top of a b-position of (ab)^w
                return [(w, Interval(w.last + 2, w.last + 2))] * self.horizon

        t = play_bounded(up_word("", "ab", AB), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(1)), BadDuplicator(),
                         horizon=1)
        assert t.winner == SPOILER
        assert t.forfeit[0] == DUPLICATOR and t.forfeit[1] == 2

    def test_malformed_strategy_output_is_an_error(self):
        class Broken(CopyDuplicator):
            def round2(self, family):
                return [(family.materialize(1)[0], Interval(5, 5))]  # too few

        with pytest.raises(IllegalMoveError):
            play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(2)), Broken(), horizon=3)

    def test_foreign_letters_are_an_error(self):
        class Alien(RandomSpoiler):
            def round3(self, selected):
                z = alphabet("z")
                return [finite_word("", z) if len(w) == 1 else finite_word("z", z)
                        for w in selected]

        with pytest.raises(IllegalMoveError):
            play_bounded(affine_word(), UnboundedBlocksOracle(),
                         Alien(random.Random(3)), CopyDuplicator(), horizon=6)

    @pytest.mark.parametrize("factor, notes, cycle", [
        ("b", ("violation witness realized in the transcript",), (3,)),
        # bbb is not among the round-3 words, so no round realizes it
        ("bbb", ("witness not realizable within horizon; direct scheme search succeeded",),
         (1,)),
    ])
    def test_diverging_realizes_a_periodic_witness(self, factor, notes, cycle):
        class PeriodicFinder(UnboundedBlocksOracle):
            @staticmethod
            def finder(oracle, c):
                seq = PeriodicWordSequence((), (finite_word(factor, AB),))
                return Condition2ViolationWitness(seq, seq, seq.product(), seq.product(),
                                                  False, False)

        t = play_bounded(up_word("", "aab", AB), PeriodicFinder(),
                         DivergingSpoiler(), ConstantDuplicator("a"), horizon=6)
        assert t.notes == notes
        assert t.scheme == IndexScheme((), cycle)
        assert t.winner == SPOILER
        assert validate_transcript(t) == []

    def test_diverging_needs_violation_finder(self):
        with pytest.raises(UnsupportedWordError):
            play_bounded(affine_word(), LassoOracle(),
                         DivergingSpoiler(), CopyDuplicator(), horizon=3)


class _IllegalAt:
    """A strategy that plays like `inner` but breaks a rule at one round:
    words as long as their intervals in round 3 or 4, a decreasing index
    scheme in round 5.  It keeps the illegal move in `move`."""

    def __init__(self, inner, round_no: int):
        self.inner = inner
        self.round_no = round_no

    def __getattr__(self, name):
        if name == f"round{self.round_no}":
            return self.illegal
        return getattr(self.inner, name)

    def illegal(self, *args):
        if self.round_no == 5:
            self.move = IndexScheme((2,), (1,))
        else:
            intervals = args[0] if self.round_no == 3 else args[1]
            self.move = tuple(finite_word("a" * len(v), AB) for v in intervals)
        return self.move


class TestSharedRulebook:
    """The engine judges a move by the rules `validate_transcript` applies
    to it: an illegal move forfeits with exactly the validator's messages."""

    @pytest.mark.parametrize("round_no, player, field", [
        (3, SPOILER, "spoiler_words"),
        (4, DUPLICATOR, "duplicator_words"),
        (5, SPOILER, "scheme"),
    ])
    def test_illegal_move_forfeits_with_the_validators_reasons(self, round_no, player, field):
        spoiler, duplicator = RandomSpoiler(random.Random(5)), CopyDuplicator()
        if player == SPOILER:
            spoiler = cheat = _IllegalAt(spoiler, round_no)
        else:
            duplicator = cheat = _IllegalAt(duplicator, round_no)
        t = play_bounded(affine_word(), UnboundedBlocksOracle(), spoiler, duplicator,
                         horizon=3)
        faults = validate_transcript(_with(t, **{field: cheat.move}))
        assert faults and all(m.startswith(f"round{round_no} ") for m in faults)
        assert t.forfeit == (player, round_no, "; ".join(faults))
        assert t.winner == (DUPLICATOR if player == SPOILER else SPOILER)
        assert validate_transcript(t) == []


class TestSchemeSearch:
    def test_matches_undeduplicated_search(self):
        rng = random.Random(31)
        outcomes = set()
        for oracle in (UnboundedBlocksOracle(), get_oracle("Uprime")):
            letters = oracle.alphabet.letters
            for kind in ("copy", "near copy", "random", "constant"):
                for _ in range(8):
                    h = rng.randint(1, 30)
                    spoiler = DivergingSpoiler()
                    spoiler.begin(affine_word(), oracle, h)

                    def word():
                        k = rng.choice([0, 1, 1, 2, rng.randint(0, 4)])
                        return finite_word([rng.choice(letters) for _ in range(k)],
                                           oracle.alphabet)

                    w_words = [word() for _ in range(h)]
                    if kind == "copy":
                        v_words = list(w_words)
                    elif kind == "near copy":  # a few answers differ
                        v_words = [w if rng.random() < 0.9 else word() for w in w_words]
                    elif kind == "random":
                        v_words = [word() for _ in range(h)]
                    else:
                        v_words = [finite_word(rng.choice(letters), oracle.alphabet)] * h
                    calls = []
                    separates = spoiler._separates

                    def recorded(scheme, *words):
                        calls.append(scheme.cycle)
                        return separates(scheme, *words)

                    spoiler._separates = recorded
                    got = spoiler._scheme_search(w_words, v_words)
                    del spoiler._separates
                    assert got == ref_scheme_search(spoiler, w_words, v_words)
                    # the same oracle questions in the same order, not only
                    # the same answer
                    want = ref_distinct_cycles(w_words, v_words)
                    if got is not None:
                        want = want[:want.index(got.cycle) + 1]
                    assert calls == want
                    outcomes.add(None if got is None else len(got.cycle))
        assert outcomes == {None, 1, 2}

    def test_candidate_walk_matches_deduplicated_order(self):
        rng = random.Random(32)
        for _ in range(300):
            n = rng.randint(0, 40)
            d = rng.randint(1, 6)
            w_words = [rng.randrange(d) for _ in range(n)]
            v_words = [rng.randrange(2) for _ in range(n)]
            got = list(_distinct_cycles(list(zip(w_words, v_words))))
            assert got == ref_distinct_cycles(w_words, v_words)


class TestAdjudication:
    def test_readjudication_is_stable(self):
        oracle = UnboundedBlocksOracle()
        for seed in range(10):
            t = play_bounded(affine_word(), oracle,
                             RandomSpoiler(random.Random(seed)),
                             RandomDuplicator(random.Random(seed + 1)),
                             horizon=5)
            again = adjudicate(t, oracle)
            assert again.winner == t.winner
            assert again.verdicts == t.verdicts

    def test_json_round_trip(self):
        oracle = get_oracle("Uprime")
        t = play_bounded(affine_word(), oracle,
                         RandomSpoiler(random.Random(4)),
                         CopyDuplicator(), horizon=5)
        back = transcript_from_json(transcript_to_json(t, oracle.alphabet))
        assert back == t
        assert adjudicate(back, oracle).winner == t.winner

    def test_json_round_trip_after_forfeit(self):
        t = play_bounded(up_word("", "aab", AB), UnboundedBlocksOracle(),
                         DivergingSpoiler(), CopyDuplicator(), horizon=10)
        back = transcript_from_json(transcript_to_json(t))
        assert back == t and back.forfeit == t.forfeit

    def test_bad_json_rejected(self):
        with pytest.raises(FormatError):
            transcript_from_json("{not json")


class _QuitAt:
    """A strategy that plays like `inner` but forfeits at one round."""

    def __init__(self, inner, round_no: int):
        self.inner = inner
        self.round_no = round_no

    def __getattr__(self, name):
        if name == f"round{self.round_no}":
            return lambda *args: Forfeit(f'quits "here" \\ at round {self.round_no} \u2192 \u00e9')
        return getattr(self.inner, name)


class TestTranscriptJson:
    ORACLES = (UnboundedBlocksOracle(), get_oracle("Uprime"))
    WORDS = ("blocks(a,b;affine 1 0)", "(aab)^w", "b(aaaab)^w")

    def plays(self):
        for h in (1, 10, 50):
            for text in self.WORDS:
                for oracle in self.ORACLES:
                    for sp in ("random", "diverging"):
                        for du in ("copy", "random", "constant"):
                            rng = random.Random(h)
                            yield oracle, play_bounded(
                                parse_word(text), oracle, get_spoiler(sp, rng),
                                get_duplicator(du, rng), horizon=h)
        oracle = self.ORACLES[0]
        for round_no in range(1, 6):
            spoiler = RandomSpoiler(random.Random(round_no))
            duplicator = CopyDuplicator()
            if round_no % 2:
                spoiler = _QuitAt(spoiler, round_no)
            else:
                duplicator = _QuitAt(duplicator, round_no)
            t = play_bounded(affine_word(), oracle, spoiler, duplicator, horizon=4)
            assert t.forfeit[1] == round_no
            yield oracle, t

    def test_matches_the_stdlib_encoder(self):
        forfeits = set()
        for oracle, t in self.plays():
            assert transcript_to_json(t) == ref_transcript_json(t)
            assert (transcript_to_json(t, oracle.alphabet)
                    == ref_transcript_json(t, oracle.alphabet))
            odd = _with(t, notes=('say "hi"', "back\\slash", "\u00fcber \u2200x", ""),
                        verdict_notes=("tab\there", "\x00 \U0001f600"),
                        adjudication_error='a "quoted" \\ error')
            assert transcript_to_json(odd) == ref_transcript_json(odd)
            assert transcript_from_json(transcript_to_json(odd)) == odd
            if t.forfeit is not None:
                forfeits.add(t.forfeit[1])
        assert forfeits == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("text", [
        "{}", "[]", "null", "5", '"transcript"',
    ])
    def test_json_that_is_no_transcript_object(self, text):
        with pytest.raises(FormatError, match="not a transcript"):
            transcript_from_json(text)

    def test_missing_key(self):
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(4)), CopyDuplicator(), horizon=3)
        doc = json.loads(transcript_to_json(t))
        for key in doc:
            rest = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(FormatError, match=f"not a transcript: missing {key}"):
                transcript_from_json(json.dumps(rest))

    @pytest.mark.parametrize("bad", [
        [1, 2, 3], [1], [], [1.5, 2], [True, 1], ["0", "1"], None, "0-1", {"first": 0},
    ])
    def test_interval_that_is_no_int_pair(self, bad):
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(4)), CopyDuplicator(), horizon=3)
        for key in ("family", "selected", "chosen"):
            doc = json.loads(transcript_to_json(t))
            doc[key][-1] = bad
            with pytest.raises(FormatError, match=f"not a transcript: {key} holds"):
                transcript_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [[3, 1], [-1, 2], [-2, -1]])
    def test_interval_with_bad_bounds(self, bad):
        """Checked once as the JSON enters, with the constructor's message."""
        with pytest.raises(FormatError) as want:
            Interval(*bad)
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(4)), CopyDuplicator(), horizon=3)
        for key in ("family", "selected", "chosen"):
            doc = json.loads(transcript_to_json(t))
            doc[key][0] = bad
            with pytest.raises(FormatError) as got:
                transcript_from_json(json.dumps(doc))
            assert str(got.value) == str(want.value) == f"bad interval [{bad[0]}, {bad[1]}]"

    @pytest.mark.parametrize("key, value", [
        ("horizon", "five"), ("horizon", 0), ("horizon", 2.5), ("horizon", True),
        ("horizon", None),
        ("scheme", {"head": ["x"], "cycle": []}), ("scheme", {"head": [0], "cycle": [1.0]}),
        ("scheme", {"head": [0]}), ("scheme", [1]), ("scheme", "0|1"),
        ("forfeit", ["Spoiler", "2", "why"]), ("forfeit", ["Spoiler", 2]),
        ("forfeit", "Spoiler"), ("forfeit", ["Spoiler", True, "why"]),
        ("verdicts", ["a", "b"]), ("verdicts", [True]), ("verdicts", [1, 0]),
        ("verdicts", [True, False, True]),
        ("verdict_notes", ["x"]), ("verdict_notes", "ab"), ("verdict_notes", [1, 2]),
        ("verdict_notes", None),
        ("winner", 3), ("winner", ["Spoiler"]), ("adjudication_error", 3),
        ("notes", "abc"), ("notes", [1]), ("notes", None),
        ("oracle", None), ("oracle", 7), ("family_note", 5), ("word", 5),
        ("word_alphabet", "ab"), ("move_alphabet", "ab"), ("move_alphabet", ["a", 1]),
    ])
    def test_field_of_the_wrong_kind(self, key, value):
        """Each field's kind is checked as the document enters, so a
        transcript that loads holds only values `validate_transcript` reads."""
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(4)), CopyDuplicator(), horizon=3)
        doc = json.loads(transcript_to_json(t))
        doc[key] = value
        with pytest.raises(FormatError, match=f"^not a transcript: {key} holds "):
            transcript_from_json(json.dumps(doc))

    def test_value_of_the_wrong_kind(self):
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(4)), CopyDuplicator(), horizon=3)
        for key, value in (("scheme", [1]), ("spoiler_words", 5), ("word_alphabet", 7),
                           ("family", 3), ("word", None)):
            doc = json.loads(transcript_to_json(t))
            doc[key] = value
            with pytest.raises(FormatError, match="not a transcript"):
                transcript_from_json(json.dumps(doc))


class TestMoveWordChecks:
    """Move words are checked once per distinct text as a transcript enters,
    and a constant duplicator builds its answer once per round 4; a bad
    word raises what a check of every word raised."""

    @staticmethod
    def finite_word_calls(monkeypatch) -> list:
        calls = []
        original = game.finite_word

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(game, "finite_word", spy)
        return calls

    def test_transcript_checks_each_move_text_once(self, monkeypatch):
        t = play_bounded(parse_word("blocks(a,b;affine 1 0)"), UnboundedBlocksOracle(),
                         DivergingSpoiler(), CopyDuplicator(), horizon=50)
        js = transcript_to_json(t)
        doc = json.loads(js)
        texts = doc["spoiler_words"] + doc["duplicator_words"]
        assert len(set(texts)) < len(texts) // 4
        calls = self.finite_word_calls(monkeypatch)
        assert transcript_from_json(js) == t
        assert len(calls) == len(set(texts))

    @pytest.mark.parametrize("spoiler_words, duplicator_words, first_bad", [
        (["a", "ac", "ad", "ac"], ["ae", "a", "eps"], "ac"),
        (["a", "eps", "ba", "a"], ["ab", "ce", "a", "ce"], "ce"),
        (["b", "b"], [["a", "z"], "eps"], ["a", "z"]),
    ])
    def test_first_bad_move_word_raises_as_before(self, spoiler_words, duplicator_words,
                                                  first_bad):
        t = play_bounded(affine_word(), UnboundedBlocksOracle(),
                         RandomSpoiler(random.Random(4)), CopyDuplicator(), horizon=3)
        doc = json.loads(transcript_to_json(t))
        doc["spoiler_words"], doc["duplicator_words"] = spoiler_words, duplicator_words
        if type(first_bad) is list:  # a letter list is no move word: the kind check refuses it
            with pytest.raises(FormatError) as got:
                transcript_from_json(json.dumps(doc))
            assert str(got.value) == ("not a transcript: duplicator_words holds "
                                      "[['a', 'z'], 'eps'], not a list of strings")
            return
        with pytest.raises(AlphabetMismatchError) as want:
            finite_word(first_bad, alphabet(doc["move_alphabet"]))
        with pytest.raises(AlphabetMismatchError) as got:
            transcript_from_json(json.dumps(doc))
        assert str(got.value) == str(want.value)

    def test_constant_answer_built_once(self, monkeypatch):
        oracle = UnboundedBlocksOracle()
        d = ConstantDuplicator("ab")
        d.begin(affine_word(), oracle, 40)
        calls = self.finite_word_calls(monkeypatch)
        assert d.round4([], []) == [finite_word("ab", oracle.alphabet)] * 40
        assert len(calls) == 1

    def test_constant_answer_outside_the_alphabet(self):
        oracle = UnboundedBlocksOracle()
        d = ConstantDuplicator("ac")
        d.begin(affine_word(), oracle, 5)
        with pytest.raises(AlphabetMismatchError) as want:
            finite_word("ac", oracle.alphabet)
        with pytest.raises(AlphabetMismatchError) as got:
            d.round4([], [])
        assert str(got.value) == str(want.value)


class TestRegistries:
    def test_names(self):
        assert isinstance(get_spoiler("random", random.Random(0)), RandomSpoiler)
        assert isinstance(get_spoiler("diverging"), DivergingSpoiler)
        assert isinstance(get_duplicator("copy"), CopyDuplicator)
        assert isinstance(get_duplicator("random", random.Random(0)), RandomDuplicator)
        d = get_duplicator("constant:ab")
        assert isinstance(d, ConstantDuplicator) and d.text == "ab"
        with pytest.raises(FormatError):
            get_spoiler("clairvoyant")
        with pytest.raises(FormatError):
            get_duplicator("random")  # rng required
