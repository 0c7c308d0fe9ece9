import random
import re
from itertools import product

import pytest

import omegaword.trio as trio
from omegaword.errors import AlphabetMismatchError, FormatError
from omegaword.trio import (
    AnBnOracle,
    CongruenceVerdict,
    ExplicitOracle,
    SEPARATOR_ALPHABET,
    SeparatedWord,
    apply_transducer,
    erasing_transducer,
    format_separated,
    get_finite_oracle,
    identity_transducer,
    loop_representation,
    member_L1,
    member_L2,
    parse_separated,
    project_to_separators,
    right_congruence_finite,
    separated_word,
    transducer,
)
from omegaword.words import FiniteWord, alphabet, parse_word, up_word

from helpers import all_separated_words, random_up, ref_parse_separated

AB = alphabet("ab")


def fw(text: str, alpha=AB) -> FiniteWord:
    return FiniteWord(alpha, tuple(text))


def texts(words) -> set:
    return {"".join(w.letters) for w in words}


class TestTransducer:
    def test_identity(self):
        out, cut = apply_transducer(identity_transducer("ab"), fw("ab"))
        assert texts(out) == {"ab"} and not cut

    def test_erasing(self):
        out, cut = apply_transducer(erasing_transducer("ab"), fw("ab"))
        assert texts(out) == {""} and not cut

    def test_duplicator(self):
        # copies its input once, with a separator in between
        t = transducer("ab", "ab#", "012", "0", "2",
                       [("0", "a", "a", "1"), ("1", "b", "b#ab", "2")])
        out, cut = apply_transducer(t, fw("ab"))
        assert texts(out) == {"ab#ab"} and not cut

    def test_nondeterministic_image(self):
        t = transducer("a", "xy", "q", "q", "q",
                       [("q", "a", "x", "q"), ("q", "a", "y", "q")])
        out, _ = apply_transducer(t, fw("aa", alphabet("a")))
        assert texts(out) == {"xx", "xy", "yx", "yy"}

    def test_empty_input_loop_truncates(self):
        t = transducer("a", "a", "q", "q", "q", [("q", "", "a", "q")])
        out, cut = apply_transducer(t, fw("", alphabet("a")), output_cap=3)
        assert texts(out) == {"", "a", "aa", "aaa"}
        assert cut

    def test_no_accepting_path(self):
        t = transducer("ab", "ab", "01", "0", "1", [("0", "a", "a", "0")])
        out, cut = apply_transducer(t, fw("aa"))
        assert out == frozenset() and not cut

    def test_rejects_foreign_letters(self):
        w = FiniteWord(alphabet("abc"), ("c",))
        with pytest.raises(AlphabetMismatchError):
            apply_transducer(identity_transducer("ab"), w)

    def test_edge_letters_validated(self):
        with pytest.raises(FormatError):
            transducer("ab", "ab", "q", "q", "q", [("q", "c", "a", "q")])


class TestRightCongruence:
    def test_shorter_a_run_is_distinguished(self):
        v = right_congruence_finite(AnBnOracle(), "a", "aa")
        assert not v and v.exact
        assert v.witness.letters == ("b",)

    def test_a_powers_pairwise_distinct(self):
        o = AnBnOracle()
        for i in range(1, 6):
            for j in range(i + 1, 6):
                v = right_congruence_finite(o, "a" * i, "a" * j, bound=6)
                assert not v and v.exact and v.witness is not None

    def test_equal_deficits_agree(self):
        v = right_congruence_finite(AnBnOracle(), "aaabb", "aab")
        assert v and v.exact and v.witness is None

    def test_dead_words_agree(self):
        assert right_congruence_finite(AnBnOracle(), "ba", "bb")

    def test_bounded_search_matches_exact_classes(self):
        o = AnBnOracle()
        rng = random.Random(11)
        for _ in range(300):
            u = fw("".join(rng.choice("ab") for _ in range(rng.randrange(7))))
            v = fw("".join(rng.choice("ab") for _ in range(rng.randrange(7))))
            verdict = right_congruence_finite(o, u, v)
            assert verdict.equivalent == (o.class_of(u) == o.class_of(v))
            if verdict.witness is not None:
                extended = [FiniteWord(AB, w.letters + verdict.witness.letters)
                            for w in (u, v)]
                assert o.member(extended[0]) != o.member(extended[1])

    def test_oracle_decides_when_the_suffix_bound_is_too_short(self):
        # a^5 and a^6 differ only past three letters: the oracle's own answer
        v = right_congruence_finite(AnBnOracle(), "aaaaa", "aaaaaa", bound=3)
        assert v == CongruenceVerdict(False, True, None)

    def test_inexact_oracle_reports_its_limits(self):
        just_aa = ExplicitOracle(["aa"], "ab", name="just-aa")
        v = right_congruence_finite(just_aa, "aa", "aaaa", bound=3)
        assert not v and v.exact and v.witness.letters == ()
        v = right_congruence_finite(just_aa, "ab", "ba", bound=3)
        assert v.equivalent and not v.exact  # no witness below the bound

    def test_known_congruent_pair_asks_no_member(self):
        class Counted(AnBnOracle):
            def __init__(self):
                self.calls = 0

            def member(self, w):
                self.calls += 1
                return super().member(w)

        o = Counted()
        assert member_L1(o, "aab#aaabb") == CongruenceVerdict(True, True, None)
        assert o.calls == 0
        v = member_L1(o, "a#aa")  # a known distinct pair still gets its witness
        assert not v and v.exact and v.witness.letters == ("b",)
        assert o.calls > 0

    def test_registry(self):
        assert get_finite_oracle("anbn").name == "anbn"
        with pytest.raises(FormatError):
            get_finite_oracle("nope")


class TestPairingLanguage:
    def test_equivalent_pair(self):
        v = member_L1(AnBnOracle(), "a#a")
        assert v and v.exact

    def test_empty_second_component(self):
        # ab is in the language and the empty word is not, so they differ
        # already on the empty suffix
        v = member_L1(AnBnOracle(), "ab#")
        assert not v and v.witness.letters == ()

    def test_inequivalent_pair(self):
        assert not member_L1(AnBnOracle(), "a#aa")

    def test_separator_count_is_checked(self):
        for bad in ("aa", "a#a#a"):
            with pytest.raises(FormatError):
                member_L1(AnBnOracle(), bad)

    def test_symmetric_for_exact_oracles(self):
        o = AnBnOracle()
        rng = random.Random(5)
        for _ in range(100):
            u = "".join(rng.choice("ab") for _ in range(rng.randrange(5)))
            v = "".join(rng.choice("ab") for _ in range(rng.randrange(5)))
            assert member_L1(o, f"{u}#{v}").equivalent == \
                member_L1(o, f"{v}#{u}").equivalent


class TestSeparatedWords:
    def test_parse_structure(self):
        s = parse_separated("a#aa#a%#aa%#", AB)
        assert [w.letters for w in s.left] == [("a",), ("a", "a")]
        assert [w.letters for w in s.right] == [("a",), ("a", "a")]

    def test_round_trips(self):
        for text in ("", "#%#", "a#aa#a%#aa%#", "#a#%#a%#", "%#%#", "ab#"):
            assert format_separated(parse_separated(text, AB)) == text

    def test_empty_segments_are_fine(self):
        s = parse_separated("#%#", AB)
        assert s.left == (fw(""),) and s.right == (fw(""),)

    def test_plain_separator_after_marked(self):
        with pytest.raises(FormatError):
            parse_separated("a%#a#", AB)

    def test_unterminated_segment(self):
        with pytest.raises(FormatError):
            parse_separated("a#a", AB)

    def test_foreign_letter(self):
        with pytest.raises(FormatError):
            parse_separated("c#", AB)

    def test_lone_percent(self):
        with pytest.raises(FormatError):
            parse_separated("a%b#", AB)

    def test_constructor_checks_segment_alphabets(self):
        with pytest.raises(AlphabetMismatchError):
            SeparatedWord(AB, (FiniteWord(alphabet("abc"), ("a",)),), ())

    def test_convenience_constructor(self):
        s = separated_word(["a", "aa"], ["a", "aa"], "ab")
        assert format_separated(s) == "a#aa#a%#aa%#"

    def test_convenience_constructor_rebases_words_of_other_alphabets(self):
        """A segment whose letters lie in `letters` is re-read over them, as
        the coercion promises, whatever alphabet it was built over."""
        s = separated_word([fw("a", alphabet("a"))], [fw("ba", alphabet("abc")), "b"], "ab")
        assert s == SeparatedWord(AB, (fw("a"),), (fw("ba"), fw("b")))
        assert all(seg.alphabet == AB for seg in s.left + s.right)
        assert member_L2(AnBnOracle(), s) == member_L2(
            AnBnOracle(), SeparatedWord(alphabet("abc"), (fw("a", alphabet("abc")),),
                                        (fw("ba", alphabet("abc")), fw("b", alphabet("abc")))))
        with pytest.raises(AlphabetMismatchError, match="letter 'c' is not in alphabet"):
            separated_word([fw("c", alphabet("c"))], [], "ab")


def segments(s: SeparatedWord) -> tuple:
    return s.alphabet, [w.letters for w in s.left], [w.letters for w in s.right]


def outcome(parse, text: str, letters):
    """The segments `parse` finds in `text`, or the type and message of
    what it raises."""
    try:
        return segments(parse(text, letters))
    except Exception as e:  # compared below, type and message
        return type(e), str(e)


class TestParseSeparatedReference:
    """The one-pattern parser against the scanner it replaced
    (`ref_parse_separated`), over `ab` and over an alphabet holding `%`,
    where ``%#`` must still read as the marked separator."""

    MALFORMED = ("c#", "a#c%#", "ac#", "c%#a#",                 # foreign letter
                 "a%#a#", "%##", "#%#a#b%#",                    # plain after marked
                 "a#a", "a", "a%#b", "#%#%",                    # trailing letters
                 "%", "a%b#", "%%#", "a#%", "%a%#")             # lone %

    @pytest.mark.parametrize("letters", ["ab", "a%b"])
    def test_same_segments_on_separated_words(self, letters):
        """A segment that ends in `%` before a plain separator spells ``%#``,
        so over `a%b` some texts read differently or not at all; both
        parsers must agree on those too."""
        parsed = 0
        for s in all_separated_words(letters, 7):
            text = format_separated(s)
            got = outcome(parse_separated, text, letters)
            assert got == outcome(ref_parse_separated, text, letters), text
            parsed += got[0] != FormatError
        assert parsed > 4000

    @pytest.mark.parametrize("letters", ["ab", "a%b"])
    def test_same_error_on_malformed_texts(self, letters):
        raised = 0
        for text in self.MALFORMED:
            want = outcome(ref_parse_separated, text, letters)
            assert outcome(parse_separated, text, letters) == want, text
            raised += want[0] is FormatError
        # over a%b, "a%b#", "%%#" and "%a%#" are separated words
        assert raised == len(self.MALFORMED) - (3 if "%" in letters else 0)

    @pytest.mark.parametrize("letters", ["ab", "a%b"])
    def test_same_outcome_on_every_short_text(self, letters):
        for n in range(7):
            for chars in product("ab%#c", repeat=n):
                text = "".join(chars)
                assert outcome(parse_separated, text, letters) == \
                    outcome(ref_parse_separated, text, letters), text

    def test_member_L2_reads_text_as_the_parser_does(self):
        o = AnBnOracle()
        for s in all_separated_words("ab", 7):
            text = format_separated(s)
            assert member_L2(o, text) == member_L2(o, parse_separated(text, o.alphabet)), text

    def test_member_L2_reads_text_as_the_parser_does_with_percent_letters(self):
        o = ExplicitOracle(["a%", "b", "%%b"], "a%b", name="small")
        for s in all_separated_words("a%b", 7):
            text = format_separated(s)
            try:
                parsed = parse_separated(text, o.alphabet)
            except FormatError as e:
                with pytest.raises(FormatError, match=re.escape(str(e))):
                    member_L2(o, text, bound=1)
                continue
            assert member_L2(o, text, bound=1) == member_L2(o, parsed, bound=1), text

    def test_member_L2_rejects_malformed_text(self):
        for text in ("c#", "a%b#"):
            with pytest.raises(FormatError):
                member_L2(AnBnOracle(), text)


class TestLettersAtEntry:
    """Finite and separated words over another alphabet are checked once,
    where they enter `right_congruence_finite` and `member_L2`, whether the
    oracle knows its classes or searches for a suffix."""

    C = alphabet("c")
    ABC = alphabet("abc")
    FOREIGN = "letter 'c' is not in alphabet ('a', 'b')"

    @pytest.mark.parametrize("oracle", [AnBnOracle(), ExplicitOracle(["ab"], "ab")])
    def test_foreign_letters_are_refused_and_others_embed(self, oracle):
        with pytest.raises(AlphabetMismatchError, match=re.escape(self.FOREIGN)):
            right_congruence_finite(oracle, fw("c", self.C), fw("c", self.C))
        with pytest.raises(AlphabetMismatchError, match=re.escape(self.FOREIGN)):
            right_congruence_finite(oracle, "c", "c")
        with pytest.raises(AlphabetMismatchError, match=re.escape(self.FOREIGN)):
            member_L1(oracle, "c#c")
        with pytest.raises(AlphabetMismatchError, match=re.escape(self.FOREIGN)):
            right_congruence_finite(oracle, fw("ab", self.ABC), fw("abc", self.ABC))
        for left, right in ((["c"], ["c"]), (["a"], ["c"]), (["c"], [])):
            with pytest.raises(AlphabetMismatchError, match=re.escape(self.FOREIGN)):
                member_L2(oracle, separated_word(left, right, "abc"))
        # words over a larger alphabet whose letters are the language's embed
        assert (right_congruence_finite(oracle, fw("ab", self.ABC), fw("aabb", self.ABC))
                == right_congruence_finite(oracle, "ab", "aabb"))
        for text in ("a#aa#a%#aa%#", "a#a#a%#a%#", "b#ab#b%#ab%#"):
            assert (member_L2(oracle, parse_separated(text, self.ABC))
                    == member_L2(oracle, text))

    def test_each_segment_is_checked_once(self, monkeypatch):
        calls = []
        original = trio._check_letters

        def spy(letters, alpha):
            calls.append(letters)
            return original(letters, alpha)

        monkeypatch.setattr(trio, "_check_letters", spy)
        o = AnBnOracle()
        text = "a#aa#aaa#a%#aa%#aaa%#"
        member_L2(o, parse_separated(text, self.ABC))
        segments = parse_separated(text, AB)
        assert sorted(calls) == sorted(s.letters for s in segments.left + segments.right)
        calls.clear()
        member_L2(ExplicitOracle(["ab"], "ab"), parse_separated(text, AB))
        right_congruence_finite(ExplicitOracle(["ab"], "ab"), fw("ab"), fw("ba"))
        assert calls == []


class TestTwoSeparatorLanguage:
    def test_matching_groups(self):
        assert member_L2(AnBnOracle(), "a#aa#a%#aa%#")

    def test_mismatched_endpoints(self):
        assert not member_L2(AnBnOracle(), "a#aa#aa%#a%#")

    def test_repeated_class_within_a_group(self):
        assert not member_L2(AnBnOracle(), "a#a#a%#a%#")

    def test_empty_groups(self):
        o = AnBnOracle()
        for text in ("", "a#", "a%#", "#", "%#"):
            assert not member_L2(o, text)

    def test_accepts_parsed_objects(self):
        o = AnBnOracle()
        s = parse_separated("a#aa#a%#aa%#", o.alphabet)
        assert member_L2(o, s) == member_L2(o, "a#aa#a%#aa%#")

    def test_members_use_both_separators_equally_often(self):
        # exhaustive at small size; the acceptance run pushes this further
        o = AnBnOracle()
        skeletons = set()
        members = 0
        for s in all_separated_words("ab", 10):
            if not member_L2(o, s):
                continue
            members += 1
            n, m = len(s.left), len(s.right)
            assert n == m
            for wi, vi in zip(s.left, s.right):
                assert o.class_of(wi) == o.class_of(vi)
            skeletons.add("".join(project_to_separators(s).letters))
        assert members > 0
        assert {"#%#", "##%#%#"} <= skeletons


class TestProjection:
    def test_keeps_the_separator_skeleton(self):
        s = parse_separated("a#aa#a%#aa%#", AB)
        assert project_to_separators(s).letters == ("#", "#", "%#", "%#")

    def test_empty(self):
        s = parse_separated("", AB)
        assert project_to_separators(s).letters == ()

    def test_is_a_homomorphic_erasure(self):
        # erasing base letters commutes with splicing two separated words
        a = parse_separated("ab#a%#", AB)
        b = parse_separated("b#%#ba%#", AB)
        glued = SeparatedWord(AB, a.left + b.left, a.right + b.right)
        assert project_to_separators(glued).letters == \
            (project_to_separators(a).letters[:len(a.left)]
             + project_to_separators(b).letters[:len(b.left)]
             + project_to_separators(a).letters[len(a.left):]
             + project_to_separators(b).letters[len(b.left):])
        assert project_to_separators(glued).alphabet == SEPARATOR_ALPHABET


class TestLoopRepresentation:
    def test_examples_over_a_two_word_language(self):
        loops = loop_representation(ExplicitOracle(["aa"], "ab", name="just-aa"))
        assert loops.member(up_word("b", "aa", AB))
        assert not loops.member(up_word("", "ab", AB))
        assert loops.member(up_word("", "a", AB))  # (a)^w = (aa)^w

    def test_rotations_count(self):
        loops = loop_representation(ExplicitOracle(["ab"], "ab", name="just-ab"))
        assert loops.member(up_word("", "ba", AB))  # b(ab)^w presented oddly

    def test_power_bound_is_honest(self):
        o = ExplicitOracle(["aaaa"], "ab", name="a4")
        assert loop_representation(o).member(up_word("", "a", AB))
        assert not loop_representation(o, power_bound=3).member(up_word("", "a", AB))

    def test_invariant_under_re_presentation(self):
        loops = loop_representation(AnBnOracle())
        rng = random.Random(23)
        for _ in range(100):
            w = random_up(rng)
            stretched = up_word(w.prefix + w.period, w.period * 2, w.alphabet)
            assert loops.member(w) == loops.member(stretched)

    def test_block_words(self):
        loops = loop_representation(AnBnOracle())
        assert not loops.member(parse_word("blocks(a,b;affine 1 0)"))
        assert loops.member(parse_word("blocks(a,b;constant 1)"))  # (ab)^w

    def test_name_records_the_base_language(self):
        assert loop_representation(AnBnOracle()).name == "loop:anbn"
