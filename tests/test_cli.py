import ast
import json
import re
import shlex

import pytest

from omegaword.buchi import automaton, format_automaton, parse_automaton
from omegaword.cli import run
from omegaword.congruence import classifier, format_classifier, parse_classifier
from omegaword.mso import formula_size, parse_formula

from helpers import REPO

INF_A = "(forall1 x (exists1 y (and (< x y) (letter y a))))"
INF_B = "(forall1 x (exists1 y (and (< x y) (letter y b))))"


def invoke(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return rc, doc


def inf_a_automaton():
    return automaton("ab", ["q0", "q1"], {"q0"}, {"q1"},
                     {("q0", "b", "q0"), ("q0", "a", "q1"),
                      ("q1", "a", "q1"), ("q1", "b", "q0")})


def inf_b_automaton():
    return automaton("ab", ["q0", "q1"], {"q0"}, {"q1"},
                     {("q0", "a", "q0"), ("q0", "b", "q1"),
                      ("q1", "b", "q1"), ("q1", "a", "q0")})


def splitting_classifier():
    # eps and a share a class, but appending a separates them
    return classifier("ab", ["q0", "q1", "q2"], "q0",
                      {("q0", "a", "q1"), ("q0", "b", "q0"),
                       ("q1", "a", "q2"), ("q1", "b", "q1"),
                       ("q2", "a", "q2"), ("q2", "b", "q2")},
                      {"q0": "A", "q1": "A", "q2": "B"})


class TestGame:
    def test_play_example(self, capsys):
        rc, doc = invoke(capsys, [
            "game", "play", "--word", "blocks(a,b;affine 1 0)", "--oracle", "U",
            "--spoiler", "random", "--duplicator", "copy",
            "--horizon", "10", "--seed", "7"])
        assert rc == 0 and doc["winner"] == "Duplicator"
        assert doc["transcript"]["winner"] == "Duplicator"

    def test_byte_identical_given_seed(self, capsys):
        argv = ["game", "play", "--word", "blocks(a,b;affine 1 0)",
                "--oracle", "Uprime", "--spoiler", "random",
                "--duplicator", "random", "--horizon", "6", "--seed", "3"]
        rc1 = run(argv)
        first = capsys.readouterr().out
        rc2 = run(argv)
        second = capsys.readouterr().out
        assert rc1 == rc2 == 0 and first == second

    def test_transcript_artifact(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        rc, doc = invoke(capsys, [
            "game", "play", "--word", "(ab)^w", "--oracle", "U",
            "--spoiler", "diverging", "--duplicator", "copy",
            "--horizon", "5", "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["winner"] == doc["winner"]


class TestCongruence:
    def test_arnold_example(self, capsys):
        rc, doc = invoke(capsys, ["congruence", "arnold", "--oracle", "U",
                                  "--word-bound", "4", "--context-bound", "3"])
        assert rc == 0 and doc["classes"] == 2
        no_b = {cls for part in doc["partition"] for cls in part
                if "b" not in cls and cls != "eps"}
        assert no_b == {"a", "aa", "aaa", "aaaa"}
        groups = [set(part) for part in doc["partition"]]
        assert {"eps", "a", "aa", "aaa", "aaaa"} in groups

    def test_arnold_neutral_letter_oracle(self, capsys):
        rc, doc = invoke(capsys, ["congruence", "arnold", "--oracle", "Uprime",
                                  "--word-bound", "2", "--context-bound", "2"])
        assert rc == 0 and doc["classes"] == 3 and doc["non_transitive"] == 0
        assert doc["partition"][:2] == [["1", "11", "eps"], ["a", "1a", "a1", "aa"]]

    def test_check1_reports_violation(self, capsys, tmp_path):
        f = tmp_path / "c.clf"
        f.write_text(format_classifier(splitting_classifier()))
        rc, doc = invoke(capsys, ["congruence", "check1", str(f)])
        assert rc == 0 and doc["ok"] is False
        assert doc["violation"]["classes_after"] == ["A", "B"]

    def test_repair_round_trip(self, capsys, tmp_path):
        f = tmp_path / "c.clf"
        out = tmp_path / "fixed.clf"
        f.write_text(format_classifier(splitting_classifier()))
        rc, doc = invoke(capsys, ["congruence", "repair", str(f),
                                  "--output", str(out)])
        assert rc == 0 and doc["merges"] == 1 and doc["index_after"] == 1
        fixed = parse_classifier(out.read_text())
        assert fixed.index == 1
        rc, doc = invoke(capsys, ["congruence", "check1", str(out)])
        assert rc == 0 and doc["ok"] is True


class TestBuchi:
    def test_algebra_through_files(self, capsys, tmp_path):
        fa = tmp_path / "a.aut"
        fb = tmp_path / "b.aut"
        fa.write_text(format_automaton(inf_a_automaton()))
        fb.write_text(format_automaton(inf_b_automaton()))
        both = tmp_path / "both.aut"
        rc, doc = invoke(capsys, ["buchi", "intersect", str(fa), str(fb),
                                  "--output", str(both)])
        assert rc == 0
        for word, expected in [("(ab)^w", True), ("(b)^w", False)]:
            rc, doc = invoke(capsys, ["buchi", "member", str(both),
                                      "--word", word])
            assert rc == 0 and doc["accepts"] is expected
        either = tmp_path / "either.aut"
        rc, _ = invoke(capsys, ["buchi", "union", str(fa), str(fb),
                                "--output", str(either)])
        assert rc == 0
        rc, doc = invoke(capsys, ["buchi", "member", str(either),
                                  "--word", "(b)^w"])
        assert rc == 0 and doc["accepts"] is True

    def test_complement_flips_membership(self, capsys, tmp_path):
        fa = tmp_path / "a.aut"
        fa.write_text(format_automaton(inf_a_automaton()))
        comp = tmp_path / "nota.aut"
        rc, doc = invoke(capsys, ["buchi", "complement", str(fa),
                                  "--output", str(comp)])
        assert rc == 0
        assert format_automaton(parse_automaton(comp.read_text())) == doc["automaton"]
        rc, doc = invoke(capsys, ["buchi", "member", str(comp),
                                  "--word", "(b)^w"])
        assert rc == 0 and doc["accepts"] is True

    def test_empty_witness_round_trip(self, capsys, tmp_path):
        fa = tmp_path / "a.aut"
        fa.write_text(format_automaton(inf_a_automaton()))
        rc, doc = invoke(capsys, ["buchi", "empty", str(fa)])
        assert rc == 0 and doc["empty"] is False
        rc, verdict = invoke(capsys, ["buchi", "member", str(fa),
                                      "--word", doc["witness"]])
        assert rc == 0 and verdict["accepts"] is True

    def test_block_word_membership(self, capsys, tmp_path):
        fa = tmp_path / "a.aut"
        fa.write_text(format_automaton(inf_a_automaton()))
        rc, doc = invoke(capsys, ["buchi", "member", str(fa),
                                  "--word", "blocks(a,b;constant 2)"])
        assert rc == 0 and doc["accepts"] is True


class TestOracle:
    def test_member(self, capsys):
        for word, expected in [("ab(a)^w", True), ("a(ab)^w", False)]:
            rc, doc = invoke(capsys, ["oracle", "member", "--oracle", "U",
                                      "--word", word])
            assert rc == 0 and doc["member"] is expected

    def test_neutral_letters_are_skipped(self, capsys):
        rc, doc = invoke(capsys, ["oracle", "member", "--oracle", "Uprime",
                                  "--word", "b1(a1)^w"])
        assert rc == 0 and doc["member"] is True

    def test_violation_finder(self, capsys, tmp_path):
        f = tmp_path / "one.clf"
        f.write_text(format_classifier(classifier(
            "ab", ["q"], "q",
            {("q", "a", "q"), ("q", "b", "q")}, {"q": "X"})))
        rc, doc = invoke(capsys, ["oracle", "violation", str(f),
                                  "--oracle", "U"])
        assert rc == 0
        assert doc["original_member"] != doc["replaced_member"]

    def test_neutral_wrapper(self, capsys, tmp_path):
        rc, doc = invoke(capsys, ["oracle", "member", "--oracle", "neutral:U",
                                  "--word", "b1(a1)^w"])
        assert rc == 0 and doc["oracle"] == "neutral:U" and doc["member"] is True
        f = tmp_path / "one.clf"
        f.write_text(format_classifier(classifier(
            "ab", ["q"], "q",
            {("q", "a", "q"), ("q", "b", "q")}, {"q": "X"})))
        rc, doc = invoke(capsys, ["oracle", "violation", str(f),
                                  "--oracle", "neutral:P"])
        assert rc == 1 and doc["error"] == "neutral:P has no violation finder"


class TestMso:
    def test_sat_example(self, capsys, tmp_path):
        f = tmp_path / "both.mso"
        f.write_text(f"(and {INF_A} {INF_B})")
        rc, doc = invoke(capsys, ["mso", "sat", "--file", str(f)])
        assert rc == 0 and doc["satisfiable"] is True
        word = doc["model"]["word"]
        period = word[word.index("(") + 1:word.index(")")]
        assert set(period) == {"a", "b"}

    def test_unsat(self, capsys, tmp_path):
        f = tmp_path / "contradiction.mso"
        f.write_text("(and (forall1 x (letter x a)) (exists1 y (letter y b)))")
        rc, doc = invoke(capsys, ["mso", "sat", str(f)])
        assert rc == 0 and doc["satisfiable"] is False and doc["model"] is None

    def test_ill_scoped_formula_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "rebound.mso"
        f.write_text("(exists1 x (and (letter x a) (exists1 x (letter x b))))")
        for action in ("sat", "compile"):
            rc, doc = invoke(capsys, ["mso", action, str(f)])
            assert rc == 2 and doc["kind"] == "FormatError"
            assert "'x' bound twice" in doc["error"]

    def test_compile_feeds_buchi_member(self, capsys, tmp_path):
        f = tmp_path / "infa.mso"
        out = tmp_path / "infa.aut"
        f.write_text(INF_A)
        rc, doc = invoke(capsys, ["mso", "compile", str(f),
                                  "--output", str(out)])
        assert rc == 0 and doc["states"] >= 2
        for word, expected in [("(ab)^w", True), ("a(b)^w", False)]:
            rc, verdict = invoke(capsys, ["buchi", "member", str(out),
                                          "--word", word])
            assert rc == 0 and verdict["accepts"] is expected

    def test_eval_with_valuation_file(self, capsys, tmp_path):
        f = tmp_path / "x.mso"
        f.write_text("(letter x a)")
        val = tmp_path / "v.val"
        val.write_text("word (ab)^w\npos x 0\n")
        rc, doc = invoke(capsys, ["mso", "eval", str(f),
                                  "--valuation", str(val)])
        assert rc == 0 and doc["value"] is True
        val.write_text("word (ab)^w\npos x 1\n")
        rc, doc = invoke(capsys, ["mso", "eval", str(f),
                                  "--valuation", str(val)])
        assert rc == 0 and doc["value"] is False

    def test_eval_predicate_atom(self, capsys, tmp_path):
        f = tmp_path / "p.mso"
        f.write_text("(pred L Xa Xb)")
        val = tmp_path / "v.val"
        val.write_text("set Xa (10)^w\nset Xb (01)^w\n")
        rc, doc = invoke(capsys, ["mso", "eval", str(f),
                                  "--valuation", str(val),
                                  "--oracle", "singleton:(ab)^w"])
        assert rc == 0 and doc["value"] is True
        rc, doc = invoke(capsys, ["mso", "eval", str(f),
                                  "--valuation", str(val),
                                  "--oracle", "U"])
        assert rc == 0 and doc["value"] is False

    def test_eval_predicate_needs_oracle(self, capsys, tmp_path):
        f = tmp_path / "p.mso"
        f.write_text("(pred L Xa Xb)")
        val = tmp_path / "v.val"
        val.write_text("set Xa (10)^w\nset Xb (01)^w\n")
        rc, doc = invoke(capsys, ["mso", "eval", str(f),
                                  "--valuation", str(val)])
        assert rc == 2 and "oracle" in doc["error"]

    def test_encode_game(self, capsys):
        rc, doc = invoke(capsys, ["mso", "encode-game",
                                  "--alphabet", "a,b,1"])
        assert rc == 0 and doc["predicate_atoms"] == 1
        assert formula_size(parse_formula(doc["formula"])) == doc["size"]


class TestTrio:
    def test_l1(self, capsys):
        rc, doc = invoke(capsys, ["trio", "l1", "--language", "anbn",
                                  "--input", "a#a"])
        assert rc == 0 and doc["member"] is True and doc["exact"] is True
        rc, doc = invoke(capsys, ["trio", "l1", "--input", "ab#"])
        assert rc == 0 and doc["member"] is False and doc["witness"] == "eps"

    def test_l1_needs_one_separator(self, capsys):
        rc, doc = invoke(capsys, ["trio", "l1", "--input", "aa"])
        assert rc == 2 and doc["kind"] == "FormatError"

    def test_l2(self, capsys):
        for text, expected in [("a#aa#a%#aa%#", True),
                               ("a#aa#aa%#a%#", False),
                               ("a#a#a%#a%#", False)]:
            rc, doc = invoke(capsys, ["trio", "l2", "--language", "anbn",
                                      "--input", text])
            assert rc == 0 and doc["member"] is expected

    def test_project(self, capsys):
        rc, doc = invoke(capsys, ["trio", "project",
                                  "--input", "a#aa#a%#aa%#"])
        assert rc == 0 and doc["projection"] == "##%#%#"


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run([]) == 2
        capsys.readouterr()
        assert run(["buchi"]) == 2
        capsys.readouterr()
        rc, doc = invoke(capsys, ["oracle", "member", "--oracle", "nope",
                                  "--word", "(a)^w"])
        assert rc == 2 and doc["kind"] == "FormatError"
        rc, doc = invoke(capsys, ["buchi", "empty", "/does/not/exist.aut"])
        assert rc == 2

    def test_budget_exit(self, capsys, tmp_path, monkeypatch):
        fa = tmp_path / "a.aut"
        fa.write_text(format_automaton(inf_a_automaton()))
        monkeypatch.setenv("OMEGAWORD_STEP_BUDGET", "2")
        rc, doc = invoke(capsys, ["buchi", "complement", str(fa)])
        assert rc == 1 and doc["kind"] == "BudgetExceededError"
        assert "2" in doc["error"]

    def test_check1_budget_exit(self, capsys, tmp_path, monkeypatch):
        # the transformation monoid of splitting_classifier has 3 elements
        f = tmp_path / "c.clf"
        f.write_text(format_classifier(splitting_classifier()))
        monkeypatch.setenv("OMEGAWORD_STEP_BUDGET", "2")
        rc, doc = invoke(capsys, ["congruence", "check1", str(f)])
        assert rc == 1 and doc["kind"] == "BudgetExceededError"
        assert doc["error"] == "classifier transformation monoid exceeded 2 elements"

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OMEGAWORD_STEP_BUDGET", "lots")
        rc, doc = invoke(capsys, ["oracle", "member", "--oracle", "U",
                                  "--word", "(a)^w"])
        assert rc == 2

    def test_unsupported_presentation(self, capsys, tmp_path):
        fa = tmp_path / "a.aut"
        fa.write_text(format_automaton(inf_a_automaton()))
        rc, doc = invoke(capsys, ["buchi", "member", str(fa),
                                  "--word", "blocks(a,b;affine 1 0)"])
        assert rc == 1 and doc["kind"] == "UnsupportedWordError"

    @pytest.mark.parametrize("text, message", [
        ("alphabet a\nstates q\n", "classifier file needs alphabet/states/initial lines"),
        ("alphabet a\ninitial q\nstates q\nclass q c\nq a q\n",
         "line 2 must start with 'states'"),
        ("alphabet a\nstates q p\ninitial q p\nclass q c\nclass p c\nq a q\np a p\n",
         "classifiers have exactly one initial state"),
        ("alphabet a\nstates q\ninitial q\nclass q\nq a q\n", "bad class line 'class q'"),
        ("alphabet a\nstates q\ninitial q\nclass q c\nq a\n", "bad line 'q a'"),
    ])
    def test_classifier_parse_errors(self, capsys, tmp_path, text, message):
        f = tmp_path / "c.clf"
        f.write_text(text)
        rc, doc = invoke(capsys, ["congruence", "check1", str(f)])
        assert rc == 2 and doc["kind"] == "FormatError" and doc["error"] == message

    @pytest.mark.parametrize("text, message", [
        ("alphabet a\nstates q q\ninitial q\naccepting q\nq a q\n", "duplicate state"),
        ("alphabet a\nstates q\ninitial p\naccepting q\nq a q\n", "undeclared state 'p'"),
    ])
    def test_automaton_parse_errors(self, capsys, tmp_path, text, message):
        f = tmp_path / "a.aut"
        f.write_text(text)
        rc, doc = invoke(capsys, ["buchi", "empty", str(f)])
        assert rc == 2 and doc["kind"] == "FormatError" and doc["error"] == message


# Malformed invocations of every command and the exit code that the CLI
# documents for each: 1 for an unsupported word presentation, 2 for a usage
# error (bad flags, malformed input).  Paths are written as {aut}, {bad_aut},
# {clf}, {bad_clf}, {phi}, {letter_x} and {neg_pos}.
MALFORMED = [
    (["buchi", "empty", "{bad_aut}"], 2),
    (["buchi", "member", "{aut}", "--word", "ab("], 2),
    (["buchi", "member", "{aut}", "--word", "blocks(a,b;affine 1 0)"], 1),
    (["buchi", "union", "{aut}"], 2),
    (["congruence", "check1", "{bad_clf}"], 2),
    (["congruence", "arnold", "--oracle", "U", "--word-bound", "0", "--context-bound", "2"], 2),
    (["congruence", "arnold", "--oracle", "nope", "--word-bound", "2", "--context-bound", "2"], 2),
    (["oracle", "member", "--oracle", "U", "--word", "ab"], 1),
    (["oracle", "member", "--oracle", "U", "--word", "(c)^w"], 2),
    (["oracle", "violation", "{clf}", "--oracle", "P"], 1),
    (["game", "play", "--word", "(a)^w", "--oracle", "U", "--spoiler", "nope",
      "--duplicator", "copy", "--horizon", "3"], 2),
    (["game", "play", "--word", "(a)^w", "--oracle", "U", "--spoiler", "random",
      "--duplicator", "copy", "--horizon", "0"], 2),
    (["mso", "sat", "{phi}", "--alphabet", "a,a"], 2),
    (["mso", "sat", "{phi}", "--alphabet", "a, b"], 2),
    (["mso", "sat", "{phi}", "--alphabet", "a,,b"], 2),
    (["mso", "compile", "{phi}", "--alphabet", "a,a"], 2),
    (["mso", "encode-game", "--alphabet", "a,a,1"], 2),
    (["mso", "encode-game", "--alphabet", "a,,1"], 2),
    (["mso", "eval", "{letter_x}", "--valuation", "{neg_pos}"], 2),
    (["trio", "l1", "--input", "a"], 2),
    (["trio", "l2", "--input", "a#c%#"], 2),
    (["trio", "project", "--input", "a#%#b"], 2),
    (["trio", "l2", "--input", "a#a%#", "--bound", "0"], 2),
]


def test_malformed_invocations_exit_with_their_codes(capsys, tmp_path):
    files = {
        "aut": format_automaton(inf_a_automaton()),
        "bad_aut": "alphabet a\nstates q\n",
        "clf": format_classifier(splitting_classifier()),
        "bad_clf": "alphabet a\nstates q\n",
        "phi": INF_A,
        "letter_x": "(letter x a)",
        "neg_pos": "word (ab)^w\npos x -1\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    wrong = []
    for argv, code in MALFORMED:
        try:
            rc = run([a.format(**paths) for a in argv])
        except Exception as exc:  # what would reach the user as a traceback
            rc = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if rc != code or "Traceback" in err or not err.strip():
            wrong.append((" ".join(argv), code, rc))
    assert wrong == []


class TestReadme:
    """README's library quick start and command-line examples print what
    README says they print."""

    README = (REPO / "README.md").read_text()

    def test_library_quick_start(self):
        """Run the quick-start block; each statement commented with a
        verdict (``# True``, ``# False, ...``) must give that verdict, as
        its value or as the first name it binds."""
        section = self.README.split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        lines = code.splitlines()
        namespace: dict = {}
        checked = 0
        for stmt in ast.parse(code).body:
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            verdict = re.match(r"(True|False)\b", comment)
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
                if isinstance(stmt, ast.Assign):
                    first = stmt.targets[0]
                    first = first.elts[0] if isinstance(first, ast.Tuple) else first
                    value = namespace.get(getattr(first, "id", None))
            if verdict:
                assert value is (verdict.group(1) == "True"), ast.unparse(stmt)
                checked += 1
        assert checked == 4

    def test_command_line_examples(self, capsys):
        examples = re.findall(r"```\n\$ omegaword ([^\n]*)\n(\{.*?\n\})\n```", self.README, re.S)
        assert [cmd.split()[:2] for cmd, _ in examples] == [["oracle", "member"], ["trio", "l1"]]
        for cmd, printed in examples:
            assert run(shlex.split(cmd)) == 0
            assert capsys.readouterr().out == printed + "\n"
