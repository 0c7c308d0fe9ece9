"""Start-up scope: ``import omegaword`` loads no submodule, a public name
loads the module that defines it (with what that module imports), and each
CLI command loads only the layers it uses.  These checks run in fresh
interpreters, because the test process has imported every module long
before they run.  So do the CLI runs that are compared with `cli.run`: in
this process every layer is loaded already, in whatever order the earlier
tests chose, so an import that fails when a command loads its layer first
(a circular one, say) would not show here."""

import ast
import importlib
from pathlib import Path

import pytest

import omegaword
from helpers import run_python
from omegaword.buchi import automaton, format_automaton
from omegaword.cli import run
from omegaword.congruence import classifier, format_classifier

BUCHI = {"errors", "words", "buchi"}
CONGRUENCE = BUCHI | {"congruence"}
ORACLES = BUCHI | {"oracles"}
MSO = BUCHI | {"mso"}

# (argv with {file} placeholders, the omegaword submodules it loads besides cli)
CLI_CASES = {
    "buchi": (["buchi", "member", "{aut}", "--word", "(ab)^w"], BUCHI),
    "congruence": (["congruence", "check1", "{clf}"], CONGRUENCE),
    "congruence-arnold": (["congruence", "arnold", "--oracle", "U",
                           "--word-bound", "2", "--context-bound", "2"],
                          ORACLES | {"congruence"}),
    "oracle": (["oracle", "member", "--oracle", "U", "--word", "ab(a)^w"], ORACLES),
    "oracle-neutral": (["oracle", "member", "--oracle", "neutral:P", "--word", "1(a1b)^w"],
                       ORACLES),
    "oracle-violation": (["oracle", "violation", "{clf}", "--oracle", "U"],
                         ORACLES | {"congruence"}),
    "game": (["game", "play", "--word", "(ab)^w", "--oracle", "U",
              "--spoiler", "diverging", "--duplicator", "copy", "--horizon", "3"],
             ORACLES | {"congruence", "game"}),
    "mso": (["mso", "compile", "{mso}"], MSO),
    "mso-eval": (["mso", "eval", "{pred}", "--valuation", "{val}", "--oracle", "U"],
                 MSO | ORACLES),
    "trio": (["trio", "l2", "--input", "a#aa#a%#aa%#"], ORACLES | {"trio"}),
    "trio-l1": (["trio", "l1", "--input", "aab#aab"], ORACLES | {"trio"}),
}


@pytest.fixture
def files(tmp_path):
    texts = {
        "aut": format_automaton(automaton(
            "ab", ["q0", "q1"], {"q0"}, {"q1"},
            {("q0", "b", "q0"), ("q0", "a", "q1"), ("q1", "a", "q1"), ("q1", "b", "q0")})),
        "clf": format_classifier(classifier(
            "ab", ["q0", "q1"], "q0",
            {("q0", "a", "q1"), ("q0", "b", "q0"), ("q1", "a", "q1"), ("q1", "b", "q1")},
            {"q0": "A", "q1": "A"})),
        "mso": "(forall1 x (exists1 y (and (< x y) (letter y a))))",
        "pred": "(pred L Xa Xb)",
        "val": "set Xa (10)^w\nset Xb (01)^w\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in texts}


def cli_argv(case: str, files: dict) -> list:
    return [arg.format(**files) for arg in CLI_CASES[case][0]]


def loaded_after(code: str) -> set:
    """The omegaword submodules that a fresh interpreter holds after `code`."""
    proc = run_python(["-c", code + "\nimport sys\nprint(' '.join(m[len('omegaword.'):] "
                                    "for m in sys.modules if m.startswith('omegaword.')))"])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert loaded_after("import omegaword") == set()


def test_parse_automaton_loads_only_its_layer():
    assert loaded_after("from omegaword import parse_automaton") == BUCHI


def test_oracles_load_no_congruence():
    assert loaded_after("import omegaword.oracles") == ORACLES
    assert loaded_after("import omegaword.trio") == ORACLES | {"trio"}


def test_parse_formula_adds_only_mso():
    assert loaded_after("from omegaword import parse_automaton, parse_formula") == MSO


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_command_loads_only_its_layers(case, files):
    code = (f"from omegaword.cli import run\nrc = run({cli_argv(case, files)!r})\n"
            "assert rc == 0, rc")
    assert loaded_after(code) == CLI_CASES[case][1] | {"cli"}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_in_fresh_interpreter_matches_run(case, files, capsys):
    argv = cli_argv(case, files)
    rc = run(argv)
    out = capsys.readouterr().out
    proc = run_python(["-m", "omegaword.cli", *argv])
    assert (proc.returncode, proc.stdout) == (rc, out), proc.stderr
    assert rc == 0


def test_every_public_name_is_its_modules_object():
    for module, names in omegaword._PUBLIC.items():
        mod = importlib.import_module(f"omegaword.{module}")
        for name in names:
            value = getattr(omegaword, name)
            assert value is getattr(mod, name)
            assert value.__module__ == mod.__name__
    assert len(set(omegaword.__all__)) == len(omegaword.__all__) == 70
    assert set(omegaword.__all__) | set(omegaword._PUBLIC) <= set(dir(omegaword))


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from omegaword import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(omegaword.__all__)
    assert all(ns[name] is getattr(omegaword, name) for name in ns)


def test_submodule_resolves_as_attribute():
    proc = run_python(["-c", "import omegaword\nprint(omegaword.game.__name__)"])
    assert (proc.returncode, proc.stdout) == (0, "omegaword.game\n"), proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        omegaword.no_such_name
    with pytest.raises(ImportError):
        exec("from omegaword import no_such_name", {})


def unused_imports(tree: ast.Module, relative_only: bool = False) -> list[str]:
    """The names bound by an import anywhere in the module (a function body
    or an `if TYPE_CHECKING:` block included) that no name in the module
    reads; with `relative_only`, only those of a `from .x import name`.
    `import a.b` binds `a`, and `__future__` imports bind nothing.
    Annotations are expressions in the tree, so a name used only in an
    annotation counts as used."""
    def counted(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or not relative_only and node.module != "__future__"
        return isinstance(node, ast.Import) and not relative_only

    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {node.lineno}: {name}"
            for node in ast.walk(tree) if counted(node)
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if alias.name != "*" and name not in used]


def unused_relative_imports(tree: ast.Module) -> list[str]:
    return unused_imports(tree, relative_only=True)


@pytest.mark.parametrize("path", sorted(Path(omegaword.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_relative_import(path):
    assert unused_relative_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_relative_import_check_sees_annotations_and_type_checking():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "from .words import Word, FiniteWord as FW, alphabet\n"
                     "if TYPE_CHECKING:\n    from .buchi import BuchiAutomaton, Table\n"
                     "def f(w: Word) -> BuchiAutomaton:\n    return alphabet(w)\n")
    assert unused_relative_imports(tree) == ["line 2: FW", "line 4: Table"]


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import_in_tests(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_counts_absolute_and_plain_imports():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, re, json as j\n"
                     "from typing import Any, Optional\n"
                     "from .words import Word\n"
                     "print(os.sep, re, Any)\n")
    assert unused_imports(tree) == ["line 2: j", "line 3: Optional", "line 4: Word"]
    assert unused_relative_imports(tree) == ["line 4: Word"]


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module defines at its top level: the functions,
    classes and assigned names that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def referenced_names(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attribute names and the
    names a `from … import` takes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_name_is_referenced_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(omegaword.__file__).parent.glob("*.py")}
    used = set().union(*map(referenced_names, trees.values()))
    defined = [f"{name}: {d}" for name, tree in sorted(trees.items())
               for d in private_definitions(tree)]
    assert len(defined) > 90
    assert [d for d in defined if d.split(": ")[1] not in used] == []


def test_private_name_check_sees_calls_attributes_and_imports():
    tree = ast.parse("import m\n_A = 1\n_B: int = 2\n_C, _D = 3, 4\n__all__ = []\n"
                     "def _f():\n    return _A + m._B\n"
                     "class _K:\n    def _method(self):\n        pass\n"
                     "from .x import _C\n_E = 5\n")
    assert private_definitions(tree) == ["_A", "_B", "_C", "_D", "_f", "_K", "_E"]
    assert [d for d in private_definitions(tree) if d not in referenced_names(tree)] == \
        ["_D", "_f", "_K", "_E"]


MONOID_PRIVATE = {"_right", "_columns", "_letters", "_index"}


def monoid_private_reads(tree: ast.Module) -> list[str]:
    """The attribute reads of `TransitionMonoid`'s private field names."""
    return [f"line {node.lineno}: {node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in MONOID_PRIVATE]


def test_only_buchi_reads_the_monoids_private_fields():
    """Other modules read the transition monoid through `rows`, `compose`,
    `left_ideal` and its other public names.  The check itself sees a read
    in any expression, and buchi's own reads show it scans real code."""
    reads = {p.stem: monoid_private_reads(ast.parse(p.read_text(encoding="utf-8")))
             for p in Path(omegaword.__file__).parent.glob("*.py")}
    assert {name: found for name, found in reads.items() if found and name != "buchi"} == {}
    assert reads["buchi"]
    tree = ast.parse("right = m._right + [[m.letter(x) for x in a]]\n"
                     "k = f(m)._index[p]\nm._columns = []\nprint(_letters, m.rows)\n")
    assert monoid_private_reads(tree) == ["line 1: _right", "line 2: _index"]
