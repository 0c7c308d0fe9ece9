"""The command-line layer: one ``python -m omegaword.cli`` child at a time,
covering every subcommand and action with small inputs.

Interpreter start-up and package import dominate here; this is what a shell
user waits for.  A child takes about a third of a second, and on a shared
host its time swings by a third over minutes, so the children are not a
workload of their own: a traced run of `classes` runs each action once and
reports the start-up split as per-layer metrics, while `setup_s` carries
the import cost into every workload's end-to-end numbers.

Each action has four recorded input variants and the run seed picks one per
action.  `congruence arnold --oracle Uprime` stays in the set and fails
(exit status 1) at every bound.  A child's stdout bytes and exit status are
compared with the golden record.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import gen
from query import Failed, Query, digest

NAME = "cli"
CORPUS_SEED = 3
VARIANTS = 4
IMPORT_RUNS = 3
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
FILES = ROOT / ".perfbench" / "cli"


def _files() -> dict:
    rng = random.Random(CORPUS_SEED)
    files = {f"a{i}.aut": gen.automaton_text(rng, 2 + i % 2) for i in range(VARIANTS)}
    files.update({f"c{i}.cls": gen.classifier_text(rng, 4, 3) for i in range(VARIANTS)})
    files.update({f"f{i}.mso": text + "\n"
                  for i, text in enumerate(gen.sentences(CORPUS_SEED, VARIANTS, depth=3))})
    # valuation words use both letters, as the formulas may mention either
    words = ("ab(ba)^w", "b(a)^w", "b(ab)^w", "aa(b)^w")
    files.update({f"v{i}.val": f"word {w}\n" for i, w in enumerate(words)})
    return files


def _actions() -> dict:
    """Per action, its argument lists, one per variant (file names relative
    to the input directory)."""
    words = ("ab(ba)^w", "(a)^w", "b(ab)^w", "aa(b)^w")
    v = range(VARIANTS)
    return {
        "buchi complement": [["buchi", "complement", f"a{i}.aut"] for i in v],
        "buchi empty": [["buchi", "empty", f"a{i}.aut"] for i in v],
        "buchi union": [["buchi", "union", f"a{i}.aut", f"a{(i + 1) % 4}.aut"] for i in v],
        "buchi intersect": [["buchi", "intersect", f"a{i}.aut", f"a{(i + 1) % 4}.aut"]
                            for i in v],
        "buchi member": [["buchi", "member", f"a{i}.aut", "--word", words[i]] for i in v],
        "congruence check1": [["congruence", "check1", f"c{i}.cls"] for i in v],
        "congruence repair": [["congruence", "repair", f"c{i}.cls"] for i in v],
        "congruence arnold": [["congruence", "arnold", "--oracle", o, "--word-bound", "2",
                               "--context-bound", "2"] for o in ("U", "P", "primes", "U")],
        "congruence arnold Uprime": [
            ["congruence", "arnold", "--oracle", "Uprime", "--word-bound", str(1 + i // 2),
             "--context-bound", str(1 + i % 2)] for i in v],
        "oracle member": [["oracle", "member", "--oracle", o, "--word", w]
                          for o, w in (("U", "blocks(a,b;affine 1 0)"), ("Uprime", "(a1b)^w"),
                                       ("P", "ab(a)^w"), ("primes", "blocks(a,b;constant 3)"))],
        "oracle violation": [["oracle", "violation", f"c{i}.cls", "--oracle",
                              ("U", "Uprime")[i % 2]] for i in v],
        "game play": [["game", "play", "--word", "blocks(a,b;affine 1 0)", "--oracle", "U",
                       "--spoiler", sp, "--duplicator", du, "--horizon", "10",
                       "--seed", str(i)]
                      for i, (sp, du) in enumerate((("random", "copy"), ("diverging", "copy"),
                                                    ("random", "random"),
                                                    ("diverging", "constant")))],
        "mso compile": [["mso", "compile", f"f{i}.mso"] for i in v],
        "mso sat": [["mso", "sat", f"f{i}.mso"] for i in v],
        "mso eval": [["mso", "eval", f"f{i}.mso", "--valuation", f"v{i}.val"] for i in v],
        "mso encode-game": [["mso", "encode-game", "--alphabet", a]
                            for a in ("a,1", "a,b,1", "a,b,c,1", "a,b,c,d,1")],
        "trio l1": [["trio", "l1", "--input", t] for t in ("ab#aabb", "a#aa", "aab#b", "#")],
        "trio l2": [["trio", "l2", "--input", t]
                    for t in ("a#aa#a%#aa%#", "ab#ab%#", "a#b%#", "aa#a#aa%#a%#")],
        "trio project": [["trio", "project", "--input", t]
                         for t in ("a#aa#a%#aa%#", "ab#ab%#", "#%#", "b#%#a%#")],
    }


def inputs(seed: Optional[int]) -> dict:
    """Input files and the argument lists to run; `seed=None` gives every
    variant of every action."""
    draw = None if seed is None else random.Random(seed)
    runs = []
    for action, variants in _actions().items():
        chosen = range(VARIANTS) if draw is None else [draw.randrange(VARIANTS)]
        runs += [[action, i, variants[i]] for i in chosen]
    return {"files": _files(), "runs": runs}


def parse(data: dict):
    from omegaword import parse_automaton, parse_classifier, parse_formula

    readers = {".aut": parse_automaton, ".cls": parse_classifier, ".mso": parse_formula}
    for name, text in data["files"].items():
        reader = readers.get(Path(name).suffix)
        if reader is not None:
            reader(text)
    return SimpleNamespace(files=data["files"], runs=data["runs"])


def _argv(args: list[str]) -> list[str]:
    return [str(FILES / a) if Path(a).suffix in (".aut", ".cls", ".mso", ".val") else a
            for a in args]


def _child(argv: list[str]) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "omegaword.cli", *argv],
                          capture_output=True, timeout=120, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    if proc.returncode != 0:
        raise Failed(f"exit {proc.returncode} {digest(proc.stdout)}")
    return proc.stdout


def queries(p, ctx):
    FILES.mkdir(parents=True, exist_ok=True)
    for name, text in p.files.items():
        path = FILES / name
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
    for action, variant, args in p.runs:
        argv = _argv(args)
        yield Query(f"cli.{args[0]}", lambda argv=argv: _child(argv),
                    key=f"cli:{action}:{variant}",
                    summarize=lambda out: f"exit 0 {digest(out)}",
                    counters=lambda out: {"cli.stdout_bytes": len(out)})


def layer_metrics(p, judge) -> dict:
    """Every chosen action once in a child, its output judged against the
    cli goldens (mismatches go to `judge`); an import-only child; the same
    commands run in this process with stdout captured.  Start-up is the
    child wall time beyond the in-process run."""
    from harness import Judge, measure
    from omegaword.cli import run

    own = Judge(json.loads((HERE / "golden" / "cli.json").read_text()))
    children = measure(sys.modules[__name__], p, own, passes=1, traced=True)
    judge.mismatches += own.mismatches
    imports = []
    for _ in range(IMPORT_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import omegaword.cli"], check=True,
                       cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                       timeout=120)
        imports.append(perf_counter() - t0)
    in_process = []
    for _, _, args in p.runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            run(_argv(args))
            in_process.append(perf_counter() - t0)
    run_ms = 1e3 * statistics.mean(in_process)
    child_ms = 1e3 * statistics.mean(children["seconds"][0])
    return {
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.run_ms": run_ms,
        "cli.startup_ms": child_ms - run_ms,
        "cli.stdout_bytes": children["counters"].get("cli.stdout_bytes", 0.0),
    }
