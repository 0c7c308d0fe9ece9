"""Command-line front end.

One invocation runs one operation and prints exactly one JSON document on
standard output, with keys sorted, so identical invocations with identical
seeds are byte-identical.  Human-readable summaries go to standard error.

Exit status: 0 when the operation ran to completion (whatever the verdict),
1 when a step budget or an unsupported word presentation stopped it — the
message names the culprit — and 2 on usage errors (bad flags, malformed
input files).

Setting ``OMEGAWORD_STEP_BUDGET`` overrides the default step budget of every
operation that has one (automaton complementation, formula compilation,
classifier checking).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    BudgetExceededError,
    DegenerateProductError,
    FormatError,
    OmegawordError,
    UnsupportedFormulaError,
    UnsupportedHomomorphismError,
    UnsupportedWordError,
)
from .words import (
    alphabet,
    format_word,
    parse_word,
    to_up_word,
    with_alphabet,
)

_BUDGET_ERRORS = (
    BudgetExceededError,
    UnsupportedWordError,
    UnsupportedFormulaError,
    DegenerateProductError,
    UnsupportedHomomorphismError,
)


def _budget(budget: Optional[int], name: str) -> dict:
    """`{name: budget}` when ``OMEGAWORD_STEP_BUDGET`` set `budget`;
    otherwise nothing, so the callee keeps its own default."""
    return {} if budget is None else {name: budget}


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _alpha_flag(text: str):
    try:
        return alphabet(text.split(","))
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _names_flag(text: str) -> tuple[str, ...]:
    return tuple(p for p in text.split(",") if p)


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, the step budget or None), returns
# (json document body, optional artifact) and imports the layers it uses,
# so an invocation loads only those


def _cmd_buchi(args, budget: Optional[int]):
    from .buchi import (accepts_up, complement, format_automaton, intersect, is_empty,
                        parse_automaton, union, with_canonical_names)

    a = parse_automaton(_read(args.file))
    if args.action in ("union", "intersect"):
        b = parse_automaton(_read(args.file2))
        op = union if args.action == "union" else intersect
        out = with_canonical_names(op(a, b))
        text = format_automaton(out)
        _note(f"{args.action}: {len(out.states)} states")
        return {"action": args.action, "states": len(out.states),
                "automaton": text}, text
    if args.action == "complement":
        out = with_canonical_names(complement(a, **_budget(budget, "state_budget")))
        text = format_automaton(out)
        _note(f"complement: {len(out.states)} states")
        return {"action": "complement", "states": len(out.states),
                "automaton": text}, text
    if args.action == "empty":
        empty, witness = is_empty(a)
        w = None if witness is None else format_word(witness)
        _note("language is empty" if empty else f"nonempty; witness {w}")
        return {"action": "empty", "empty": empty, "witness": w}, None
    w = with_alphabet(to_up_word(parse_word(args.word)), a.alphabet)
    verdict = accepts_up(a, w)
    _note(f"{format_word(w)}: {'accepted' if verdict else 'rejected'}")
    return {"action": "member", "word": format_word(w), "accepts": verdict}, None


def _class_texts(partition) -> list[list[str]]:
    classes = [sorted(("".join(w.letters) or "eps") for w in cls)
               for cls in partition.classes]
    for cls in classes:
        cls.sort(key=lambda t: (len(t), t))
    classes.sort(key=lambda cls: (len(cls[0]), cls[0]))
    return classes


def _cmd_congruence(args, budget: Optional[int]):
    from .congruence import (arnold_classes_bounded, check_condition1, format_classifier,
                             lemma_repair, parse_classifier)

    limits = _budget(budget, "budget")
    if args.action == "check1":
        c = parse_classifier(_read(args.file))
        v = check_condition1(c, **limits)
        if v is None:
            _note("condition (1) holds")
            return {"action": "check1", "ok": True, "violation": None}, None
        x, y = v.contexts()
        _note(f"condition (1) fails: {v.side} context splits a class")
        return {"action": "check1", "ok": False, "violation": {
            "side": v.side,
            "u": format_word(v.u), "u_prime": format_word(v.u_prime),
            "context": format_word(v.w),
            "class_before": v.class_before,
            "classes_after": list(v.classes_after),
            "separated_words": ["".join(x) or "eps", "".join(y) or "eps"],
        }}, None
    if args.action == "repair":
        c = parse_classifier(_read(args.file))
        before = c.index
        fixed = lemma_repair(c, **limits)
        text = format_classifier(fixed)
        _note(f"repaired in {before - fixed.index} merges "
              f"({before} -> {fixed.index} classes)")
        return {"action": "repair", "index_before": before,
                "index_after": fixed.index, "merges": before - fixed.index,
                "classifier": text}, text
    from .oracles import get_oracle

    oracle = get_oracle(args.oracle)
    part = arnold_classes_bounded(oracle, word_bound=args.word_bound,
                                  context_bound=args.context_bound)
    classes = _class_texts(part)
    _note(f"{len(classes)} classes among words up to length {args.word_bound}")
    return {"action": "arnold", "oracle": oracle.name,
            "word_bound": args.word_bound, "context_bound": args.context_bound,
            "classes": len(classes), "partition": classes,
            "non_transitive": len(part.non_transitive)}, None


def _cmd_oracle(args, budget: Optional[int]):
    from .oracles import get_oracle

    oracle = get_oracle(args.oracle)
    if args.action == "member":
        w = parse_word(args.word)
        verdict = oracle.member(w)
        _note(f"{format_word(w)} in {oracle.name}: {verdict}")
        return {"action": "member", "oracle": oracle.name,
                "word": format_word(w), "member": verdict}, None
    from .congruence import parse_classifier

    c = parse_classifier(_read(args.file))
    witness = oracle.find_condition2_violation(c)
    rp = witness.replaced_product
    _note(f"violation: products {format_word(witness.original_product)} / "
          f"{'-' if rp is None else format_word(rp)} get different verdicts")
    return {"action": "violation", "oracle": oracle.name,
            "original_product": format_word(witness.original_product),
            "replaced_product": None if rp is None else format_word(rp),
            "original_member": witness.original_member,
            "replaced_member": witness.replaced_member,
            "note": witness.note}, None


def _cmd_game(args, budget: Optional[int]):
    from .game import get_duplicator, get_spoiler, play_bounded, transcript_to_json
    from .oracles import get_oracle

    rng = random.Random(args.seed)
    word = parse_word(args.word)
    oracle = get_oracle(args.oracle)
    spoiler = get_spoiler(args.spoiler, rng)
    duplicator = get_duplicator(args.duplicator, rng)
    t = play_bounded(word, oracle, spoiler, duplicator, horizon=args.horizon)
    text = transcript_to_json(t)
    if t.forfeit is not None:
        _note(f"forfeit by {t.forfeit[0]} in round {t.forfeit[1]}: {t.forfeit[2]}")
    _note(f"winner: {t.winner}")
    return {"action": "play", "word": format_word(word), "oracle": oracle.name,
            "spoiler": args.spoiler, "duplicator": args.duplicator,
            "horizon": args.horizon, "seed": args.seed, "winner": t.winner,
            "transcript": json.loads(text)}, text


def _parse_valuation(text: str) -> UPValuation:
    """Line format: ``word <word>``, ``pos <name> <int>``, ``set <name> <word
    over 01>``; blank lines are skipped."""
    from .mso import UPValuation

    word = None
    positions: dict = {}
    sets: dict = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        try:
            if parts[0] == "word" and len(parts) == 2:
                word = to_up_word(parse_word(parts[1]))
            elif parts[0] == "pos" and len(parts) == 3:
                positions[parts[1]] = int(parts[2])
            elif parts[0] == "set" and len(parts) == 3:
                sets[parts[1]] = with_alphabet(to_up_word(parse_word(parts[2])),
                                               alphabet("01"))
            else:
                raise FormatError(
                    f"valuation line {ln}: expected word/pos/set, got {raw!r}")
        except ValueError as exc:
            raise FormatError(f"valuation line {ln}: {exc}") from exc
    return UPValuation(word=word, positions=positions, sets=sets)


def _cmd_mso(args, budget: Optional[int]):
    from .buchi import format_automaton
    from .mso import (_latoms, compile_to_buchi, count_latoms, encode_congruence_game,
                      evaluate, format_formula, formula_size, mso_satisfiable, parse_formula)

    limits = _budget(budget, "state_budget")
    if args.action == "encode-game":
        phi = encode_congruence_game(args.alphabet, neutral=args.neutral)
        _note(f"sentence of size {formula_size(phi)}, "
              f"{count_latoms(phi)} predicate atom(s)")
        return {"action": "encode-game",
                "alphabet": list(args.alphabet.letters),
                "neutral": args.neutral, "formula": format_formula(phi),
                "size": formula_size(phi),
                "predicate_atoms": count_latoms(phi)}, format_formula(phi)
    if args.action == "sat":
        if args.file and args.file_flag and args.file != args.file_flag:
            raise FormatError("formula file given twice, with different paths")
        path = args.file or args.file_flag
        if path is None:
            raise FormatError("no formula file (pass it positionally or with --file)")
        phi = parse_formula(_read(path))
        sat, model = mso_satisfiable(phi, args.alphabet, args.free, **limits)
        if not sat:
            _note("UNSAT")
            return {"action": "sat", "satisfiable": False, "model": None}, None
        doc = {"word": format_word(model.word),
               "sets": {v: format_word(w) for v, w in model.sets.items()}}
        _note(f"SAT with model {doc['word']}")
        return {"action": "sat", "satisfiable": True, "model": doc}, None
    if args.action == "compile":
        phi = parse_formula(_read(args.file))
        machine = compile_to_buchi(phi, args.alphabet, args.free, **limits)
        text = format_automaton(machine)
        _note(f"{len(machine.states)} states over "
              f"{len(machine.alphabet)} coded letters")
        return {"action": "compile", "states": len(machine.states),
                "coded_letters": len(machine.alphabet),
                "automaton": text}, text
    phi = parse_formula(_read(args.file))
    val = _parse_valuation(_read(args.valuation))
    symbols = sorted({f.symbol for f in _latoms(phi)})
    oracles = None
    if symbols:
        if not args.oracle:
            raise FormatError(
                f"formula uses predicate(s) {symbols}; pass --oracle")
        from .oracles import get_oracle

        oracle = get_oracle(args.oracle)
        oracles = {s: oracle for s in symbols}
    value = evaluate(phi, val, oracles, **limits)
    _note(f"value: {value}")
    return {"action": "eval", "value": value,
            "predicates": {s: args.oracle for s in symbols}}, None


def _cmd_trio(args, budget: Optional[int]):
    from .trio import (get_finite_oracle, member_L1, member_L2, parse_separated,
                       project_to_separators)

    language = get_finite_oracle(args.language)
    if args.action == "l1":
        v = member_L1(language, args.input, bound=args.bound)
        _note(f"member: {v.equivalent} ({'exact' if v.exact else 'bounded'})")
        return {"action": "l1", "language": language.name, "input": args.input,
                "member": v.equivalent, "exact": v.exact,
                "witness": None if v.witness is None else format_word(v.witness),
                }, None
    if args.action == "l2":
        verdict = member_L2(language, args.input, bound=args.bound)
        _note(f"member: {verdict}")
        return {"action": "l2", "language": language.name, "input": args.input,
                "member": verdict}, None
    s = parse_separated(args.input, language.alphabet)
    text = "".join(project_to_separators(s).letters)
    _note(f"projection: {text or '(empty)'}")
    return {"action": "project", "language": language.name,
            "input": args.input, "projection": text}, None


_HANDLERS = {
    "buchi": _cmd_buchi,
    "congruence": _cmd_congruence,
    "oracle": _cmd_oracle,
    "game": _cmd_game,
    "mso": _cmd_mso,
    "trio": _cmd_trio,
}


# ---------------------------------------------------------------------------
# argument parsing


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegaword",
        description="Automata, congruences, games, and formulas over "
                    "finitely presented infinite words.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_nonnegative, default=0,
                        help="seed for any randomized strategy (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    buchi = sub.add_parser("buchi", help="automaton algebra and membership")
    bsub = buchi.add_subparsers(dest="action", required=True)
    for name in ("complement", "empty"):
        p = bsub.add_parser(name, parents=[common])
        p.add_argument("file", help="automaton file")
        if name == "complement":
            p.add_argument("--output", help="write the result automaton here")
    for name in ("union", "intersect"):
        p = bsub.add_parser(name, parents=[common])
        p.add_argument("file", help="first automaton file")
        p.add_argument("file2", help="second automaton file")
        p.add_argument("--output", help="write the result automaton here")
    p = bsub.add_parser("member", parents=[common])
    p.add_argument("file", help="automaton file")
    p.add_argument("--word", required=True, help="lasso word, e.g. ab(ba)^w")

    cong = sub.add_parser("congruence", help="classifier checking and repair")
    csub = cong.add_subparsers(dest="action", required=True)
    p = csub.add_parser("check1", parents=[common])
    p.add_argument("file", help="classifier file")
    p = csub.add_parser("repair", parents=[common])
    p.add_argument("file", help="classifier file")
    p.add_argument("--output", help="write the repaired classifier here")
    p = csub.add_parser("arnold", parents=[common])
    p.add_argument("--oracle", required=True)
    p.add_argument("--word-bound", type=_positive, required=True)
    p.add_argument("--context-bound", type=_positive, required=True)

    orc = sub.add_parser("oracle", help="language membership and structure")
    osub = orc.add_subparsers(dest="action", required=True)
    p = osub.add_parser("member", parents=[common])
    p.add_argument("--oracle", required=True)
    p.add_argument("--word", required=True)
    p = osub.add_parser("violation", parents=[common])
    p.add_argument("file", help="classifier file")
    p.add_argument("--oracle", required=True)

    game = sub.add_parser("game", help="the interval game, bounded play")
    gsub = game.add_subparsers(dest="action", required=True)
    p = gsub.add_parser("play", parents=[common])
    p.add_argument("--word", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--spoiler", required=True, help="random | diverging")
    p.add_argument("--duplicator", required=True,
                   help="copy | random | constant[:text]")
    p.add_argument("--horizon", type=_positive, required=True)
    p.add_argument("--output", help="write the raw transcript JSON here")

    mso = sub.add_parser("mso", help="formulas: compile, test, evaluate")
    msub = mso.add_subparsers(dest="action", required=True)
    p = msub.add_parser("compile", parents=[common])
    p.add_argument("file", help="formula file (prefix syntax)")
    p.add_argument("--alphabet", type=_alpha_flag, default=alphabet("ab"),
                   help="comma-separated letters (default a,b)")
    p.add_argument("--free", type=_names_flag, default=(),
                   help="comma-separated free variables, in track order")
    p.add_argument("--output", help="write the automaton here")
    p = msub.add_parser("sat", parents=[common])
    p.add_argument("file", nargs="?", help="formula file")
    p.add_argument("--file", dest="file_flag", help="formula file (alternative)")
    p.add_argument("--alphabet", type=_alpha_flag, default=alphabet("ab"))
    p.add_argument("--free", type=_names_flag, default=())
    p = msub.add_parser("eval", parents=[common])
    p.add_argument("file", help="formula file")
    p.add_argument("--valuation", required=True,
                   help="valuation file: word/pos/set lines")
    p.add_argument("--oracle", help="oracle bound to every predicate symbol")
    p = msub.add_parser("encode-game", parents=[common])
    p.add_argument("--alphabet", type=_alpha_flag, default=alphabet("ab1"),
                   help="comma-separated letters, neutral included")
    p.add_argument("--neutral", default="1")
    p.add_argument("--output", help="write the formula here")

    trio = sub.add_parser("trio", help="finite-word reduction pipeline")
    tsub = trio.add_subparsers(dest="action", required=True)
    for name in ("l1", "l2", "project"):
        p = tsub.add_parser(name, parents=[common])
        p.add_argument("--language", default="anbn")
        p.add_argument("--input", required=True,
                       help="separated word, e.g. a#aa#a%%#aa%%#")
        if name != "project":
            p.add_argument("--bound", type=_positive, default=8,
                           help="suffix bound for inexact congruences")
    return parser


def _fail(command: Optional[str], exc: Exception, code: int) -> int:
    _note(f"error: {exc}")
    print(json.dumps({"command": command, "error": str(exc),
                      "kind": type(exc).__name__}, indent=2, sort_keys=True))
    return code


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run one operation, emit one JSON document; returns the
    exit status rather than raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    raw = os.environ.get("OMEGAWORD_STEP_BUDGET", "").strip()
    budget = None
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            return _fail(args.command, FormatError(
                f"OMEGAWORD_STEP_BUDGET must be an integer, got {raw!r}"), 2)
        if budget < 1:
            return _fail(args.command, FormatError(
                "OMEGAWORD_STEP_BUDGET must be positive"), 2)
    try:
        doc, artifact = _HANDLERS[args.command](args, budget)
    except _BUDGET_ERRORS as exc:
        return _fail(args.command, exc, 1)
    except (OmegawordError, OSError) as exc:
        return _fail(args.command, exc, 2)
    output = getattr(args, "output", None)
    if output and artifact is not None:
        Path(output).write_text(artifact, encoding="utf-8")
        _note(f"wrote {output}")
    print(json.dumps({"command": args.command, **doc},
                     indent=2, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
