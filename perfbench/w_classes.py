"""Workload `classes`: bounded congruence partitions, the classifier
conditions, the violation finders, trio membership and the interval game.

Many tiny words are built and canonicalized here and membership queries are
many, while the automaton layer barely runs.  Fixed parts, the same in every
run: the Arnold and right partitions of U, Uprime, P and primes at word
bounds 2 and 3 (context bound 2), condition (1) and repair on 40 classifiers
of up to 5 states (corpus seed 1), and `member_L2` on every separated word of
up to 7 tokens.  The run seed draws the classifiers given to the violation
finders, the automata whose kernel classifiers are checked, and the pairs
given to `member_L1`.

Each pass ends with the plays of `w_game`, which read a few long block words
at far positions; they draw their own inputs from the same seed.  The traced
run also measures the command-line layer once (see `w_cli`).

The Uprime partitions fail with `DegenerateErasureError` at every bound; they
stay in the query set and count as failed operations.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Optional

import gen
import w_cli
import w_game
from query import Query

NAME = "classes"
CORPUS_SEED = 1
KERNEL_SEED = 2
ORACLES = ("U", "Uprime", "P", "primes")
BOUNDS = ((2, 2), (3, 2))
REPAIR_CLASSIFIERS = 40
FINDER_UNIVERSE = 200
FINDER_SAMPLE = 20
KERNEL_UNIVERSE = 40
KERNEL_SAMPLE = 8
L1_MAX_LEN = 4
L1_SAMPLE = 200
L2_TOKENS = 7


def inputs(seed: Optional[int]) -> dict:
    """Text inputs; `seed=None` gives the whole universe the goldens cover."""
    rng = random.Random(CORPUS_SEED)
    repair = [gen.classifier_text(rng, 5, 3) for _ in range(REPAIR_CLASSIFIERS)]
    finder = [gen.classifier_text(rng, 5, 3) for _ in range(FINDER_UNIVERSE)]
    rng = random.Random(KERNEL_SEED)
    kernel = [gen.automaton_text(rng, 2 + i % 3) for i in range(KERNEL_UNIVERSE)]
    words = gen.finite_words("ab", L1_MAX_LEN)
    pairs = [f"{u}#{v}" for u in words for v in words]
    finder_ids = list(range(FINDER_UNIVERSE))
    kernel_ids = list(range(KERNEL_UNIVERSE))
    if seed is not None:
        draw = random.Random(seed)
        finder_ids = sorted(draw.sample(finder_ids, FINDER_SAMPLE))
        kernel_ids = sorted(draw.sample(kernel_ids, KERNEL_SAMPLE))
        pairs = draw.sample(pairs, L1_SAMPLE)
    return {
        "repair": repair,
        "finder": {str(i): finder[i] for i in finder_ids},
        "kernel": {str(i): kernel[i] for i in kernel_ids},
        "l1": pairs,
        "l2": gen.separated_words("ab", L2_TOKENS),
        "game": w_game.inputs(seed),
        "cli": w_cli.inputs(seed),
    }


def parse(data: dict):
    from omegaword import parse_automaton, parse_classifier

    return SimpleNamespace(
        repair=[parse_classifier(t) for t in data["repair"]],
        finder={int(i): parse_classifier(t) for i, t in data["finder"].items()},
        kernel={int(i): parse_automaton(t) for i, t in data["kernel"].items()},
        l1=data["l1"],
        l2=data["l2"],
        game=w_game.parse(data["game"]),
        cli=w_cli.parse(data["cli"]),
    )


def _classes_text(part) -> str:
    classes = sorted(sorted(("".join(w.letters) or "eps") for w in cls)
                     for cls in part.classes)
    return " | ".join(" ".join(c) for c in classes) + f" nt={len(part.non_transitive)}"


def _partition_theorem(kind: str, name: str):
    """Known answers: the Arnold classes of U split by containing b; the
    right partitions of U and primes and both partitions of P are one class."""
    def verify(part):
        if kind == "arnold" and name == "U":
            kinds = [{"b" in "".join(w.letters) for w in cls} for cls in part.classes]
            if sorted(map(sorted, kinds)) != [[False], [True]]:
                return "U Arnold classes are not split by containing b"
        if (kind == "right" and name in ("U", "primes")) or name == "P":
            if len(part.classes) != 1:
                return f"{len(part.classes)} classes, expected one"
        return None
    return verify


def queries(p, ctx):
    from omegaword import (arnold_classes_bounded, check_condition1,
                           check_condition2_bounded, format_classifier,
                           format_word, get_oracle, lemma_repair, member_L1,
                           member_L2, profile_kernel_classifier,
                           right_classes_bounded)
    from omegaword.congruence import validate_condition2_witness
    from omegaword.oracles import RegularOracle
    from omegaword.trio import AnBnOracle

    for kind, build in (("arnold", arnold_classes_bounded),
                        ("right", right_classes_bounded)):
        for name in ORACLES:
            for wb, cb in BOUNDS:
                oracle = ctx.oracle(get_oracle(name))
                n = sum(len(oracle.alphabet) ** k for k in range(wb + 1))
                yield Query(
                    "congruence.partition",
                    lambda build=build, oracle=oracle, wb=wb, cb=cb:
                        build(oracle, word_bound=wb, context_bound=cb),
                    key=f"{kind}:{name}:{wb}/{cb}", summarize=_classes_text,
                    verify=_partition_theorem(kind, name),
                    counters=lambda part, n=n, oracle=oracle: {
                        "congruence.partition.classes": len(part.classes),
                        "congruence.partition.non_transitive": len(part.non_transitive),
                        "congruence.partition.pairs": n * (n - 1) // 2,
                        "congruence.partition.member_calls": oracle.calls})

    for i, c in enumerate(p.repair):
        yield Query("congruence.check_condition1", lambda c=c: check_condition1(c),
                    key=f"check1:{i}", summarize=_violation_text)

        def repair_verify(fixed, c=c):
            if fixed.index > c.index or check_condition1(fixed) is not None:
                return "repaired classifier still violates condition (1)"
            return None

        yield Query("congruence.lemma_repair", lambda c=c: lemma_repair(c),
                    key=f"repair:{i}",
                    summarize=format_classifier,
                    verify=repair_verify,
                    counters=lambda fixed, c=c: {
                        "congruence.lemma_repair.merges": c.index - fixed.index})

    for name in ("U", "Uprime"):
        oracle = get_oracle(name)
        for i, c in p.finder.items():
            yield Query(
                "oracles.violation",
                lambda oracle=oracle, c=c: oracle.find_condition2_violation(c),
                key=f"violation:{name}:{i}",
                summarize=lambda w: " ".join((
                    format_word(w.original_product),
                    "-" if w.replaced_product is None else format_word(w.replaced_product),
                    str(w.original_member), str(w.replaced_member), w.note)),
                verify=lambda w, oracle=oracle, c=c: None
                if validate_condition2_witness(c, oracle, w) else "witness does not validate")

    for i, a in p.kernel.items():
        q = yield Query("congruence.profile_kernel_classifier",
                        lambda a=a: profile_kernel_classifier(a), key=f"kernel:{i}",
                        summarize=format_classifier)
        if not q.ok:
            continue
        c = q.out
        yield Query("congruence.check_condition1", lambda c=c: check_condition1(c),
                    verify=lambda v: None if v is None else "kernel classifier violates (1)")
        # left unproxied, so that oracles.member counts the queries of the
        # partitions and of the game plays only
        oracle = RegularOracle(a)
        yield Query("congruence.check_condition2_bounded",
                    lambda c=c, oracle=oracle: check_condition2_bounded(
                        c, oracle, word_bound=2, cycle_bound=2),
                    verify=lambda v: None if v is None else "kernel classifier violates (2)")

    language = ctx.language(AnBnOracle())
    for text in p.l1:
        yield Query("trio.member_L1", lambda text=text: member_L1(language, text),
                    key=f"l1:{text}",
                    summarize=lambda v: f"{v.equivalent} {v.exact} "
                                        f"{'-' if v.witness is None else format_word(v.witness)}")
    for text in p.l2:
        yield Query("trio.member_L2", lambda text=text: member_L2(language, text),
                    key=f"l2:{text}", summarize=str,
                    verify=lambda out, text=text: _equal_counts(out, text))

    yield from w_game.queries(p.game, ctx)


def layer_metrics(p, judge) -> dict:
    return w_cli.layer_metrics(p.cli, judge)


def _violation_text(v) -> str:
    from omegaword import format_word

    if v is None:
        return "ok"
    return " ".join((v.side, format_word(v.u), format_word(v.u_prime),
                     format_word(v.w), str(v.class_before), *map(str, v.classes_after)))


def _equal_counts(member: bool, text: str) -> Optional[str]:
    """Members of the two-separator language use both separators equally."""
    marked = text.count("%#")
    if member and text.count("#") - marked != marked:
        return "member with unequal separator counts"
    return None
