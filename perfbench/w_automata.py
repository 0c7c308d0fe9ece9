"""Workload `automata`: the profile monoid, complementation, emptiness, the
product constructions, lasso acceptance and MSO compilation.

The constructions run on fixed corpora, so that every run measures the same
heavy work: 14 automata (two each of 2 to 8 states, corpus seed 0) and the
60 depth-5 sentences of seed 9.  A single complement ranges from under a
millisecond to about a second, so drawing the automata per run would make
run-to-run spread far wider than any useful bound.  Each automaton is
combined by union and intersection with the one at the mirrored corpus
position, which has 10 - n states if it has n.  The pairs are fixed too:
the `accepts_up` queries on the products are about half of all operations,
and partners drawn per seed moved `op_p50_ms` by a tenth from seed to seed.
The run seed draws the lasso word each sentence is evaluated on.

Every budgeted call gets the same budget.  Complements and compilations that
exceed it stay in the query set and count as failed operations.  The budget
of 1000 keeps a pass near two seconds: a failing compilation costs time in
proportion to the budget, and a run needs many passes to be steady.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Optional

import gen
from query import Query
from ref import Reference

NAME = "automata"
CORPUS_SEED = 0
SENTENCE_SEED = 9
SIZES = range(2, 9)
PER_SIZE = 2
SENTENCES = 60
BUDGET = 1000


def inputs(seed: Optional[int]) -> dict:
    """Text inputs; `seed=None` gives the whole universe the goldens cover."""
    rng = random.Random(CORPUS_SEED)
    automata = [gen.automaton_text(rng, n) for n in SIZES for _ in range(PER_SIZE)]
    eval_words = gen.lasso_words("ab", 1, 2)
    n = len(automata)
    if seed is None:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        valuations = [(k, j) for k in range(SENTENCES) for j in range(len(eval_words))]
    else:
        draw = random.Random(seed)
        pairs = [(i, n - 1 - i) for i in range(n)]
        valuations = [(k, draw.randrange(len(eval_words))) for k in range(SENTENCES)]
    return {
        "automata": automata,
        "sentences": gen.sentences(SENTENCE_SEED, SENTENCES),
        "words": gen.lasso_words("ab", 3, 3),
        "compile_words": gen.lasso_words("ab", 2, 2),
        "eval_words": eval_words,
        "pairs": [list(p) for p in pairs],
        "valuations": [list(v) for v in valuations],
    }


def parse(data: dict):
    from omegaword import alphabet, parse_automaton, parse_formula, parse_word

    ab = alphabet("ab")
    return SimpleNamespace(
        automata=[parse_automaton(t) for t in data["automata"]],
        sentences=[parse_formula(t) for t in data["sentences"]],
        words=[parse_word(t, ab) for t in data["words"]],
        compile_words=[parse_word(t, ab) for t in data["compile_words"]],
        eval_words=[parse_word(t, ab) for t in data["eval_words"]],
        pairs=[tuple(p) for p in data["pairs"]],
        valuations=[tuple(v) for v in data["valuations"]],
        truth={},
    )


def _truth(p, i: int) -> list[bool]:
    """Reference verdicts of automaton i on every query word (cached)."""
    if i not in p.truth:
        r = Reference(p.automata[i])
        p.truth[i] = [r.accepts(w.prefix, w.period) for w in p.words]
    return p.truth[i]


def _emptiness(key: str, machine, accepts, truth: list[bool]):
    """is_empty on `machine`, whose language the reference `accepts` knows:
    a witness must be accepted, and an empty verdict must agree with the
    verdicts on the query words."""
    from omegaword import format_word, is_empty

    def verify(out):
        empty, witness = out
        if empty:
            return "empty, but a query word is accepted" if any(truth) else None
        return None if accepts(witness) else f"witness {format_word(witness)} rejected"

    return Query("buchi.is_empty", lambda: is_empty(machine), key=key,
                 summarize=lambda out: "empty" if out[0] else format_word(out[1]),
                 verify=verify)


def _accepts(machine, words, truth):
    from omegaword import accepts_up

    for w, t in zip(words, truth):
        yield Query("buchi.accepts_up", lambda w=w: accepts_up(machine, w),
                    summarize=str,
                    verify=lambda out, t=t: None if out == t else f"expected {t}")


def queries(p, ctx):
    from omegaword import (UPValuation, complement, compile_to_buchi, evaluate,
                           format_word, intersect, mso_satisfiable,
                           transition_monoid, union)
    from omegaword.words import alphabet

    refs = [Reference(a) for a in p.automata]

    def ref_of(i):
        return lambda w: refs[i].accepts(w.prefix, w.period)

    for i, a in enumerate(p.automata):
        truth = _truth(p, i)
        yield Query("buchi.transition_monoid",
                    lambda a=a: transition_monoid(a, budget=BUDGET),
                    key=f"monoid:{i}",
                    summarize=lambda m: " ".join(w.text() for w in m.witnesses),
                    counters=lambda m: {"buchi.transition_monoid.elements": len(m.elements)})
        yield _emptiness(f"empty:{i}", a, ref_of(i), truth)
        yield from _accepts(a, p.words, truth)
        q = yield Query("buchi.complement",
                        lambda a=a: complement(a, state_budget=BUDGET),
                        key=f"complement:{i}",
                        counters=lambda c: {"buchi.complement.states_out": len(c.states)})
        if q.ok:
            comp = q.out
            neg = [not t for t in truth]
            r = ref_of(i)
            yield _emptiness(f"empty-complement:{i}", comp,
                             lambda w, r=r: not r(w), neg)
            yield from _accepts(comp, p.words, neg)

    for i, j in p.pairs:
        a, b = p.automata[i], p.automata[j]
        ti, tj = _truth(p, i), _truth(p, j)
        ri, rj = ref_of(i), ref_of(j)
        for name, op, combine in (("union", union, lambda x, y: x or y),
                                  ("intersect", intersect, lambda x, y: x and y)):
            # the product is checked through the emptiness and accept
            # queries on it that follow
            q = yield Query("buchi.product", lambda op=op: op(a, b),
                            verify=lambda out: None,
                            counters=lambda m: {"buchi.product.states_out": len(m.states)})
            if not q.ok:
                continue
            prod = q.out
            truth = [combine(x, y) for x, y in zip(ti, tj)]
            yield _emptiness(f"empty-{name}:{i}-{j}", prod,
                             lambda w, c=combine: c(ri(w), rj(w)), truth)
            yield from _accepts(prod, p.words, truth)

    ab = alphabet("ab")
    compiled: dict = {}
    for k, phi in enumerate(p.sentences):
        q = yield Query("mso.compile_to_buchi",
                        lambda phi=phi: compile_to_buchi(phi, ab, state_budget=BUDGET),
                        key=f"compile:{k}",
                        summarize=lambda m: _verdicts(m, p.compile_words),
                        counters=lambda m: {"mso.compile_to_buchi.states_out": len(m.states)})
        if q.ok:
            compiled[k] = Reference(q.out)

        def sat_verify(out, k=k):
            sat, model = out
            if sat and k in compiled and not compiled[k].accepts(model.word.prefix,
                                                                 model.word.period):
                return "model rejected by the compiled automaton"
            return None

        yield Query("mso.mso_satisfiable",
                    lambda phi=phi: mso_satisfiable(phi, "ab", state_budget=BUDGET),
                    key=f"sat:{k}",
                    summarize=lambda out: f"sat {format_word(out[1].word)}" if out[0] else "unsat",
                    verify=sat_verify)

    for k, j in p.valuations:
        w = p.eval_words[j]

        def eval_verify(out, k=k, w=w):
            if k in compiled and compiled[k].accepts(w.prefix, w.period) != out:
                return "evaluation disagrees with the compiled automaton"
            return None

        yield Query("mso.evaluate",
                    lambda k=k, w=w: evaluate(p.sentences[k], UPValuation(word=w),
                                              state_budget=BUDGET),
                    key=f"eval:{k}:{j}", summarize=str, verify=eval_verify)


def _verdicts(machine, words) -> str:
    r = Reference(machine)
    return "".join("1" if r.accepts(w.prefix, w.period) else "0" for w in words)
