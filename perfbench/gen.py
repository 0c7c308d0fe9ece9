"""Seeded text inputs for the benchmark.

Everything here is plain Python that writes the library's text formats
(automaton files, classifier files, prefix-syntax formulas, word syntax), so
generating inputs costs nothing the benchmark times and the library only
ever sees parsed text.  The random draws follow the same call sequences as
the generators in the test suite, so ``sentences(9, 60)`` is the seed-9
sentence set that the roadmap's compile timings refer to.
"""

from __future__ import annotations

import random
from itertools import product


def automaton_text(rng: random.Random, n: int, letters: str = "ab",
                   accept_prob: float = 0.45) -> str:
    """A random Büchi automaton on `n` states: per state and letter, 0, 1 or
    2 successors (weights 25/55/20); each state accepting with
    `accept_prob`; the first state initial."""
    states = [f"q{i}" for i in range(n)]
    trans = set()
    for q in states:
        for x in letters:
            k = rng.choices([0, 1, 2], weights=[25, 55, 20])[0]
            for d in rng.sample(states, min(k, n)):
                trans.add((q, x, d))
    accepting = [q for q in states if rng.random() < accept_prob]
    idx = {q: i for i, q in enumerate(states)}
    order = sorted(trans, key=lambda t: (idx[t[0]], letters.index(t[1]), idx[t[2]]))
    lines = ["alphabet " + " ".join(letters), "states " + " ".join(states),
             "initial q0", "accepting " + " ".join(accepting)]
    lines += [f"{s} {x} {d}" for s, x, d in order]
    return "\n".join(lines) + "\n"


def classifier_text(rng: random.Random, max_states: int = 4,
                    max_classes: int = 3) -> str:
    """A random complete classifier over {a, b}; class labels are redrawn
    until every label occurs on a reachable state (the constructor's rule)."""
    n = rng.randrange(1, max_states + 1)
    states = [f"s{i}" for i in range(n)]
    delta = {(q, x): rng.choice(states) for q in states for x in "ab"}
    seen = {"s0"}
    frontier = ["s0"]
    while frontier:
        q = frontier.pop()
        for x in "ab":
            d = delta[(q, x)]
            if d not in seen:
                seen.add(d)
                frontier.append(d)
    names = [f"c{i}" for i in range(max_classes)]
    while True:
        classes = {q: rng.choice(names) for q in states}
        reach_names = {classes[q] for q in seen}
        if all(classes[q] in reach_names for q in states):
            break
    lines = ["alphabet a b", "states " + " ".join(states), "initial s0"]
    lines += [f"class {q} {classes[q]}" for q in states]
    lines += [f"{q} {x} {delta[(q, x)]}" for q in states for x in "ab"]
    return "\n".join(lines) + "\n"


def sentence_text(rng: random.Random, letters: str = "ab", depth: int = 4) -> str:
    """A closed predicate-free sentence in prefix syntax: a Boolean
    combination of quantified chunks."""
    fresh_pos = iter(f"v{i}" for i in range(100))
    fresh_set = iter(f"V{i}" for i in range(100))

    def atom(pos_vars, set_vars):
        kinds = []
        if pos_vars:
            kinds += ["less", "letter", "letter"]
        if pos_vars and set_vars:
            kinds += ["in", "in"]
        if not kinds:
            v = next(fresh_pos)
            return f"(exists1 {v} (letter {v} {rng.choice(letters)}))"
        kind = rng.choice(kinds)
        if kind == "less":
            return f"(< {rng.choice(pos_vars)} {rng.choice(pos_vars)})"
        if kind == "letter":
            return f"(letter {rng.choice(pos_vars)} {rng.choice(letters)})"
        return f"(in {rng.choice(pos_vars)} {rng.choice(set_vars)})"

    def chunk(d, pos_vars, set_vars):
        roll = rng.random()
        if d <= 0 or (roll < 0.3 and pos_vars):
            return atom(pos_vars, set_vars)
        if roll < 0.6 and len(pos_vars) < 3:
            v = next(fresh_pos)
            head = rng.choice(("exists1", "forall1"))
            return f"({head} {v} {chunk(d - 1, pos_vars + (v,), set_vars)})"
        if roll < 0.72 and len(set_vars) < 2:
            v = next(fresh_set)
            head = rng.choice(("exists2", "forall2"))
            return f"({head} {v} {chunk(d - 1, pos_vars, set_vars + (v,))})"
        if roll < 0.82:
            return f"(not {chunk(d - 1, pos_vars, set_vars)})"
        parts = [chunk(d - 1, pos_vars, set_vars) for _ in range(2)]
        return f"({rng.choice(('and', 'or', 'implies'))} {parts[0]} {parts[1]})"

    pieces = [chunk(depth - 1, (), ()) for _ in range(rng.choice((1, 2, 2, 3)))]
    out = pieces[0]
    for piece in pieces[1:]:
        out = f"({rng.choice(('and', 'or', 'implies'))} {out} {piece})"
    if rng.random() < 0.25:
        out = f"(not {out})"
    return out


def sentences(seed: int, count: int, depth: int = 5) -> list[str]:
    rng = random.Random(seed)
    return [sentence_text(rng, "ab", depth) for _ in range(count)]


def finite_words(letters: str, max_len: int) -> list[str]:
    """All words up to `max_len`, length-lexicographic, empty word first."""
    return ["".join(t) for n in range(max_len + 1)
            for t in product(letters, repeat=n)]


def lasso_words(letters: str, max_prefix: int, max_period: int) -> list[str]:
    """Every lasso ``u(v)^w`` with |u| <= max_prefix and 1 <= |v| <= max_period."""
    return [f"{u}({v})^w" for u in finite_words(letters, max_prefix)
            for v in finite_words(letters, max_period) if v]


def separated_words(letters: str, max_tokens: int) -> list[str]:
    """Every separated word ``w1#...wn#v1%#...vm%#`` of at most `max_tokens`
    tokens (letters and separators, the marked one included, count one)."""
    def groups(budget):
        yield (), 0
        for seglen in range(budget):
            for seg in product(letters, repeat=seglen):
                for rest, used in groups(budget - seglen - 1):
                    yield ("".join(seg),) + rest, used + seglen + 1

    out = []
    for left, used in groups(max_tokens):
        for right, _ in groups(max_tokens - used):
            out.append("".join(s + "#" for s in left)
                       + "".join(s + "%#" for s in right))
    return out
