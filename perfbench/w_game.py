"""The game part of the `classes` workload: bounded plays of the interval
game and the transcript round trip.

A few long words are read at far positions: `letter_at` scans block
schedules, and the diverging spoiler makes a number of oracle calls that
grows with the square of the horizon.  Each pass plays every combination of
word, oracle (U, Uprime) and strategy pair at horizons 10 and 50, and the
diverging spoiler against the copy duplicator on the growing word at horizon
200.  Every transcript then goes through `transcript_to_json`,
`transcript_from_json`, `validate_transcript` and `adjudicate`.  The run seed
draws the seeds of the random strategies, from 16 recorded ones.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Optional

from query import Query

NAME = "game"
GROWING = ("blocks(a,b;affine 1 0)", "blocks(a,b;affine 2 1)")
BOUNDED = ("(aab)^w", "blocks(a,b;constant 3)", "b(aaaab)^w")
ORACLES = ("U", "Uprime")
STRATEGIES = (("random", "copy"), ("random", "random"), ("random", "constant"),
              ("diverging", "copy"), ("diverging", "random"),
              ("diverging", "constant"))
HORIZONS = (10, 50)
LONG_PLAY = ("blocks(a,b;affine 1 0)", "U", "diverging", "copy", 200)
RNG_SEEDS = 16


def _plays():
    for h in HORIZONS:
        for word in GROWING + BOUNDED:
            for oracle in ORACLES:
                for sp, du in STRATEGIES:
                    yield word, oracle, sp, du, h
    yield LONG_PLAY


def inputs(seed: Optional[int]) -> dict:
    """Plays as (word, oracle, spoiler, duplicator, horizon, rng seeds);
    `seed=None` gives every recorded rng seed."""
    draw = None if seed is None else random.Random(seed)
    plays = []
    for word, oracle, sp, du, h in _plays():
        if "random" not in (sp, du):
            seeds = [0]
        elif draw is None:
            seeds = list(range(RNG_SEEDS))
        else:
            seeds = [draw.randrange(RNG_SEEDS)]
        plays.append([word, oracle, sp, du, h, seeds])
    return {"plays": plays}


def parse(data: dict):
    from omegaword import get_oracle, parse_word

    words = {w: parse_word(w) for w in GROWING + BOUNDED}
    oracles = {name: get_oracle(name) for name in ORACLES}
    return SimpleNamespace(
        plays=[(words[w], w, oracles[o], sp, du, h, seeds)
               for w, o, sp, du, h, seeds in data["plays"]])


def _theorem(word_text: str, sp: str, du: str):
    """Copy wins on growing blocks; the diverging spoiler wins on bounded runs."""
    def verify(t):
        from omegaword import validate_transcript

        if validate_transcript(t):
            return "the engine returned an illegal transcript"
        if du == "copy" and word_text in GROWING and t.winner != "Duplicator":
            return "copy duplicator lost on growing blocks"
        if sp == "diverging" and word_text in BOUNDED and t.winner != "Spoiler":
            return "diverging spoiler lost on bounded runs"
        return None
    return verify


def queries(p, ctx):
    from omegaword import (adjudicate, get_duplicator, get_spoiler, play_bounded,
                           transcript_from_json, transcript_to_json,
                           validate_transcript)

    for word, word_text, raw_oracle, sp, du, h, seeds in p.plays:
        oracle = ctx.oracle(raw_oracle)
        for seed in seeds:
            rng = random.Random(seed)
            spoiler, duplicator = get_spoiler(sp, rng), get_duplicator(du, rng)
            q = yield Query(
                "game.play_bounded",
                lambda: play_bounded(word, oracle, spoiler, duplicator, horizon=h),
                key=f"play:{word_text}:{raw_oracle.name}:{sp}:{du}:{h}:{seed}",
                summarize=transcript_to_json,
                verify=_theorem(word_text, sp, du),
                counters=lambda t: {
                    "game.play_bounded.rounds": 5 if t.forfeit is None else t.forfeit[1],
                    "game.play_bounded.forfeits": t.forfeit is not None})
            if not q.ok:
                continue
            t = q.out
            q = yield Query("game.transcript_json", lambda: transcript_to_json(t),
                            summarize=str,
                            verify=lambda js: None if js == transcript_to_json(t)
                            else "serialization is not deterministic",
                            counters=lambda js: {"game.transcript_json.bytes": len(js)})
            js = q.out
            q = yield Query("game.transcript_json", lambda: transcript_from_json(js),
                            verify=lambda t2: None if transcript_to_json(t2) == js
                            else "transcript does not round-trip")
            if not q.ok:
                continue
            t2 = q.out
            yield Query("game.validate_transcript", lambda: validate_transcript(t2),
                        summarize=repr,
                        verify=lambda bad: "; ".join(bad) or None)
            yield Query("game.adjudicate", lambda: adjudicate(t2, oracle),
                        summarize=lambda a: f"{a.winner} {a.verdicts}",
                        verify=lambda a: None if (a.winner, a.verdicts) == (t.winner, t.verdicts)
                        else "adjudication disagrees with the play")
