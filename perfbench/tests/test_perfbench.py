"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import w_automata
import w_classes
import w_cli
import w_game
from harness import Judge, measure, tail
from query import Query
from ref import Reference
from spans import CountingLanguage, CountingOracle, Tracer, layer_times

BENCH = Path(__file__).resolve().parents[1]
WORKLOAD_MODULES = (w_automata, w_classes, w_game, w_cli)


@pytest.mark.parametrize("workload", WORKLOAD_MODULES, ids=lambda m: m.NAME)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workload.inputs(7), sort_keys=True)
    assert first == json.dumps(workload.inputs(7), sort_keys=True)
    assert first != json.dumps(workload.inputs(8), sort_keys=True)


def test_proxies_are_transparent():
    from omegaword import get_oracle, parse_word
    from omegaword.trio import AnBnOracle, member_L2

    tracer = Tracer()
    for name in ("U", "Uprime"):
        inner = get_oracle(name)
        proxy = CountingOracle(inner, tracer)
        for text in ("blocks(a,b;affine 1 0)", "(aab)^w", "b(a)^w"):
            w = parse_word(text)
            assert proxy.member(w) == inner.member(w)
        assert (proxy.name, proxy.alphabet, proxy.has_violation_finder) == \
            (inner.name, inner.alphabet, inner.has_violation_finder)
        assert proxy.letters > 0
    assert [s[0] for s in tracer.spans] == ["oracles.member"] * 6
    language = CountingLanguage(AnBnOracle(), tracer)
    for text in ("a#aa#a%#aa%#", "ab#ab%#", "a#b%#"):
        assert member_L2(language, text) == member_L2(AnBnOracle(), text)
    assert tracer.spans[-1][0] == "trio.language"


def test_workload_outputs_identical_with_and_without_proxies():
    data = w_game.inputs(3)
    data["plays"] = [p for p in data["plays"] if p[4] == 10][:12]
    parsed = w_game.parse(data)
    judge = Judge(json.loads((BENCH / "golden" / "classes.json").read_text()))
    plain = measure(w_game, parsed, judge, passes=1)
    proxied = measure(w_game, parsed, judge, passes=1, proxied=True)
    assert not judge.mismatches
    assert plain["outputs"] == proxied["outputs"]
    assert sum(p.letters for p in proxied["proxies"]) > 0


def _run_one(query, golden):
    judge = Judge(golden)
    def queries(parsed, ctx):
        yield query

    workload = SimpleNamespace(queries=queries)
    result = measure(workload, None, judge, passes=1)
    return judge, result


def test_golden_check_catches_a_flipped_verdict():
    from omegaword import accepts_up, parse_automaton, parse_word

    a = parse_automaton(w_automata.inputs(1)["automata"][4])
    w = parse_word("a(ab)^w", a.alphabet)
    verdict = accepts_up(a, w)
    query = lambda: Query("buchi.accepts_up", lambda: accepts_up(a, w),
                          key="k", summarize=str)
    judge, result = _run_one(query(), {"k": str(verdict)})
    assert not judge.mismatches and result["failed"] == 0
    judge, result = _run_one(query(), {"k": str(not verdict)})
    assert judge.mismatches and result["failed"] == 1


def test_reference_check_catches_a_flipped_verdict():
    q = Query("buchi.accepts_up", lambda: True, summarize=str,
              verify=lambda out: None if out is False else "expected False")
    judge, result = _run_one(q, {})
    assert judge.mismatches and result["failed"] == 1


def test_recorded_failure_is_failed_but_not_a_mismatch():
    from omegaword.errors import BudgetExceededError

    def boom():
        raise BudgetExceededError("over budget")

    judge, result = _run_one(Query("buchi.complement", boom, key="k"),
                             {"k": "error:BudgetExceededError"})
    assert not judge.mismatches and result["failed"] == 1


def test_reference_agrees_with_the_library():
    from omegaword import accepts_up, alphabet, parse_automaton, parse_word
    import gen

    rng = random.Random(5)
    words = [parse_word(t, alphabet("ab")) for t in gen.lasso_words("ab", 2, 2)]
    for n in range(1, 6):
        a = parse_automaton(gen.automaton_text(rng, n))
        r = Reference(a)
        assert [r.accepts(w.prefix, w.period) for w in words] == \
            [accepts_up(a, w) for w in words]


def test_latency_is_the_median_pass_of_calibration_scaled_times():
    import statistics
    import time

    from harness import CAL_EVERY, CAL_REF

    delays = iter([0.002, 0.03, 0.02])

    def queries(parsed, ctx):
        d = next(delays)
        for _ in range(CAL_EVERY + 1):
            yield Query("buchi.accepts_up", lambda: None, verify=lambda out: None)
        yield Query("buchi.accepts_up", lambda: time.sleep(d), verify=lambda out: None)

    result = measure(SimpleNamespace(queries=queries), None, Judge({}), passes=3)
    assert result["passes"] == 3 and result["attempted"] == 3 * (CAL_EVERY + 2)
    assert result["cal_samples"] == 3 * 2
    slow = [xs[-1] for xs in result["seconds"]]
    slow_scaled = [xs[-1] for xs in result["scaled"]]
    for t, ts in zip(slow, slow_scaled):
        assert t * CAL_REF < 0.1 * ts  # its sample took under 0.1 s
    assert 20.0 <= 1e3 * statistics.median(slow) < 29.0
    # the other queries do nothing, so the slow one's median is the busy time
    assert result["queries"] / result["ops_per_s"] == pytest.approx(
        statistics.median(slow_scaled), rel=0.02)


def test_tail_leaves_ten_samples_beyond():
    xs = list(range(100))
    random.Random(0).shuffle(xs)
    value, pct = tail(xs)
    assert value == 89 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],
        ["c", 2.0, 2.5, 1],
        ["d", 5.0, 9.0, 0],
        ["b", 11.0, 12.0, -1],
    ]
    t = layer_times(spans)
    assert t["a"] == {"s": 10.0, "self_s": 4.0, "calls": 1}
    assert t["b"] == {"s": 3.0, "self_s": 2.5, "calls": 2}
    assert t["c"] == {"s": 0.5, "self_s": 0.5, "calls": 1}
    assert t["d"] == {"s": 4.0, "self_s": 4.0, "calls": 1}


def test_tracer_records_parents():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_library_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "classes", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
