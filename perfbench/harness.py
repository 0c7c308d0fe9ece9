"""Closed-loop measurement: one client runs a workload's query set pass after
pass, times every call, and judges every output.

A workload yields `Query` objects from a generator; the harness runs each
one, stores the result on it and sends it back, so later queries can build
on earlier results (accept queries on a complement that was just built).
Each query makes exactly one public call into the library: that call is one
operation, and only it is timed.  Judging happens outside the timed region:

* a query with a `verify` function is checked against the benchmark's own
  references or a known theorem;
* a query with a golden `key` is compared with the output recorded at the
  commit that defined the benchmark.

Library errors (budget exceeded, unsupported input) are outputs too: they
count as failed operations, and they are a mismatch only when the golden
record disagrees.

After every `CAL_EVERY` operations the harness also times a fixed block of
plain Python (`calibrate`), which never calls the library.  On a shared
host the other tenants slow everything down, often to half speed and for
seconds to minutes at a time.  Each operation's time is scaled by `CAL_REF`
over the calibration sample that follows its block, so it reads as on a
host where that block takes `CAL_REF` seconds: it follows the library's
cost and not the neighbours' load.
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from omegaword.errors import OmegawordError

from query import Failed, Query, digest
from spans import CountingLanguage, CountingOracle, Tracer, layer_times

MIN_PASSES = 2
CAL_EVERY = 50
# the calibration block's median time on the 2-vCPU host that defined the
# benchmark, so that scaled times read close to that host's wall clock
CAL_REF = 0.7e-3


def fingerprint(summary: str) -> str:
    """Short summaries are kept as text, long ones as a digest."""
    if len(summary) <= 80:
        return summary
    return "sha1:" + digest(summary)


class Context:
    """What a pass hands to a workload: oracles either as they are or behind
    counting proxies, and the tracer those proxies report to."""

    def __init__(self, proxied: bool, tracer: Optional[Tracer] = None):
        self.proxied = proxied
        self.tracer = tracer or Tracer(enabled=False)
        self.proxies: list = []

    def oracle(self, inner):
        if not self.proxied:
            return inner
        p = CountingOracle(inner, self.tracer)
        self.proxies.append(p)
        return p

    def language(self, inner):
        if not self.proxied:
            return inner
        p = CountingLanguage(inner, self.tracer)
        self.proxies.append(p)
        return p


@dataclass
class Row:
    layer: str
    seconds: float
    failed: bool
    summary: str
    scaled: float = 0.0


@dataclass
class Judge:
    """Checks executed queries.  With `record` set it fills `golden` from
    the outputs instead of comparing with it (reference checks still run)."""

    golden: dict
    record: bool = False
    mismatches: list = field(default_factory=list)
    recovered: list = field(default_factory=list)

    def __call__(self, q: Query) -> tuple[bool, str]:
        """(failed, summary) for an executed query; records mismatches."""
        summary = q.summary()
        problem = None
        if q.error is not None and not isinstance(q.error, (OmegawordError, Failed)):
            problem = f"unexpected {type(q.error).__name__}: {q.error}"
        elif q.error is None and q.verify is not None:
            problem = q.verify(q.out)
        if problem is None and q.key is not None and self.record:
            self.golden[q.key] = fingerprint(summary)
        elif problem is None and q.key is not None:
            want = self.golden.get(q.key)
            got = fingerprint(summary)
            if want is None:
                problem = "no golden record"
            elif want != got:
                if want.startswith("error:") and q.error is None:
                    self.recovered.append(q.key)
                else:
                    problem = f"golden {want!r}, got {got!r}"
        elif problem is None and q.verify is None:
            problem = "output has no check" if q.error is None else summary
        if problem is not None:
            self.mismatches.append(f"{q.layer} {q.key or ''}: {problem}")
        return q.error is not None or problem is not None, summary


def calibrate() -> float:
    """Seconds taken by a fixed block of plain-Python work shaped like the
    library's: tuples as dict keys, sorting, frozensets."""
    t0 = perf_counter()
    d: dict = {}
    for i in range(400):
        k = ("k%d" % (i % 70), i % 7)
        d[k] = d.get(k, ()) + (i,)
    x = 0
    for _, v in sorted(d.items(), key=lambda kv: (len(kv[1]), kv[0])):
        for j in v:
            x = (x * 31 + j) % 1000003
    len({frozenset(range(i % 13)) for i in range(300)})
    return perf_counter() - t0


def run_pass(workload, parsed, ctx: Context, judge: Judge,
             counters: Optional[dict] = None,
             cal: Optional[list] = None) -> list[Row]:
    """One pass over the workload's query set; with tracing on, each call
    is wrapped in a span named after its layer.  Every row gets its scaled
    time, and the calibration samples are appended to `cal`."""
    rows: list[Row] = []
    gen = workload.queries(parsed, ctx)
    tracing = ctx.tracer.enabled
    block = 0  # first row not yet scaled

    def scale():
        nonlocal block
        c = calibrate()
        if cal is not None:
            cal.append(c)
        for r in rows[block:]:
            r.scaled = r.seconds * CAL_REF / c
        block = len(rows)

    try:
        q = next(gen)
    except StopIteration:
        return rows
    while True:
        t0 = perf_counter()
        try:
            q.out = ctx.tracer.call(q.layer, q.call) if tracing else q.call()
        except Exception as exc:  # judged below: library errors are outputs
            q.error = exc
        dt = perf_counter() - t0
        failed, summary = judge(q)
        rows.append(Row(q.layer, dt, failed, fingerprint(summary)))
        if len(rows) - block == CAL_EVERY:
            scale()
        if counters is not None:
            if q.counters is not None and q.ok:
                for name, value in q.counters(q.out).items():
                    counters[name] = counters.get(name, 0) + value
            if not q.ok:
                name = q.layer + ".failed"
                counters[name] = counters.get(name, 0) + 1
        try:
            q = gen.send(q)
        except StopIteration:
            if block < len(rows):
                scale()
            return rows


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    ten samples beyond it: the eleventh largest of N samples, which is the
    100*(N-10)/N-th percentile.  Fewer than eleven samples give the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(workload, parsed, judge: Judge, *, seconds: float = 0.0,
            passes: Optional[int] = None, proxied: bool = False,
            traced: bool = False) -> dict:
    """Exactly `passes` whole passes, or as many as fit into `seconds` (a
    pass starts only when the mean pass so far would still end in time, and
    there are at least `MIN_PASSES`), with oracles behind counting proxies
    when `proxied` or `traced`.

    Per query, its latency is the median of its scaled times over the
    passes.  The median, the tail and the throughput are taken over those
    per-query latencies, so every run reports on the same set of queries
    however many passes fit in the time.  `raw` holds the same figures
    from the unscaled times."""
    tracer = Tracer(enabled=traced)
    counters: dict = {}
    first: list[Row] = []
    outputs: list[str] = []
    times: list[array] = []
    scaled: list[array] = []
    proxies: list = []
    cal: list[float] = []
    failed = 0
    start = perf_counter()

    def more() -> bool:
        n = len(outputs)
        if passes is not None:
            return n < passes
        elapsed = perf_counter() - start
        return n < MIN_PASSES or elapsed * (n + 1) / n <= seconds

    while more():
        ctx = Context(proxied=proxied or traced, tracer=tracer)
        rows = run_pass(workload, parsed, ctx, judge,
                        counters if traced else None, cal)
        # only the first pass keeps its rows, so memory does not grow with
        # the number of passes
        first = first or rows
        outputs.append(digest("\n".join(f"{r.layer} {r.summary}" for r in rows)))
        times.append(array("d", (r.seconds for r in rows)))
        scaled.append(array("d", (r.scaled for r in rows)))
        failed += sum(r.failed for r in rows)
        proxies.extend(ctx.proxies)
    n_pass = len(outputs)
    n_query = min(map(len, times))

    def per_query(passes_: list[array]) -> list[float]:
        return [statistics.median(xs[i] for xs in passes_) for i in range(n_query)]

    return {
        "passes": n_pass,
        "first": first,
        "outputs": outputs,
        "seconds": times,
        "scaled": scaled,
        "attempted": sum(map(len, times)),
        "failed": failed,
        **summarize(per_query(scaled)),
        "raw": summarize(per_query(times)),
        "cal_s": statistics.median(cal),
        "cal_samples": len(cal),
        "queries": n_query,
        "tracer": tracer,
        "counters": {k: v / n_pass for k, v in counters.items()},
        "proxies": proxies,
    }


def summarize(per_query: list[float]) -> dict:
    """Throughput, median and tail of per-query latencies in seconds."""
    tail_value, tail_pct = tail(per_query)
    return {
        "ops_per_s": len(per_query) / sum(per_query),
        "op_p50_ms": 1e3 * statistics.median(per_query),
        "op_tail_ms": 1e3 * tail_value,
        "tail_percentile": tail_pct,
    }


def layer_metrics(result: dict) -> dict:
    """Per-layer numbers of a traced measurement, per pass."""
    n_pass = result["passes"]
    out: dict = {}
    for name, row in layer_times(result["tracer"].spans).items():
        for quantity, value in row.items():
            out[f"{name}.{quantity}"] = value / n_pass
    out.update(result["counters"])
    letters = sum(getattr(p, "letters", 0) for p in result["proxies"])
    out["oracles.member.letters"] = letters / n_pass
    return out
