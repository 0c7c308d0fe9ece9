"""The benchmark: one command, two workloads, every output checked.

    python3 perfbench/run.py --workload automata --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/``.  Each workload is a closed loop with one client.  Generated text
inputs come from the seed; the library only sees the parsed inputs.  A run
does

1. set-up, several times in fresh interpreters: import ``omegaword`` and
   parse the inputs; `setup_s` is the median;
2. one checking pass with every oracle behind a counting proxy;
3. whole measured passes, oracles unwrapped, until ``--seconds`` (counted
   from the start of the checking pass) are used; every output is judged
   again and must equal the checking pass's output, which shows the proxies
   are transparent.  Each operation's latency is the median over the
   passes of its time scaled by the calibration sample after its block;
4. with ``--trace 1``, two more passes with a span around every call into a
   layer; it reports per-layer metrics and the tracing overhead, and writes
   the spans to ``.perfbench/``.

The command re-executes itself with ``PYTHONHASHSEED`` fixed.  The last
line of standard output is one JSON object.  The exit status is 0
when every output checked out, 1 on a mismatch, 2 on a usage error or when
there is no library to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("automata", "classes")
SETUP_RUNS = 9
HASH_SEED = "0"
TRACED_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, the unit of each, and the end-to-end metric it should
# move.  Times and counts are per pass.
PER_LAYER: dict = {}


def _layer(names, unit, moves):
    for name in names:
        PER_LAYER[name] = (unit, moves)


for _fn in ("transition_monoid", "complement", "is_empty", "accepts_up", "product"):
    _layer([f"buchi.{_fn}.s"], "s", "automata ops_per_s, op_tail_ms, op_p50_ms")
    _layer([f"buchi.{_fn}.calls"], "count", "automata ops_per_s")
_layer(["buchi.transition_monoid.elements", "buchi.complement.states_out",
        "buchi.product.states_out"], "count", "automata op_tail_ms")
_layer(["buchi.complement.failed"], "count", "automata ok_frac")
for _fn in ("compile_to_buchi", "mso_satisfiable", "evaluate"):
    _layer([f"mso.{_fn}.s"], "s", "automata op_tail_ms, ops_per_s")
    _layer([f"mso.{_fn}.calls"], "count", "automata ops_per_s")
_layer(["mso.compile_to_buchi.states_out"], "count", "automata op_tail_ms")
_layer(["mso.compile_to_buchi.failed"], "count", "automata ok_frac")
for _fn in ("partition", "check_condition1", "lemma_repair",
            "check_condition2_bounded", "profile_kernel_classifier"):
    _layer([f"congruence.{_fn}.s", f"congruence.{_fn}.self_s"], "s",
           "classes ops_per_s, op_tail_ms")
    _layer([f"congruence.{_fn}.calls"], "count", "classes ops_per_s")
_layer(["congruence.partition.classes", "congruence.partition.non_transitive",
        "congruence.partition.pairs", "congruence.lemma_repair.merges"],
       "count", "classes op_tail_ms")
_layer(["congruence.partition.member_calls"], "count",
       "classes op_tail_ms; over congruence.partition.pairs, the query waste")
_layer(["congruence.partition.failed"], "count", "classes ok_frac")
_layer(["oracles.member.calls", "oracles.member.letters", "oracles.violation.calls"],
       "count", "classes ops_per_s")
_layer(["oracles.member.s", "oracles.violation.s"], "s", "classes ops_per_s")
_layer(["game.play_bounded.s", "game.play_bounded.self_s", "game.adjudicate.s",
        "game.validate_transcript.s", "game.transcript_json.s"], "s",
       "classes ops_per_s, op_p50_ms")
_layer(["game.play_bounded.calls", "game.play_bounded.rounds",
        "game.play_bounded.forfeits"], "count", "classes ops_per_s")
_layer(["game.transcript_json.bytes"], "bytes", "classes ops_per_s")
for _fn in ("member_L2", "member_L1"):
    _layer([f"trio.{_fn}.s", f"trio.{_fn}.self_s"], "s", "classes op_p50_ms")
    _layer([f"trio.{_fn}.calls"], "count", "classes op_p50_ms")
_layer(["trio.language.calls"], "count", "classes op_p50_ms")
_layer(["cli.import_ms", "cli.run_ms", "cli.startup_ms"], "ms",
       "setup_s everywhere (measured in the classes traced run)")
_layer(["cli.stdout_bytes"], "bytes", "none: output size of the cli children")
_layer(["trace.overhead_frac"], "frac", "none: cost of tracing itself")
_layer(["trace.spans"], "count", "none: spans per pass")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


def _setup_once(workload, data) -> float:
    t0 = perf_counter()
    importlib.import_module("omegaword")
    workload.parse(data)
    return perf_counter() - t0


def _setup_runs(args) -> list[float]:
    """Set-up timed in fresh interpreters, one after the other."""
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "omegaword" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    workload = importlib.import_module("w_" + args.workload)
    data = workload.inputs(args.seed)
    if args.setup_only:
        print(repr(_setup_once(workload, data)))
        return 0

    from harness import CAL_REF, Judge, layer_metrics, measure

    setups = _setup_runs(args)
    parsed = workload.parse(data)
    golden = json.loads((HERE / "golden" / f"{args.workload}.json").read_text())
    judge = Judge(golden)
    start = perf_counter()
    check = measure(workload, parsed, judge, passes=1, proxied=True)
    main_run = measure(workload, parsed, judge,
                       seconds=args.seconds - (perf_counter() - start))
    if any(d != check["outputs"][0] for d in main_run["outputs"]):
        judge.mismatches.append("outputs differ with and without the proxies")

    attempted, failed = main_run["attempted"], main_run["failed"]
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main_run["ops_per_s"],
        "op_p50_ms": main_run["op_p50_ms"],
        "op_tail_ms": main_run["op_tail_ms"],
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "revision": _revision(),
        "passes": main_run["passes"], "queries": main_run["queries"],
        "tail_percentile": main_run["tail_percentile"],
        "failed_frac": failed / attempted, "setup_runs": setups,
        "raw": main_run["raw"], "cal_ref_ms": 1e3 * CAL_REF,
        "cal_ms": 1e3 * main_run["cal_s"],
        "cal_samples": main_run["cal_samples"],
        "failed_by_layer": _failed_by_layer(main_run["first"]),
        "recovered": sorted(set(judge.recovered)), "end_to_end": e2e,
    }
    if args.trace:
        traced = measure(workload, parsed, judge, traced=True,
                         passes=TRACED_PASSES)
        layers = layer_metrics(traced)
        if hasattr(workload, "layer_metrics"):
            layers.update(workload.layer_metrics(parsed, judge))
        layers["trace.overhead_frac"] = 1.0 - traced["ops_per_s"] / main_run["ops_per_s"]
        layers["trace.spans"] = len(traced["tracer"].spans) / traced["passes"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        spans = traced["tracer"].spans
        t0 = spans[0][1] if spans else 0.0
        _write(f"spans-{args.workload}-{args.seed}.json", {
            "run": record, "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[n, round(1e6 * (s - t0)), round(1e6 * (e - t0)), p]
                      for n, s, e, p in spans]})
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record["mismatches"] = judge.mismatches[:50]
    _write(f"run-{args.workload}-{args.seed}-{args.trace}.json", record)

    _report(record, e2e)
    correct = not judge.mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _failed_by_layer(rows) -> dict:
    out: dict = {}
    for r in rows:
        if r.failed:
            out[r.layer] = out.get(r.layer, 0) + 1
    return out


def _write(name: str, doc: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, separators=(",", ":")))


def _report(record: dict, e2e: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['passes']} passes of {record['queries']} operations; "
          f"nproc {record['nproc']}, python {record['python']}, "
          f"revision {record['revision']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:12s} {e2e[name]:14.6g} {unit}")
    print(f"  failed_frac  {record['failed_frac']:14.6g} (failed per pass: "
          f"{record['failed_by_layer'] or 'none'})")
    print(f"  op_tail_ms is the {record['tail_percentile']:.2f}th percentile "
          f"of {record['queries']} per-operation latencies")
    raw = record["raw"]
    print(f"  times are scaled by {record['cal_ref_ms']:.3g} ms over the calibration "
          f"sample after their block (median {record['cal_ms']:.4g} ms of "
          f"{record['cal_samples']}); unscaled: "
          f"ops_per_s {raw['ops_per_s']:.6g}, op_p50_ms {raw['op_p50_ms']:.6g}, "
          f"op_tail_ms {raw['op_tail_ms']:.6g}")
    for key in record["recovered"]:
        print(f"  note: {key} failed when the goldens were recorded and now succeeds")
    for m in record["mismatches"]:
        print(f"  MISMATCH {m}")
    for name, value in record.get("per_layer", {}).items():
        unit, moves = PER_LAYER[name]
        print(f"  {name:45s} {value:14.6g} {unit:6s} -> {moves}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # every run gets the same hash seed: set and dict layouts, and with
        # them the speed of the many tiny operations, otherwise differ from
        # one process to the next
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
