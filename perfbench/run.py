"""lambekit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  The package is
imported from ``src/`` of that checkout.  Untraced (``--trace 0``), the
last line of standard output is a JSON object with the end-to-end metrics;
traced (``--trace 1``), it carries the per-layer metrics instead.  Results
and span files go to ``perfbench/out/``.  Exit status: 0 when every check
passed, 1 when a verdict, proof or GNF output was wrong, 2 on bad usage or
a checkout without the package.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import check
from spans import Tracer
from workloads import WORKLOADS, Api

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is repeated this many times per run and its median reported: a
# single interpreter cold start varies by more than a tenth between runs
SETUPS = 9


def import_lambekit():
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "lambekit" or m.startswith("lambekit.")]:
        del sys.modules[name]
    import lambekit

    if not os.path.abspath(lambekit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lambekit came from {lambekit.__file__}, not from {SRC}")
    return lambekit


def _third_quartile(xs) -> float:
    return statistics.quantiles(xs, n=4, method="inclusive")[2] if len(xs) > 1 else xs[0]


def _wrong(verdict):
    if isinstance(verdict, tuple):
        return (not verdict[0],) + verdict[1:]
    return not verdict


def verdict_errors(verdicts: list, want: dict) -> list:
    return [
        f"operation {k}: got {str(verdicts[k])[:60]}, expected {str(expected)[:60]}"
        for k, expected in want.items()
        if verdicts[k] != expected
    ]


def _axiom(t) -> tuple:
    return ((t,), t, "axiom", None, [])


# S/B, B/C, C -> S by two /L steps, in check.py's node form
_KNOWN_PROOF = (
    (("/", "S", "B"), ("/", "B", "C"), "C"),
    "S",
    "/L",
    0,
    [((("/", "B", "C"), "C"), "B", "/L", 0, [_axiom("C"), _axiom("B")]), _axiom("S")],
)


def self_test(verdicts: list, want: dict) -> list:
    """Plant one wrong verdict and one wrong proof step; both must be caught."""
    errors = []
    planted = list(verdicts)
    k = min(want)
    planted[k] = _wrong(planted[k])
    if not verdict_errors(planted, want):
        errors.append("self-test: a planted wrong verdict went unnoticed")
    if check.check_proof(_KNOWN_PROOF):
        errors.append("self-test: a correct proof was rejected")
    ant, goal, rule, position, premises = _KNOWN_PROOF
    if not check.check_proof((ant, goal, rule, position + 1, premises)):
        errors.append("self-test: a planted wrong proof step went unnoticed")
    return errors


def per_layer(workload, tracer, traced_seconds: float, untraced_seconds: float) -> dict:
    ms, c = tracer.self_ms(), tracer.counts
    hits, expanded = c["prover.memo_hits"], c["prover.nodes_expanded"]
    values = {
        "syntax.parse_ms": ms.get("syntax.parse", 0.0),
        "syntax.format_ms": ms.get("syntax.format", 0.0),
        "core.sequent_ms": ms.get("core.sequent", 0.0),
        "prover.search_ms": ms.get("prover.search", 0.0),
        "prover.nodes_expanded": expanded,
        "prover.memo_hits": hits,
        "prover.memo_hit_ratio": hits / (hits + expanded) if hits + expanded else 0.0,
        # one engine serves the whole slash-sweep round; full-prove gives
        # every operation a fresh engine, so its largest memo is one query's
        "prover.memo_entries": expanded if workload.SHARED_ENGINE else c["prover.max_expanded"],
        "recognizer.reduce_ms": ms.get("recognizer.reduce", 0.0),
        "recognizer.chart_ops": c["recognizer.chart_ops"],
        "recognizer.shared_entries": getattr(workload, "shared_entries", 0),
        "oracle.slash_chart_ms": ms.get("oracle.slash_chart", 0.0),
        "oracle.cyk_ms": ms.get("oracle.cyk", 0.0),
        "oracle.gnf_search_ms": ms.get("oracle.gnf_search", 0.0),
        "oracle.linear_chart_ms": ms.get("oracle.linear_chart", 0.0),
        "oracle.nfa_ms": ms.get("oracle.nfa", 0.0),
        "oracle.words_decided": c["oracle.words_decided"],
        "oracle.crosscheck_self_ms": ms.get("oracle.crosscheck", 0.0),
        "transform.to_gnf_ms": ms.get("transform.to_gnf", 0.0),
        "transform.gnf_productions": c["transform.gnf_productions"],
        "transform.translate_ms": ms.get("transform.translate", 0.0),
        "transform.lexicon_types": c["transform.lexicon_types"],
        "cli.load_ms": ms.get("cli.load", 0.0),
        "trace.overhead_pct": 100.0 * (traced_seconds - untraced_seconds) / untraced_seconds,
    }
    units = {"_ms": "ms", "_ratio": "ratio", "_pct": "%"}
    return {
        name: (value, next((u for s, u in units.items() if name.endswith(s)), "count"))
        for name, value in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lambekit", "__init__.py")):
        print(f"perfbench: no lambekit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    setup_times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        lk = import_lambekit()
        api = Api(lk)
        workload.setup(lk, api)
        setup_times.append(perf_counter() - t0)

    errors = []
    started = perf_counter()
    rounds = [workload.run_round(api)]
    first = rounds[0]
    while perf_counter() - started < args.seconds:
        later = workload.run_round(api)
        if later.verdicts != first.verdicts:
            errors.append(f"round {len(rounds)} gave other verdicts than round 0")
        # only the first round's outputs are checked and kept, so memory
        # does not grow with the number of rounds
        later.verdicts = later.outputs = None
        rounds.append(later)
    elapsed = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    want, check_errors = workload.expected(first)
    errors += check_errors + verdict_errors(first.verdicts, want)
    errors += self_test(first.verdicts, want)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # Each round times the same operations in the same order.  An operation
    # (or batch) counts at the third quartile of its times over the rounds:
    # this machine runs at one speed with bursts up to half as fast again,
    # and that quartile, the time outside the bursts, repeated best between
    # runs.  Percentiles are taken over operations; throughput is the rate
    # of a round made of those times.
    latencies = [_third_quartile(xs) for xs in zip(*(r.latencies_ms for r in rounds))]
    sizes = first.batch_sizes or [1] * len(latencies)
    busy_ms = sum(ms * n for ms, n in zip(latencies, sizes))
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = Tracer()
        traced_api = Api(lk, tracer)
        workload.setup(lk, traced_api)
        traced = workload.run_round(traced_api)
        if traced.verdicts != first.verdicts:
            errors.append("verdicts changed under tracing")
        tracer.write(os.path.join(OUT, f"spans-{stem}.json"))
        untraced = statistics.median(r.seconds for r in rounds)
        metrics = per_layer(workload, tracer, traced.seconds, untraced)
    else:
        metrics = {
            "throughput_per_s": (1000.0 * sum(sizes) / busy_ms, "1/s"),
            "latency_ms_p50": (statistics.median(latencies), "ms"),
            "latency_ms_p90": (statistics.quantiles(latencies, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    for message in errors[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(f"{len(rounds)} rounds, {attempted} operations, {failed} failed, {elapsed:.2f} s")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "setup_seconds": setup_times,
        "round_seconds": [r.seconds for r in rounds],
        "round_latencies_ms": [r.latencies_ms for r in rounds],
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump({**result, "rounds": detail}, f)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
