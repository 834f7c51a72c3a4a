"""Reference curves for the README, one process, single runs:

    python3 perfbench/curves.py [--full-sweep]

* aⁿbⁿ membership time by route: the /-lexicon chart on samples/anbn.lex,
  CYK on a non-GNF grammar, the GNF route on samples/anbn.cfg;
* the Dyck GNF-route curve on samples/dyck.cfg against CYK, with peak RSS;
* with --full-sweep, the whole criterion-4 space (490,820 sequents): time
  in ProofEngine.prove against time in reduce_slash, and the memo sizes.

These are single measurements for orientation; the benchmark proper is
run.py.
"""

from __future__ import annotations

import itertools
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lambekit as lk  # noqa: E402

import gen  # noqa: E402


def timed(fn, *args):
    t0 = perf_counter()
    try:
        value = fn(*args)
    except RecursionError:
        value = "RecursionError"
    return value, 1000.0 * (perf_counter() - t0)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def anbn_curves() -> None:
    lexicon = lk.load_grammar_file(os.path.join(ROOT, "samples", "anbn.lex"))
    gnf = lk.load_grammar_file(os.path.join(ROOT, "samples", "anbn.cfg"))
    cyk = lk.parse_grammar_file(gen.CORPUS["anbn_cyk"])
    print("a^n b^n, ms per word (fresh decider)")
    print(f"{'n':>5} {'lexicon chart':>14} {'CYK':>10} {'GNF route':>16}")
    for n in (25, 50, 75, 100, 600):
        word = "a" * n + "b" * n
        row = [f"{n:5d}"]
        for route, decider in (("lex", lk.LambekDecider(lexicon)), ("cyk", lk.CfgDecider(cyk))):
            if n > 100:
                row.append(f"{'-':>14}" if route == "lex" else f"{'-':>10}")
                continue
            verdict, ms = timed(decider, word)
            row.append(f"{ms:14.1f}" if route == "lex" else f"{ms:10.1f}")
        verdict, ms = timed(lk.CfgDecider(gnf), word)
        row.append(f"{ms:16.1f}" if verdict is True else f"{verdict:>16}")
        print(" ".join(row))


def dyck_curve() -> None:
    dyck = lk.load_grammar_file(os.path.join(ROOT, "samples", "dyck.cfg"))
    print("\nl^n r^n on samples/dyck.cfg, ms per word (fresh decider)")
    print(f"{'n':>5} {'GNF route':>10} {'peak RSS MB':>12} {'CYK':>8}")
    for n in (10, 12, 14, 16, 18, 20):
        word = "l" * n + "r" * n
        _, ms = timed(lk.CfgDecider(dyck), word)
        _, cyk_ms = timed(lk.CfgDecider(dyck, method="cyk"), word)
        print(f"{n:5d} {ms:10.1f} {rss_mb():12.1f} {cyk_ms:8.1f}")


def full_sweep() -> None:
    types = [lk.parse_type(t) for t in gen.slash_types()]
    engine, shared = lk.ProofEngine(), {}
    prove_s = chart_s = 0.0
    checked = provable = expanded = 0
    for length in (1, 2, 3, 4):
        for ant in itertools.product(types, repeat=length):
            for target in types[:2]:
                t0 = perf_counter()
                result = engine.prove(lk.Sequent(ant, target), lk.SLASH_FRAGMENT)
                t1 = perf_counter()
                charted = lk.reduce_slash(ant, target, lk.ReductionTable(ant, shared=shared))
                t2 = perf_counter()
                assert charted == result.provable
                prove_s += t1 - t0
                chart_s += t2 - t1
                checked += 1
                provable += result.provable
                expanded += result.stats.nodes_expanded
    print(f"\ncriterion 4: {checked} sequents, {provable} provable")
    print(f"  ProofEngine.prove {prove_s:.2f} s, memo entries {expanded}")
    print(f"  reduce_slash      {chart_s:.2f} s, shared entries {len(shared)}")
    print(f"  peak RSS {rss_mb():.0f} MB")


if __name__ == "__main__":
    anbn_curves()
    dyck_curve()
    if "--full-sweep" in sys.argv[1:]:
        full_sweep()
