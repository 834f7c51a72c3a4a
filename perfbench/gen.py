"""Seeded input generators.  They import nothing from lambekit: every input
is plain text or plain data, built from ``random.Random(seed)`` alone, so
the same seed gives the same inputs."""

from __future__ import annotations

import random

from check import bounded_language, fmt_sequent, fmt_type, parse_cfg_text

# --------------------------------------------------------------------------
# slash-sweep: the criterion-4 space


def slash_types() -> list:
    """The 22 /-only types of degree <= 2 over S and B, as text."""
    by_degree = {0: ["S", "B"]}
    for d in (1, 2):
        by_degree[d] = [
            ("/", a, b)
            for i in range(d)
            for a in by_degree[i]
            for b in by_degree[d - 1 - i]
        ]
    return [fmt_type(t) for d in (0, 1, 2) for t in by_degree[d]]


SWEEP_LENGTH4_SAMPLE = 10_000  # of the 22**4 = 234,256 length-4 antecedents


def slash_sweep(seed: int) -> list:
    """Index tuples (antecedent type indices, target index): every
    antecedent of length 1 to 3, then a seeded sample of length-4 ones, each
    with both targets (index 0 is S, 1 is B), shortest first as in
    criterion 4."""
    rng = random.Random(seed)
    n = 22
    ants = []
    for length in (1, 2, 3):
        for code in range(n**length):
            ants.append(_digits(code, n, length))
    for code in sorted(rng.sample(range(n**4), SWEEP_LENGTH4_SAMPLE)):
        ants.append(_digits(code, n, 4))
    return [(ant, target) for ant in ants for target in (0, 1)]


def _digits(code: int, base: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        code, d = divmod(code, base)
        out.append(d)
    return tuple(reversed(out))


# --------------------------------------------------------------------------
# full-prove: forward-built theorems and their adjacent-swap variants

_PRIMS = ("S", "B", "C", "D")


def _grow(rng: random.Random, budget: int):
    """A provable sequent with exactly ``budget`` connectives, built forward:
    every step instantiates one of the six rule schemas on provable
    premises, so the conclusion is provable by construction."""
    if budget == 0:
        p = rng.choice(_PRIMS)
        return (p,), p
    while True:
        rule = rng.choice(("/L", "\\L", "*L", "/R", "\\R", "*R", "/L", "\\L"))
        if rule in ("/L", "\\L", "*R"):
            left = rng.randint(0, budget - 1)
            (mant, mgoal), (jant, jgoal) = _grow(rng, left), _grow(rng, budget - 1 - left)
            if rule == "*R":
                return mant + jant, ("*", mgoal, jgoal)
            k = rng.randrange(len(jant))
            if rule == "/L":
                return jant[:k] + (("/", jant[k], mgoal),) + mant + jant[k + 1 :], jgoal
            return jant[:k] + mant + (("\\", mgoal, jant[k]),) + jant[k + 1 :], jgoal
        ant, goal = _grow(rng, budget - 1)
        if len(ant) < 2:
            continue
        if rule == "*L":
            i = rng.randrange(len(ant) - 1)
            return ant[:i] + (("*", ant[i], ant[i + 1]),) + ant[i + 2 :], goal
        if rule == "/R":
            return ant[:-1], ("/", goal, ant[-1])
        return ant[1:], ("\\", ant[0], goal)


PROVE_SIZES = range(4, 13)  # connectives per theorem
PROVE_PER_SIZE = 70
# The theorems come from this fixed seed, so every --seed gets the same mix
# of search costs; --seed renames the primitives and picks each variant's
# swap.
PROVE_CATALOGUE_SEED = 2026


def full_prove(seed: int) -> list:
    """(sequent text, known) pairs: ``known`` is True for a forward-built
    theorem and None for its adjacent-swap variant, whose verdict the
    checkers establish.  Every size in PROVE_SIZES gets the same number of
    theorems.  A swap keeps every primitive count, so the cheap invariant
    cannot reject it."""
    shapes = random.Random(PROVE_CATALOGUE_SEED)
    rng = random.Random(seed)
    names = dict(zip(_PRIMS, rng.sample(_PRIMS, len(_PRIMS))))
    out = []
    for size in PROVE_SIZES:
        made = 0
        while made < PROVE_PER_SIZE:
            ant, goal = _grow(shapes, size)
            swaps = [i for i in range(len(ant) - 1) if ant[i] != ant[i + 1]]
            if not swaps:
                continue
            i = rng.choice(swaps)
            variant = ant[:i] + (ant[i + 1], ant[i]) + ant[i + 2 :]
            out.append((_rename(fmt_sequent(ant, goal), names), True))
            out.append((_rename(fmt_sequent(variant, goal), names), None))
            made += 1
    return out


def _rename(text: str, names: dict) -> str:
    return "".join(names.get(ch, ch) for ch in text)


# --------------------------------------------------------------------------
# long-words: one long word per operation, members and near-misses

def _ladder(lo: int, hi: int, steps: int = 9) -> tuple:
    """``steps`` sizes from lo to hi in geometric progression: word costs
    then spread evenly on a log scale, so no percentile of the mix sits on
    a gap between two clusters of equal-cost words."""
    return tuple(round(lo * (hi / lo) ** (k / (steps - 1))) for k in range(steps))


# route -> (language, sizes n, word builder); each n gives one member and
# one near-miss that differs from it in one seeded position in the last
# tenth of the word, so that every route reads nearly the whole word before
# it can reject it.  The largest sizes take about half a second each.
LONG_WORD_ROUTES = {
    "lexicon_chart": ("anbn", _ladder(12, 44, 8), lambda n: "a" * n + "b" * n),
    "cyk": ("anbn", _ladder(12, 42, 8), lambda n: "a" * n + "b" * n),
    "gnf_dyck": ("dyck", tuple(range(9, 17)), lambda n: "l" * n + "r" * n),
    "linear_chart": ("anban", _ladder(50, 400, 8), lambda n: "a" * n + "b" + "a" * n),
    "nfa": ("abplus", _ladder(5_000, 40_000, 8), lambda n: "ab" * n),
    "gnf_anbn": ("anbn", _ladder(50, 400, 8), lambda n: "a" * n + "b" * n),
}

# a^n b^n at length >= 1,200 on the anbn.cfg GNF route: the recursive
# leftmost search overflows Python's stack on every one of these, whatever
# the seed, so they are counted as failed operations
LONG_WORD_OVERFLOW = ("a" * 600 + "b" * 600, "a" * 650 + "b" * 650)

_FLIP = {"a": "b", "b": "a", "l": "r", "r": "l"}


def long_words(seed: int) -> list:
    """(route, language, word) triples, in a fixed route order."""
    rng = random.Random(seed)
    out = []
    for route, (lang, sizes, build) in LONG_WORD_ROUTES.items():
        for n in sizes:
            word = build(n)
            out.append((route, lang, word))
            k = rng.randrange(len(word) - len(word) // 10, len(word))
            out.append((route, lang, word[:k] + _FLIP[word[k]] + word[k + 1 :]))
    out.extend(("gnf_anbn", "anbn", w) for w in LONG_WORD_OVERFLOW)
    return out


# --------------------------------------------------------------------------
# translate-crosscheck: fixed corpus grammars plus seeded random CFGs

CORPUS = {
    "anbn": "terminals: a b\nS -> a S B | a B\nB -> b\n",
    "anban": "terminals: a b\nS -> b | a S A\nA -> a\n",
    "anban_linear": "terminals: a b\nS -> a A | b\nA -> S a\n",
    "dyck": "terminals: l r\nS -> l S R S | l R S | l S R | l R\nR -> r\n",
    "aplus": "terminals: a\nS -> a S | a\n",
    "a_single": "terminals: a\nS -> a\n",
    "abplus": "terminals: a b\nS -> a B\nB -> b S | b\n",
    "ba_star": "terminals: a b\nS -> S a | b\n",
    "anbn_cyk": "terminals: a b\nS -> A B | A S B\nA -> a\nB -> b\n",
}

SAMPLE_GRAMMARS = ("anbn.cfg", "dyck.cfg", "anban.lcfg", "abplus.reg", "aplus.reg")

RANDOM_GRAMMARS = 40
CROSSCHECK_MAX_LEN = 6

# The random grammars' skeletons (where nonterminals sit) come from this
# fixed seed; --seed fills in the terminals.  Paull's GNF growth depends on
# the skeleton, not on which terminal fills a slot, so every seed gets the
# same mix of grammar sizes while the languages differ.
SKELETON_SEED = 2026
_NTS = ("N0", "N1", "N2")


def _skeleton(rng: random.Random) -> list:
    """Three nonterminals; each has a terminal rule ("?" marks a terminal
    slot) and one or two more that mix unit rules, left recursion and
    longer bodies."""
    rules = []
    for nt in _NTS:
        alts = [("?",)]
        for _ in range(rng.randint(1, 2)):
            shape = rng.choice(("unit", "left", "mixed", "mixed"))
            if shape == "unit":
                alts.append((rng.choice([x for x in _NTS if x != nt]),))
            elif shape == "left":
                alts.append((nt,) + tuple(rng.choices(_NTS + ("?",), k=rng.randint(1, 2))))
            else:
                alts.append(tuple(rng.choices(_NTS + ("?",), k=rng.randint(2, 3))))
        rules.append((nt, list(dict.fromkeys(alts))))
    return rules


def _fill(skeleton: list, rng: random.Random) -> str:
    lines = ["start: N0", "nonterminals: " + " ".join(_NTS), "terminals: a b"]
    for nt, alts in skeleton:
        bodies = [" ".join(rng.choice("ab") if s == "?" else s for s in alt) for alt in alts]
        lines.append(f"{nt} -> " + " | ".join(bodies))
    return "\n".join(lines) + "\n"


def random_grammars(seed: int) -> list:
    """Grammar texts, one per skeleton, filled until the language up to the
    crosscheck bound is neither empty nor everything (at most 20 tries), so
    the crosschecks have both verdicts to compare."""
    shapes = random.Random(SKELETON_SEED)
    skeletons = [_skeleton(shapes) for _ in range(RANDOM_GRAMMARS)]
    rng = random.Random(seed)
    everything = 2 ** (CROSSCHECK_MAX_LEN + 1) - 2
    out = []
    for skeleton in skeletons:
        for _ in range(20):
            text = _fill(skeleton, rng)
            if 0 < len(bounded_language(parse_cfg_text(text), CROSSCHECK_MAX_LEN)) < everything:
                break
        out.append(text)
    return out
