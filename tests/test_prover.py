import itertools
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from lambekit import (
    Backslash,
    CalculusConfig,
    CutEliminationError,
    FragmentError,
    FULL_CALCULUS,
    InvalidProofError,
    LINEAR_FRAGMENT,
    Primitive,
    Product,
    Proof,
    ProofEngine,
    REGULAR_FRAGMENT,
    Rule,
    Sequent,
    Slash,
    SLASH_FRAGMENT,
    StepLimitExceeded,
    TypeRestriction,
    eliminate_cut,
    parse_sequent,
    prove,
    validate,
)

import proofgen
from bruteforce import provable as naive
from test_core import types

S, B, A, C, D = (Primitive(x) for x in "SBACD")


def types_up_to(max_degree, prims, conns):
    """Every type over the primitives with degree <= max_degree."""
    by_deg = {0: list(prims)}
    for d in range(1, max_degree + 1):
        out = []
        for i in range(d):
            for a in by_deg[i]:
                for b in by_deg[d - 1 - i]:
                    if "/" in conns:
                        out.append(Slash(a, b))
                    if "\\" in conns:
                        out.append(Backslash(a, b))
                    if "*" in conns:
                        out.append(Product(a, b))
        by_deg[d] = out
    return [t for d in range(max_degree + 1) for t in by_deg[d]]


THEOREMS = [
    "S -> S",
    "S/B -> S/B",
    "S/B, B -> S",
    "B, B\\S -> S",
    "S/B, B/C, C -> S",
    "S/(B/D), B/C, C/D -> S",  # composition under the slash
    "B/C -> (B/A)/(C/A)",
    "B -> S/(B\\S)",  # lifting
    "S, B -> S*B",
    "S*B -> S*B",
    "S/B, B*C -> S*C",
    "A\\B, B\\S -> A\\S",
]

NON_THEOREMS = [
    "S -> B",
    "B, S/B -> S",
    "S/B, C -> S",
    "S -> S*S",
    "S -> S/(B/B)",  # blocked by the nonempty-antecedent side condition
    "S\\B -> S/B",
    "S*B -> B*S",
]


class TestVerdicts:
    @pytest.mark.parametrize("text", THEOREMS)
    def test_theorems(self, text):
        assert prove(parse_sequent(text), FULL_CALCULUS).provable

    @pytest.mark.parametrize("text", NON_THEOREMS)
    def test_non_theorems(self, text):
        assert not prove(parse_sequent(text), FULL_CALCULUS).provable

    def test_composition_needs_right_rules(self):
        # provable with all six rules, not with /L alone: the left-rule
        # fragment is weaker on exactly this kind of sequent
        s = parse_sequent("S/(B/D), B/C, C/D -> S")
        assert prove(s, FULL_CALCULUS).provable
        assert not prove(s, CalculusConfig(frozenset({Rule.SLASH_L}))).provable

    def test_product_theorem_needs_product_rules(self):
        s = parse_sequent("S, B -> S*B")
        no_prod = CalculusConfig(
            frozenset({Rule.SLASH_L, Rule.SLASH_R, Rule.BACK_L, Rule.BACK_R})
        )
        assert not prove(s, no_prod).provable


class TestQueryValidation:
    def test_empty_antecedent_rejected(self):
        with pytest.raises(FragmentError):
            prove(Sequent((), S), FULL_CALCULUS)

    def test_type_restriction_enforced(self):
        with pytest.raises(FragmentError):
            prove(Sequent((B >> S, B), S), SLASH_FRAGMENT)
        with pytest.raises(FragmentError):
            prove(Sequent(((S / B) / A, B), S), REGULAR_FRAGMENT)


class TestSearchProperties:
    def test_proof_is_sound_and_cut_free(self):
        eng = ProofEngine()
        for text in THEOREMS:
            s = parse_sequent(text)
            result = eng.prove(s, FULL_CALCULUS)
            assert result.proof.conclusion == s
            assert result.proof.cut_free
            assert validate(result.proof, FULL_CALCULUS) == []

    def test_deterministic_across_engines(self):
        s = parse_sequent("S/B, B/C, C -> S")
        p1 = ProofEngine().prove(s, FULL_CALCULUS).proof
        p2 = ProofEngine().prove(s, FULL_CALCULUS).proof
        assert p1 == p2

    def test_memo_returns_identical_proof(self):
        eng = ProofEngine()
        s = parse_sequent("S/B, B -> S")
        assert eng.prove(s, FULL_CALCULUS).proof is eng.prove(s, FULL_CALCULUS).proof

    def test_stats_count_work(self):
        eng = ProofEngine()
        s = parse_sequent("S/B, B -> S")
        first = eng.prove(s, FULL_CALCULUS)
        again = eng.prove(s, FULL_CALCULUS)
        assert first.stats.nodes_expanded > 0
        assert again.stats.nodes_expanded == 0 and again.stats.memo_hits == 1

    def test_concurrent_calls_match_sequential(self):
        # one engine, many threads: verdicts must be the sequential ones
        ts = types_up_to(2, (S, B), ("/", "\\"))
        batch = [
            Sequent(ant, tgt)
            for ant in itertools.product(ts, repeat=2)
            for tgt in (S, B)
        ]
        expected = [ProofEngine().prove(s, FULL_CALCULUS).provable for s in batch]
        shared = ProofEngine()
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(
                pool.map(lambda s: shared.prove(s, FULL_CALCULUS).provable, batch)
            )
        assert got == expected


def _count(t, sign, out) -> None:
    if type(t) is Primitive:
        out[t.name] += sign
    elif type(t) is Product:
        _count(t.left, sign, out)
        _count(t.right, sign, out)
    else:  # A/B and B\A: the result counts with the type, the argument against
        _count(t.result, sign, out)
        _count(t.arg, -sign, out)


def balanced(seq: Sequent) -> bool:
    """Each primitive occurs as often, by polarity, on both sides."""
    out = Counter()
    for t in seq.antecedent:
        _count(t, 1, out)
    _count(seq.consequent, -1, out)
    return not any(out.values())


def _theorems_and_variants(seed: int, count: int):
    """proofgen endsequents, each followed by one adjacent-swap variant
    (same counts, mostly unprovable) and one with a type dropped (counts
    usually off)."""
    rng = random.Random(seed)
    for allow_back in (False, True):
        for proof, config in proofgen.generate(seed, count, allow_back):
            seq = proof.conclusion
            yield seq, config
            ant = seq.antecedent
            if len(ant) > 1:
                k = rng.randrange(len(ant) - 1)
                swapped = ant[:k] + (ant[k + 1], ant[k]) + ant[k + 2 :]
                yield Sequent(swapped, seq.consequent), config
                k = rng.randrange(len(ant))
                yield Sequent(ant[:k] + ant[k + 1 :], seq.consequent), config


class TestCountInvariant:
    """Search only ever proves sequents whose primitive counts balance, and
    refutes an unbalanced query without expanding it."""

    def test_unbalanced_query_expands_nothing(self):
        eng = ProofEngine()
        seq = parse_sequent("S/B, B, B -> S")
        for _ in range(2):
            result = eng.prove(seq, FULL_CALCULUS)
            assert not result.provable and result.proof is None
            assert result.stats.nodes_expanded == 0
            assert result.stats.memo_hits == 0

    @pytest.mark.parametrize("seed", [3, 17])
    def test_proofgen_theorems_and_variants(self, seed):
        proved = refuted = 0
        for seq, config in _theorems_and_variants(seed, 40):
            for cfg in (config, FULL_CALCULUS):
                result = ProofEngine().prove(seq, cfg)
                if not balanced(seq):
                    assert not result.provable, seq
                    assert result.stats.nodes_expanded == 0, seq
                    refuted += 1
                if result.provable:
                    assert validate(result.proof, cfg) == []
                    for _, node in result.proof.nodes():
                        assert balanced(node.conclusion), node.conclusion
                    proved += 1
                if cfg is config and seq.connective_count <= 8:
                    assert result.provable == naive(seq, cfg.enabled_rules), seq
        assert proved > 80 and refuted > 0


class TestBudget:
    SEQUENTS = [
        "S/(B/D), B/C, C/D -> S",
        "A\\B, B\\S -> A\\S",
        "S/B, B*C -> S*C",
        "S*B -> B*S",
    ]

    @pytest.mark.parametrize("text", SEQUENTS)
    def test_overrun_memoizes_nothing_partial(self, text):
        seq = parse_sequent(text)
        fresh = ProofEngine().prove(seq, FULL_CALCULUS)
        needed = fresh.stats.nodes_expanded
        assert needed > 1
        assert ProofEngine().prove(seq, FULL_CALCULUS, max_steps=needed).proof == fresh.proof
        for steps in range(needed):
            eng = ProofEngine()
            with pytest.raises(StepLimitExceeded):
                eng.prove(seq, FULL_CALCULUS, max_steps=steps)
            again = eng.prove(seq, FULL_CALCULUS)
            assert again.provable == fresh.provable
            assert again.proof == fresh.proof


class TestAgainstBruteforce:
    """The engine must match a naive, memo-free enumerator exactly."""

    def test_exhaustive_small_sequents(self):
        eng = ProofEngine()
        ts = types_up_to(2, (S, B), ("/", "\\", "*"))
        checked = 0
        for length in (1, 2):
            for ant in itertools.product(ts, repeat=length):
                for tgt in (S, B):
                    seq = Sequent(ant, tgt)
                    if seq.connective_count > 4:
                        continue
                    assert (
                        eng.prove(seq, FULL_CALCULUS).provable
                        == naive(seq, FULL_CALCULUS.enabled_rules)
                    ), seq
                    checked += 1
        assert checked > 40000

    @pytest.mark.parametrize(
        "rules",
        [
            frozenset({Rule.SLASH_L}),
            frozenset({Rule.SLASH_L, Rule.BACK_L}),
            frozenset({Rule.SLASH_L, Rule.SLASH_R}),
            frozenset(
                {Rule.SLASH_L, Rule.SLASH_R, Rule.BACK_L, Rule.BACK_R}
            ),
        ],
    )
    def test_rule_subsets_match(self, rules):
        eng = ProofEngine()
        config = CalculusConfig(rules)
        ts = types_up_to(2, (S, B), ("/", "\\"))
        checked = 0
        for ant in itertools.product(ts, repeat=2):
            seq = Sequent(ant, S)
            if seq.connective_count > 3:
                continue
            assert eng.prove(seq, config).provable == naive(seq, rules), seq
            checked += 1
        assert checked > 500

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_deeper_sequents(self, data):
        ant = data.draw(st.lists(types(), min_size=1, max_size=3))
        tgt = data.draw(types())
        seq = Sequent(tuple(ant), tgt)
        if seq.connective_count > 7:
            return
        assert (
            prove(seq, FULL_CALCULUS).provable
            == naive(seq, FULL_CALCULUS.enabled_rules)
        )

    def test_rule_monotonicity(self):
        # anything provable with fewer rules stays provable with more
        eng = ProofEngine()
        small = CalculusConfig(frozenset({Rule.SLASH_L}))
        ts = types_up_to(2, (S, B), ("/",))
        for ant in itertools.product(ts, repeat=2):
            seq = Sequent(ant, S)
            if seq.connective_count > 4:
                continue
            if eng.prove(seq, small).provable:
                assert eng.prove(seq, FULL_CALCULUS).provable, seq


class TestValidate:
    def _slash_l(self):
        ax_b = Proof(Sequent((B,), B), Rule.AXIOM, ())
        ax_s = Proof(Sequent((S,), S), Rule.AXIOM, ())
        return Proof(Sequent((S / B, B), S), Rule.SLASH_L, (ax_b, ax_s), position=0)

    def test_accepts_good_proof(self):
        assert validate(self._slash_l(), SLASH_FRAGMENT) == []

    def test_flags_wrong_conclusion(self):
        ax_b = Proof(Sequent((B,), B), Rule.AXIOM, ())
        bad_major = Proof(Sequent((S,), B), Rule.AXIOM, ())
        proof = Proof(
            Sequent((S / B, B), S), Rule.SLASH_L, (ax_b, bad_major), position=0
        )
        issues = validate(proof, SLASH_FRAGMENT)
        assert issues
        assert any("conclusion" in str(v) for v in issues)
        # the bogus axiom inside is reported with its path
        assert any(str(v).startswith("node 1") for v in issues)

    def test_flags_disabled_rule(self):
        proof = self._slash_l()
        config = CalculusConfig(frozenset({Rule.BACK_L}))
        issues = validate(proof, config)
        assert any("not enabled" in str(v) for v in issues)

    def test_flags_cut_unless_allowed(self):
        ax = Proof(Sequent((S,), S), Rule.AXIOM, ())
        cut = Proof(Sequent((S,), S), Rule.CUT, (ax, ax), position=0)
        assert any("cut" in str(v).lower() for v in validate(cut, SLASH_FRAGMENT))
        permissive = CalculusConfig(
            frozenset({Rule.SLASH_L}), allow_cut_in_validation=True
        )
        assert validate(cut, permissive) == []

    def test_flags_empty_antecedent_side_condition(self):
        ax = Proof(Sequent((B,), B), Rule.AXIOM, ())
        proof = Proof(Sequent((), B / B), Rule.SLASH_R, (ax,), position=None)
        issues = validate(proof, FULL_CALCULUS)
        assert any("side condition" in str(v) for v in issues)

    def test_flags_wrong_arity(self):
        ax = Proof(Sequent((B,), B), Rule.AXIOM, ())
        proof = Proof(Sequent((S / B, B), S), Rule.SLASH_L, (ax,), position=0)
        assert any("premise" in str(v) for v in validate(proof, SLASH_FRAGMENT))

    def test_flags_bad_position(self):
        ax_b = Proof(Sequent((B,), B), Rule.AXIOM, ())
        ax_s = Proof(Sequent((S,), S), Rule.AXIOM, ())
        proof = Proof(
            Sequent((S / B, B), S), Rule.SLASH_L, (ax_b, ax_s), position=1
        )
        assert validate(proof, SLASH_FRAGMENT)

    def test_flags_type_restriction(self):
        ax = Proof(Sequent((S * B,), S * B), Rule.AXIOM, ())
        issues = validate(ax, SLASH_FRAGMENT)
        assert any("restriction" in str(v) for v in issues)

    def test_axiom_allowed_for_compound_types(self):
        ax = Proof(Sequent((S / B,), S / B), Rule.AXIOM, ())
        assert validate(ax, SLASH_FRAGMENT) == []

    def test_violation_paths(self):
        bad = Proof(Sequent((S,), B), Rule.AXIOM, ())
        outer = Proof(Sequent((S,), B), Rule.CUT, (bad, bad), position=0)
        issues = validate(outer, FULL_CALCULUS)
        paths = {str(v).split(":")[0] for v in issues}
        assert "root" in paths


class TestEliminateCut:
    def _cut_proof(self):
        ax_b = Proof(Sequent((B,), B), Rule.AXIOM, ())
        ax_s = Proof(Sequent((S,), S), Rule.AXIOM, ())
        major = Proof(
            Sequent((S / B, B), S), Rule.SLASH_L, (ax_b, ax_s), position=0
        )
        return Proof(
            Sequent((S / B, B), S), Rule.CUT, (major, ax_b), position=1
        )

    def test_cut_free_input_returned_unchanged(self):
        proof = Proof(Sequent((S,), S), Rule.AXIOM, ())
        config = CalculusConfig(frozenset({Rule.SLASH_L}))
        assert eliminate_cut(proof, config) is proof

    def test_removes_cut(self):
        config = CalculusConfig(frozenset({Rule.SLASH_L}))
        result = eliminate_cut(self._cut_proof(), config)
        assert result.cut_free
        assert result.conclusion == parse_sequent("S/B, B -> S")
        assert validate(result, config) == []

    def test_rejects_invalid_proof(self):
        config = CalculusConfig(frozenset({Rule.SLASH_L}))
        bad = Proof(Sequent((S,), B), Rule.AXIOM, ())
        with pytest.raises(InvalidProofError):
            eliminate_cut(bad, config)

    def test_rejects_unsupported_rule_sets(self):
        config = CalculusConfig(frozenset({Rule.SLASH_L, Rule.PROD_L}))
        with pytest.raises(FragmentError):
            eliminate_cut(self._cut_proof(), config)

    @pytest.mark.parametrize("allow_back", [False, True])
    def test_random_batches(self, allow_back):
        for proof, config in proofgen.generate(21, 60, allow_back):
            assert validate(proof, config) == []
            result = eliminate_cut(proof, config)
            assert result.cut_free
            assert result.conclusion == proof.conclusion
            assert validate(result, config) == []

    def test_full_calculus_proofs_supported(self):
        s = parse_sequent("S/B, B -> S")
        base = prove(s, FULL_CALCULUS).proof
        ax = Proof(Sequent((S,), S), Rule.AXIOM, ())
        with_cut = Proof(s, Rule.CUT, (ax, base), position=0)
        result = eliminate_cut(with_cut, FULL_CALCULUS)
        assert result.cut_free and result.conclusion == s
