import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lambekit import (
    Backslash,
    FragmentError,
    LINEAR_FRAGMENT,
    Primitive,
    ProofEngine,
    REGULAR_FRAGMENT,
    ReductionTable,
    Sequent,
    Slash,
    SLASH_FRAGMENT,
    format_proof,
    reduce_linear,
    reduce_regular,
    reduce_slash,
    reduce_slash_proof,
    validate,
)

from test_prover import types_up_to

S, B, A = Primitive("S"), Primitive("B"), Primitive("A")

SLASH_TYPES = types_up_to(2, (S, B), ("/",))  # 22 of them
DEG1_SLASH = types_up_to(1, (S, B), ("/",))  # 6
DEG1_BOTH = types_up_to(1, (S, B), ("/", "\\"))  # 10


def slash_types(max_leaves=4):
    return st.recursive(
        st.sampled_from([S, B]),
        lambda kids: st.builds(Slash, kids, kids),
        max_leaves=max_leaves,
    )


class TestReduceSlash:
    def test_examples(self):
        assert reduce_slash([S], S)
        assert reduce_slash([S / B, B], S)
        assert reduce_slash([(S / B) / S, S, B], S)
        assert reduce_slash([(S / B) / S, S / B, B, B], S)
        assert not reduce_slash([S], B)
        assert not reduce_slash([B, S / B], S)
        assert not reduce_slash([S / B], S)
        # composition is invisible to the left-rule reduction
        C, D = Primitive("C"), Primitive("D")
        assert not reduce_slash(
            [Slash(S, B / D), B / C, C / D], S,
        )

    def test_complex_target(self):
        assert reduce_slash([(S / B) / S, S], S / B)
        assert reduce_slash([S / B], S / B)
        assert not reduce_slash([S], S / B)

    def test_rejects_off_fragment_input(self):
        with pytest.raises(FragmentError):
            reduce_slash([Backslash(B, S), B], S)
        with pytest.raises(FragmentError):
            reduce_slash([S], Backslash(B, S))
        with pytest.raises(FragmentError):
            reduce_slash([], S)

    def test_agrees_with_prover_exhaustively(self):
        eng = ProofEngine()
        checked = 0
        for length in (1, 2, 3):
            for ant in itertools.product(SLASH_TYPES, repeat=length):
                seq = Sequent(ant, S)
                if seq.connective_count > 4:
                    continue
                want = eng.prove(seq, SLASH_FRAGMENT).provable
                assert reduce_slash(ant, S) == want, seq
                checked += 1
        assert checked == 22 + 484 + 3480

    @given(st.lists(slash_types(), min_size=1, max_size=4), st.sampled_from([S, B]))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_prover_random(self, ant, tgt):
        seq = Sequent(tuple(ant), tgt)
        if seq.connective_count > 8:
            return
        want = ProofEngine().prove(seq, SLASH_FRAGMENT).provable
        assert reduce_slash(ant, tgt) == want

    def test_table_keeps_nothing_between_queries(self):
        ant = ((S / B) / S, S / B, B, B)
        given_map = {}
        t1 = ReductionTable(ant, given_map)
        assert t1.reduce(0, len(ant), S)
        t2 = ReductionTable(ant, given_map)
        assert t2.reduce(0, len(ant), S)
        assert t2.ops == t1.ops
        assert given_map == {}

    def test_rejects_table_for_another_sequence(self):
        # a provable query on an unprovable table, and the other way round
        with pytest.raises(FragmentError):
            reduce_slash([B], B, ReductionTable([S / B, B]))
        with pytest.raises(FragmentError):
            reduce_slash([S / B], S, ReductionTable([S]))


@pytest.mark.parametrize(
    "reduce,seq,target,message",
    [
        (reduce_slash, [S], B >> S, "target B\\S uses connectives other than /"),
        # the target is checked before the sequence
        (reduce_slash, [S * B], S * B, "target S*B uses connectives other than /"),
        (reduce_slash, [S, B >> S, S * B], S, "type B\\S uses connectives other than /"),
        # no count check stands in for the fragment check: B\S, S -> B is unbalanced
        (reduce_slash, [B >> S, S], B, "type B\\S uses connectives other than /"),
        (reduce_slash_proof, [S / B, B * S], S, "type B*S uses connectives other than /"),
        (reduce_linear, [S / B, (S / B) / S, S], S, "type S/B/S is not a degree-one {/, \\} type"),
        (reduce_linear, [B >> (S / B)], S, "type B\\(S/B) is not a degree-one {/, \\} type"),
        (reduce_linear, [(S / B) / S], S / B, "target must be primitive, got S/B"),
        (reduce_linear, [S], A >> S, "target must be primitive, got A\\S"),
        (reduce_regular, [S, (S / B) / B], S, "type S/B/B is not a degree-one /-only type"),
        (reduce_regular, [S, B >> S], S, "type B\\S is not a degree-one /-only type"),
        (reduce_regular, [S], S / B, "target must be primitive, got S/B"),
    ],
)
def test_fragment_error_names_the_first_offending_type(reduce, seq, target, message):
    with pytest.raises(FragmentError) as err:
        reduce(seq, target)
    assert str(err.value) == message


def test_slash_chart_proofs_match_their_golden_digest():
    """Every criterion-4 sequent with at most three antecedent types, both
    targets, in order: its ``reduce_slash_proof`` text, or "-" when there is
    none.  A change to how the chart walks a spine (which arguments it
    reads, in what order, where it stops) changes a proof or a verdict, and
    so the digest."""
    digest = hashlib.sha256()
    provable = 0
    for length in (1, 2, 3):
        for ant in itertools.product(SLASH_TYPES, repeat=length):
            for target in (S, B):
                proof = reduce_slash_proof(ant, target)
                provable += proof is not None
                text = "-" if proof is None else format_proof(proof)
                digest.update(text.encode() + b"\n")
    assert provable == 62
    assert digest.hexdigest() == (
        "03014d8ed8113f222798c151357a1627c02537ab15ce9f642adf1ad551cd9a89"
    )


class TestReduceSlashProof:
    def test_witness_validates(self):
        ant = ((S / B) / S, S / B, B, B)
        proof = reduce_slash_proof(ant, S)
        assert proof is not None
        assert proof.conclusion == Sequent(ant, S)
        assert proof.cut_free
        assert validate(proof, SLASH_FRAGMENT) == []

    def test_none_when_unprovable(self):
        assert reduce_slash_proof((B, S / B), S) is None

    def test_axiom_case(self):
        proof = reduce_slash_proof((S / B,), S / B)
        assert proof is not None and proof.rule.value == "axiom"

    @given(st.lists(slash_types(3), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_always_validates_when_found(self, ant):
        ant = tuple(ant)
        if sum(t.degree for t in ant) > 6:
            return
        proof = reduce_slash_proof(ant, S)
        if proof is None:
            assert not reduce_slash(ant, S)
        else:
            assert proof.conclusion == Sequent(ant, S)
            assert validate(proof, SLASH_FRAGMENT) == []


class TestReduceLinear:
    def test_examples(self):
        assert reduce_linear([S], S)
        assert reduce_linear([S / B, B], S)
        assert reduce_linear([B, Backslash(B, S)], S)
        assert reduce_linear([S / B, B / S, S], S)
        assert reduce_linear([S / B, B, Backslash(S, S)], S)
        assert not reduce_linear([S / B], S)
        assert not reduce_linear([Backslash(B, S), B], S)

    def test_rejects_off_fragment_input(self):
        with pytest.raises(FragmentError):
            reduce_linear([(S / B) / S, S, B], S)
        with pytest.raises(FragmentError):
            reduce_linear([S], S / B)
        with pytest.raises(FragmentError):
            reduce_regular([Backslash(B, S), B], S)
        with pytest.raises(FragmentError):
            reduce_regular([S], S / B)

    def test_agrees_with_prover_exhaustively(self):
        eng = ProofEngine()
        checked = 0
        for length in (1, 2, 3):
            for ant in itertools.product(DEG1_BOTH, repeat=length):
                for tgt in (S, B):
                    want = eng.prove(Sequent(ant, tgt), LINEAR_FRAGMENT).provable
                    assert reduce_linear(ant, tgt) == want, Sequent(ant, tgt)
                    checked += 1
        assert checked == 2 * (10 + 100 + 1000)

    @given(
        st.lists(
            st.sampled_from(DEG1_BOTH), min_size=4, max_size=5
        ),
        st.sampled_from([S, B]),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_prover_on_longer_inputs(self, ant, tgt):
        want = ProofEngine().prove(Sequent(ant, tgt), LINEAR_FRAGMENT).provable
        assert reduce_linear(ant, tgt) == want


class TestReduceRegular:
    def test_examples(self):
        assert reduce_regular([S], S)
        assert reduce_regular([S / B, B], S)
        assert reduce_regular([S / B, B / S, S], S)
        assert not reduce_regular([S / B, S, B], S)
        assert not reduce_regular([B / S, S], S)

    def test_agrees_with_prover_exhaustively(self):
        eng = ProofEngine()
        checked = 0
        for length in (1, 2, 3, 4):
            for ant in itertools.product(DEG1_SLASH, repeat=length):
                for tgt in (S, B):
                    want = eng.prove(Sequent(ant, tgt), REGULAR_FRAGMENT).provable
                    assert reduce_regular(ant, tgt) == want, Sequent(ant, tgt)
                    checked += 1
        assert checked == 2 * (6 + 36 + 216 + 1296)

    def test_agrees_with_reduce_slash(self):
        for length in (1, 2, 3):
            for ant in itertools.product(DEG1_SLASH, repeat=length):
                assert reduce_regular(ant, S) == reduce_slash(ant, S)


class TestComplexityGuard:
    """The reduction is a chart, not a search: work grows polynomially."""

    def test_ops_growth_is_polynomial(self):
        ops = {}
        for n in (8, 16, 32, 64):
            ant = tuple([S / S] * n + [S])
            table = ReductionTable(ant)
            assert table.reduce(0, len(ant), S)
            ops[n] = table.ops
        # doubling n must not blow past the cubic envelope
        assert ops[64] <= 10 * ops[32]
        assert ops[32] <= 10 * ops[16]

    def test_memo_stays_quadratic(self):
        n = 48
        ant = tuple([S / S] * n + [S])
        table = ReductionTable(ant)
        table.reduce(0, len(ant), S)
        assert len(table.memo) <= 4 * (n + 1) * (n + 1)

    def test_hard_negative_instance_is_fast(self):
        # all splits fail; the table must still finish quickly
        n = 40
        ant = tuple([(S / S) / S] * n)
        table = ReductionTable(ant)
        assert not table.reduce(0, len(ant), S)
        assert table.ops < 2_000_000
