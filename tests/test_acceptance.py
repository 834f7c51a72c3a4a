"""End-to-end acceptance:  every claim the package makes about language
equivalence, recognizer/prover agreement, and cut elimination is exercised
here at full advertised scale, with wall-clock budgets enforced."""

import itertools
import time

import pytest

from lambekit import (
    CfgDecider,
    FULL_CALCULUS,
    LambekDecider,
    Primitive,
    ProofEngine,
    ReductionTable,
    Sequent,
    SLASH_FRAGMENT,
    cfg_member,
    cfg_to_lambek,
    crosscheck,
    eliminate_cut,
    enumerate_strings,
    lambek_to_cfg,
    lambek_to_lcfg,
    lambek_to_reg,
    lcfg_to_lambek,
    reduce_slash,
    reg_to_lambek,
    to_gnf,
    validate,
)

import corpus
import proofgen
from test_prover import types_up_to

S, B = Primitive("S"), Primitive("B")


def _report(label: str, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"{label}: PASS ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert elapsed < budget, f"{label} exceeded its {budget}s budget"


@pytest.mark.parametrize("name", sorted(corpus.LANGUAGES))
def test_criterion_1_grammar_to_lexicon_equivalence(name):
    """Translating a grammar to a lexicon preserves the language (<= 10)."""
    started = time.perf_counter()
    build, _ = corpus.LANGUAGES[name]
    g = build()
    lg = cfg_to_lambek(to_gnf(g))
    report = crosscheck(
        CfgDecider(g), LambekDecider(lg), g.terminals, 10, exhaustive=True
    )
    assert report.agreed, report
    _report(
        f"criterion 1 [{name}]",
        started,
        60,
        f"{report.strings_tested} strings agree",
    )


@pytest.mark.parametrize("name", sorted(corpus.LANGUAGES))
def test_criterion_2_lexicon_to_grammar_equivalence(name):
    """Translating the lexicon back to a grammar preserves the language."""
    started = time.perf_counter()
    build, _ = corpus.LANGUAGES[name]
    g = build()
    back = lambek_to_cfg(cfg_to_lambek(to_gnf(g)))
    report = crosscheck(
        CfgDecider(g), CfgDecider(back), g.terminals, 10, exhaustive=True
    )
    assert report.agreed, report
    _report(
        f"criterion 2 [{name}]",
        started,
        60,
        f"{report.strings_tested} strings agree",
    )


def test_criterion_3_linear_and_regular_translations():
    """Degree-one translations round-trip linear and regular grammars."""
    started = time.perf_counter()
    tested = 0

    linear = corpus.anban_linear()
    lg = lcfg_to_lambek(linear)
    assert all(t.degree <= 1 for t in lg.all_types())
    fwd = crosscheck(
        CfgDecider(linear), LambekDecider(lg), ("a", "b"), 12, exhaustive=True
    )
    back = crosscheck(
        CfgDecider(linear),
        CfgDecider(lambek_to_lcfg(lg)),
        ("a", "b"),
        12,
        exhaustive=True,
    )
    assert fwd.agreed and back.agreed, (fwd, back)
    tested += fwd.strings_tested + back.strings_tested

    for build in (corpus.aplus, corpus.abplus):
        g = build()
        rlg = reg_to_lambek(g)
        assert all(t.degree <= 1 for t in rlg.all_types())
        fwd = crosscheck(
            CfgDecider(g), LambekDecider(rlg), g.terminals, 12, exhaustive=True
        )
        back = crosscheck(
            CfgDecider(g),
            CfgDecider(lambek_to_reg(rlg)),
            g.terminals,
            12,
            exhaustive=True,
        )
        assert fwd.agreed and back.agreed, (fwd, back)
        tested += fwd.strings_tested + back.strings_tested

    _report("criterion 3", started, 30, f"{tested} comparisons agree")


def test_criterion_4_recognizer_matches_prover_exhaustively():
    """reduce_slash equals cut-free search on every /-only sequent built
    from degree-<=2 types over two primitives, antecedent length <= 4,
    both primitive targets: 490,820 sequents, no sampling."""
    started = time.perf_counter()
    ts = types_up_to(2, (S, B), ("/",))
    assert len(ts) == 22
    engine = ProofEngine()
    shared: dict = {}
    checked = 0
    for length in (1, 2, 3, 4):
        for ant in itertools.product(ts, repeat=length):
            for target in (S, B):
                expected = engine.prove(Sequent(ant, target), SLASH_FRAGMENT)
                got = reduce_slash(ant, target, ReductionTable(ant, shared=shared))
                assert got == expected.provable, Sequent(ant, target)
                checked += 1
    assert checked == 490820
    _report("criterion 4", started, 120, f"{checked} sequents, 100% agreement")


@pytest.mark.parametrize("allow_back", [False, True])
def test_criterion_5_cut_elimination_at_scale(allow_back):
    """Hundreds of random cut-bearing derivations per fragment: every one
    validates, loses its cuts, and keeps its endsequent."""
    started = time.perf_counter()
    count = 0
    for proof, config in proofgen.generate(2026, 300, allow_back):
        assert validate(proof, config) == [], "generated proof must validate"
        assert any(node.rule.value == "cut" for _, node in proof.nodes())
        assert proof.conclusion.connective_count <= 10
        result = eliminate_cut(proof, config)
        assert result.cut_free
        assert result.conclusion == proof.conclusion
        assert validate(result, config) == []
        count += 1
    assert count == 300
    which = "/L and \\L" if allow_back else "/L only"
    _report(
        f"criterion 5 [{which}]", started, 120, f"{count} proofs de-cut cleanly"
    )


def test_criterion_6_membership_routes_agree():
    """The GNF sweep and CYK agree on every corpus grammar for every string
    up to length 8."""
    started = time.perf_counter()
    checked = 0
    for name, (build, predicate) in sorted(corpus.LANGUAGES.items()):
        g = build()
        gnf = to_gnf(g)
        for w in enumerate_strings(g.terminals, 8):
            via_gnf = cfg_member(gnf, w, method="gnf")
            via_cyk = cfg_member(g, w, method="cyk")
            assert via_gnf == via_cyk == predicate(w), (name, w)
            checked += 1
    _report("criterion 6", started, 30, f"{checked} membership queries agree")


def test_criterion_7_negative_control():
    """A deliberately wrong pairing is caught at the first witness."""
    started = time.perf_counter()
    report = crosscheck(
        CfgDecider(corpus.aplus()), CfgDecider(corpus.a_single()), ("a",), 6
    )
    assert not report.agreed
    assert report.first_disagreement == (("a", "a"), True, False)
    _report(
        "criterion 7",
        started,
        30,
        "disagreement surfaced at 'aa' as required",
    )
