import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lambekit import (
    Backslash,
    Cfg,
    CfgDecider,
    LambekDecider,
    Primitive,
    Production,
    Slash,
    TranslationError,
    cfg_to_lambek,
    classify_cfg,
    crosscheck,
    enumerate_strings,
    lambek_to_cfg,
    lambek_to_lcfg,
    lambek_to_reg,
    lcfg_to_lambek,
    prune_useless,
    reg_to_lambek,
    remove_unit_productions,
    to_gnf,
    to_gnf_report,
    translation_report,
    LambekGrammar,
)

import corpus

S, B = Primitive("S"), Primitive("B")


def same_language(a, b, alphabet, max_len=8):
    report = crosscheck(
        CfgDecider(a) if isinstance(a, Cfg) else LambekDecider(a),
        CfgDecider(b) if isinstance(b, Cfg) else LambekDecider(b),
        alphabet,
        max_len,
    )
    assert report.agreed, report
    return report


def same_language_by_cyk(a, b, max_len):
    report = crosscheck(
        CfgDecider(a, method="cyk"), CfgDecider(b, method="cyk"), a.terminals, max_len
    )
    assert report.agreed, (a, report)


def gnf_bound(g):
    """to_gnf's documented size bound, 2*n*Pt + 4*n*Pc*Pt + |T|, over the
    unit-free grammar."""
    u = remove_unit_productions(g)
    n = len(u.nonterminals)
    pt = sum(p.rhs[0] in u.terminal_set for p in u.productions)
    pc = len(u.productions) - pt
    return 2 * n * pt + 4 * n * pc * pt + len(u.terminals)


def random_cfg(rng):
    """1-4 nonterminals over {a, b}, each with 1-3 bodies of 1-3 symbols:
    unit rules, left recursion and embedded terminals all occur."""
    nts = tuple(f"N{i}" for i in range(rng.randint(1, 4)))
    symbols = nts + ("a", "b")
    prods = [
        Production(nt, tuple(rng.choices(symbols, k=rng.randint(1, 3))))
        for nt in nts
        for _ in range(rng.randint(1, 3))
    ]
    return Cfg(nts, ("a", "b"), "N0", tuple(prods))


class TestRemoveUnitProductions:
    def test_chain(self):
        g = Cfg(
            ("S", "A", "C"),
            ("a",),
            "S",
            (
                Production("S", ("A",)),
                Production("A", ("C",)),
                Production("C", ("a",)),
            ),
        )
        out = remove_unit_productions(g)
        assert Production("S", ("a",)) in out.productions
        assert all(
            p.rhs != (nt,) for p in out.productions for nt in out.nonterminals
        )

    def test_cycle(self):
        g = Cfg(
            ("S", "A"),
            ("a",),
            "S",
            (
                Production("S", ("A",)),
                Production("A", ("S",)),
                Production("A", ("a",)),
            ),
        )
        out = remove_unit_productions(g)
        assert Production("S", ("a",)) in out.productions
        same_language(g, out, ("a",), 4)

    def test_language_preserved(self):
        g = Cfg(
            ("S", "A", "C"),
            ("a", "b"),
            "S",
            (
                Production("S", ("A",)),
                Production("S", ("a", "S")),
                Production("A", ("C",)),
                Production("A", ("a", "A", "b")),
                Production("C", ("b",)),
            ),
        )
        same_language(g, remove_unit_productions(g), ("a", "b"), 7)


class TestPruneUseless:
    def test_drops_unreachable(self):
        g = Cfg(
            ("S", "X"),
            ("a",),
            "S",
            (Production("S", ("a",)), Production("X", ("a",))),
        )
        out = prune_useless(g)
        assert "X" not in out.nonterminal_set

    def test_drops_unproductive(self):
        g = Cfg(
            ("S", "X"),
            ("a",),
            "S",
            (
                Production("S", ("a",)),
                Production("S", ("a", "X")),
                Production("X", ("a", "X")),
            ),
        )
        out = prune_useless(g)
        assert "X" not in out.nonterminal_set
        assert len(out.productions) == 1

    def test_start_survives_even_when_empty(self):
        g = Cfg(("S",), ("a",), "S", (Production("S", ("a", "S")),))
        out = prune_useless(g)
        assert out.start == "S"
        assert out.productions == ()

    def test_terminals_kept(self):
        g = Cfg(
            ("S", "X"),
            ("a", "b"),
            "S",
            (Production("S", ("a",)), Production("X", ("b",))),
        )
        assert prune_useless(g).terminals == ("a", "b")


class TestToGnf:
    def test_already_gnf_is_returned_as_is(self):
        g = corpus.anbn()
        assert to_gnf(g) is g

    def test_direct_left_recursion(self):
        g = corpus.left_regular_ba_star()  # S -> S a | b
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        same_language(g, out, ("a", "b"), 8)

    def test_indirect_left_recursion(self):
        g = Cfg(
            ("A", "C"),
            ("a", "c"),
            "A",
            (
                Production("A", ("C", "a")),
                Production("C", ("A", "c")),
                Production("C", ("c",)),
            ),
        )
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        same_language(g, out, ("a", "c"), 8)

    def test_unit_chains(self):
        g = Cfg(
            ("S", "A"),
            ("a", "b"),
            "S",
            (
                Production("S", ("A",)),
                Production("A", ("a", "A", "b")),
                Production("A", ("a", "b")),
            ),
        )
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        same_language(g, out, ("a", "b"), 8)

    def test_terminal_extraction(self):
        # trailing terminals must move behind fresh wrapper nonterminals
        g = Cfg(
            ("S",),
            ("a", "b"),
            "S",
            (Production("S", ("a", "S", "b")), Production("S", ("a", "b"))),
        )
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        same_language(g, out, ("a", "b"), 8)

    def test_empty_language_collapses(self):
        g = Cfg(
            ("S",),
            ("a",),
            "S",
            (Production("S", ("S", "S")), Production("S", ("S", "a"))),
        )
        out = to_gnf(g)
        assert out.productions == ()

    def test_fresh_names_avoid_collisions(self):
        g = Cfg(
            ("S", "X_1"),
            ("a", "b"),
            "S",
            (
                Production("S", ("S", "a")),
                Production("S", ("X_1", "b")),
                Production("X_1", ("b",)),
            ),
        )
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        assert len(set(out.nonterminals)) == len(out.nonterminals)
        same_language(g, out, ("a", "b"), 7)

        # the names the construction would pick for a pair and a wrapper
        taken = Cfg(
            ("S", "S_S", "T_a"),
            ("a", "b"),
            "S",
            (
                Production("S", ("S", "b", "a")),
                Production("S", ("a", "S_S", "T_a")),
                Production("S_S", ("b",)),
                Production("T_a", ("a",)),
            ),
        )
        out = to_gnf(taken)
        assert classify_cfg(out).is_gnf
        assert len(set(out.nonterminals)) == len(out.nonterminals)
        assert {"S_S", "T_a"} <= out.nonterminal_set
        same_language(taken, out, ("a", "b"), 7)

    @pytest.mark.parametrize("name", sorted(corpus.LANGUAGES))
    def test_corpus_languages_preserved(self, name):
        build, predicate = corpus.LANGUAGES[name]
        g = build()
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        decider = CfgDecider(out, method="gnf")
        for w in enumerate_strings(g.terminals, 8):
            assert decider(w) == predicate(w), w

    def test_report_lists_fresh_symbols(self):
        g = corpus.left_regular_ba_star()
        out, report = to_gnf_report(g)
        fresh = set(out.nonterminal_set) - set(g.nonterminal_set)
        assert fresh == set(report.fresh_symbols)

    def test_mixed_left_recursion_stays_within_the_bound(self):
        # indirect left recursion through unit rules, which substitution
        # until fixpoint (Paull) blows up to 65,587 productions
        g = Cfg(
            ("N0", "N1", "N2", "N3"),
            ("a", "b", "c"),
            "N0",
            tuple(
                Production(lhs, tuple(body.split()))
                for lhs, bodies in (
                    ("N0", ("a N1", "N1", "N1 a a", "b")),
                    ("N1", ("N0 b", "N2 b N3", "b")),
                    ("N2", ("N3 N0 N3", "c N3 c", "b a c", "b")),
                    ("N3", ("N1", "a N0", "a")),
                )
                for body in bodies
            ),
        )
        out = to_gnf(g)
        assert classify_cfg(out).is_gnf
        assert len(out.productions) <= gnf_bound(g)
        same_language_by_cyk(g, out, 7)

    def test_random_grammars(self):
        rng = random.Random(8)
        for _ in range(300):
            g = random_cfg(rng)
            out = to_gnf(g)
            assert classify_cfg(out).is_gnf, g
            assert len(out.productions) <= gnf_bound(g), g
            same_language_by_cyk(g, out, 5)


class TestCfgToLambek:
    def test_anbn_lexicon(self):
        lg = cfg_to_lambek(corpus.anbn())
        assert lg.distinguished == "S"
        assert set(lg.lexicon["a"]) == {S / B, (S / B) / S}
        assert lg.lexicon["b"] == (B,)

    def test_rejects_non_gnf(self):
        g = corpus.left_regular_ba_star()
        with pytest.raises(TranslationError) as e:
            cfg_to_lambek(g)
        assert "S -> S a" in str(e.value)

    def test_languages_match(self):
        for name, (build, predicate) in corpus.LANGUAGES.items():
            g = to_gnf(build())
            lg = cfg_to_lambek(g)
            decider = LambekDecider(lg)
            for w in enumerate_strings(g.terminals, 7):
                assert decider(w) == predicate(w), (name, w)


class TestLambekToCfg:
    def test_nonterminals_are_type_names(self):
        lg = cfg_to_lambek(corpus.anbn())
        g = lambek_to_cfg(lg, prune=False)
        assert g.start == "S"
        assert "(S/B)" in g.nonterminal_set
        assert classify_cfg(g).is_gnf
        # pruning keeps only what a derivation from S can reach
        assert lambek_to_cfg(lg).nonterminal_set == frozenset({"S", "B"})

    def test_round_trip_language(self):
        for name, (build, predicate) in corpus.LANGUAGES.items():
            lg = cfg_to_lambek(to_gnf(build()))
            g = lambek_to_cfg(lg)
            decider = CfgDecider(g)
            for w in enumerate_strings(g.terminals, 7):
                assert decider(w) == predicate(w), (name, w)

    def test_prune_flag(self):
        lg = LambekGrammar(
            ("S", "B"),
            ("a",),
            "S",
            {"a": (S, Slash(B, B))},  # B/B can never head a derivation of S
        )
        pruned = lambek_to_cfg(lg)
        kept = lambek_to_cfg(lg, prune=False)
        assert len(kept.nonterminals) > len(pruned.nonterminals)

    def test_rejects_backslash_lexicon(self):
        lg = LambekGrammar(("S", "B"), ("a",), "S", {"a": (Backslash(B, S),)})
        with pytest.raises(TranslationError):
            lambek_to_cfg(lg)


class TestLinearTranslations:
    def test_lcfg_to_lambek_types(self):
        lg = lcfg_to_lambek(corpus.anban_linear())
        assert set(lg.lexicon["a"]) == {
            Slash(S, Primitive("A")),
            Backslash(S, Primitive("A")),
        }
        assert lg.lexicon["b"] == (S,)
        assert all(t.degree <= 1 for t in lg.all_types())

    def test_lcfg_round_trip(self):
        g = corpus.anban_linear()
        lg = lcfg_to_lambek(g)
        back = lambek_to_lcfg(lg)
        assert classify_cfg(back).is_lcfg
        same_language(g, back, ("a", "b"), 9)
        same_language(g, lg, ("a", "b"), 9)

    def test_rejects_non_linear(self):
        with pytest.raises(TranslationError) as e:
            lcfg_to_lambek(corpus.anbn())
        assert "->" in str(e.value)

    def test_reg_to_lambek_types(self):
        lg = reg_to_lambek(corpus.abplus())
        assert lg.lexicon["a"] == (Slash(S, B),)
        assert set(lg.lexicon["b"]) == {B, Slash(B, S)}

    def test_reg_round_trips(self):
        for build, predicate in ((corpus.aplus, corpus.in_aplus), (corpus.abplus, corpus.in_abplus)):
            g = build()
            lg = reg_to_lambek(g)
            back = lambek_to_reg(lg)
            assert classify_cfg(back).is_right_regular
            decider = CfgDecider(back)
            lex_decider = LambekDecider(lg)
            for w in enumerate_strings(g.terminals, 8):
                assert decider(w) == predicate(w)
                assert lex_decider(w) == predicate(w)

    def test_reg_rejects_left_linear(self):
        with pytest.raises(TranslationError):
            reg_to_lambek(corpus.left_regular_ba_star())

    def test_lcfg_accepts_left_linear(self):
        lg = lcfg_to_lambek(corpus.left_regular_ba_star())
        assert Backslash(S, S) in lg.lexicon["a"]

    def test_lambek_to_lcfg_rejects_high_degree(self):
        lg = cfg_to_lambek(corpus.anbn())  # has a degree-2 type
        with pytest.raises(TranslationError):
            lambek_to_lcfg(lg)

    def test_lambek_to_reg_rejects_backslash(self):
        lg = lcfg_to_lambek(corpus.anban_linear())
        with pytest.raises(TranslationError):
            lambek_to_reg(lg)


class TestTranslationReport:
    def test_fresh_symbols(self):
        g = corpus.left_regular_ba_star()
        out = to_gnf(g)
        report = translation_report(g, out)
        assert set(report.fresh_symbols) == set(out.nonterminal_set) - set(
            g.nonterminal_set
        )
        assert "productions" in report.input_summary


def _random_right_regular(draw):
    nts = ("S", "T", "U")
    terms = ("a", "b")
    n = draw(st.integers(1, 7))
    productions = []
    for _ in range(n):
        lhs = draw(st.sampled_from(nts))
        term = draw(st.sampled_from(terms))
        tail = draw(st.sampled_from((None,) + nts))
        rhs = (term,) if tail is None else (term, tail)
        productions.append(Production(lhs, rhs))
    if not any(p.lhs == "S" for p in productions):
        productions.append(Production("S", ("a",)))
    return Cfg(nts, terms, "S", tuple(productions))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_regular_round_trips(data):
    g = _random_right_regular(data.draw)
    pruned = prune_useless(g)
    if not pruned.productions:
        return
    lg = reg_to_lambek(pruned)
    back = lambek_to_reg(lg)
    a = CfgDecider(g)
    b = CfgDecider(back)
    c = LambekDecider(lg)
    for w in enumerate_strings(("a", "b"), 6):
        expected = a(w)
        assert b(w) == expected
        assert c(w) == expected
