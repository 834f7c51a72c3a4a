from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lambekit import (
    Backslash,
    CalculusConfig,
    Cfg,
    FragmentError,
    GrammarError,
    LambekDecider,
    LambekGrammar,
    ParseError,
    Primitive,
    Product,
    Production,
    Proof,
    Rule,
    Sequent,
    Slash,
    TypeRestriction,
    classify_cfg,
    connectives,
    degree,
    format_type,
    in_fragment,
    parse_lexicon_file,
    parse_type,
    reassemble_spine,
    spine_decompositions,
    subtypes,
    subtypes_in_order,
    type_name,
    type_sort_key,
)

import corpus

S, B, A, C = Primitive("S"), Primitive("B"), Primitive("A"), Primitive("C")
ROOT = Path(__file__).resolve().parent.parent


def prims():
    return st.sampled_from([S, B, A])


def types(max_depth=3):
    return st.recursive(
        prims(),
        lambda kids: st.one_of(
            st.builds(Slash, kids, kids),
            st.builds(Backslash, kids, kids),
            st.builds(Product, kids, kids),
        ),
        max_leaves=max_depth + 1,
    )


class TestTypes:
    def test_operators_build_the_right_nodes(self):
        assert S / B == Slash(S, B)
        assert B >> S == Backslash(B, S)
        assert S * B == Product(S, B)

    def test_structural_equality_and_hash(self):
        assert Slash(S, B) == Slash(S, B)
        assert hash(Slash(S, B)) == hash(Slash(S, B))
        assert Slash(S, B) != Slash(B, S)
        assert Slash(S, B) != Backslash(S, B)
        assert len({S / B, S / B, B / S}) == 2

    def test_degree_counts_connectives(self):
        assert degree(S) == 0
        assert degree(S / B) == 1
        assert degree((S / B) / (A * C)) == 3

    def test_connectives(self):
        assert connectives(S) == frozenset()
        assert connectives((S / B) * (B >> S)) == frozenset({"/", "\\", "*"})

    def test_bad_primitive_name(self):
        for name in ("", "a b", "a|b", "a->b", "(", None):
            with pytest.raises(GrammarError):
                Primitive(name)

    def test_primed_names_allowed(self):
        assert Primitive("X'").name == "X'"

    def test_subtypes(self):
        t = (S / B) / A
        assert subtypes(t) == frozenset({t, S / B, S, B, A})
        assert subtypes_in_order(t) == [t, S / B, S, B, A]

    def test_spine_decompositions(self):
        t = (S / B) / A
        assert spine_decompositions(t) == [
            (t, ()),
            (S / B, (A,)),
            (S, (A, B)),
        ]
        assert spine_decompositions(S) == [(S, ())]
        # a backslash blocks the spine
        u = (S >> B) / A
        assert spine_decompositions(u) == [(u, ()), (S >> B, (A,))]

    @given(types())
    def test_spine_reassembles(self, t):
        decs = spine_decompositions(t)
        assert decs[0] == (t, ())
        for head, args in decs:
            assert reassemble_spine(head, args) == t

    @given(types())
    def test_subtypes_bounded_by_degree(self, t):
        assert len(subtypes(t)) <= 2 * degree(t) + 1

    @given(types())
    def test_degree_additive(self, t):
        if isinstance(t, (Slash, Backslash, Product)):
            left = t.result if isinstance(t, (Slash, Backslash)) else t.left
            right = t.arg if isinstance(t, (Slash, Backslash)) else t.right
            assert degree(t) == 1 + degree(left) + degree(right)

    def test_sort_key_orders_primitives_first(self):
        ts = [S / B, B, Product(S, B), S, B >> S]
        ordered = sorted(ts, key=type_sort_key)
        assert ordered[:2] == [B, S]

    def test_type_name_injective_on_small_types(self):
        seen = {}
        pool = [S, B, S / B, B / S, (S / B) / S, S / (B / S), S * B, B >> S]
        for t in pool:
            name = type_name(t)
            assert name not in seen
            seen[name] = t


class TestFormatting:
    def test_minimal_parens(self):
        cases = [
            ((S / B) / A, "S/B/A"),
            (S / (B / A), "S/(B/A)"),
            (A >> (B >> S), "A\\B\\S"),
            ((A >> B) >> S, "(A\\B)\\S"),
            ((S * B) * A, "S*B*A"),
            (S * (B * A), "S*(B*A)"),
            (S / (B * A), "S/B*A"),
            ((S / B) * A, "(S/B)*A"),
            ((B >> S) / A, "(B\\S)/A"),
            (S / (B >> S), "S/(B\\S)"),
        ]
        for t, expected in cases:
            assert format_type(t) == expected

    def test_str_matches_format(self):
        assert str((S / B) / A) == format_type((S / B) / A)

    def test_every_small_type_against_the_parser(self):
        # all 2,318 types of degree <= 3 over {S, B}; the parser, not the
        # printer's table, decides which parentheses are needed
        by_degree = [[S, B]]
        for d in range(1, 4):
            by_degree.append(
                [
                    make(left, right)
                    for make in (Slash, Backslash, Product)
                    for dl in range(d)
                    for left in by_degree[dl]
                    for right in by_degree[d - 1 - dl]
                ]
            )
        pool = [t for level in by_degree for t in level]
        assert len(pool) == 2318
        dropped = 0
        for t in pool:
            text = format_type(t)
            assert parse_type(text) == t
            opens = []
            for i, ch in enumerate(text):
                if ch == "(":
                    opens.append(i)
                elif ch == ")":
                    j = opens.pop()
                    bare = text[:j] + text[j + 1 : i] + text[i + 1 :]
                    dropped += 1
                    try:
                        assert parse_type(bare) != t, f"{text} needs no parens at {j}"
                    except ParseError:
                        pass
        assert dropped == 2728
        assert len({type_name(t) for t in pool}) == len(pool)
        keys = sorted(map(type_sort_key, pool))
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestSequent:
    def test_basic(self):
        s = Sequent((S / B, B), S)
        assert s.antecedent == (S / B, B)
        assert s.consequent == S
        assert s.connective_count == 1
        assert str(s) == "S/B, B -> S"

    def test_equality_hash(self):
        assert Sequent((S,), S) == Sequent([S], S)
        assert hash(Sequent((S,), S)) == hash(Sequent((S,), S))
        assert Sequent((S,), S) != Sequent((S,), B)

    def test_empty_antecedent_is_representable(self):
        assert Sequent((), S).antecedent == ()

    def test_hash_is_that_of_the_pair(self):
        for ant, goal in [([S / B, B], S), ((), S), ((B >> S, S * A), C / A)]:
            assert hash(Sequent(ant, goal)) == hash((tuple(ant), goal))

    @pytest.mark.parametrize("hashed_first", [0, 1])
    def test_sequents_built_apart_are_equal_whichever_is_hashed_first(self, hashed_first):
        # the second copy's types are built apart too, so no part is shared
        s, b = Primitive("S"), Primitive("B")
        pair = [Sequent((S / B, B), S), Sequent([s / b, b], s)]
        hash(pair[hashed_first])
        assert pair[0] == pair[1] and pair[1] == pair[0]
        assert {pair[0]: 0}[pair[1]] == 0 and {pair[1]: 1}[pair[0]] == 1
        assert pair[0] != Sequent((S / B, B), B)


class TestProof:
    def test_a_tall_proof_hashes_without_recursion(self):
        # 10^4 nodes, 2,501 levels tall: a proof whose hash recursed through
        # its premises would pass the recursion limit
        lexicon = parse_lexicon_file((ROOT / "samples" / "anbn.lex").read_text())
        proof = LambekDecider(lexicon).find_proof("a" * 2500 + "b" * 2500)
        assert sum(1 for _ in proof.nodes()) == 9999
        assert hash(proof) == hash(
            (proof.conclusion, proof.rule, proof.premises, proof.position)
        )

    def _tall_proof(self):
        lexicon = parse_lexicon_file((ROOT / "samples" / "anbn.lex").read_text())
        return LambekDecider(lexicon).find_proof("a" * 400 + "b" * 400)

    def test_tall_proofs_compare_without_recursion(self):
        p, q = self._tall_proof(), self._tall_proof()
        assert p is not q
        assert p == q and hash(p) == hash(q)

    def test_a_difference_deep_in_the_tree_is_found(self):
        p = self._tall_proof()
        spine = [p]
        while spine[-1].premises:
            kids = spine[-1].premises
            spine.append(max(kids, key=lambda k: len(k.conclusion.antecedent)))
        assert len(spine) > 400
        # the two differ only in the leaf's position; as if every hash on the
        # path collided, so only the walk down to the leaf can tell them apart
        leaf = spine[-1]
        q = Proof(leaf.conclusion, leaf.rule, leaf.premises, position=0)
        q._hash = leaf._hash
        for parent, node in zip(reversed(spine[:-1]), reversed(spine[1:])):
            kids = tuple(q if k is node else k for k in parent.premises)
            q = Proof(parent.conclusion, parent.rule, kids, parent.position)
            q._hash = parent._hash
        assert p != q and q != p


class TestRestrictions:
    def test_in_fragment(self):
        slash_only = TypeRestriction(frozenset({"/"}))
        assert in_fragment(S / B, slash_only)
        assert not in_fragment(B >> S, slash_only)
        assert not in_fragment(S * B, slash_only)
        deg1 = TypeRestriction(frozenset({"/", "\\"}), max_degree=1)
        assert in_fragment(S / B, deg1)
        assert not in_fragment((S / B) / A, deg1)

    def test_unknown_connective_rejected(self):
        with pytest.raises(GrammarError):
            TypeRestriction(frozenset({"%"}))

    def test_config_rejects_non_inference_rules(self):
        for bad in (Rule.AXIOM, Rule.CUT):
            with pytest.raises(GrammarError):
                CalculusConfig(frozenset({bad}))


class TestCfg:
    def test_corpus_grammars_construct(self):
        for build, _ in corpus.LANGUAGES.values():
            g = build()
            assert g.start in g.nonterminal_set

    def test_validation_errors(self):
        with pytest.raises(GrammarError):
            Cfg(("S", "S"), ("a",), "S", (Production("S", ("a",)),))
        with pytest.raises(GrammarError):
            Cfg(("S",), ("S",), "S", (Production("S", ("S",)),))
        with pytest.raises(GrammarError):
            Cfg(("S",), ("a",), "T", (Production("S", ("a",)),))
        with pytest.raises(GrammarError):
            Cfg(("S",), ("a",), "S", (Production("S", ()),))
        with pytest.raises(GrammarError):
            Cfg(("S",), ("a",), "S", (Production("S", ("a", "X")),))
        with pytest.raises(GrammarError):
            Cfg(("S",), ("a",), "S", (Production("X", ("a",)),))

    def test_duplicate_productions_collapse(self):
        g = Cfg(
            ("S",),
            ("a",),
            "S",
            (Production("S", ("a",)), Production("S", ("a",))),
        )
        assert len(g.productions) == 1

    def test_rules_for(self):
        g = corpus.anbn()
        assert [p.rhs for p in g.rules_for("S")] == [("a", "S", "B"), ("a", "B")]

    @pytest.mark.parametrize("bad", ["", "->", "a b", "a\tb", "a|b", "a#b", "a:b"])
    def test_bad_symbols_rejected(self, bad):
        for nts, ts in [(("S", bad), ("a",)), (("S",), ("a", bad))]:
            with pytest.raises(GrammarError, match=r"^bad grammar symbol "):
                Cfg(nts, ts, "S", (Production("S", ("a",)),))

    def test_symbols_can_look_like_types(self):
        # translator output uses parenthesized type names as nonterminals
        g = Cfg(
            ("(S/B)", "S"),
            ("a",),
            "S",
            (Production("S", ("a", "(S/B)")), Production("(S/B)", ("a",))),
        )
        assert "(S/B)" in g.nonterminal_set


class TestClassification:
    def test_anbn(self):
        c = classify_cfg(corpus.anbn())
        assert c.is_gnf and not c.is_lcfg and not c.is_right_regular

    def test_right_regular(self):
        c = classify_cfg(corpus.aplus())
        assert c.is_right_regular and c.is_lcfg and c.is_gnf
        assert not c.is_left_regular

    def test_left_regular(self):
        c = classify_cfg(corpus.left_regular_ba_star())
        assert c.is_left_regular and c.is_lcfg
        assert not c.is_right_regular and not c.is_gnf

    def test_linear_but_not_regular(self):
        c = classify_cfg(corpus.anban_linear())
        assert c.is_lcfg
        assert not c.is_right_regular and not c.is_left_regular and not c.is_gnf

    def test_terminal_rule_counts_as_both_linear(self):
        g = Cfg(("S",), ("a",), "S", (Production("S", ("a",)),))
        shape = classify_cfg(g).shapes[0]
        assert shape.terminal and shape.right_linear and shape.left_linear


class TestLambekGrammar:
    def test_lexicon_is_canonically_sorted(self):
        lg = LambekGrammar(
            ("S", "B"),
            ("a",),
            "S",
            {"a": ((S / B) / S, B, S / B, B)},
        )
        assert lg.lexicon["a"] == (B, S / B, (S / B) / S)

    def test_missing_alphabet_entries_become_empty(self):
        lg = LambekGrammar(("S",), ("a", "b"), "S", {"a": (S,)})
        assert lg.lexicon["b"] == ()
        assert lg.types_for("b") == ()

    def test_undeclared_primitive_rejected(self):
        with pytest.raises(GrammarError):
            LambekGrammar(("S",), ("a",), "S", {"a": (S / B,)})

    @pytest.mark.parametrize("entry", [("S",), (S, 3), [["x"]]])
    def test_non_type_entry_rejected(self, entry):
        with pytest.raises(GrammarError, match="is not a type"):
            LambekGrammar(("S",), ("a",), "S", {"a": entry})

    def test_unknown_target_rejected(self):
        with pytest.raises(GrammarError):
            LambekGrammar(("S",), ("a",), "T", {"a": (S,)})

    def test_types_for_unknown_symbol(self):
        lg = LambekGrammar(("S",), ("a",), "S", {"a": (S,)})
        with pytest.raises(GrammarError):
            lg.types_for("z")

    def test_target_property(self):
        lg = LambekGrammar(("S",), ("a",), "S", {"a": (S,)})
        assert lg.target == S

    def test_target_is_cached_and_equality_unchanged(self):
        lg = LambekGrammar(("S", "B"), ("a",), "S", {"a": (S,)})
        fresh = LambekGrammar(("S", "B"), ("a",), "S", {"a": (S,)})
        assert lg.target is lg.target
        assert lg == fresh and fresh == lg
        assert lg != LambekGrammar(("S", "B"), ("a",), "B", {"a": (S,)})

    def test_all_types_deduplicates(self):
        lg = LambekGrammar(
            ("S",), ("a", "b"), "S", {"a": (S, S / S), "b": (S / S,)}
        )
        assert sorted(map(str, lg.all_types())) == ["S", "S/S"]
