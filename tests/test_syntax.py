import pytest
from hypothesis import given

import proofgen
from lambekit import (
    Backslash,
    ProofEngine,
    ParseError,
    Primitive,
    Product,
    Proof,
    Rule,
    Sequent,
    Slash,
    format_proof,
    format_sequent,
    format_type,
    parse_sequent,
    parse_type,
    parse_type_list,
    proof_to_dict,
)
from lambekit.cli import parse_lexicon_file

from test_core import types

S, B, A = Primitive("S"), Primitive("B"), Primitive("A")


class TestParseType:
    def test_primitives(self):
        assert parse_type("S") == S
        assert parse_type("NP_1'") == Primitive("NP_1'")

    def test_slash_associates_left(self):
        assert parse_type("S/B/A") == (S / B) / A

    def test_backslash_associates_right(self):
        assert parse_type("A\\B\\S") == Backslash(A, Backslash(B, S))

    def test_product_binds_tighter(self):
        assert parse_type("S/B*A") == Slash(S, Product(B, A))
        assert parse_type("S*B/A") == Slash(Product(S, B), A)
        assert parse_type("S*B*A") == Product(Product(S, B), A)

    def test_product_dot_alias(self):
        assert parse_type("S·B") == Product(S, B)

    def test_parens(self):
        assert parse_type("S/(B/A)") == S / (B / A)
        assert parse_type("(A\\B)\\S") == Backslash(Backslash(A, B), S)

    def test_mixed_chain_needs_parens(self):
        with pytest.raises(ParseError) as e:
            parse_type("A\\S/B")
        assert "parentheses" in str(e.value)
        assert parse_type("A\\(S/B)") == Backslash(A, S / B)
        assert parse_type("(A\\S)/B") == Slash(Backslash(A, S), B)

    @pytest.mark.parametrize(
        "text", ["", "S/", "/S", "(S", "S)", "S B", "S //B", "S,B", "->"]
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_type(text)

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_type("S/(B%A)")
        assert e.value.line == 1 and e.value.col == 5

        with pytest.raises(ParseError) as e:
            parse_type("S/(B/A", line=3, col=10)
        assert e.value.line == 3
        assert e.value.col >= 10

    @given(types())
    def test_round_trip(self, t):
        assert parse_type(format_type(t)) == t


class TestParseSequent:
    def test_basic(self):
        s = parse_sequent("S/B, B -> S")
        assert s == Sequent((S / B, B), S)

    def test_spacing_is_flexible(self):
        assert parse_sequent("S/B,B->S") == parse_sequent(" S/B , B  ->  S ")

    def test_empty_antecedent_parses(self):
        # representable for proof checking, even though queries reject it
        assert parse_sequent("-> S") == Sequent((), S)

    @pytest.mark.parametrize(
        "text", ["S", "S ->", "S -> B -> A", "S, -> B", ", S -> B"]
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_sequent(text)

    def test_round_trip(self):
        for text in ["S -> S", "S/B, B -> S", "A\\B, B\\S -> A\\S"]:
            s = parse_sequent(text)
            assert parse_sequent(format_sequent(s)) == s

    def test_parse_type_list(self):
        assert parse_type_list("S, B/A") == (S, B / A)
        assert parse_type_list("") == ()


# (parser, text, line/col seed, message, line, col), as the recursive-descent
# parser that the stack-based one replaced reported them
DIAGNOSTICS = [
    (parse_type, "S/(B%A)", (), "unexpected character '%'", 1, 5),
    (parse_type, "S/(B/A", (3, 10), "expected ')'", 3, 16),
    (parse_type, "A\\S/(B", (), "expected ')'", 1, 7),
    (parse_type, "S)", (), "unexpected ')' after type", 1, 2),
    (parse_type, "S B", (), "unexpected 'B' after type", 1, 3),
    (parse_type, "(S/B) C", (), "unexpected 'C' after type", 1, 7),
    (parse_type, "S //B", (), "expected a type, found '/'", 1, 4),
    (parse_type, "A\\S/B", (), "mixed / and \\ need parentheses", 1, 4),
    (parse_type, "S\\B/A\\C", (3, 10), "mixed / and \\ need parentheses", 3, 13),
    (parse_type, "A\\(S/B\\C)", (), "mixed / and \\ need parentheses", 1, 7),
    (parse_type, "", (), "expected a type", 1, 1),
    (parse_type, "·S", (), "expected a type, found '*'", 1, 1),
    (parse_type, "S·", (3, 10), "expected a type", 3, 12),
    (parse_type_list, "S,", (), "expected a type", 1, 3),
    (parse_type_list, "S,,B", (), "expected a type, found ','", 1, 3),
    (parse_type_list, "S, B ->", (), "unexpected '->' in type list", 1, 6),
    (parse_type_list, "S, B)", (), "unexpected ')' in type list", 1, 5),
    (parse_sequent, "S, -> B", (), "expected a type, found '->'", 1, 4),
    (parse_sequent, "S -> B -> A", (), "unexpected '->' after sequent", 1, 8),
    (parse_sequent, "S ->", (), "expected a type", 1, 5),
    (parse_sequent, "->", (), "expected a type", 1, 3),
    (parse_sequent, "", (3, 10), "expected a type", 3, 10),
    (parse_sequent, "S -> B,", (), "unexpected ',' after sequent", 1, 7),
    (parse_sequent, "S B -> S", (), "expected '->'", 1, 3),
    (parse_sequent, "S B -> %", (), "unexpected character '%'", 1, 8),
    (parse_sequent, "S·\\B -> S", (), "expected a type, found '\\\\'", 1, 3),
    (parse_sequent, "S -> (B", (3, 10), "expected ')'", 3, 17),
]


class TestDiagnostics:
    @pytest.mark.parametrize("parse, text, seed, message, line, col", DIAGNOSTICS)
    def test_message_line_and_col(self, parse, text, seed, message, line, col):
        with pytest.raises(ParseError) as e:
            parse(text, *seed)
        assert (e.value.bare_message, e.value.line, e.value.col) == (message, line, col)

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("a : S/B, B%A", "unexpected character '%'", 11),
            ("a :  (S/B", "expected ')'", 10),
            ("a : S,  A\\S/B", "mixed / and \\ need parentheses", 12),
        ],
    )
    def test_lexicon_entry_seeds_the_column(self, text, message, col):
        with pytest.raises(ParseError) as e:
            parse_lexicon_file(f"target: S\n{text}\n")
        assert (e.value.bare_message, e.value.line, e.value.col) == (message, 2, col)


def _spine(t, step):
    """The nodes along ``step`` from t, walked in a loop: deep types are
    compared node by node, since ``==`` recurses."""
    out = [t]
    while type(out[-1]) is not Primitive:
        out.append(step(out[-1]))
    return out


class TestDepth:
    N = 10**4

    def test_nested_parentheses(self):
        assert parse_type("(" * self.N + "S" + ")" * self.N) == S

    def test_right_nested_slashes(self):
        # S/(B/(B/(...(B))))
        t = parse_type("S" + "/(B" * self.N + ")" * self.N)
        spine = _spine(t, lambda u: u.arg)
        assert len(spine) == self.N + 1 and spine[-1] == B
        assert all(type(u) is Slash for u in spine[:-1])
        assert [u.result for u in spine[:-1]] == [S] + [B] * (self.N - 1)

    def test_backslash_chain(self):
        t = parse_type("B\\" * self.N + "S")
        spine = _spine(t, lambda u: u.result)
        assert len(spine) == self.N + 1 and spine[-1] == S
        assert all(type(u) is Backslash and u.arg == B for u in spine[:-1])

    def test_long_antecedent(self):
        s = parse_sequent(", ".join(["S/B", "B"] * (self.N // 2)) + " -> S")
        assert len(s.antecedent) == self.N and s.consequent == S
        assert s.antecedent == (S / B, B) * (self.N // 2)


class TestParseError:
    def test_carries_position(self):
        e = ParseError("boom", 4, 7)
        assert e.line == 4 and e.col == 7
        assert e.bare_message == "boom"
        assert "line 4, col 7" in str(e)


class TestProofOutput:
    def _proof(self):
        ax_b = Proof(Sequent((B,), B), Rule.AXIOM, ())
        ax_s = Proof(Sequent((S,), S), Rule.AXIOM, ())
        return Proof(
            Sequent((S / B, B), S), Rule.SLASH_L, (ax_b, ax_s), position=0
        )

    def test_format_proof(self):
        text = format_proof(self._proof())
        assert text.splitlines() == [
            "S/B, B -> S   [/L]",
            "  B -> B   [axiom]",
            "  S -> S   [axiom]",
        ]

    def test_proof_to_dict(self):
        d = proof_to_dict(self._proof())
        assert d["sequent"] == "S/B, B -> S"
        assert d["rule"] == "/L"
        assert d["position"] == 0
        assert [p["rule"] for p in d["premises"]] == ["axiom", "axiom"]
        assert d["premises"][0]["premises"] == []


class TestRenderersMatchSequentText:
    """Every line the renderers print is ``str`` of its node's conclusion."""

    def _proofs(self):
        for allow_back in (False, True):
            for forged, config in proofgen.generate(21, 40, allow_back):
                yield forged
                result = ProofEngine().prove(forged.conclusion, config)
                assert result.provable
                yield result.proof

    def test_format_proof_and_proof_to_dict(self):
        for proof in self._proofs():
            nodes = [(len(path), node) for path, node in proof.nodes()]
            lines = format_proof(proof).splitlines()
            assert lines == [
                f"{'  ' * depth}{node.conclusion}   [{node.rule.value}]"
                for depth, node in nodes
            ]
            todo, seen = [proof_to_dict(proof)], []
            while todo:
                d = todo.pop()
                seen.append(d["sequent"])
                todo.extend(reversed(d["premises"]))
            assert seen == [str(node.conclusion) for _, node in nodes]
