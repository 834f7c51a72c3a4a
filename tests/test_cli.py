import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lambekit import (
    Backslash,
    LambekGrammar,
    ParseError,
    Primitive,
    Slash,
    cfg_to_lambek,
    classify_cfg,
    format_grammar,
    format_lexicon,
    lcfg_to_lambek,
    parse_grammar_file,
    parse_lexicon_file,
    to_gnf,
)
from lambekit.cli import main

import corpus

ROOT = Path(__file__).resolve().parent.parent

S, B = Primitive("S"), Primitive("B")

ANBN_TEXT = """\
# a^n b^n
start: S
nonterminals: S B
terminals: a b
S -> a S B | a B
B -> b
"""

ANBN_LEX_TEXT = """\
target: S
primitives: S B
a : (S/B)/S, S/B
b : B
"""


class TestParseGrammarFile:
    def test_basic(self):
        g = parse_grammar_file(ANBN_TEXT)
        assert g == corpus.anbn()

    def test_defaults(self):
        g = parse_grammar_file("terminals: a\nS -> a S\nS -> a\n")
        assert g.start == "S"
        assert g.nonterminals == ("S",)

    def test_comments_and_blank_lines(self):
        g = parse_grammar_file(
            "# heading\n\nterminals: a  # trailing\n\nS -> a\n"
        )
        assert g.terminals == ("a",)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("S -> a\n", "terminals"),
            ("terminals: a\n", "no rules"),
            ("terminals: a\nS ->\n", "right-hand side"),
            ("terminals: a\nS -> a | | a\n", "right-hand side"),
            ("terminals: a\nS B -> a\n", "single nonterminal"),
            ("terminals: a\njunk\n", "expected"),
            ("start: S T\nterminals: a\nS -> a\n", "one symbol"),
            ("terminals: a\nstart: T\nS -> a\n", "start"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as e:
            parse_grammar_file(text)
        assert fragment in str(e.value)

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as e:
            parse_grammar_file("terminals: a\n\nS ->\n")
        assert e.value.line == 3
        # the error is known by line only, so no column is printed
        assert e.value.col is None
        assert str(e.value) == "line 3: empty right-hand side"

    def test_grammar_error_carries_no_position(self):
        # the duplicate sits on line 2; the check that finds it knows no line
        with pytest.raises(ParseError) as e:
            parse_grammar_file("terminals: a\nnonterminals: S S\nS -> a\n")
        assert e.value.line is None and e.value.col is None
        assert "duplicate" in str(e.value) and "line" not in str(e.value)

    def test_round_trip(self):
        for build, _ in corpus.LANGUAGES.values():
            g = build()
            assert parse_grammar_file(format_grammar(g)) == g


class TestParseLexiconFile:
    def test_basic(self):
        lg = parse_lexicon_file(ANBN_LEX_TEXT)
        assert lg.distinguished == "S"
        assert set(lg.lexicon["a"]) == {(S / B) / S, S / B}
        assert lg.lexicon["b"] == (B,)

    def test_primitives_inferred(self):
        lg = parse_lexicon_file("target: S\na : S/B\nb : B\n")
        assert set(lg.primitives) == {"S", "B"}

    def test_duplicate_entries_merge(self):
        lg = parse_lexicon_file("target: S\na : S\na : S/S\n")
        assert set(lg.lexicon["a"]) == {S, Slash(S, S)}

    def test_empty_entry(self):
        lg = parse_lexicon_file("target: S\nprimitives: S\na : S\nb :\n")
        assert lg.lexicon["b"] == ()

    def test_type_error_is_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_lexicon_file("target: S\na : S, S//B\n")
        assert e.value.line == 2
        assert e.value.col >= 8

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("a : S\n", "target"),
            ("target: S T\n", "one primitive"),
            ("target: S\nnonsense\n", "expected"),
            ("target: S\na b : S\n", "single symbol"),
            ("target: S\na : S,,S\n", "empty type"),
            ("target: S\nprimitives: S\na : S/B\n", "undeclared"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as e:
            parse_lexicon_file(text)
        assert fragment in str(e.value)

    def test_round_trip(self):
        for lg in (
            cfg_to_lambek(to_gnf(corpus.anbn())),
            lcfg_to_lambek(corpus.anban_linear()),
            LambekGrammar(("S",), ("a", "b"), "S", {"a": (S,), "b": ()}),
        ):
            assert parse_lexicon_file(format_lexicon(lg)) == lg


@pytest.fixture
def files(tmp_path):
    grammar = tmp_path / "anbn.cfg"
    grammar.write_text(ANBN_TEXT)
    lexicon = tmp_path / "anbn.lex"
    lexicon.write_text(ANBN_LEX_TEXT)
    return tmp_path, str(grammar), str(lexicon)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_grammar_text(self, files, capsys):
        _, grammar, _ = files
        code, out, _ = run(capsys, "classify", grammar)
        assert code == 0
        assert "gnf: yes" in out and "lcfg: no" in out

    def test_lexicon_json(self, files, capsys):
        _, _, lexicon = files
        code, out, _ = run(capsys, "classify", lexicon, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["format_version"] == 2
        assert payload["kind"] == "lexicon"
        assert payload["fragment"] == "slash"
        assert payload["max_degree"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/g.cfg")
        assert code == 2
        assert "error:" in err


class TestGnfCommand:
    def test_output_is_parseable_gnf(self, tmp_path, capsys):
        src = tmp_path / "left.cfg"
        src.write_text("terminals: a b\nS -> S a | b\n")
        code, out, _ = run(capsys, "gnf", str(src))
        assert code == 0
        from lambekit import classify_cfg

        assert classify_cfg(parse_grammar_file(out)).is_gnf

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "left.cfg"
        src.write_text("terminals: a b\nS -> S a | b\n")
        dest = tmp_path / "out.cfg"
        code, out, _ = run(capsys, "gnf", str(src), "-o", str(dest))
        assert code == 0
        assert "wrote" in out
        parse_grammar_file(dest.read_text())

    def test_rejects_lexicon(self, files, capsys):
        _, _, lexicon = files
        code, _, err = run(capsys, "gnf", lexicon)
        assert code == 3 and "error:" in err

    def test_json(self, capsys):
        path = ROOT / "samples" / "anban.lcfg"
        source = parse_grammar_file(path.read_text())
        assert not classify_cfg(source).is_gnf
        code, out, _ = run(capsys, "gnf", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        result = parse_grammar_file(payload["grammar"])
        assert classify_cfg(result).is_gnf
        assert payload["productions"] == len(result.productions)
        added = result.nonterminal_set - source.nonterminal_set
        assert added and payload["fresh_symbols"] == sorted(added)


class TestConvertCommand:
    def test_grammar_to_lexicon(self, files, capsys):
        _, grammar, _ = files
        code, out, _ = run(capsys, "convert", grammar, "--to", "lambek")
        assert code == 0
        lg = parse_lexicon_file(out)
        assert set(map(str, lg.lexicon["a"])) == {"S/B", "S/B/S"}

    def test_lexicon_to_grammar(self, files, capsys):
        _, _, lexicon = files
        code, out, _ = run(capsys, "convert", lexicon, "--to", "cfg")
        assert code == 0
        g = parse_grammar_file(out)
        assert g.start == "S"

    def test_via_reg(self, tmp_path, capsys):
        src = tmp_path / "ab.reg"
        src.write_text("terminals: a b\nS -> a B\nB -> b S | b\n")
        code, out, _ = run(capsys, "convert", str(src), "--to", "lambek", "--via", "reg")
        assert code == 0
        lg = parse_lexicon_file(out)
        assert all(t.degree <= 1 for t in lg.all_types())

    def test_via_lcfg(self, capsys):
        path = ROOT / "samples" / "anban.lcfg"
        code, out, _ = run(capsys, "convert", str(path), "--to", "lambek", "--via", "lcfg")
        assert code == 0
        lg = parse_lexicon_file(out)
        assert set(map(str, lg.lexicon["a"])) == {"S/A", "S\\A"}
        assert set(map(str, lg.lexicon["b"])) == {"S"}

    def test_via_rejected_for_lexicon(self, files, capsys):
        _, _, lexicon = files
        code, _, err = run(capsys, "convert", lexicon, "--to", "cfg", "--via", "gnf")
        assert code == 3 and "--via" in err

    def test_wrong_direction_errors(self, files, capsys):
        _, grammar, lexicon = files
        code, _, err = run(capsys, "convert", grammar, "--to", "cfg")
        assert code == 3 and "lambek" in err
        code, _, err = run(capsys, "convert", lexicon, "--to", "lambek")
        assert code == 3

    def test_json_payload(self, files, capsys):
        _, grammar, _ = files
        code, out, _ = run(capsys, "convert", grammar, "--to", "lambek", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["to"] == "lambek"
        assert "target: S" in payload["output"]
        assert "warnings" not in payload


class TestDecideCommand:
    def test_member(self, files, capsys):
        _, grammar, lexicon = files
        for f in (grammar, lexicon):
            code, out, _ = run(capsys, "decide", f, "aabb")
            assert code == 0 and "member" in out

    def test_non_member(self, files, capsys):
        _, grammar, _ = files
        code, out, _ = run(capsys, "decide", grammar, "abab")
        assert code == 1 and "not a member" in out

    def test_spaced_word(self, files, capsys):
        _, grammar, _ = files
        code, _, _ = run(capsys, "decide", grammar, "a a b b")
        assert code == 0

    def test_proof_output(self, files, capsys):
        _, _, lexicon = files
        code, out, _ = run(capsys, "decide", lexicon, "ab", "--proof")
        assert code == 0
        assert "[/L]" in out and "[axiom]" in out

    def test_fragment_flag_changes_the_calculus(self, tmp_path, capsys):
        lex = tmp_path / "comp.lex"
        lex.write_text(
            "target: S\nprimitives: S B C D\nx : S/(B/D)\ny : B/C\nz : C/D\n"
        )
        code, _, _ = run(capsys, "decide", str(lex), "x y z")
        assert code == 1
        code, _, _ = run(capsys, "decide", str(lex), "x y z", "--fragment", "full")
        assert code == 0

    def test_proof_runs_under_the_budget(self, tmp_path, capsys):
        # inferred full calculus: the proof needs /R, and the search pays
        lex = tmp_path / "full.lex"
        lex.write_text("target: S\nx : S/(B/D)\ny : B/C\nz : C/D\nw : B\\S\n")
        code, out, err = run(capsys, "decide", str(lex), "x y z", "--proof", "--budget", "2")
        assert code == 3 and out == ""
        assert err.startswith("error:") and "budget" in err
        code, out, _ = run(capsys, "decide", str(lex), "x y z", "--proof")
        assert code == 0 and "[/R]" in out

    def test_proof_of_a_long_word(self, capsys):
        lexicon = str(ROOT / "samples" / "anbn.lex")
        word = "a" * 100 + "b" * 100
        code, out, _ = run(capsys, "decide", lexicon, word, "--proof")
        assert code == 0 and out.startswith("member\n")
        # one /L per slash: 99 of (S/B)/S and one S/B
        assert out.count("[/L]") == 199
        code, out, _ = run(capsys, "decide", lexicon, word, "--proof", "--budget", "1000")
        assert code == 3 and out == ""

    def test_proof_json_is_the_proof_tree(self, files, capsys):
        _, _, lexicon = files
        code, out, _ = run(capsys, "decide", lexicon, "ab", "--proof", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["member"] is True
        assert payload["proof"]["sequent"] == "S/B, B -> S"
        assert payload["proof"]["rule"] == "/L"
        assert [q["rule"] for q in payload["proof"]["premises"]] == ["axiom", "axiom"]
        code, out, _ = run(capsys, "decide", lexicon, "ba", "--proof", "--json")
        assert code == 1 and json.loads(out)["proof"] is None

    def test_proof_json_of_a_tall_proof(self, tmp_path, capsys):
        # a^400 b a^400 on the linear lexicon: a proof about 800 levels tall,
        # deeper than a frame-per-level encoder or json.loads can go
        lex = tmp_path / "anban.lex"
        lex.write_text(format_lexicon(lcfg_to_lambek(corpus.anban_linear())))
        word = "a" * 400 + "b" + "a" * 400
        code, text, _ = run(capsys, "decide", str(lex), word, "--proof")
        assert code == 0
        code, out, _ = run(capsys, "decide", str(lex), word, "--proof", "--json")
        assert code == 0
        # the tree holds the text form's nodes, in the same pre-order
        rules = [line.rsplit("[", 1)[1].rstrip("]") for line in text.splitlines()[1:]]
        assert len(rules) == 1 + 2 * len(word) - 2
        assert [
            json.loads(line.split(": ", 1)[1].rstrip(","))
            for line in out.splitlines()
            if line.lstrip().startswith('"rule": ')
        ] == rules

    def test_long_word_on_cyk(self, tmp_path, capsys):
        grammar = tmp_path / "anbn_cyk.cfg"
        grammar.write_text("terminals: a b\nS -> A B | A S B\nA -> a\nB -> b\n")
        code, out, _ = run(capsys, "decide", str(grammar), "a" * 200 + "b" * 200)
        assert code == 0 and out == "member\n"

    def test_fragment_flag_rejected_for_grammar(self, files, capsys):
        _, grammar, _ = files
        code, _, err = run(capsys, "decide", grammar, "ab", "--fragment", "full")
        assert code == 3 and "error:" in err

    def test_deep_dyck_word_needs_no_budget(self, capsys):
        dyck = str(ROOT / "samples" / "dyck.cfg")
        word = "l" * 300 + "r" * 300
        code, out, _ = run(capsys, "decide", dyck, word)
        assert code == 0 and out == "member\n"
        code, out, err = run(capsys, "decide", dyck, word, "--budget", "5")
        assert code == 3 and out == ""
        assert err.startswith("error:") and "budget" in err

    def test_json(self, files, capsys):
        _, _, lexicon = files
        code, out, _ = run(capsys, "decide", lexicon, "ab", "--json")
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["word"] == ["a", "b"]


class TestProveCommand:
    def test_provable(self, capsys):
        code, out, _ = run(capsys, "prove", "S/B, B -> S")
        assert code == 0
        assert "[/L]" in out

    def test_not_provable(self, capsys):
        code, out, _ = run(capsys, "prove", "S -> S/(B/B)")
        assert code == 1
        assert "not provable" in out

    def test_rules_restriction(self, capsys):
        seq = "S/(B/D), B/C, C/D -> S"
        assert run(capsys, "prove", seq)[0] == 0
        assert run(capsys, "prove", seq, "--rules", "/L,\\L")[0] == 1

    def test_empty_rules_mean_axiom_only(self, capsys):
        # an explicit empty list is no rules, as ',' already is
        for rules in ("", ","):
            code, out, _ = run(capsys, "prove", "S/B, B -> S", "--rules", rules)
            assert code == 1 and "not provable" in out
        code, out, _ = run(capsys, "prove", "S -> S", "--rules", "")
        assert code == 0 and "[axiom]" in out

    def test_bad_rule_name(self, capsys):
        code, _, err = run(capsys, "prove", "S -> S", "--rules", "/Q")
        assert code == 2 and "unknown rule" in err
        # an --rules value has no line or column to report
        code, _, err = run(capsys, "prove", "S -> S", "--rules", "cut")
        assert code == 2
        assert err.startswith("error: unknown rule 'cut'; choose from ")

    def test_bad_sequent(self, capsys):
        code, _, err = run(capsys, "prove", "S ->")
        assert code == 2 and "error:" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "prove", "S/B, B -> S", "--json")
        payload = json.loads(out)
        assert payload["provable"] is True
        assert payload["proof"]["rule"] == "/L"
        # every call searches on a fresh engine, so the root is expanded
        assert payload["nodes_expanded"] > 0

    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_budget_overrun_exits_3_without_verdict(self, capsys, extra):
        # this sequent takes 8 node expansions
        seq = "S/(B/D), B/C, C/D -> S"
        code, out, err = run(capsys, "prove", seq, "--budget", "2", *extra)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "budget" in err
        code, out, _ = run(capsys, "prove", seq, "--budget", "8", *extra)
        assert code == 0 and out

    def test_budget_does_not_count_a_refuted_query(self, capsys):
        # the counts do not balance, so no node is expanded
        code, out, _ = run(capsys, "prove", "S/B, B, B -> S", "--budget", "0")
        assert code == 1 and "not provable" in out


class TestEnumerateCommand:
    def test_lists_language(self, files, capsys):
        _, grammar, _ = files
        code, out, _ = run(capsys, "enumerate", grammar, "--max-len", "6")
        assert code == 0
        assert out.splitlines() == ["ab", "aabb", "aaabbb"]

    def test_fragment_flag_rejected_for_grammar(self, capsys):
        dyck = str(ROOT / "samples" / "dyck.cfg")
        code, out, err = run(capsys, "enumerate", dyck, "--max-len", "3", "--fragment", "full")
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_json(self, files, capsys):
        _, _, lexicon = files
        code, out, _ = run(capsys, "enumerate", lexicon, "--max-len", "4", "--json")
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["strings"] == [["a", "b"], ["a", "a", "b", "b"]]


class TestCrosscheckCommand:
    def test_agreement(self, files, capsys):
        _, grammar, lexicon = files
        code, out, _ = run(
            capsys, "crosscheck", grammar, lexicon, "--max-len", "8"
        )
        assert code == 0
        assert "0 disagreements" in out

    def test_disagreement(self, tmp_path, capsys):
        one = tmp_path / "aplus.cfg"
        one.write_text("terminals: a\nS -> a S | a\n")
        two = tmp_path / "single.cfg"
        two.write_text("terminals: a\nS -> a\n")
        code, out, _ = run(
            capsys, "crosscheck", str(one), str(two), "--max-len", "5"
        )
        assert code == 1
        assert "first at" in out

    def test_mismatched_alphabets_are_tolerated(self, tmp_path, capsys):
        one = tmp_path / "a.cfg"
        one.write_text("terminals: a\nS -> a\n")
        two = tmp_path / "b.cfg"
        two.write_text("terminals: b\nS -> b\n")
        code, out, _ = run(
            capsys, "crosscheck", str(one), str(two), "--max-len", "2", "--json"
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["first_disagreement"]["word"] == ["a"]

    def test_fragment_flag_rejected_without_a_lexicon(self, files, capsys):
        _, grammar, _ = files
        dyck = str(ROOT / "samples" / "dyck.cfg")
        code, out, err = run(
            capsys, "crosscheck", grammar, dyck, "--max-len", "3", "--fragment", "full"
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_fragment_flag_applies_to_the_lexicon_side(self, tmp_path, capsys):
        grammar = tmp_path / "xyz.cfg"
        grammar.write_text("terminals: x y z\nS -> x y z\n")
        lex = tmp_path / "comp.lex"
        lex.write_text("target: S\nx : S/(B/D)\ny : B/C\nz : C/D\n")
        code, out, _ = run(capsys, "crosscheck", str(grammar), str(lex), "--max-len", "3")
        assert code == 1 and "first at 'xyz'" in out
        code, out, _ = run(
            capsys, "crosscheck", str(grammar), str(lex), "--max-len", "3", "--fragment", "full"
        )
        assert code == 0 and "0 disagreements" in out

    def test_exhaustive_json(self, tmp_path, capsys):
        one = tmp_path / "aplus.cfg"
        one.write_text("terminals: a\nS -> a S | a\n")
        two = tmp_path / "single.cfg"
        two.write_text("terminals: a\nS -> a\n")
        code, out, _ = run(
            capsys,
            "crosscheck", str(one), str(two), "--max-len", "4", "--exhaustive", "--json",
        )
        payload = json.loads(out)
        assert payload["strings_tested"] == 4
        assert payload["agreements"] == 1


class TestBadCounts:
    """--max-len below 1 and --budget below 0 are usage errors: exit 2
    with argparse's one-line message, before any file is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "F", "--max-len", "0"),
            ("enumerate", "F", "--max-len", "-3"),
            ("enumerate", "F", "--max-len", "2", "--budget", "-1"),
            ("crosscheck", "F", "F", "--max-len", "0"),
            ("crosscheck", "F", "F", "--max-len", "-1"),
            ("crosscheck", "F", "F", "--max-len", "2", "--budget", "-5"),
            ("decide", "F", "ab", "--budget", "-1"),
            ("decide", "F", "ab", "--budget", "many"),
            ("prove", "S -> S", "--budget", "-1"),
            ("prove", "S -> S", "--budget", "1.5"),
        ],
    )
    def test_usage_error(self, files, capsys, argv):
        _, grammar, _ = files
        argv = [grammar if a == "F" else a for a in argv]
        with pytest.raises(SystemExit) as e:
            main(argv)
        err = capsys.readouterr().err
        assert e.value.code == 2
        assert err.startswith("usage:") and "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"lambekit {argv[0]}: error: argument")

    def test_zero_budget_is_a_budget(self, files, capsys):
        _, grammar, _ = files
        code, _, err = run(capsys, "decide", grammar, "ab", "--budget", "0")
        assert code == 3 and "budget" in err


def _run_main(tmp_path, *argv):
    # a fresh interpreter, so the recursion limit is met at its usual depth
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    main_call = "import sys; from lambekit.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", main_call, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


class TestRecursionLimit:
    """Input past Python's recursion limit ends in exit 3, not a traceback
    under the "no" code."""

    def test_deeply_nested_sequent(self, tmp_path):
        n = 2000
        result = _run_main(tmp_path, "prove", "(" * n + "S" + ")" * n + " -> S")
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:") and result.stdout == ""

    def test_long_word_on_the_linear_chart(self, tmp_path):
        g = parse_grammar_file((ROOT / "samples" / "anban.lcfg").read_text())
        lex = tmp_path / "anban.lex"
        lex.write_text(format_lexicon(lcfg_to_lambek(g)))
        word = "a" * 500 + "b" + "a" * 500
        result = _run_main(tmp_path, "decide", str(lex), word)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:") and result.stdout == ""


class TestEntryPoint:
    def test_console_script_is_installed(self):
        argv = ["prove", "S/B, B -> S"]

        def check(cmd, env=None):
            result = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            assert "[/L]" in result.stdout

        # an installed wrapper is checked wherever one exists; this part
        # needs no tomllib, so it runs first
        exe = shutil.which("lambekit")
        if exe:
            check([exe, *argv])

        # the script as pyproject.toml declares it, run the way an
        # installer's generated wrapper runs it
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["lambekit"]
        module, attr = target.split(":")
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'lambekit'; sys.exit({attr}())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        check([sys.executable, "-c", wrapper, *argv], env=env)
