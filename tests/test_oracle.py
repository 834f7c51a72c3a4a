import itertools
import random
import time
from pathlib import Path

import pytest

from lambekit import (
    Backslash,
    Cfg,
    CfgDecider,
    FragmentError,
    FULL_CALCULUS,
    GrammarError,
    LambekDecider,
    LambekGrammar,
    LINEAR_FRAGMENT,
    Primitive,
    Production,
    REGULAR_FRAGMENT,
    ReductionTable,
    SLASH_FRAGMENT,
    Sequent,
    Slash,
    StepLimitExceeded,
    cfg_member,
    cfg_to_lambek,
    crosscheck,
    enumerate_strings,
    infer_config,
    lambek_member,
    lcfg_to_lambek,
    parse_grammar_file,
    parse_lexicon_file,
    reg_to_lambek,
    to_gnf,
    validate,
)

import corpus
from derivations import bounded_language

S, B, C, D = (Primitive(x) for x in "SBCD")

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _sample(name):
    return parse_grammar_file((SAMPLES / name).read_text())


class TestEnumerateStrings:
    def test_order_and_count(self):
        out = list(enumerate_strings(("b", "a"), 2))
        assert out == [
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        ]

    def test_count_formula(self):
        assert len(list(enumerate_strings(("a", "b"), 10))) == 2**11 - 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_strings(("a",), 0))

    def test_duplicate_symbols_collapse(self):
        assert list(enumerate_strings(("a", "a"), 1)) == [("a",)]


class TestCfgMember:
    @pytest.mark.parametrize("name", sorted(corpus.LANGUAGES))
    @pytest.mark.parametrize("method", ["gnf", "cyk"])
    def test_matches_closed_form(self, name, method):
        build, predicate = corpus.LANGUAGES[name]
        g = build()
        if method == "gnf":
            g = to_gnf(g)
        for w in enumerate_strings(g.terminals, 8):
            assert cfg_member(g, w, method=method) == predicate(w), (name, w)

    def test_methods_agree_on_non_gnf_input(self):
        g = corpus.left_regular_ba_star()
        gnf = to_gnf(g)
        for w in enumerate_strings(("a", "b"), 7):
            assert cfg_member(g, w) == cfg_member(gnf, w, method="gnf")

    def test_string_input_reads_as_characters(self):
        assert cfg_member(corpus.anbn(), "aabb")
        assert not cfg_member(corpus.anbn(), "abab")

    def test_gnf_method_requires_gnf(self):
        with pytest.raises(FragmentError):
            cfg_member(corpus.left_regular_ba_star(), "b", method="gnf")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(GrammarError):
            cfg_member(corpus.anbn(), "ax")

    def test_empty_word_rejected(self):
        with pytest.raises(GrammarError):
            cfg_member(corpus.anbn(), "")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            cfg_member(corpus.anbn(), "ab", method="magic")

    def test_budget_is_enforced(self):
        g = to_gnf(corpus.dyck())
        word = tuple("llllrrrr")
        assert cfg_member(g, word, max_steps=100_000)
        with pytest.raises(StepLimitExceeded):
            cfg_member(g, word, max_steps=3)

    @pytest.mark.parametrize(
        "name,word,member",
        [
            ("dyck.cfg", "l" * 300 + "r" * 300, True),
            ("dyck.cfg", "l" * 300 + "r" * 299 + "l", False),
            ("anbn.cfg", "a" * 600 + "b" * 600, True),
            ("anbn.cfg", "a" * 600 + "b" * 599, False),
        ],
        ids=["dyck-300", "dyck-300-miss", "anbn-600", "anbn-600-miss"],
    )
    def test_gnf_sweep_is_linear_in_rules_tried(self, name, word, member):
        # each (position, rule) is tried once, with no recursion per symbol
        g = _sample(name)
        decider = CfgDecider(g)
        assert decider.method == "gnf"
        assert decider(word, max_steps=len(word) * len(g.productions)) == member

    @pytest.mark.parametrize("name", ["dyck.cfg", "anbn.cfg"])
    def test_gnf_sweep_matches_cyk_up_to_length_12(self, name):
        g = _sample(name)
        sweep, cyk = CfgDecider(g, "gnf"), CfgDecider(g, "cyk")
        for w in enumerate_strings(g.terminals, 12):
            assert sweep(w) == cyk(w), w


def _random_cfg(rng: random.Random) -> Cfg:
    """A small grammar over {a, b} with what CYK's tables must undo: bodies
    of three or four symbols (binarized), unit rules N_i -> N_i+1 (chains,
    sometimes a cycle), one body shared by several heads, a nonterminal D
    that derives nothing and an unreachable U."""
    nts = [f"N{i}" for i in range(rng.randint(2, 4))]
    symbols = nts + ["a", "b"]
    shared = [tuple(rng.choices(symbols, k=rng.randint(2, 4))) for _ in range(2)]
    rules = []
    for i, nt in enumerate(nts):
        rules.append((nt, (rng.choice("ab"),)))
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("unit", "long", "pair", "shared", "dead"))
            if kind == "unit":
                body = (nts[(i + 1) % len(nts)],)
            elif kind == "long":
                body = tuple(rng.choices(symbols, k=rng.randint(3, 4)))
            elif kind == "pair":
                body = tuple(rng.choices(symbols, k=2))
            elif kind == "shared":
                body = rng.choice(shared)
            else:
                body = (rng.choice(symbols), "D")
            rules.append((nt, body))
    rules += [("D", ("a", "D")), ("U", ("b", "a", "b"))]
    productions = tuple(Production(lhs, rhs) for lhs, rhs in rules)
    return Cfg(tuple(nts) + ("D", "U"), ("a", "b"), "N0", productions)


class TestCykAgainstDerivations:
    """CYK against leftmost derivations expanded by ``derivations``, which
    shares no code with the deciders."""

    GRAMMARS = 200
    MAX_LEN = 6

    def test_every_short_string_of_random_grammars(self):
        members = tested = 0
        long_bodies, chains, shared_bodies = set(), 0, 0
        for seed in range(self.GRAMMARS):
            g = _random_cfg(random.Random(seed))
            language = bounded_language(
                g.productions, g.start, g.nonterminals, self.MAX_LEN
            )
            decider = CfgDecider(g, "cyk")
            for k in range(1, self.MAX_LEN + 1):
                for w in itertools.product(g.terminals, repeat=k):
                    verdict = decider(w)
                    assert verdict == (w in language), (seed, w)
                    members += verdict
                    tested += 1
            bodies = [p.rhs for p in g.productions]
            long_bodies.update(len(rhs) for rhs in bodies if len(rhs) > 2)
            units = {
                p.lhs: p.rhs[0]
                for p in g.productions
                if len(p.rhs) == 1 and p.rhs[0] in g.nonterminal_set
            }
            chains += any(units.get(b) for b in units.values())
            shared_bodies += len(set(bodies)) < len(bodies)
        # the grammars exercise what they are built to, with both verdicts
        assert long_bodies == {3, 4}
        assert chains >= 20 and shared_bodies >= 20
        assert 0.05 * tested < members < 0.95 * tested


class TestCykScale:
    """Bit-vector CYK on S -> A B | A S B: three binary rules once the long
    body is binarized, one budget step per (span of width >= 2, rule)."""

    GRAMMAR = Cfg(
        ("S", "A", "B"),
        ("a", "b"),
        "S",
        tuple(
            Production(lhs, rhs)
            for lhs, rhs in [("S", "AB"), ("S", "ASB"), ("A", "a"), ("B", "b")]
        ),
    )
    N = 200
    WORDS = [("a" * N + "b" * N, True), ("a" * N + "b" * (N - 1) + "a", False)]

    @pytest.mark.parametrize("word,member", WORDS, ids=["member", "near-miss"])
    def test_fresh_decider_is_fast(self, word, member):
        started = time.perf_counter()
        assert CfgDecider(self.GRAMMAR)(word) is member
        # set-per-cell CYK took 8.5 s on this word; the budget test below pins
        # the cost exactly, this only catches a return to that
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("word,member", WORDS, ids=["member", "near-miss"])
    def test_budget_is_spans_times_rules(self, word, member):
        decider = CfgDecider(self.GRAMMAR)
        assert decider.method == "cyk"
        n = len(word)
        steps = n * (n - 1) // 2 * 3
        assert decider(word, max_steps=steps) is member
        with pytest.raises(StepLimitExceeded):
            decider(word, max_steps=steps - 1)


class TestNfaScale:
    """The regular-fragment automaton on (ab)^n at 10^5 symbols: one step
    per position read before the last."""

    LEXICON = reg_to_lambek(corpus.abplus())
    WORD = ("a", "b") * 50_000

    def test_member_and_near_miss(self):
        decider = LambekDecider(self.LEXICON)
        n = len(self.WORD)
        assert decider(self.WORD, max_steps=n - 1)
        with pytest.raises(StepLimitExceeded):
            decider(self.WORD, max_steps=n - 2)
        miss = self.WORD[:-1] + ("a",)
        assert not decider(miss, max_steps=n - 1)
        with pytest.raises(StepLimitExceeded):
            decider(miss, max_steps=n - 2)

    def test_early_death_charges_only_what_it_read(self):
        # "b" after "b" wants nothing: dead at 0-based position 2
        word = ("a", "b", "b") + self.WORD
        decider = LambekDecider(self.LEXICON)
        assert not decider(word, max_steps=3)
        with pytest.raises(StepLimitExceeded):
            decider(word, max_steps=2)


ANBN_LEX = cfg_to_lambek(to_gnf(corpus.anbn()))


class TestLambekMember:
    def test_membership(self):
        assert lambek_member(ANBN_LEX, "ab")
        assert lambek_member(ANBN_LEX, "aabb")
        assert not lambek_member(ANBN_LEX, "a")
        assert not lambek_member(ANBN_LEX, "ba")

    @pytest.mark.parametrize("method", ["auto", "recognizer", "prove"])
    def test_methods_agree(self, method):
        decider = LambekDecider(ANBN_LEX, method=method)
        for w in enumerate_strings(("a", "b"), 6):
            assert decider(w) == corpus.in_anbn(w), (method, w)

    def test_linear_lexicon_methods_agree(self):
        lg = lcfg_to_lambek(corpus.anban_linear())
        for method in ("auto", "recognizer", "prove"):
            decider = LambekDecider(lg, method=method)
            for w in enumerate_strings(("a", "b"), 7):
                assert decider(w) == corpus.in_anban(w), (method, w)

    def test_regular_lexicon_methods_agree(self):
        lg = reg_to_lambek(corpus.abplus())
        for method in ("auto", "recognizer", "prove"):
            decider = LambekDecider(lg, method=method)
            for w in enumerate_strings(("a", "b"), 8):
                assert decider(w) == corpus.in_abplus(w), (method, w)

    def test_full_calculus_is_stronger_than_left_rules(self):
        # same lexicon, different calculus, different language: dispatch
        # must not quietly substitute the chart for real proof search
        lg = LambekGrammar(
            ("S", "B", "C", "D"),
            ("x", "y", "z"),
            "S",
            {"x": (Slash(S, B / D),), "y": (B / C,), "z": (C / D,)},
        )
        word = ("x", "y", "z")
        assert not lambek_member(lg, word)  # inferred slash fragment
        assert not lambek_member(lg, word, SLASH_FRAGMENT)
        assert lambek_member(lg, word, FULL_CALCULUS)
        assert lambek_member(lg, word, FULL_CALCULUS, method="prove")

    def test_recognizer_method_requires_a_fragment(self):
        lg = LambekGrammar(("S", "B"), ("a",), "S", {"a": (Backslash(B / B, S),)})
        with pytest.raises(FragmentError):
            lambek_member(lg, "a", FULL_CALCULUS, method="recognizer")

    def test_decider_rejects_lexicon_outside_config(self):
        with pytest.raises(FragmentError):
            LambekDecider(ANBN_LEX, REGULAR_FRAGMENT)  # degree-2 type inside

    def test_unknown_symbol_and_empty_word(self):
        with pytest.raises(GrammarError):
            lambek_member(ANBN_LEX, "q")
        with pytest.raises(GrammarError):
            lambek_member(ANBN_LEX, "")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            LambekDecider(ANBN_LEX, method="magic")

    @pytest.mark.parametrize(
        "lexicon, word",
        [
            (ANBN_LEX, "aaaabbbb"),
            (lcfg_to_lambek(corpus.anban_linear()), "aaaabaaaa"),
            (reg_to_lambek(corpus.abplus()), "abababab"),
        ],
        ids=["slash", "linear", "nfa"],
    )
    def test_budget_is_enforced(self, lexicon, word):
        word = tuple(word)
        assert lambek_member(lexicon, word, max_steps=100_000)
        with pytest.raises(StepLimitExceeded):
            lambek_member(lexicon, word, max_steps=2)

    def test_linear_chart_depth_is_one_frame_per_symbol(self):
        # 801 symbols: any extra frame per symbol runs past the default
        # recursion limit of 1,000
        decider = LambekDecider(lcfg_to_lambek(corpus.anban_linear()))
        word = ("a",) * 400 + ("b",) + ("a",) * 400
        assert decider(word)
        assert not decider(word[:-1] + ("b",))

    def test_find_proof(self):
        decider = LambekDecider(ANBN_LEX)
        proof = decider.find_proof("aabb")
        assert proof is not None
        assert validate(proof, decider.config) == []
        word_types = [decider.grammar.types_for(s) for s in "aabb"]
        assert all(
            t in choices
            for t, choices in zip(proof.conclusion.antecedent, word_types)
        )
        assert decider.find_proof("ba") is None

    def test_prove_route_budget_reaches_the_search(self):
        # one assignment, so only the search's own nodes can overrun
        lg = LambekGrammar(
            ("S", "B", "C", "D"),
            ("x", "y", "z"),
            "S",
            {"x": (Slash(S, B / D),), "y": (B / C,), "z": (C / D,)},
        )
        word = ("x", "y", "z")
        decider = LambekDecider(lg, FULL_CALCULUS, method="prove")
        with pytest.raises(StepLimitExceeded):
            decider(word, max_steps=5)
        # the overrun stopped the search before its root finished, so the
        # root is not memoized and must be expanded again
        with pytest.raises(StepLimitExceeded):
            decider(word, max_steps=1)
        with pytest.raises(StepLimitExceeded):
            LambekDecider(lg, FULL_CALCULUS).find_proof(word, max_steps=5)
        assert LambekDecider(lg, FULL_CALCULUS, method="prove")(word, max_steps=100)
        proof = LambekDecider(lg, FULL_CALCULUS).find_proof(word, max_steps=100)
        assert proof.conclusion == Sequent((Slash(S, B / D), B / C, C / D), S)
        assert validate(proof, FULL_CALCULUS) == []

    def test_empty_lexicon_entry_never_matches(self):
        lg = LambekGrammar(("S",), ("a", "b"), "S", {"a": (S,), "b": ()})
        assert lambek_member(lg, "a")
        assert not lambek_member(lg, "b")
        assert not lambek_member(lg, "ab")


class TestInferConfig:
    def test_shapes(self):
        reg = LambekGrammar(("S",), ("a",), "S", {"a": (S, Slash(S, S))})
        assert infer_config(reg) == REGULAR_FRAGMENT
        slash = ANBN_LEX
        assert infer_config(slash) == SLASH_FRAGMENT
        lin = lcfg_to_lambek(corpus.anban_linear())
        assert infer_config(lin) == LINEAR_FRAGMENT
        full = LambekGrammar(("S", "B"), ("a",), "S", {"a": (Backslash(B / B, S),)})
        assert infer_config(full) == FULL_CALCULUS


class TestCrosscheck:
    def test_agreement(self):
        report = crosscheck(
            CfgDecider(corpus.anbn()),
            LambekDecider(ANBN_LEX),
            ("a", "b"),
            7,
        )
        assert report.agreed
        assert report.strings_tested == 2**8 - 2
        assert report.agreements == report.strings_tested
        assert report.first_disagreement is None
        assert "0 disagreements" in str(report)

    def test_first_disagreement(self):
        report = crosscheck(
            CfgDecider(corpus.aplus()),
            CfgDecider(corpus.a_single()),
            ("a",),
            6,
        )
        assert not report.agreed
        assert report.first_disagreement == (("a", "a"), True, False)
        assert report.strings_tested == 2  # stopped at the disagreement

    def test_exhaustive_keeps_going(self):
        report = crosscheck(
            CfgDecider(corpus.aplus()),
            CfgDecider(corpus.a_single()),
            ("a",),
            6,
            exhaustive=True,
        )
        assert report.strings_tested == 6
        assert report.agreements == 1
        assert "5 disagreements" in str(report)

    def test_budget_propagates(self):
        with pytest.raises(StepLimitExceeded):
            crosscheck(
                CfgDecider(to_gnf(corpus.dyck())),
                CfgDecider(to_gnf(corpus.dyck())),
                ("l", "r"),
                8,
                step_budget=2,
            )

    def test_report_times_itself(self):
        report = crosscheck(
            CfgDecider(corpus.aplus()), CfgDecider(corpus.aplus()), ("a",), 3
        )
        assert report.elapsed_seconds >= 0
        assert report.max_length == 3


def _corpus_lexicons():
    lexicons = [
        pytest.param(cfg_to_lambek(to_gnf(build())), id=f"gnf-{name}")
        for name, (build, _) in corpus.LANGUAGES.items()
    ]
    lexicons.append(pytest.param(lcfg_to_lambek(corpus.anban_linear()), id="lcfg-anban"))
    lexicons.append(pytest.param(reg_to_lambek(corpus.abplus()), id="reg-abplus"))
    return lexicons


class TestFindProof:
    """find_proof decides membership and reads its witness off the same
    chart; each proof is checked here, never in the decider."""

    @pytest.mark.parametrize("lexicon", _corpus_lexicons())
    def test_proof_exactly_for_members(self, lexicon):
        decider, finder = LambekDecider(lexicon), LambekDecider(lexicon)
        target = lexicon.target
        for w in enumerate_strings(lexicon.alphabet, 8):
            proof = finder.find_proof(w)
            if not decider(w):
                assert proof is None, w
                continue
            assert proof is not None, w
            ant = proof.conclusion.antecedent
            assert proof.conclusion.consequent == target
            assert len(ant) == len(w)
            assert all(t in lexicon.lexicon[sym] for t, sym in zip(ant, w)), w
            assert validate(proof, decider.config) == [], w
            # many of the warm finder's spans come from its shared map, whose
            # splits the walk fills in; a fresh decider derives them itself
            assert proof == LambekDecider(lexicon).find_proof(w), w
            # the walk asks only what a chart with no shared results asks
            # to decide the word (shared results can skip a span's splits)
            chart = ReductionTable(w, None, lexicon.lexicon)
            assert chart.reduce(0, len(w), target)
            assert LambekDecider(lexicon).find_proof(w, max_steps=chart.ops) is not None

    def test_long_word_costs_what_membership_costs(self):
        lexicon = parse_lexicon_file((SAMPLES / "anbn.lex").read_text())
        word = ("a",) * 100 + ("b",) * 100
        chart = ReductionTable(word, {}, lexicon.lexicon)
        assert chart.reduce(0, len(word), lexicon.target)
        proof = LambekDecider(lexicon).find_proof(word, max_steps=chart.ops)
        assert proof is not None
        assert validate(proof, SLASH_FRAGMENT) == []
        with pytest.raises(StepLimitExceeded):
            LambekDecider(lexicon).find_proof(word, max_steps=chart.ops - 1)

    def test_proof_as_tall_as_the_word(self):
        # 801 symbols: a walk with a frame per position would overflow
        decider = LambekDecider(lcfg_to_lambek(corpus.anban_linear()))
        word = ("a",) * 400 + ("b",) + ("a",) * 400
        proof = decider.find_proof(word)
        assert proof is not None
        assert validate(proof, decider.config) == []
        assert decider.find_proof(word[:-1] + ("b",)) is None

    def test_regular_lexicon_proof_uses_slash_left_only(self):
        decider = LambekDecider(reg_to_lambek(corpus.abplus()))
        assert decider.config == REGULAR_FRAGMENT
        proof = decider.find_proof("abab")
        rules = {node.rule.value for _, node in proof.nodes()}
        assert rules == {"/L", "axiom"}
