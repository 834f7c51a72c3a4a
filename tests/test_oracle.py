import itertools
import pickle
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
    SLASH_FRAGMENT,
    Sequent,
    Slash,
    StepLimitExceeded,
    cfg_member,
    cfg_to_lambek,
    crosscheck,
    enumerate_strings,
    format_proof,
    infer_config,
    lambek_member,
    lcfg_to_lambek,
    parse_grammar_file,
    parse_lexicon_file,
    reduce_slash_proof,
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


class TestGnfSweepsAgainstDerivations:
    """The one GNF-rule sweep through both of its table builders, the
    grammar's rules and its lexicon's spine decompositions, against
    ``derivations`` on the GNF form of each random grammar."""

    GRAMMARS = 200
    MAX_LEN = 6

    def test_every_short_string_of_random_grammars(self):
        members = tested = shared_tails = 0
        for seed in range(self.GRAMMARS):
            g = _random_cfg(random.Random(seed))
            language = bounded_language(
                g.productions, g.start, g.nonterminals, self.MAX_LEN
            )
            gnf = to_gnf(g)
            sweep, lexicon = CfgDecider(gnf, "gnf"), LambekDecider(cfg_to_lambek(gnf))
            for k in range(1, self.MAX_LEN + 1):
                for w in itertools.product(g.terminals, repeat=k):
                    verdict = w in language
                    assert sweep(w) == verdict, (seed, w)
                    assert lexicon(w) == verdict, (seed, w)
                    members += verdict
                    tested += 1
            # two rules for one terminal with one tail: one fold, two heads
            tails = [(p.rhs[0], p.rhs[1:]) for p in gnf.productions]
            shared_tails += len(set(tails)) < len(tails)
        assert shared_tails >= 20
        assert 0 < members < tested

    @pytest.mark.parametrize(
        "g,words",
        [
            (_sample("dyck.cfg"), ["lr", "llrr", "lrlr", "llrlrr", "lrrl", "rl"]),
            (_sample("anbn.cfg"), ["ab", "aabb", "aaabbb", "aab", "abab", "ba"]),
        ]
        + [
            (to_gnf(_random_cfg(random.Random(seed))), ["a", "ab", "ba", "abab", "bbaab"])
            for seed in range(5)
        ],
        ids=["dyck", "anbn"] + [f"random-{seed}" for seed in range(5)],
    )
    def test_gnf_budget_is_rules_per_position(self, g, words):
        # a step per (position, rule whose body starts with its symbol)
        decider = CfgDecider(g, "gnf")
        for w in words:
            steps = sum(p.rhs[0] == sym for sym in w for p in g.productions)
            assert _least_budget(decider, w) == steps, w
            with pytest.raises(StepLimitExceeded):
                decider(w, max_steps=steps - 1)

    def test_a_symbol_with_no_rule_costs_nothing(self):
        # c has no rule on either route (C is no wanted head), so its column
        # is free: acb and cbb cost a step for each of their other symbols
        grammar = parse_grammar_file("terminals: a b c\nS -> a B B\nB -> b\n")
        lexicon = parse_lexicon_file("target: S\na : S/B/B\nb : B\nc : C\n")
        for decider in (CfgDecider(grammar, "gnf"), LambekDecider(lexicon)):
            for w, steps, member in (("acb", 2, False), ("cbb", 2, False), ("abb", 3, True)):
                assert decider(w, max_steps=steps) is member, w
                with pytest.raises(StepLimitExceeded):
                    decider(w, max_steps=steps - 1)


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


def _naive_run(lexicon, target, word):
    """The regular fragment stepped by hand, with no automaton: the set of
    primitives the rest of the word must produce, one symbol at a time.
    Returns the verdict and the positions read before it was reached."""
    wanted = {target}
    for k, sym in enumerate(word[:-1]):
        wanted = {t.arg for t in lexicon[sym] if type(t) is Slash and t.result in wanted}
        if not wanted:
            return False, k + 1
    return any(t in wanted for t in lexicon[word[-1]]), len(word) - 1


def _random_regular_lexicon(rng):
    prims = [Primitive(f"P{i}") for i in range(rng.randint(2, 4))]
    alphabet = ("a", "b", "c")[: rng.randint(2, 3)]
    lexicon = {
        sym: tuple(
            rng.choice(prims) if rng.random() < 0.3 else rng.choice(prims) / rng.choice(prims)
            for _ in range(rng.randint(1, 3))
        )
        for sym in alphabet
    }
    return LambekGrammar(tuple(p.name for p in prims), alphabet, "P0", lexicon)


def _long_word(rng, lg, n, death=None):
    """n symbols that keep the run alive while some symbol can, but for the
    one at position ``death``, which kills it if some symbol can; the last
    accepts if one can."""
    wanted, word = {lg.target}, []
    for k in range(n - 1):
        steps = {
            sym: {t.arg for t in types if type(t) is Slash and t.result in wanted}
            for sym, types in lg.lexicon.items()
        }
        fits = sorted(sym for sym, nxt in steps.items() if bool(nxt) != (k == death))
        sym = rng.choice(fits or sorted(steps))
        word.append(sym)
        wanted = steps[sym] or wanted
    finals = sorted(sym for sym, types in lg.lexicon.items() if wanted.intersection(types))
    return tuple(word) + (rng.choice(finals or sorted(lg.lexicon)),)


class TestNfaAgainstNaiveStepper:
    """The determinised walk against a by-hand stepper on random degree-one
    /-only lexicons: the same verdicts, and the least budget that decides a
    word is min(n - 1, death position + 1)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_short_words(self, seed):
        lg = _random_regular_lexicon(random.Random(seed))
        decider = LambekDecider(lg)
        assert decider.config == REGULAR_FRAGMENT
        for w in enumerate_strings(lg.alphabet, 8):
            verdict, steps = _naive_run(lg.lexicon, lg.target, w)
            assert decider(w) is verdict, w
            assert _least_budget(decider, w) == steps, w

    @pytest.mark.parametrize("seed", range(12))
    def test_long_words(self, seed):
        rng = random.Random(seed)
        lg = _random_regular_lexicon(rng)
        decider = LambekDecider(lg)
        for death in (None, None, rng.randrange(9_999)):
            w = _long_word(rng, lg, 10_000, death)
            verdict, steps = _naive_run(lg.lexicon, lg.target, w)
            assert decider(w) is verdict
            assert _least_budget(decider, w) == steps

    def test_death_after_the_budget_raises(self):
        lg = reg_to_lambek(corpus.abplus())
        word = ("a", "b") * 100 + ("b", "b") + ("a", "b") * 100
        decider = LambekDecider(lg)
        # the second "b" in a row wants nothing: dead at position 200
        assert _naive_run(lg.lexicon, lg.target, word) == (False, 201)
        assert not decider(word, max_steps=201)
        for k in (0, 1, 100, 200):
            with pytest.raises(StepLimitExceeded):
                decider(word, max_steps=k)


class TestUnknownSymbols:
    """A word's first unknown symbol in word order is the one named, and it
    is named before any budget is spent."""

    DECIDERS = [
        CfgDecider(corpus.anbn()),
        LambekDecider(cfg_to_lambek(to_gnf(corpus.anbn()))),
        LambekDecider(lcfg_to_lambek(corpus.anban_linear())),
        LambekDecider(reg_to_lambek(corpus.abplus())),
    ]

    @pytest.mark.parametrize("decider", DECIDERS, ids=["cfg", "slash", "linear", "regular"])
    def test_first_unknown_symbol_is_named(self, decider):
        calls = [decider]
        if isinstance(decider, LambekDecider):
            calls.append(decider.find_proof)
        for call in calls:
            for max_steps in (None, 0):
                with pytest.raises(GrammarError, match="unknown symbol 'z'"):
                    call(("a", "b", "z", "b", "y"), max_steps=max_steps)
                with pytest.raises(GrammarError, match="unknown symbol 'y'"):
                    call("aby" + "ab" * 50 + "z", max_steps=max_steps)


class TestWordChartScale:
    """The word charts on long words: the sweep in the slash fragment, the
    walk in the linear one; neither keeps a frame per symbol, nor anything
    between calls."""

    ANBN = parse_lexicon_file((SAMPLES / "anbn.lex").read_text())
    ANBAN = lcfg_to_lambek(_sample("anban.lcfg"))
    ABPLUS = reg_to_lambek(_sample("abplus.reg"))

    @pytest.mark.parametrize("member", [True, False], ids=["member", "near-miss"])
    def test_anbn_at_200_is_fast(self, member):
        word = ("a",) * 200 + ("b",) * 199 + ("b" if member else "a",)
        started = time.perf_counter()
        assert LambekDecider(self.ANBN)(word) is member
        assert (LambekDecider(self.ANBN).find_proof(word) is not None) is member
        # the recursive span chart took 2.5 s to decide the member; the
        # budget tests pin the cost exactly, this only catches a return to it
        assert time.perf_counter() - started < 1.0

    def test_linear_walk_takes_ten_thousand_symbols(self):
        decider = LambekDecider(self.ANBAN)
        word = ("a",) * 5000 + ("b",) + ("a",) * 5000
        assert decider(word)
        assert not decider(word[:-1] + ("b",))
        assert not decider(word[1:])

    def test_regular_proof_of_a_long_word(self):
        decider = LambekDecider(self.ABPLUS)
        word = ("a", "b") * 1000
        proof = decider.find_proof(word)
        assert proof is not None and len(proof.conclusion.antecedent) == 2000
        assert validate(proof, REGULAR_FRAGMENT) == []
        assert decider.find_proof(word[:-1] + ("a",)) is None

    @pytest.mark.parametrize(
        "lexicon,word",
        [
            (ANBN, lambda n: ("a",) * n + ("b",) * n),
            (ANBAN, lambda n: ("a",) * n + ("b",) + ("a",) * n),
            (ABPLUS, lambda n: ("a", "b") * n),
        ],
        ids=["slash", "linear", "regular"],
    )
    def test_decider_keeps_no_per_word_state(self, lexicon, word):
        decider = LambekDecider(lexicon)
        shallow, deep = dict(vars(decider)), pickle.dumps(vars(decider))
        for n in range(100, 150):
            assert decider(word(n))
            assert decider.find_proof(word(n)) is not None
        assert vars(decider) == shallow
        assert pickle.dumps(vars(decider)) == deep

    @pytest.mark.parametrize(
        "config,method", [(None, "prove"), (FULL_CALCULUS, "auto")], ids=["prove", "full"]
    )
    def test_search_route_keeps_no_memo(self, config, method):
        # the search route's engine, memo and all, goes with the call
        decider = LambekDecider(ANBN_LEX, config, method)
        deep = pickle.dumps(vars(decider))
        for w in enumerate_strings(("a", "b"), 6):
            decider(w)
            decider.find_proof(w)
        assert pickle.dumps(vars(decider)) == deep


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


def _least_budget(run, word):
    """The least max_steps with which run(word, max_steps=...) returns; a
    run spends the same steps every time, so bisection finds it."""

    def fits(k):
        try:
            run(word, max_steps=k)
        except StepLimitExceeded:
            return False
        return True

    lo, hi = -1, 1
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
            # a warm finder keeps nothing from earlier words
            assert proof == LambekDecider(lexicon).find_proof(w), w
            if decider.config != LINEAR_FRAGMENT:
                # the sweep's witness is the sequence chart's on the same
                # type assignment: first decomposition, leftmost split
                assert proof == reduce_slash_proof(ant, target), w
            # reading the witness costs nothing beyond deciding the word
            cost = _least_budget(finder.find_proof, w)
            if decider.config == REGULAR_FRAGMENT:
                # the NFA decides and the sweep derives; each type of this
                # lexicon keeps one decomposition, a step per type offered
                assert cost == sum(len(lexicon.lexicon[sym]) for sym in w), w
            else:
                assert cost == _least_budget(decider, w), w

    def test_witness_order_on_an_ambiguous_lexicon(self):
        # the first type in lexicon order, its first decomposition, and the
        # leftmost split, where other choices derive the same word
        lg = LambekGrammar(
            ("S", "B"),
            ("a", "b", "c"),
            "S",
            {"a": (S / S, S / B), "b": (B, S, S / S), "c": ((S / S) / S,)},
        )
        decider = LambekDecider(lg)
        for word, ant in [
            ("ab", (S / B, B)),
            ("cbbb", ((S / S) / S, S, S / S, S)),
        ]:
            proof = decider.find_proof(word)
            assert proof.conclusion == Sequent(ant, S), word
            assert validate(proof, SLASH_FRAGMENT) == []

    def test_long_word_costs_what_membership_costs(self):
        lexicon = parse_lexicon_file((SAMPLES / "anbn.lex").read_text())
        word = ("a",) * 100 + ("b",) * 100
        cost = _least_budget(LambekDecider(lexicon), word)
        proof = LambekDecider(lexicon).find_proof(word, max_steps=cost)
        assert proof is not None
        assert validate(proof, SLASH_FRAGMENT) == []
        with pytest.raises(StepLimitExceeded):
            LambekDecider(lexicon).find_proof(word, max_steps=cost - 1)

    @pytest.mark.parametrize("n", [10, 100])
    def test_anbn_costs_three_steps_per_pair(self, n):
        # a's types S/B and (S/B)/S keep one decomposition each, S over B
        # and S over S, B, and b's type B keeps its own: a step per type
        # kept at each position, so 2 per a and 1 per b
        lexicon = parse_lexicon_file((SAMPLES / "anbn.lex").read_text())
        word = ("a",) * n + ("b",) * n
        decider = LambekDecider(lexicon)
        for run in (decider, decider.find_proof):
            assert run(word, max_steps=3 * n)
            with pytest.raises(StepLimitExceeded):
                run(word, max_steps=3 * n - 1)

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


def _random_linear_cfg(rng):
    """A random linear grammar in the shapes lcfg_to_lambek takes: A -> a B,
    A -> B a and A -> a, over two or three nonterminals."""
    nts = tuple(f"N{i}" for i in range(rng.randint(2, 3)))
    bodies = {}
    for _ in range(rng.randint(3, 7)):
        sym, nt = rng.choice("ab"), rng.choice(nts)
        body = rng.choice([(sym, nt), (nt, sym), (sym,)])
        bodies[rng.choice(nts), body] = None
    # some word at all, so most grammars have a language to decide
    bodies[rng.choice(nts), (rng.choice("ab"),)] = None
    prods = tuple(Production(lhs, body) for lhs, body in bodies)
    return Cfg(nts, ("a", "b"), "N0", prods)


class TestLinearWalk:
    """The linear walk on its own: against a naive derivation oracle, at
    exact budgets, and in its witness order."""

    ANBAN = lcfg_to_lambek(_sample("anban.lcfg"))

    @pytest.mark.parametrize("seed", range(0, 120, 10))
    def test_random_linear_grammars_against_derivations(self, seed):
        for rng in (random.Random(seed + k) for k in range(10)):
            g = _random_linear_cfg(rng)
            lg = lcfg_to_lambek(g)
            decider = LambekDecider(lg)
            if decider.config != LINEAR_FRAGMENT:
                continue  # no \ type: the NFA decides it
            language = bounded_language(g.productions, g.start, g.nonterminals, 7)
            for w in enumerate_strings(g.terminals, 7):
                member = w in language
                assert decider(w) is member, (g, w)
                proof = decider.find_proof(w)
                assert (proof is not None) is member, (g, w)
                if member:
                    assert proof.conclusion.consequent == lg.target
                    ant = proof.conclusion.antecedent
                    assert all(t in lg.lexicon[sym] for t, sym in zip(ant, w)), (g, w)
                    assert validate(proof, LINEAR_FRAGMENT) == [], (g, w)

    def test_random_grammars_reach_the_linear_walk(self):
        linear = sum(
            LambekDecider(lcfg_to_lambek(_random_linear_cfg(random.Random(k)))).config
            == LINEAR_FRAGMENT
            for k in range(120)
        )
        assert linear >= 100

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_anban_budgets_are_exact(self, n):
        # a step per span expanded: the member's spans peel one a from each
        # end in turn, down to the b; a flipped last symbol is refused after
        # the root and its first try; a^(n-1) b a^n peels to a dead end
        decider = LambekDecider(self.ANBAN)
        member = "a" * n + "b" + "a" * n
        for word, verdict, steps in [
            (member, True, 2 * n + 1),
            (member[:-1] + "b", False, 2),
            (member[1:], False, 2 * n - 1),
        ]:
            for run in (decider, decider.find_proof):
                assert _least_budget(run, word) == steps, (run, word)
            assert decider(word) is verdict
            assert (decider.find_proof(word) is not None) is verdict

    @pytest.mark.parametrize(
        "b_types", [(B, Backslash(C, S)), (Backslash(C, S), B)], ids=["B-first", "backslash-first"]
    )
    def test_first_position_try_wins(self, b_types):
        # "ab" derives by /L (a as S/B before B) and by \L (C before b as
        # C\S); the first position is tried before the last, whatever the
        # lexicon order within a symbol
        lg = LambekGrammar(("S", "B", "C"), ("a", "b"), "S", {"a": (S / B, C), "b": b_types})
        decider = LambekDecider(lg)
        assert decider.config == LINEAR_FRAGMENT
        proof = decider.find_proof("ab")
        assert proof.conclusion == Sequent((S / B, B), S)
        assert proof.rule.value == "/L"
        assert validate(proof, LINEAR_FRAGMENT) == []
        # with no /L derivation left, the \L one is found
        lg = LambekGrammar(("S", "B", "C"), ("a", "b"), "S", {"a": (C,), "b": b_types})
        proof = LambekDecider(lg).find_proof("ab")
        assert proof.conclusion == Sequent((C, Backslash(C, S)), S)
        assert proof.rule.value == "\\L"


class TestStringWords:
    """A plain string is decided as it is, with no copy; it must behave on
    every route exactly as the tuple of its characters."""

    LEXICON_ROUTES = [
        pytest.param(LambekDecider(ANBN_LEX), id="lexicon-sweep"),
        pytest.param(LambekDecider(lcfg_to_lambek(corpus.anban_linear())), id="linear"),
        pytest.param(LambekDecider(reg_to_lambek(corpus.abplus())), id="nfa"),
        pytest.param(LambekDecider(ANBN_LEX, FULL_CALCULUS), id="search"),
        pytest.param(LambekDecider(ANBN_LEX, method="recognizer"), id="recognizer"),
    ]

    @pytest.mark.parametrize(
        "decider",
        [
            pytest.param(CfgDecider(corpus.anbn(), "cyk"), id="cyk"),
            pytest.param(CfgDecider(corpus.anbn(), "gnf"), id="gnf-sweep"),
        ],
    )
    def test_grammar_routes(self, decider):
        for w in enumerate_strings(("a", "b"), 6):
            text = "".join(w)
            assert decider(text) is decider(w), w
            assert _least_budget(decider, text) == _least_budget(decider, w), w

    @pytest.mark.parametrize("decider", LEXICON_ROUTES)
    def test_lexicon_routes(self, decider):
        for w in enumerate_strings(("a", "b"), 6):
            text = "".join(w)
            assert decider(text) is decider(w), w
            for run in (decider, decider.find_proof):
                assert _least_budget(run, text) == _least_budget(run, w), w
            proof_text, proof_word = decider.find_proof(text), decider.find_proof(w)
            assert (proof_text is None) is (proof_word is None), w
            if proof_word is not None:
                assert format_proof(proof_text) == format_proof(proof_word), w
