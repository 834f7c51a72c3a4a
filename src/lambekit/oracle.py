"""Ground-truth membership deciders and the exhaustive cross-check harness.

Two independent routes exist for everything at desk scale: grammars are
decided by ``recognizer.sweep`` over a GNF grammar's terminal-first rules
or by bit-vector CYK, each ``CfgDecider`` compiling its route's tables
once to int-numbered nonterminals, so a call does int operations only;
lexicons by the same sweep over their spine decompositions or by the
linear chart and NFA of ``recognizer``, whose tables each
``LambekDecider`` compiles once and whose per-word state goes with the
call, or by raw proof search over every type assignment.  The sweep has
two table builders, ``_gnf_tables`` here for grammars and
``compile_spines`` for lexicons; CYK shares no code with it.  A lexicon's
derivations come from the same routes: read off the chart that decided
membership, or found by the search.  ``crosscheck`` walks all strings up
to a length bound and reports the first point where two deciders part
ways.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    CalculusConfig,
    Cfg,
    FragmentError,
    GrammarError,
    LambekGrammar,
    Proof,
    Rule,
    Sequent,
    StepLimitExceeded,
    _Budget,
    _outside,
    classify_cfg,
    FULL_CALCULUS,
    LINEAR_FRAGMENT,
    REGULAR_FRAGMENT,
    SLASH_FRAGMENT,
)
from .prover import ProofEngine
from .recognizer import (
    LinearChart,
    SpineChart,
    _derive,
    compile_linear,
    compile_nfa,
    compile_spines,
    group_rules,
    nfa_member,
    reduce_linear,
    reduce_regular,
    reduce_slash,
    sweep,
)
from .transform import remove_unit_productions

Word = Sequence[str]


def _checked_word(w: Word, symbols: frozenset) -> Sequence[str]:
    # a plain string is read as its characters, and kept as it is; any
    # other symbol sequence becomes a tuple
    word = w if isinstance(w, str) else tuple(w)
    if not word:
        raise GrammarError("the empty string is outside every language here")
    if not symbols.issuperset(word):
        unknown = next(sym for sym in word if sym not in symbols)
        raise GrammarError(f"unknown symbol {unknown!r}")
    return word


def enumerate_strings(alphabet: Iterable[str], max_len: int) -> Iterator[tuple]:
    """All nonempty strings up to max_len, shortest first, each length in
    lexicographic order over the sorted alphabet."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    symbols = sorted(set(alphabet))
    for k in range(1, max_len + 1):
        yield from itertools.product(symbols, repeat=k)


# --------------------------------------------------------------------------
# CFG membership


def _gnf_tables(g: Cfg) -> tuple:
    """The sweep's tables, every nonterminal interned to an int, the start
    as 0: each terminal's rules by ``group_rules``, and the id count."""
    ids: dict = {g.start: 0}
    rules: dict = {a: [] for a in g.terminals}
    for p in g.productions:
        tail = tuple(ids.setdefault(sym, len(ids)) for sym in p.rhs[1:])
        rules[p.rhs[0]].append((ids.setdefault(p.lhs, len(ids)), tail))
    return group_rules(rules), len(ids)


def _gnf_member(tables: tuple, w: Word, budget: _Budget) -> bool:
    """The ``sweep`` verdict: head 0 (the start, or a lexicon's target)
    derives all of w."""
    rules, size = tables
    return bool(sweep(w, rules, size, budget)[0][0] >> len(w) & 1)


def _cnf_tables(g: Cfg) -> tuple:
    """CYK's tables, every nonterminal interned to an int, the start as 0:
    a tuple of heads per terminal (unit rules removed), and the distinct
    binary rules (A, B, C) after binarizing longer bodies and wrapping the
    terminals inside them.  Fresh symbols are opaque tuples, immune to name
    clashes."""
    g = remove_unit_productions(g)
    ids: dict = {g.start: 0}

    def intern(sym) -> int:
        return ids.setdefault(sym, len(ids))

    terminal_heads: dict = {}

    def wrap(sym: str) -> int:
        key = ("wrap", sym)
        if key not in ids:
            terminal_heads.setdefault(sym, set()).add(intern(key))
        return ids[key]

    rules: dict = {}  # insertion-ordered set of (A, B, C)
    counter = itertools.count()
    for p in g.productions:
        if len(p.rhs) == 1:
            # unit-free and epsilon-free: a single symbol must be a terminal
            terminal_heads.setdefault(p.rhs[0], set()).add(intern(p.lhs))
            continue
        symbols = [
            intern(sym) if sym in g.nonterminal_set else wrap(sym) for sym in p.rhs
        ]
        while len(symbols) > 2:
            fresh = intern(("bin", next(counter)))
            rules[fresh, symbols[-2], symbols[-1]] = None
            symbols[-2:] = [fresh]
        rules[intern(p.lhs), symbols[0], symbols[1]] = None
    heads = {sym: tuple(hs) for sym, hs in terminal_heads.items()}
    return heads, tuple(rules), len(ids)


def _cyk_member(tables: tuple, w: Word, budget: _Budget) -> bool:
    """Bit-vector CYK (Graham, Harrison & Ruzzo 1980), spans by width.
    ends[i][X] is a bitmask of the positions j with X =>* w[i:j], and
    starts[j][X] one of the positions i; span (i, j) gets A when
    ends[i][B] & starts[j][C] is nonzero for a rule A -> B C.  Only
    narrower spans are set when a span is tried, and with no unit rules
    one pass over the rules is exact.  One step per (span, rule)."""
    heads, rules, size = tables
    n = len(w)
    ends = [[0] * size for _ in range(n + 1)]
    starts = [[0] * size for _ in range(n + 1)]
    for i, sym in enumerate(w):
        for a in heads.get(sym, ()):
            ends[i][a] |= 1 << (i + 1)
            starts[i + 1][a] |= 1 << i
    cost = len(rules)
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            budget.spend(cost)
            left, right = ends[i], starts[j]
            for a, b, c in rules:
                if left[b] & right[c]:
                    # bit j cannot meet starts[j], nor bit i ends[i]:
                    # no other rule for this span sees them
                    left[a] |= 1 << j
                    right[a] |= 1 << i
    return bool(ends[0][0] >> n & 1)


def cfg_member(
    g: Cfg, w: Word, method: str = "auto", max_steps: Optional[int] = None
) -> bool:
    """Decide whether the grammar derives the string.

    method: "auto" picks the GNF sweep for GNF grammars and CYK otherwise;
    "gnf" and "cyk" force a route (the former requires GNF).  Build a
    CfgDecider directly to build the route's tables once for many strings.
    """
    return CfgDecider(g, method)(w, max_steps)


class CfgDecider:
    """Membership decider for one grammar; usable as a crosscheck arm.

    The route ("gnf" or "cyk", in ``method``) is chosen and its tables are
    built once, here, over nonterminals interned to ints (the start as 0).
    For the GNF route, ``_gnf_tables`` groups the rules by terminal and
    tail for ``recognizer.sweep``, the sweep a /-only lexicon runs on too:
    a column folds each distinct tail once and charges the budget once, a
    step per (position, rule).  For CYK, unit-free
    binarized rules, which a call runs as bitmask ANDs, one budget step
    per (span, binary rule).  A call only checks the word and runs the
    route.
    """

    def __init__(self, g: Cfg, method: str = "auto"):
        self.grammar = g
        if method == "auto":
            method = "gnf" if classify_cfg(g).is_gnf else "cyk"
        elif method == "gnf" and not classify_cfg(g).is_gnf:
            raise FragmentError("the GNF sweep requires Greibach normal form")
        if method == "gnf":
            self._tables, self._member = _gnf_tables(g), _gnf_member
        elif method == "cyk":
            self._tables, self._member = _cnf_tables(g), _cyk_member
        else:
            raise ValueError(f"unknown method {method!r}")
        self.method = method

    def __call__(self, w: Word, max_steps: Optional[int] = None) -> bool:
        word = _checked_word(w, self.grammar.terminal_set)
        return self._member(self._tables, word, _Budget(max_steps))


# --------------------------------------------------------------------------
# lexicon membership


# every fragment by name, with the recognizer its type assignments go to
# (None for the full calculus, which only search decides); a lexicon
# belongs to the first one it fits
_FRAGMENTS = {
    "regular": (REGULAR_FRAGMENT, reduce_regular),
    "slash": (SLASH_FRAGMENT, reduce_slash),
    "linear": (LINEAR_FRAGMENT, reduce_linear),
    "full": (FULL_CALCULUS, None),
}


def _lexicon_in(lg: LambekGrammar, fragment: CalculusConfig) -> bool:
    return _outside(lg.all_types(), fragment.type_restriction) is None


def infer_config(lg: LambekGrammar) -> CalculusConfig:
    """The natural fragment for a lexicon's shape: /-only lexicons get the
    slash fragment (degree-one ones the regular fragment), degree-one
    {/, \\} lexicons the linear fragment, anything else the full calculus."""
    return next(f for f, _ in _FRAGMENTS.values() if _lexicon_in(lg, f))


class LambekDecider:
    """Membership decider for one lexicon under one configuration.

    method "auto" decides a word with lexicon choices folded in, and is
    "prove" outside the chart fragments: a /-only lexicon is compiled here
    once by ``compile_spines`` to GNF rules, which ``recognizer.sweep``
    decides as it does a grammar's for ``CfgDecider``, the verdict read
    off the target's column-0 mask with no witness read (``SpineChart``
    reads a proof off the same sweep); a regular one instead to an NFA
    over int bitmasks (``compile_nfa``) that decides it, determinised per
    call into plain dicts, its spines compiled only when ``find_proof``
    asks for a proof; and a linear one to ``compile_linear``'s int tries,
    which ``LinearChart`` walks to decide and derive alike.  "recognizer"
    and "prove" enumerate type assignments one by one and hand each to the
    fragment recognizer or the prover; the search route builds one
    ``ProofEngine`` per call, shared by that call's assignments.  A call
    keeps nothing once it returns.  All three agree; the slower routes
    keep each other honest in tests.
    A budget step is a (position, kept spine decomposition) of the sweep,
    charged a column at a time, a span the linear walk expands or a
    position the NFA reads before the last, and elsewhere a type
    assignment tried or a search node expanded.
    ``find_proof`` decides and derives in one call.
    """

    def __init__(
        self,
        lg: LambekGrammar,
        config: Optional[CalculusConfig] = None,
        method: str = "auto",
    ):
        self.grammar = lg
        self._symbols = frozenset(lg.lexicon)
        self.config = config or infer_config(lg)
        if method not in ("auto", "recognizer", "prove"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        bad = _outside(lg.all_types(), self.config.type_restriction)
        if bad is not None:
            raise FragmentError(f"lexicon type {bad} falls outside the configured restriction")
        # the chart is exact when the configuration's rules are the
        # fragment's left rules, or /L with \L idle for want of a \ type
        rules = self.config.enabled_rules
        self._fragment, self._recognize = None, None
        if rules <= {Rule.SLASH_L, Rule.BACK_L}:
            for fragment, recognize in _FRAGMENTS.values():
                if fragment.enabled_rules <= rules and _lexicon_in(lg, fragment):
                    self._fragment, self._recognize = fragment, recognize
                    break
        # the chart class a proof is read off, with its tables, and the
        # sweep's tables, which decide a /-only word; a regular lexicon is
        # decided by its NFA and derived by a sweep compiled per proof
        self._nfa = self._sweep = self._chart = None
        if self._fragment is REGULAR_FRAGMENT:
            self._nfa = compile_nfa(lg.lexicon, lg.target)
        elif self._fragment is LINEAR_FRAGMENT:
            self._chart = (LinearChart, compile_linear(lg.lexicon, lg.target))
        elif self._fragment is not None:
            spines = compile_spines(lg.lexicon, lg.target)
            self._chart, self._sweep = (SpineChart, spines), spines[2]

    def __call__(self, w: Word, max_steps: Optional[int] = None) -> bool:
        word = _checked_word(w, self._symbols)
        budget = _Budget(max_steps)
        target = self.grammar.target
        if self.method == "auto" and self._fragment is not None:
            if self._nfa is not None:
                return nfa_member(word, self._nfa, budget)
            if self._sweep is not None:
                return _gnf_member(self._sweep, word, budget)
            chart, tables = self._chart
            return chart(word, tables, budget).reduce(0, len(word), target)
        if self.method != "recognizer":
            return self._first(word, budget, partial(self._proof, ProofEngine())) is not None
        if self._recognize is None:
            raise FragmentError("no recognizer covers this lexicon/configuration; use prove")
        return self._first(word, budget, lambda seq, _: self._recognize(seq, target)) is not None

    def find_proof(self, w: Word, max_steps: Optional[int] = None) -> Optional[Proof]:
        """A derivation of a type assignment of the word to the target, or
        None for a non-member; ``max_steps`` as in ``__call__``.  In a chart
        fragment it is read off the chart that decided membership (for a
        regular lexicon, a sweep compiled for the call, which decides it
        too), elsewhere found by search."""
        word = _checked_word(w, self._symbols)
        budget = _Budget(max_steps)
        if self._fragment is None:
            return self._first(word, budget, partial(self._proof, ProofEngine()))
        target = self.grammar.target
        if self._chart is None:  # a regular lexicon: the sweep derives
            chart, tables = SpineChart, compile_spines(self.grammar.lexicon, target)
        else:
            chart, tables = self._chart
        found = chart(word, tables, budget)
        return _derive(found, target) if found.reduce(0, len(word), target) else None

    def _first(self, word: Word, budget: _Budget, holds: Callable):
        """What ``holds(assignment, budget)`` finds for the first type
        assignment of the word, in canonical order; one step per try."""
        for assignment in itertools.product(*(self.grammar.lexicon[s] for s in word)):
            budget.spend()
            found = holds(assignment, budget)
            if found:
                return found
        return None

    def _proof(self, engine: ProofEngine, assignment: tuple, budget: _Budget) -> Optional[Proof]:
        # the search runs on what is left of the budget, then pays for it;
        # the engine is the call's own, so its memo goes with the call
        seq = Sequent(assignment, self.grammar.target)
        result = engine.prove(seq, self.config, max_steps=budget.left)
        budget.spend(result.stats.nodes_expanded)
        return result.proof


def lambek_member(
    lg: LambekGrammar,
    w: Word,
    config: Optional[CalculusConfig] = None,
    method: str = "auto",
    max_steps: Optional[int] = None,
) -> bool:
    """Decide whether some type assignment for the string reduces to the
    distinguished type.  Build a LambekDecider directly to compile the
    lexicon once for many strings."""
    return LambekDecider(lg, config, method)(w, max_steps)


# --------------------------------------------------------------------------
# cross-checking


@dataclass
class CrosscheckReport:
    max_length: int
    strings_tested: int
    agreements: int
    first_disagreement: Optional[tuple]  # (word, verdict_a, verdict_b)
    elapsed_seconds: float

    @property
    def agreed(self) -> bool:
        return self.first_disagreement is None

    def __str__(self) -> str:
        n_dis = self.strings_tested - self.agreements
        msg = f"{self.strings_tested} strings, {n_dis} disagreements"
        if self.first_disagreement is not None:
            word, va, vb = self.first_disagreement
            msg += f"; first at {''.join(word)!r} ({va} vs {vb})"
        return msg


def crosscheck(
    decider_a: Callable,
    decider_b: Callable,
    alphabet: Iterable[str],
    max_len: int,
    exhaustive: bool = False,
    step_budget: Optional[int] = None,
) -> CrosscheckReport:
    """Compare two membership deciders on every string up to max_len.

    Stops at the first disagreement unless exhaustive is set.  When a step
    budget is given it is passed through to the deciders per string; a
    budget overrun propagates as an error, never as a verdict.
    """
    started = time.perf_counter()
    tested = agreements = 0
    first = None
    for word in enumerate_strings(alphabet, max_len):
        if step_budget is None:
            va, vb = decider_a(word), decider_b(word)
        else:
            va = decider_a(word, max_steps=step_budget)
            vb = decider_b(word, max_steps=step_budget)
        tested += 1
        if va == vb:
            agreements += 1
        elif first is None:
            first = (word, va, vb)
            if not exhaustive:
                break
    return CrosscheckReport(
        max_length=max_len,
        strings_tested=tested,
        agreements=agreements,
        first_disagreement=first,
        elapsed_seconds=time.perf_counter() - started,
    )
