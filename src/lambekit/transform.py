"""Grammar normalization and translations between grammar classes and
type lexicons.

Greibach normal form is reached the classical way: drop unit productions,
eliminate left recursion in declaration order (Paull), back-substitute
until every right-hand side starts with a terminal, then pull embedded
terminals out of rule tails.  The translations implement the
correspondences between GNF grammars and /-only lexicons, and between
linear grammars and degree-one lexicons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    Backslash,
    Cfg,
    LambekGrammar,
    LambekitError,
    LambekType,
    Primitive,
    Production,
    Slash,
    SLASH_FRAGMENT,
    classify_cfg,
    format_type,
    in_fragment,
    spine_decompositions,
    subtypes_in_order,
    type_name,
)


class TranslationError(LambekitError):
    """The input is outside the domain of the requested translation."""


@dataclass(frozen=True)
class TranslationReport:
    input_summary: str
    output_summary: str
    fresh_symbols: tuple
    warnings: tuple


def _summarize(g: Union[Cfg, LambekGrammar]) -> str:
    if isinstance(g, Cfg):
        return (
            f"{len(g.productions)} productions, {len(g.nonterminals)} nonterminals, "
            f"{len(g.terminals)} terminals"
        )
    n_types = sum(len(ts) for ts in g.lexicon.values())
    return (
        f"{n_types} lexicon entries, {len(g.primitives)} primitives, "
        f"{len(g.alphabet)} symbols"
    )


def _identifiers(g: Union[Cfg, LambekGrammar]) -> set:
    if isinstance(g, Cfg):
        return set(g.nonterminals) | set(g.terminals)
    return set(g.primitives) | set(g.alphabet)


def translation_report(
    source: Union[Cfg, LambekGrammar],
    result: Union[Cfg, LambekGrammar],
    warnings: tuple = (),
) -> TranslationReport:
    """Summarize a translation; fresh symbols are those the result uses that
    the source did not declare."""
    fresh = sorted(_identifiers(result) - _identifiers(source))
    return TranslationReport(
        input_summary=_summarize(source),
        output_summary=_summarize(result),
        fresh_symbols=tuple(fresh),
        warnings=tuple(warnings),
    )


# --------------------------------------------------------------------------
# unit removal, pruning


def _is_unit(p: Production, nts: frozenset) -> bool:
    return len(p.rhs) == 1 and p.rhs[0] in nts


def remove_unit_productions(g: Cfg) -> Cfg:
    """Replace chains A =>* B => w by direct rules A -> w."""
    nts = g.nonterminal_set
    edges: dict = {nt: [] for nt in g.nonterminals}
    for p in g.productions:
        if _is_unit(p, nts):
            edges[p.lhs].append(p.rhs[0])

    def closure(start: str) -> list:
        seen = [start]
        queue = [start]
        while queue:
            for nxt in edges[queue.pop(0)]:
                if nxt not in seen:
                    seen.append(nxt)
                    queue.append(nxt)
        return seen

    out = []
    for a in g.nonterminals:
        for b in closure(a):
            for p in g.productions:
                if p.lhs == b and not _is_unit(p, nts):
                    out.append(Production(a, p.rhs))
    return Cfg(g.nonterminals, g.terminals, g.start, tuple(out))


def prune_useless(g: Cfg) -> Cfg:
    """Drop nonterminals that derive no terminal string or are unreachable.

    Terminals and the start symbol always survive, so the alphabet (and
    thereby any cross-check over it) is unaffected.
    """
    productive: set = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs not in productive and all(
                s in g.terminal_set or s in productive for s in p.rhs
            ):
                productive.add(p.lhs)
                changed = True
    prods = [
        p
        for p in g.productions
        if p.lhs in productive
        and all(s in g.terminal_set or s in productive for s in p.rhs)
    ]

    reachable = {g.start}
    frontier = [g.start]
    by_lhs: dict = {}
    for p in prods:
        by_lhs.setdefault(p.lhs, []).append(p)
    while frontier:
        for p in by_lhs.get(frontier.pop(), ()):
            for s in p.rhs:
                if s in g.nonterminal_set and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)

    keep = {nt for nt in reachable if nt in productive} | {g.start}
    prods = [p for p in prods if p.lhs in keep and all(
        s in g.terminal_set or s in keep for s in p.rhs
    )]
    nts = tuple(nt for nt in g.nonterminals if nt in keep)
    return Cfg(nts, g.terminals, g.start, tuple(prods))


# --------------------------------------------------------------------------
# Greibach normal form

_SUBST_LIMIT = 100_000  # safety valve; the loops below provably terminate


def _fresh_namer(taken: set):
    def make(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    return make


def _substitute(rules: dict, a: str, heads) -> None:
    """Replace each rule of a whose head is in heads by that head's rules
    followed by its tail, until no rule of a starts with one of heads."""
    for _ in range(_SUBST_LIMIT):
        expanded, changed = [], False
        for rhs in rules[a]:
            if rhs[0] in heads:
                changed = True
                expanded.extend(sub + rhs[1:] for sub in rules[rhs[0]])
            else:
                expanded.append(rhs)
        if not changed:
            return
        rules[a] = expanded
    raise AssertionError(f"substitution for {a} did not converge")


def to_gnf(g: Cfg) -> Cfg:
    """Convert to Greibach normal form (every rule: terminal, then
    nonterminals).  Grammars already in GNF come back unchanged."""
    if classify_cfg(g).is_gnf:
        return g
    g = remove_unit_productions(g)

    order = list(g.nonterminals)
    terminals = g.terminal_set
    rules: dict = {nt: [] for nt in order}
    for p in g.productions:
        rules[p.lhs].append(p.rhs)

    fresh = _fresh_namer(set(g.nonterminals) | set(g.terminals))
    helpers: list = []  # fresh left-recursion symbols, in creation order

    # Paull: ascending, substitute smaller-indexed heads (those done), unroll
    # direct left recursion into a fresh tail nonterminal.
    done: set = set()
    for a in order:
        _substitute(rules, a, done)
        done.add(a)

        recursive = [rhs[1:] for rhs in rules[a] if rhs[0] == a]
        if recursive:
            base = [rhs for rhs in rules[a] if rhs[0] != a]
            if not base:
                # only left-recursive rules: the nonterminal is unproductive
                rules[a] = []
                continue
            helper = fresh(f"X_{len(helpers) + 1}")
            helpers.append(helper)
            rules[a] = base + [rhs + (helper,) for rhs in base]
            rules[helper] = [rhs for rhs in recursive] + [
                rhs + (helper,) for rhs in recursive
            ]

    # back-substitute, descending: afterwards every original nonterminal's
    # rules start with a terminal
    for a in reversed(order):
        _substitute(rules, a, done)  # every original nonterminal by now

    # helper rules may still start with a nonterminal (original or an
    # earlier helper, each a key of rules); both kinds are terminal-headed
    for h in helpers:
        _substitute(rules, h, rules)

    # pull terminals out of rule tails
    wrappers: dict = {}
    wrapper_order: list = []

    def wrap(sym: str) -> str:
        if sym not in wrappers:
            wrappers[sym] = fresh(f"T_{sym}")
            wrapper_order.append(sym)
        return wrappers[sym]

    final: list = []
    for a in order + helpers:
        for rhs in rules.get(a, ()):
            assert rhs[0] in terminals, f"rule {a} -> {' '.join(rhs)} not terminal-headed"
            tail = tuple(wrap(s) if s in terminals else s for s in rhs[1:])
            final.append(Production(a, (rhs[0],) + tail))
    for sym in wrapper_order:
        final.append(Production(wrappers[sym], (sym,)))

    nts = tuple(order) + tuple(helpers) + tuple(wrappers[s] for s in wrapper_order)
    result = Cfg(nts, g.terminals, g.start, tuple(final))
    return prune_useless(result)


def to_gnf_report(g: Cfg):
    out = to_gnf(g)
    return out, translation_report(g, out)


# --------------------------------------------------------------------------
# GNF grammars <-> /-only lexicons


def cfg_to_lambek(g: Cfg) -> LambekGrammar:
    """Read a GNF grammar as a lexicon: a rule A -> a B1 ... Bn assigns the
    symbol a the type A over its tail, outermost argument first."""
    cls = classify_cfg(g)
    if not cls.is_gnf:
        offender = next(
            p for p, s in zip(g.productions, cls.shapes) if not s.gnf
        )
        raise TranslationError(f"grammar is not in Greibach normal form: {offender}")
    lexicon: dict = {a: [] for a in g.terminals}
    for p in g.productions:
        t: LambekType = Primitive(p.lhs)
        for b in reversed(p.rhs[1:]):
            t = Slash(t, Primitive(b))
        lexicon[p.rhs[0]].append(t)
    return LambekGrammar(g.nonterminals, g.terminals, g.start, lexicon)


def lambek_to_cfg(lg: LambekGrammar, prune: bool = True) -> Cfg:
    """Invert cfg_to_lambek on /-only lexicons.

    Every subtype becomes a nonterminal (complex ones named by their fully
    parenthesized rendering) and every spine decomposition of every lexicon
    type becomes a production.  Pruning drops the decompositions nothing
    ever derives; pass prune=False to keep them all.
    """
    for sym in lg.alphabet:
        for t in lg.lexicon[sym]:
            if not in_fragment(t, SLASH_FRAGMENT.type_restriction):
                raise TranslationError(
                    f"type {format_type(t)} for {sym!r} uses connectives other than /"
                )

    ordered: list = [Primitive(lg.distinguished)]
    seen = {ordered[0]}
    for sym in lg.alphabet:
        for t in lg.lexicon[sym]:
            for u in subtypes_in_order(t):
                if u not in seen:
                    seen.add(u)
                    ordered.append(u)

    prods = []
    for sym in lg.alphabet:
        for t in lg.lexicon[sym]:
            for head, args in spine_decompositions(t):
                prods.append(
                    Production(type_name(head), (sym,) + tuple(type_name(b) for b in args))
                )

    g = Cfg(
        tuple(type_name(u) for u in ordered),
        lg.alphabet,
        lg.distinguished,
        tuple(prods),
    )
    return prune_useless(g) if prune else g


# --------------------------------------------------------------------------
# linear grammars <-> degree-one lexicons


def _linear_to_lambek(g: Cfg, allow_left: bool, class_name: str) -> LambekGrammar:
    cls = classify_cfg(g)
    shapes = cls.shapes
    lexicon: dict = {a: [] for a in g.terminals}
    for p, shape in zip(g.productions, shapes):
        if shape.terminal:
            lexicon[p.rhs[0]].append(Primitive(p.lhs))
        elif shape.right_linear:
            a, b = p.rhs
            lexicon[a].append(Slash(Primitive(p.lhs), Primitive(b)))
        elif shape.left_linear and allow_left:
            b, a = p.rhs
            lexicon[a].append(Backslash(Primitive(b), Primitive(p.lhs)))
        else:
            raise TranslationError(f"grammar is not {class_name}: {p}")
    return LambekGrammar(g.nonterminals, g.terminals, g.start, lexicon)


def lcfg_to_lambek(g: Cfg) -> LambekGrammar:
    """Linear grammar to degree-one lexicon: A -> a B gives a the type A/B,
    A -> B a gives it B\\A, and A -> a gives it the bare A."""
    return _linear_to_lambek(g, allow_left=True, class_name="linear")


def reg_to_lambek(g: Cfg) -> LambekGrammar:
    """Right-regular restriction of lcfg_to_lambek: only A/B and A arise."""
    return _linear_to_lambek(g, allow_left=False, class_name="right-regular")


def _degree_one_to_cfg(lg: LambekGrammar, allow_back: bool, class_name: str) -> Cfg:
    prods = []
    for sym in lg.alphabet:
        for t in lg.lexicon[sym]:
            if isinstance(t, Primitive):
                prods.append(Production(t.name, (sym,)))
            elif type(t) is Slash and t.degree == 1:
                prods.append(Production(t.result.name, (sym, t.arg.name)))
            elif type(t) is Backslash and t.degree == 1 and allow_back:
                prods.append(Production(t.result.name, (t.arg.name, sym)))
            else:
                raise TranslationError(
                    f"type {format_type(t)} for {sym!r} is outside the {class_name} fragment"
                )
    return Cfg(lg.primitives, lg.alphabet, lg.distinguished, tuple(prods))


def lambek_to_lcfg(lg: LambekGrammar) -> Cfg:
    """Inverse of lcfg_to_lambek on degree-one {/, \\} lexicons."""
    return _degree_one_to_cfg(lg, allow_back=True, class_name="degree-one {/, \\}")


def lambek_to_reg(lg: LambekGrammar) -> Cfg:
    """Inverse of reg_to_lambek on degree-one /-only lexicons."""
    return _degree_one_to_cfg(lg, allow_back=False, class_name="degree-one /-only")
