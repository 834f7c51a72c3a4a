"""Grammar normalization and translations between grammar classes and
type lexicons.

Greibach normal form is reached in one polynomial pass: drop unit
productions, apply the left-corner construction, substitute once at the
head of the rules it makes, then pull embedded terminals out of rule
tails.  The translations implement the correspondences between GNF
grammars and /-only lexicons, and between linear grammars and degree-one
lexicons.
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
) -> TranslationReport:
    """Summarize a translation; fresh symbols are those the result uses that
    the source did not declare."""
    fresh = sorted(_identifiers(result) - _identifiers(source))
    return TranslationReport(
        input_summary=_summarize(source),
        output_summary=_summarize(result),
        fresh_symbols=tuple(fresh),
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

def _fresh_namer(taken: set):
    def make(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    return make


def to_gnf(g: Cfg) -> Cfg:
    """Convert to Greibach normal form (every rule: terminal, then
    nonterminals).  Grammars already in GNF come back unchanged.

    The left-corner construction (Rosenkrantz & Lewis 1970), after unit
    removal.  A fresh A_X derives what is left of an A once its left corner
    X has been found.  A gets A -> a beta A_B for every rule B -> a beta
    (a a terminal), plus A -> a beta when B = A; every pair A_X so created
    gets A_X -> alpha A_C for every rule C -> X alpha, plus A_X -> alpha
    when C = A.  The rules of the original nonterminals now start with a
    terminal, so one substitution of them at the head of each A_X rule
    makes every rule terminal-headed; terminals in rule tails then move
    behind fresh T_a, and useless symbols are pruned.

    With n nonterminals, Pt terminal-headed and Pc nonterminal-headed rules
    after unit removal, the result has at most n^2 pair symbols and
    2*n*Pt + 4*n*Pc*Pt + |T| productions.
    """
    if classify_cfg(g).is_gnf:
        return g
    g = remove_unit_productions(g)
    terminals = g.terminal_set
    fresh = _fresh_namer(set(g.nonterminals) | set(g.terminals))
    pairs: dict = {}  # (A, X) -> name of A_X
    todo: list = []  # pairs in creation order

    def pair(a: str, x: str) -> str:
        if (a, x) not in pairs:
            pairs[a, x] = fresh(f"{a}_{x}")
            todo.append((a, x))
        return pairs[a, x]

    rules: dict = {a: [] for a in g.nonterminals}
    for a in g.nonterminals:
        for p in g.productions:
            if p.rhs[0] in terminals:
                rules[a].append(p.rhs + (pair(a, p.lhs),))
                if p.lhs == a:
                    rules[a].append(p.rhs)
    for a, x in todo:  # todo grows while it is walked
        rules[pairs[a, x]] = tail = []
        for p in g.productions:
            if p.rhs[0] == x:
                tail.append(p.rhs[1:] + (pair(a, p.lhs),))
                if p.lhs == a:
                    tail.append(p.rhs[1:])

    wrappers: dict = {}

    def wrap(sym: str) -> str:
        if sym not in wrappers:
            wrappers[sym] = fresh(f"T_{sym}")
        return wrappers[sym]

    # only pair rules can start with a nonterminal, and that nonterminal is
    # an original one, whose rules all start with a terminal
    final: list = []
    for a, bodies in rules.items():
        for rhs in bodies:
            for head in (rhs[:1],) if rhs[0] in terminals else rules[rhs[0]]:
                body = head + rhs[1:]
                tail = tuple(wrap(s) if s in terminals else s for s in body[1:])
                final.append(Production(a, body[:1] + tail))
    final += [Production(w, (sym,)) for sym, w in wrappers.items()]

    nts = tuple(rules) + tuple(wrappers.values())
    return prune_useless(Cfg(nts, g.terminals, g.start, tuple(final)))


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
