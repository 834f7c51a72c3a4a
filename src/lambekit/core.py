"""Core data model: syntactic types, sequents, proofs, grammars, and the
configuration object that selects a fragment of the calculus."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence


class LambekitError(Exception):
    """Base class for all toolkit errors."""


class GrammarError(LambekitError):
    """A grammar or lexicon violates a structural invariant."""


class FragmentError(LambekitError):
    """An input falls outside the configured fragment or a precondition."""


class StepLimitExceeded(LambekitError):
    """A decision ran past its work budget: a membership query past its
    per-string steps, or a proof search past its node expansions.

    Raised instead of returning a verdict, so a budget can never silently
    turn into a wrong answer.
    """


class _Budget:
    """A per-call step allowance; None means unbounded."""

    __slots__ = ("left",)

    def __init__(self, max_steps: Optional[int]):
        self.left = max_steps

    def spend(self, n: int = 1) -> None:
        if self.left is None:
            return
        self.left -= n
        if self.left < 0:
            raise StepLimitExceeded("decision exceeded its step budget")


# identifiers for primitive types and alphabet symbols
_IDENT_RE = re.compile(r"[A-Za-z0-9_']+\Z")

# connective bitmasks, used for O(1) fragment checks
_C_SLASH = 1
_C_BACK = 2
_C_PROD = 4
_CONNECTIVE_BIT = {"/": _C_SLASH, "\\": _C_BACK, "*": _C_PROD}


class LambekType:
    """A syntactic type: a primitive name or a binary /, \\ or * node.

    Instances are immutable, compare structurally, and are safe to use as
    map keys.  Degree (connective count) and hash are computed once at
    construction so deep types stay cheap to compare and memoize.
    ``_kids`` holds a binary type's two children in surface (left-to-right)
    order, and is empty for a primitive.

    ``_pol`` is the type's signed primitive count under fixed primitive
    weights: a primitive weighs ``_weight(name)``, A/B and B\\A weigh
    pol(A) - pol(B), and A*B weighs pol(A) + pol(B).  Every provable
    sequent has antecedent weights summing to the consequent's (van
    Benthem's count invariant), whatever the weights, so a mismatch
    refutes a sequent without search.
    """

    __slots__ = ("_hash", "degree", "_conn", "_pol", "_kids")

    degree: int

    def __truediv__(self, other: "LambekType") -> "Slash":
        return Slash(self, other)

    def __rshift__(self, other: "LambekType") -> "Backslash":
        # a >> b reads "a under b": the argument sits on the left
        return Backslash(self, other)

    def __mul__(self, other: "LambekType") -> "Product":
        return Product(self, other)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_type(self)

    def __repr__(self) -> str:
        return f"<type {format_type(self)}>"


def _weight(name: str) -> int:
    # 64-bit FNV-1a: deterministic across processes, unlike the salted
    # hash(str), so search work counts repeat from run to run
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Primitive(LambekType):
    """An atomic type, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise GrammarError(
                f"bad primitive type name {name!r}: expected letters, digits, _ or '"
            )
        self.name = name
        self._kids = ()
        self.degree = 0
        self._conn = 0
        self._pol = _weight(name)
        self._hash = hash(("prim", name))

    __hash__ = LambekType.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is Primitive and other.name == self.name)


class Slash(LambekType):
    """result / arg: seeks its argument to the right."""

    __slots__ = ("result", "arg")

    def __init__(self, result: LambekType, arg: LambekType):
        self.result = result
        self.arg = arg
        self._kids = (result, arg)
        self.degree = 1 + result.degree + arg.degree
        self._conn = _C_SLASH | result._conn | arg._conn
        self._pol = result._pol - arg._pol
        self._hash = hash(("/", result._hash, arg._hash))

    __hash__ = LambekType.__hash__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is Slash
            and other._hash == self._hash
            and other.result == self.result
            and other.arg == self.arg
        )


class Backslash(LambekType):
    """arg \\ result: seeks its argument to the left."""

    __slots__ = ("arg", "result")

    def __init__(self, arg: LambekType, result: LambekType):
        self.arg = arg
        self.result = result
        self._kids = (arg, result)
        self.degree = 1 + arg.degree + result.degree
        self._conn = _C_BACK | arg._conn | result._conn
        self._pol = result._pol - arg._pol
        self._hash = hash(("\\", arg._hash, result._hash))

    __hash__ = LambekType.__hash__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is Backslash
            and other._hash == self._hash
            and other.arg == self.arg
            and other.result == self.result
        )


class Product(LambekType):
    """left * right: concatenation of the two types."""

    __slots__ = ("left", "right")

    def __init__(self, left: LambekType, right: LambekType):
        self.left = left
        self.right = right
        self._kids = (left, right)
        self.degree = 1 + left.degree + right.degree
        self._conn = _C_PROD | left._conn | right._conn
        self._pol = left._pol + right._pol
        self._hash = hash(("*", left._hash, right._hash))

    __hash__ = LambekType.__hash__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is Product
            and other._hash == self._hash
            and other.left == self.left
            and other.right == self.right
        )


def degree(t: LambekType) -> int:
    """Number of connective occurrences in t."""
    return t.degree


def connectives(t: LambekType) -> frozenset:
    """The set of connective symbols ('/', '\\', '*') occurring in t."""
    return frozenset(c for c, bit in _CONNECTIVE_BIT.items() if t._conn & bit)


def subtypes(t: LambekType) -> frozenset:
    """All subtypes of t, t included."""
    return frozenset(_subtype_walk(t)[1])


def subtypes_in_order(t: LambekType) -> list:
    """Subtypes of t in deterministic pre-order, duplicates removed."""
    return _subtype_walk(t)[0]


def _subtype_walk(t: LambekType) -> tuple:
    # the pre-order list and the set of its members, from one walk
    out: list[LambekType] = []
    seen: set = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        out.append(u)
        # children pushed last-first, so the first is visited next
        stack += u._kids[::-1]
    return out, seen


def spine_decompositions(t: LambekType):
    """Every way to read t as a head with a sequence of rightward arguments.

    Returns pairs (head, args) such that reassembling head with args
    reproduces t, where args lists the arguments outermost first.  The
    trivial pair (t, ()) always comes first; longer argument lists follow in
    increasing length, one per consecutive / along the result spine.
    """
    out = [(t, ())]
    args: list[LambekType] = []
    while isinstance(t, Slash):
        args.append(t.arg)
        t = t.result
        out.append((t, tuple(args)))
    return out


def reassemble_spine(head: LambekType, args: Sequence[LambekType]) -> LambekType:
    """Inverse of spine_decompositions: nest args back onto head."""
    t = head
    for a in reversed(tuple(args)):
        t = Slash(t, a)
    return t


def type_sort_key(t: LambekType):
    """A total order on types; used for canonical lexicon ordering."""
    if type(t) is Primitive:
        return (0, t.name)
    left, right = t._kids
    return (_CONNECTIVES[type(t)][1], type_sort_key(left), type_sort_key(right))


# --------------------------------------------------------------------------
# printing

# surface syntax: / is left-associative, \ is right-associative, * binds
# tighter than either slash; mixing / and \ without parentheses is an error
# on the way in, so the printer always parenthesizes across the two.
#
# Per connective: its symbol, its rank in type_sort_key, and the kinds of
# type that print bare as its left and as its right child; any other child
# is parenthesized.
_CONNECTIVES = {
    Slash: ("/", 1, (Primitive, Slash, Product), (Primitive, Product)),
    Backslash: ("\\", 2, (Primitive, Product), (Primitive, Backslash, Product)),
    Product: ("*", 3, (Primitive, Product), (Primitive,)),
}


def format_type(t: LambekType) -> str:
    """Render t with the minimal parentheses the surface syntax needs."""
    if type(t) is Primitive:
        return t.name
    symbol, _, bare_left, bare_right = _CONNECTIVES[type(t)]
    left, right = t._kids
    ls, rs = format_type(left), format_type(right)
    if type(left) not in bare_left:
        ls = f"({ls})"
    if type(right) not in bare_right:
        rs = f"({rs})"
    return f"{ls}{symbol}{rs}"


def type_name(t: LambekType) -> str:
    """Fully parenthesized rendering; injective, used to name nonterminals."""
    if type(t) is Primitive:
        return t.name
    left, right = t._kids
    return f"({type_name(left)}{_CONNECTIVES[type(t)][0]}{type_name(right)})"


# --------------------------------------------------------------------------
# sequents and proofs


class Sequent:
    """antecedent -> consequent.

    An empty antecedent is representable (so that proof checking can flag
    it) but is rejected by every provability query.

    The hash is ``hash((antecedent, consequent))``, computed on first use
    and kept: a query refuted by its count is never hashed.
    """

    __slots__ = ("antecedent", "consequent", "_hash")

    def __init__(self, antecedent: Iterable[LambekType], consequent: LambekType):
        self.antecedent = tuple(antecedent)
        self.consequent = consequent
        self._hash = None

    @property
    def connective_count(self) -> int:
        return sum(t.degree for t in self.antecedent) + self.consequent.degree

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is Sequent
            and other.consequent == self.consequent
            and other.antecedent == self.antecedent
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.antecedent, self.consequent))
        return self._hash

    def __str__(self) -> str:
        left = ", ".join(format_type(t) for t in self.antecedent)
        return f"{left} -> {format_type(self.consequent)}"

    def __repr__(self) -> str:
        return f"<sequent {self}>"


class Rule(Enum):
    """Labels for proof nodes.

    AXIOM and CUT are structural; the other six are the left ("…L") and
    right ("…R") introduction rules for the three connectives.
    """

    AXIOM = "axiom"
    CUT = "cut"
    SLASH_L = "/L"
    SLASH_R = "/R"
    BACK_L = "\\L"
    BACK_R = "\\R"
    PROD_L = "*L"
    PROD_R = "*R"


INFERENCE_RULES = frozenset(
    {Rule.SLASH_L, Rule.SLASH_R, Rule.BACK_L, Rule.BACK_R, Rule.PROD_L, Rule.PROD_R}
)

class Proof:
    """A proof tree node: a conclusion, a rule label, and premise subtrees.

    For CUT and the binary inference rules, ``position`` records where the
    spliced material starts in the conclusion's antecedent, which makes the
    rule instance reconstructible (and checkable) without search.
    """

    __slots__ = ("conclusion", "rule", "premises", "position", "_hash")

    def __init__(
        self,
        conclusion: Sequent,
        rule: Rule,
        premises: Sequence["Proof"] = (),
        position: Optional[int] = None,
    ):
        self.conclusion = conclusion
        self.rule = rule
        self.premises = tuple(premises)
        self.position = position
        self._hash = hash(
            (conclusion, rule, self.premises, position)
        )

    def nodes(self):
        """Iterate (path, node) in pre-order; the root has path ()."""
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for k in range(len(node.premises) - 1, -1, -1):
                stack.append((path + (k,), node.premises[k]))

    @property
    def cut_free(self) -> bool:
        return all(node.rule is not Rule.CUT for _, node in self.nodes())

    def __eq__(self, other: object) -> bool:
        # node pairs come from a list, as in nodes(): a proof as tall as the
        # word needs no frame per level
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if not (
                type(b) is Proof
                and b._hash == a._hash
                and b.rule is a.rule
                and b.position == a.position
                and len(b.premises) == len(a.premises)
                and b.conclusion == a.conclusion
            ):
                return False
            pairs += zip(a.premises, b.premises)
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<proof [{self.rule.value}] {self.conclusion}>"


# --------------------------------------------------------------------------
# calculus configuration


@dataclass(frozen=True)
class TypeRestriction:
    """Limits the types a query may mention: allowed connectives and an
    optional maximum degree.  The default allows everything."""

    connectives: frozenset = frozenset({"/", "\\", "*"})
    max_degree: Optional[int] = None

    def __post_init__(self):
        conns = frozenset(self.connectives)
        bad = conns - {"/", "\\", "*"}
        if bad:
            raise GrammarError(f"unknown connectives in restriction: {sorted(bad)}")
        if self.max_degree is not None and self.max_degree < 0:
            raise GrammarError("max_degree must be nonnegative")
        object.__setattr__(self, "connectives", conns)

    @cached_property
    def _mask(self) -> int:
        m = 0
        for c in self.connectives:
            m |= _CONNECTIVE_BIT[c]
        return m


def in_fragment(t: LambekType, restriction: TypeRestriction) -> bool:
    """True when t uses only allowed connectives and respects the degree cap."""
    return _outside((t,), restriction) is None


def _outside(types: Iterable[LambekType], restriction: TypeRestriction):
    """The first of ``types`` with a connective the restriction does not
    allow or a degree past its cap, or None: a whole query in one loop."""
    banned, cap = ~restriction._mask, restriction.max_degree
    for t in types:
        if t._conn & banned or (cap is not None and t.degree > cap):
            return t
    return None


@dataclass(frozen=True)
class CalculusConfig:
    """Which inference rules the calculus may use, whether proof checking
    accepts CUT nodes, and which types are admissible."""

    enabled_rules: frozenset
    allow_cut_in_validation: bool = False
    type_restriction: TypeRestriction = TypeRestriction()

    def __post_init__(self):
        rules = frozenset(self.enabled_rules)
        bad = rules - INFERENCE_RULES
        if bad:
            raise GrammarError(
                f"enabled_rules may only contain inference rules, got {sorted(r.value for r in bad)}"
            )
        object.__setattr__(self, "enabled_rules", rules)


# the fragments the toolkit pairs with grammar classes
SLASH_FRAGMENT = CalculusConfig(
    frozenset({Rule.SLASH_L}), type_restriction=TypeRestriction(frozenset({"/"}))
)
LINEAR_FRAGMENT = CalculusConfig(
    frozenset({Rule.SLASH_L, Rule.BACK_L}),
    type_restriction=TypeRestriction(frozenset({"/", "\\"}), max_degree=1),
)
REGULAR_FRAGMENT = CalculusConfig(
    frozenset({Rule.SLASH_L}),
    type_restriction=TypeRestriction(frozenset({"/"}), max_degree=1),
)
FULL_CALCULUS = CalculusConfig(INFERENCE_RULES)


# --------------------------------------------------------------------------
# context-free grammars

# Grammar symbols are freer than primitive-type identifiers: translated
# grammars use printed types like "((S/B)/S)" as nonterminal names, so only
# whitespace and the file-format punctuation are excluded.
_SYMBOL_BAD_CHARS = set("|#:")


def _symbol_ok(s: str) -> bool:
    if not isinstance(s, str) or not s or s == "->":
        return False
    return not any(ch.isspace() or ch in _SYMBOL_BAD_CHARS for ch in s)


@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: tuple

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(self.rhs)}"


@dataclass(frozen=True)
class Cfg:
    """An epsilon-free context-free grammar.

    ``nonterminals`` and ``terminals`` are ordered (declaration order
    matters for normalization) but are sets semantically: no duplicates,
    and the two are disjoint.
    """

    nonterminals: tuple
    terminals: tuple
    start: str
    productions: tuple

    def __post_init__(self):
        nts = tuple(self.nonterminals)
        ts = tuple(self.terminals)
        object.__setattr__(self, "nonterminals", nts)
        object.__setattr__(self, "terminals", ts)

        for sym in nts + ts:
            if not _symbol_ok(sym):
                raise GrammarError(f"bad grammar symbol {sym!r}")
        if len(set(nts)) != len(nts):
            raise GrammarError("duplicate nonterminal declaration")
        if len(set(ts)) != len(ts):
            raise GrammarError("duplicate terminal declaration")
        overlap = set(nts) & set(ts)
        if overlap:
            raise GrammarError(f"symbols declared both ways: {sorted(overlap)}")
        if self.start not in set(nts):
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")

        seen = set()
        deduped = []
        declared = set(nts) | set(ts)
        for p in self.productions:
            if not isinstance(p, Production):
                raise GrammarError(f"not a production: {p!r}")
            if p.lhs not in set(nts):
                raise GrammarError(f"production head {p.lhs!r} is not a nonterminal")
            if not p.rhs:
                raise GrammarError(f"empty right-hand side for {p.lhs!r}")
            for sym in p.rhs:
                if sym not in declared:
                    raise GrammarError(f"undeclared symbol {sym!r} in {p}")
            if p not in seen:
                seen.add(p)
                deduped.append(p)
        object.__setattr__(self, "productions", tuple(deduped))

    @cached_property
    def nonterminal_set(self) -> frozenset:
        return frozenset(self.nonterminals)

    @cached_property
    def terminal_set(self) -> frozenset:
        return frozenset(self.terminals)

    def rules_for(self, nt: str) -> tuple:
        return tuple(p for p in self.productions if p.lhs == nt)


@dataclass(frozen=True)
class RuleShape:
    """Shape flags for one production."""

    terminal: bool  # A -> a
    right_linear: bool  # A -> a B, or A -> a
    left_linear: bool  # A -> B a, or A -> a
    gnf: bool  # A -> a B1 ... Bn (n >= 0)


@dataclass(frozen=True)
class CfgClassification:
    shapes: tuple
    is_lcfg: bool
    is_right_regular: bool
    is_left_regular: bool
    is_gnf: bool


def classify_cfg(g: Cfg) -> CfgClassification:
    """Per-production shape flags plus the grammar-level class flags."""
    ts, nts = g.terminal_set, g.nonterminal_set
    shapes = []
    for p in g.productions:
        r = p.rhs
        term = len(r) == 1 and r[0] in ts
        right = term or (len(r) == 2 and r[0] in ts and r[1] in nts)
        left = term or (len(r) == 2 and r[0] in nts and r[1] in ts)
        gnf = r[0] in ts and all(sym in nts for sym in r[1:])
        shapes.append(RuleShape(term, right, left, gnf))
    return CfgClassification(
        shapes=tuple(shapes),
        is_lcfg=all(s.right_linear or s.left_linear for s in shapes),
        is_right_regular=all(s.right_linear for s in shapes),
        is_left_regular=all(s.left_linear for s in shapes),
        is_gnf=all(s.gnf for s in shapes),
    )


# --------------------------------------------------------------------------
# type lexicons


@dataclass(frozen=True, eq=True)
class LambekGrammar:
    """A categorial grammar: primitives, alphabet, a distinguished primitive,
    and a lexicon assigning each alphabet symbol a finite set of types.

    Lexicon entries are deduplicated and kept in canonical order, so two
    grammars with the same assignments compare equal.  An entry may be
    empty: symbols a translation never uses simply admit no assignment.
    """

    primitives: tuple
    alphabet: tuple
    distinguished: str
    lexicon: Mapping[str, tuple]

    def __post_init__(self):
        prims = tuple(self.primitives)
        alpha = tuple(self.alphabet)
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(self, "alphabet", alpha)

        for name in prims:
            if not isinstance(name, str) or not _IDENT_RE.match(name):
                raise GrammarError(f"bad primitive name {name!r}")
        for sym in alpha:
            if not isinstance(sym, str) or not _IDENT_RE.match(sym):
                raise GrammarError(f"bad alphabet symbol {sym!r}")
        if len(set(prims)) != len(prims):
            raise GrammarError("duplicate primitive declaration")
        if len(set(alpha)) != len(alpha):
            raise GrammarError("duplicate alphabet symbol")
        if self.distinguished not in set(prims):
            raise GrammarError(
                f"distinguished type {self.distinguished!r} is not a declared primitive"
            )

        prim_set = set(prims)
        canon = {}
        for sym, types in dict(self.lexicon).items():
            if sym not in set(alpha):
                raise GrammarError(f"lexicon entry for undeclared symbol {sym!r}")
            types = tuple(types)
            for t in types:
                if not isinstance(t, LambekType):
                    raise GrammarError(f"lexicon entry for {sym!r} is not a type: {t!r}")
            ordered = sorted(set(types), key=type_sort_key)
            for t in ordered:
                for u in subtypes_in_order(t):
                    if isinstance(u, Primitive) and u.name not in prim_set:
                        raise GrammarError(
                            f"type {format_type(t)} for {sym!r} uses undeclared primitive {u.name!r}"
                        )
            canon[sym] = tuple(ordered)
        for sym in alpha:
            canon.setdefault(sym, ())
        object.__setattr__(self, "lexicon", canon)

    def types_for(self, sym: str) -> tuple:
        try:
            return self.lexicon[sym]
        except KeyError:
            raise GrammarError(f"unknown symbol {sym!r}") from None

    def all_types(self) -> tuple:
        out = []
        seen = set()
        for sym in self.alphabet:
            for t in self.lexicon[sym]:
                if t not in seen:
                    seen.add(t)
                    out.append(t)
        return tuple(out)

    @cached_property
    def target(self) -> Primitive:
        return Primitive(self.distinguished)
