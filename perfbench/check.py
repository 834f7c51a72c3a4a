"""Independent checkers for the benchmark's verdicts.

Nothing here imports lambekit.  Types are plain data: a primitive is its
name (a str), ``("/", result, arg)`` is result/arg, ``("\\", arg, result)``
is arg\\result and ``("*", left, right)`` is left*right.  A sequent is
``(antecedent_tuple, goal)``.  The surface syntax is the package's own:
``/`` groups to the left, ``\\`` to the right, ``*`` binds tighter than
either slash and chains to the left.
"""

from __future__ import annotations

import re
from collections import Counter

ALL_RULES = frozenset({"/L", "/R", "\\L", "\\R", "*L", "*R"})


# --------------------------------------------------------------------------
# text <-> types


def fmt_type(t) -> str:
    if isinstance(t, str):
        return t
    op, a, b = t
    if op == "/":
        left = fmt_type(a) if isinstance(a, str) or a[0] in "/*" else f"({fmt_type(a)})"
        right = fmt_type(b) if isinstance(b, str) or b[0] == "*" else f"({fmt_type(b)})"
        return f"{left}/{right}"
    if op == "\\":
        left = fmt_type(a) if isinstance(a, str) or a[0] == "*" else f"({fmt_type(a)})"
        right = fmt_type(b) if isinstance(b, str) or b[0] in "\\*" else f"({fmt_type(b)})"
        return f"{left}\\{right}"
    left = fmt_type(a) if isinstance(a, str) or a[0] == "*" else f"({fmt_type(a)})"
    right = fmt_type(b) if isinstance(b, str) else f"({fmt_type(b)})"
    return f"{left}*{right}"


def fmt_sequent(ant, goal) -> str:
    return ", ".join(fmt_type(t) for t in ant) + " -> " + fmt_type(goal)


_TOKEN = re.compile(r"\s*(->|[A-Za-z0-9_']+|[/\\*(),])")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'a token'}, got {tok!r}")
        self.i += 1
        return tok

    def atom(self):
        tok = self.take()
        if tok == "(":
            t = self.expr()
            self.take(")")
            return t
        if tok in ("/", "\\", "*", ")", ",", "->"):
            raise ValueError(f"unexpected {tok!r}")
        return tok

    def product(self):
        t = self.atom()
        while self.peek() == "*":
            self.take()
            t = ("*", t, self.atom())
        return t

    def expr(self):
        parts, ops = [self.product()], []
        while self.peek() in ("/", "\\"):
            ops.append(self.take())
            parts.append(self.product())
        if len(set(ops)) > 1:
            raise ValueError("mixed / and \\ without parentheses")
        if not ops:
            return parts[0]
        if ops[0] == "/":
            t = parts[0]
            for p in parts[1:]:
                t = ("/", t, p)
            return t
        t = parts[-1]
        for p in reversed(parts[:-1]):
            t = ("\\", p, t)
        return t


def parse_type(text: str):
    p = _Parser(text)
    t = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing {p.peek()!r} in {text!r}")
    return t


def parse_sequent(text: str):
    p = _Parser(text)
    ant = []
    if p.peek() != "->":
        ant.append(p.expr())
        while p.peek() == ",":
            p.take()
            ant.append(p.expr())
    p.take("->")
    goal = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing {p.peek()!r} in {text!r}")
    return tuple(ant), goal


def from_lk(t):
    """Read a lambekit type object into plain data, by its public fields."""
    kind = type(t).__name__
    if kind == "Primitive":
        return t.name
    if kind == "Slash":
        return ("/", from_lk(t.result), from_lk(t.arg))
    if kind == "Backslash":
        return ("\\", from_lk(t.arg), from_lk(t.result))
    if kind == "Product":
        return ("*", from_lk(t.left), from_lk(t.right))
    raise TypeError(f"not a type: {t!r}")


def degree(t) -> int:
    return 0 if isinstance(t, str) else 1 + degree(t[1]) + degree(t[2])


def connectives(t) -> set:
    return set() if isinstance(t, str) else {t[0]} | connectives(t[1]) | connectives(t[2])


# --------------------------------------------------------------------------
# the primitive-count invariant (van Benthem): in every provable sequent
# each primitive occurs as often positively as negatively


def _count(t, sign: int, acc: Counter) -> None:
    if isinstance(t, str):
        acc[t] += sign
        return
    op, a, b = t
    if op == "/":  # result/arg
        _count(a, sign, acc)
        _count(b, -sign, acc)
    elif op == "\\":  # arg\result
        _count(a, -sign, acc)
        _count(b, sign, acc)
    else:
        _count(a, sign, acc)
        _count(b, sign, acc)


def balanced(ant, goal) -> bool:
    acc: Counter = Counter()
    for t in ant:
        _count(t, 1, acc)
    _count(goal, -1, acc)
    return not any(acc.values())


# --------------------------------------------------------------------------
# memo-free sequent search: premises right to left, longest split first,
# pruned by the count invariant, which is sound for every fragment here


def provable(ant: tuple, goal, rules=ALL_RULES) -> bool:
    if not ant or not balanced(ant, goal):
        return False
    if len(ant) == 1 and ant[0] == goal:
        return True
    if not isinstance(goal, str):
        op, a, b = goal
        if op == "/" and "/R" in rules and provable(ant + (b,), a, rules):
            return True
        if op == "\\" and "\\R" in rules and provable((a,) + ant, b, rules):
            return True
        if op == "*" and "*R" in rules:
            for k in range(len(ant) - 1, 0, -1):
                if provable(ant[:k], a, rules) and provable(ant[k:], b, rules):
                    return True
    for i in range(len(ant) - 1, -1, -1):
        t = ant[i]
        if isinstance(t, str):
            continue
        op, a, b = t
        if op == "*" and "*L" in rules:
            if provable(ant[:i] + (a, b) + ant[i + 1 :], goal, rules):
                return True
        elif op == "/" and "/L" in rules:
            for j in range(len(ant), i + 1, -1):
                if provable(ant[i + 1 : j], b, rules) and provable(
                    ant[:i] + (a,) + ant[j:], goal, rules
                ):
                    return True
        elif op == "\\" and "\\L" in rules:
            for j in range(0, i):
                if provable(ant[j:i], a, rules) and provable(
                    ant[:j] + (b,) + ant[i + 1 :], goal, rules
                ):
                    return True
    return False


# --------------------------------------------------------------------------
# rule-by-rule proof checking over nodes (ant, goal, rule, position, premises)


def node_from_dict(d) -> tuple:
    """A proof as ``proof_to_dict`` prints it, re-read with this module's
    own parser."""
    ant, goal = parse_sequent(d["sequent"])
    return (ant, goal, d["rule"], d["position"], [node_from_dict(q) for q in d["premises"]])


def node_from_lk(p) -> tuple:
    """A lambekit Proof object, read through its public fields."""
    c = p.conclusion
    return (
        tuple(from_lk(t) for t in c.antecedent),
        from_lk(c.consequent),
        p.rule.value,
        p.position,
        [node_from_lk(q) for q in p.premises],
    )


_ARITY = {"axiom": 0, "/R": 1, "\\R": 1, "*L": 1, "/L": 2, "\\L": 2, "*R": 2}


def check_proof(node, rules=ALL_RULES, allowed=frozenset("/\\*"), path="root") -> list:
    """Every schema violation in the tree, as readable strings; empty means
    the tree is a cut-free derivation using only the given rules."""
    ant, goal, rule, pos, prem = node
    errs = []
    if not ant:
        errs.append(f"{path}: empty antecedent")
    for t in (*ant, goal):
        if not connectives(t) <= allowed:
            errs.append(f"{path}: type {fmt_type(t)} outside the fragment")
    if rule not in _ARITY:
        return errs + [f"{path}: unknown rule {rule!r}"]
    if rule != "axiom" and rule not in rules:
        errs.append(f"{path}: rule {rule} not enabled")
    if len(prem) != _ARITY[rule]:
        return errs + [f"{path}: {rule} with {len(prem)} premises"]
    concl = (tuple(ant), goal)
    seqs = [(tuple(q[0]), q[1]) for q in prem]
    ok = True
    if rule == "axiom":
        ok = len(ant) == 1 and ant[0] == goal
    elif rule in ("/L", "\\L"):
        (mant, mgoal), (jant, jgoal) = seqs  # minor, major
        if pos is None or not 0 <= pos < len(jant):
            ok = False
        elif rule == "/L":
            active = ("/", jant[pos], mgoal)
            ok = concl == (jant[:pos] + (active,) + mant + jant[pos + 1 :], jgoal)
        else:
            active = ("\\", mgoal, jant[pos])
            ok = concl == (jant[:pos] + mant + (active,) + jant[pos + 1 :], jgoal)
    elif rule == "/R":
        ok = not isinstance(goal, str) and goal[0] == "/" and seqs[0] == (
            tuple(ant) + (goal[2],),
            goal[1],
        )
    elif rule == "\\R":
        ok = not isinstance(goal, str) and goal[0] == "\\" and seqs[0] == (
            (goal[1],) + tuple(ant),
            goal[2],
        )
    elif rule == "*L":
        pant, pgoal = seqs[0]
        ok = pgoal == goal and any(
            not isinstance(t, str)
            and t[0] == "*"
            and pant == tuple(ant[:i]) + (t[1], t[2]) + tuple(ant[i + 1 :])
            for i, t in enumerate(ant)
        )
    elif rule == "*R":
        ok = (
            not isinstance(goal, str)
            and goal[0] == "*"
            and pos is not None
            and 1 <= pos < len(ant)
            and seqs[0] == (tuple(ant[:pos]), goal[1])
            and seqs[1] == (tuple(ant[pos:]), goal[2])
        )
    if not ok:
        errs.append(f"{path}: bad {rule} step at {fmt_sequent(ant, goal)}")
    for k, q in enumerate(prem):
        errs.extend(check_proof(q, rules, allowed, f"{path}.{k}"))
    return errs


def proof_size(node) -> int:
    return 1 + sum(proof_size(q) for q in node[4])


# --------------------------------------------------------------------------
# context-free grammars as plain data: (start, terminals, productions) with
# productions a tuple of (lhs, rhs_tuple)


def parse_cfg_text(text: str):
    """Read the grammar file format (start:/nonterminals:/terminals:
    directives, ``A -> x y | z`` rules, ``#`` comments)."""
    start, terminals, prods = None, None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("nonterminals:"):
            continue
        if line.startswith("start:"):
            start = line.split(":", 1)[1].strip()
        elif line.startswith("terminals:"):
            terminals = tuple(line.split(":", 1)[1].split())
        else:
            lhs, rhs = line.split("->", 1)
            for alt in rhs.split("|"):
                prods.append((lhs.strip(), tuple(alt.split())))
    return (start or prods[0][0], terminals, tuple(prods))


def bounded_language(cfg, max_len: int) -> set:
    """Every string of length <= max_len the start symbol derives, by a
    least fixpoint over per-nonterminal string sets."""
    start, terminals, prods = cfg
    tset = set(terminals)
    lang: dict = {lhs: set() for lhs, _ in prods}

    def strings(sym):
        return {(sym,)} if sym in tset else lang.get(sym, set())

    changed = True
    while changed:
        changed = False
        for lhs, rhs in prods:
            partial = {()}
            for k, sym in enumerate(rhs):
                room = max_len - (len(rhs) - k - 1)  # later symbols need >= 1 each
                partial = {p + s for p in partial for s in strings(sym) if len(p) + len(s) <= room}
                if not partial:
                    break
            new = partial - lang[lhs]
            if new:
                lang[lhs] |= new
                changed = True
    return lang.get(start, set())


def is_gnf(cfg) -> list:
    """Productions that break Greibach shape: terminal head, nonterminal tail."""
    _, terminals, prods = cfg
    tset = set(terminals)
    return [
        (lhs, rhs)
        for lhs, rhs in prods
        if not rhs or rhs[0] not in tset or any(s in tset for s in rhs[1:])
    ]


# --------------------------------------------------------------------------
# closed-form membership predicates


def in_anbn(w) -> bool:
    n = len(w) // 2
    return n >= 1 and len(w) == 2 * n and w == "a" * n + "b" * n


def in_anban(w) -> bool:
    n = (len(w) - 1) // 2
    return len(w) == 2 * n + 1 and w == "a" * n + "b" + "a" * n


def in_dyck(w) -> bool:
    depth = 0
    for s in w:
        if s not in ("l", "r"):
            return False
        depth += 1 if s == "l" else -1
        if depth < 0:
            return False
    return bool(w) and depth == 0


def in_abplus(w) -> bool:
    return len(w) >= 2 and w == "ab" * (len(w) // 2)


PREDICATES = {"anbn": in_anbn, "anban": in_anban, "dyck": in_dyck, "abplus": in_abplus}
