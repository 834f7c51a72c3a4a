"""Parsing for the type and sequent surface syntax, and proof rendering.

The syntax: ``/`` is left-associative (``S/B/A`` is ``(S/B)/A``), ``\\`` is
right-associative (``A\\B\\S`` is ``A\\(B\\S)``), and ``*`` binds tighter than
either slash.  Chains that mix ``/`` and ``\\`` at the same level must be
parenthesized.  ``·`` is accepted as an alias for ``*`` on input.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import (
    Backslash,
    LambekitError,
    LambekType,
    Primitive,
    Product,
    Proof,
    Sequent,
    Slash,
    format_type,
)


class ParseError(LambekitError):
    """A syntax error, positioned by line and column (both 1-based) as far
    as they are known; the message names only the known parts."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        where = [f"{name} {n}" for name, n in (("line", line), ("col", col)) if n is not None]
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
        self.bare_message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<ident>[A-Za-z0-9_']+)"
    r"|(?P<op>[/\\*·])"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<comma>,)"
)


class _Tokens:
    def __init__(self, text: str, line: int, col: int):
        self.line = line
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col + pos)
            if m.lastgroup != "ws":
                value = m.group()
                if m.lastgroup == "op" and value == "·":
                    value = "*"
                self.items.append((m.lastgroup, value, col + pos))
            pos = m.end()
        self.items.append(("end", "", col + len(text)))
        self.index = 0

    def peek(self):
        return self.items[self.index]

    def next(self):
        tok = self.items[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def error(self, message: str, tok=None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.line, tok[2])


def _parse_atom(toks: _Tokens) -> LambekType:
    kind, value, _ = toks.peek()
    if kind == "ident":
        toks.next()
        return Primitive(value)
    if kind == "lpar":
        toks.next()
        inner = _parse_type_expr(toks)
        if toks.peek()[0] != "rpar":
            raise toks.error("expected ')'")
        toks.next()
        return inner
    raise toks.error(f"expected a type, found {value!r}" if value else "expected a type")


def _parse_product(toks: _Tokens) -> LambekType:
    t = _parse_atom(toks)
    while toks.peek()[:2] == ("op", "*"):
        toks.next()
        t = Product(t, _parse_atom(toks))
    return t


def _parse_type_expr(toks: _Tokens) -> LambekType:
    first = _parse_product(toks)
    parts = [first]
    ops = []
    while toks.peek()[0] == "op" and toks.peek()[1] in ("/", "\\"):
        op_tok = toks.next()
        ops.append(op_tok)
        parts.append(_parse_product(toks))
    if not ops:
        return first
    symbols = {tok[1] for tok in ops}
    if len(symbols) > 1:
        offender = next(tok for tok in ops if tok[1] != ops[0][1])
        raise ParseError(
            "mixed / and \\ need parentheses", toks.line, offender[2]
        )
    if symbols == {"/"}:
        t = parts[0]
        for part in parts[1:]:
            t = Slash(t, part)
        return t
    t = parts[-1]
    for part in reversed(parts[:-1]):
        t = Backslash(part, t)
    return t


def parse_type(text: str, line: int = 1, col: int = 1) -> LambekType:
    """Parse a single type expression; line/col seed the diagnostics."""
    toks = _Tokens(text, line, col)
    t = _parse_type_expr(toks)
    if toks.peek()[0] != "end":
        raise toks.error(f"unexpected {toks.peek()[1]!r} after type")
    return t


def parse_type_list(text: str, line: int = 1, col: int = 1) -> tuple:
    """Parse a comma-separated list of types; the list may be empty."""
    toks = _Tokens(text, line, col)
    if toks.peek()[0] == "end":
        return ()
    out = [_parse_type_expr(toks)]
    while toks.peek()[0] == "comma":
        toks.next()
        out.append(_parse_type_expr(toks))
    if toks.peek()[0] != "end":
        raise toks.error(f"unexpected {toks.peek()[1]!r} in type list")
    return tuple(out)


def parse_sequent(text: str, line: int = 1, col: int = 1) -> Sequent:
    """Parse ``T1, ..., Tn -> T``.  The antecedent may be empty; provability
    queries will reject it, but it stays representable for diagnostics."""
    toks = _Tokens(text, line, col)
    antecedent = []
    if toks.peek()[0] != "arrow":
        antecedent.append(_parse_type_expr(toks))
        while toks.peek()[0] == "comma":
            toks.next()
            antecedent.append(_parse_type_expr(toks))
    if toks.peek()[0] != "arrow":
        raise toks.error("expected '->'")
    toks.next()
    consequent = _parse_type_expr(toks)
    if toks.peek()[0] != "end":
        raise toks.error(f"unexpected {toks.peek()[1]!r} after sequent")
    return Sequent(antecedent, consequent)


def format_sequent(s: Sequent) -> str:
    return str(s)


def format_proof(p: Proof) -> str:
    """Indented text rendering: one sequent per line, premises below their
    conclusion, rule labels in brackets.  The walk keeps its own stack: a
    proof as tall as the word needs no frame per level."""
    lines, todo = [], [(p, "")]
    while todo:
        node, pad = todo.pop()
        lines.append(f"{pad}{node.conclusion}   [{node.rule.value}]")
        if node.premises:
            pad += "  "
            for q in node.premises[::-1]:
                todo.append((q, pad))
    return "\n".join(lines)


def proof_to_dict(p: Proof) -> dict:
    """Machine-readable proof tree, built with its own stack like
    ``format_proof``."""
    root = {
        "sequent": str(p.conclusion),
        "rule": p.rule.value,
        "position": p.position,
        "premises": [],
    }
    todo = [(p, root["premises"])]
    while todo:
        node, out = todo.pop()
        for q in node.premises:
            out.append(
                {
                    "sequent": str(q.conclusion),
                    "rule": q.rule.value,
                    "position": q.position,
                    "premises": [],
                }
            )
            if q.premises:
                todo.append((q, out[-1]["premises"]))
    return root
