"""Parsing for the type and sequent surface syntax, and proof rendering.

The syntax: ``/`` is left-associative (``S/B/A`` is ``(S/B)/A``), ``\\`` is
right-associative (``A\\B\\S`` is ``A\\(B\\S)``), and ``*`` binds tighter than
either slash.  Chains that mix ``/`` and ``\\`` at the same level must be
parenthesized.  ``·`` is accepted as an alias for ``*`` on input.

Parsing is one scan of the whole text with one regex, then one
operator-precedence loop over the tokens, shared by types, type lists and
sequents.  The loop keeps an explicit stack with one frame per open
parenthesis, so text of any nesting parses without Python recursion.  Each
call builds one ``Primitive`` per distinct name, from a dict that lives as
long as the call; token columns are worked out only when there is an error
to report.  Nothing is cached between calls.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import (
    _IDENT_RE,
    Backslash,
    GrammarError,
    LambekitError,
    LambekType,
    Primitive,
    Product,
    Proof,
    Sequent,
    Slash,
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


# one token per match: the arrow, a name, or any other single non-space
# character (an operator, a parenthesis, a comma or a stray character)
_SCAN = re.compile(r"->|[A-Za-z0-9_']+|\S")

_TYPE, _LIST, _SEQUENT = range(3)
# where a finished top-level type stands, per kind of text, for the error
# about the token that may not follow it
_AFTER = ("after type", "in type list", "after sequent")


def _fail(text: str, line: int, col: int, k: int, message: str):
    """Raise ``message`` at token k (the end of the text when k is past the
    last token), or at the first stray character if the text has one, as a
    tokenizer that reads the whole text first would.  Token columns are
    computed only here, on the error path."""
    starts = []
    for m in _SCAN.finditer(text):
        tok = m.group()
        if len(tok) == 1 and tok not in "()*/\\," and not _IDENT_RE.match(tok):
            raise ParseError(f"unexpected character {tok!r}", line, col + m.start())
        starts.append(m.start())
    starts.append(len(text))
    raise ParseError(message, line, col + starts[k])


def _parse(text: str, line: int, col: int, mode: int):
    """Parse one type (_TYPE), a comma-separated list (_LIST) or a sequent
    (_SEQUENT) in one operator-precedence loop over the scanned tokens.
    An open parenthesis pushes the enclosing level's (parts, chain, mixed,
    star) onto ``frames`` and its ')' pops it, so nesting costs no frame of
    Python's stack.  ``parts`` are a level's products, ``chain`` the slash
    that joins them, ``mixed`` the first token of the other slash (reported
    once the chain ends), and ``star`` says a '*' waits for its right
    operand."""
    text = text.replace("·", "*")
    toks = _SCAN.findall(text)
    toks.append("")  # the end of the text
    names = {}  # one Primitive per distinct name, for this call only
    out, frames = [], []
    parts, chain, mixed, star = [], None, None, False
    arrow = mode != _SEQUENT  # no '->' is wanted, or it has been read
    i = 0
    if mode == _LIST and toks[0] == "":
        return ()
    if mode == _SEQUENT and toks[0] == "->":
        arrow, i = True, 1
    while True:
        # an operand: a name, or '(' opening a level
        tok = toks[i]
        i += 1
        if tok == "(":
            frames.append((parts, chain, mixed, star))
            parts, chain, mixed, star = [], None, None, False
            continue
        t = names.get(tok)
        if t is None:
            try:
                t = names[tok] = Primitive(tok)
            except GrammarError:
                _fail(text, line, col, i - 1, f"expected a type, found {tok!r}" if tok else "expected a type")
        while True:
            # t joins its level; an operator after it wants the next operand,
            # anything else ends the level's chain
            if star:
                parts[-1] = Product(parts[-1], t)
            else:
                parts.append(t)
            tok = toks[i]
            i += 1
            if tok == "*":
                star = True
                break
            if tok == "/" or tok == "\\":
                star = False
                if chain is None:
                    chain = tok
                elif tok != chain and mixed is None:
                    mixed = i - 1
                break
            if mixed is not None:
                _fail(text, line, col, mixed, "mixed / and \\ need parentheses")
            if chain == "\\":
                parts.reverse()  # A\B\S is A\(B\S): fold from the right
            t = parts[0]
            for u in parts[1:]:
                t = Slash(t, u) if chain == "/" else Backslash(u, t)
            if frames:
                if tok != ")":
                    _fail(text, line, col, i - 1, "expected ')'")
                parts, chain, mixed, star = frames.pop()
                continue
            # a whole type: a separator starts the next one
            if tok == "," and (mode == _LIST or not arrow):
                out.append(t)
            elif tok == "->" and not arrow:
                out.append(t)
                arrow = True
            elif tok == "" and arrow:
                if mode == _TYPE:
                    return t
                if mode == _LIST:
                    out.append(t)
                    return tuple(out)
                return Sequent(out, t)
            else:
                _fail(text, line, col, i - 1, f"unexpected {tok!r} {_AFTER[mode]}" if arrow else "expected '->'")
            parts, chain, mixed, star = [], None, None, False
            break


def parse_type(text: str, line: int = 1, col: int = 1) -> LambekType:
    """Parse a single type expression; line/col seed the diagnostics."""
    return _parse(text, line, col, _TYPE)


def parse_type_list(text: str, line: int = 1, col: int = 1) -> tuple:
    """Parse a comma-separated list of types; the list may be empty."""
    return _parse(text, line, col, _LIST)


def parse_sequent(text: str, line: int = 1, col: int = 1) -> Sequent:
    """Parse ``T1, ..., Tn -> T``.  The antecedent may be empty; provability
    queries will reject it, but it stays representable for diagnostics."""
    return _parse(text, line, col, _SEQUENT)


def format_sequent(s: Sequent) -> str:
    return str(s)


def format_proof(p: Proof) -> str:
    """Indented text rendering: one sequent per line, premises below their
    conclusion, rule labels in brackets.  The walk keeps its own stack: a
    proof as tall as the word needs no frame per level."""
    # a rule's _value_ is its label, read without the call that Enum's
    # value property makes
    lines, todo = [], [(p, "")]
    while todo:
        node, pad = todo.pop()
        lines.append(f"{pad}{node.conclusion}   [{node.rule._value_}]")
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
        "rule": p.rule._value_,
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
                    "rule": q.rule._value_,
                    "position": q.position,
                    "premises": [],
                }
            )
            if q.premises:
                todo.append((q, out[-1]["premises"]))
    return root
