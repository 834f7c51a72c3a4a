"""Command line front end: ``lambekit <subcommand>``.

File formats
------------
Grammar files carry ``start:``, ``nonterminals:`` and ``terminals:``
directives followed by one rule per line, with ``|`` separating
alternatives::

    start: S
    nonterminals: S B
    terminals: a b
    S -> a S B | a B
    B -> b

Lexicon files carry a ``target:`` directive (which also marks the file as a
lexicon), an optional ``primitives:`` directive, and one entry per line::

    target: S
    a : (S/B)/S, S/B
    b : B

``#`` starts a comment in both formats.  Every subcommand takes ``--json``
for machine-readable output.

Exit codes: 0 success (member, provable, agreement), 1 negative verdict,
2 malformed input, 3 a precondition or resource limit got in the way
(including a step budget, or input too deep or too long for Python's
recursion limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .core import (
    CalculusConfig,
    Cfg,
    FragmentError,
    GrammarError,
    LambekGrammar,
    Production,
    Rule,
    classify_cfg,
    format_type,
    FULL_CALCULUS,
)
from .oracle import (
    _FRAGMENTS,
    CfgDecider,
    LambekDecider,
    StepLimitExceeded,
    crosscheck,
    enumerate_strings,
    infer_config,
)
from .prover import ProofEngine
from .core import Primitive, subtypes_in_order
from .syntax import (
    ParseError,
    format_proof,
    format_sequent,
    parse_sequent,
    parse_type,
    proof_to_dict,
)
from .transform import (
    TranslationError,
    cfg_to_lambek,
    lambek_to_cfg,
    lambek_to_lcfg,
    lambek_to_reg,
    lcfg_to_lambek,
    reg_to_lambek,
    to_gnf,
    translation_report,
)

FORMAT_VERSION = 2

_RULES_BY_NAME = {r.value: r for r in Rule if r not in (Rule.AXIOM, Rule.CUT)}


# --------------------------------------------------------------------------
# file parsing and printing


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def _body_lines(text: str, found: dict, single: str, noun: str, lists: tuple) -> Iterator:
    """Yield (line number, line) for each nonblank line of ``text`` that is
    not a directive, in file order, with its comment and trailing blanks
    cut.  A directive is a line whose text before the first ':' is a
    directive name; its value goes into ``found`` as the line is read, the
    ``single`` directive's as its one ``noun``, each of ``lists`` as a list.
    A line is read only when the caller asks for the next one, so a fault
    on a body line is reported before any later line is read."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        name, colon, value = line.strip().partition(":")
        if colon and name == single:
            fields = value.split()
            if len(fields) != 1:
                raise ParseError(f"{single}: takes exactly one {noun}", lineno)
            found[single] = fields[0]
        elif colon and name in lists:
            found[name] = value.split()
        elif line:
            yield lineno, line


def parse_grammar_file(text: str) -> Cfg:
    found: dict = {}
    productions = []
    lhs_order: dict = {}
    body = _body_lines(text, found, "start", "symbol", ("nonterminals", "terminals"))
    for lineno, line in body:
        if "->" not in line:
            raise ParseError("expected a directive or a rule with '->'", lineno)
        lhs_text, _, rhs_text = line.partition("->")
        lhs_fields = lhs_text.split()
        if len(lhs_fields) != 1:
            raise ParseError(
                "left-hand side must be a single nonterminal", lineno
            )
        lhs = lhs_fields[0]
        lhs_order[lhs] = None
        for alt in rhs_text.split("|"):
            rhs = tuple(alt.split())
            if not rhs:
                raise ParseError("empty right-hand side", lineno)
            productions.append(Production(lhs, rhs))
    if "terminals" not in found:
        raise ParseError("missing terminals: directive")
    if not productions:
        raise ParseError("grammar has no rules")
    nonterminals = found.get("nonterminals", lhs_order)
    start = found.get("start", productions[0].lhs)
    try:
        return Cfg(tuple(nonterminals), tuple(found["terminals"]), start, tuple(productions))
    except GrammarError as e:
        raise ParseError(str(e)) from e


def parse_lexicon_file(text: str) -> LambekGrammar:
    found: dict = {}
    entries: dict = {}
    for lineno, line in _body_lines(text, found, "target", "primitive", ("primitives",)):
        if ":" not in line:
            raise ParseError("expected a directive or an entry with ':'", lineno)
        sym_text, _, types_text = line.partition(":")
        sym = sym_text.strip()
        if not sym or len(sym.split()) != 1:
            raise ParseError("entry needs a single symbol before ':'", lineno)
        types = entries.setdefault(sym, [])
        col = line.index(":") + 2  # 1-based column of the first char past ':'
        for chunk in types_text.split(","):
            body = chunk.strip()
            if body:
                offset = chunk.index(body[0])
                types.append(parse_type(body, lineno, col + offset))
            elif types_text.strip():
                raise ParseError("empty type in entry", lineno, col)
            col += len(chunk) + 1
    if "target" not in found:
        raise ParseError("missing target: directive")
    target = found["target"]
    primitives = found.get("primitives")
    if primitives is None:  # the target, then the others in order of first use
        subtypes = (u for ts in entries.values() for t in ts for u in subtypes_in_order(t))
        primitives = dict.fromkeys([target, *(u.name for u in subtypes if type(u) is Primitive)])
    lexicon = {sym: tuple(types) for sym, types in entries.items()}
    try:
        return LambekGrammar(tuple(primitives), tuple(entries), target, lexicon)
    except GrammarError as e:
        raise ParseError(str(e)) from e


def format_grammar(g: Cfg) -> str:
    """Canonical text for a grammar; parses back to an equal Cfg."""
    lines = [
        f"start: {g.start}",
        "nonterminals: " + " ".join(g.nonterminals),
        "terminals: " + " ".join(g.terminals),
    ]
    lines.extend(f"{p.lhs} -> {' '.join(p.rhs)}" for p in g.productions)
    return "\n".join(lines) + "\n"


def format_lexicon(lg: LambekGrammar) -> str:
    lines = [
        f"target: {lg.distinguished}",
        "primitives: " + " ".join(lg.primitives),
    ]
    for sym in lg.alphabet:
        types = lg.lexicon[sym]
        if types:
            lines.append(f"{sym} : " + ", ".join(format_type(t) for t in types))
        else:
            lines.append(f"{sym} :")
    return "\n".join(lines) + "\n"


def load_grammar_file(path: str) -> Union[Cfg, LambekGrammar]:
    """Parse a file as a lexicon if it has a target: directive, else as a
    grammar."""
    text = Path(path).read_text()
    for raw in text.splitlines():
        if _strip_comment(raw).strip().startswith("target:"):
            return parse_lexicon_file(text)
    return parse_grammar_file(text)


# --------------------------------------------------------------------------
# shared helpers


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, written with its own stack: a proof
    tree as tall as the word needs no frame per level.  The stack holds
    text still to print as ``str`` and values still to encode as
    ``(depth, value)``."""
    parts, todo = [], [(0, value)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        depth, item = item
        if isinstance(item, dict) and item:
            opening, closing = "{", "}"
            pairs = [(json.dumps(k) + ": ", v) for k, v in item.items()]
        elif isinstance(item, (list, tuple)) and item:
            opening, closing = "[", "]"
            pairs = [("", v) for v in item]
        else:
            parts.append(json.dumps(item))
            continue
        pad = "\n" + "  " * (depth + 1)
        parts.append(opening)
        todo.append("\n" + "  " * depth + closing)
        for k in range(len(pairs) - 1, -1, -1):
            key, v = pairs[k]
            todo.append((depth + 1, v))
            todo.append(("," if k else "") + pad + key)
    return "".join(parts)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload["format_version"] = FORMAT_VERSION
        print(_json_text(payload))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _write_output(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
        if not args.json:
            print(f"wrote {args.output}")
    elif not args.json:
        print(text, end="")


def _split_word(text: str, symbols) -> tuple:
    parts = text.split()
    if len(parts) > 1:
        return tuple(parts)
    if text in symbols:
        return (text,)
    return tuple(text)


def _alphabet(g: Union[Cfg, LambekGrammar]) -> tuple:
    return g.terminals if isinstance(g, Cfg) else g.alphabet


def _decider(g: Union[Cfg, LambekGrammar], args):
    if isinstance(g, Cfg):
        return CfgDecider(g)
    config = _FRAGMENTS[args.fragment][0] if getattr(args, "fragment", None) else None
    return LambekDecider(g, config)


def _check_fragment(args, *grammars) -> None:
    if args.fragment and not any(isinstance(g, LambekGrammar) for g in grammars):
        raise FragmentError("--fragment applies to lexicon input only")


def _lenient(decider):
    # crosscheck arms may have different alphabets; a symbol one side
    # cannot spell is simply not in its language
    def run(w, max_steps=None):
        try:
            return decider(w, max_steps=max_steps)
        except GrammarError:
            return False

    return run


def _join(word: tuple) -> str:
    return " ".join(word) if any(len(s) > 1 for s in word) else "".join(word)


# --------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    g = load_grammar_file(args.file)
    if isinstance(g, LambekGrammar):
        config = infer_config(g)
        fields = {
            "kind": "lexicon",
            "fragment": next(k for k, (v, _) in _FRAGMENTS.items() if v == config),
            "symbols": len(g.alphabet),
            "types": len(g.all_types()),
            "max_degree": max([t.degree for t in g.all_types()] or [0]),
        }
        flags = {}
    else:
        c = classify_cfg(g)
        fields = {
            "kind": "grammar",
            "nonterminals": len(g.nonterminals),
            "terminals": len(g.terminals),
            "productions": len(g.productions),
        }
        flags = {
            "lcfg": c.is_lcfg,
            "right_regular": c.is_right_regular,
            "left_regular": c.is_left_regular,
            "gnf": c.is_gnf,
        }
    text = "".join(f"{k.replace('_', ' ')}: {v}\n" for k, v in fields.items())
    text += "".join(f"{k.replace('_', '-')}: {'yes' if v else 'no'}\n" for k, v in flags.items())
    _emit(args, {"command": "classify", **fields, **flags}, text)
    return 0


def _cmd_gnf(args) -> int:
    g = load_grammar_file(args.file)
    if not isinstance(g, Cfg):
        raise FragmentError("gnf expects a grammar file, not a lexicon")
    result = to_gnf(g)
    report = translation_report(g, result)
    text = format_grammar(result)
    payload = {
        "command": "gnf",
        "grammar": text,
        "fresh_symbols": list(report.fresh_symbols),
        "productions": len(result.productions),
    }
    if args.json:
        _emit(args, payload, "")
    _write_output(args, text)
    return 0


def _cmd_convert(args) -> int:
    g = load_grammar_file(args.file)
    if isinstance(g, Cfg):
        if args.to != "lambek":
            raise FragmentError(
                "a grammar file converts to a lexicon; use --to lambek"
            )
        via = args.via or "gnf"
        if via == "gnf":
            result = cfg_to_lambek(to_gnf(g))
        elif via == "lcfg":
            result = lcfg_to_lambek(g)
        else:
            result = reg_to_lambek(g)
        text = format_lexicon(result)
    else:
        if args.to == "lambek":
            raise FragmentError(
                "a lexicon file converts to a grammar; use --to cfg, lcfg or reg"
            )
        if args.via:
            raise FragmentError("--via only applies to grammar input")
        translate = {
            "cfg": lambek_to_cfg,
            "lcfg": lambek_to_lcfg,
            "reg": lambek_to_reg,
        }[args.to]
        result = translate(g)
        text = format_grammar(result)
    report = translation_report(g, result)
    payload = {
        "command": "convert",
        "to": args.to,
        "output": text,
        "input_summary": report.input_summary,
        "output_summary": report.output_summary,
        "fresh_symbols": list(report.fresh_symbols),
    }
    if args.json:
        _emit(args, payload, "")
    _write_output(args, text)
    return 0


def _cmd_decide(args) -> int:
    g = load_grammar_file(args.file)
    if isinstance(g, Cfg) and (args.fragment or args.proof):
        raise FragmentError("--fragment and --proof apply to lexicon input only")
    word = _split_word(args.word, set(_alphabet(g)))
    decider = _decider(g, args)
    if args.proof:
        proof = decider.find_proof(word, max_steps=args.budget)
        member = proof is not None
    else:
        member = decider(word, max_steps=args.budget)
    payload = {
        "command": "decide",
        "word": list(word),
        "member": member,
    }
    text = ("member" if member else "not a member") + "\n"
    if args.proof and args.json:
        payload["proof"] = proof_to_dict(proof) if member else None
    elif args.proof and member:
        text += format_proof(proof) + "\n"
    _emit(args, payload, text)
    return 0 if member else 1


def _cmd_prove(args) -> int:
    sequent = parse_sequent(args.sequent)
    if args.rules is not None:
        names = [r.strip() for r in args.rules.split(",") if r.strip()]
        bad = [n for n in names if n not in _RULES_BY_NAME]
        if bad:
            raise ParseError(
                f"unknown rule {bad[0]!r}; choose from "
                + ", ".join(sorted(_RULES_BY_NAME))
            )
        config = CalculusConfig(frozenset(_RULES_BY_NAME[n] for n in names))
    else:
        config = FULL_CALCULUS
    result = ProofEngine().prove(sequent, config, max_steps=args.budget)
    payload = {
        "command": "prove",
        "sequent": format_sequent(sequent),
        "provable": result.provable,
        "nodes_expanded": result.stats.nodes_expanded,
    }
    text = "not provable\n"
    if args.json:
        payload["proof"] = proof_to_dict(result.proof) if result.provable else None
    elif result.provable:
        text = format_proof(result.proof) + "\n"
    _emit(args, payload, text)
    return 0 if result.provable else 1


def _cmd_enumerate(args) -> int:
    g = load_grammar_file(args.file)
    _check_fragment(args, g)
    decider = _decider(g, args)
    members = [
        word
        for word in enumerate_strings(_alphabet(g), args.max_len)
        if decider(word, max_steps=args.budget)
    ]
    payload = {
        "command": "enumerate",
        "max_length": args.max_len,
        "count": len(members),
        "strings": [list(w) for w in members],
    }
    text = "".join(_join(w) + "\n" for w in members)
    _emit(args, payload, text)
    return 0


def _cmd_crosscheck(args) -> int:
    a = load_grammar_file(args.file_a)
    b = load_grammar_file(args.file_b)
    _check_fragment(args, a, b)
    alphabet = sorted(set(_alphabet(a)) | set(_alphabet(b)))
    report = crosscheck(
        _lenient(_decider(a, args)),
        _lenient(_decider(b, args)),
        alphabet,
        args.max_len,
        exhaustive=args.exhaustive,
        step_budget=args.budget,
    )
    payload = {
        "command": "crosscheck",
        "max_length": report.max_length,
        "strings_tested": report.strings_tested,
        "agreements": report.agreements,
        "agreed": report.agreed,
        "first_disagreement": None,
        "elapsed_seconds": round(report.elapsed_seconds, 6),
    }
    if report.first_disagreement is not None:
        word, va, vb = report.first_disagreement
        payload["first_disagreement"] = {"word": list(word), "a": va, "b": vb}
    _emit(args, payload, str(report) + "\n")
    return 0 if report.agreed else 1


# --------------------------------------------------------------------------
# argument parsing


def _count(least: int):
    # an argparse type: an integer no smaller than least, else a usage error
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}"
            )
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambekit",
        description="Provers, recognizers and grammar translators "
        "for Lambek calculus fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p = add("classify", _cmd_classify, "report the shape of a grammar or lexicon")
    p.add_argument("file")

    p = add("gnf", _cmd_gnf, "convert a grammar to Greibach normal form")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the result to a file")

    p = add("convert", _cmd_convert, "translate between grammars and lexicons")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("lambek", "cfg", "lcfg", "reg"))
    p.add_argument(
        "--via",
        choices=("gnf", "lcfg", "reg"),
        help="route for grammar input (default: gnf)",
    )
    p.add_argument("-o", "--output", help="write the result to a file")

    p = add("decide", _cmd_decide, "test whether a string is in the language")
    p.add_argument("file")
    p.add_argument("word", help="symbols separated by spaces, or run together")
    p.add_argument("--fragment", choices=sorted(_FRAGMENTS))
    p.add_argument("--proof", action="store_true", help="print a derivation")
    p.add_argument("--budget", type=_count(0), help="per-string step budget")

    p = add("prove", _cmd_prove, "run the sequent prover")
    p.add_argument("sequent", help="e.g. 'S/B, B -> S'")
    p.add_argument("--rules", help="comma-separated rules, e.g. '/L,\\L'")
    p.add_argument("--budget", type=_count(0), help="node-expansion budget for the search")

    p = add("enumerate", _cmd_enumerate, "list the language up to a length bound")
    p.add_argument("file")
    p.add_argument("--max-len", type=_count(1), required=True)
    p.add_argument("--fragment", choices=sorted(_FRAGMENTS))
    p.add_argument("--budget", type=_count(0), help="per-string step budget")

    p = add("crosscheck", _cmd_crosscheck, "compare two languages string by string")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-len", type=_count(1), required=True)
    p.add_argument("--exhaustive", action="store_true", help="keep going past the first disagreement")
    p.add_argument("--budget", type=_count(0), help="per-string step budget")
    p.add_argument("--fragment", choices=sorted(_FRAGMENTS))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TranslationError, FragmentError, GrammarError, StepLimitExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input too deep or too long for the recursion limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
