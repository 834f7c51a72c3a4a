"""Print the raw and code-only line counts of src/lambekit.

A code line carries at least one token that is not a comment, a docstring
or layout; blank lines, comment lines and docstring lines are not counted.
Only the standard library is used.

    python tools/src_lines.py
"""

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lambekit"

# tokens after which a string token starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: Path) -> tuple:
    """(raw lines, code lines) of one Python file."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code = set()
    prev = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type in _STATEMENT_START:
                prev = tok.type
            continue
        # a string that makes up a whole statement is a docstring
        docstring = (
            tok.type == tokenize.STRING
            and prev in _STATEMENT_START
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT)
        )
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    raw = path.read_bytes().count(b"\n")
    return raw, len(code)


def main() -> int:
    raw = code = 0
    for path in sorted(SRC.glob("*.py")):
        r, c = count(path)
        raw += r
        code += c
    print(f"src/lambekit: {raw} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
