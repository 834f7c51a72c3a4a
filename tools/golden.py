"""Record or check the golden CLI corpus: the argv, exit code, stdout and
stderr of a fixed list of ``lambekit`` calls, run in order in one process
through ``lambekit.cli.main``.

    python tools/golden.py            # compare with tests/golden/cli.txt
    python tools/golden.py --update   # rewrite tests/golden/cli.txt

The calls read copies of ``samples/`` and a few extra inputs in a fresh
temporary directory, and write their output files there; its path prints
as ``<tmp>``.  ``elapsed_seconds`` is the one field masked, by name.  Help
text is laid out for 80 columns.  Only the standard library is used.
"""

import contextlib
import io
import os
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"
TMP = "<tmp>"

# inputs beside the samples: a grammar that is neither GNF nor linear, a
# degree-two {\} lexicon and a product lexicon (the full calculus), and
# one malformed file of each kind
EXTRA = {
    "dyck-cyk.cfg": "terminals: l r\nS -> S S | l S r | l r\n",
    "back.lex": "target: S\na : A\nb : A\\S, S\\(A\\S)\n",
    "prod.lex": "target: S\na : S/(A*B)\nb : A\nc : B\n",
    "bad.cfg": "terminals: a\nS a\n",
    "bad.lex": "target: S\na : S/(B\n",
}
GRAMMARS = ("abplus.reg", "anban.lcfg", "anbn.cfg", "aplus.reg", "dyck.cfg", "dyck-cyk.cfg")
VIAS = ("gnf", "lcfg", "reg")
FRAGMENTS = ("regular", "slash", "linear", "full")
# every lexicon with a member and a non-member; the converted ones are
# written by the corpus's own convert calls, as <grammar>.<via>.lex
LEXICONS = {
    "anbn.lex": ("aabb", "abab"),
    "abplus.reg.reg.lex": ("abab", "abba"),
    "abplus.reg.gnf.lex": ("ab", "aab"),
    "aplus.reg.reg.lex": ("aaa", "a a a a"),
    "anban.lcfg.lcfg.lex": ("aabaa", "aaba"),
    "anban.lcfg.gnf.lex": ("aba", "ab"),
    "anbn.cfg.gnf.lex": ("aaabbb", "abb"),
    "dyck.cfg.gnf.lex": ("llrr", "lrr"),
    "back.lex": ("aabb", "ab b"),
    "prod.lex": ("abc", "acb"),
}
SEQUENTS = (
    "S/B, B -> S",
    "B, B\\S -> S",
    "S -> S",
    "A/B, B/C -> A/C",
    "A -> B/(A\\B)",
    "A, B -> A*B",
    "A*B -> B*A",
    "(A/B)/C -> A/(C*B)",
    "S/B, B -> B",
    "S/B, C -> S",
    "A/B, B/C, C -> A",
)


def corpus() -> list:
    """The argv lists, in run order, with the temporary directory as TMP."""

    def f(name: str) -> str:
        return f"{TMP}/{name}"

    calls = []
    for name in GRAMMARS:
        for via in VIAS:
            calls.append(["convert", f(name), "--to", "lambek", "--via", via, "-o", f(f"{name}.{via}.lex")])
            calls.append(["convert", f(name), "--to", "lambek", "--via", via])
            calls.append(["convert", f(name), "--to", "lambek", "--via", via, "--json"])
        calls.append(["convert", f(name), "--to", "lambek"])
        for to in ("cfg", "lcfg", "reg"):
            calls.append(["convert", f(name), "--to", to])
        calls.append(["gnf", f(name)])
        calls.append(["gnf", f(name), "--json"])
    calls.append(["gnf", f("anbn.cfg"), "-o", f("anbn.gnf.cfg")])
    calls.append(["gnf", f("anbn.cfg"), "-o", f("anbn.gnf.cfg"), "--json"])
    calls.append(["gnf", f("anbn.lex")])
    for name in (*GRAMMARS, "anbn.gnf.cfg", *LEXICONS, "bad.cfg", "bad.lex", "missing.cfg"):
        calls.append(["classify", f(name)])
        calls.append(["classify", f(name), "--json"])
    for name in LEXICONS:
        for to in ("cfg", "lcfg", "reg", "lambek"):
            calls.append(["convert", f(name), "--to", to])
            calls.append(["convert", f(name), "--to", to, "--json"])
        calls.append(["convert", f(name), "--to", "cfg", "--via", "gnf"])
    calls.append(["convert", f("anbn.lex"), "--to", "reg", "-o", f("anbn.lex.cfg")])

    for name, words in LEXICONS.items():
        for word in words:
            calls.append(["decide", f(name), word])
            calls.append(["decide", f(name), word, "--proof"])
            for fragment in FRAGMENTS:
                calls.append(["decide", f(name), word, "--fragment", fragment])
        calls.append(["decide", f(name), words[0], "--proof", "--json"])
        calls.append(["decide", f(name), words[0], "--json"])
        calls.append(["decide", f(name), words[0], "--budget", "2"])
        calls.append(["decide", f(name), words[0], "--proof", "--fragment", "full", "--json"])
        calls.append(["decide", f(name), "z"])
        for fragment in (None, *FRAGMENTS):
            argv = ["enumerate", f(name), "--max-len", "4"]
            calls.append(argv + (["--fragment", fragment] if fragment else []))
        calls.append(["enumerate", f(name), "--max-len", "3", "--json"])
        calls.append(["enumerate", f(name), "--max-len", "4", "--budget", "3"])
    for name in GRAMMARS:
        calls.append(["decide", f(name), "ab"])
        calls.append(["decide", f(name), "aabb", "--json"])
        calls.append(["decide", f(name), "lrlr", "--budget", "1"])
        calls.append(["decide", f(name), "ab", "--fragment", "slash"])
        calls.append(["decide", f(name), "ab", "--proof"])
        calls.append(["enumerate", f(name), "--max-len", "4"])
        calls.append(["enumerate", f(name), "--max-len", "3", "--json"])
        calls.append(["enumerate", f(name), "--max-len", "3", "--fragment", "full"])

    for grammar, lexicon in (
        ("anbn.cfg", "anbn.lex"),
        ("anbn.cfg", "anbn.cfg.gnf.lex"),
        ("abplus.reg", "abplus.reg.reg.lex"),
        ("anban.lcfg", "anban.lcfg.lcfg.lex"),
        ("dyck.cfg", "dyck.cfg.gnf.lex"),
        ("dyck-cyk.cfg", "dyck.cfg.gnf.lex"),
        ("aplus.reg", "abplus.reg.reg.lex"),
        ("anbn.cfg", "dyck.cfg"),
    ):
        calls.append(["crosscheck", f(grammar), f(lexicon), "--max-len", "5"])
        calls.append(["crosscheck", f(grammar), f(lexicon), "--max-len", "5", "--json"])
        calls.append(["crosscheck", f(grammar), f(lexicon), "--max-len", "4", "--exhaustive"])
        calls.append(["crosscheck", f(grammar), f(lexicon), "--max-len", "4", "--exhaustive", "--json"])
    for fragment in FRAGMENTS:
        calls.append(["crosscheck", f("anbn.cfg"), f("anbn.lex"), "--max-len", "4", "--fragment", fragment])
    calls.append(["crosscheck", f("anbn.cfg"), f("dyck.cfg"), "--max-len", "4", "--fragment", "slash"])
    calls.append(["crosscheck", f("anbn.cfg"), f("anbn.lex"), "--max-len", "4", "--budget", "2"])

    for sequent in SEQUENTS:
        calls.append(["prove", sequent])
        calls.append(["prove", sequent, "--json"])
        calls.append(["prove", sequent, "--rules", "/L,\\L"])
    calls.append(["prove", "A/B, B/C -> A/C", "--rules", "/L,/R", "--json"])
    calls.append(["prove", "A/B, B/C -> A/C", "--rules", ""])
    calls.append(["prove", "S/B, B -> S", "--rules", "/L,bogus"])
    calls.append(["prove", "A/B, B/C, C -> A", "--budget", "1"])
    calls.append(["prove", "S/B, -> S"])
    calls.append(["prove", "S/(B -> S"])

    calls.append(["--help"])
    for command in ("classify", "gnf", "convert", "decide", "prove", "enumerate", "crosscheck"):
        calls.append([command, "--help"])
    calls.append([])
    calls.append(["convert", f("anbn.cfg"), "--to", "bogus"])
    calls.append(["convert", f("anbn.cfg"), "--to", "lambek", "--via", "bogus"])
    calls.append(["decide", f("anbn.lex"), "ab", "--fragment", "bogus"])
    calls.append(["enumerate", f("anbn.lex"), "--max-len", "2", "--fragment", "bogus"])
    calls.append(["crosscheck", f("anbn.cfg"), f("anbn.lex"), "--max-len", "2", "--fragment", "bogus"])
    calls.append(["enumerate", f("anbn.lex"), "--max-len", "0"])
    calls.append(["decide", f("anbn.lex")])
    return calls


def _run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process call."""
    from lambekit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: --help, and usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _block(mark: str, text: str) -> str:
    if not text:
        return ""
    lines = "".join(f"{mark} {line}" for line in text.splitlines(keepends=True))
    return lines if text.endswith("\n") else lines + "\n\\ no newline at end\n"


def render() -> str:
    """The corpus's record, as the golden file holds it."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    records = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for sample in (ROOT / "samples").iterdir():
                shutil.copy(sample, tmp)
            for name, text in EXTRA.items():
                Path(tmp, name).write_text(text)
            for argv in corpus():
                code, out, err = _run([a.replace(TMP, tmp) for a in argv])
                out, err = out.replace(tmp, TMP), err.replace(tmp, TMP)
                out = re.sub(r'("elapsed_seconds": )[0-9.e-]+', r"\1<masked>", out)
                head = f"$ lambekit {shlex.join(argv)}\nexit {code}\n"
                records.append(head + _block(">", out) + _block("!", err))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return "\n".join(records)


def split(text: str) -> list:
    """A golden text's records, one per call."""
    return text.split("\n$ ")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    actual = render()
    if sys.argv[1:] == ["--update"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(actual)
        print(f"wrote {len(split(actual))} calls to {GOLDEN.relative_to(ROOT)}")
        return 0
    expected = GOLDEN.read_text()
    for want, got in zip(split(expected), split(actual)):
        if want != got:
            print(f"first difference:\n--- golden\n{want}\n--- now\n{got}")
            return 1
    if len(split(expected)) != len(split(actual)):
        print("the corpus and the golden file hold different numbers of calls")
        return 1
    print(f"{len(split(actual))} calls match {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
