"""The CLI's output on a fixed corpus of calls, byte for byte: argv, exit
code, stdout and stderr, as ``tools/golden.py`` records them in
``tests/golden/cli.txt``.  A change that alters output on purpose
rewrites the file with ``python tools/golden.py --update``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_output_matches_the_golden_corpus():
    expected = golden.split(golden.GOLDEN.read_text())
    actual = golden.split(golden.render())
    for want, got in zip(expected, actual):
        assert got == want  # the first call whose record differs
    assert len(actual) == len(expected)


def test_corpus_reaches_every_exit_code_and_fragment():
    text = golden.GOLDEN.read_text()
    for code in (0, 1, 2, 3):
        assert f"\nexit {code}\n" in text
    for name in golden.FRAGMENTS:
        assert f"> fragment: {name}\n" in text
