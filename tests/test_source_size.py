"""Every module of the package stays under CPython's 4,096-token parser step.

Past that step, compiling a module peaked about 277 KB higher, and the
benchmark compiles every module in every process.  Tokens are counted as
``tokenize`` yields them, less comments, NL and ENCODING tokens.

``python tests/test_source_size.py`` prints each module's lines, parser
tokens and headroom under the step, its tokens at git's ``HEAD`` (read with
``git show``; left blank when git, ``HEAD`` or the module there is missing)
and the change since, and the package's totals.
"""

import io
import subprocess
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "covertq").glob("*.py"))
IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
STEP = 4096


def source_tokens(source: bytes) -> int:
    return sum(tok.type not in IGNORED for tok in tokenize.tokenize(io.BytesIO(source).readline))


def parser_tokens(path):
    return source_tokens(path.read_bytes())


def head_tokens(path):
    """Parser tokens of ``path`` at git's ``HEAD``, or None when git, ``HEAD`` or the file there is missing."""
    try:
        shown = subprocess.run(["git", "show", f"HEAD:{path.relative_to(ROOT).as_posix()}"], cwd=ROOT,
                               capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return source_tokens(shown.stdout)


def test_every_module_is_found():
    assert {"covert_sim.py", "eg_toy.py", "operators.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_step(path):
    assert parser_tokens(path) < STEP


def _row(name, lines, tokens, headroom, head) -> str:
    change = "" if head is None else f"{tokens - head:+d}"
    return f"{name:<16}{lines:>7}{tokens:>8}{headroom:>10}{'' if head is None else head:>8}{change:>8}"


if __name__ == "__main__":
    print(f"{'module':<16}{'lines':>7}{'tokens':>8}{'headroom':>10}{'HEAD':>8}{'change':>8}")
    rows = [(path.name, len(path.read_text().splitlines()), parser_tokens(path), head_tokens(path)) for path in MODULES]
    for name, lines, tokens, head in rows:
        print(_row(name, lines, tokens, STEP - tokens, head))
    heads = [row[3] for row in rows]
    total_head = None if None in heads else sum(heads)
    print(_row("total", sum(row[1] for row in rows), sum(row[2] for row in rows), "", total_head))
