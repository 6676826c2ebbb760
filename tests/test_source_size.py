"""Every module of the package stays under CPython's 4,096-token parser step.

Past that step, compiling a module peaked about 277 KB higher, and the
benchmark compiles every module in every process.  Tokens are counted as
``tokenize`` yields them, less comments, NL and ENCODING tokens.

``python tests/test_source_size.py`` prints each module's lines, parser
tokens and headroom under the step, and the package's total lines and tokens.
"""

import tokenize
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "covertq").glob("*.py"))
IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
STEP = 4096


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(tok.type not in IGNORED for tok in tokenize.tokenize(fh.readline))


def test_every_module_is_found():
    assert {"covert_sim.py", "eg_toy.py", "operators.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_step(path):
    assert parser_tokens(path) < STEP


if __name__ == "__main__":
    print(f"{'module':<16}{'lines':>7}{'tokens':>8}{'headroom':>10}")
    rows = [(path.name, len(path.read_text().splitlines()), parser_tokens(path)) for path in MODULES]
    for name, lines, tokens in rows:
        print(f"{name:<16}{lines:>7}{tokens:>8}{STEP - tokens:>10}")
    print(f"{'total':<16}{sum(row[1] for row in rows):>7}{sum(row[2] for row in rows):>8}")
