"""Every module of the package stays under CPython's 4,096-token parser step.

Past that step, compiling a module peaked about 277 KB higher, and the
benchmark compiles every module in every process.  Tokens are counted as
``tokenize`` yields them, less comments, NL and ENCODING tokens.
"""

import tokenize
from pathlib import Path

import pytest

import covertq

MODULES = sorted(Path(covertq.__file__).parent.glob("*.py"))
IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(tok.type not in IGNORED for tok in tokenize.tokenize(fh.readline))


def test_every_module_is_found():
    assert {"covert_sim.py", "eg_toy.py", "operators.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_step(path):
    assert parser_tokens(path) < 4096
