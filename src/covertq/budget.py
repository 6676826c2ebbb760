"""The toolkit's one memory budget, in bytes.

Every entry point that builds n-fold arrays calls :func:`check` with the
bytes it will hold at once, each count taken from a measured tracemalloc
peak, before it allocates them.  ``COVERTQ_MAX_BYTES`` sets the budget.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError, InvalidParameterError

#: Budget when ``COVERTQ_MAX_BYTES`` is unset or empty: 2 GiB, which leaves
#: room for the interpreter and the LAPACK workspace on a 7 GB machine.
DEFAULT_MAX_BYTES = 2 << 30


def max_bytes() -> int:
    """``COVERTQ_MAX_BYTES``, or ``DEFAULT_MAX_BYTES`` when unset or empty; a malformed or non-positive value,
    or any value of the retired dimension variable, raises ``InvalidParameterError`` rather than being dropped."""
    if os.environ.get("COVERTQ_MAX_DENSE_DIM"):
        raise InvalidParameterError("COVERTQ_MAX_DENSE_DIM is no longer read; set COVERTQ_MAX_BYTES (bytes) instead")
    raw = os.environ.get("COVERTQ_MAX_BYTES") or str(DEFAULT_MAX_BYTES)
    if not raw.strip().isdecimal() or int(raw) == 0:
        raise InvalidParameterError(f"COVERTQ_MAX_BYTES={raw!r} is not a positive whole number of bytes")
    return int(raw)


def check(nbytes: int, what: str) -> None:
    """Raise ``BudgetExceededError`` if ``what`` needs more than :func:`max_bytes`."""
    cap = max_bytes()
    if nbytes > cap:
        raise BudgetExceededError(f"{what} needs {nbytes} bytes, budget {cap} bytes (COVERTQ_MAX_BYTES)")
