"""Error types shared across the package, and the one tolerance rule of
every internal cross-check.

at_most and agree allow one relative slack: REL_TOL times
max(1, |value|, |bound|), or times max(1, scale) when the caller names the
magnitude its rounding grows with.  Below magnitude 1 that is the absolute
1e-12; above it, no cross-check depends on the units of the input.  Only a
finite pair can fail: an infinity or a NaN is left to the strict report
renderer.
"""

from __future__ import annotations

import math
from typing import Callable

#: Relative slack of every internal cross-check.
REL_TOL = 1e-12


class InvariantViolation(RuntimeError):
    """An internal cross-check failed: two independent routes disagreed.

    Raised through at_most and agree when a value and its oracle drift
    apart beyond REL_TOL, and directly by the strict invariants.  The
    command-line runner maps this to exit code 2; it always indicates a bug
    or a broken installation, never a mathematical verdict.
    """


def at_most(value: float, bound: float, message: str | Callable[[], str],
            scale: float | None = None) -> None:
    """Raise InvariantViolation(message) when value exceeds bound by more
    than the slack; a callable message is formatted only then."""
    size = max(abs(value), abs(bound)) if scale is None else abs(scale)
    if (math.isfinite(value) and math.isfinite(bound)
            and value - bound > REL_TOL * max(1.0, size)):
        raise InvariantViolation(message() if callable(message) else message)


def agree(a: float, b: float, message: str | Callable[[], str]) -> None:
    """Raise InvariantViolation(message) when a and b differ by more than
    the slack."""
    if (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) > REL_TOL * max(1.0, abs(a), abs(b))):
        raise InvariantViolation(message() if callable(message) else message)
