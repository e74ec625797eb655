"""Three-way comparisons, the tie band and bisection for a tie, shared by
`preference` and `classical`; it imports no other layer and not numpy."""
from __future__ import annotations

import enum
from typing import Callable

#: expected-utility differences at or below this count as indifference
TIE_BAND = 1e-9
#: default bracket width at which utility elicitation stops bisecting
ELICIT_TOL = 1e-6
#: queries after which utility elicitation stops bisecting
ELICIT_STEPS = 40


class Comparison(enum.IntEnum):
    """Three-way outcome of comparing a first act against a second."""
    WORSE = -1
    TIE = 0
    BETTER = 1

    def flipped(self) -> "Comparison":
        return Comparison(-int(self))


def bisect_indifference(compare: Callable[[float], Comparison], tol: float,
                        max_steps: int
                        ) -> tuple[float, float, float | None, int]:
    """Bisect [0, 1] for the weight t at which compare(t) ties.

    compare(t) ranks the weight-t member of a family, which must improve
    with t, against a fixed target: WORSE moves the bracket up, BETTER
    down.  Stops at a tie, once the bracket is no wider than tol, or
    after max_steps queries.  Returns (lo, hi, tie, steps), where tie is
    the weight that tied, or None.
    """
    if not tol >= 0:
        raise ValueError(f"bracket width must be nonnegative, got {tol!r}")
    lo, hi, steps = 0.0, 1.0, 0
    while hi - lo > tol and steps < max_steps:
        mid = 0.5 * (lo + hi)
        c = compare(mid)
        steps += 1
        if c is Comparison.TIE:
            return lo, hi, mid, steps
        if c is Comparison.WORSE:
            lo = mid
        else:
            hi = mid
    return lo, hi, None, steps
