"""Iterated branching at desk scale.

A depth-n, k-outcome branching process has k^n leaves; we aggregate them
by outcome-count vector, of which there are polynomially many in n.  The
coarse-grained sweep walks the count vectors once and stores none, and
skips whole a row of them whose leaves all fall in one threshold
bucket; the counting measure's modal vector has a closed form and walks
none.
Multiplicities are exact big integers; per-leaf squared amplitudes are
products of the branch weights.  The deviation norm evaluates masses
(multiplicity x squared amplitude) in log space, so no product
underflows, and sums them compensated.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from .errors import SeriesTooLarge, WeightSumError

WEIGHT_TOL = 1e-12
#: refuse to walk or weigh more branching rounds than this; at k = 2 a
#: leaf count 2^n then stays within Python's 4,300-digit int-to-str limit
DEPTH_GUARD = 10_000
#: refuse a sweep whose count vectors take more 64-bit words, as
#: `tree_words` counts them, than this; the walk reads each vector once,
#: whatever the number of thresholds
TREE_GUARD = 4_000_000
#: refuse to weigh more branching rounds than this in one series, each
#: depth counted with 10 more for its fixed cost
ROUNDS_GUARD = 1_000_000


def _check_weights(weights: Sequence[float]) -> tuple[float, ...]:
    ws = tuple(float(w) for w in weights)
    if len(ws) < 1:
        raise WeightSumError("at least one branch weight required")
    if any(w <= 0 for w in ws):
        raise WeightSumError(f"branch weights must be positive, got {list(ws)}")
    if not abs(sum(ws) - 1.0) <= WEIGHT_TOL:
        raise WeightSumError(f"branch weights sum to {sum(ws)!r}, not 1")
    return ws


def _check_depth(depth: int) -> None:
    if depth > DEPTH_GUARD:
        raise SeriesTooLarge(f"depth {depth} is above the depth guard "
                             f"of {DEPTH_GUARD}")


def tree_words(k: int, depth: int) -> float:
    """64-bit words of the count vectors a depth-n, k-outcome sweep walks:
    C(n+k-1, k-1) vectors, each with k counts and a multiplicity below
    k^n (inf past 2^1000 vectors)."""
    nodes = math.comb(depth + k - 1, k - 1)
    if nodes.bit_length() > 1000:
        return math.inf
    return nodes * (k + depth * math.log2(k) / 64)


def check_series_cost(depths: Sequence[int]) -> None:
    """Refuse, before any is weighed, depths past the depth guard or
    more rounds in all than the rounds guard."""
    for depth in depths:
        _check_depth(depth)
    rounds = sum(max(depth, 0) + 10 for depth in depths)
    if rounds > ROUNDS_GUARD:
        raise SeriesTooLarge(f"{len(depths)} depths weigh {rounds} rounds, "
                             f"above the rounds guard of {ROUNDS_GUARD}")


def _count_rows(depth: int, k: int):
    """Yield the count vectors of k >= 2 counts summing to depth, in
    lexicographic order, a row at a time: (prefix, rest, mult) stands
    for the vectors prefix + (c, rest - c), c = 0..rest, each at
    multiplicity mult * C(rest, c).  (k = 1 has the one vector (depth,).)

    A depth-first walk over prefixes, with the open ones on a stack
    rather than the call stack, so any k is walked.  The multinomial is
    built as C(n, c_1) * C(n - c_1, c_2) * ..., each binomial carried
    across c as C(r, c+1) = C(r, c) * (r - c) // (c + 1); consumers
    carry the row's last binomial the same way.
    """
    stack = [((), depth, 1)] if k > 1 else []
    while stack:
        prefix, rest, mult = stack.pop()
        free = k - len(prefix)      # counts still to choose
        if free == 2 or rest == 0:
            yield prefix + (0,) * (free - 2), rest, mult
            continue
        binom = 1
        children = []
        for c in range(rest + 1):
            children.append((prefix + (c,), rest - c, mult * binom))
            binom = binom * (rest - c) // (c + 1)
        stack += reversed(children)


def modal_count_vector(k: int, depth: int) -> tuple[int, ...]:
    """The most numerous count vector of k outcomes over depth rounds.

    Its multiplicity, a multinomial coefficient, is largest where the
    counts are as balanced as the depth allows, whatever the branch
    weights: q = depth // k each, and q + 1 on r = depth mod k of them.
    Ties resolve to the lexicographically smallest such vector, the
    larger counts last.
    """
    if k < 1 or depth < 1:
        raise ValueError("modal vector needs at least one outcome and one "
                         "branching round")
    q, r = divmod(depth, k)
    return (q,) * (k - r) + (q + 1,) * r


def counting_frequencies(k: int, depth: int) -> tuple[float, ...]:
    """Outcome frequencies of the modal count vector."""
    return tuple(c / depth for c in modal_count_vector(k, depth))


def born_deviation_norm(weights: Sequence[float], depth: int,
                        eps: float) -> float:
    """Total squared amplitude of branches whose first-outcome frequency
    deviates from its weight by more than eps (two-outcome case).

    Per-count masses combine an exact binomial coefficient, carried
    across c as C(n, c+1) = C(n, c) * (n-c) // (c+1), with log-space
    amplitude evaluation, then a compensated sum.  A count c deviates
    when |c/n - w1| > eps, decided in exact rational arithmetic on the
    actual double values: the boundary |c/n - w1| = eps is excluded.
    """
    ws = _check_weights(weights)
    if len(ws) != 2:
        raise ValueError("deviation norm is defined for two outcomes")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not eps >= 0:
        raise ValueError("deviation threshold must be nonnegative")
    if eps == math.inf:
        raise ValueError("deviation threshold must be finite")
    _check_depth(depth)
    w1, w2 = ws
    lw1, lw2 = math.log(w1), math.log(w2)
    # |c/n - w1| > eps  <=>  c < n(w1 - eps)  or  c > n(w1 + eps)
    low = math.ceil(depth * (Fraction(w1) - Fraction(eps)))
    high = math.floor(depth * (Fraction(w1) + Fraction(eps)))
    terms = []
    comb = 1
    for c in range(depth + 1):
        if c < low or c > high:
            log_term = math.log(comb) + c * lw1 + (depth - c) * lw2
            terms.append(math.exp(log_term))
        comb = comb * (depth - c) // (c + 1)
    return float(math.fsum(sorted(terms)))


def coarse_grain_count(weights: Sequence[float], depth: int,
                       thetas: Sequence[float]) -> list[int]:
    """Number of leaves of the depth-n tree whose squared amplitude
    exceeds each threshold, in the order given.

    One pass over the count vectors, none stored: each vector's log
    amplitude, sum_j c_j log w_j, is folded left to right once and set
    against every threshold.  theta = 0 counts every leaf (k^depth of
    them); the count collapses as theta crosses the amplitude scales,
    which is the instability this diagnostic is meant to exhibit.
    The depth and tree guards bound the walk, whatever the number of
    thresholds.

    The walk goes a row at a time (see `_count_rows`).  The prefix part
    of the fold, head, is taken once per row, and vector c of the row
    is head + c a + (rest - c) b, with a and b the last two log weights:
    the same floats as the whole fold.  Exactly, these values lie on
    the segment between the row's ends c = 0 and c = rest.  Each
    computed value rounds two products and two sums, so with u = 2^-53
    it lies within gamma_3 S of its exact value, where gamma_3 =
    3u / (1 - 3u) and S = |head| + rest max(|a|, |b|) bounds |head| +
    c |a| + (rest - c) |b|.  So every computed value lies within
    2 gamma_3 S < 6.1u S of the segment between the two computed ends.
    The margin 2^-49 S = 8 epsilon S = 16u S is more than twice that,
    and rounding it and adding it to the ends loses under 2u S.  So a
    row with no cut within the margin of its ends has all its leaves,
    mult 2^rest of them, in one bucket, and is counted without a visit
    to its vectors.  Any other row is walked a vector at a time, each
    run of equal buckets counted as it ends.
    """
    ws = _check_weights(weights)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_depth(depth)
    k = len(ws)
    if tree_words(k, depth) > TREE_GUARD:
        raise SeriesTooLarge(
            f"{k} outcomes at depth {depth} give a tree of more than "
            f"{TREE_GUARD} words (the tree guard)")
    if not all(theta >= 0 for theta in thetas):
        raise ValueError("grain threshold must be nonnegative")
    # distinct log thresholds, ascending: a vector of log amplitude v
    # counts for the first bisect_left(cuts, v) of them
    cuts = sorted({math.log(theta) for theta in thetas if theta != 0.0})
    above = [0] * (len(cuts) + 1)   # leaves by how many cuts they pass
    if cuts:
        log_w = [math.log(w) for w in ws]
        if k == 1:
            above[bisect_left(cuts, depth * log_w[0])] = 1
        else:
            *log_head, a, b = log_w
            top = max(abs(a), abs(b))
            for prefix, rest, mult in _count_rows(depth, k):
                head = 0.0
                for c, lw in zip(prefix, log_head):
                    head += c * lw
                low, high = sorted((head + rest * b, head + rest * a))
                margin = 2.0 ** -49 * (abs(head) + rest * top)
                i = bisect_left(cuts, low - margin)
                if i == len(cuts) or cuts[i] > high + margin:
                    above[i] += mult << rest
                    continue
                run = leaves = 0
                binom = 1
                for c in range(rest + 1):
                    i = bisect_left(cuts, head + c * a + (rest - c) * b)
                    if i != run:
                        above[run] += mult * leaves
                        run, leaves = i, 0
                    leaves += binom
                    binom = binom * (rest - c) // (c + 1)
                above[run] += mult * leaves
    passed = {}                     # log threshold -> leaves above it
    total = 0
    for cut, leaves in zip(reversed(cuts), reversed(above)):
        total += leaves
        passed[cut] = total
    return [k ** depth if theta == 0.0 else passed[math.log(theta)]
            for theta in thetas]
