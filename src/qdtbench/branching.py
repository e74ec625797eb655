"""Iterated branching at desk scale.

A depth-n, k-outcome branching process has k^n leaves; we aggregate them
by outcome-count vector, which keeps the representation polynomial in n.
Multiplicities are exact big integers; per-leaf squared amplitudes are
products of the branch weights.  Masses (multiplicity x squared
amplitude) are evaluated in log space when the direct product would
underflow, keeping normalization sums good to far better than 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import WeightSumError

WEIGHT_TOL = 1e-12


def _check_weights(weights: Sequence[float]) -> tuple[float, ...]:
    ws = tuple(float(w) for w in weights)
    if len(ws) < 1:
        raise WeightSumError("at least one branch weight required")
    if any(w <= 0 for w in ws):
        raise WeightSumError(f"branch weights must be positive, got {list(ws)}")
    if abs(sum(ws) - 1.0) > WEIGHT_TOL:
        raise WeightSumError(f"branch weights sum to {sum(ws)!r}, not 1")
    return ws


def _compositions(n: int, k: int):
    """All count vectors (c_1..c_k) of nonnegative ints summing to n."""
    if k == 1:
        yield (n,)
        return
    for cuts in combinations(range(n + k - 1), k - 1):
        out = []
        prev = -1
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(n + k - 2 - prev)
        yield tuple(out)


def _multinomial(n: int, counts: Sequence[int]) -> int:
    coef = 1
    rest = n
    for c in counts[:-1]:
        coef *= math.comb(rest, c)
        rest -= c
    return coef


@dataclass(frozen=True)
class BranchTree:
    """Aggregated outcome of n rounds of k-way branching.

    nodes maps a count vector to its exact leaf multiplicity.  Each leaf
    with counts c has squared amplitude prod_j w_j^c_j; `node_mass` is
    multiplicity times that.
    """
    k: int
    weights: tuple[float, ...]
    depth: int
    nodes: dict[tuple[int, ...], int]

    def node_log_amp2(self, counts: tuple[int, ...]) -> float:
        """log of the per-leaf squared amplitude at this count vector."""
        return sum(c * math.log(w) for c, w in zip(counts, self.weights))

    def node_mass(self, counts: tuple[int, ...]) -> float:
        mult = self.nodes[counts]
        log_amp = self.node_log_amp2(counts)
        if -600.0 < log_amp and mult < 2 ** 900:
            direct = mult * math.exp(log_amp)
            if direct > 0.0 and math.isfinite(direct):
                return direct
        return math.exp(math.log(mult) + log_amp)

    def leaf_count(self) -> int:
        return sum(self.nodes.values())


def grow(weights: Sequence[float], depth: int) -> BranchTree:
    """Branch `depth` times with the given per-outcome weights."""
    ws = _check_weights(weights)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    k = len(ws)
    nodes = {counts: _multinomial(depth, counts)
             for counts in _compositions(depth, k)}
    return BranchTree(k=k, weights=ws, depth=depth, nodes=nodes)


def modal_count_vector(tree: BranchTree) -> tuple[int, ...]:
    """The most numerous count vector.

    Multiplicities are compared exactly; ties resolve to the
    lexicographically smallest count vector.  Because multiplicities are
    pure multinomial coefficients, the modal vector is as balanced as
    the depth allows, independent of the branch weights.
    """
    if tree.depth < 1:
        raise ValueError("modal vector needs at least one branching round")
    best = None
    best_mult = -1
    for counts in sorted(tree.nodes):
        mult = tree.nodes[counts]
        if mult > best_mult:
            best, best_mult = counts, mult
    return best


def counting_frequencies(tree: BranchTree) -> tuple[float, ...]:
    """Outcome frequencies of the modal count vector."""
    return tuple(c / tree.depth for c in modal_count_vector(tree))


def _deviating_counts(n: int, w1: float, eps: float) -> list[int]:
    """Counts c with |c/n - w1| > eps, decided in exact rational arithmetic.

    The boundary |c/n - w1| = eps is excluded; comparing Fractions of
    the actual double values keeps the set reproducible.
    """
    w = Fraction(w1)
    e = Fraction(eps)
    return [c for c in range(n + 1) if abs(Fraction(c, n) - w) > e]


def born_deviation_norm(weights: Sequence[float], depth: int,
                        eps: float) -> float:
    """Total squared amplitude of branches whose first-outcome frequency
    deviates from its weight by more than eps (two-outcome case).

    Per-count masses combine an exact binomial coefficient with
    log-space amplitude evaluation, then a compensated sum.
    """
    ws = _check_weights(weights)
    if len(ws) != 2:
        raise ValueError("deviation norm is defined for two outcomes")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if eps < 0:
        raise ValueError("deviation threshold must be nonnegative")
    w1, w2 = ws
    lw1, lw2 = math.log(w1), math.log(w2)
    terms = []
    for c in _deviating_counts(depth, w1, eps):
        log_term = math.log(math.comb(depth, c)) + c * lw1 + (depth - c) * lw2
        terms.append(math.exp(log_term))
    return float(math.fsum(sorted(terms)))


def coarse_grain_count(tree: BranchTree, theta: float) -> int:
    """Number of leaves whose squared amplitude exceeds theta.

    theta = 0 counts every leaf (k^depth of them); the count collapses
    as theta crosses the amplitude scales, which is the instability this
    diagnostic is meant to exhibit.
    """
    if theta < 0:
        raise ValueError("grain threshold must be nonnegative")
    if theta == 0.0:
        return tree.leaf_count()
    log_theta = math.log(theta)
    total = 0
    for counts, mult in tree.nodes.items():
        if tree.node_log_amp2(counts) > log_theta:
            total += mult
    return total
