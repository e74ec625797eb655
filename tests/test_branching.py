"""Branching-tree bookkeeping versus independent combinatorics.

The deviation-mass oracle below recomputes binomial tails with exact
integer arithmetic, so float drift in the implementation under test
cannot cancel out against itself.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtbench.branching import (DEPTH_GUARD, ROUNDS_GUARD, SWEEP_GUARD,
                                TREE_GUARD, BranchTree, born_deviation_norm,
                                check_series_cost, check_sweep_cost,
                                coarse_grain_count, counting_frequencies,
                                _check_weights, grow, modal_count_vector,
                                tree_words)
from qdtbench.errors import SeriesTooLarge, WeightSumError


def exact_binomial_deviation(n: int, eps: float) -> float:
    """Mass of |j/n - 1/2| > eps for the fair two-outcome tree."""
    total = Fraction(0)
    for j in range(n + 1):
        if abs(Fraction(j, n) - Fraction(1, 2)) > Fraction(eps).limit_denominator(10**9):
            total += Fraction(math.comb(n, j), 2 ** n)
    return float(total)


# Reference forms of the series kernels, with a math.comb per count and
# itertools.combinations.  The kernels carry their binomials incrementally
# and must match these bit for bit.

def reference_deviation_norm(weights, n, eps):
    w1, w2 = weights
    lw1, lw2 = math.log(w1), math.log(w2)
    w, e = Fraction(w1), Fraction(eps)
    terms = [math.exp(math.log(math.comb(n, c)) + c * lw1 + (n - c) * lw2)
             for c in range(n + 1) if abs(Fraction(c, n) - w) > e]
    return float(math.fsum(sorted(terms)))


def reference_nodes(n, k):
    """Count vector -> multiplicity, in the kernel's dict order."""
    nodes = {}
    for cuts in itertools.combinations(range(n + k - 1), k - 1):
        bounds = (-1,) + cuts + (n + k - 1,)
        counts = tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))
        mult, rest = 1, n
        for c in counts[:-1]:
            mult *= math.comb(rest, c)
            rest -= c
        nodes[counts] = mult
    return nodes


# -- tree structure -----------------------------------------------------------

def test_two_level_multiplicities_frozen():
    tree = grow((0.25, 0.75), 2)
    assert tree.nodes == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert tree.depth == 2 and tree.k == 2


def test_node_count_equals_k_to_depth():
    tree = grow((0.2, 0.3, 0.5), 5)
    assert sum(tree.nodes.values()) == 3 ** 5


def test_total_born_mass_is_one():
    tree = grow((0.1, 0.9), 8)
    mass = sum(mult * (0.1 ** c[0]) * (0.9 ** c[1])
               for c, mult in tree.nodes.items())
    assert mass == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 6), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_mass_conservation_random_weights(depth, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    raw = rng.uniform(0.05, 1.0, size=k)
    w = tuple(raw / raw.sum())
    tree = grow(w, depth)
    mass = sum(mult * math.prod(wi ** ci for wi, ci in zip(w, c))
               for c, mult in tree.nodes.items())
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert sum(tree.nodes.values()) == k ** depth


@pytest.mark.parametrize("k", range(1, 7))
def test_grow_matches_reference_nodes_in_order(k):
    weights = (1.0 / k,) * (k - 1) + (1.0 - (k - 1) / k,)
    for n in range(13):
        tree = grow(weights, n)
        assert list(tree.nodes.items()) == list(reference_nodes(n, k).items())


def test_grow_walks_more_outcomes_than_the_recursion_limit():
    k = 1500
    weights = (0.5 / (k - 1),) * (k - 1) + (0.5,)
    tree = grow(weights, 1)
    assert len(tree.nodes) == k and tree.leaf_count() == k
    assert next(iter(tree.nodes)) == (0,) * (k - 1) + (1,)
    assert list(grow(weights, 0).nodes.items()) == [((0,) * k, 1)]


def test_weight_check_rejects_nan():
    with pytest.raises(WeightSumError, match="sum to nan"):
        _check_weights([math.nan, 1.0])
    with pytest.raises(WeightSumError, match="sum to nan"):
        born_deviation_norm((math.nan, 0.5), 3, 0.1)


def test_grow_guards():
    with pytest.raises(SeriesTooLarge):
        grow((0.5, 0.5), DEPTH_GUARD + 1)
    # k = 6 at depth 33 fits TREE_GUARD, depth 34 does not
    w6 = (0.3, 0.15, 0.25, 0.05, 0.2, 0.05)
    assert tree_words(6, 33) <= TREE_GUARD < tree_words(6, 34)
    assert tree_words(6, 30) == 324_632 * (6 + 30 * math.log2(6) / 64)
    assert tree_words(2, 10 ** 6) < math.inf == tree_words(1500, 1500)
    with pytest.raises(SeriesTooLarge):
        grow(w6, 34)
    with pytest.raises(SeriesTooLarge):
        born_deviation_norm((0.5, 0.5), DEPTH_GUARD + 1, 0.1)


def test_series_and_sweep_guards_bound_the_whole_call():
    # every depth is checked before any is weighed, then the rounds in all
    with pytest.raises(SeriesTooLarge, match="depth guard"):
        check_series_cost([5, DEPTH_GUARD + 1, -3])
    fit = ROUNDS_GUARD // (DEPTH_GUARD + 10)
    check_series_cost([DEPTH_GUARD] * fit)
    with pytest.raises(SeriesTooLarge, match="rounds guard"):
        check_series_cost([DEPTH_GUARD] * (fit + 1))
    with pytest.raises(SeriesTooLarge, match="rounds guard"):
        check_series_cost([1] * (ROUNDS_GUARD // 11 + 1))
    # the series sweep (k = 6, n = 30, four thresholds) fits the sweep guard
    check_sweep_cost(6, 30, 4)
    passes = int(SWEEP_GUARD // (tree_words(6, 30) + 64))
    check_sweep_cost(6, 30, passes)
    with pytest.raises(SeriesTooLarge, match="sweep guard"):
        check_sweep_cost(6, 30, passes + 1)
    with pytest.raises(SeriesTooLarge, match="depth guard"):
        check_sweep_cost(2, DEPTH_GUARD + 1, 1)
    check_sweep_cost(2, -1, 10 ** 9)    # left to grow, which names it
    check_sweep_cost(0, 5, 10 ** 9)


# -- counting measure ---------------------------------------------------------

def test_counting_frequencies_ignore_weights():
    for w in ((0.5, 0.5), (0.1, 0.9)):
        assert counting_frequencies(grow(w, 12)) == pytest.approx((0.5, 0.5))
    for w in ((0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)):
        freqs = counting_frequencies(grow(w, 6))
        assert freqs == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_modal_vector_uniform_at_divisible_depth():
    assert modal_count_vector(grow((0.9, 0.1), 30)) == (15, 15)
    assert modal_count_vector(grow((0.2, 0.3, 0.5), 9)) == (3, 3, 3)


def test_modal_vector_same_across_weight_choices():
    ref = modal_count_vector(grow((0.5, 0.5), 30))
    assert modal_count_vector(grow((0.1, 0.9), 30)) == ref


# -- deviation mass -----------------------------------------------------------

def test_single_draw_always_deviates():
    # with one branching the frequency is 0 or 1, never within 0.1 of 0.3
    assert born_deviation_norm((0.3, 0.7), 1, 0.1) == pytest.approx(1.0)


def test_fair_coin_depth_ten_frozen():
    got = born_deviation_norm((0.5, 0.5), 10, 0.1)
    assert got == pytest.approx(0.34375, abs=1e-12)
    assert got == pytest.approx(exact_binomial_deviation(10, 0.1), abs=1e-12)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_matches_exact_binomial_tail(n):
    got = born_deviation_norm((0.5, 0.5), n, 0.1)
    assert got == pytest.approx(exact_binomial_deviation(n, 0.1), abs=1e-12)


def test_deviation_decreases_with_depth():
    vals = [born_deviation_norm((0.5, 0.5), n, 0.1) for n in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]


def test_wide_tolerance_has_zero_deviation():
    assert born_deviation_norm((0.5, 0.5), 20, 0.6) == 0.0


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.8, 0.2), (0.3, 0.7)])
def test_deviation_norm_matches_reference_bit_for_bit(weights):
    # eps 0.25 puts c/n = 1/4 and 3/4 exactly on the fair coin's boundary
    for n in (1, 2, 4, 7, 8, 100, 1000, 3000):
        for eps in (0.0, 0.05, 0.25):
            got = born_deviation_norm(weights, n, eps)
            assert repr(got) == repr(reference_deviation_norm(weights, n,
                                                              eps))


# -- coarse graining ----------------------------------------------------------

def reference_grain_counts(tree, thetas):
    """Leaves above each theta: per theta, a brute-force pass over the
    stored nodes' log amplitudes, as the tree-based sweep counted them."""
    import numpy as np
    log_amps = np.array([tree.node_log_amp2(c) for c in tree.nodes])
    mults = np.array(list(tree.nodes.values()), dtype=object)
    return [tree.leaf_count() if theta == 0.0
            else int(mults[log_amps > math.log(theta)].sum())
            for theta in thetas]


def test_coarse_grain_matches_brute_force():
    # thresholds sit midway between adjacent product values, away from
    # any exact-equality boundary where float ordering could differ
    w = (0.2, 0.3, 0.5)
    depth = 6
    tree = grow(w, depth)
    products = sorted({math.prod(wi ** ci for wi, ci in zip(w, c))
                       for c in tree.nodes})
    thetas = [0.5 * (a + b) for a, b in zip(products, products[1:])]
    thetas += [products[0] / 2, products[-1] * 2]
    brute = [sum(1 for path in itertools.product(range(3), repeat=depth)
                 if math.prod(w[i] for i in path) > theta)
             for theta in thetas]
    assert coarse_grain_count(w, depth, thetas) == brute


def test_coarse_grain_matches_log_amplitude_brute_force():
    for weights, depth in (((0.2, 0.3, 0.5), 6), ((0.5, 0.5), 9),
                           ((0.3, 0.15, 0.25, 0.05, 0.2, 0.05), 5)):
        tree = grow(weights, depth)
        # theta 0, and theta at every node's own amplitude in both forms
        thetas = {0.0, 1.0}
        for counts in tree.nodes:
            thetas.add(math.exp(tree.node_log_amp2(counts)))
            thetas.add(math.prod(w ** c for w, c in zip(weights, counts)))
        thetas = sorted(thetas)
        assert (coarse_grain_count(weights, depth, thetas)
                == reference_grain_counts(tree, thetas))


@pytest.mark.parametrize("k", range(1, 7))
def test_coarse_grain_one_pass_matches_per_threshold_reference(k):
    # unequal weights, so the amplitudes take many values; every node's
    # amplitude is a threshold, shuffled, with repeats, 0 and -0.0
    raw = [1.0 + j for j in range(k)]
    weights = tuple(x / sum(raw) for x in raw)
    rng = random.Random(k)
    for n in range(13):
        tree = grow(weights, n)
        amps = sorted({math.exp(tree.node_log_amp2(c)) for c in tree.nodes}
                      | {1.0})
        thetas = amps + rng.sample(amps, min(3, len(amps)))
        thetas += [0.0, -0.0, 0.0]
        rng.shuffle(thetas)
        assert (coarse_grain_count(weights, n, thetas)
                == reference_grain_counts(tree, thetas)), (k, n)


def test_coarse_grain_frozen_values():
    w = (0.2, 0.3, 0.5)
    assert coarse_grain_count(w, 6, [0.002, 0.012, 0.1]) == [168, 1, 0]
    assert coarse_grain_count(w, 6, [0.1, 0.0, 0.002, -0.0]) == [0, 729,
                                                                  168, 729]
    assert coarse_grain_count(w, 6, []) == []
    assert coarse_grain_count((1.0,), 7, [0.0, 0.5, 1.0]) == [1, 1, 0]
    assert coarse_grain_count(w, 0, [0.5, 1.0, 0.0]) == [1, 0, 1]


def test_coarse_grain_keeps_the_refusals_of_grow():
    w6 = (0.3, 0.15, 0.25, 0.05, 0.2, 0.05)
    with pytest.raises(SeriesTooLarge, match="tree guard"):
        coarse_grain_count(w6, 34, [0.1])
    with pytest.raises(SeriesTooLarge, match="depth guard"):
        coarse_grain_count((0.5, 0.5), DEPTH_GUARD + 1, [-1.0])
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        coarse_grain_count((0.5, 0.5), -1, [-1.0])
    with pytest.raises(WeightSumError):
        coarse_grain_count((0.5, 0.6), 4, [-1.0])
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        coarse_grain_count((0.5, 0.5), 4, [0.1, -1.0])


def test_coarse_grain_sweep_never_holds_the_tree():
    # at k = 6, n = 30 the stored tree is 324,632 count vectors, some
    # 30 MB of tuples and big ints; the sweep keeps only its walk stack
    w6 = (0.3, 0.15, 0.25, 0.05, 0.2, 0.05)
    tracemalloc.start()
    try:
        counts = coarse_grain_count(w6, 30, [0.0, 1e-22, 1e-25, 1e-28])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [6 ** 30, 1140394687581654539701,
                      52761492406550800401952, 186647157187783324357764]
    assert peak < 1_000_000, peak
