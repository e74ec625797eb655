"""Branching-series kernels versus independent combinatorics.

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

from qdtbench import branching
from qdtbench.branching import (DEPTH_GUARD, ROUNDS_GUARD, TREE_GUARD,
                                born_deviation_norm, check_series_cost,
                                coarse_grain_count, counting_frequencies,
                                _check_weights, _count_rows,
                                modal_count_vector, tree_words)
from qdtbench.classical import PMEUOracle, vnm_elicit
from qdtbench.errors import SeriesTooLarge, WeightSumError
from qdtbench.preference import BornOracle, elicit_utility

from conftest import reference_nodes


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


def log_amp2(weights, counts):
    """log of the per-leaf squared amplitude prod_j w_j^c_j."""
    return sum(c * math.log(w) for c, w in zip(counts, weights))


def walked_nodes(n, k):
    """Count vector -> multiplicity, in the order the sweep walks them,
    with a math.comb per count where the walk carries its binomials."""
    if k == 1:
        return {(n,): 1}
    nodes = {}
    for prefix, rest, mult in _count_rows(n, k):
        for c in range(rest + 1):
            nodes[prefix + (c, rest - c)] = mult * math.comb(rest, c)
    return nodes


# -- tree structure -----------------------------------------------------------

def test_two_level_multiplicities_frozen():
    # leaves of squared amplitude 1/16, 3/16 (two of them) and 9/16
    assert reference_nodes(2, 2) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (coarse_grain_count((0.25, 0.75), 2, [0.5, 0.1, 0.05, 0.01])
            == [1, 3, 4, 4])


def test_node_count_equals_k_to_depth():
    # theta 0 is answered without a walk; a threshold below every
    # amplitude counts the walked leaves
    assert (coarse_grain_count((0.2, 0.3, 0.5), 5, [0.0, 0.2 ** 5 / 2])
            == [3 ** 5, 3 ** 5])


def grain_bands(weights, depth):
    """(squared amplitude, reference leaves, swept leaves) per distinct
    amplitude of the reference tree, the swept leaves cut apart by
    thresholds midway between adjacent log amplitudes."""
    nodes = reference_nodes(depth, len(weights))
    leaves = {}
    for counts, mult in nodes.items():
        a = log_amp2(weights, counts)
        leaves[a] = leaves.get(a, 0) + mult
    levels = sorted(leaves)
    cuts = [levels[0] - 1.0] + [0.5 * (a + b)
                                for a, b in zip(levels, levels[1:])]
    above = coarse_grain_count(weights, depth, [math.exp(c) for c in cuts])
    swept = [a - b for a, b in zip(above, above[1:] + [0])]
    return [(math.exp(a), leaves[a], n) for a, n in zip(levels, swept)]


def test_total_born_mass_is_one():
    bands = grain_bands((0.1, 0.9), 8)
    assert [ref for _, ref, _ in bands] == [n for _, _, n in bands]
    mass = sum(amp * n for amp, _, n in bands)
    assert mass == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 6), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_mass_conservation_random_weights(depth, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    raw = rng.uniform(0.05, 1.0, size=k)
    w = tuple(raw / raw.sum())
    bands = grain_bands(w, depth)
    assert [ref for _, ref, _ in bands] == [n for _, _, n in bands]
    assert sum(n for _, _, n in bands) == k ** depth
    mass = sum(amp * n for amp, _, n in bands)
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", range(1, 7))
def test_grow_matches_reference_nodes_in_order(k):
    # the count vectors as the sweep grows them, row by row
    for n in range(13):
        assert (list(walked_nodes(n, k).items())
                == list(reference_nodes(n, k).items()))


def test_coarse_grain_walks_more_outcomes_than_the_recursion_limit():
    k = 1500
    weights = (0.5 / (k - 1),) * (k - 1) + (0.5,)
    assert coarse_grain_count(weights, 1, [0.0, 0.4, 0.6]) == [k, 1, 0]
    assert coarse_grain_count(weights, 0, [0.0, 0.4, 1.0]) == [1, 1, 0]


def test_weight_check_rejects_nan():
    with pytest.raises(WeightSumError, match="sum to nan"):
        _check_weights([math.nan, 1.0])
    with pytest.raises(WeightSumError, match="sum to nan"):
        born_deviation_norm((math.nan, 0.5), 3, 0.1)


def test_depth_and_tree_guards():
    with pytest.raises(SeriesTooLarge, match="depth guard"):
        coarse_grain_count((0.5, 0.5), DEPTH_GUARD + 1, [0.1])
    # k = 6 at depth 33 fits TREE_GUARD, depth 34 does not
    w6 = (0.3, 0.15, 0.25, 0.05, 0.2, 0.05)
    assert tree_words(6, 33) <= TREE_GUARD < tree_words(6, 34)
    assert tree_words(6, 30) == 324_632 * (6 + 30 * math.log2(6) / 64)
    assert tree_words(2, 10 ** 6) < math.inf == tree_words(1500, 1500)
    with pytest.raises(SeriesTooLarge, match="tree guard"):
        coarse_grain_count(w6, 34, [0.1])
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
    # a sweep walks once whatever its thresholds, so the depth and tree
    # guards bound it (test_sweep_walks_once_per_call)


# -- counting measure ---------------------------------------------------------

def reference_mode(n, k):
    """The reference tree's most numerous count vector, ties to the
    lexicographically smallest."""
    nodes = reference_nodes(n, k)
    return max(sorted(nodes), key=nodes.get)


@pytest.mark.parametrize("k", range(1, 7))
def test_modal_vector_is_the_reference_argmax(k):
    for depth in range(1, 13):
        assert modal_count_vector(k, depth) == reference_mode(depth, k), depth


def test_modal_vector_needs_an_outcome_and_a_round():
    for k, depth in ((0, 5), (-1, 5), (2, 0), (3, -2), (0, 0)):
        with pytest.raises(ValueError, match="modal vector needs"):
            modal_count_vector(k, depth)
        with pytest.raises(ValueError, match="modal vector needs"):
            counting_frequencies(k, depth)


def test_modal_vector_at_the_depth_guard_walks_nothing(monkeypatch):
    def walk(*_):
        raise AssertionError("the count vectors were walked")

    monkeypatch.setattr(branching, "_count_rows", walk)
    assert DEPTH_GUARD == 6 * 1666 + 4
    assert modal_count_vector(6, DEPTH_GUARD) == (1666,) * 2 + (1667,) * 4


def test_counting_frequencies_ignore_weights():
    # every leaf counts once, so only k and the depth enter
    assert counting_frequencies(2, 12) == (0.5, 0.5)
    assert counting_frequencies(3, 6) == pytest.approx((1 / 3,) * 3)
    assert counting_frequencies(3, 7) == (2 / 7, 2 / 7, 3 / 7)


def test_modal_vector_uniform_at_divisible_depth():
    assert modal_count_vector(2, 30) == (15, 15)
    assert modal_count_vector(3, 9) == (3, 3, 3)


def test_modal_vector_same_across_weight_choices():
    # the Born mode of the reference tree follows the weights; the
    # counting mode is one vector whatever they are
    nodes = reference_nodes(30, 2)

    def born_mode(weights):
        return max(sorted(nodes), key=lambda c: (math.log(nodes[c])
                                                 + log_amp2(weights, c)))

    assert born_mode((0.5, 0.5)) == modal_count_vector(2, 30) == (15, 15)
    assert born_mode((0.1, 0.9)) == (3, 27)


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

def reference_grain_counts(weights, n, thetas):
    """Leaves above each theta: per theta, a brute-force pass over the
    reference tree's log amplitudes."""
    import numpy as np
    nodes = reference_nodes(n, len(weights))
    log_amps = np.array([log_amp2(weights, c) for c in nodes])
    mults = np.array(list(nodes.values()), dtype=object)
    return [len(weights) ** n if theta == 0.0
            else int(mults[log_amps > math.log(theta)].sum())
            for theta in thetas]


def test_coarse_grain_matches_brute_force():
    # thresholds sit midway between adjacent product values, away from
    # any exact-equality boundary where float ordering could differ
    w = (0.2, 0.3, 0.5)
    depth = 6
    products = sorted({math.prod(wi ** ci for wi, ci in zip(w, c))
                       for c in reference_nodes(depth, 3)})
    thetas = [0.5 * (a + b) for a, b in zip(products, products[1:])]
    thetas += [products[0] / 2, products[-1] * 2]
    brute = [sum(1 for path in itertools.product(range(3), repeat=depth)
                 if math.prod(w[i] for i in path) > theta)
             for theta in thetas]
    assert coarse_grain_count(w, depth, thetas) == brute


def test_coarse_grain_matches_log_amplitude_brute_force():
    for weights, depth in (((0.2, 0.3, 0.5), 6), ((0.5, 0.5), 9),
                           ((0.3, 0.15, 0.25, 0.05, 0.2, 0.05), 5)):
        # theta 0, and theta at every node's own amplitude in both forms
        thetas = {0.0, 1.0}
        for counts in reference_nodes(depth, len(weights)):
            thetas.add(math.exp(log_amp2(weights, counts)))
            thetas.add(math.prod(w ** c for w, c in zip(weights, counts)))
        thetas = sorted(thetas)
        assert (coarse_grain_count(weights, depth, thetas)
                == reference_grain_counts(weights, depth, thetas))


@pytest.mark.parametrize("k", range(1, 7))
def test_coarse_grain_one_pass_matches_per_threshold_reference(k):
    # unequal weights, so the amplitudes take many values; every node's
    # amplitude is a threshold, shuffled, with repeats, 0 and -0.0
    raw = [1.0 + j for j in range(k)]
    weights = tuple(x / sum(raw) for x in raw)
    rng = random.Random(k)
    for n in range(13):
        amps = sorted({math.exp(log_amp2(weights, c))
                       for c in reference_nodes(n, k)} | {1.0})
        thetas = amps + rng.sample(amps, min(3, len(amps)))
        thetas += [0.0, -0.0, 0.0]
        rng.shuffle(thetas)
        assert (coarse_grain_count(weights, n, thetas)
                == reference_grain_counts(weights, n, thetas)), (k, n)


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
    # checked in order: weights, negative depth, depth guard, tree guard
    with pytest.raises(WeightSumError):
        coarse_grain_count((0.5, 0.6), DEPTH_GUARD + 1, [-1.0])
    with pytest.raises(WeightSumError):
        coarse_grain_count((0.5, 0.6), -1, [-1.0])
    with pytest.raises(SeriesTooLarge, match="depth guard"):
        coarse_grain_count(w6, DEPTH_GUARD + 1, [-1.0])
    with pytest.raises(SeriesTooLarge, match="tree guard"):
        coarse_grain_count(w6, 34, [-1.0])


@pytest.mark.parametrize("thresholds", [1, 131])
def test_sweep_walks_once_per_call(thresholds, monkeypatch):
    entries = []

    def counted(*args):
        entries.append(args)
        return _count_rows(*args)

    monkeypatch.setattr(branching, "_count_rows", counted)
    w = (0.2, 0.3, 0.5)
    thetas = [0.002 * (j + 1) for j in range(thresholds)]
    counts = coarse_grain_count(w, 6, thetas)
    assert entries == [(6, 3)]
    assert counts == [coarse_grain_count(w, 6, [theta])[0]
                      for theta in thetas]


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


# -- non-finite library arguments ---------------------------------------------

_EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                     5e-324]),
    st.floats(allow_nan=True, allow_infinity=True))


def _vnm_utilities(tol):
    oracle = PMEUOracle({"r0": 0.0, "r1": 1.0, "a": 0.3})
    return list(vnm_elicit(oracle, ["r0", "a", "r1"], "r0", "r1",
                           tol=tol).values())


def _born_utilities(std6, tol):
    p = std6.problem
    table = elicit_utility(p, BornOracle(p, std6.utility), tol=tol).table
    return [table.of(rid) for rid in p.reward_ids]


# entry point and argument -> (call, whether the value must be refused)
_NUMERIC_ARGUMENTS = {
    "born_deviation_norm eps": (
        lambda x, _: [born_deviation_norm((0.5, 0.5), 3, x)],
        lambda x: not 0 <= x < math.inf),
    "coarse_grain_count theta": (
        lambda x, _: coarse_grain_count((0.5, 0.5), 3, [0.1, x]),
        lambda x: not x >= 0),
    "vnm_elicit tol": (lambda x, _: _vnm_utilities(x),
                       lambda x: not x >= 0),
    "elicit_utility tol": (lambda x, std6: _born_utilities(std6, x),
                           lambda x: not x >= 0),
}


@given(st.sampled_from(sorted(_NUMERIC_ARGUMENTS)), _EDGE_FLOATS)
@settings(max_examples=200, deadline=None)
def test_library_refuses_non_finite_arguments(std6, entry, x):
    # a refused value gets the ValueError a negative one gets, naming
    # the argument; any other value gives a finite answer
    call, refused = _NUMERIC_ARGUMENTS[entry]
    if refused(x):
        with pytest.raises(ValueError, match="must be (nonnegative|finite)"):
            call(x, std6)
    else:
        assert all(math.isfinite(v) for v in call(x, std6))
