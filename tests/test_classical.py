"""Lottery algebra, utility elicitation, and subjective probability."""

import math

import numpy as np
import pytest

from qdtbench.classical import (PROB_TOL, ActOracle, ClassicalAct,
                                LexicographicOracle, Lottery, LotteryOracle,
                                PMEUOracle, PlantedMeasureOracle,
                                check_vnm_axioms,
                                expected_utility_classical, mix,
                                savage_probability, vnm_elicit)
from qdtbench.errors import (MissingUtility, NonMonotoneOracle,
                             NotEquipartition, WeightSumError)
from qdtbench.comparison import Comparison


def corner_lotteries(best, mid, worst):
    """Top-coordinate ties that expose a lexicographic Archimedean gap."""
    return [
        Lottery({best: 1.0}), Lottery({mid: 1.0}), Lottery({worst: 1.0}),
        Lottery({best: 0.5, mid: 0.5}),
        Lottery({best: 0.5, worst: 0.5}),
        Lottery({mid: 0.5, worst: 0.5}),
    ]


# -- lotteries ----------------------------------------------------------------

def test_lottery_merges_and_validates():
    lot = Lottery({"a": 0.25, "b": 0.75})
    assert lot.probs == {"a": 0.25, "b": 0.75}
    with pytest.raises(WeightSumError):
        Lottery({"a": 0.4, "b": 0.4})
    with pytest.raises(WeightSumError):
        Lottery({"a": -0.1, "b": 1.1})


def test_lottery_sum_check_rejects_nan():
    for probs in ({"a": math.nan}, {"a": math.nan, "b": 1.0}):
        with pytest.raises(WeightSumError,
                           match="lottery probabilities sum to nan"):
            Lottery(probs)


def test_mix_is_convex_combination():
    a = Lottery({"x": 1.0})
    b = Lottery({"y": 1.0})
    m = mix(a, b, 0.25)
    assert m.probs["x"] == pytest.approx(0.25)
    assert m.probs["y"] == pytest.approx(0.75)


def test_expected_utility_classical_frozen():
    lot = Lottery({"x": 0.2, "y": 0.5, "z": 0.3})
    u = {"x": 0.0, "y": 0.4, "z": 1.0}
    assert expected_utility_classical(lot, u) == pytest.approx(0.5)


# -- VNM ----------------------------------------------------------------------

def test_pmeu_passes_all_axioms():
    u = {"w": 0.0, "m": 0.4, "b": 1.0}
    oracle = PMEUOracle(u)
    lotteries = corner_lotteries("b", "m", "w")
    checks = check_vnm_axioms(lotteries, oracle, samples=60, seed=0)
    assert all(c.status == "pass" for c in checks), \
        [(c.name, c.failures) for c in checks if c.status != "pass"]


def test_lexicographic_fails_archimedean_with_witness():
    oracle = LexicographicOracle(["b", "m"])
    lotteries = corner_lotteries("b", "m", "w")
    checks = check_vnm_axioms(lotteries, oracle, samples=60, seed=0)
    arch = next(c for c in checks if c.name.lower().startswith("arch"))
    assert arch.status == "fail"
    assert arch.failures


class RecordingLotteryOracle(LotteryOracle):
    """Forwards to an inner oracle and logs each question."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def compare(self, a, b):
        self.log.append((a, b))
        return self.inner.compare(a, b)


@pytest.mark.parametrize("oracle", [PMEUOracle({"w": 0.0, "m": 0.4, "b": 1.0}),
                                    LexicographicOracle(["b", "m"])],
                         ids=["pmeu", "lex"])
def test_vnm_checks_ask_each_member_pair_once(oracle):
    rng = np.random.default_rng(5)
    lotteries = corner_lotteries("b", "m", "w") + [
        Lottery(dict(zip("bmw", rng.dirichlet(np.ones(3)))))
        for _ in range(4)]
    recording = RecordingLotteryOracle(oracle)
    checks = check_vnm_axioms(lotteries, recording, samples=60, seed=0)
    index = {id(lot): i for i, lot in enumerate(lotteries)}
    member_pairs = [(index[id(a)], index[id(b)]) for a, b in recording.log
                    if id(a) in index and id(b) in index]
    n = len(lotteries)
    assert sorted(member_pairs) == [(a, b) for a in range(n)
                                    for b in range(n) if a != b]
    plain = check_vnm_axioms(lotteries, oracle, samples=60, seed=0)
    assert [(c.name, c.status, c.samples, c.failures) for c in checks] == \
        [(c.name, c.status, c.samples, c.failures) for c in plain]


class CycleOracle(LotteryOracle):
    """Ranks a lottery by its likeliest reward, with the rewards in a
    strict three-cycle: each beats the one before it in `cycle`, and the
    first beats the last."""

    def __init__(self, cycle):
        self.beats = {(cycle[(i + 1) % 3], cycle[i]) for i in range(3)}

    def compare(self, a, b):
        x, y = (max(lot.probs, key=lot.probs.get) for lot in (a, b))
        if (x, y) in self.beats:
            return Comparison.BETTER
        return Comparison.WORSE if (y, x) in self.beats else Comparison.TIE


@pytest.mark.parametrize("cycle", ["abc", "cba"], ids=["against", "along"])
def test_ordering_finds_a_three_cycle_either_way_round(cycle):
    # δa ≺ δb ≺ δc ≺ δa runs against the list order, its mirror along it
    lotteries = [Lottery.delta(rid) for rid in "abc"]
    oracle = CycleOracle(cycle)
    ordering = check_vnm_axioms(lotteries, oracle, samples=5, seed=0)[0]
    assert ordering.name == "Ordering" and ordering.status == "fail"
    assert ordering.samples == 3 + 1     # three pairs, one triple
    failure, = ordering.failures
    assert failure["kind"] == "transitivity"
    a, b, c = (Lottery(probs) for probs in failure["triple"])
    assert oracle.compare(a, b) >= 0 and oracle.compare(b, c) >= 0
    assert oracle.compare(a, c) < 0


def test_pmeu_order_is_affine_invariant():
    base = {"w": 0.0, "m": 0.4, "b": 1.0}
    scaled = {rid: 3.0 * u + 2.0 for rid, u in base.items()}
    a = Lottery({"b": 0.5, "w": 0.5})
    b = Lottery({"m": 1.0})
    o1, o2 = PMEUOracle(base), PMEUOracle(scaled)
    for x, y in ((a, b), (b, a), (a, a)):
        assert o1.compare(x, y) is o2.compare(x, y)


def test_vnm_elicit_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(5):
        mids = {"m1": float(rng.uniform(0.05, 0.95)),
                "m2": float(rng.uniform(0.05, 0.95))}
        u = {"r0": 0.0, "r1": 1.0, **mids}
        oracle = PMEUOracle(u)
        got = vnm_elicit(oracle, sorted(u), "r0", "r1", tol=1e-7)
        for rid, val in u.items():
            assert got[rid] == pytest.approx(val, abs=1e-6)


class ConstantOracle(LotteryOracle):
    """Gives the same answer to every comparison."""

    def __init__(self, answer):
        self.answer = answer

    def compare(self, a, b):
        return self.answer


@pytest.mark.parametrize("answer, message", [
    (Comparison.BETTER, "the worst lottery beats 'a'; 'r0' is not the floor"),
    (Comparison.WORSE,
     "the best lottery loses to 'a'; 'r1' is not the ceiling"),
], ids=["floor", "ceiling"])
def test_vnm_elicit_refuses_a_contradicted_bracket(answer, message):
    with pytest.raises(NonMonotoneOracle, match=message):
        vnm_elicit(ConstantOracle(answer), ["r0", "a", "r1"], "r0", "r1")


# -- Savage -------------------------------------------------------------------

def _uniform_setup(n):
    states = [f"s{i}" for i in range(n)]
    cells = [[s] for s in states]
    measure = {s: 1.0 / n for s in states}
    oracle = PlantedMeasureOracle(measure, {"win": 1.0, "lose": 0.0})
    return states, cells, oracle


def test_savage_interval_contains_planted_probability():
    for n in (8, 64):
        states, cells, oracle = _uniform_setup(n)
        m_true = max(1, n // 4)
        event = states[:m_true]
        lo, hi = savage_probability(oracle, states, event, cells,
                                    "win", "lose")
        assert hi - lo == pytest.approx(1.0 / n, abs=1e-12)
        assert lo - 1e-12 <= m_true / n <= hi + 1e-12


def test_savage_empty_event_is_null():
    states, cells, oracle = _uniform_setup(8)
    lo, hi = savage_probability(oracle, states, [], cells, "win", "lose")
    assert lo == 0.0 and hi == 0.0


def test_savage_intervals_nest_as_partition_refines():
    # the same planted event measured with n and 2n uniform cells
    states, cells, oracle = _uniform_setup(16)
    event = states[:4]
    lo1, hi1 = savage_probability(oracle, states, event,
                                  [states[i:i + 2] for i in range(0, 16, 2)],
                                  "win", "lose")
    lo2, hi2 = savage_probability(oracle, states, event, cells,
                                  "win", "lose")
    assert lo1 - 1e-12 <= lo2 and hi2 <= hi1 + 1e-12


def test_savage_rejects_skewed_cells():
    states = [f"s{i}" for i in range(4)]
    cells = [[s] for s in states]
    measure = {"s0": 0.7, "s1": 0.1, "s2": 0.1, "s3": 0.1}
    oracle = PlantedMeasureOracle(measure, {"win": 1.0, "lose": 0.0})
    with pytest.raises(NotEquipartition):
        savage_probability(oracle, states, ["s0"], cells, "win", "lose")


def test_classical_act_bet_shape():
    act = ClassicalAct.bet(["s0", "s1"], ["s0"], "win", "lose")
    assert dict(act.payoffs) == {"s0": "win", "s1": "lose"}


def test_classical_act_keeps_its_dense_view():
    dense = {"s2": "x", "s0": "y", "s1": "x", "s10": "z"}
    act = ClassicalAct.from_mapping(dense)
    assert act.payoffs == tuple(sorted(dense.items()))
    assert act.states == ("s0", "s1", "s10", "s2")
    bet = ClassicalAct.bet(["s1", "s0", "s2"], ["s2", "s9"], "win", "lose")
    assert bet.payoffs == (("s0", "lose"), ("s1", "lose"), ("s2", "win"))
    assert bet.entries == (("s2", "win"),)
    # equality and hashing follow the dense map, not the stored form
    same = ClassicalAct.from_mapping(dict(bet.payoffs))
    assert same == bet and hash(same) == hash(bet)
    assert ClassicalAct.bet(["a"], ["a"], "w", "w").payoffs == (("a", "w"),)
    assert ClassicalAct.from_mapping({}).payoffs == ()


def test_classical_act_constructor_checks_the_sparse_form():
    states = ("s0", "s1", "s2")
    act = ClassicalAct(states, "lose", (("s0", "win"), ("s2", "win")))
    assert act == ClassicalAct.bet(states, ["s2", "s0"], "win", "lose")
    for bad_states, entries in (
            (("s1", "s0"), ()),                          # unsorted states
            (("s0", "s0", "s1"), ()),                    # repeated state
            (states, (("s2", "win"), ("s0", "win"))),    # unsorted entries
            (states, (("s0", "win"), ("s0", "win"))),    # repeated entry
            (states, (("s9", "win"),)),                  # not a state
            (states, (("s1", "lose"),))):                # the default
        with pytest.raises(ValueError):
            ClassicalAct(bad_states, "lose", entries)


# -- sparse bets against the dense fold --------------------------------------

class DenseFoldOracle(ActOracle):
    """Expected utility folded over every state in order, zero terms
    included: the sum the sparse oracle must reproduce bit for bit."""

    def __init__(self, measure, utility):
        self.measure, self.utility = dict(measure), dict(utility)
        self.asked = []

    def eu(self, f):
        total = 0.0
        for s, x in f.payoffs:
            if x not in self.utility:
                raise MissingUtility(f"no utility for payoff {x!r}")
            total += self.measure.get(s, 0.0) * self.utility[x]
        return total

    def compare(self, f, g):
        d = self.eu(f) - self.eu(g)
        self.asked.append((f.payoffs, g.payoffs, d))
        if abs(d) <= PROB_TOL:
            return Comparison.TIE
        return Comparison.BETTER if d > 0 else Comparison.WORSE


class RecordingOracle(PlantedMeasureOracle):
    def __init__(self, measure, utility):
        super().__init__(measure, utility)
        self.asked = []

    def compare(self, f, g):
        self.asked.append((f.payoffs, g.payoffs, self._eu(f) - self._eu(g)))
        return super().compare(f, g)


def _skewed_cells(n_cells, per_cell, seed):
    """Cells of equal mass whose states carry unequal, random masses."""
    rng = np.random.default_rng(seed)
    states, cells, measure = [], [], {}
    for i in range(n_cells):
        cell = [f"c{i}s{j}" for j in range(per_cell)]
        for s, share in zip(cell, rng.dirichlet(np.ones(per_cell))):
            measure[s] = float(share) / n_cells
        states += cell
        cells.append(cell)
    return states, cells, measure


@pytest.mark.parametrize("utility", [{"win": 1.0, "lose": 0.0},
                                     {"win": 1.0, "lose": 0.25},
                                     {"win": 0.0, "lose": -0.0}])
def test_savage_matches_dense_fold_bit_for_bit(utility):
    for seed in range(4):
        states, cells, measure = _skewed_cells(9, 3, seed)
        rng = np.random.default_rng(seed + 100)
        event = [s for s in states if rng.uniform() < 0.3]
        sparse = RecordingOracle(measure, utility)
        dense = DenseFoldOracle(measure, utility)
        got = savage_probability(sparse, states, event, cells, "win", "lose")
        want = savage_probability(dense, states, event, cells, "win", "lose")
        assert got == want
        # the dense oracle scans the n(n-1)/2 cell pairs through compare;
        # the planted one decides them from each bet's value, so only
        # the union scan's questions remain, with the same EU gaps to
        # the last bit
        n_pairs = len(cells) * (len(cells) - 1) // 2
        assert [(f, g, repr(d)) for f, g, d in sparse.asked] == \
            [(f, g, repr(d)) for f, g, d in dense.asked[n_pairs:]]
        assert sparse.asked
        probes = [ClassicalAct.bet(states, c, "win", "lose") for c in cells]
        for act in (*probes,
                    ClassicalAct.bet(states, event, "win", "lose"),
                    ClassicalAct.bet(states, states, "win", "lose"),
                    ClassicalAct.bet(states, (), "win", "lose"),
                    ClassicalAct.from_mapping(
                        {s: ("win", "lose")[int(rng.integers(2))]
                         for s in states})):
            assert repr(sparse._eu(act)) == repr(dense.eu(act))


def test_savage_non_zero_default_still_rejects_skewed_cells():
    states = [f"s{i}" for i in range(4)]
    measure = {"s0": 0.7, "s1": 0.1, "s2": 0.1, "s3": 0.1}
    oracle = PlantedMeasureOracle(measure, {"win": 1.0, "lose": 0.25})
    with pytest.raises(NotEquipartition):
        savage_probability(oracle, states, ["s0"], [[s] for s in states],
                           "win", "lose")


def test_missing_utility_on_the_default_payoff():
    states = ["s0", "s1", "s2"]
    oracle = PlantedMeasureOracle({s: 1 / 3 for s in states}, {"win": 1.0})
    with pytest.raises(MissingUtility, match="'lose'"):
        oracle.compare(ClassicalAct.bet(states, ["s0"], "win", "lose"),
                       ClassicalAct.bet(states, ["s1"], "win", "lose"))
    with pytest.raises(MissingUtility, match="'lose'"):
        savage_probability(oracle, states, ["s0"], [[s] for s in states],
                           "win", "lose")
    # a bet on every state never pays the default, as in the dense map
    full = ClassicalAct.bet(states, states, "win", "lose")
    assert oracle.compare(full, full) is Comparison.TIE


def test_planted_measure_must_be_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(WeightSumError):
            PlantedMeasureOracle({"s0": bad, "s1": 0.5}, {"win": 1.0})


# -- the one-pass equipartition decision -------------------------------------

class ScanningOracle(PlantedMeasureOracle):
    """The planted order with the default pair scan for equipartition."""
    untied_pair = ActOracle.untied_pair


def _outcome(oracle, states, cells, event=()):
    """The bracket savage_probability gives, or the error it raises."""
    try:
        return savage_probability(oracle, states, event, cells, "win", "lose")
    except (NotEquipartition, MissingUtility) as exc:
        return type(exc).__name__, str(exc)


class TallyingOracle(PlantedMeasureOracle):
    compares = 0

    def compare(self, f, g):
        self.compares += 1
        return super().compare(f, g)


def _same_as_scan(measure, utility, states, cells):
    """The one-pass answer, checked against the pair scan's; a tie is
    decided without a single compare."""
    one_pass = TallyingOracle(measure, utility)
    scan = ScanningOracle(measure, utility)
    probes = [ClassicalAct.bet(states, c, "win", "lose") for c in cells]
    got = one_pass.untied_pair(probes)
    assert got == scan.untied_pair(probes)
    assert got is not None or one_pass.compares == 0
    assert _outcome(one_pass, states, cells, states[:1]) == \
        _outcome(scan, states, cells, states[:1])
    return got


def test_one_pass_equipartition_matches_the_pair_scan():
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed + 500)
        states, cells, measure = _skewed_cells(int(rng.integers(2, 12)),
                                               int(rng.integers(1, 4)), seed)
        # skew some cells by amounts on both sides of the tie band
        for cell in cells:
            if rng.uniform() < 0.3:
                scale = float(rng.choice([1e-14, 4e-13, 1e-12, 3e-12, 1e-3]))
                measure[cell[0]] += scale * float(rng.uniform(-1.0, 1.0))
        total = sum(measure.values())
        measure = {s: v / total for s, v in measure.items()}
        utility = ({"win": 1.0, "lose": 0.0}, {"win": 1.0, "lose": 0.25},
                   {"win": -2.0, "lose": 3.0})[seed % 3]
        seen.add(_same_as_scan(measure, utility, states, cells) is None)
    assert seen == {True, False}


def test_one_pass_equipartition_edge_cases():
    states = ["s0", "s1", "s2"]
    cells = [["s0"], ["s1"], ["s2"]]
    measure = {"s0": 0.3, "s1": 0.3, "s2": 0.4}
    unit = {"win": 1.0, "lose": 0.0}
    # bets worth exactly PROB_TOL, PROB_TOL and 2 * PROB_TOL: a range
    # exactly at the band ties; one ulp over it does not
    quarters = {"s0": 0.25, "s1": 0.25, "s2": 0.5}
    edge = 4 * PROB_TOL
    assert _same_as_scan(quarters, {"win": edge, "lose": 0.0}, states,
                         cells) is None
    assert _same_as_scan(quarters,
                         {"win": math.nextafter(edge, math.inf),
                          "lose": 0.0}, states, cells) == (0, 2)
    # non-finite values: the scan decides (inf - inf is nan, no tie)
    for bad in (math.inf, -math.inf, math.nan):
        for utility in ({"win": bad, "lose": 0.0}, {"win": 1.0, "lose": bad}):
            assert _same_as_scan(measure, utility, states, cells) == (0, 1)
            assert _same_as_scan({"s0": 0.5, "s1": 0.0, "s2": 0.5}, utility,
                                 states, cells) == (0, 1)
    # a nan among finite values, where max and min would skip it
    assert _same_as_scan(measure, {"win": math.nan, "lose": 0.0}, states,
                         [[], [], states]) == (0, 2)
    # one cell: no pairs
    assert _same_as_scan(measure, unit, states, [states]) is None
    # signed zeros all tie
    for utility in ({"win": 0.0, "lose": -0.0}, {"win": -0.0, "lose": 0.0},
                    {"win": -0.0, "lose": -0.0}):
        assert _same_as_scan(measure, utility, states, cells) is None
    # an error the scan never reaches: cells 0 and 1 pay an infinite
    # default everywhere and fail to tie before the bet on "win", which
    # has no utility, is valued
    inf_default = {"lose": math.inf}
    assert _same_as_scan(measure, inf_default, states,
                         [[], [], states]) == (0, 1)
    assert _outcome(PlantedMeasureOracle(measure, inf_default), states,
                    [[], [], states]) == (
        "NotEquipartition", "cells 0 and 1 are not ranked equally likely")


def test_savage_cells_asks_a_linear_number_of_compares(monkeypatch, capsys):
    from qdtbench import cli

    asked = []
    compare = PlantedMeasureOracle.compare

    def counting(self, f, g):
        asked.append(None)
        return compare(self, f, g)

    monkeypatch.setattr(PlantedMeasureOracle, "compare", counting)
    n = 2000
    assert cli.main(["savage", "--cells", str(n)]) == 0
    assert "RESULT pass" in capsys.readouterr().out
    assert 0 < len(asked) < 3 * n
