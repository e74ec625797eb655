"""Preference order, utility machinery, and the null-pair tests.

Derived numbers are frozen against hand computations noted inline, so a
regression in expected-utility bookkeeping cannot hide behind the same
code computing both sides.
"""

from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from qdtbench import audit, hilbert, preference
from qdtbench.audit import (LEMMAS, check_lemmas, discriminable_support,
                            find_counterexample, null_probe_catalog)
from qdtbench.comparison import Comparison
from qdtbench.errors import (InsufficientDimension, IntransitiveOracle,
                             MissingUtility, NonMonotoneOracle)
from qdtbench.forge import ActForge, identity_act
from qdtbench.hilbert import StateVector
from qdtbench.preference import (BornOracle, CountingOracle,
                                 DefinitionalNullTest, TableOracle,
                                 UtilityTable, born_compare, elicit_utility,
                                 expected_utility, is_null_pair,
                                 is_standard_act, make_standard_act,
                                 reduce_to_standard, reward_order,
                                 standard_weight)
from qdtbench.problem import smallest_event_ids

from conftest import load_fixture

TOL = 1e-9


def probe_state(p, mid):
    return StateVector(p.macrostate(mid).subspace.basis[:, 0])


# -- expected utility ---------------------------------------------------------

def test_expected_utility_frozen_value(std6):
    # weights (0.2, 0.5, 0.3) on utilities (0, 0.4, 1): EU = 0.5*0.4 + 0.3
    p, util = std6.problem, std6.utility
    psi = probe_state(p, "m0")
    act = ActForge(p).weighted_act(psi, {"r0": 0.2, "rA": 0.5, "r1": 0.3})
    assert expected_utility(p, psi, act, util) == pytest.approx(0.5, abs=TOL)


def test_expected_utility_of_identity_is_own_reward(std6):
    p, util = std6.problem, std6.utility
    psi = probe_state(p, "m2")
    act = identity_act(p.macrostate("m2").subspace)
    assert expected_utility(p, psi, act, util) == pytest.approx(0.4, abs=TOL)


def test_born_compare_follows_eu_sign(std6):
    p, util = std6.problem, std6.utility
    psi = probe_state(p, "m0")
    hi = ActForge(p).weighted_act(psi, {"r1": 1.0})
    lo = ActForge(p).weighted_act(psi, {"r0": 1.0})
    assert born_compare(p, psi, hi, lo, util) is Comparison.BETTER
    assert born_compare(p, psi, lo, hi, util) is Comparison.WORSE
    assert born_compare(p, psi, hi, hi, util) is Comparison.TIE


# -- utility table ------------------------------------------------------------

def test_utility_table_anchor_gauge(std6):
    p = std6.problem
    with pytest.raises(ValueError):
        UtilityTable({"r0": 0.1, "rA": 0.4, "r1": 1.0}, problem=p)
    with pytest.raises(ValueError):
        UtilityTable({"r0": 0.0, "rA": 0.4, "r1": 0.9}, problem=p)
    with pytest.raises(MissingUtility):
        UtilityTable({"r0": 0.0, "r1": 1.0}, problem=p).of("rA")


# -- oracles ------------------------------------------------------------------

def test_counting_oracle_prefers_more_branches(std6):
    p = std6.problem
    oracle = CountingOracle(p)
    psi = probe_state(p, "m4")
    split = ActForge(p).branching_act(psi, (0.5, 0.5))
    stay = identity_act(p.macrostate("m4").subspace)
    assert oracle.compare(psi, split, stay) is Comparison.BETTER


def test_table_oracle_planted_pair_and_flip(std6):
    p, util = std6.problem, std6.utility
    a = identity_act(p.macrostate("m0").subspace).with_label("A")
    b = identity_act(p.macrostate("m0").subspace).with_label("B")
    oracle = TableOracle({("A", "B"): Comparison.BETTER},
                         BornOracle(p, util))
    psi = probe_state(p, "m0")
    assert oracle.compare(psi, a, b) is Comparison.BETTER
    assert oracle.compare(psi, b, a) is Comparison.WORSE
    # unlisted pairs fall back to the expected-utility order
    c = ActForge(p).weighted_act(psi, {"r1": 1.0}).with_label("C")
    assert oracle.compare(psi, c, a) is Comparison.BETTER


# -- standard acts ------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.8, 1.0])
def test_standard_act_weight_round_trip(std6, alpha):
    p = std6.problem
    psi = probe_state(p, "m0")
    act = make_standard_act(p, psi, alpha)
    assert is_standard_act(p, psi, act)
    assert standard_weight(p, psi, act) == pytest.approx(alpha, abs=1e-12)


def test_reduce_to_standard_matches_eu(std6):
    p, util = std6.problem, std6.utility
    psi = probe_state(p, "m0")
    act = ActForge(p).weighted_act(psi, {"r0": 0.25, "rA": 0.25, "r1": 0.5})
    std = reduce_to_standard(p, psi, act, util)
    eu = expected_utility(p, psi, act, util)
    assert standard_weight(p, psi, std) == pytest.approx(eu, abs=TOL)
    cmpres = born_compare(p, psi, act, std, util)
    assert cmpres is Comparison.TIE


def test_reduce_to_standard_refuses_without_a_free_anchor_member(std6):
    # the forge has spent both members of the best reward r1, so the
    # standard block on the rA branch has nowhere to put its r1 weight
    p, util = std6.problem, std6.utility
    psi = probe_state(p, "m0")
    act = ActForge(p).weighted_act(psi, {"rA": 1.0})
    forge = ActForge(p)
    forge.reward_act("m0", "r1")
    forge.reward_act("m1", "r1")
    with pytest.raises(InsufficientDimension,
                       match="no member of reward 'r1'"):
        reduce_to_standard(p, psi, act, util, forge=forge)


# -- elicitation --------------------------------------------------------------

def test_elicit_recovers_planted_table(std8):
    p = std8.problem
    planted = std8.utility
    oracle = BornOracle(p, planted)
    res = elicit_utility(p, oracle, tol=1e-6)
    for rid in p.reward_ids:
        assert res.table.of(rid) == pytest.approx(planted.of(rid), abs=2e-6)
        assert res.steps[rid] <= 40


def test_elicit_is_probe_independent(std6):
    p, util = std6.problem, std6.utility
    oracle = BornOracle(p, util)
    t1 = elicit_utility(p, oracle, tol=1e-7, probe="m0").table
    t2 = elicit_utility(p, oracle, tol=1e-7, probe="m3").table
    for rid in p.reward_ids:
        assert t1.of(rid) == pytest.approx(t2.of(rid), abs=1e-6)


def test_reward_order_tiers(std6):
    p, util = std6.problem, std6.utility
    tiers = reward_order(p, BornOracle(p, util))
    assert tiers == [["r1"], ["rA"], ["r0"]]


class WeightOracle(preference.PreferenceOracle):
    """Answers from the first act's best-reward weight alone; elicitation
    always puts the standard act first."""

    def __init__(self, p, answer):
        self.p, self.answer = p, answer

    def compare(self, psi, u_act, v_act):
        return self.answer(standard_weight(self.p, psi, u_act))


def _tie_at_half(at_0, inside, at_1):
    """At weight 0, inside (0, 1) and at 1; a tie at exactly one half."""
    def answer(alpha):
        if abs(alpha - 0.5) <= TOL:
            return Comparison.TIE
        if alpha <= TOL:
            return at_0
        return at_1 if alpha >= 1 - TOL else inside
    return answer


@pytest.mark.parametrize("answer, message", [
    (lambda alpha: Comparison.BETTER,
     "zero-weight standard act beats reward 'rA'"),
    (lambda alpha: Comparison.WORSE,
     "full-weight standard act loses to reward 'rA'"),
    # bisection ties at 1/2 at once; the screen then probes 1/2 +- 10 tol
    (_tie_at_half(Comparison.WORSE, Comparison.WORSE, Comparison.BETTER),
     "oracle prefers reward 'rA' above the elicited indifference weight"),
    (_tie_at_half(Comparison.WORSE, Comparison.BETTER, Comparison.BETTER),
     "oracle disprefers reward 'rA' below the elicited indifference weight"),
], ids=["worst-anchor", "best-anchor", "screen-above", "screen-below"])
def test_elicit_refuses_a_non_monotone_oracle(std6, answer, message):
    p = std6.problem
    with pytest.raises(NonMonotoneOracle, match=message):
        elicit_utility(p, WeightOracle(p, answer))


class CycleOracle(preference.PreferenceOracle):
    """Ranks reward deliveries in a cycle: r0 over rA over r1 over r0."""

    cycle = ("r0", "rA", "r1")

    def __init__(self, p):
        self.p = p

    def compare(self, psi, u_act, v_act):
        a, b = (self.cycle.index(self.p.reward_of_macrostate(
            min(smallest_event_ids(self.p, act)))) for act in (u_act, v_act))
        return {0: Comparison.TIE, 1: Comparison.BETTER,
                2: Comparison.WORSE}[(b - a) % 3]


def test_reward_order_refuses_a_cycle(std6):
    p = std6.problem
    with pytest.raises(IntransitiveOracle, match="admit no total order"):
        reward_order(p, CycleOracle(p))


# -- null pairs ---------------------------------------------------------------

def test_null_criterion_on_disjoint_event(std6):
    p = std6.problem
    phi = probe_state(p, "m0")
    assert is_null_pair(p, p.event_of(["m4"]), phi)
    assert not is_null_pair(p, p.event_of(["m0"]), phi)
    assert is_null_pair(p, p.event_of([]), phi)


def test_null_definitional_agrees_on_single_support(std6):
    p, util = std6.problem, std6.utility
    oracle = BornOracle(p, util)
    phi = probe_state(p, "m0")
    catalog = null_probe_catalog(p, ("m0",))
    for ids in ((), ("m0",), ("m4",), ("m0", "m4")):
        event = p.event_of(list(ids))
        a = is_null_pair(p, event, phi)
        b = DefinitionalNullTest(phi, catalog, oracle).is_null(event)
        assert a == b, ids


def test_null_regression_support_covering_best_reward(std6):
    """Support {m1, m4, m5} exhausts the best reward's members, so the
    only discriminating reroute for m1 goes to the middle reward; the
    definitional test must still see that events touching m1 are not
    null."""
    p, util = std6.problem, std6.utility
    support = ("m1", "m4", "m5")
    assert discriminable_support(p, support, util)
    labels = {a.label for a in null_probe_catalog(p, support)}
    assert "null-probe:m1->rA" in labels

    oracle = BornOracle(p, util)
    vec = np.zeros(6, dtype=complex)
    vec[1] = vec[4] = vec[5] = np.sqrt(1 / 3)
    phi = StateVector(vec)
    catalog = null_probe_catalog(p, support)
    event = p.event_of(["m1"])
    assert not is_null_pair(p, event, phi)
    assert not DefinitionalNullTest(phi, catalog, oracle).is_null(event)


@pytest.mark.parametrize("ids", [("m4",), ("m0",), ()])
def test_definitional_null_test_meets_once(std6, ids, monkeypatch):
    # every probe act shares one domain object, so the part of the
    # domain outside the event is computed once, not once per pair
    p = std6.problem
    calls = []
    real_meet = preference.meet

    def counted_meet(e, f):
        calls.append(f)
        return real_meet(e, f)

    monkeypatch.setattr(preference, "meet", counted_meet)
    catalog = null_probe_catalog(p, ("m0",))
    assert len(catalog) > 2
    DefinitionalNullTest(probe_state(p, "m0"), catalog,
                         BornOracle(p, std6.utility)).is_null(
        p.event_of(list(ids)))
    assert len(calls) <= 1


def test_nullity_takes_each_complement_once(std8, monkeypatch):
    # complements are kept per Subspace object, so however often the
    # definitional test asks, each input's complement is computed once
    p, util = std8.problem, std8.utility
    computed, asked = [], []
    real_complement, real_compute = hilbert.complement, hilbert._complement

    def counted_complement(e):
        asked.append(e)
        return real_complement(e)

    monkeypatch.setattr(hilbert, "complement", counted_complement)
    monkeypatch.setattr(preference, "complement", counted_complement)
    monkeypatch.setattr(hilbert, "_complement",
                        lambda e: computed.append(e) or real_compute(e))
    report = check_lemmas(p, BornOracle(p, util), util, samples=100, seed=0)
    assert report.results[LEMMAS.index("Nullity")].status == "pass"
    assert len({id(e) for e in computed}) == len(computed)
    assert 2 * len(computed) < len(asked)


# -- kept oracle values ------------------------------------------------------

def test_born_oracle_values_each_act_once_per_state(std8, monkeypatch):
    p, util = std8.problem, std8.utility
    evaluated = Counter()
    real = preference.expected_utility

    def counted(p_, psi, act, utility):
        evaluated[id(act)] += 1
        return real(p_, psi, act, utility)

    monkeypatch.setattr(preference, "expected_utility", counted)
    oracle = BornOracle(p, util)
    rng = np.random.default_rng(3)
    for mac in p.macrostates:
        psi, acts = audit.macrostate_probe_acts(p, mac, rng)
        evaluated.clear()
        for u, v in permutations(acts, 2):
            oracle.compare(psi, u, v)
        assert evaluated == Counter({id(a): 1 for a in acts}), mac.id


def test_counting_oracle_counts_each_act_once_per_state(std6, monkeypatch):
    p = std6.problem
    decomposed = []
    real = preference.branch_decomposition
    monkeypatch.setattr(preference, "branch_decomposition",
                        lambda p_, phi: decomposed.append(phi)
                        or real(p_, phi))
    oracle = CountingOracle(p)
    psi, acts = audit.macrostate_probe_acts(p, p.macrostates[0])
    for u, v in permutations(acts, 2):
        oracle.compare(psi, u, v)
    assert len(decomposed) == len(acts)


def test_oracle_keeps_values_for_one_state_only(std6, monkeypatch):
    p, util = std6.problem, std6.utility
    evaluated = []
    real = preference.expected_utility
    monkeypatch.setattr(preference, "expected_utility",
                        lambda p_, psi, act, u: evaluated.append(act)
                        or real(p_, psi, act, u))
    oracle = BornOracle(p, util)
    psi1, acts1 = audit.macrostate_probe_acts(p, p.macrostate("m0"))
    psi2, acts2 = audit.macrostate_probe_acts(p, p.macrostate("m2"))

    def kept_acts():
        return {id(a) for a, _ in oracle._eu._entries.values()}

    for psi, acts in ((psi1, acts1), (psi2, acts2), (psi1, acts1)):
        evaluated.clear()
        for u, v in permutations(acts, 2):
            oracle.compare(psi, u, v)
        assert len(evaluated) == len(acts)
        assert kept_acts() == {id(a) for a in acts}
    # an equal state in a new object is a new state
    evaluated.clear()
    oracle.compare(StateVector(psi1.vec), acts1[0], acts1[1])
    assert len(evaluated) == 2 and len(oracle._eu._entries) == 2


@pytest.mark.parametrize("kind", ["born", "counting", "table"])
@pytest.mark.parametrize("name", ["std6", "std8", "overlap2"])
def test_kept_values_answer_as_a_fresh_oracle(name, kind):
    inst = load_fixture(name)
    p = inst.problem

    def fresh():
        if kind == "table":
            # a planted pair on the menu's labels, the rest by fallback
            return TableOracle({("deliver:r0", "deliver:r1"):
                                Comparison.BETTER}, inst.oracle("born"))
        return inst.oracle(kind)

    rng = np.random.default_rng(5)
    questions = []
    for mac in p.macrostates:
        psi, acts = audit.macrostate_probe_acts(p, mac, rng)
        questions += [(psi, u, v) for u, v in permutations(acts, 2)]
    # one menu on a two-macrostate event, asked at several states of it
    support = p.macrostate_ids[:2]
    acts = null_probe_catalog(p, support)
    for _ in range(4):
        phi = audit.random_state_in(p.event_of(support), rng)
        questions += [(phi, u, v) for u, v in permutations(acts, 2)]
    # interleave the states, so kept values are dropped and taken again
    order = rng.permutation(len(questions))
    kept = fresh()
    for i in list(range(len(questions))) + list(order):
        psi, u, v = questions[i]
        assert kept.compare(psi, u, v) is fresh().compare(psi, u, v)


class _RecordingOracle(BornOracle):
    """The Born order, counting each (state, act, act) question; an act
    is keyed by identity and operator, so a reused id is a new act."""

    def __init__(self, p, util):
        super().__init__(p, util)
        self.asked = Counter()

    def compare(self, psi, u, v):
        self.asked[(psi.vec.tobytes(), id(u), u.as_operator().tobytes(),
                    id(v), v.as_operator().tobytes())] += 1
        return super().compare(psi, u, v)


def test_nullity_asks_each_state_pair_once(std8, monkeypatch):
    # the definitional test runs at each state for up to 64 events; an
    # act pair's answer at a state is asked for once and kept
    p, util = std8.problem, std8.utility
    oracle = _RecordingOracle(p, util)
    probes = []
    real_catalog = audit.null_probe_catalog

    def recorded_catalog(*args):
        acts = real_catalog(*args)
        probes.extend(a.as_operator().tobytes() for a in acts)
        return acts

    monkeypatch.setattr(audit, "null_probe_catalog", recorded_catalog)
    report = check_lemmas(p, oracle, util, samples=100, seed=0)
    assert report.results[LEMMAS.index("Nullity")].status == "pass"
    asked = {key: n for key, n in oracle.asked.items()
             if key[2] in probes and key[4] in probes}
    assert asked and max(asked.values()) == 1


def test_solcont_asks_each_probe_pair_once(std6):
    p, util = std6.problem, std6.utility
    oracle = _RecordingOracle(p, util)
    assert find_counterexample(p, oracle, "SolCont", seed=0).witnesses == []
    assert oracle.asked and max(oracle.asked.values()) == 1


def test_definitional_null_test_matches_per_event_calls(std6):
    p, util = std6.problem, std6.utility
    oracle = BornOracle(p, util)
    phi = StateVector(np.full(6, 1 / np.sqrt(6), dtype=complex))
    catalog = null_probe_catalog(p, ("m0", "m4"))
    test = DefinitionalNullTest(phi, catalog, oracle)
    for ids in ((), ("m0",), ("m4",), ("m1",), ("m0", "m4"), ("m0",)):
        event = p.event_of(list(ids))
        assert test.is_null(event) == DefinitionalNullTest(
            phi, catalog, oracle).is_null(event), ids


def test_event_of_is_cached_by_id_tuple(std6):
    p = std6.problem
    assert p.event_of(["m0", "m4"]) is p.event_of(("m0", "m4"))
    assert p.event_of([]) is p.event_of(())


def test_support_without_discriminating_probe_is_detected(min2):
    # the full min2 support leaves no free member of a different reward
    p, util = min2.problem, min2.utility
    assert discriminable_support(p, ("m0",), util)
    assert not discriminable_support(p, ("m0", "m1"), util)


def test_comparison_flip():
    assert Comparison.BETTER.flipped() is Comparison.WORSE
    assert Comparison.TIE.flipped() is Comparison.TIE
