"""Decision-problem container, validation, and branch decompositions."""

import numpy as np
import pytest

from qdtbench.errors import TooManyMacrostates
from qdtbench.forge import identity_act
from qdtbench.hilbert import StateVector, Subspace
from qdtbench.instances import haar_unitary
from qdtbench.problem import (Macrostate, QuantumDecisionProblem, Reward,
                              born_weights, branch_decomposition,
                              event_lattice, smallest_event_ids,
                              validate_problem)


def axis_mac(mid: str, dim: int, col: int) -> Macrostate:
    eye = np.eye(dim, dtype=complex)
    return Macrostate(id=mid, subspace=Subspace(eye[:, [col]]))


def tiny_problem(orthmacr: bool = True) -> QuantumDecisionProblem:
    macs = (axis_mac("m0", 2, 0), axis_mac("m1", 2, 1))
    rewards = (
        Reward(id="r0", members=("m0",), erasure="m0", is_r0=True, is_r1=False),
        Reward(id="r1", members=("m1",), erasure="m1", is_r0=False, is_r1=True),
    )
    return QuantumDecisionProblem(dim=2, macrostates=macs, rewards=rewards,
                                  orthmacr=orthmacr)


# -- validation ---------------------------------------------------------------

def test_valid_minimal_problem(min2):
    report = validate_problem(min2.problem)
    assert report.ok
    assert not report.violations


def test_missing_best_reward_flag_is_reported():
    macs = (axis_mac("m0", 2, 0), axis_mac("m1", 2, 1))
    rewards = (
        Reward(id="r0", members=("m0",), erasure="m0", is_r0=True, is_r1=False),
        Reward(id="rx", members=("m1",), erasure="m1", is_r0=False, is_r1=False),
    )
    p = QuantumDecisionProblem(dim=2, macrostates=macs, rewards=rewards)
    report = validate_problem(p)
    assert not report.ok
    assert any("best reward" in v.message for v in report.violations)


def test_overlapping_macrostates_flagged_only_under_orthogonality(overlap2):
    p = overlap2.problem
    assert not p.orthmacr
    assert validate_problem(p).ok
    strict = QuantumDecisionProblem(dim=p.dim, macrostates=p.macrostates,
                                    rewards=p.rewards, orthmacr=True)
    report = validate_problem(strict)
    assert not report.ok
    assert any(v.kind == "orthogonality" for v in report.violations)


def test_macrostate_claimed_by_two_rewards_is_reported():
    macs = (axis_mac("m0", 2, 0), axis_mac("m1", 2, 1))
    rewards = (
        Reward(id="r0", members=("m0", "m1"), erasure="m0",
               is_r0=True, is_r1=False),
        Reward(id="r1", members=("m1",), erasure="m1",
               is_r0=False, is_r1=True),
    )
    p = QuantumDecisionProblem(dim=2, macrostates=macs, rewards=rewards)
    assert not validate_problem(p).ok


def tiny_variant(**changes) -> QuantumDecisionProblem:
    p = tiny_problem()
    fields = {"dim": p.dim, "macrostates": p.macrostates,
              "rewards": p.rewards}
    return QuantumDecisionProblem(**{**fields, **changes})


# the loader refuses each of these documents before it validates, so only
# a problem built in code reaches these kinds
@pytest.mark.parametrize("kind, changes", [
    ("dim", {"dim": 0}),
    ("macrostate-ambient", {"dim": 3}),
    ("macrostate-zero", {
        "macrostates": tiny_problem().macrostates + (
            Macrostate(id="mz", subspace=Subspace.zero(2)),),
        "rewards": (Reward(id="r0", members=("m0", "mz"), erasure="m0",
                           is_r0=True),) + tiny_problem().rewards[1:]}),
    ("act-ambient", {"act_generators": (identity_act(Subspace.full(3)),)}),
])
def test_library_only_violation_kind_is_reported(kind, changes):
    report = validate_problem(tiny_variant(**changes))
    assert {v.kind for v in report.violations} == {kind}


# -- events -------------------------------------------------------------------

def test_event_of_empty_set_is_zero(std6):
    assert std6.problem.event_of([]).dim == 0


def test_event_lattice_size_and_guard(std6):
    lat = event_lattice(std6.problem)
    assert len(lat) == 2 ** 6
    assert lat[frozenset()].dim == 0
    assert lat[frozenset(std6.problem.macrostate_ids)].dim == 6

    wide = QuantumDecisionProblem(
        dim=17,
        macrostates=tuple(axis_mac(f"m{i}", 17, i) for i in range(17)),
        rewards=(
            Reward(id="r0", members=tuple(f"m{i}" for i in range(8)),
                   erasure="m0", is_r0=True, is_r1=False),
            Reward(id="r1", members=tuple(f"m{i}" for i in range(8, 17)),
                   erasure="m8", is_r0=False, is_r1=True),
        ))
    with pytest.raises(TooManyMacrostates):
        event_lattice(wide)


# -- decompositions -----------------------------------------------------------

def test_branch_decomposition_reconstructs_state(std6):
    p = std6.problem
    vec = np.zeros(6, dtype=complex)
    vec[0] = np.sqrt(0.5)
    vec[4] = np.sqrt(0.5)
    psi = StateVector(vec)
    branches = branch_decomposition(p, psi)
    ids = [mid for mid, _ in branches]
    assert set(ids) == {"m0", "m4"}
    total = sum(comp.vec for _, comp in branches)
    assert np.allclose(total, vec, atol=1e-9)
    for _, comp in branches:
        assert comp.norm == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_born_weights_sum_to_one_on_units(std6):
    p = std6.problem
    rng = np.random.default_rng(3)
    raw = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi = StateVector(raw / np.linalg.norm(raw))
    w = born_weights(p, psi)
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= -1e-12 for v in w.values())


def test_born_weights_frozen_half_half(std6):
    # m0 sits in the worst reward, m4 in the best; rA gets nothing
    vec = np.zeros(6, dtype=complex)
    vec[0] = np.sqrt(0.5)
    vec[4] = np.sqrt(0.5)
    w = born_weights(std6.problem, StateVector(vec))
    assert w["r0"] == pytest.approx(0.5, abs=1e-9)
    assert w["r1"] == pytest.approx(0.5, abs=1e-9)
    assert w["rA"] == pytest.approx(0.0, abs=1e-12)


# -- smallest events ----------------------------------------------------------

def test_smallest_event_of_identity_is_own_macrostate(std6):
    from qdtbench.forge import identity_act
    p = std6.problem
    act = identity_act(p.macrostate("m2").subspace)
    assert smallest_event_ids(p, act) == frozenset({"m2"})


def test_smallest_event_of_delivery_is_target(std6):
    from qdtbench.forge import ActForge
    p = std6.problem
    act = ActForge(p).reward_act("m0", "r1")
    ids = smallest_event_ids(p, act)
    assert ids <= {"m4", "m5"}
    assert len(ids) == 1


def test_tiny_problem_roundtrip_helpers():
    p = tiny_problem()
    assert p.reward_of_macrostate("m0") == "r0"
    assert p.r0_id == "r0" and p.r1_id == "r1"
    assert set(p.macrostate_ids) == {"m0", "m1"}


@pytest.mark.parametrize("dim", range(1, 9))
def test_haar_unitary_matches_scipy_unitary_group_bit_for_bit(dim):
    scipy_stats = pytest.importorskip("scipy.stats")
    for seed in range(40):
        mine = np.random.default_rng([seed, 424242])
        theirs = np.random.default_rng([seed, 424242])
        got = haar_unitary(dim, mine)
        ref = scipy_stats.unitary_group.rvs(dim, random_state=theirs)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state
