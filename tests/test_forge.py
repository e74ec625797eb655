"""Act construction postconditions.

Each forged act is checked against independent linear algebra: the
construction promises a postcondition (image location, amplitudes,
agreement) and the test recomputes it from the matrix alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtbench.errors import (CannotOrthogonalize, DomainMismatch,
                             InsufficientDimension, NormMismatch, NotSubevent,
                             WeightSumError)
from qdtbench.forge import ActForge, compose_acts, identity_act, restrict_act
from qdtbench.hilbert import StateVector, acts_agree_on, project
from qdtbench.problem import born_weights

from conftest import load_fixture

TOL = 1e-9


def image_of(p, act, psi):
    return act.apply(psi)


# -- reward delivery ----------------------------------------------------------

def test_reward_act_lands_inside_target_member(std6):
    p = std6.problem
    act = ActForge(p).reward_act("m0", "rA")
    psi = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    out = act.apply(psi)
    w = born_weights(p, out)
    assert w["rA"] == pytest.approx(1.0, abs=TOL)
    assert out.norm == pytest.approx(1.0, abs=TOL)


def test_reward_act_respects_explicit_target(std6):
    p = std6.problem
    act = ActForge(p).reward_act("m0", "r1", target="m5")
    psi = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    out = act.apply(psi)
    onto = project(p.macrostate("m5").subspace, out)
    assert onto.norm == pytest.approx(1.0, abs=TOL)


def test_reward_act_rejects_foreign_target(std6):
    with pytest.raises(NotSubevent):
        ActForge(std6.problem).reward_act("m0", "r1", target="m2")


def test_forge_capacity_is_finite(std6):
    p = std6.problem
    forge = ActForge(p)
    # each member of rA is one-dimensional; two deliveries use them up
    forge.reward_act("m0", "rA")
    forge.reward_act("m1", "rA")
    with pytest.raises(InsufficientDimension):
        forge.reward_act("m4", "rA")


# -- branching ----------------------------------------------------------------

def test_branching_amplitudes_quarter_three_quarters(std6):
    """Oracle value: squared amplitudes must match (0.25, 0.75) exactly."""
    p = std6.problem
    psi = StateVector(p.macrostate("m4").subspace.basis[:, 0])
    act = ActForge(p).branching_act(psi, (0.25, 0.75))
    out = act.apply(psi)
    w = born_weights(p, out)
    assert w["r1"] == pytest.approx(1.0, abs=TOL)
    mags = sorted(
        float(project(p.macrostate(m).subspace, out).norm ** 2)
        for m in ("m4", "m5"))
    assert mags[0] == pytest.approx(0.25, abs=TOL)
    assert mags[1] == pytest.approx(0.75, abs=TOL)


def test_branching_must_stay_in_own_reward(std6):
    p = std6.problem
    psi = StateVector(p.macrostate("m4").subspace.basis[:, 0])
    with pytest.raises(NotSubevent):
        ActForge(p).branching_act(psi, (0.5, 0.5), targets=("m4", "m0"))


def test_branching_on_overlapping_members_is_a_typed_failure(overlap2):
    # m2 and m3 overlap, so fresh directions cannot be made orthogonal
    p = overlap2.problem
    psi = StateVector(p.macrostate("m2").subspace.basis[:, 0])
    with pytest.raises((CannotOrthogonalize, InsufficientDimension)):
        ActForge(p).branching_act(psi, (0.5, 0.5), targets=("m2", "m3"))


# -- weighted acts ------------------------------------------------------------

def test_weighted_act_hits_requested_reward_weights(std6):
    p = std6.problem
    psi = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    want = {"r0": 0.2, "rA": 0.5, "r1": 0.3}
    act = ActForge(p).weighted_act(psi, want)
    got = born_weights(p, act.apply(psi))
    for rid, w in want.items():
        assert got[rid] == pytest.approx(w, abs=TOL)


def test_weighted_act_refuses_a_nan_weight(std6):
    p = std6.problem
    psi = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    with pytest.raises(WeightSumError, match="sum to nan"):
        ActForge(p).weighted_act(psi, {"r0": np.nan, "r1": 1.0})


# -- erasure ------------------------------------------------------------------

def test_erasure_pair_merges_states(std6):
    p = std6.problem
    psi1 = StateVector(p.macrostate("m4").subspace.basis[:, 0])
    psi2 = StateVector(p.macrostate("m5").subspace.basis[:, 0])
    e1, e2 = ActForge(p).erasure_pair(psi1, psi2)
    out1 = e1.apply(psi1)
    out2 = e2.apply(psi2)
    assert np.allclose(out1.vec, out2.vec, atol=TOL)
    w = born_weights(p, out1)
    assert w["r1"] == pytest.approx(1.0, abs=TOL)


def test_erasure_rejects_norm_gap():
    p = load_fixture("std6").problem
    psi1 = StateVector(p.macrostate("m4").subspace.basis[:, 0])
    psi2 = StateVector(0.9 * p.macrostate("m5").subspace.basis[:, 0])
    with pytest.raises(NormMismatch):
        ActForge(p).erasure_pair(psi1, psi2)


def test_erasure_rejects_cross_reward_pairs(std6):
    p = std6.problem
    psi1 = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    psi2 = StateVector(p.macrostate("m4").subspace.basis[:, 0])
    with pytest.raises(DomainMismatch):
        ActForge(p).erasure_pair(psi1, psi2)


# -- combination --------------------------------------------------------------

def test_compat_combine_restricts_to_blocks(std6):
    p = std6.problem
    forge = ActForge(p)
    blocks = [forge.reward_act("m0", "r0"),
              forge.reward_act("m2", "rA"),
              forge.reward_act("m4", "r1")]
    combined = forge.compat_combine(blocks)
    for mac_id, block in zip(("m0", "m2", "m4"), combined.blocks):
        sub = p.macrostate(mac_id).subspace
        assert acts_agree_on(combined.act, block, sub)


def test_compat_combine_retargets_shared_images(std6):
    # both blocks initially deliver into the same reward member; the
    # combined act must keep reward weights while separating images
    p = std6.problem
    f1, f2 = ActForge(p), ActForge(p)
    b1 = f1.reward_act("m0", "r1", target="m4")
    b2 = f2.reward_act("m1", "r1", target="m4")
    combined = ActForge(p).compat_combine([b1, b2])
    psi0 = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    psi1 = StateVector(p.macrostate("m1").subspace.basis[:, 0])
    w0 = born_weights(p, combined.act.apply(psi0))
    w1 = born_weights(p, combined.act.apply(psi1))
    assert w0["r1"] == pytest.approx(1.0, abs=TOL)
    assert w1["r1"] == pytest.approx(1.0, abs=TOL)
    from qdtbench.problem import smallest_event_ids
    ids0 = smallest_event_ids(p, combined.blocks[0])
    ids1 = smallest_event_ids(p, combined.blocks[1])
    assert not (ids0 & ids1)


def test_compat_combine_requires_orthogonal_domains(overlap2):
    p = overlap2.problem
    blocks = [identity_act(p.macrostate("m1").subspace),
              identity_act(p.macrostate("m3").subspace)]
    with pytest.raises(DomainMismatch):
        ActForge(p).compat_combine(blocks)


# -- restriction and composition ----------------------------------------------

def test_restrict_act_agrees_on_subdomain(std6):
    p = std6.problem
    # restriction of a two-macrostate identity to one macrostate
    whole = identity_act(p.event_of(["m0", "m1"]))
    part = restrict_act(whole, p.macrostate("m0").subspace)
    assert acts_agree_on(whole, part, p.macrostate("m0").subspace)


def test_compose_acts_is_matrix_composition(std6):
    p = std6.problem
    u = ActForge(p).reward_act("m0", "rA", target="m2")
    v = ActForge(p).branching_act(
        StateVector(p.macrostate("m2").subspace.basis[:, 0]), (0.5, 0.5))
    vu = compose_acts(p, v, u)
    psi = StateVector(p.macrostate("m0").subspace.basis[:, 0])
    direct = v.apply(u.apply(psi))
    assert np.allclose(vu.apply(psi).vec, direct.vec, atol=TOL)


# -- isometry invariant -------------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_forged_acts_are_isometries(seed, nrewards):
    p = load_fixture("std8").problem
    rng = np.random.default_rng(seed)
    mid = str(rng.choice(list(p.macrostate_ids)))
    psi = StateVector(p.macrostate(mid).subspace.basis[:, 0])
    rids = list(p.reward_ids)[:nrewards]
    raw = rng.uniform(0.1, 1.0, size=len(rids))
    weights = dict(zip(rids, raw / raw.sum()))
    try:
        act = ActForge(p).weighted_act(psi, weights)
    except InsufficientDimension:
        return
    g = act.matrix.conj().T @ act.matrix
    assert np.allclose(g, np.eye(act.matrix.shape[1]), atol=TOL)
