"""Act construction postconditions.

Each forged act is checked against independent linear algebra: the
construction promises a postcondition (image location, amplitudes,
agreement) and the test recomputes it from the matrix alone.
"""

import ast
from pathlib import Path

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


def test_branching_weights_follow_the_members_in_id_order(std8):
    # psi sits in m7, yet the first weight goes to m6: the i-th weight
    # lands on the i-th lowest-id member of psi's reward r1 = {m6, m7}
    p = std8.problem
    psi = StateVector(p.macrostate("m7").subspace.basis[:, 0])
    out = ActForge(p).branching_act(psi, (0.2, 0.8)).apply(psi)
    got = [float(project(p.macrostate(m).subspace, out).norm ** 2)
           for m in ("m6", "m7")]
    assert got == pytest.approx([0.2, 0.8], abs=TOL)


def test_branching_on_overlapping_members_is_a_typed_failure(overlap2):
    # the picks are m2 and m3, which overlap, so fresh directions cannot
    # be made orthogonal
    p = overlap2.problem
    psi = StateVector(p.macrostate("m2").subspace.basis[:, 0])
    with pytest.raises((CannotOrthogonalize, InsufficientDimension)):
        ActForge(p).branching_act(psi, (0.5, 0.5))


# -- placement rule -----------------------------------------------------------

def test_pick_member_takes_the_lowest_id_member(std6):
    p = std6.problem
    assert ActForge(p).pick_member(p.reward("r1"), 1) == "m4"


def test_pick_member_skips_excluded_members(std6):
    p = std6.problem
    forge = ActForge(p)
    assert forge.pick_member(p.reward("r1"), 1, exclude={"m4"}) == "m5"
    with pytest.raises(InsufficientDimension):
        forge.pick_member(p.reward("r1"), 1, exclude=("m4", "m5"))


def test_pick_member_needs_room(std6):
    p = std6.problem
    forge = ActForge(p)
    forge.reward_act("m0", "r1")  # uses m4's one direction
    assert forge.pick_member(p.reward("r1"), 1) == "m5"
    with pytest.raises(InsufficientDimension,
                       match="^no member of reward 'r1' has 2 fresh "
                             r"direction\(s\) available$"):
        forge.pick_member(p.reward("r1"), 2)


def test_clone_copies_the_cursors(std6):
    p = std6.problem
    forge = ActForge(p)
    forge.reward_act("m0", "r1")
    twin = forge.clone()
    assert twin.spare("m4") == 0
    twin.reward_act("m1", "r1")
    assert (forge.spare("m5"), twin.spare("m5")) == (1, 0)


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


# -- encapsulation ------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "qdtbench"


def _forge_privates() -> set[str]:
    """Private method and attribute names of ActForge, read from forge.py."""
    tree = ast.parse((SRC / "forge.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ActForge")
    names = {node.name for node in cls.body
             if isinstance(node, ast.FunctionDef)}
    names |= {node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_only_forge_touches_forge_internals():
    # placement and cursor bookkeeping stay behind ActForge's public
    # methods (pick_member, spare, clone and the constructions)
    private = _forge_privates()
    assert {"_cursor", "_alloc", "_macrostate_of"} <= private
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "forge.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits += [f"{path.name}:{node.lineno}: {node.attr}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in private]
    assert not hits, hits
