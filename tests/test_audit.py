"""Availability and rationality audits on the bundled instances.

The matrix here is the heart of the workbench: the expected-utility
oracle must come out clean on every well-formed instance, the two rigged
oracles must fail on exactly the axioms they are rigged to break, and
the rigged instances must be caught by the searches aimed at them.
"""

import json

import numpy as np
import pytest

from qdtbench.audit import (PERTURBATION_RADII, RATIONALITY_AXIOMS,
                            SAME_NORMS_TOL, SEARCH_GAP, _decompositions,
                            audit_rationality, audit_richness,
                            born_theorem_report, check_lemmas,
                            find_counterexample, macrostate_probe_acts,
                            perturb_act, act_distance)
from qdtbench.forge import ActForge, restrict_act
from qdtbench.hilbert import (TOL_ORTH, PartialIsometryAct, StateVector,
                              Subspace, project)
from qdtbench.io import decode_matrix, decode_vector
from qdtbench.problem import born_weights, smallest_event_ids

from conftest import unitary_frame
from test_golden import case_dir


def failures(report):
    return [r.name for r in report.results if r.status == "fail"]


# -- richness -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["min2", "std6", "std8"])
def test_richness_clean_fixtures(name, request):
    inst = request.getfixturevalue(name)
    report = audit_richness(inst.problem, samples=80, seed=0)
    assert report.ok, failures(report)


def test_richness_catches_irreversible_merge(irrev6):
    report = audit_richness(irrev6.problem, samples=80, seed=0)
    assert failures(report) == ["Irrev"]
    witness = report.result("Irrev").witnesses[0]
    blob = json.dumps(witness)
    assert "m0" in blob and "m1" in blob


# -- rationality --------------------------------------------------------------

@pytest.mark.parametrize("name", ["min2", "std6", "std8"])
def test_born_oracle_is_rational(name, request):
    inst = request.getfixturevalue(name)
    report = audit_rationality(inst.problem, inst.oracle("born"),
                               samples=100, seed=0)
    assert report.ok, failures(report)


def test_counting_oracle_fails_branch_indifference(std6):
    report = audit_rationality(std6.problem, std6.oracle("counting"),
                               samples=100, seed=0)
    assert "BrIndif" in failures(report)
    witness = report.result("BrIndif").witnesses[0]
    assert witness  # replayable payload, not just a flag
    json.dumps(witness)


def test_counting_witness_is_replayable(std6):
    a = audit_rationality(std6.problem, std6.oracle("counting"),
                          samples=100, seed=5)
    b = audit_rationality(std6.problem, std6.oracle("counting"),
                          samples=100, seed=5)
    assert a.to_dict() == b.to_dict()


def test_counting_on_minimal_instance_still_fails(min2):
    # min2 admits no branchings with two or more target members, so the
    # counting oracle slips past BrIndif and is caught by the
    # perturbation probe instead
    report = audit_rationality(min2.problem, min2.oracle("counting"),
                               samples=100, seed=0)
    assert not report.ok
    assert "BrIndif" not in failures(report)
    assert "SolCont" in failures(report)


def test_planted_cycle_fails_ordering(std6):
    report = audit_rationality(std6.problem, std6.oracle("table"),
                               samples=100, seed=0)
    assert "Ord" in failures(report)
    w = report.result("Ord").witnesses[0]
    assert w["kind"] == "transitivity"
    # every reported cycle must run through the planted table entries
    assert set(w["cycle"]) & {"A", "B", "C"}


def test_cycle_detection_is_seed_independent(std6):
    for seed in (1, 2, 3):
        report = audit_rationality(std6.problem, std6.oracle("table"),
                                   samples=100, seed=seed)
        assert "Ord" in failures(report)


# -- lemma chain --------------------------------------------------------------

@pytest.mark.parametrize("name,seed", [("min2", 0), ("std6", 0), ("std6", 1),
                                       ("std8", 0), ("irrev6", 0)])
def test_lemmas_hold_on_orthogonal_fixtures(name, seed, request):
    inst = request.getfixturevalue(name)
    report = check_lemmas(inst.problem, inst.oracle("born"), inst.utility,
                          samples=120, seed=seed)
    assert report.ok, failures(report)


def test_lemmas_break_without_orthogonality(overlap2):
    # with overlapping macrostates the best reward's event spans the
    # whole space, so delivery anywhere ties and the chain collapses
    report = check_lemmas(overlap2.problem, overlap2.oracle("born"),
                          overlap2.utility, samples=60, seed=0)
    bad = failures(report)
    assert "RewardNondegeneracy" in bad
    assert "Dominance" in bad


def test_born_theorem_report_focuses_on_final_lemmas(std6):
    report = born_theorem_report(std6.problem, std6.utility,
                                 samples=80, seed=0)
    assert report.ok
    names = [r.name for r in report.results]
    assert names == ["Dominance", "StandardAct", "BornTheorem"]


# -- counterexample search ----------------------------------------------------

def test_branch_uniqueness_counterexample_on_overlap(overlap2):
    res = find_counterexample(overlap2.problem, overlap2.oracle("born"),
                              "branch-uniqueness", budget=150, seed=0)
    assert res.name == "branch-uniqueness" and res.status == "fail"
    w, = res.witnesses
    assert w["norm_gap"] > 1e-6
    json.dumps(w)


def test_no_counterexample_on_clean_instance(std6):
    for target in ("branch-uniqueness", "equivalence-step"):
        res = find_counterexample(std6.problem, std6.oracle("born"),
                                  target, budget=80, seed=0)
        assert res.witnesses == []


def test_equivalence_step_counterexample_on_merge(irrev6):
    res = find_counterexample(irrev6.problem, irrev6.oracle("born"),
                              "equivalence-step", budget=150, seed=0)
    w, = res.witnesses
    assert w["weight_gap"] > 1e-6
    assert w["act"]["label"] == "merge"


def test_rationality_target_reuses_audit(std6):
    res = find_counterexample(std6.problem, std6.oracle("table"),
                              "Ord", budget=100, seed=0)
    assert res.witnesses


# -- witnesses replayed from the golden reports -------------------------------

def golden_witnesses(cid: str) -> list[dict]:
    """The witnesses of a recorded golden report: each failing result's
    list for an audit, the one search witness for a counterexample."""
    doc = json.loads((case_dir(cid) / "report.json").read_text("utf-8"))
    if "results" in doc:
        return [w for r in doc["results"] for w in r["witnesses"]]
    return [doc["witness"]["witness"]]


def decode_act(payload: dict, dim: int) -> PartialIsometryAct:
    return PartialIsometryAct(
        Subspace(decode_matrix(payload["domain_basis"], dim, "domain_basis")),
        decode_matrix(payload["matrix"], dim, "matrix"))


def decode_state(payload: dict, dim: int) -> StateVector:
    return StateVector(decode_vector(payload["state"], dim, "state"))


@pytest.mark.parametrize("seed", [0, 1])
def test_irrev_witnesses_replay(overlap2, seed):
    p = overlap2.problem
    witnesses = [w for w in golden_witnesses(
        f"audit-richness overlap2 seed={seed}") if "shared_macrostates" in w]
    assert witnesses
    for w in witnesses:
        act = decode_act(w["act"], p.dim)
        a, b = (smallest_event_ids(
            p, restrict_act(act, p.macrostate(m).subspace)) for m in w["pair"])
        assert sorted(a & b) == w["shared_macrostates"] != []


@pytest.mark.parametrize("seed", [0, 1])
def test_branch_uniqueness_witness_replays(overlap2, seed):
    p = overlap2.problem
    w, = golden_witnesses(
        f"counterexample branch-uniqueness overlap2 seed={seed}")
    found = _decompositions(p, decode_state(w, p.dim))
    for listed in w["decompositions"]:
        assert any(f.keys() == listed.keys()
                   and max(abs(f[m] - listed[m]) for m in f) < SAME_NORMS_TOL
                   for f in found), (listed, found)
    a, b = w["decompositions"]
    gap = max(abs(a.get(m, 0.0) - b.get(m, 0.0)) for m in a.keys() | b.keys())
    assert gap == pytest.approx(w["norm_gap"], abs=SAME_NORMS_TOL)
    assert gap > SEARCH_GAP


@pytest.mark.parametrize("seed", [0, 1])
def test_equivalence_step_witness_replays(overlap2, seed):
    p = overlap2.problem
    w, = golden_witnesses(
        f"counterexample equivalence-step overlap2 seed={seed}")
    act, psi = decode_act(w["act"], p.dim), decode_state(w, p.dim)
    whole = born_weights(p, act.apply(psi))
    blockwise = dict.fromkeys(p.reward_ids, 0.0)
    for m in p.macrostates:
        comp = project(m.subspace, psi)
        if act.domain.contains_subspace(m.subspace) and comp.norm > TOL_ORTH:
            img = restrict_act(act, m.subspace).apply(comp)
            for rid in p.reward_ids:
                blockwise[rid] += (
                    project(p.reward_subspace(rid), img).norm ** 2)
    assert whole == pytest.approx(w["whole_weights"], abs=1e-12)
    assert blockwise == pytest.approx(w["blockwise_weights"], abs=1e-12)
    gap = max(abs(whole[rid] - blockwise[rid]) for rid in p.reward_ids)
    assert gap == pytest.approx(w["weight_gap"], abs=1e-12)
    assert gap > SEARCH_GAP


def test_equivalence_step_searches_each_catalog_act_once(irrev6, monkeypatch):
    # with no gap large enough to stop the scan, each catalog act that
    # spans two macrostates gets its share of the budget, once; the
    # catalog already opens with the generators, irrev6's merge among them
    from qdtbench import audit
    p, budget = irrev6.problem, 200
    catalog, applied = [], {}
    real_catalog, real_apply = audit.richness_catalog, PartialIsometryAct.apply

    def recorded_catalog(*args):
        catalog[:] = real_catalog(*args)
        applied.clear()
        return list(catalog)

    def apply(act, psi):
        applied[id(act)] = applied.get(id(act), 0) + 1
        return real_apply(act, psi)

    monkeypatch.setattr(audit, "richness_catalog", recorded_catalog)
    monkeypatch.setattr(audit, "SEARCH_GAP", float("inf"))
    monkeypatch.setattr(PartialIsometryAct, "apply", apply)
    assert find_counterexample(p, None, "equivalence-step", budget=budget,
                               seed=0).witnesses == []
    share = budget // len(catalog)
    searched = [sum(act.domain.contains_subspace(m.subspace)
                    for m in p.macrostates) >= 2 for act in catalog]
    assert "merge" in [a.label for a, s in zip(catalog, searched) if s]
    assert [applied.get(id(a), 0) for a in catalog] == [
        share if s else 0 for s in searched]


class CountingCalls:
    """Wraps an oracle and counts its compare calls per ordered pair."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.asked = {}

    def compare(self, psi, u, v):
        key = (psi.vec.tobytes(), u.label, v.label)
        self.asked[key] = self.asked.get(key, 0) + 1
        return self.oracle.compare(psi, u, v)


def test_ord_asks_each_ordered_pair_once(std6):
    # transitivity reads the asymmetry pass's answers back, so the whole
    # check costs n(n-1) calls per macrostate menu of n acts; the menu
    # size does not depend on the sampled standard-act weight on std6
    p = std6.problem
    counted = CountingCalls(std6.oracle("born"))
    find_counterexample(p, counted, "Ord", budget=100, seed=0)
    sizes = [len(macrostate_probe_acts(p, mac, np.random.default_rng(0))[1])
             for mac in p.macrostates]
    assert sum(counted.asked.values()) == sum(n * (n - 1) for n in sizes)
    assert set(counted.asked.values()) == {1}


def test_every_check_and_catalog_draws_its_own_stream():
    # a check's substream is base + i, so a table that outgrew its gap,
    # or a third search check, would share a stream with another consumer
    from qdtbench import audit
    streams = [base + i for base, checks in audit._TABLES.values()
               for i in range(len(checks))]
    streams += [audit._CATALOG_STREAM, audit._SEARCH_CATALOG_STREAM]
    assert len(set(streams)) == len(streams)


def test_single_axiom_search_matches_full_audit(overlap2):
    # the search runs only its target, on the substream the full audit
    # gives it, so the results must coincide
    oracle = overlap2.oracle("counting")
    report = audit_rationality(overlap2.problem, oracle, samples=100, seed=0)
    for target in RATIONALITY_AXIOMS:
        assert find_counterexample(overlap2.problem, oracle, target,
                                   budget=100, seed=0) == report.result(target)
    assert not report.ok


# -- perturbation helper --------------------------------------------------

def test_perturbation_stays_close_and_isometric(std6):
    p = std6.problem
    act = ActForge(p).reward_act("m0", "r1")
    rng = np.random.default_rng(0)
    for radius in PERTURBATION_RADII:
        moved = perturb_act(act, radius, rng)
        g = moved.matrix.conj().T @ moved.matrix
        assert np.allclose(g, np.eye(moved.matrix.shape[1]), atol=1e-9)
        assert act_distance(act, moved) <= 2.0 * radius + 1e-12


@pytest.mark.parametrize("kind", ["haar", "axis"])
@pytest.mark.parametrize("dim", range(1, 9))
def test_perturbation_matches_scipy_polar_bit_for_bit(dim, kind):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng([dim, 23])
    for seed in range(3):
        for rank in range(1, dim + 1):
            domain = Subspace(unitary_frame(kind, dim, rng)[:, :rank])
            image = unitary_frame(kind, dim, rng)[:, :rank]
            act = PartialIsometryAct(domain, image)
            for radius in PERTURBATION_RADII:
                got = perturb_act(act, radius,
                                  np.random.default_rng([seed, rank]))
                draw = np.random.default_rng([seed, rank])
                g = (draw.standard_normal(image.shape)
                     + 1j * draw.standard_normal(image.shape))
                g = g / np.linalg.norm(g, 2)
                ref, _ = scipy_linalg.polar(image + radius * g, side="right")
                assert got.matrix.tobytes() == ref.tobytes()


# -- report shape -------------------------------------------------------------

def test_reports_serialize_to_plain_json(std6):
    for rep in (audit_richness(std6.problem, samples=40, seed=2),
                audit_rationality(std6.problem, std6.oracle("counting"),
                                  samples=40, seed=2)):
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert "np." not in text


def test_witness_cap_limits_payload(std6):
    report = audit_rationality(std6.problem, std6.oracle("counting"),
                               samples=200, seed=0)
    for r in report.results:
        assert len(r.witnesses) <= 3
