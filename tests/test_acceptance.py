"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every line.  Each
test prints `[PASS|FAIL] <criterion> - <tally>` before asserting, so a
red run still reports the full scoreboard.  Tolerances are the shipped
ones, restated here rather than imported where a criterion fixes a
number.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qdtbench import audit as audit_mod
from qdtbench.audit import (discriminable_support, null_probe_catalog,
                            random_state_in, random_weights)
from qdtbench.branching import born_deviation_norm, modal_count_vector
from qdtbench import classical as cls
from qdtbench.comparison import TIE_BAND, Comparison
from qdtbench.errors import NormMismatch, QdtError
from qdtbench.forge import ActForge, identity_act, restrict_act
from qdtbench.hilbert import (PartialIsometryAct, StateVector, Subspace,
                              complement, join, meet, orthonormalize, project)
from qdtbench.instances import random_problem
from qdtbench.problem import born_weights
from qdtbench.preference import (BornOracle, DefinitionalNullTest,
                                 elicit_utility, expected_utility,
                                 born_compare,
                                 is_null_pair, make_standard_act,
                                 reduce_to_standard, standard_weight)

from conftest import (FIXTURE_DIR, FIXTURE_NAMES, cli, load_fixture,
                      reference_nodes)

BETTER, TIE, WORSE = Comparison.BETTER, Comparison.TIE, Comparison.WORSE


def verdict(name: str, bad: int, total: int, note: str = "") -> None:
    tag = "PASS" if bad == 0 else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"[{tag}] {name} - {total - bad}/{total} checks{extra}")
    assert bad == 0, f"{name}: {bad} of {total} checks failed"


def _independent_eu(p, utility, psi, act):
    """Expected utility by raw projector arithmetic, no helper reuse."""
    phi = act.apply(psi.unit()).vec
    total = 0.0
    for rid in p.reward_ids:
        pi = p.reward_subspace(rid).projector()
        total += float(np.linalg.norm(pi @ phi) ** 2) * utility.of(rid)
    return total


# 1. Born comparison agrees with the sign of the expected-utility gap.
def test_born_identity_on_random_triples():
    bad = total = 0
    for seed in range(20):
        inst = random_problem(seed)
        p, ut = inst.problem, inst.utility
        rng = np.random.default_rng([seed, 11])
        trials = 0
        while trials < 10:
            mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
            psi = random_state_in(mac.subspace, rng)
            rids = list(p.reward_ids)
            k = int(rng.integers(1, len(rids) + 1))
            picks = sorted(rng.choice(rids, size=k, replace=False).tolist())
            w_u = dict(zip(picks, random_weights(rng, k)))
            if trials % 5 == 0:
                w_v = dict(w_u)  # exact tie, exercises the band
            else:
                k2 = int(rng.integers(1, len(rids) + 1))
                picks2 = sorted(rng.choice(rids, size=k2,
                                           replace=False).tolist())
                w_v = dict(zip(picks2, random_weights(rng, k2)))
            u_act = ActForge(p).weighted_act(psi, w_u)
            v_act = ActForge(p).weighted_act(psi, w_v)
            gap = (_independent_eu(p, ut, psi, u_act)
                   - _independent_eu(p, ut, psi, v_act))
            want = TIE if abs(gap) <= 1e-9 else (BETTER if gap > 0 else WORSE)
            got = born_compare(p, psi, u_act, v_act, ut)
            total += 1
            bad += got is not want
            trials += 1
    verdict("born-identity", bad, total)
    assert total == 200


# 2. Acts with matching per-reward image norms are interchangeable.
def test_equivalence_on_norm_matched_pairs():
    bad = total = 0
    for seed in range(20):
        inst = random_problem(seed)
        p, ut = inst.problem, inst.utility
        rng = np.random.default_rng([seed, 23])
        for _ in range(5):
            mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
            psi = random_state_in(mac.subspace, rng)
            rids = list(p.reward_ids)
            k = int(rng.integers(1, len(rids) + 1))
            picks = sorted(rng.choice(rids, size=k, replace=False).tolist())
            weights = dict(zip(picks, random_weights(rng, k)))
            u_act = ActForge(p).weighted_act(psi, weights)
            # same act conjugated by per-reward phases: reward-block norms
            # are untouched, the image vector is genuinely different
            q = np.zeros((p.dim, p.dim), dtype=np.complex128)
            for rid in rids:
                q = q + (np.exp(1j * rng.uniform(0.3, 2.8))
                         * p.reward_subspace(rid).projector())
            cols = q @ (u_act.as_operator() @ u_act.domain.basis)
            v_act = PartialIsometryAct(u_act.domain, cols)
            phi_u = u_act.apply(psi.unit())
            phi_v = v_act.apply(psi.unit())
            norm_gap = max(
                abs(project(p.reward_subspace(rid), phi_u).norm
                    - project(p.reward_subspace(rid), phi_v).norm)
                for rid in rids)
            w_act = ActForge(p).weighted_act(
                psi, dict(zip(rids, random_weights(rng, len(rids)))))
            ok = (norm_gap <= 1e-9
                  and born_compare(p, psi, u_act, v_act, ut) is TIE
                  and (born_compare(p, psi, u_act, w_act, ut)
                       is born_compare(p, psi, v_act, w_act, ut)))
            total += 1
            bad += not ok
    verdict("equivalence", bad, total)
    assert total == 100


# 3. Standard acts order strictly by weight gap >= 1e-6, tie at <= 1e-12.
def test_dominance_on_standard_acts():
    inst = load_fixture("std8")
    p, ut = inst.problem, inst.utility
    oracle = BornOracle(p, ut)
    mac = min(p.macrostates, key=lambda m: (m.subspace.dim, m.id))
    psi = StateVector(mac.subspace.basis[:, 0])
    rng = np.random.default_rng(31)
    bad = total = 0
    for trial in range(100):
        if trial % 4 == 0:
            beta = float(rng.uniform(0.0, 1.0))
            alpha = min(1.0, beta + 1e-13)  # inside the 1e-12 tie band
            want = TIE
        else:
            beta = float(rng.uniform(0.0, 0.9))
            alpha = float(min(1.0, beta + 1e-6 + rng.uniform(0.0, 0.1)))
            want = BETTER
        ua = make_standard_act(p, psi, alpha, forge=ActForge(p))
        ub = make_standard_act(p, psi, beta, forge=ActForge(p))
        got = oracle.compare(psi, ua, ub)
        total += 1
        bad += got is not want
    verdict("dominance", bad, total)
    assert total == 100


# 4. Geometric and definitional null verdicts agree on every event.
def test_nullity_criterion_vs_definition_exhaustive():
    bad = total = 0
    for seed in range(20):
        inst = random_problem(seed)
        p, ut = inst.problem, inst.utility
        oracle = BornOracle(p, ut)
        rng = np.random.default_rng([seed, 47])
        ids = list(p.macrostate_ids)
        assert len(ids) <= 6
        supports = [(m,) for m in ids]
        doubles = [tuple(sorted(rng.choice(ids, size=2, replace=False)))
                   for _ in range(2)]
        supports += [d for d in doubles
                     if discriminable_support(p, d, ut)]
        supports = [s for s in supports if discriminable_support(p, s, ut)]
        assert len(supports) >= len(ids)
        events = []
        for mask in range(2 ** len(ids)):
            picks = [m for i, m in enumerate(ids) if mask >> i & 1]
            events.append(p.event_of(picks))
        for support in supports:
            parts = [p.macrostate(m).subspace.basis[:, 0]
                     * np.exp(1j * rng.uniform(0, 2 * np.pi))
                     for m in support]
            phi = StateVector(np.sum(parts, axis=0) / np.sqrt(len(parts)))
            definitional = DefinitionalNullTest(
                phi, null_probe_catalog(p, support), oracle)
            for event in events:
                total += 1
                bad += (is_null_pair(p, event, phi)
                        != definitional.is_null(event))
    verdict("nullity", bad, total, "exhaustive over all lattice events")


# 5. Utility elicitation round-trips planted tables.
def test_utility_round_trip():
    bad = total = 0
    for seed in range(50):
        inst = random_problem(seed, n_macrostates=6, n_middle_rewards=2)
        p, planted = inst.problem, inst.utility
        res = elicit_utility(p, BornOracle(p, planted), tol=1e-6)
        for rid in p.reward_ids:
            total += 1
            bad += not (abs(res.table.of(rid) - planted.of(rid)) <= 1e-6
                        and res.steps[rid] <= 40)
    verdict("utility-round-trip", bad, total, "50 planted tables")


# 6. Standard reduction preserves both weight (=EU) and preference.
def test_standard_act_reduction():
    rng = np.random.default_rng(61)
    bad = total = 0
    insts = [load_fixture("std6"), load_fixture("std8")]
    while total < 100:
        inst = insts[total % 2]
        p, ut = inst.problem, inst.utility
        oracle = BornOracle(p, ut)
        middles = [r.id for r in p.rewards if not (r.is_r0 or r.is_r1)]
        shapes = [{p.r0_id: None, p.r1_id: None}]
        shapes += [{m: None} for m in middles]
        if len(middles) >= 2:
            shapes.append({middles[0]: None, middles[1]: None})
        shape = shapes[int(rng.integers(len(shapes)))]
        w = random_weights(rng, len(shape))
        weights = dict(zip(sorted(shape), w))
        mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
        psi = random_state_in(mac.subspace, rng)
        forge = ActForge(p)
        act = forge.weighted_act(psi, weights)
        std = reduce_to_standard(p, psi, act, ut, forge=forge)
        eu = expected_utility(p, psi, act, ut)
        ok = (abs(standard_weight(p, psi, std) - eu) <= 1e-9
              and oracle.compare(psi, act, std) is TIE)
        total += 1
        bad += not ok
    verdict("standard-act", bad, total)


# 7. The audit stack: born passes, counting and a planted cycle fail.
def test_axiom_audit_outcomes():
    bad = total = 0
    notes = []
    for name in ("min2", "std6", "std8", "irrev6"):
        inst = load_fixture(name)
        rep = audit_mod.audit_rationality(inst.problem, inst.oracle("born"),
                                          samples=150, seed=0)
        total += 1
        bad += not rep.ok
        if not rep.ok:
            notes.append(f"born fails on {name}")
    std6 = load_fixture("std6")
    rep1 = audit_mod.audit_rationality(std6.problem, std6.oracle("counting"),
                                       samples=150, seed=0)
    rep2 = audit_mod.audit_rationality(std6.problem, std6.oracle("counting"),
                                       samples=150, seed=0)
    brindif = rep1.result("BrIndif")
    total += 1
    bad += not (brindif.status == "fail" and brindif.witnesses
                and rep1.to_dict() == rep2.to_dict())
    cyc = audit_mod.audit_rationality(std6.problem, std6.oracle("table"),
                                      samples=150, seed=0)
    ord_res = cyc.result("Ord")
    total += 1
    bad += not (ord_res.status == "fail"
                and any(w["kind"] == "transitivity" for w in ord_res.witnesses))
    verdict("axiom-audits", bad, total, "; ".join(notes))


# 8. Forged acts hit their availability contracts; bad erasure is refused.
def test_richness_constructions():
    bad = total = 0
    for name in ("min2", "std6", "std8"):
        inst = load_fixture(name)
        rep = audit_mod.audit_richness(inst.problem, samples=150, seed=0)
        total += 1
        bad += not rep.ok
    p = load_fixture("std8").problem
    rng = np.random.default_rng(83)
    for _ in range(20):
        mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
        psi = random_state_in(mac.subspace, rng)
        forge = ActForge(p)
        rid = p.reward_of_macrostate(mac.id)
        k = min(len(p.reward(rid).members), 2)
        w = random_weights(rng, k)
        act = forge.branching_act(psi, w)
        cols = act.as_operator() @ act.domain.basis
        gram_gap = float(np.abs(cols.conj().T @ cols
                                - np.eye(act.domain.dim)).max())
        from qdtbench.problem import branch_decomposition
        phi = act.apply(psi.unit())
        norms = sorted(b.norm ** 2 for _, b in branch_decomposition(p, phi))
        weight_gap = max(abs(a - b) for a, b in zip(norms, sorted(w)))
        total += 1
        bad += not (gram_gap <= 1e-9 and weight_gap <= 1e-9)
    # erasure image equality, and the norm-gap guard
    forge = ActForge(p)
    r = next(r for r in p.rewards if len(r.members) >= 2)
    m1, m2 = sorted(r.members)[:2]
    psi1 = StateVector(p.macrostate(m1).subspace.basis[:, 0])
    psi2 = StateVector(p.macrostate(m2).subspace.basis[:, 0])
    e1, e2 = forge.erasure_pair(psi1, psi2)
    total += 1
    bad += not e1.apply(psi1).allclose(e2.apply(psi2))
    total += 1
    try:
        ActForge(p).erasure_pair(psi1, StateVector(0.9 * psi2.vec))
        bad += 1
    except NormMismatch:
        pass
    # combined act restricts blockwise to its pieces
    forge = ActForge(p)
    blocks = [forge.reward_act(p.macrostate(m1), p.r0_id),
              forge.reward_act(p.macrostate(m2), p.r1_id)]
    combined = forge.compat_combine(blocks).act
    for block in blocks:
        sub = restrict_act(combined, block.domain)
        agree = float(np.abs(
            (sub.as_operator() - block.as_operator())
            @ block.domain.basis).max())
        total += 1
        bad += not agree <= 1e-9
    verdict("richness-constructions", bad, total)


# 9. Deviation mass shrinks with depth and matches an exact tail sum.
def exact_binomial_deviation(w: float, n: int, eps: float) -> float:
    wq = Fraction(w).limit_denominator(10 ** 12)
    lo, hi = (wq - Fraction(eps)) * n, (wq + Fraction(eps)) * n
    mass = Fraction(0)
    for j in range(n + 1):
        if lo <= j <= hi:
            continue
        mass += (math.comb(n, j) * wq ** j * (1 - wq) ** (n - j))
    return float(mass)


def test_deviation_trend_against_exact_tail():
    vals = [born_deviation_norm((0.5, 0.5), n, 0.1) for n in (10, 100, 1000)]
    gaps = [abs(v - exact_binomial_deviation(0.5, n, 0.1))
            for v, n in zip(vals, (10, 100, 1000))]
    bad = int(not (vals[0] > vals[1] > vals[2])) + sum(g > 1e-12 for g in gaps)
    verdict("deviation-trend", bad, 4,
            f"values {vals[0]:.5f} > {vals[1]:.5f} > {vals[2]:.3e}")


# 10. Branch counting ignores weights: the modal pattern is uniform.
def test_counting_measure_invariance():
    bad = total = 0
    for weightings, depths in ((((0.5, 0.5), (0.1, 0.9)), (30, 32)),
                               (((1 / 3,) * 3, (0.2, 0.3, 0.5)), (30, 33))):
        k = len(weightings[0])
        for depth in depths:
            nodes = reference_nodes(depth, k)
            # a count vector's counting measure is its leaf count under
            # either weighting; its Born measure weighs each leaf by its
            # squared amplitude, so the skewed weighting moves its mode
            counting = max(sorted(nodes), key=nodes.get)
            born = [max(sorted(nodes),
                        key=lambda c: math.log(nodes[c]) + sum(
                            ci * math.log(wi) for ci, wi in zip(c, w)))
                    for w in weightings]
            total += 1
            bad += not (counting == modal_count_vector(k, depth) == born[0]
                        == (depth // k,) * k != born[1])
    verdict("counting-invariance", bad, total)


# 11. Lattice laws, including the two-ray distributivity failure.
def test_lattice_laws():
    bad = total = 0
    s = 1 / np.sqrt(2)
    up_z = Subspace(np.array([[1], [0]], dtype=np.complex128))
    up_x = Subspace(np.array([[s], [s]], dtype=np.complex128))
    up_y = Subspace(np.array([[s], [1j * s]], dtype=np.complex128))
    lhs = meet(up_z, join(up_x, up_y))
    rhs = join(meet(up_z, up_x), meet(up_z, up_y))
    total += 2
    bad += not lhs.equals(up_z)
    bad += not rhs.is_zero

    def random_sub(rng, dim):
        k = int(rng.integers(1, dim))
        m = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        return orthonormalize(m)

    for dim, pairs, tag in ((2, 10, 13), (8, 50, 17)):
        rng = np.random.default_rng([dim, tag])
        for _ in range(pairs):
            a, b = random_sub(rng, dim), random_sub(rng, dim)
            total += 1
            bad += not complement(join(a, b)).equals(
                meet(complement(a), complement(b)))
            big = join(a, b)
            total += 1
            bad += not big.equals(join(a, meet(big, complement(a))))
    verdict("lattice-laws", bad, total)


# 12. The classical bracket: lottery axioms and betting intervals.
def test_classical_suite():
    bad = total = 0
    rng = np.random.default_rng(121)
    rewards = ["r0", "ra", "rb", "r1"]
    for _ in range(20):
        planted = {"r0": 0.0, "r1": 1.0,
                   "ra": float(rng.uniform(0.01, 0.99)),
                   "rb": float(rng.uniform(0.01, 0.99))}
        table = cls.vnm_elicit(cls.PMEUOracle(planted), rewards, "r0", "r1",
                               tol=1e-6)
        total += 1
        bad += not all(abs(table[r] - planted[r]) <= 1e-6 for r in rewards)
    lotteries = [cls.Lottery.delta(r) for r in rewards]
    lotteries += [cls.Lottery({"r1": 0.5, "r0": 0.5}),
                  cls.Lottery({"r1": 0.5, "ra": 0.5}),
                  cls.Lottery({"ra": 0.5, "r0": 0.5}),
                  cls.Lottery({"r1": 0.25, "ra": 0.25, "r0": 0.5})]
    pmeu = cls.check_vnm_axioms(
        lotteries, cls.PMEUOracle({"r0": 0.0, "ra": 0.4, "rb": 0.7,
                                   "r1": 1.0}), samples=200, seed=0)
    total += 1
    bad += not all(c.ok for c in pmeu)
    lex = cls.check_vnm_axioms(lotteries, cls.LexicographicOracle(["r1", "ra"]),
                               samples=200, seed=0)
    arch = [c for c in lex if c.name.lower().startswith("arch")]
    total += 1
    bad += not (arch and not arch[0].ok and arch[0].failures)
    for n in (8, 64):
        states = [f"s{i}" for i in range(2 * n)]
        cells = [states[2 * i:2 * i + 2] for i in range(n)]
        event = states[:3]  # probability 3/(2n), interior to a cell
        oracle = cls.PlantedMeasureOracle({s: 1 / (2 * n) for s in states},
                                          {"x": 1.0, "y": 0.0})
        lo, hi = cls.savage_probability(oracle, states, event, cells,
                                        "x", "y")
        total += 2
        bad += not (hi - lo) == pytest.approx(1 / n, abs=1e-15)
        bad += not lo - 1e-12 <= 3 / (2 * n) <= hi + 1e-12
    verdict("classical-suite", bad, total)


# 13. The Born order is the classical PMEU order on Born-weight lotteries.
def test_born_agrees_with_classical_pmeu():
    bad = total = skipped = 0
    tol = 1e-6
    for name in FIXTURE_NAMES:
        inst = load_fixture(name)
        p, ut = inst.problem, inst.utility
        born = elicit_utility(p, BornOracle(p, ut), tol=tol).table
        vnm = cls.vnm_elicit(cls.PMEUOracle(ut.as_dict()), p.reward_ids,
                             p.r0_id, p.r1_id, tol=tol)
        for rid in p.reward_ids:
            total += 1
            bad += not abs(born.of(rid) - vnm[rid]) <= tol
    for name in ("std6", "std8"):
        inst = load_fixture(name)
        p, ut = inst.problem, inst.utility
        pmeu = cls.PMEUOracle(ut.as_dict())
        rids = list(p.reward_ids)
        rng = np.random.default_rng([len(name), 13])
        for trial in range(60):
            mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
            psi = random_state_in(mac.subspace, rng)
            acts = []
            for _ in range(2):
                k = int(rng.integers(1, len(rids) + 1))
                picks = sorted(rng.choice(rids, size=k,
                                          replace=False).tolist())
                acts.append(ActForge(p).weighted_act(
                    psi, dict(zip(picks, random_weights(rng, k)))))
            if trial % 5 == 0:
                acts[1] = acts[0]  # an exact tie
            gap = (expected_utility(p, psi, acts[0], ut)
                   - expected_utility(p, psi, acts[1], ut))
            # the two kernels round differently: leave out near ties,
            # nonzero gaps within TIE_BAND of the band's edge
            if 0.0 < abs(gap) <= 2 * TIE_BAND:
                skipped += 1
                continue
            lotteries = [cls.Lottery(born_weights(p, a.apply(psi)))
                         for a in acts]
            total += 1
            bad += (born_compare(p, psi, *acts, ut)
                    is not pmeu.compare(*lotteries))
    verdict("born-vs-classical", bad, total, f"{skipped} near the band")
    assert total >= 100


# 14. The command surface: stable bytes, honest exit codes.
def test_cli_contract(tmp_path):
    bad = total = 0
    notes = []

    def expect(code, *args):
        nonlocal bad, total
        res = cli(*args)
        total += 1
        if res.returncode != code:
            bad += 1
            notes.append(f"{' '.join(args)} -> {res.returncode}, want {code}")
        return res

    def fx(name):
        return str(FIXTURE_DIR / f"{name}.json")

    for name in FIXTURE_NAMES:
        expect(0, "validate", fx(name))
    for name in ("min2", "std6", "std8"):
        expect(0, "audit-richness", "--seed", "0", "--samples", "80",
               fx(name))
    expect(1, "audit-richness", "--seed", "0", "--samples", "80",
           fx("irrev6"))
    expect(0, "audit-rationality", "--seed", "0", "--samples", "80",
           "--oracle", "born", fx("std6"))
    expect(1, "audit-rationality", "--seed", "0", "--samples", "80",
           "--oracle", "counting", fx("std6"))
    expect(1, "audit-rationality", "--seed", "0", "--samples", "80",
           "--oracle", "born", fx("overlap2"))
    expect(0, "check-lemmas", "--seed", "0", "--samples", "60", fx("std6"))
    expect(1, "check-lemmas", "--seed", "0", "--samples", "60",
           fx("overlap2"))
    expect(0, "born-theorem", "--seed", "0", "--samples", "60", fx("std8"))
    expect(1, "counterexample", "--seed", "0", "--samples", "80",
           "--axiom", "branch-uniqueness", fx("overlap2"))
    expect(0, "counterexample", "--seed", "0", "--samples", "40",
           "--axiom", "branch-uniqueness", fx("std6"))
    expect(0, "simulate", "--k", "2", "--weights", "0.5,0.5",
           "--n", "10,100", "--eps", "0.1")
    expect(0, "elicit", fx("std6"))
    expect(0, "classical-vnm", "--seed", "0", fx("std6"))
    expect(1, "classical-vnm", "--seed", "0", "--oracle", "lex", fx("std6"))
    expect(0, "savage", "--cells", "8")
    # usage errors: missing seed, missing flag, unknown input
    expect(2, "audit-rationality", fx("std6"))
    expect(2, "sweep-grain", "--k", "2", "--weights", "0.5,0.5", "--n", "6")
    expect(2, "validate", "/no/such/file.json")
    expect(2, "no-such-command")
    # byte-identical reruns, stdout and report file alike
    for args, name in (
            (("audit-rationality", "--seed", "9", "--samples", "60",
              "--oracle", "born", fx("std6")), "ar"),
            (("check-lemmas", "--seed", "4", "--samples", "60",
              fx("min2")), "cl")):
        outs = []
        for i in (0, 1):
            path = tmp_path / f"{name}{i}.json"
            res = cli(*args, "--report", str(path))
            outs.append((res.stdout, path.read_bytes()))
        total += 1
        if outs[0] != outs[1]:
            bad += 1
            notes.append(f"{name} report not reproducible")
    verdict("cli-contract", bad, total, "; ".join(notes))
