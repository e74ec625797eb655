"""Built-in instances: small, hand-sized problems the test suite and the
CLI lean on, plus a generator for randomized ones.

Every builder returns a LoadedInstance so the same object can be saved
to JSON, audited, or handed an oracle.  The `deliberately broken`
fixtures (a planted preference cycle, a macrostate-merging act, an
overlapping-macrostate geometry) exist so the audits have something to
catch; the rest are clean.
"""
from __future__ import annotations

import math

import numpy as np

from .comparison import Comparison
from .forge import ActForge
from .hilbert import PartialIsometryAct, StateVector, Subspace
from .io import LoadedInstance, save_instance
from .preference import UtilityTable, make_standard_act
from .problem import Macrostate, QuantumDecisionProblem, Reward


def _axis_macrostates(dim: int, ids: list[str]) -> list[Macrostate]:
    eye = np.eye(dim, dtype=np.complex128)
    return [Macrostate(id=mid, subspace=Subspace(eye[:, [i]]))
            for i, mid in enumerate(ids)]


def build_min2() -> LoadedInstance:
    """C^2: one macrostate per reward, nothing to spare.

    The smallest legal instance.  Neither reward has a second member,
    so branching and erasure across records degenerate; several audits
    report skips here by design.
    """
    macs = _axis_macrostates(2, ["m0", "m1"])
    rewards = (Reward("r0", ("m0",), "m0", is_r0=True),
               Reward("r1", ("m1",), "m1", is_r1=True))
    p = QuantumDecisionProblem(2, macs, rewards)
    return LoadedInstance(problem=p,
                          utility=UtilityTable({"r0": 0.0, "r1": 1.0},
                                               problem=p),
                          oracle_kind="born")


def build_std6() -> LoadedInstance:
    """C^6 workhorse: three rewards with two one-dimensional members each.

    Ships three labelled standard acts A, B, C on the first macrostate
    together with a planted preference three-cycle among them; the cycle
    only bites when the document's table oracle is selected.
    """
    macs = _axis_macrostates(6, [f"m{i}" for i in range(6)])
    rewards = (Reward("r0", ("m0", "m1"), "m0", is_r0=True),
               Reward("rA", ("m2", "m3"), "m2"),
               Reward("r1", ("m4", "m5"), "m4", is_r1=True))
    p = QuantumDecisionProblem(6, macs, rewards)
    psi = StateVector(macs[0].subspace.basis[:, 0])
    acts = tuple(
        make_standard_act(p, psi, alpha, forge=ActForge(p)).with_label(label)
        for label, alpha in (("A", 0.8), ("B", 0.5), ("C", 0.2)))
    p = QuantumDecisionProblem(6, macs, rewards, act_generators=acts)
    cycle = {("A", "B"): Comparison.BETTER,
             ("B", "C"): Comparison.BETTER,
             ("C", "A"): Comparison.BETTER}
    return LoadedInstance(
        problem=p,
        utility=UtilityTable({"r0": 0.0, "rA": 0.4, "r1": 1.0}, problem=p),
        oracle_kind="born", preference_pairs=cycle)


def build_std8() -> LoadedInstance:
    """C^8 with four reward levels, used for the wider sweeps."""
    macs = _axis_macrostates(8, [f"m{i}" for i in range(8)])
    rewards = (Reward("r0", ("m0", "m1"), "m0", is_r0=True),
               Reward("rA", ("m2", "m3"), "m2"),
               Reward("rB", ("m4", "m5"), "m4"),
               Reward("r1", ("m6", "m7"), "m6", is_r1=True))
    p = QuantumDecisionProblem(8, macs, rewards)
    return LoadedInstance(
        problem=p,
        utility=UtilityTable({"r0": 0.0, "rA": 0.3, "rB": 0.7, "r1": 1.0},
                             problem=p),
        oracle_kind="born")


def build_overlap2() -> LoadedInstance:
    """C^2 with a third macrostate leaning across the first two.

    Macrostate orthogonality is switched off, so states no longer have
    a unique branch decomposition; the counterexample search uses this
    to exhibit two decompositions with different branch norms.
    """
    eye = np.eye(2, dtype=np.complex128)
    lean = np.array([[1.0], [1.0]], dtype=np.complex128) / np.sqrt(2.0)
    macs = (Macrostate("m1", Subspace(eye[:, [0]])),
            Macrostate("m2", Subspace(eye[:, [1]])),
            Macrostate("m3", Subspace(lean)))
    rewards = (Reward("r0", ("m1",), "m1", is_r0=True),
               Reward("r1", ("m2", "m3"), "m2", is_r1=True))
    p = QuantumDecisionProblem(2, macs, rewards, orthmacr=False)
    return LoadedInstance(problem=p,
                          utility=UtilityTable({"r0": 0.0, "r1": 1.0},
                                               problem=p),
                          oracle_kind="born")


def build_irrev6() -> LoadedInstance:
    """std6 geometry plus an act that merges two macrostates.

    The `merge` act sends m0 and m1 onto interfering superpositions of
    one rA member and one r1 member.  Its restrictions to m0 and m1
    have overlapping images (an Irrev violation), and its whole-act
    reward weights disagree with the blockwise ones, which breaks the
    additivity step the equivalence argument needs.
    """
    macs = _axis_macrostates(6, [f"m{i}" for i in range(6)])
    rewards = (Reward("r0", ("m0", "m1"), "m0", is_r0=True),
               Reward("rA", ("m2", "m3"), "m2"),
               Reward("r1", ("m4", "m5"), "m4", is_r1=True))
    bare = QuantumDecisionProblem(6, macs, rewards)
    e = np.eye(6, dtype=np.complex128)
    plus = (e[:, [2]] + e[:, [4]]) / np.sqrt(2.0)
    minus = (e[:, [2]] - e[:, [4]]) / np.sqrt(2.0)
    op = plus @ e[:, [0]].conj().T + minus @ e[:, [1]].conj().T
    domain = bare.event_of(["m0", "m1"])
    merge = PartialIsometryAct(domain, op @ domain.basis, label="merge")
    p = QuantumDecisionProblem(6, macs, rewards, act_generators=(merge,))
    return LoadedInstance(
        problem=p,
        utility=UtilityTable({"r0": 0.0, "rA": 0.4, "r1": 1.0}, problem=p),
        oracle_kind="born")


FIXTURE_BUILDERS = {
    "min2": build_min2,
    "std6": build_std6,
    "std8": build_std8,
    "overlap2": build_overlap2,
    "irrev6": build_irrev6,
}


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary: the draw of `scipy.stats.unitary_group.rvs`,
    same arithmetic, same bits and the same generator state after."""
    z = (1 / math.sqrt(2) * (rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim))))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= d / abs(d)
    return q


def random_problem(seed: int, n_macrostates: int | None = None,
                   n_middle_rewards: int | None = None) -> LoadedInstance:
    """A random clean instance with room for every forged construction.

    All macrostates are one-dimensional slices of a Haar-random unitary
    frame.  The two anchor rewards always get two members each, so
    erasure, branching, and the null-test probes never run out of
    directions; remaining macrostates are dealt to middle rewards with
    random utilities.
    """
    rng = np.random.default_rng([int(seed), 424242])
    if n_macrostates is None:
        n_macrostates = int(rng.integers(4, 7))
    if n_macrostates < 4:
        raise ValueError("need at least 4 macrostates for the anchor rewards")
    if n_middle_rewards is None:
        n_middle_rewards = int(rng.integers(0, min(2, n_macrostates - 4) + 1))
    if n_macrostates - 4 < n_middle_rewards:
        raise ValueError("not enough macrostates for that many middle rewards")
    dim = n_macrostates
    frame = haar_unitary(dim, rng)
    ids = [f"m{i}" for i in range(n_macrostates)]
    macs = [Macrostate(mid, Subspace(frame[:, [i]]))
            for i, mid in enumerate(ids)]

    middle_pool = ids[4:]
    groups: list[list[str]] = [list(ids[:2]), list(ids[2:4])]
    middles: list[list[str]] = [[] for _ in range(n_middle_rewards)]
    for i, mid in enumerate(middle_pool):
        if n_middle_rewards:
            middles[i % n_middle_rewards].append(mid)
        else:
            groups[i % 2].append(mid)
    rewards = [Reward("r0", tuple(groups[0]), groups[0][0], is_r0=True),
               Reward("r1", tuple(groups[1]), groups[1][0], is_r1=True)]
    values = {"r0": 0.0, "r1": 1.0}
    for j, members in enumerate(middles):
        rid = f"rM{j}"
        rewards.append(Reward(rid, tuple(members), members[0]))
        values[rid] = float(rng.uniform(0.05, 0.95))
    order = {mid: i for i, mid in enumerate(ids)}
    rewards.sort(key=lambda r: order[r.members[0]])

    p = QuantumDecisionProblem(dim, tuple(macs), tuple(rewards))
    return LoadedInstance(problem=p,
                          utility=UtilityTable(values, problem=p),
                          oracle_kind="born")


def write_fixtures(directory) -> list[str]:
    """Serialize every named fixture into the directory; returns filenames."""
    from pathlib import Path
    out = []
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    for name, build in FIXTURE_BUILDERS.items():
        save_instance(build(), target / f"{name}.json")
        out.append(f"{name}.json")
    return sorted(out)


if __name__ == "__main__":
    import sys
    dest = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for fname in write_fixtures(dest):
        print(fname)
