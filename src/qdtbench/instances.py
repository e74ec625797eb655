"""Randomized instances: a Haar-random unitary and clean random problems.

The bundled fixtures (`min2`, `std6`, `std8`, `overlap2`, `irrev6`) are
not built here: they ship as JSON in `qdtbench/fixtures`, the one
definition both the CLI and the tests load.
"""
from __future__ import annotations

import math

import numpy as np

from .hilbert import Subspace
from .io import LoadedInstance
from .preference import UtilityTable
from .problem import Macrostate, QuantumDecisionProblem, Reward


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
