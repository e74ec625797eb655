"""Preference orders over acts and the squared-amplitude strategy.

The reference order compares acts by expected utility with reward
weights given by squared projection amplitudes.  Alternative oracles
(branch counting, planted pairwise tables) implement the same interface
so the audits can probe them for axiom violations.  Also here: standard
acts, the reduction of an arbitrary act to an equivalent standard act,
utility elicitation by bisection, the reward order, comparisons at
branched states, and the two null-pair tests.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .comparison import (ELICIT_STEPS, ELICIT_TOL, TIE_BAND, Comparison,
                         bisect_indifference)
from .errors import (CatalogTooLarge, DimensionMismatch, DomainMismatch,
                     IntransitiveOracle, MissingUtility, NonMonotoneOracle)
from .forge import ActForge, compose_acts, identity_act
from .hilbert import (PartialIsometryAct, StateVector, Subspace, TOL_ORTH,
                      _norm, complement, meet, project, vanishes_on)
from .problem import (AccessibleState, QuantumDecisionProblem,
                      branch_decomposition, smallest_event, smallest_event_ids)

#: act pairs the definitional null test enumerates before refusing
MAX_NULL_PAIRS = 20000


class UtilityTable:
    """Reward id -> utility in [0, 1], anchored at the worst/best rewards."""

    def __init__(self, values: Mapping[str, float],
                 problem: QuantumDecisionProblem | None = None):
        self.values = {str(k): float(v) for k, v in values.items()}
        for rid, u in self.values.items():
            if not 0.0 <= u <= 1.0:
                raise ValueError(f"utility of {rid!r} is {u}, outside [0, 1]")
        if problem is not None:
            for rid in problem.reward_ids:
                if rid not in self.values:
                    raise MissingUtility(f"no utility for reward {rid!r}")
            if self.values[problem.r0_id] != 0.0:
                raise ValueError("worst reward must have utility exactly 0")
            if self.values[problem.r1_id] != 1.0:
                raise ValueError("best reward must have utility exactly 1")

    def of(self, rid: str) -> float:
        try:
            return self.values[rid]
        except KeyError:
            raise MissingUtility(f"no utility for reward {rid!r}") from None

    def as_dict(self) -> dict[str, float]:
        return dict(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v:g}" for k, v in sorted(self.values.items()))
        return f"UtilityTable({{{inner}}})"


def expected_utility(p: QuantumDecisionProblem, psi: StateVector,
                     act: PartialIsometryAct, utility: UtilityTable) -> float:
    """Sum over rewards of (squared image amplitude) x utility.

    psi is normalized internally; it must lie in the act's domain.
    Each weight is the arithmetic of `project(...).norm ** 2`, bit for
    bit, without building a state per reward.
    """
    phi = act.apply(psi.unit()).vec
    if phi.size != p.dim:
        raise DimensionMismatch(f"state dim {phi.size} vs problem dim {p.dim}")
    total = 0.0
    for rid in p.reward_ids:
        r = p.reward_subspace(rid)
        w = _norm(r.basis @ (r._adj @ phi)) ** 2
        total += w * utility.of(rid)
    return float(total)


def born_compare(p: QuantumDecisionProblem, psi: StateVector,
                 u_act: PartialIsometryAct, v_act: PartialIsometryAct,
                 utility: UtilityTable) -> Comparison:
    """Three-way comparison by expected utility within TIE_BAND."""
    return _by_utility(expected_utility(p, psi, u_act, utility),
                       expected_utility(p, psi, v_act, utility))


def _by_utility(du: float, dv: float) -> Comparison:
    """The tie-band rule: values within TIE_BAND tie."""
    if abs(du - dv) <= TIE_BAND:
        return Comparison.TIE
    return Comparison.BETTER if du > dv else Comparison.WORSE


# -- oracles -----------------------------------------------------------------

class PreferenceOracle(ABC):
    """Three-way comparator of two acts at a state in both domains.

    `compare` must be a pure function of its arguments: audits reuse an
    answer instead of asking the same question twice.
    """

    name = "oracle"

    @abstractmethod
    def compare(self, psi: StateVector, u_act: PartialIsometryAct,
                v_act: PartialIsometryAct) -> Comparison:
        ...


class _StateMemo:
    """An oracle's value of each act at the state object it was last
    asked about.

    Entries are keyed by act identity and hold their act, so an id
    cannot be reused while it is a key.  A different state object drops
    every entry, so the memo holds at most one state's acts.  Sound
    because `compare` is pure and states and acts are immutable.
    """

    __slots__ = ("_value", "_state", "_entries")

    def __init__(self, value):
        self._value = value
        self._state = None
        self._entries: dict[int, tuple[PartialIsometryAct, object]] = {}

    def __call__(self, psi: StateVector, act: PartialIsometryAct):
        if psi is not self._state:
            self._state, self._entries = psi, {}
        entry = self._entries.get(id(act))
        if entry is None:
            entry = self._entries[id(act)] = (act, self._value(psi, act))
        return entry[1]


class BornOracle(PreferenceOracle):
    """The squared-amplitude expected-utility order.  Each act's
    expected utility is computed once per state object."""

    name = "born"

    def __init__(self, p: QuantumDecisionProblem, utility: UtilityTable):
        self.p = p
        self.utility = utility
        self._eu = _StateMemo(
            lambda psi, act: expected_utility(p, psi, act, utility))

    def compare(self, psi, u_act, v_act) -> Comparison:
        return _by_utility(self._eu(psi, u_act), self._eu(psi, v_act))


class CountingOracle(PreferenceOracle):
    """Prefers whichever act produces more branches.

    This is the naive branch-counting measure: every branch counts the
    same regardless of amplitude.  It is a perfectly total and
    transitive order, which is exactly what makes it a useful foil: it
    fails the branching-indifference audit rather than the ordering one.
    """

    name = "counting"

    def __init__(self, p: QuantumDecisionProblem):
        self.p = p
        self._count = _StateMemo(self.branch_count)

    def branch_count(self, psi: StateVector, act: PartialIsometryAct) -> int:
        return len(branch_decomposition(self.p, act.apply(psi.unit())))

    def compare(self, psi, u_act, v_act) -> Comparison:
        cu, cv = self._count(psi, u_act), self._count(psi, v_act)
        if cu == cv:
            return Comparison.TIE
        return Comparison.BETTER if cu > cv else Comparison.WORSE


class TableOracle(PreferenceOracle):
    """Pairwise overrides on labelled acts, falling back to a base oracle.

    pairs maps (label_u, label_v) -> Comparison.  Used to plant
    deliberate pathologies (e.g. a three-cycle) in an otherwise sane
    order.
    """

    name = "table"

    def __init__(self, pairs: Mapping[tuple[str, str], Comparison],
                 fallback: PreferenceOracle):
        self.pairs = {(a, b): Comparison(c) for (a, b), c in pairs.items()}
        self.fallback = fallback

    def compare(self, psi, u_act, v_act) -> Comparison:
        a, b = u_act.label, v_act.label
        if a is not None and b is not None:
            if (a, b) in self.pairs:
                return self.pairs[(a, b)]
            if (b, a) in self.pairs:
                return self.pairs[(b, a)].flipped()
        return self.fallback.compare(psi, u_act, v_act)


# -- standard acts ------------------------------------------------------------

def make_standard_act(p: QuantumDecisionProblem, psi: StateVector,
                      alpha: float, forge: ActForge | None = None
                      ) -> PartialIsometryAct:
    """An act sending psi into the worst/best pair with weight alpha on best.

    alpha = 0 or 1 degenerates to a pure reward delivery; otherwise the
    image of psi/|psi| is sqrt(1-alpha) x (worst direction) +
    sqrt(alpha) x (best direction).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"weight {alpha} outside [0, 1]")
    if forge is None:
        forge = ActForge(p)
    return forge.weighted_act(psi, {p.r0_id: 1.0 - alpha, p.r1_id: alpha})


def standard_weight(p: QuantumDecisionProblem, psi: StateVector,
                    act: PartialIsometryAct) -> float:
    """Best-reward weight of the act's image of psi (normalized)."""
    phi = act.apply(psi.unit())
    return project(p.reward_subspace(p.r1_id), phi).norm ** 2


def is_standard_act(p: QuantumDecisionProblem, psi: StateVector,
                    act: PartialIsometryAct) -> bool:
    """Whether the act sends psi into the span of the two anchor rewards."""
    phi = act.apply(psi.unit())
    anchors = p.event_of(sorted(set(p.reward(p.r0_id).members)
                                | set(p.reward(p.r1_id).members)))
    return anchors.contains(phi)


def reduce_to_standard(p: QuantumDecisionProblem, psi: StateVector,
                       act: PartialIsometryAct, utility: UtilityTable,
                       forge: ActForge | None = None) -> PartialIsometryAct:
    """Compose a blockwise standard follow-up onto an act.

    Each macrostate branch of the act's image of psi is sent on to a
    standard act of weight equal to its reward's utility; branchless
    macrostates of the smallest event ride along untouched.  The result
    is a standard act at psi whose weight is the expected utility of the
    original act.
    """
    if forge is None:
        forge = ActForge(p)
    phi = act.apply(psi.unit())
    event_ids = sorted(smallest_event_ids(p, act))
    branches = dict(branch_decomposition(p, phi))
    blocks = []
    used: set[str] = {mid for mid in event_ids if mid not in branches}
    for mid in event_ids:
        if mid not in branches:
            blocks.append(identity_act(p.macrostate(mid).subspace))
            continue
        w = utility.of(p.reward_of_macrostate(mid))
        weights = {p.r0_id: 1.0 - w, p.r1_id: w}
        picks: dict[str, str] = {}
        for rid, rw in weights.items():
            if rw != 0.0:
                picks[rid] = forge.pick_member(p.reward(rid), 1, exclude=used)
                used.add(picks[rid])
        blocks.append(forge.weighted_act(branches[mid], weights,
                                         targets=picks))
    combined = forge.compat_combine(blocks)
    return compose_acts(p, combined.act, act)


# -- elicitation ---------------------------------------------------------------

@dataclass
class ElicitResult:
    table: UtilityTable
    steps: dict[str, int]
    queries: int


def _probe_macrostate(p: QuantumDecisionProblem) -> str:
    """Deterministic probe choice: lowest-id macrostate of minimal dimension."""
    best = min(p.macrostates, key=lambda m: (m.subspace.dim, m.id))
    return best.id


def elicit_utility(p: QuantumDecisionProblem, oracle: PreferenceOracle,
                   tol: float = ELICIT_TOL,
                   probe: str | None = None) -> ElicitResult:
    """Recover each reward's utility by bisecting against standard acts.

    For each reward r, compares the pure delivery of r with standard
    acts of varying weight at a fixed probe state.  The oracle must be
    monotone along the standard family; contradicted brackets raise
    NonMonotoneOracle.
    """
    probe_id = probe if probe is not None else _probe_macrostate(p)
    probe_mac = p.macrostate(probe_id)
    psi = StateVector(probe_mac.subspace.basis[:, 0])
    values: dict[str, float] = {}
    steps: dict[str, int] = {}
    queries = 0

    def compare_at(alpha: float, rid: str) -> Comparison:
        nonlocal queries
        f = ActForge(p)
        ur = f.reward_act(probe_mac, rid)
        va = make_standard_act(p, psi, alpha, forge=f)
        queries += 1
        return oracle.compare(psi, va, ur)

    for r in p.rewards:
        if r.is_r0:
            values[r.id] = 0.0
            steps[r.id] = 0
            continue
        if r.is_r1:
            values[r.id] = 1.0
            steps[r.id] = 0
            continue
        c0 = compare_at(0.0, r.id)
        if c0 is Comparison.BETTER:
            raise NonMonotoneOracle(
                f"zero-weight standard act beats reward {r.id!r}; the reward "
                f"order contradicts the worst anchor")
        c1 = compare_at(1.0, r.id)
        if c1 is Comparison.WORSE:
            raise NonMonotoneOracle(
                f"full-weight standard act loses to reward {r.id!r}; the "
                f"reward order contradicts the best anchor")
        if c0 is Comparison.TIE:
            u = 0.0
            nsteps = 0
        elif c1 is Comparison.TIE:
            u = 1.0
            nsteps = 0
        else:
            lo, hi, u, nsteps = bisect_indifference(
                lambda t: compare_at(t, r.id), tol, ELICIT_STEPS)
            if u is None:
                u = 0.5 * (lo + hi)
        # cheap non-monotonicity screen around the reported value
        up = min(1.0, u + 10 * tol)
        dn = max(0.0, u - 10 * tol)
        if compare_at(up, r.id) is Comparison.WORSE:
            raise NonMonotoneOracle(
                f"oracle prefers reward {r.id!r} above the elicited "
                f"indifference weight")
        if compare_at(dn, r.id) is Comparison.BETTER:
            raise NonMonotoneOracle(
                f"oracle disprefers reward {r.id!r} below the elicited "
                f"indifference weight")
        values[r.id] = float(u)
        steps[r.id] = nsteps
    return ElicitResult(UtilityTable(values), steps, queries)


# -- reward order ---------------------------------------------------------------

def reward_order(p: QuantumDecisionProblem,
                 oracle: PreferenceOracle) -> list[list[str]]:
    """Tiers of rewards, best first, from pairwise delivery comparisons.

    Raises IntransitiveOracle if the pairwise answers cannot be arranged
    into a total preorder.
    """
    probe_mac = p.macrostate(_probe_macrostate(p))
    psi = StateVector(probe_mac.subspace.basis[:, 0])
    forge = ActForge(p)
    acts = {r.id: forge.reward_act(probe_mac, r.id) for r in p.rewards}
    rids = list(p.reward_ids)
    cmp: dict[tuple[str, str], Comparison] = {}
    for a, b in combinations(rids, 2):
        c = oracle.compare(psi, acts[a], acts[b])
        cmp[(a, b)] = c
        cmp[(b, a)] = c.flipped()

    def beats(a: str, b: str) -> int:
        return int(cmp[(a, b)])

    score = {r: sum(1 for s in rids if s != r and beats(r, s) > 0)
             for r in rids}
    ordered = sorted(rids, key=lambda r: (-score[r], r))
    tiers: list[list[str]] = []
    for r in ordered:
        if tiers and cmp[(tiers[-1][0], r)] is Comparison.TIE:
            tiers[-1].append(r)
        else:
            tiers.append([r])
    # verify the tier structure reproduces every pairwise answer
    rank = {r: i for i, tier in enumerate(tiers) for r in tier}
    for a, b in combinations(rids, 2):
        want = (Comparison.TIE if rank[a] == rank[b]
                else Comparison.BETTER if rank[a] < rank[b]
                else Comparison.WORSE)
        if cmp[(a, b)] is not want:
            raise IntransitiveOracle(
                f"pairwise reward comparisons admit no total order "
                f"(inconsistency at {a!r} vs {b!r})")
    return tiers


# -- branched-state comparisons ---------------------------------------------------

def accessible_compare(p: QuantumDecisionProblem, acc: AccessibleState,
                       u_act: PartialIsometryAct, v_act: PartialIsometryAct,
                       oracle: PreferenceOracle) -> Comparison:
    """Compare follow-up acts at a branched state via its witness.

    Both acts must be available on the witness's smallest event; the
    comparison is pulled back to the unbranched source state.
    """
    event = smallest_event(p, acc.witness)
    for a in (u_act, v_act):
        if not a.domain.contains_subspace(event):
            raise DomainMismatch(
                "follow-up act is not available on the witnessed event")
    return oracle.compare(acc.source,
                          compose_acts(p, u_act, acc.witness),
                          compose_acts(p, v_act, acc.witness))


# -- null pairs ---------------------------------------------------------------------

def is_null_pair(p: QuantumDecisionProblem, event: Subspace,
                 phi: StateVector) -> bool:
    """The geometric null criterion: the event carries no decision
    weight at phi when the projection of phi onto it is numerically
    zero.  DefinitionalNullTest is the test from the definition."""
    return project(event, phi.unit()).norm <= TOL_ORTH


class DefinitionalNullTest:
    """The definitional null test at one state over one catalog: an
    event is null when no pair of catalog acts that agree outside it is
    ranked strictly by the oracle at phi.  It quantifies only over the
    catalog, the finite stand-in for "all available acts".

    The usable acts, their same-domain pairs with their operator
    differences, and the pair cap depend only on (phi, catalog), so they
    are worked out once, at the first event asked about; each pair's
    oracle answer is asked for at its first use and kept.
    """

    def __init__(self, phi: StateVector,
                 catalog: Sequence[PartialIsometryAct],
                 oracle: PreferenceOracle):
        self.phi, self.catalog, self.oracle = phi, catalog, oracle
        self._answers: dict[int, Comparison] = {}

    @cached_property
    def _pairs(self) -> list[tuple[PartialIsometryAct, PartialIsometryAct,
                                   np.ndarray]]:
        unit = self.phi.unit()
        usable = [a for a in self.catalog if a.domain.contains(unit)]
        pairs = [(u, v) for u, v in combinations(usable, 2)
                 if u.domain.equals(v.domain)]
        if len(pairs) > MAX_NULL_PAIRS:
            raise CatalogTooLarge(
                f"{len(pairs)} act pairs exceed the cap of {MAX_NULL_PAIRS}")
        return [(u, v, u.as_operator() - v.as_operator()) for u, v in pairs]

    def is_null(self, event: Subspace) -> bool:
        # keyed by domain object, not projector equality, so each value
        # is exactly the meet the pair itself would compute
        outside_of: dict[int, Subspace] = {}
        for i, (u, v, diff) in enumerate(self._pairs):
            key = id(u.domain)
            if key not in outside_of:
                outside_of[key] = meet(complement(event), u.domain)
            if not vanishes_on(diff, outside_of[key]):
                continue
            if i not in self._answers:
                self._answers[i] = self.oracle.compare(self.phi, u, v)
            if self._answers[i] is not Comparison.TIE:
                return False
        return True
