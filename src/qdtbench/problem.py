"""Decision problems over a finite-dimensional Hilbert space.

A problem bundles the macrostate decomposition (pairwise orthogonal,
jointly spanning subspaces), the reward partition built from macrostate
groups, and an optional catalog of generator acts.  Derived structure:
the event lattice (all joins of macrostates), branch decompositions of
states, squared-amplitude reward weights, and the smallest event hosting
an act's image.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (DimensionMismatch, OutsideDomain, TooManyMacrostates,
                     ZeroState)
from .hilbert import (PartialIsometryAct, StateVector, Subspace, TOL_ORTH,
                      _orthonormal_columns, project)

#: refuse exhaustive 2^n lattice enumeration above this many macrostates
LATTICE_GUARD = 16
#: a state whose squared norm is below this has no Born weights
ZERO_NORM_SQ = 1e-24


@dataclass(frozen=True, eq=False)
class Macrostate:
    """A labelled subspace: one macroscopically distinguishable situation."""
    id: str
    subspace: Subspace


@dataclass(frozen=True, eq=False)
class Reward:
    """A payoff level: the join of its member macrostates.

    `erasure` names the member used as the sink for record-erasing acts.
    Exactly one reward per problem carries is_r0 (worst) and one is_r1
    (best); they anchor the utility scale at 0 and 1.
    """
    id: str
    members: tuple[str, ...]
    erasure: str
    is_r0: bool = False
    is_r1: bool = False


class QuantumDecisionProblem:
    """Immutable problem instance.

    Construction never validates geometry; run :func:`validate_problem`
    to collect violations (the CLI does this on load).  `orthmacr=False`
    marks a deliberately relaxed instance whose macrostates may overlap,
    used only by the counterexample search.
    """

    def __init__(self, dim: int, macrostates: Sequence[Macrostate],
                 rewards: Sequence[Reward], *, orthmacr: bool = True,
                 act_generators: Sequence[PartialIsometryAct] = ()):
        self.dim = int(dim)
        self.macrostates = tuple(macrostates)
        self.rewards = tuple(rewards)
        self.orthmacr = bool(orthmacr)
        self.act_generators = tuple(act_generators)
        self._macro_by_id = {m.id: m for m in self.macrostates}
        self._reward_by_id = {r.id: r for r in self.rewards}
        self._reward_of_macro = {}
        for r in self.rewards:
            for mid in r.members:
                self._reward_of_macro.setdefault(mid, r.id)
        self._reward_spaces: dict[str, Subspace] = {}
        self._events: dict[tuple[str, ...], Subspace] = {}

    # -- lookups ----------------------------------------------------------

    def macrostate(self, mid: str) -> Macrostate:
        return self._macro_by_id[mid]

    def reward(self, rid: str) -> Reward:
        return self._reward_by_id[rid]

    @property
    def macrostate_ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.macrostates)

    @property
    def reward_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rewards)

    @property
    def r0_id(self) -> str:
        for r in self.rewards:
            if r.is_r0:
                return r.id
        raise KeyError("no reward flagged as the worst level")

    @property
    def r1_id(self) -> str:
        for r in self.rewards:
            if r.is_r1:
                return r.id
        raise KeyError("no reward flagged as the best level")

    def reward_of_macrostate(self, mid: str) -> str:
        return self._reward_of_macro[mid]

    def reward_subspace(self, rid: str) -> Subspace:
        """Join of the reward's member macrostates (cached by reward, so
        the hot path skips event_of's tuple key)."""
        if rid not in self._reward_spaces:
            self._reward_spaces[rid] = self.event_of(
                self._reward_by_id[rid].members)
        return self._reward_spaces[rid]

    def event_of(self, mids: Iterable[str]) -> Subspace:
        """Join of the named macrostates (cached by the ids in the order
        given, since the basis bits can depend on the column order)."""
        ids = tuple(mids)
        if ids not in self._events:
            if not ids:
                event = Subspace.zero(self.dim)
            else:
                cols = np.hstack([self._macro_by_id[m].subspace.basis
                                  for m in ids])
                event = Subspace(_orthonormal_columns(cols))
            self._events[ids] = event
        return self._events[ids]

    def __repr__(self) -> str:
        return (f"QuantumDecisionProblem(dim={self.dim}, "
                f"macrostates={len(self.macrostates)}, "
                f"rewards={len(self.rewards)})")


# -- validation -------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    data: dict = field(default_factory=dict)


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str, **data) -> None:
        self.violations.append(Violation(kind, message, dict(data)))

    def summary(self) -> str:
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.kind}] {v.message}" for v in self.violations]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "violations": [{"kind": v.kind, "message": v.message,
                                "data": v.data} for v in self.violations]}


def validate_problem(p: QuantumDecisionProblem) -> ValidationReport:
    """Collect structural violations; never raises.

    With `orthmacr=False` the geometric checks (orthogonality, joint
    spanning, reward disjointness) are skipped; identifier-level checks
    still run.
    """
    rep = ValidationReport()
    if p.dim < 1:
        rep.add("dim", f"ambient dimension {p.dim} is not positive")
        return rep

    seen = set()
    for m in p.macrostates:
        if m.id in seen:
            rep.add("macrostate-id", f"duplicate macrostate id {m.id!r}")
        seen.add(m.id)
        if m.subspace.ambient_dim != p.dim:
            rep.add("macrostate-ambient",
                    f"macrostate {m.id!r} lives in C^{m.subspace.ambient_dim}, "
                    f"problem is C^{p.dim}", macrostate=m.id)
        if m.subspace.dim == 0:
            rep.add("macrostate-zero",
                    f"macrostate {m.id!r} is the zero subspace", macrostate=m.id)
    if not p.macrostates:
        rep.add("macrostates", "no macrostates declared")

    if p.orthmacr and not any(v.kind == "macrostate-ambient"
                              for v in rep.violations):
        ms = [m for m in p.macrostates if m.subspace.dim > 0]
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                overlap = float(np.max(np.abs(
                    a.subspace._adj @ b.subspace.basis)))
                if overlap > TOL_ORTH:
                    rep.add("orthogonality",
                            f"macrostates {a.id!r} and {b.id!r} overlap "
                            f"(max inner product {overlap:.3e})",
                            pair=[a.id, b.id], overlap=overlap)
        total = sum(m.subspace.dim for m in ms)
        if total != p.dim:
            rep.add("coverage",
                    f"macrostate dimensions sum to {total}, ambient is {p.dim}")
        elif not any(v.kind == "orthogonality" for v in rep.violations):
            psum = sum(m.subspace.projector() for m in ms)
            defect = float(np.max(np.abs(psum - np.eye(p.dim))))
            if defect > TOL_ORTH * p.dim:
                rep.add("coverage",
                        f"macrostates do not resolve the identity "
                        f"(defect {defect:.3e})")

    known = {m.id for m in p.macrostates}
    rseen: set[str] = set()
    membership: dict[str, str] = {}
    for r in p.rewards:
        if r.id in rseen:
            rep.add("reward-id", f"duplicate reward id {r.id!r}")
        rseen.add(r.id)
        if not r.members:
            rep.add("reward-empty", f"reward {r.id!r} has no members",
                    reward=r.id)
        for mid in r.members:
            if mid not in known:
                rep.add("reward-member",
                        f"reward {r.id!r} references unknown macrostate {mid!r}",
                        reward=r.id, macrostate=mid)
            elif p.orthmacr:
                if mid in membership:
                    rep.add("reward-overlap",
                            f"macrostate {mid!r} belongs to rewards "
                            f"{membership[mid]!r} and {r.id!r}",
                            macrostate=mid)
                membership[mid] = r.id
        if r.erasure not in r.members:
            rep.add("erasure",
                    f"reward {r.id!r} erasure macrostate {r.erasure!r} "
                    f"is not one of its members", reward=r.id)
    if not p.rewards:
        rep.add("rewards", "no rewards declared")
    if p.orthmacr:
        unassigned = known - set(membership)
        for mid in sorted(unassigned):
            rep.add("reward-cover",
                    f"macrostate {mid!r} belongs to no reward", macrostate=mid)
    n_r0 = sum(1 for r in p.rewards if r.is_r0)
    n_r1 = sum(1 for r in p.rewards if r.is_r1)
    if n_r0 != 1:
        rep.add("anchors", f"expected exactly one worst reward, found {n_r0}")
    if n_r1 != 1:
        rep.add("anchors", f"expected exactly one best reward, found {n_r1}")
    if n_r0 == 1 and n_r1 == 1 and p.r0_id == p.r1_id:
        rep.add("anchors", "worst and best rewards coincide")

    for act in p.act_generators:
        if act.domain.ambient_dim != p.dim:
            rep.add("act-ambient",
                    f"generator act {act.label!r} lives in "
                    f"C^{act.domain.ambient_dim}", act=act.label)
    return rep


# -- derived structure --------------------------------------------------------

def event_lattice(p: QuantumDecisionProblem) -> dict[frozenset, Subspace]:
    """All joins of macrostate subsets, keyed by the id set.

    Includes the zero subspace (empty set) and the full space.  Guarded
    by LATTICE_GUARD since the lattice has 2^n elements.
    """
    n = len(p.macrostates)
    if n > LATTICE_GUARD:
        raise TooManyMacrostates(
            f"{n} macrostates would give 2^{n} events (guard is "
            f"{LATTICE_GUARD})")
    out: dict[frozenset, Subspace] = {}
    for mask in range(1 << n):
        ids = frozenset(p.macrostates[i].id for i in range(n)
                        if mask & (1 << i))
        out[ids] = p.event_of(sorted(ids))
    return out


def branch_decomposition(p: QuantumDecisionProblem,
                         psi: StateVector) -> list[tuple[str, StateVector]]:
    """Macrostate components of psi with norm above resolution.

    Ordered by the problem's macrostate order; components of norm at or
    below TOL_ORTH are dropped.
    """
    if psi.dim != p.dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs problem dim {p.dim}")
    out = []
    for m in p.macrostates:
        comp = project(m.subspace, psi)
        if comp.norm > TOL_ORTH:
            out.append((m.id, comp))
    return out


def born_weights(p: QuantumDecisionProblem, psi: StateVector) -> dict[str, float]:
    """Squared-amplitude weight of each reward in psi, normalized."""
    if psi.dim != p.dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs problem dim {p.dim}")
    n2 = psi.norm ** 2
    if n2 < ZERO_NORM_SQ:
        raise ZeroState("weights of a zero state are undefined")
    return {r.id: project(p.reward_subspace(r.id), psi).norm ** 2 / n2
            for r in p.rewards}


def smallest_event_ids(p: QuantumDecisionProblem,
                       act: PartialIsometryAct) -> frozenset:
    """Ids of the macrostates the act's image touches."""
    if act.domain.ambient_dim != p.dim:
        raise DimensionMismatch("act ambient dimension does not match problem")
    touched = set()
    for m in p.macrostates:
        amp = np.linalg.norm(m.subspace._adj @ act.matrix, axis=0)
        if np.any(amp > TOL_ORTH):
            touched.add(m.id)
    return frozenset(touched)


def smallest_event(p: QuantumDecisionProblem,
                   act: PartialIsometryAct) -> Subspace:
    """Smallest lattice event containing the act's image."""
    return p.event_of(sorted(smallest_event_ids(p, act)))


# -- accessible states --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AccessibleState:
    """A (possibly branched) state reached from a macrostate by an act.

    `source` is the pre-act state in the origin macrostate; `state` is
    its image under `witness`.  Comparisons at `state` are defined by
    pulling acts back through the witness.
    """
    state: StateVector
    origin: str
    witness: PartialIsometryAct
    source: StateVector


def reach_state(p: QuantumDecisionProblem, origin: str, source: StateVector,
                witness: PartialIsometryAct) -> AccessibleState:
    """Build an AccessibleState, checking the witness actually applies."""
    mac = p.macrostate(origin)
    if not mac.subspace.contains(source):
        raise OutsideDomain(
            f"source state is not inside macrostate {origin!r}")
    state = witness.apply(source)
    return AccessibleState(state=state, origin=origin, witness=witness,
                           source=source)
