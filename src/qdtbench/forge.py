"""Constructive act factory.

The richness side of the theory asserts that certain acts exist: pure
reward deliveries, in-reward branchings, record erasures, and compatible
combinations of blocks on orthogonal domains.  This module actually
builds them at desk scale.  An ActForge tracks, per macrostate, how many
basis directions earlier constructions in the same session consumed, so
successive images land on fresh orthogonal directions; when a request
cannot be honoured it raises instead of silently reusing directions.
ActForge.pick_member alone decides which member of a reward an image
lands in.

Stateless operations (identity, restriction, composition) are plain
functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .branching import _check_weights
from .errors import (CannotOrthogonalize, DomainMismatch,
                     InsufficientDimension, NormMismatch, NotSubevent,
                     OutsideDomain, ZeroSubspace)
from .hilbert import (PartialIsometryAct, StateVector, Subspace, TOL_NORM,
                      _norm, _orthonormal_columns)
from .problem import (Macrostate, QuantumDecisionProblem, Reward,
                      smallest_event, smallest_event_ids)

#: a Gram-Schmidt residual of at most this norm is dependent and dropped
GRAM_SCHMIDT_MIN = 1e-7


def identity_act(event: Subspace) -> PartialIsometryAct:
    """The act that leaves every state of the event untouched."""
    if event.is_zero:
        raise ZeroSubspace("the identity act needs a nonzero event")
    return PartialIsometryAct(event, event.basis.copy())


def restrict_act(act: PartialIsometryAct, sub: Subspace) -> PartialIsometryAct:
    """The same act on a subevent of its domain."""
    if not act.domain.contains_subspace(sub):
        raise NotSubevent("restriction target is not inside the act's domain")
    if sub.is_zero:
        raise ZeroSubspace("cannot restrict an act to the zero subspace")
    coords = act.domain._adj @ sub.basis
    return PartialIsometryAct(sub, act.matrix @ coords)


def compose_acts(p: QuantumDecisionProblem, outer: PartialIsometryAct,
                 inner: PartialIsometryAct) -> PartialIsometryAct:
    """outer after inner; outer must be available on inner's smallest event."""
    if not outer.domain.contains_subspace(smallest_event(p, inner)):
        raise DomainMismatch(
            "outer act is not defined on the inner act's smallest event")
    coords = outer.domain._adj @ inner.matrix
    return PartialIsometryAct(inner.domain, outer.matrix @ coords)


@dataclass(frozen=True)
class CompatCombined:
    """Result of a compatible combination.

    `blocks` are the per-domain acts actually embedded (equal to the
    requested ones unless a re-targeting was needed to keep images on
    distinct macrostates).
    """
    act: PartialIsometryAct
    blocks: tuple[PartialIsometryAct, ...]
    retargeted: tuple[bool, ...]


class ActForge:
    """Builds acts for one problem with fresh-direction bookkeeping.

    A forge is single-session state: acts built in one forge are
    guaranteed mutually fresh where the constructions promise it, but a
    new forge starts its cursors from zero.  Use one forge per logical
    construction (the produced acts are plain immutable values).
    """

    def __init__(self, problem: QuantumDecisionProblem):
        self.problem = problem
        self._cursor = {m.id: 0 for m in problem.macrostates}

    # -- allocation ------------------------------------------------------

    def spare(self, mid: str) -> int:
        """Unconsumed basis directions left in a macrostate."""
        return self.problem.macrostate(mid).subspace.dim - self._cursor[mid]

    def clone(self) -> ActForge:
        """A forge for the same problem whose cursors start where this
        forge's stand."""
        new = ActForge(self.problem)
        new._cursor = dict(self._cursor)
        return new

    def pick_member(self, reward: Reward, need: int,
                    exclude: Collection[str] = ()) -> str:
        """The placement rule: the lowest-id member of the reward, not in
        `exclude`, with room for `need` fresh directions."""
        for mid in sorted(reward.members):
            if mid in exclude:
                continue
            if self.spare(mid) >= need:
                return mid
        raise InsufficientDimension(
            f"no member of reward {reward.id!r} has {need} fresh "
            f"direction(s) available")

    def _alloc(self, mid: str, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("allocation count must be nonnegative")
        mac = self.problem.macrostate(mid)
        have = self.spare(mid)
        if count > have:
            raise CannotOrthogonalize(
                f"macrostate {mid!r} has {have} fresh direction(s) left, "
                f"{count} requested")
        start = self._cursor[mid]
        self._cursor[mid] = start + count
        return np.ascontiguousarray(mac.subspace.basis[:, start:start + count])

    # -- helpers -----------------------------------------------------------

    def _macrostate_of(self, psi: StateVector) -> Macrostate:
        unit = psi.unit()
        for m in self.problem.macrostates:
            if m.subspace.contains(unit):
                return m
        raise OutsideDomain("state does not lie inside any single macrostate")

    def _resolve_macrostate(self, mac) -> Macrostate:
        if isinstance(mac, Macrostate):
            return mac
        return self.problem.macrostate(mac)

    def _check_target(self, reward: Reward, target: str, need: int) -> None:
        """Refuse an explicit target outside the reward or without room."""
        if target not in reward.members:
            raise NotSubevent(
                f"{target!r} is not a member of reward {reward.id!r}")
        if self.spare(target) < need:
            raise InsufficientDimension(
                f"member {target!r} has no room for {need} direction(s)")

    def _basis_starting_at(self, mac: Macrostate,
                           psi_hat: StateVector) -> np.ndarray:
        """Orthonormal coordinate basis of the macrostate whose first
        vector is psi_hat (modified Gram-Schmidt over the stored basis)."""
        m = mac.subspace.dim
        first = mac.subspace._adj @ psi_hat.vec
        cols = [first / _norm(first)]
        for j in range(m):
            v = np.zeros(m, dtype=np.complex128)
            v[j] = 1.0
            for c in cols:
                v = v - c * np.vdot(c, v)
            n = _norm(v)
            if n > GRAM_SCHMIDT_MIN:
                cols.append(v / n)
            if len(cols) == m:
                break
        if len(cols) != m:
            raise CannotOrthogonalize(
                "failed to complete a basis around the given state")
        return np.column_stack(cols)

    def _superpose(self, mac: Macrostate, psi: StateVector,
                   weights: Sequence[float],
                   targets: Sequence[str]) -> PartialIsometryAct:
        """Act on psi's macrostate `mac` sending psi/|psi| to the
        superposition with squared amplitude weights[i] on a fresh unit
        vector of targets[i]; the rest of the macrostate basis goes to
        further fresh directions of the targets, scanned in order."""
        first = np.zeros(self.problem.dim, dtype=np.complex128)
        for w, t in zip(weights, targets):
            first = first + np.sqrt(w) * self._alloc(t, 1)[:, 0]
        m = mac.subspace.dim
        q = self._basis_starting_at(mac, psi.unit())
        images = [first]
        needed = m - 1
        for mid in targets:
            if needed == 0:
                break
            take = min(self.spare(mid), needed)
            if take > 0:
                block = self._alloc(mid, take)
                images.extend(block[:, j] for j in range(take))
                needed -= take
        if needed > 0:
            raise InsufficientDimension(
                f"{needed} more fresh direction(s) needed to embed the rest "
                f"of macrostate {mac.id!r}")
        rotated = np.column_stack(images)
        # rotated holds images of the q-basis; convert to the stored basis
        matrix = rotated @ q.conj().T
        try:
            return PartialIsometryAct(mac.subspace, matrix)
        except ValueError as exc:
            # overlapping targets yield non-orthogonal fresh directions
            raise CannotOrthogonalize(
                f"image directions drawn from {sorted(set(targets))} are "
                f"not mutually orthogonal: {exc}") from exc

    # -- constructions ----------------------------------------------------

    def reward_act(self, mac, reward, target: str | None = None) -> PartialIsometryAct:
        """Embed a whole macrostate into one member of the given reward."""
        m = self._resolve_macrostate(mac)
        r = self.problem.reward(reward)
        need = m.subspace.dim
        if target is None:
            target = self.pick_member(r, need)
        else:
            self._check_target(r, target, need)
        return PartialIsometryAct(m.subspace, self._alloc(target, need))

    def branching_act(self, psi: StateVector,
                      weights: Sequence[float]) -> PartialIsometryAct:
        """In-reward branching with prescribed squared amplitudes.

        psi must sit inside one macrostate of some reward r; the act
        sends psi/|psi| to a superposition of fresh unit vectors, one in
        each of the first len(weights) members of r that pick_member
        yields, with squared amplitude weights[i] on the i-th.  The rest
        of the macrostate follows into the same members, so the act's
        image stays inside r.
        """
        ws = _check_weights(weights)
        mac = self._macrostate_of(psi)
        r = self.problem.reward(self.problem.reward_of_macrostate(mac.id))
        targets: list[str] = []
        for _ in ws:
            targets.append(self.pick_member(r, 1, exclude=targets))
        return self._superpose(mac, psi, ws, targets)

    def weighted_act(self, psi: StateVector, reward_weights: Mapping[str, float],
                     targets: Mapping[str, str] | None = None) -> PartialIsometryAct:
        """Send psi/|psi| to a superposition across rewards.

        reward_weights maps reward id -> squared amplitude (zero entries
        are dropped; the rest must sum to one).  One fresh unit vector
        is drawn from a member of each weighted reward (the one named in
        `targets`, else pick_member's); the remainder of the macrostate
        follows into the same members.
        """
        items = [(rid, float(w)) for rid, w in sorted(reward_weights.items())
                 if float(w) != 0.0]
        ws = _check_weights([w for _, w in items])
        chosen: list[str] = []
        for rid, _ in items:
            r = self.problem.reward(rid)
            if targets is not None and rid in targets:
                self._check_target(r, targets[rid], 1)
                chosen.append(targets[rid])
            else:
                chosen.append(self.pick_member(r, 1, exclude=chosen))
        return self._superpose(self._macrostate_of(psi), psi, ws, chosen)

    def erasure_pair(self, psi1: StateVector, psi2: StateVector
                     ) -> tuple[PartialIsometryAct, PartialIsometryAct]:
        """Two acts erasing which-macrostate records inside one reward.

        psi1 and psi2 must have equal norms and live in macrostates of
        the same reward; the returned acts map them to the *same* state
        inside the reward's erasure macrostate.
        """
        gap = abs(psi1.norm - psi2.norm)
        if gap > TOL_NORM:
            raise NormMismatch(
                f"states differ in norm by {gap:.3e} (tolerance {TOL_NORM})")
        m1 = self._macrostate_of(psi1)
        m2 = self._macrostate_of(psi2)
        r1 = self.problem.reward_of_macrostate(m1.id)
        r2 = self.problem.reward_of_macrostate(m2.id)
        if r1 != r2:
            raise DomainMismatch(
                f"states live in different rewards ({r1!r} vs {r2!r})")
        r = self.problem.reward(r1)
        width = max(m1.subspace.dim, m2.subspace.dim)
        if self.spare(r.erasure) < width:
            raise InsufficientDimension(
                f"erasure macrostate {r.erasure!r} has fewer than {width} "
                f"fresh direction(s)")
        pool = self._alloc(r.erasure, width)
        acts = []
        for mac, psi in ((m1, psi1), (m2, psi2)):
            k = mac.subspace.dim
            q = self._basis_starting_at(mac, psi.unit())
            rotated = pool[:, :k]
            acts.append(PartialIsometryAct(mac.subspace, rotated @ q.conj().T))
        return acts[0], acts[1]

    def compat_combine(self, acts: Sequence[PartialIsometryAct]) -> CompatCombined:
        """One act on the join of orthogonal domains restricting to each block.

        Blocks whose images would share a macrostate with an earlier
        block are re-targeted: the offending image components move to
        fresh directions of an untouched member of the *same* reward, so
        reward-level weights are preserved.  The result satisfies the
        no-recoherence discipline (restrictions to orthogonal subdomains
        have orthogonal smallest events).
        """
        blocks = list(acts)
        if not blocks:
            raise DomainMismatch("nothing to combine")
        p = self.problem
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                if not a.domain.orthogonal_to(b.domain):
                    raise DomainMismatch(
                        "block domains are not pairwise orthogonal")
        used: set[str] = set()
        out_blocks: list[PartialIsometryAct] = []
        flags: list[bool] = []
        for act in blocks:
            ids = set(smallest_event_ids(p, act))
            conflict = sorted(ids & used)
            if not conflict:
                out_blocks.append(act)
                flags.append(False)
                used |= ids
                continue
            mat = act.matrix.copy()
            for nid in conflict:
                nmac = p.macrostate(nid)
                comp = nmac.subspace.projector() @ mat
                cbasis = _orthonormal_columns(comp)
                kn = cbasis.shape[1]
                rid = p.reward_of_macrostate(nid)
                r = p.reward(rid)
                try:
                    dest = self.pick_member(r, kn, exclude=used | ids)
                except InsufficientDimension:
                    raise CannotOrthogonalize(
                        f"no untouched member of reward {rid!r} can host the "
                        f"re-targeted image of macrostate {nid!r}") from None
                fresh = self._alloc(dest, kn)
                coeff = cbasis.conj().T @ mat
                mat = mat - cbasis @ coeff + fresh @ coeff
                ids.discard(nid)
                ids.add(dest)
            out_blocks.append(PartialIsometryAct(act.domain, mat))
            flags.append(True)
            used |= ids
        domain = Subspace(np.hstack([b.domain.basis for b in out_blocks]))
        matrix = np.hstack([b.matrix for b in out_blocks])
        return CompatCombined(PartialIsometryAct(domain, matrix),
                              tuple(out_blocks), tuple(flags))
