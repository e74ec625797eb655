"""Brute-force audits of availability axioms, rationality axioms, and the
lemma chain, on one concrete instance and oracle.

Every check is a sampled (or, where small enough, exhaustive)
instantiation of a universally quantified statement.  Each axiom and
lemma is one function, listed in one of three ordered tables (richness,
rationality, lemmas); a fourth table holds the two geometric searches,
which no audit runs.  The public audits run a whole table, and
`born_theorem_report` and `find_counterexample` run only the checks
they report.  Audits are deterministic functions of (instance, oracle,
samples, seed).  Streams: the check at position i of a table draws only
from substream base + i, with base 0 (richness), 100 (rationality), 200
(lemmas) or 300 (search); the richness act catalog draws from stream 90
and the equivalence-step search's catalog from stream 302.  So adding
samples to one check never shifts another, and a check run alone gives
the same result as in its full audit.  A failing check records a
replayable witness (serialized states, acts, margins).

Status semantics: "pass" means every instantiated check held, "fail"
means at least one did not (witness attached), "skip" means the
instance's dimensions did not admit the construction the check needs
(reason in the note).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .comparison import ELICIT_TOL, TIE_BAND, Comparison
from .errors import (CannotOrthogonalize, DomainMismatch,
                     InsufficientDimension, IntransitiveOracle,
                     NonMonotoneOracle)
from .forge import ActForge, compose_acts, identity_act, restrict_act
from .hilbert import (PartialIsometryAct, StateVector, Subspace, TOL_NORM,
                      TOL_ORTH, _norm, acts_agree_on, project)
from .io import encode_matrix, encode_vector
from .preference import (BornOracle, DefinitionalNullTest, PreferenceOracle,
                         UtilityTable, accessible_compare, elicit_utility,
                         expected_utility, is_null_pair, make_standard_act,
                         reduce_to_standard, reward_order, standard_weight)
from .problem import (QuantumDecisionProblem, branch_decomposition,
                      born_weights, reach_state, smallest_event_ids)

#: operator-norm radii for the sampled continuity probes
PERTURBATION_RADII = (1e-6, 1e-4, 1e-2)
#: rounding allowance on a perturbed act's distance bound of 10 radii
PERTURBATION_SLACK = 1e-12
#: failures recorded per axiom before the rest are only counted
WITNESS_CAP = 3
#: nonzero lattice events audited: all of them up to this many, else a
#: sample of this size
EVENT_CAP = 64
#: largest macrostate subset tried as a branch decomposition
DECOMPOSITION_MAX = 4
#: decompositions whose branch norms all agree this closely are one
SAME_NORMS_TOL = 1e-12
#: a Gaussian draw of at most this norm is redrawn, not normalized
DRAW_NORM_MIN = 1e-6
#: unequal sampled standard-act weights closer than this are skipped
DOMINANCE_GAP_MIN = 1e-6
#: a counterexample search reports a norm or weight gap above this
SEARCH_GAP = 1e-6

_CAPACITY_ERRORS = (CannotOrthogonalize, InsufficientDimension)
# combining blocks additionally needs pairwise-orthogonal domains
_COMBINE_ERRORS = _CAPACITY_ERRORS + (DomainMismatch,)


# -- report types ------------------------------------------------------------

@dataclass
class AxiomResult:
    name: str
    status: str                      # "pass" | "fail" | "skip"
    samples: int = 0
    witnesses: list[dict] = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "samples": self.samples, "note": self.note,
                "witnesses": self.witnesses}


@dataclass
class AuditReport:
    kind: str                        # "richness" | "rationality" | "lemmas"
    seed: int
    samples: int
    results: list[AxiomResult]
    oracle: str = ""
    problem: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "samples": self.samples,
                "oracle": self.oracle, "problem": self.problem,
                "ok": self.ok, "results": [r.to_dict() for r in self.results]}


def _problem_fingerprint(p: QuantumDecisionProblem) -> dict:
    return {"dim": p.dim, "macrostates": len(p.macrostates),
            "rewards": len(p.rewards), "orthmacr": p.orthmacr}


# -- shared helpers ------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def random_state_in(sub: Subspace, rng: np.random.Generator) -> StateVector:
    """Haar-uniform unit state inside a subspace."""
    while True:
        c = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
        n = _norm(c)
        if n > DRAW_NORM_MIN:
            return StateVector(sub.basis @ (c / n))


def random_weights(rng: np.random.Generator, k: int,
                   floor: float = 0.05) -> tuple[float, ...]:
    """k strictly positive weights summing to one, each at least floor/k-ish."""
    x = rng.uniform(floor, 1.0, size=k)
    x = x / x.sum()
    return tuple(float(v) for v in x)


def perturb_act(act: PartialIsometryAct, radius: float,
                rng: np.random.Generator) -> PartialIsometryAct:
    """A nearby act: operator-norm bump of size `radius`, re-orthonormalized.

    The polar factor is the nearest matrix with orthonormal columns, so
    the result is again a valid act and lies within about 2x radius of
    the original.
    """
    g = (rng.standard_normal(act.matrix.shape)
         + 1j * rng.standard_normal(act.matrix.shape))
    g = g / np.linalg.norm(g, 2)
    # the right polar factor w @ vh, as scipy.linalg.polar computes it
    w, _, vh = np.linalg.svd(act.matrix + radius * g, full_matrices=False)
    return PartialIsometryAct(act.domain, w @ vh, label=act.label)


def act_distance(a: PartialIsometryAct, b: PartialIsometryAct) -> float:
    """Operator-norm distance, both acts extended by zero off their domains."""
    return float(np.linalg.norm(a.as_operator() - b.as_operator(), 2))


def _py(value):
    """Recursively convert numpy scalars so reports are json-clean."""
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def act_payload(act: PartialIsometryAct) -> dict:
    return {"label": act.label, "domain_basis": encode_matrix(act.domain.basis),
            "matrix": encode_matrix(act.matrix)}


class _Tally:
    """Accumulates one axiom's checks, witnesses, and skip reasons."""

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.witnesses: list[dict] = []
        self.fail_count = 0
        self.skips: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, witness=None) -> None:
        """Count one check.  `witness` is a dict or a zero-argument callable
        returning one; a callable runs only for a failure that is kept."""
        self.samples += 1
        if not ok:
            self.fail_count += 1
            if witness is not None and len(self.witnesses) < WITNESS_CAP:
                self.witnesses.append(_py(witness() if callable(witness)
                                          else witness))

    def skip(self, reason: str) -> None:
        if reason not in self.skips:
            self.skips.append(reason)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def result(self) -> AxiomResult:
        if self.fail_count:
            status = "fail"
        elif self.samples == 0:
            status = "skip"
        else:
            status = "pass"
        bits = list(self.notes)
        if self.fail_count:
            bits.append(f"{self.fail_count} failing check(s)")
        bits.extend(f"skipped: {s}" for s in self.skips)
        return AxiomResult(self.name, status, self.samples,
                           self.witnesses, "; ".join(bits))


@dataclass
class _Run:
    """What the checks of one audit run share."""
    p: QuantumDecisionProblem
    samples: int
    seed: int
    oracle: PreferenceOracle | None = None
    utility: UtilityTable | None = None

    @property
    def n_light(self) -> int:
        """Sample budget of the costlier checks."""
        return max(4, self.samples // 10)

    @cached_property
    def catalog(self) -> list[PartialIsometryAct]:
        """The richness catalog, drawn from its own stream at first use."""
        return richness_catalog(self.p, _rng(self.seed, _CATALOG_STREAM))


def _events_to_audit(p: QuantumDecisionProblem, rng: np.random.Generator
                     ) -> list[tuple[tuple[str, ...], Subspace]]:
    """Nonzero lattice events: exhaustive when 2^n is small, sampled otherwise."""
    n = len(p.macrostates)
    ids = list(p.macrostate_ids)
    if 2 ** n - 1 <= EVENT_CAP:
        subsets = [list(c) for size in range(1, n + 1)
                   for c in combinations(ids, size)]
    else:
        subsets = [ids]
        for _ in range(EVENT_CAP - 1):
            size = int(rng.integers(1, n + 1))
            subsets.append(sorted(rng.choice(ids, size=size, replace=False)))
    return [(tuple(s), p.event_of(s)) for s in subsets]


# -- catalogs -----------------------------------------------------------------

def richness_catalog(p: QuantumDecisionProblem,
                     rng: np.random.Generator) -> list[PartialIsometryAct]:
    """Acts the availability audit exercises.

    Fixture-supplied acts first (they are the interesting ones), then one
    of each forged kind per macrostate/reward, then a combined act over
    all macrostates.  Construction failures from lack of room are simply
    omitted here; the per-axiom audits report their own skips.
    """
    acts: list[PartialIsometryAct] = []
    for i, g in enumerate(p.act_generators):
        acts.append(g if g.label else g.with_label(f"generator:{i}"))
    for m in p.macrostates:
        acts.append(identity_act(m.subspace).with_label(f"id:{m.id}"))
    if len(p.macrostates) > 1:
        acts.append(identity_act(p.event_of(p.macrostate_ids))
                    .with_label("id:*"))
    for m in p.macrostates:
        for rid in p.reward_ids:
            try:
                acts.append(ActForge(p).reward_act(m, rid)
                            .with_label(f"deliver:{m.id}->{rid}"))
            except _CAPACITY_ERRORS:
                pass
        own = p.reward(p.reward_of_macrostate(m.id))
        k = min(len(own.members), 3)
        psi = StateVector(m.subspace.basis[:, 0])
        try:
            acts.append(ActForge(p).branching_act(psi, random_weights(rng, k))
                        .with_label(f"branch:{m.id}"))
        except _CAPACITY_ERRORS:
            pass
    for r in p.rewards:
        ms = sorted(r.members)
        first, second = ms[0], ms[1] if len(ms) > 1 else ms[0]
        psi1 = random_state_in(p.macrostate(first).subspace, rng)
        psi2 = random_state_in(p.macrostate(second).subspace, rng)
        try:
            e1, e2 = ActForge(p).erasure_pair(psi1, psi2)
            acts.append(e1.with_label(f"erase:{r.id}:a"))
            acts.append(e2.with_label(f"erase:{r.id}:b"))
        except _CAPACITY_ERRORS:
            pass
    try:
        forge = ActForge(p)
        blocks = [forge.reward_act(m, p.reward_of_macrostate(m.id))
                  for m in p.macrostates]
        acts.append(forge.compat_combine(blocks).act
                    .with_label("combined:deliver-all"))
    except _COMBINE_ERRORS:
        pass
    return acts


def macrostate_probe_acts(p: QuantumDecisionProblem, mac,
                          rng: np.random.Generator | None = None
                          ) -> tuple[StateVector, list[PartialIsometryAct]]:
    """A probe state in the macrostate plus a small act menu there."""
    psi = StateVector(mac.subspace.basis[:, 0])
    acts = [identity_act(mac.subspace).with_label(f"id:{mac.id}")]
    for rid in p.reward_ids:
        try:
            acts.append(ActForge(p).reward_act(mac, rid)
                        .with_label(f"deliver:{rid}"))
        except _CAPACITY_ERRORS:
            pass
    menu = [0.0, 0.3, 1.0]
    if rng is not None:
        menu.append(float(rng.uniform(0.1, 0.9)))
    for a in menu:
        try:
            acts.append(make_standard_act(p, psi, a, forge=ActForge(p))
                        .with_label(f"std:{a:.6f}"))
        except _CAPACITY_ERRORS:
            pass
    for g in p.act_generators:
        if g.domain.contains(psi):
            acts.append(g)
    return psi, acts


def null_probe_catalog(p: QuantumDecisionProblem, support_ids,
                       ) -> list[PartialIsometryAct]:
    """Same-domain acts that disagree on exactly one support macrostate.

    The domain is the join of the support; each probe keeps every other
    support macrostate fixed and reroutes one of them to a fresh slice
    of some reward member *outside* the support (unitarity forbids
    rerouting inside the domain while fixing the rest).  The identity on
    the domain is always included, so a single feasible reroute to a
    reward of different utility already yields a discriminating pair.
    """
    support = sorted(support_ids)
    domain = p.event_of(support)
    acts = [identity_act(domain).with_label("null-probe:id")]
    for mstar in support:
        mac = p.macrostate(mstar)
        kept = [m for m in support if m != mstar]
        keep = np.zeros((p.dim, p.dim), dtype=np.complex128)
        for other in kept:
            keep = keep + p.macrostate(other).subspace.projector()
        for rid in p.reward_ids:
            target = _probe_target(p, mstar, rid, support, kept)
            if target is None:
                continue
            fresh = p.macrostate(target).subspace.basis[:, :mac.subspace.dim]
            op = keep + fresh @ mac.subspace._adj
            acts.append(PartialIsometryAct(
                domain, op @ domain.basis,
                label=f"null-probe:{mstar}->{rid}"))
    return acts


def _probe_target(p: QuantumDecisionProblem, mstar: str, rid: str,
                  support, kept) -> str | None:
    """A reward member big enough to absorb ``mstar`` without touching
    the kept support members (the rerouted image must stay orthogonal
    to them for the probe to be an isometry)."""
    need = p.macrostate(mstar).subspace.dim
    for cand in sorted(p.reward(rid).members):
        if cand in support:
            continue
        sub = p.macrostate(cand).subspace
        if sub.dim < need:
            continue
        if all(p.macrostate(o).subspace.orthogonal_to(sub) for o in kept):
            return cand
    return None


def discriminable_support(p: QuantumDecisionProblem, support_ids,
                          utility: UtilityTable) -> bool:
    """Whether every support macrostate has a probe that moves utility.

    The definitional null test can only see a macrostate's weight if
    some same-domain act reroutes it to a reward of different utility;
    that needs a free member (outside the support, large enough) of such
    a reward.  Full-support states in a tight instance fail this, which
    is the expected finite-dimensional blind spot, not a defect of the
    criterion.
    """
    support = set(support_ids)
    for mstar in support:
        own = utility.of(p.reward_of_macrostate(mstar))
        kept = [m for m in support if m != mstar]
        found = False
        for rid in p.reward_ids:
            if abs(utility.of(rid) - own) <= TIE_BAND:
                continue
            if _probe_target(p, mstar, rid, support, kept) is not None:
                found = True
                break
        if not found:
            return False
    return True


# -- richness checks -------------------------------------------------------------
#
# Every check takes the run it belongs to, the tally it reports into and
# its own substream.

def _indol(run, t, rng):
    """The identity is available on every event and fixes it."""
    for ids, event in _events_to_audit(run.p, rng):
        act = identity_act(event)
        psi = random_state_in(event, rng)
        ok = (act.range_subspace().equals(event)
              and act.apply(psi).allclose(psi))
        t.check(ok, {"event": list(ids)})


def _restr(run, t, rng):
    """Restrictions to subevents stay available and agree."""
    for act in run.catalog:
        inside = [m for m in run.p.macrostates
                  if act.domain.contains_subspace(m.subspace)]
        if len(inside) < 2:
            continue
        for m in inside:
            try:
                sub = restrict_act(act, m.subspace)
            except Exception as exc:  # any failure is an availability failure
                t.check(False, lambda: {"act": act_payload(act),
                                        "subevent": m.id,
                                        "error": repr(exc)})
                continue
            t.check(acts_agree_on(sub, act, m.subspace),
                    lambda: {"act": act_payload(act), "subevent": m.id})
    if t.samples == 0:
        t.skip("no catalog act spans more than one macrostate")


def _compos(run, t, rng):
    """Following one act with another available on its image event."""
    p = run.p
    for act in run.catalog[:2 * run.n_light]:
        event_ids = sorted(smallest_event_ids(p, act))
        followers = [identity_act(p.event_of(event_ids))
                     .with_label("follow:id")]
        try:
            forge = ActForge(p)
            blocks = [forge.reward_act(mid, p.reward_of_macrostate(mid))
                      for mid in event_ids]
            followers.append(forge.compat_combine(blocks).act
                             .with_label("follow:deliver"))
        except _COMBINE_ERRORS:
            pass
        psi = random_state_in(act.domain, rng)
        for v in followers:
            try:
                comp = compose_acts(p, v, act)
            except Exception as exc:
                t.check(False, lambda: {"act": act_payload(act),
                                        "follower": v.label,
                                        "error": repr(exc)})
                continue
            want = v.apply(act.apply(psi))
            t.check(comp.apply(psi).allclose(want),
                    lambda: {"act": act_payload(act), "follower": v.label})


def _irrev(run, t, rng):
    """Restrictions to orthogonal subevents have orthogonal images."""
    p = run.p
    for act in run.catalog:
        inside = [m for m in p.macrostates
                  if act.domain.contains_subspace(m.subspace)]
        if len(inside) < 2:
            continue
        images = {m.id: smallest_event_ids(p, restrict_act(act, m.subspace))
                  for m in inside}
        for a, b in combinations(inside, 2):
            shared = sorted(images[a.id] & images[b.id])
            t.check(not shared,
                    lambda: {"act": act_payload(act), "pair": [a.id, b.id],
                             "shared_macrostates": shared})
    if t.samples == 0:
        t.skip("no catalog act spans more than one macrostate")


def _prcont(run, t, rng):
    """Sampled perturbations of available acts stay available and nearby
    (a numerical proxy for openness, not an open-set proof)."""
    t.note("sampled openness proxy at radii "
           + ",".join(f"{r:g}" for r in PERTURBATION_RADII))
    for act in run.catalog[:run.n_light]:
        for radius in PERTURBATION_RADII:
            try:
                near = perturb_act(act, radius, rng)
            except Exception as exc:
                t.check(False, lambda: {"act": act_payload(act),
                                        "radius": radius,
                                        "error": repr(exc)})
                continue
            dist = act_distance(near, act)
            t.check(dist <= 10.0 * radius + PERTURBATION_SLACK,
                    lambda: {"act": act_payload(act), "radius": radius,
                             "distance": dist})


def _reav(run, t, rng):
    """Every reward is deliverable from every macrostate."""
    p = run.p
    for m in p.macrostates:
        for rid in p.reward_ids:
            try:
                act = ActForge(p).reward_act(m, rid)
            except _CAPACITY_ERRORS as exc:
                t.skip(f"{m.id}->{rid}: {exc}")
                continue
            ids = smallest_event_ids(p, act)
            t.check(ids <= set(p.reward(rid).members),
                    {"macrostate": m.id, "reward": rid,
                     "image_macrostates": sorted(ids)})


def _brav(run, t, rng):
    """In-reward branchings with prescribed squared amplitudes."""
    p = run.p
    nontrivial = False
    for m in p.macrostates:
        own = p.reward(p.reward_of_macrostate(m.id))
        kmax = len(own.members)
        psi = random_state_in(m.subspace, rng)
        for k in range(1, min(kmax, 3) + 1):
            ws = random_weights(rng, k)
            # the members pick_member yields on a fresh forge
            targets = sorted(own.members)[:k]
            try:
                act = ActForge(p).branching_act(psi, ws)
            except _CAPACITY_ERRORS as exc:
                t.skip(f"{m.id} k={k}: {exc}")
                continue
            if k > 1:
                nontrivial = True
            phi = act.apply(psi.unit())
            got = [project(p.macrostate(mid).subspace, phi).norm ** 2
                   for mid in targets]
            in_reward = smallest_event_ids(p, act) <= set(own.members)
            t.check(in_reward and max(abs(g - w)
                                      for g, w in zip(got, ws)) <= TOL_NORM,
                    {"macrostate": m.id, "weights": list(ws),
                     "achieved": got, "in_reward": in_reward})
    if t.samples and not nontrivial:
        t.note("only single-branch branchings fit this instance")


def _eras(run, t, rng):
    """Same-norm states of one reward are erasable to a common state."""
    p = run.p
    for r in p.rewards:
        ms = sorted(r.members)
        pairs = [(ms[0], ms[0])]
        if len(ms) > 1:
            pairs.append((ms[0], ms[1]))
        for m1, m2 in pairs:
            psi1 = random_state_in(p.macrostate(m1).subspace, rng)
            psi2 = random_state_in(p.macrostate(m2).subspace, rng)
            try:
                e1, e2 = ActForge(p).erasure_pair(psi1, psi2)
            except _CAPACITY_ERRORS as exc:
                t.skip(f"{r.id} ({m1},{m2}): {exc}")
                continue
            img1, img2 = e1.apply(psi1), e2.apply(psi2)
            sink = p.macrostate(r.erasure).subspace
            ok = (img1.allclose(img2)
                  and sink.contains(img1)
                  and smallest_event_ids(p, e1) <= set(ms)
                  and smallest_event_ids(p, e2) <= set(ms))
            t.check(ok, {"reward": r.id, "pair": [m1, m2],
                         "gap": (img1 - img2).norm})


def _compat(run, t, rng):
    """Per-macrostate blocks combine into one act with orthogonal images
    that restricts back to each block."""
    p = run.p
    mids = list(p.macrostate_ids)
    for trial in range(run.n_light):
        if len(mids) < 2:
            t.skip("needs at least two macrostates")
            break
        size = int(rng.integers(2, min(len(mids), 4) + 1))
        chosen = sorted(rng.choice(mids, size=size, replace=False))
        forge = ActForge(p)
        blocks = []
        try:
            for mid in chosen:
                mac = p.macrostate(mid)
                kind = int(rng.integers(3))
                if kind == 0:
                    blocks.append(identity_act(mac.subspace))
                elif kind == 1:
                    blocks.append(forge.reward_act(
                        mid, p.reward_of_macrostate(mid)))
                else:
                    own = p.reward(p.reward_of_macrostate(mid))
                    k = min(len(own.members), 2)
                    blocks.append(forge.branching_act(
                        random_state_in(mac.subspace, rng),
                        random_weights(rng, k)))
            combined = forge.compat_combine(blocks)
        except _COMBINE_ERRORS as exc:
            t.skip(f"{','.join(chosen)}: {exc}")
            continue
        agree = all(acts_agree_on(combined.act, blk, blk.domain)
                    for blk in combined.blocks)
        images = [smallest_event_ids(p, blk) for blk in combined.blocks]
        disjoint = all(not (a & b) for a, b in combinations(images, 2))
        t.check(agree and disjoint,
                {"macrostates": chosen, "agree": agree,
                 "images_disjoint": disjoint,
                 "retargeted": list(combined.retargeted)})


# -- rationality checks ------------------------------------------------------------

def _ord(run, t, rng):
    """Completeness/antisymmetry of the pair answers and transitivity
    over sampled act triples.

    The asymmetry pass asks every ordered pair once; transitivity reads
    those answers back, which is sound because oracles are pure.
    """
    p, compare = run.p, run.oracle.compare
    per_mac = max(1, run.samples // max(1, len(p.macrostates)))
    for mac in p.macrostates:
        psi, acts = macrostate_probe_acts(p, mac, rng)
        answer: dict[tuple[int, int], int] = {}
        for (i, u), (j, v) in combinations(enumerate(acts), 2):
            c, back = compare(psi, u, v), compare(psi, v, u)
            answer[i, j], answer[j, i] = int(c), int(back)
            t.check(c is back.flipped(),
                    {"kind": "asymmetry", "macrostate": mac.id,
                     "u": u.label, "v": v.label,
                     "forward": int(c), "backward": int(back)})
        triples = list(combinations(range(len(acts)), 3))
        # exhaust small menus so planted cycles cannot slip past sampling
        cap = max(per_mac, 512)
        if len(triples) > cap:
            idx = rng.choice(len(triples), size=cap, replace=False)
            triples = [triples[i] for i in sorted(idx)]
        for i, j, k in triples:
            for a, b, c_ in permutations((i, j, k)):
                cab, cbc, cac = answer[a, b], answer[b, c_], answer[a, c_]
                if cab >= 0 and cbc >= 0 and cac < 0:
                    t.check(False,
                            lambda: {"kind": "transitivity",
                                     "macrostate": mac.id,
                                     "cycle": [acts[a].label, acts[b].label,
                                               acts[c_].label],
                                     "comparisons": [cab, cbc, cac],
                                     "state": encode_vector(psi.vec)})
                else:
                    t.check(True)


def _actndeg(run, t, rng):
    """At least one strict preference somewhere."""
    p = run.p
    found = False
    for mac in p.macrostates:
        psi, acts = macrostate_probe_acts(p, mac, rng)
        for u, v in combinations(acts, 2):
            t.samples += 1
            if run.oracle.compare(psi, u, v) is not Comparison.TIE:
                found = True
                t.note(f"strict pair at {mac.id}: "
                       f"{u.label} vs {v.label}")
                break
        if found:
            break
    if not found:
        t.check(False, {"kind": "degenerate",
                        "detail": "every sampled comparison tied"})


def _brindif(run, t, rng):
    """Branching acts are indifferent to doing nothing."""
    p = run.p
    nontrivial = False
    for mac in p.macrostates:
        own = p.reward(p.reward_of_macrostate(mac.id))
        psi = random_state_in(mac.subspace, rng)
        kmax = min(len(own.members), 3)
        weight_menu = [random_weights(rng, k) for k in range(1, kmax + 1)]
        if kmax >= 2:
            weight_menu.append((0.5, 0.5))
        for ws in weight_menu:
            try:
                act = ActForge(p).branching_act(psi, ws)
            except _CAPACITY_ERRORS as exc:
                t.skip(f"{mac.id} k={len(ws)}: {exc}")
                continue
            if len(ws) > 1:
                nontrivial = True
            got = run.oracle.compare(psi, act, identity_act(mac.subspace))
            t.check(got is Comparison.TIE,
                    lambda: {"macrostate": mac.id, "weights": list(ws),
                             "state": encode_vector(psi.vec),
                             "branching_act": act_payload(act),
                             "got": int(got)})
    if t.samples and not nontrivial:
        t.note("only single-branch branchings fit this instance")


def _erindif(run, t, rng):
    """Erasure acts are indifferent to doing nothing."""
    p = run.p
    for r in p.rewards:
        ms = sorted(r.members)
        m1, m2 = ms[0], ms[1] if len(ms) > 1 else ms[0]
        psi1 = random_state_in(p.macrostate(m1).subspace, rng)
        psi2 = random_state_in(p.macrostate(m2).subspace, rng)
        try:
            e1, e2 = ActForge(p).erasure_pair(psi1, psi2)
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{r.id}: {exc}")
            continue
        for psi, act, mid in ((psi1, e1, m1), (psi2, e2, m2)):
            got = run.oracle.compare(
                psi, act, identity_act(p.macrostate(mid).subspace))
            t.check(got is Comparison.TIE,
                    lambda: {"reward": r.id, "macrostate": mid,
                             "state": encode_vector(psi.vec), "got": int(got)})


def _resup(run, t, rng):
    """Any act keeping the state inside its own reward is indifferent to
    doing nothing."""
    p = run.p
    for mac in p.macrostates:
        own = p.reward(p.reward_of_macrostate(mac.id))
        psi = random_state_in(mac.subspace, rng)
        keepers: list[PartialIsometryAct] = []
        try:
            keepers.append(ActForge(p).reward_act(mac, own.id)
                           .with_label("keep:deliver"))
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{mac.id} deliver: {exc}")
        k = min(len(own.members), 2)
        try:
            keepers.append(ActForge(p).branching_act(
                psi, random_weights(rng, k)).with_label("keep:branch"))
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{mac.id} branch: {exc}")
        for act in keepers:
            got = run.oracle.compare(psi, act, identity_act(mac.subspace))
            t.check(got is Comparison.TIE,
                    lambda: {"macrostate": mac.id, "act": act_payload(act),
                             "state": encode_vector(psi.vec), "got": int(got)})


def _stasup(run, t, rng):
    """Equal final states force equal preferences, across different
    initial states and macrostates."""
    p = run.p
    for r in p.rewards:
        ms = sorted(r.members)
        mac_pairs = [(ms[0], ms[0])]
        if len(ms) > 1:
            mac_pairs.append((ms[0], ms[1]))
        for m1, m2 in mac_pairs:
            psi1 = random_state_in(p.macrostate(m1).subspace, rng)
            psi2 = random_state_in(p.macrostate(m2).subspace, rng)
            forge = ActForge(p)
            try:
                e1, e2 = forge.erasure_pair(psi1, psi2)
            except _CAPACITY_ERRORS as exc:
                t.skip(f"{r.id}: {exc}")
                continue
            phi = e1.apply(psi1)
            follow = None
            for weights in ({p.r0_id: 0.5, p.r1_id: 0.5}, {p.r1_id: 1.0},
                            {p.r0_id: 1.0}):
                try:
                    follow = forge.clone().weighted_act(phi, weights)
                    break
                except _CAPACITY_ERRORS:
                    continue
            if follow is None:
                t.skip(f"{r.id}: no room for a follow-up act")
                continue
            try:
                u1 = compose_acts(p, follow, e1)
                u2 = compose_acts(p, follow, e2)
            except _COMBINE_ERRORS as exc:
                # overlap can swell an image's smallest event past the
                # follow-up's domain; that is a probe failure, not StaSup
                t.skip(f"{r.id}: {exc}")
                continue
            c1 = run.oracle.compare(psi1, u1, e1)
            c2 = run.oracle.compare(psi2, u2, e2)
            t.check(c1 is c2,
                    lambda: {"reward": r.id, "macrostates": [m1, m2],
                             "state1": encode_vector(psi1.vec),
                             "state2": encode_vector(psi2.vec),
                             "got": [int(c1), int(c2)]})


def _macindif(run, t, rng):
    """Preferences between acts landing in fixed macrostate-within-reward
    cells ignore the initial state/macrostate."""
    p = run.p
    for trial in range(run.n_light):
        m1 = p.macrostates[int(rng.integers(len(p.macrostates)))]
        m2 = p.macrostates[int(rng.integers(len(p.macrostates)))]
        rids = list(p.reward_ids)
        ra = rids[int(rng.integers(len(rids)))]
        rb = rids[int(rng.integers(len(rids)))]
        need = max(m1.subspace.dim, m2.subspace.dim)
        cells = ActForge(p)
        try:
            na = cells.pick_member(p.reward(ra), need)
            nb = cells.pick_member(p.reward(rb), need,
                                   exclude=(na,) if ra == rb else ())
        except InsufficientDimension:
            na = nb = None
        if na == nb:
            t.skip(f"no distinct cells of size {need} for {ra},{rb}")
            continue
        psi1 = random_state_in(m1.subspace, rng)
        psi2 = random_state_in(m2.subspace, rng)
        try:
            f1, f2 = ActForge(p), ActForge(p)
            u1 = f1.reward_act(m1, ra, target=na)
            v1 = f1.reward_act(m1, rb, target=nb)
            u2 = f2.reward_act(m2, ra, target=na)
            v2 = f2.reward_act(m2, rb, target=nb)
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{m1.id},{m2.id}->{na},{nb}: {exc}")
            continue
        c1 = run.oracle.compare(psi1, u1, v1)
        c2 = run.oracle.compare(psi2, u2, v2)
        t.check(c1 is c2,
                {"from": [m1.id, m2.id], "cells": [na, nb],
                 "rewards": [ra, rb], "got": [int(c1), int(c2)]})


def _diaccons(run, t, rng):
    """Preferences after an act match preferences over the composites,
    checked at unbranched images."""
    p = run.p
    for mac in p.macrostates:
        psi = random_state_in(mac.subspace, rng)
        rid = p.reward_ids[int(rng.integers(len(p.reward_ids)))]
        try:
            forge = ActForge(p)
            u = forge.reward_act(mac, rid)
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{mac.id}->{rid}: {exc}")
            continue
        target_id = sorted(smallest_event_ids(p, u))[0]
        tmac = p.macrostate(target_id)
        phi = u.apply(psi.unit())
        v = identity_act(tmac.subspace).with_label("after:id")
        v2 = None
        for rid2 in p.reward_ids:
            if rid2 == p.reward_of_macrostate(target_id):
                continue
            try:
                v2 = forge.clone().reward_act(tmac, rid2) \
                    .with_label(f"after:deliver:{rid2}")
                break
            except _CAPACITY_ERRORS:
                continue
        if v2 is None:
            t.skip(f"{mac.id}: no follow-up act fits after delivery")
            continue
        try:
            comp1, comp2 = compose_acts(p, v, u), compose_acts(p, v2, u)
        except _COMBINE_ERRORS as exc:
            t.skip(f"{mac.id}: {exc}")
            continue
        c_after = run.oracle.compare(phi, v, v2)
        c_comp = run.oracle.compare(psi, comp1, comp2)
        t.check(c_after is c_comp,
                {"macrostate": mac.id, "via": rid,
                 "got_after": int(c_after), "got_composite": int(c_comp)})


def _brcons(run, t, rng):
    """Branchwise agreement forces agreement at the branched state,
    strictly when a non-null branch is strict."""
    p = run.p
    for trial in range(run.n_light):
        mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
        psi0 = random_state_in(mac.subspace, rng)
        rids = list(p.reward_ids)
        if len(rids) < 2:
            t.skip("needs at least two rewards")
            break
        pick = rng.choice(len(rids), size=2, replace=False)
        w = float(rng.uniform(0.25, 0.75))
        weights = {rids[int(pick[0])]: w, rids[int(pick[1])]: 1.0 - w}
        forge = ActForge(p)
        try:
            wact = forge.weighted_act(psi0, weights)
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{mac.id}: {exc}")
            continue
        acc = reach_state(p, mac.id, psi0, wact)
        branches = branch_decomposition(p, acc.state)
        if len(branches) < 2:
            t.skip(f"{mac.id}: image did not branch")
            continue
        strict_at = int(rng.integers(len(branches)))
        alpha, beta = 0.8, 0.2
        if trial % 3 == 2:
            beta = alpha  # all-tie variant
        fv, fv2 = forge.clone(), forge.clone()
        blocks_v, blocks_v2 = [], []
        try:
            for i, (mid, comp) in enumerate(branches):
                if i == strict_at:
                    blocks_v.append(fv.weighted_act(
                        comp.unit(), {p.r0_id: 1 - alpha, p.r1_id: alpha}))
                    blocks_v2.append(fv2.weighted_act(
                        comp.unit(), {p.r0_id: 1 - beta, p.r1_id: beta}))
                else:
                    blocks_v.append(identity_act(p.macrostate(mid).subspace))
                    blocks_v2.append(identity_act(p.macrostate(mid).subspace))
            comb_v = fv.compat_combine(blocks_v)
            comb_v2 = fv2.compat_combine(blocks_v2)
        except _COMBINE_ERRORS as exc:
            t.skip(f"{mac.id}: {exc}")
            continue
        v, v2 = comb_v.act, comb_v2.act
        per_branch = [int(run.oracle.compare(comp.unit(), bu, bv))
                      for (mid, comp), bu, bv in zip(branches, comb_v.blocks,
                                                     comb_v2.blocks)]
        got = accessible_compare(p, acc, v, v2, run.oracle)
        if all(c >= 0 for c in per_branch):
            want_strict = any(c > 0 for c in per_branch)
            ok = (got is Comparison.BETTER if want_strict
                  else got is Comparison.TIE)
        else:
            # mixed branch verdicts: the axiom is silent, count as checked
            ok = True
        t.check(ok, lambda: {"origin": mac.id,
                             "branches": [b[0] for b in branches],
                             "per_branch": per_branch, "got": int(got),
                             "state": encode_vector(acc.state.vec)})


def _solcont(run, t, rng):
    """Strict preferences survive small perturbations of both acts."""
    p, compare = run.p, run.oracle.compare
    t.note("pass/fail judged at radius 1e-06; larger radii informational")
    flips_large = 0
    for mac in p.macrostates:
        psi, acts = macrostate_probe_acts(p, mac)
        answers = [(u, v, compare(psi, u, v))
                   for u, v in combinations(acts, 2)]
        strict = [(u, v) for u, v, c in answers if c is Comparison.BETTER]
        strict += [(v, u) for u, v, c in answers if c is Comparison.WORSE]
        for u, v in strict[:run.n_light]:
            for radius in PERTURBATION_RADII:
                u2 = perturb_act(u, radius, rng)
                v2 = perturb_act(v, radius, rng)
                got = compare(psi, u2, v2)
                if radius == PERTURBATION_RADII[0]:
                    t.check(got is Comparison.BETTER,
                            lambda: {"macrostate": mac.id, "radius": radius,
                                     "u": u.label, "v": v.label,
                                     "got": int(got),
                                     "state": encode_vector(psi.vec),
                                     "u_act": act_payload(u),
                                     "v_act": act_payload(v)})
                elif got is not Comparison.BETTER:
                    flips_large += 1
    if flips_large:
        t.note(f"{flips_large} flip(s) at larger radii")


# -- lemma checks ---------------------------------------------------------------

def _equivalence(run, t, rng):
    """Matched per-reward image norms force matched outcomes."""
    p = run.p
    for trial in range(run.samples):
        m1 = p.macrostates[int(rng.integers(len(p.macrostates)))]
        m2 = p.macrostates[int(rng.integers(len(p.macrostates)))]
        psi1 = random_state_in(m1.subspace, rng)
        psi2 = random_state_in(m2.subspace, rng)
        rids = list(p.reward_ids)
        wu = dict(zip(rids, random_weights(rng, len(rids))))
        wv = dict(zip(rids, random_weights(rng, len(rids))))
        try:
            u1 = ActForge(p).weighted_act(psi1, wu)
            v1 = ActForge(p).weighted_act(psi1, wv)
            u2 = ActForge(p).weighted_act(psi2, wu)
            v2 = ActForge(p).weighted_act(psi2, wv)
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{m1.id},{m2.id}: {exc}")
            continue
        c1 = run.oracle.compare(psi1, u1, v1)
        c2 = run.oracle.compare(psi2, u2, v2)
        t.check(c1 is c2,
                {"macrostates": [m1.id, m2.id], "weights_u": wu,
                 "weights_v": wv, "got": [int(c1), int(c2)]})


def _reward_nondegeneracy(run, t, rng):
    """The induced reward order has >= 2 tiers."""
    try:
        tiers = reward_order(run.p, run.oracle)
        t.check(len(tiers) >= 2, {"tiers": tiers})
    except IntransitiveOracle as exc:
        t.check(False, {"error": repr(exc)})


def _nullity(run, t, rng):
    """The geometric criterion matches the definitional test on every
    lattice event, at states with clean macrostate support."""
    p = run.p
    events = [((), p.event_of([]))] + _events_to_audit(p, rng)
    supports = _null_supports(p, rng, run.utility,
                              count=max(2, run.n_light // 2))
    if not supports:
        t.skip("no support subset leaves probe room that moves utility")
    for support in supports:
        phi = _state_with_support(p, support, rng)
        definitional = DefinitionalNullTest(
            phi, null_probe_catalog(p, support), run.oracle)
        for ids, event in events:
            a = is_null_pair(p, event, phi)
            b = definitional.is_null(event)
            t.check(a == b,
                    lambda: {"event": list(ids), "support": list(support),
                             "criterion": a, "definitional": b,
                             "state": encode_vector(phi.vec)})


def _dominance(run, t, rng):
    """Standard acts order strictly by weight, ties at equal weight."""
    p = run.p
    mac = min(p.macrostates, key=lambda m: (m.subspace.dim, m.id))
    psi = StateVector(mac.subspace.basis[:, 0])
    for trial in range(run.samples):
        a, b = sorted(rng.uniform(0.0, 1.0, size=2))
        if trial % 4 == 0:
            a = b  # exercise the tie branch
        elif b - a < DOMINANCE_GAP_MIN:
            continue
        try:
            ua = make_standard_act(p, psi, b, forge=ActForge(p))
            ub = make_standard_act(p, psi, a, forge=ActForge(p))
        except _CAPACITY_ERRORS as exc:
            t.skip(str(exc))
            break
        got = run.oracle.compare(psi, ua, ub)
        want = Comparison.TIE if a == b else Comparison.BETTER
        t.check(got is want,
                {"alpha": float(b), "beta": float(a), "got": int(got)})


def _utility(run, t, rng):
    """Elicitation is probe-independent (uniqueness) and matches the
    reward order (monotonicity)."""
    p = run.p
    tol = ELICIT_TOL
    probes = sorted({m.id for m in p.macrostates})[:2]
    try:
        tables = [elicit_utility(p, run.oracle, tol=tol, probe=pr).table
                  for pr in probes]
        if len(tables) == 2:
            for rid in p.reward_ids:
                gap = abs(tables[0].of(rid) - tables[1].of(rid))
                t.check(gap <= 2 * tol,
                        {"reward": rid, "values": [tables[0].of(rid),
                                                   tables[1].of(rid)]})
        rank = {rid: i for i, tier in enumerate(reward_order(p, run.oracle))
                for rid in tier}
        for ra, rb in combinations(p.reward_ids, 2):
            ua, ub = tables[0].of(ra), tables[0].of(rb)
            if abs(ua - ub) <= 2 * tol:
                continue
            t.check((ua > ub) == (rank[ra] < rank[rb]),
                    {"rewards": [ra, rb], "utilities": [ua, ub],
                     "tiers": [rank[ra], rank[rb]]})
    except (NonMonotoneOracle, IntransitiveOracle) as exc:
        t.check(False, {"error": repr(exc)})


def _standard_act(run, t, rng):
    """Every act reduces to an equivalent standard act whose weight is its
    expected utility."""
    p = run.p
    for trial in range(run.n_light):
        mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
        psi = random_state_in(mac.subspace, rng)
        rids = list(p.reward_ids)
        if len(rids) > 2:
            # two-reward superpositions keep the blockwise reduction
            # within the anchor rewards' spare directions
            pick = rng.choice(len(rids), size=2, replace=False)
            rids = [rids[int(i)] for i in sorted(pick)]
        w = dict(zip(rids, random_weights(rng, len(rids))))
        try:
            act = ActForge(p).weighted_act(psi, w)
            std = reduce_to_standard(p, psi, act, run.utility)
        except _COMBINE_ERRORS as exc:
            # overlapping macrostates break the blockwise reduction
            t.skip(f"{mac.id}: {exc}")
            continue
        eu = expected_utility(p, psi, act, run.utility)
        wt = standard_weight(p, psi, std)
        got = run.oracle.compare(psi, act, std)
        t.check(abs(wt - eu) <= TIE_BAND and got is Comparison.TIE,
                {"macrostate": mac.id, "weights": w, "eu": eu,
                 "standard_weight": wt, "got": int(got)})


def _born_theorem(run, t, rng):
    """The oracle's verdicts equal the sign of the EU gap."""
    p = run.p
    for trial in range(run.samples):
        mac = p.macrostates[int(rng.integers(len(p.macrostates)))]
        psi = random_state_in(mac.subspace, rng)
        rids = list(p.reward_ids)
        try:
            u = ActForge(p).weighted_act(
                psi, dict(zip(rids, random_weights(rng, len(rids)))))
            v = ActForge(p).weighted_act(
                psi, dict(zip(rids, random_weights(rng, len(rids)))))
        except _CAPACITY_ERRORS as exc:
            t.skip(f"{mac.id}: {exc}")
            continue
        gap = (expected_utility(p, psi, u, run.utility)
               - expected_utility(p, psi, v, run.utility))
        want = (Comparison.TIE if abs(gap) <= TIE_BAND
                else Comparison.BETTER if gap > 0 else Comparison.WORSE)
        got = run.oracle.compare(psi, u, v)
        t.check(got is want,
                {"macrostate": mac.id, "eu_gap": gap,
                 "want": int(want), "got": int(got)})


def _orthogonal_support(p: QuantumDecisionProblem, support) -> bool:
    """Pairwise-orthogonal members; the probe construction requires this."""
    return all(p.macrostate(a).subspace.orthogonal_to(p.macrostate(b).subspace)
               for a, b in combinations(support, 2))


def _null_supports(p: QuantumDecisionProblem, rng: np.random.Generator,
                   utility: UtilityTable, count: int) -> list[tuple[str, ...]]:
    """Macrostate supports whose members can all be probed discriminably."""
    ids = list(p.macrostate_ids)
    out: list[tuple[str, ...]] = []
    singles = [(m,) for m in ids if discriminable_support(p, (m,), utility)]
    out.extend(singles[:2])
    tries = 0
    while len(out) < count and tries < 50:
        tries += 1
        if len(ids) < 2:
            break
        size = int(rng.integers(1, min(len(ids), 3) + 1))
        support = tuple(sorted(str(m) for m in
                               rng.choice(ids, size=size, replace=False)))
        if support in out:
            continue
        if _orthogonal_support(p, support) \
                and discriminable_support(p, support, utility):
            out.append(support)
        if len(out) >= count:
            break
    return out


def _state_with_support(p: QuantumDecisionProblem, support,
                        rng: np.random.Generator) -> StateVector:
    """Unit state with weight at least ~1e-2 on each named macrostate."""
    ws = random_weights(rng, len(support), floor=0.2)
    vec = np.zeros(p.dim, dtype=np.complex128)
    for w, mid in zip(ws, support):
        comp = random_state_in(p.macrostate(mid).subspace, rng)
        vec = vec + np.sqrt(w) * comp.vec
    return StateVector(vec)


# -- geometric searches ------------------------------------------------------------
#
# One check per sampled state; each search returns at its first failure.

def _decompositions(p: QuantumDecisionProblem,
                    psi: StateVector) -> list[dict[str, float]]:
    """All exact expressions of psi as a sum of macrostate components.

    Solves the least-squares system over each macrostate subset and keeps
    solutions with negligible residual.  With mutually orthogonal
    macrostates there is at most one support set; overlapping macrostates
    can admit several with genuinely different branch norms.
    """
    ids = list(p.macrostate_ids)
    found: list[dict[str, float]] = []
    for size in range(1, min(len(ids), DECOMPOSITION_MAX) + 1):
        for subset in combinations(ids, size):
            bases = [p.macrostate(m).subspace.basis for m in subset]
            stacked = np.hstack(bases)
            coeff, *_ = np.linalg.lstsq(stacked, psi.vec, rcond=None)
            if _norm(stacked @ coeff - psi.vec) > TOL_ORTH:
                continue
            norms: dict[str, float] = {}
            col = 0
            degenerate = False
            for m, b in zip(subset, bases):
                k = b.shape[1]
                comp_norm = _norm(coeff[col:col + k])
                col += k
                if comp_norm <= TOL_ORTH:
                    degenerate = True  # same split as a smaller subset
                    break
                norms[m] = comp_norm
            if degenerate:
                continue
            if not any(set(f) == set(norms)
                       and max(abs(f[m] - norms[m])
                               for m in norms) < SAME_NORMS_TOL
                       for f in found):
                found.append(norms)
    return found


def _branch_uniqueness(run, t, rng):
    """A state has no two macrostate decompositions whose branch norms
    differ (possible only when the orthogonality idealization is off)."""
    p = run.p
    full = p.event_of(p.macrostate_ids)
    for _ in range(run.samples):
        psi = random_state_in(full, rng)
        for a, b in combinations(_decompositions(p, psi), 2):
            gap = max(abs(a.get(m, 0.0) - b.get(m, 0.0))
                      for m in set(a) | set(b))
            if gap > SEARCH_GAP:
                t.check(False, {"state": encode_vector(psi.vec),
                                "decompositions": [a, b], "norm_gap": gap})
                return
        t.check(True)


def _equivalence_step(run, t, rng):
    """An act's blockwise reward weights equal its whole-act weights, the
    additivity step that orthogonal images guarantee."""
    p = run.p
    catalog = richness_catalog(p, _rng(run.seed, _SEARCH_CATALOG_STREAM))
    for act in catalog:
        inside = [m for m in p.macrostates
                  if act.domain.contains_subspace(m.subspace)]
        if len(inside) < 2:
            continue
        for _ in range(max(1, run.samples // max(1, len(catalog)))):
            psi = random_state_in(act.domain, rng)
            whole = born_weights(p, act.apply(psi))
            blockwise = {rid: 0.0 for rid in p.reward_ids}
            for m in inside:
                comp = project(m.subspace, psi)
                if comp.norm <= TOL_ORTH:
                    continue
                img = restrict_act(act, m.subspace).apply(comp)
                for rid in p.reward_ids:
                    blockwise[rid] += (
                        project(p.reward_subspace(rid), img).norm ** 2)
            gap = max(abs(whole[rid] - blockwise[rid])
                      for rid in p.reward_ids)
            if gap > SEARCH_GAP:
                t.check(False, {"act": act_payload(act),
                                "state": encode_vector(psi.vec),
                                "whole_weights": whole,
                                "blockwise_weights": blockwise,
                                "weight_gap": gap})
                return
            t.check(True)


# -- the registry ------------------------------------------------------------------

#: table -> (stream base, checks in report order); the check at position
#: i draws from substream base + i
_TABLES = {
    "richness": (0, {
        "Indol": _indol, "Restr": _restr, "Compos": _compos,
        "Irrev": _irrev, "PrCont": _prcont, "ReAv": _reav, "BrAv": _brav,
        "Eras": _eras, "Compat": _compat}),
    "rationality": (100, {
        "Ord": _ord, "ActNDeg": _actndeg, "BrIndif": _brindif,
        "ErIndif": _erindif, "ReSup": _resup, "StaSup": _stasup,
        "MacIndif": _macindif, "DiacCons": _diaccons, "BrCons": _brcons,
        "SolCont": _solcont}),
    "lemmas": (200, {
        "Equivalence": _equivalence,
        "RewardNondegeneracy": _reward_nondegeneracy, "Nullity": _nullity,
        "Dominance": _dominance, "Utility": _utility,
        "StandardAct": _standard_act, "BornTheorem": _born_theorem}),
    "search": (300, {
        "branch-uniqueness": _branch_uniqueness,
        "equivalence-step": _equivalence_step}),
}
#: the stream the richness act catalog draws from
_CATALOG_STREAM = 90
#: the stream the equivalence-step search's act catalog draws from
_SEARCH_CATALOG_STREAM = 302
RICHNESS_AXIOMS = tuple(_TABLES["richness"][1])
RATIONALITY_AXIOMS = tuple(_TABLES["rationality"][1])
LEMMAS = tuple(_TABLES["lemmas"][1])
SEARCH_TARGETS = tuple(_TABLES["search"][1])
COUNTEREXAMPLE_TARGETS = RATIONALITY_AXIOMS + SEARCH_TARGETS


def _audit(run: _Run, table: str, only=None, kind: str = "") -> AuditReport:
    """Run a table's checks, or just those named in `only`."""
    base, checks = _TABLES[table]
    results = []
    for i, (name, check) in enumerate(checks.items()):
        if only is None or name in only:
            t = _Tally(name)
            check(run, t, _rng(run.seed, base + i))
            results.append(t.result())
    return AuditReport(kind or table, run.seed, run.samples, results,
                       oracle=getattr(run.oracle, "name", ""),
                       problem=_problem_fingerprint(run.p))


def audit_richness(p: QuantumDecisionProblem, samples: int = 200,
                   seed: int = 0) -> AuditReport:
    """Instantiate every availability axiom on forged and supplied acts."""
    return _audit(_Run(p, samples, seed), "richness")


def audit_rationality(p: QuantumDecisionProblem, oracle: PreferenceOracle,
                      samples: int = 200, seed: int = 0) -> AuditReport:
    """Instantiate every preference axiom against the given oracle."""
    return _audit(_Run(p, samples, seed, oracle), "rationality")


def check_lemmas(p: QuantumDecisionProblem, oracle: PreferenceOracle,
                 utility: UtilityTable, samples: int = 100,
                 seed: int = 0) -> AuditReport:
    """Check each derived statement of the preference theory as a property."""
    return _audit(_Run(p, samples, seed, oracle, utility), "lemmas")


def born_theorem_report(p: QuantumDecisionProblem, utility: UtilityTable,
                        samples: int = 200, seed: int = 0) -> AuditReport:
    """Standalone check that the reference order equals the EU order."""
    run = _Run(p, samples, seed, BornOracle(p, utility), utility)
    return _audit(run, "lemmas", kind="born-theorem",
                  only=("Dominance", "StandardAct", "BornTheorem"))


def find_counterexample(p: QuantumDecisionProblem,
                        oracle: PreferenceOracle | None,
                        target: str, budget: int = 200,
                        seed: int = 0) -> AxiomResult:
    """Run the check for `target` alone at the given budget, on the
    substream its table gives it; its first witness is the counterexample.
    A rationality axiom runs its whole check, a geometric search stops at
    its first witness."""
    if target in SEARCH_TARGETS:
        table = "search"
    elif target in RATIONALITY_AXIOMS:
        if oracle is None:
            raise ValueError(f"target {target!r} needs an oracle")
        table = "rationality"
    else:
        raise ValueError(f"unknown counterexample target {target!r}; "
                         f"choose from {', '.join(COUNTEREXAMPLE_TARGETS)}")
    return _audit(_Run(p, budget, seed, oracle), table,
                  only=(target,)).results[0]
