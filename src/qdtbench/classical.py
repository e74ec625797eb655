"""Classical decision theory: lotteries, expected utility, Savage-style bets.

The quantum side of the package reduces preference to expected utility;
this module provides the classical benchmarks it is measured against:
von Neumann-Morgenstern lotteries with their axiom checks and utility
elicitation, and qualitative-probability bracketing of events through
equipartition bets.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

from .comparison import (ELICIT_STEPS, ELICIT_TOL, TIE_BAND, Comparison,
                         bisect_indifference)
from .errors import (MissingUtility, NonMonotoneOracle, NotEquipartition,
                     WeightSumError)

PROB_TOL = 1e-12
#: refuse a Savage bracket over more cells than this; an oracle without
#: a utility representation checks equipartition on n(n-1)/2 bet pairs
CELLS_GUARD = 3_000
#: refuse VNM checks over lotteries with more triples than this; Ordering
#: walks every triple, and the Archimedean chains come from every
#: ordered one
VNM_TRIPLE_GUARD = 50_000


def _check_sum(values: Iterable[float], what: str) -> None:
    """Refuse values whose sum is not one within TIE_BAND, or is nan."""
    total = sum(values)
    if not abs(total - 1.0) <= TIE_BAND:
        raise WeightSumError(f"{what} {total!r}")


class Lottery:
    """A finite probability mixture over reward ids.

    Stored as an id-sorted mapping; probabilities must be nonnegative
    and sum to one.
    """

    __slots__ = ("probs",)

    def __init__(self, outcomes: Mapping[str, float]):
        probs: dict[str, float] = {}
        for rid, pr in outcomes.items():
            pr = float(pr)
            if pr < -PROB_TOL:
                raise WeightSumError(f"negative probability {pr} on {rid!r}")
            probs[str(rid)] = max(pr, 0.0)
        _check_sum(probs.values(), "lottery probabilities sum to")
        self.probs = {k: probs[k] for k in sorted(probs) if probs[k] > 0.0}

    @classmethod
    def delta(cls, rid: str) -> "Lottery":
        return cls({rid: 1.0})

    def prob(self, rid: str) -> float:
        return self.probs.get(rid, 0.0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v:g}" for k, v in self.probs.items())
        return f"Lottery({{{inner}}})"


def mix(a: Lottery, b: Lottery, t: float) -> Lottery:
    """The t : (1-t) mixture of two lotteries."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixture weight {t} outside [0, 1]")
    keys = set(a.probs) | set(b.probs)
    return Lottery({k: t * a.prob(k) + (1.0 - t) * b.prob(k) for k in keys})


def expected_utility_classical(lottery: Lottery,
                               utility: Mapping[str, float]) -> float:
    total = 0.0
    for rid, pr in lottery.probs.items():
        if rid not in utility:
            raise MissingUtility(f"no utility for reward {rid!r}")
        total += pr * float(utility[rid])
    return total


# -- lottery oracles -------------------------------------------------------

class LotteryOracle(ABC):
    """Three-way comparator over lotteries."""

    name = "lottery-oracle"

    @abstractmethod
    def compare(self, a: Lottery, b: Lottery) -> Comparison:
        ...


class PMEUOracle(LotteryOracle):
    """Maximizes expected utility; the order every axiom check passes."""

    name = "pmeu"

    def __init__(self, utility: Mapping[str, float]):
        self.utility = dict(utility)

    def compare(self, a: Lottery, b: Lottery) -> Comparison:
        ua = expected_utility_classical(a, self.utility)
        ub = expected_utility_classical(b, self.utility)
        if abs(ua - ub) <= TIE_BAND:
            return Comparison.TIE
        return Comparison.BETTER if ua > ub else Comparison.WORSE


class LexicographicOracle(LotteryOracle):
    """Compares tracked reward probabilities in strict priority order.

    The classic continuity counterexample: no amount of the second
    priority compensates an arbitrarily small deficit in the first.
    Remaining rewards are ignored entirely.
    """

    name = "lexicographic"

    def __init__(self, priority: Sequence[str]):
        if not priority:
            raise ValueError("need at least one tracked reward")
        self.priority = list(priority)

    def compare(self, a: Lottery, b: Lottery) -> Comparison:
        for rid in self.priority:
            d = a.prob(rid) - b.prob(rid)
            if abs(d) > PROB_TOL:
                return Comparison.BETTER if d > 0 else Comparison.WORSE
        return Comparison.TIE


# -- elicitation -------------------------------------------------------------

def vnm_elicit(oracle: LotteryOracle, rewards: Sequence[str], r0: str,
               r1: str, tol: float = ELICIT_TOL) -> dict[str, float]:
    """Utility of each reward from indifference against best/worst mixes.

    Bisects t in  t*delta(r1) + (1-t)*delta(r0)  against delta(r).
    Raises NonMonotoneOracle when the oracle contradicts the bracket.
    """
    best = Lottery.delta(r1)
    worst = Lottery.delta(r0)

    def standard(t: float) -> Lottery:
        return mix(best, worst, t)

    values: dict[str, float] = {}
    for rid in rewards:
        if rid == r0:
            values[rid] = 0.0
            continue
        if rid == r1:
            values[rid] = 1.0
            continue
        target = Lottery.delta(rid)
        c0 = oracle.compare(standard(0.0), target)
        if c0 is Comparison.BETTER:
            raise NonMonotoneOracle(
                f"the worst lottery beats {rid!r}; {r0!r} is not the floor")
        c1 = oracle.compare(standard(1.0), target)
        if c1 is Comparison.WORSE:
            raise NonMonotoneOracle(
                f"the best lottery loses to {rid!r}; {r1!r} is not the ceiling")
        if c0 is Comparison.TIE:
            values[rid] = 0.0
            continue
        if c1 is Comparison.TIE:
            values[rid] = 1.0
            continue
        lo, hi, u, _ = bisect_indifference(
            lambda t: oracle.compare(standard(t), target), tol, ELICIT_STEPS)
        values[rid] = 0.5 * (lo + hi) if u is None else u
    return values


# -- axiom checks ---------------------------------------------------------------

@dataclass
class ClassicalCheck:
    name: str
    status: str           # "pass" | "fail"
    samples: int
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def check_vnm_axioms(lotteries: Sequence[Lottery], oracle: LotteryOracle,
                     samples: int = 50, seed: int = 0) -> list[ClassicalCheck]:
    """Sampled mixture-space axiom checks over a finite lottery set.

    Covers ordering (completeness/transitivity on the set),
    independence, the Archimedean property, substitutability,
    mixture monotonicity, and continuity (existence of a unique
    indifference mixture, located by bisection).
    """
    import numpy as np
    rng = np.random.default_rng([seed, 77])
    ls = list(lotteries)
    checks: list[ClassicalCheck] = []

    def describe(l: Lottery) -> dict:
        return {k: float(v) for k, v in l.probs.items()}

    # ordering: completeness + transitivity over the finite set; each
    # ordered pair of members is asked once, and every later check that
    # reads a pair of members reads it from `ans`
    fails = []
    n_ord = 0
    pairs = list(combinations(range(len(ls)), 2))
    ans: dict[tuple[int, int], Comparison] = {}
    for a, b in pairs:
        ans[a, b] = oracle.compare(ls[a], ls[b])
        ans[b, a] = oracle.compare(ls[b], ls[a])
        n_ord += 1
        if ans[a, b] is not ans[b, a].flipped():
            fails.append({"kind": "asymmetry", "a": describe(ls[a]),
                          "b": describe(ls[b])})
    # every order of a triple is read, so a cycle against list order shows
    for triple in combinations(range(len(ls)), 3):
        n_ord += 1
        for a, b, c in permutations(triple):
            if ans[a, b] >= 0 and ans[b, c] >= 0 and ans[a, c] < 0:
                fails.append({"kind": "transitivity",
                              "triple": [describe(ls[x]) for x in (a, b, c)]})
                break
    checks.append(ClassicalCheck("Ordering", "fail" if fails else "pass",
                                 n_ord, fails))

    strict_pairs = [(a, b) for a, b in pairs
                    if ans[a, b] is Comparison.BETTER]
    strict_pairs += [(b, a) for a, b in pairs
                     if ans[a, b] is Comparison.WORSE]

    # independence: A > B  =>  tA+(1-t)C > tB+(1-t)C  for t in (0, 1]
    fails = []
    n = 0
    for _ in range(samples):
        if not strict_pairs:
            break
        a, b = strict_pairs[rng.integers(len(strict_pairs))]
        c = ls[rng.integers(len(ls))]
        t = float(rng.uniform(0.05, 1.0))
        n += 1
        got = oracle.compare(mix(ls[a], c, t), mix(ls[b], c, t))
        if got is not Comparison.BETTER:
            fails.append({"kind": "independence", "t": t,
                          "a": describe(ls[a]), "b": describe(ls[b]),
                          "c": describe(c), "got": int(got)})
    checks.append(ClassicalCheck("Independence",
                                 "fail" if fails else "pass", n, fails))

    # Archimedean: A > B > C  =>  some interior mixes straddle B
    fails = []
    n = 0
    # every 3-subset has at most one strictly descending arrangement, so
    # scanning permutations cannot skip a chain the list order hides
    chains = [(a, b, c)
              for a, b, c in permutations(range(len(ls)), 3)
              if ans[a, b] is Comparison.BETTER
              and ans[b, c] is Comparison.BETTER]
    for a, b, c in chains[:samples]:
        n += 1
        hi_ok = any(oracle.compare(mix(ls[a], ls[c], t), ls[b])
                    is Comparison.BETTER
                    for t in (0.9, 0.99, 0.999, 0.9999))
        lo_ok = any(oracle.compare(ls[b], mix(ls[a], ls[c], s))
                    is Comparison.BETTER
                    for s in (0.1, 0.01, 0.001, 0.0001))
        if not (hi_ok and lo_ok):
            fails.append({"kind": "archimedean",
                          "chain": [describe(ls[x]) for x in (a, b, c)],
                          "upper_witness": hi_ok, "lower_witness": lo_ok})
    checks.append(ClassicalCheck("Archimedean",
                                 "fail" if fails else "pass", n, fails))

    # substitutability: A ~ B  =>  mixes with any C stay indifferent
    fails = []
    n = 0
    tie_pairs = [(a, b) for a, b in pairs if ans[a, b] is Comparison.TIE]
    for _ in range(samples):
        if not tie_pairs:
            break
        a, b = tie_pairs[rng.integers(len(tie_pairs))]
        c = ls[rng.integers(len(ls))]
        t = float(rng.uniform(0.0, 1.0))
        n += 1
        got = oracle.compare(mix(ls[a], c, t), mix(ls[b], c, t))
        if got is not Comparison.TIE:
            fails.append({"kind": "substitutability", "t": t,
                          "a": describe(ls[a]), "b": describe(ls[b]),
                          "c": describe(c), "got": int(got)})
    checks.append(ClassicalCheck("Substitutability",
                                 "fail" if fails else "pass", n, fails))

    # monotonicity: A > B  =>  more A in the mix is better
    fails = []
    n = 0
    for _ in range(samples):
        if not strict_pairs:
            break
        a, b = strict_pairs[rng.integers(len(strict_pairs))]
        t_hi = float(rng.uniform(0.5, 1.0))
        t_lo = float(rng.uniform(0.0, t_hi - 0.2)) if t_hi > 0.2 else 0.0
        n += 1
        got = oracle.compare(mix(ls[a], ls[b], t_hi), mix(ls[a], ls[b], t_lo))
        if got is not Comparison.BETTER:
            fails.append({"kind": "monotonicity", "t_hi": t_hi, "t_lo": t_lo,
                          "a": describe(ls[a]), "b": describe(ls[b]),
                          "got": int(got)})
    checks.append(ClassicalCheck("Monotonicity",
                                 "fail" if fails else "pass", n, fails))

    # continuity: A > B > C  =>  a unique indifference mixture exists
    fails = []
    n = 0
    for a, b, c in chains[:samples]:
        n += 1
        # tol 0: only a tie or the 60-query cap ends the search
        lo, hi, t_star, _ = bisect_indifference(
            lambda t: oracle.compare(mix(ls[a], ls[c], t), ls[b]), 0.0, 60)
        if t_star is None and hi - lo > 1e-12:
            fails.append({"kind": "continuity",
                          "chain": [describe(ls[x]) for x in (a, b, c)],
                          "bracket": [lo, hi]})
    checks.append(ClassicalCheck("Continuity",
                                 "fail" if fails else "pass", n, fails))
    return checks


# -- Savage-style bets --------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True)
class ClassicalAct:
    """A map from world-state ids to payoff ids, total over the state set.

    Stored sparsely: the sorted state ids, a default payoff, and the
    sorted (state, payoff) entries that differ from the default.  Acts
    built over one state set can share its tuple, so a bet costs the
    size of its event, not of the state set.  Equality is on `payoffs`.
    The constructor checks that form (ValueError otherwise);
    `from_mapping` and `bet` build it from a dense view.
    """
    states: tuple[str, ...]
    default: str
    entries: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        states = self.states
        if any(a >= b for a, b in zip(states, states[1:])):
            raise ValueError("act states must be sorted and distinct")
        known = set(states)
        last = None
        for s, x in self.entries:
            if s not in known or x == self.default or (
                    last is not None and s <= last):
                raise ValueError(f"act entry {(s, x)!r} is not a sorted, "
                                 "distinct non-default payoff of a state")
            last = s

    @classmethod
    def _trusted(cls, states: tuple[str, ...], default: str,
                 entries: tuple[tuple[str, str], ...]) -> "ClassicalAct":
        """Build an act whose form the caller guarantees, unchecked."""
        act = object.__new__(cls)
        object.__setattr__(act, "states", states)
        object.__setattr__(act, "default", default)
        object.__setattr__(act, "entries", entries)
        return act

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "ClassicalAct":
        dense = sorted((str(s), str(x)) for s, x in mapping.items())
        default = dense[0][1] if dense else ""
        return cls._trusted(tuple(s for s, _ in dense), default,
                            tuple(e for e in dense if e[1] != default))

    @classmethod
    def bet(cls, states: Iterable[str], event: Iterable[str], x: str,
            y: str) -> "ClassicalAct":
        """Pays x on the event, y elsewhere."""
        ev = set(event)
        on = {str(s): s in ev for s in states}
        return _bet(tuple(sorted(on)), [s for s, hit in on.items() if hit],
                    str(x), str(y))

    @property
    def payoffs(self) -> tuple[tuple[str, str], ...]:
        """The dense (state, payoff) pairs in state order."""
        special = dict(self.entries)
        return tuple((s, special.get(s, self.default)) for s in self.states)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalAct):
            return NotImplemented
        return self.payoffs == other.payoffs

    def __hash__(self) -> int:
        return hash(self.payoffs)


def _bet(states: tuple[str, ...], event: Iterable[str], x: str,
         y: str) -> ClassicalAct:
    """x on the event, y elsewhere; states is sorted and distinct and
    holds the event, which has no repeats."""
    return ClassicalAct._trusted(
        states, y, () if x == y else tuple((s, x) for s in sorted(event)))


class ActOracle(ABC):
    """Three-way comparator over classical acts.

    `untied_pair` scans every pair through `compare`; an oracle that can
    answer "do all of these tie?" faster overrides it with the same
    answers.
    """

    @abstractmethod
    def compare(self, f: ClassicalAct, g: ClassicalAct) -> Comparison:
        ...

    def untied_pair(self, acts: Sequence[ClassicalAct]
                    ) -> tuple[int, int] | None:
        """The first pair (i, j), i < j in lexicographic order, that
        `compare` does not rank TIE; None when every pair ties."""
        for i, j in combinations(range(len(acts)), 2):
            if self.compare(acts[i], acts[j]) is not Comparison.TIE:
                return i, j
        return None


class PlantedMeasureOracle(ActOracle):
    """Expected utility under a hidden probability measure on states."""

    def __init__(self, measure: Mapping[str, float],
                 utility: Mapping[str, float]):
        _check_sum(measure.values(), "state measure sums to")
        self.measure = dict(measure)
        self.utility = dict(utility)

    def _eu(self, f: ClassicalAct) -> float:
        """The sum over f's states, in order, of measure times utility.

        Terms with utility zero are skipped: the measure is finite, so
        each is a signed zero, which leaves a float sum unchanged.  When
        the default payoff's utility is zero, the fold visits only the
        entries.
        """
        utility, measure, entries = self.utility, self.measure, f.entries
        total = 0.0
        try:
            u0 = utility[f.default] if len(entries) < len(f.states) else 0.0
            if u0 == 0.0:
                for s, x in entries:
                    u = utility[x]
                    if u:
                        total += measure.get(s, 0.0) * u
                return total
            special = {s: utility[x] for s, x in entries}
        except KeyError:
            x = next(x for _, x in f.payoffs if x not in utility)
            raise MissingUtility(f"no utility for payoff {x!r}") from None
        for s in f.states:
            total += measure.get(s, 0.0) * special.get(s, u0)
        return total

    def compare(self, f: ClassicalAct, g: ClassicalAct) -> Comparison:
        d = self._eu(f) - self._eu(g)
        if abs(d) <= PROB_TOL:
            return Comparison.TIE
        return Comparison.BETTER if d > 0 else Comparison.WORSE

    def untied_pair(self, acts: Sequence[ClassicalAct]
                    ) -> tuple[int, int] | None:
        """The pair scan's answer, decided from each act's value once
        when every pair ties.

        `compare` ties when |fl(e_i - e_j)| <= PROB_TOL.  Rounding to nearest
        is monotone and symmetric, so over finite floats the largest
        such gap is fl(max - min): every pair ties exactly when that
        one does.  Otherwise (a gap over the band, a non-finite or
        non-float value, or a missing utility) the scan runs, so the
        first untied pair, or the error, is the one it always gave.  A
        subclass that changes what `compare` ranks overrides this too.
        """
        try:
            values = [self._eu(f) for f in acts]
        except MissingUtility:
            # the scan may meet an untied pair before this act
            return super().untied_pair(acts)
        if all(type(v) is float and math.isfinite(v) for v in values) and (
                not values or max(values) - min(values) <= PROB_TOL):
            return None
        return super().untied_pair(acts)


def savage_probability(oracle: ActOracle, states: Sequence[str],
                       event: Iterable[str], cells: Sequence[Iterable[str]],
                       x: str, y: str) -> tuple[float, float]:
    """Bracket an event's subjective probability with equipartition bets.

    `cells` must partition the state set into n pieces the oracle ranks
    pairwise indifferent: the oracle's `untied_pair` checks the x-on-cell
    bets, in one pass under a planted measure, and NotEquipartition
    names the first untied pair.  m is the least number of leading cells
    whose union is weakly preferred, as a bet, to betting on the event;
    the bracket is [(m-1)/n, m/n], clamped at zero.  Unions are scanned
    cumulatively in the given cell order, which equipartition makes
    representative.
    """
    states = list(states)
    cell_sets = [set(c) for c in cells]
    n = len(cell_sets)
    if n == 0:
        raise NotEquipartition("no cells supplied")
    seen: set[str] = set()
    for c in cell_sets:
        if c & seen:
            raise NotEquipartition("cells overlap")
        seen |= c
    if seen != set(states):
        raise NotEquipartition("cells do not cover the state set")
    # every bet shares the one sorted state tuple and costs its event
    ids, x, y = tuple(sorted(set(map(str, states)))), str(x), str(y)
    probes = [_bet(ids, map(str, c), x, y) for c in cell_sets]
    pair = oracle.untied_pair(probes)
    if pair is not None:
        raise NotEquipartition(
            f"cells {pair[0]} and {pair[1]} are not ranked equally likely")
    target = ClassicalAct.bet(states, event, x, y)
    union: list[str] = []
    m = None
    for i in range(n + 1):
        probe = _bet(ids, union, x, y)
        if oracle.compare(probe, target) is not Comparison.WORSE:
            m = i
            break
        if i < n:
            union += map(str, cell_sets[i])
    if m is None:
        m = n
    lo = max(0, m - 1) / n if m > 0 else 0.0
    return (lo, m / n)
