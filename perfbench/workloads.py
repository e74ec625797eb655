"""The benchmark's workloads: each workload seed expands to one round of
`qdt` calls.

A seed selects one of `VARIANTS` variants; the variant fixes every
`--seed` value, every series parameter and every random instance, so the
same seed always gives the same argv.  Expected outputs are recorded for
all variants (see record.py).

Argument lists hold three placeholders that the runner fills in:
`{inst}` is the directory of the generated random instances, `{out}` a
fresh output file for this call, and `{tmp}` the run's scratch directory.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

VARIANTS = 16


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    kind: str               # how the output is checked; see checks.digest

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Round:
    """One pass over a workload, plus what set-up must write for it."""
    calls: list[Call]
    #: file name -> (seed, n_macrostates, n_middle_rewards) for random_problem
    instances: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    #: CLI-contract probes: expected to exit 2, run outside the timed loop
    probes: list[Call] = field(default_factory=list)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, variant: int) -> random.Random:
    return random.Random(f"{workload}:{variant}")


def _weights(rng: random.Random, k: int) -> str:
    """k positive weights in thousandths that sum to exactly 1000."""
    cuts = sorted(rng.sample(range(1, 1000 // 50), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [1000 // 50])]
    return ",".join(f"{p * 50 / 1000:.3f}" for p in parts)


def _audit_calls(seed: int, target: str, oracles: tuple[str, ...]
                 ) -> list[Call]:
    s = str(seed)
    calls = [Call(("audit-richness", "--seed", s, target,
                   "--report", "{out}"), "audit")]
    for oracle in oracles:
        calls.append(Call(("audit-rationality", "--seed", s, "--oracle",
                           oracle, target, "--report", "{out}"), "audit"))
    calls += [Call(("check-lemmas", "--seed", s, target,
                    "--report", "{out}"), "audit"),
              Call(("born-theorem", "--seed", s, target,
                    "--report", "{out}"), "audit")]
    return calls


def audits(variant: int) -> Round:
    """The audit kernels on the two standard fixtures and on two
    Haar-random instances, where no macrostate is axis-aligned."""
    rng = _rng("audits", variant)
    seed = rng.randrange(1000)
    instances = {}
    for n_mac, n_mid in ((6, 1), (5, 0)):
        inst_seed = rng.randrange(10 ** 6)
        instances[f"rand-{inst_seed}-n{n_mac}-m{n_mid}.json"] = (
            inst_seed, n_mac, n_mid)
    targets = ["std6", "std8"] + [f"{{inst}}/{name}" for name in instances]
    calls = []
    for target in targets:
        calls += _audit_calls(seed, target, ("born", "counting"))
        calls.append(Call(("counterexample", "--seed", str(seed), "--axiom",
                           "Ord", target, "--report", "{out}"),
                          "counterexample"))
    return Round(calls, instances)


def quick(variant: int) -> Round:
    """The calls users make most often; import and io dominate."""
    rng = _rng("quick", variant)
    seed = str(rng.randrange(1000))
    w = rng.randrange(200, 800) / 1000
    two = f"{w:.3f},{1 - w:.3f}"
    calls = [Call(("validate", name, "--report", "{out}"), "validate")
             for name in ("min2", "std6", "std8", "overlap2", "irrev6")]
    calls += [Call(("elicit", "std6", "--oracle", oracle,
                    "--report", "{out}"), "elicit")
              for oracle in ("born", "counting")]
    calls += [Call(("classical-vnm", "--seed", seed, "--oracle", oracle,
                    "std6", "--report", "{out}"), "vnm")
              for oracle in ("pmeu", "lex")]
    for target in ("min2", "overlap2", "irrev6"):
        calls += _audit_calls(int(seed), target, ("born",))
    calls += [Call(("counterexample", "--seed", seed, "--axiom", axiom,
                    "overlap2", "--report", "{out}"), "counterexample")
              for axiom in ("branch-uniqueness", "equivalence-step")]
    calls += [
        Call(("simulate", "--k", "2", "--weights", two, "--n", "10,100,1000",
              "--eps", "0.1", "--out", "{out}"), "csv"),
        Call(("sweep-grain", "--k", "2", "--weights", two,
              "--n", str(rng.randrange(5, 9)), "--theta-list",
              "0.002,0.02", "--out", "{out}"), "csv"),
        Call(("savage", "--cells", str(rng.randrange(60, 69)),
              "--report", "{out}"), "savage"),
    ]
    calls += [Call(argv, "usage") for argv in (
        ("audit-richness", "std6"),                      # no --seed
        ("validate", "no-such-fixture"),
        ("frobnicate",),
        ("simulate", "--k", "3", "--weights", two, "--n", "10",
         "--eps", "0.1"),
        ("sweep-grain", "--k", "2", "--weights", "a,b", "--n", "4",
         "--theta-list", "0.1"),
        ("savage", "--cells", "1"),
        ("counterexample", "--seed", seed, "--axiom", "NoSuchAxiom", "std6"),
    )]
    probes = [Call(("elicit", "std6", "--tol", "-1"), "usage"),
              Call(("validate", "std6", "--report", "{tmp}/missing/r.json"),
                   "usage")]
    return Round(calls, probes=probes)


def series(variant: int) -> Round:
    """Legal but large flags on the branching and classical layers,
    with no audit at all; sizes step up so the growth shows."""
    rng = _rng("series", variant)
    calls = [Call(("savage", "--cells", str(cells + rng.randrange(4)),
                   "--report", "{out}"), "savage")
             for cells in (64, 96, 128, 192, 256, 320, 384)]
    for n in (250, 500, 1000, 2000, 4000, 8000):
        calls.append(Call(("simulate", "--k", "2", "--weights",
                           _weights(rng, 2), "--n", str(n + rng.randrange(40)),
                           "--eps", "0.05", "--out", "{out}"), "csv"))
    for k, n in ((4, 20), (5, 20), (5, 30), (5, 35), (5, 40), (6, 25),
                 (6, 30)):
        thetas = ",".join(f"{10.0 ** -rng.uniform(e, e + 1):.3e}"
                          for e in (4, 8, 12))
        calls.append(Call(("sweep-grain", "--k", str(k), "--weights",
                           _weights(rng, k), "--n", str(n),
                           "--theta-list", thetas, "--out", "{out}"), "csv"))
    return Round(calls)


WORKLOADS = {"audits": audits, "quick": quick, "series": series}
