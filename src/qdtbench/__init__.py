"""Finite-dimensional workbench for branching decision problems.

Layers, bottom up: `hilbert` (states, subspace lattice, partial-isometry
acts), `problem` (macrostates, rewards, instances), `forge` (act
construction), `comparison` (three-way outcomes, the tie band,
bisection), `preference` (oracles, utilities, elicitation), `audit`
(axiom and lemma instantiation), `branching` (iterated-branching
series), `classical` (lottery and bet suites), `io` (instance documents;
the bundled fixtures ship as JSON in `qdtbench/fixtures`), `instances`
(random instances) and `cli` (the `qdt` command).  Importing the package
loads none of them: each public name is imported from its layer on
first use.
"""
import importlib

_EXPORTS = {
    "errors": ("QdtError",),
    "hilbert": ("PartialIsometryAct", "StateVector", "Subspace", "complement",
                "join", "meet", "project"),
    "problem": ("Macrostate", "QuantumDecisionProblem", "Reward",
                "branch_decomposition", "born_weights", "event_lattice",
                "reach_state", "smallest_event", "validate_problem"),
    "forge": ("ActForge", "compose_acts", "identity_act", "restrict_act"),
    "comparison": ("Comparison",),
    "preference": ("BornOracle", "CountingOracle", "DefinitionalNullTest",
                   "TableOracle", "UtilityTable", "elicit_utility",
                   "expected_utility", "is_null_pair", "make_standard_act",
                   "reduce_to_standard", "reward_order"),
    "audit": ("AuditReport", "audit_rationality", "audit_richness",
              "check_lemmas", "find_counterexample"),
    "branching": ("born_deviation_norm", "coarse_grain_count",
                  "counting_frequencies", "modal_count_vector"),
    "classical": ("ClassicalAct", "LexicographicOracle", "Lottery",
                  "PMEUOracle", "PlantedMeasureOracle", "check_vnm_axioms",
                  "mix", "savage_probability", "vnm_elicit"),
    "io": ("LoadedInstance", "load_instance", "loads_instance",
           "save_instance"),
    "instances": ("random_problem",),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
