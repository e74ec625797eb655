"""Golden byte corpus: exact report and stdout bytes of audit-type commands.

Each case runs in-process through `cli.main`; the corpus stores the
sha256 of the output file (the JSON report, or the CSV for the series
commands) and of stdout, plus the exit code.  A change
that claims to keep reports byte-identical must leave this test green.

To re-record after an intended output change, run by hand from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

FIXTURES = ("min2", "std6", "std8", "overlap2", "irrev6")
#: file name -> random_problem(seed, n_macrostates, n_middle_rewards)
RANDOM_INSTANCES = {"rand0.json": (0, 6, 1), "rand1.json": (1, 5, 0)}
#: commands that write a CSV through --out instead of a --report
CSV_COMMANDS = ("simulate", "sweep-grain")


def cases() -> dict[str, list[str]]:
    """Case id -> argv; `{inst}` is the random-instance directory."""
    targets = list(FIXTURES) + [f"{{inst}}/{name}"
                                for name in RANDOM_INSTANCES]
    out = {}
    for target in targets:
        tag = target.rsplit("/", 1)[-1]
        out[f"validate {tag}"] = ["validate", target]
        out[f"audit-richness {tag} seed=0"] = [
            "audit-richness", "--seed", "0", target]
        for oracle in ("born", "counting"):
            out[f"audit-rationality {oracle} {tag} seed=0"] = [
                "audit-rationality", "--seed", "0", "--oracle", oracle,
                target]
        for command in ("check-lemmas", "born-theorem"):
            out[f"{command} {tag} seed=0"] = [command, "--seed", "0", target]
    out["audit-rationality table std6 seed=0"] = [
        "audit-rationality", "--seed", "0", "--oracle", "table", "std6"]
    out["audit-rationality born std6 seed=1"] = [
        "audit-rationality", "--seed", "1", "--oracle", "born", "std6"]
    out["check-lemmas std6 seed=1"] = ["check-lemmas", "--seed", "1", "std6"]
    for command in ("audit-richness", "check-lemmas", "born-theorem"):
        out[f"{command} overlap2 seed=1"] = [command, "--seed", "1",
                                             "overlap2"]
    for oracle in ("born", "counting"):
        out[f"audit-rationality {oracle} overlap2 seed=1"] = [
            "audit-rationality", "--seed", "1", "--oracle", oracle,
            "overlap2"]
    for axiom in ("branch-uniqueness", "equivalence-step"):
        for seed in ("0", "1"):
            out[f"counterexample orthmacr {axiom} overlap2 seed={seed}"] = [
                "counterexample", "--relax", "orthmacr", "--axiom", axiom,
                "--seed", seed, "overlap2"]
    for axiom in ("Ord", "ActNDeg", "BrIndif", "ErIndif", "ReSup", "StaSup",
                  "MacIndif", "DiacCons", "BrCons", "SolCont"):
        out[f"counterexample counting {axiom} overlap2 seed=0"] = [
            "counterexample", "--oracle", "counting", "--axiom", axiom,
            "--seed", "0", "overlap2"]
    out["counterexample table Ord std6 seed=0"] = [
        "counterexample", "--oracle", "table", "--axiom", "Ord",
        "--seed", "0", "std6"]
    for oracle in ("born", "counting", "table"):
        out[f"elicit {oracle} std6"] = ["elicit", "--oracle", oracle, "std6"]
    for oracle in ("pmeu", "lex"):
        out[f"classical-vnm {oracle} std6 seed=0"] = [
            "classical-vnm", "--seed", "0", "--oracle", oracle, "std6"]
    out["savage cells=24"] = ["savage", "--cells", "24"]
    out["simulate k=2"] = ["simulate", "--k", "2", "--weights", "0.3,0.7",
                           "--n", "10,40,200", "--eps", "0.1"]
    out["sweep-grain k=3"] = ["sweep-grain", "--k", "3",
                              "--weights", "0.2,0.3,0.5", "--n", "6",
                              "--theta-list", "0.001,0.01,0.05"]
    # threshold lists out of order, repeated, and with 0 and -0.0 mid-list
    k3 = ["sweep-grain", "--k", "3", "--weights", "0.2,0.3,0.5", "--n", "6",
          "--theta-list"]
    out["sweep-grain k=3 unsorted"] = k3 + ["0.05,0.001,0.01,0.002"]
    out["sweep-grain k=3 repeated"] = k3 + ["0.01,0.002,0.01,0.01"]
    out["sweep-grain k=3 zeros mid-list"] = k3 + ["0.01,0,0.002,-0.0,0.05"]
    # a threshold equal to a leaf amplitude does not count that leaf
    out["sweep-grain k=2 at amplitude"] = [
        "sweep-grain", "--k", "2", "--weights", "0.5,0.5", "--n", "4",
        "--theta-list", "0.0625,0.0624,0.0626"]
    out["sweep-grain k=1"] = ["sweep-grain", "--k", "1", "--weights", "1",
                              "--n", "7", "--theta-list", "0,0.5,1,2"]
    out["sweep-grain n=0"] = ["sweep-grain", "--k", "3",
                              "--weights", "0.2,0.3,0.5", "--n", "0",
                              "--theta-list", "0.5,0,1,-0.0"]
    out["sweep-grain k=5 n=17 unsorted"] = [
        "sweep-grain", "--k", "5", "--weights", "0.1,0.2,0.3,0.15,0.25",
        "--n", "17", "--theta-list", "1e-12,0,1e-08,1e-12,-0.0,1e-16"]
    # series scale: the largest sizes perfbench's series workload runs
    for cells in ("130", "387"):
        out[f"savage cells={cells}"] = ["savage", "--cells", cells]
    out["simulate k=2 n=8023"] = ["simulate", "--k", "2",
                                  "--weights", "0.8,0.2",
                                  "--n", "283,4000,8023", "--eps", "0.05"]
    out["sweep-grain k=6 n=30"] = [
        "sweep-grain", "--k", "6", "--weights", "0.3,0.15,0.25,0.05,0.2,0.05",
        "--n", "30", "--theta-list", "0,2.303e-05,1.581e-09,1.260e-13"]
    return out


def write_random_instances(directory: Path) -> None:
    from qdtbench.instances import random_problem
    from qdtbench.io import save_instance
    for name, args in RANDOM_INSTANCES.items():
        save_instance(random_problem(*args), directory / name)


def run_case(argv: list[str], directory: Path) -> dict:
    """Exit code and the sha256 of the output file and stdout bytes."""
    from qdtbench import cli
    report = directory / "report.json"
    report.unlink(missing_ok=True)
    argv = [a.replace("{inst}", str(directory)) for a in argv]
    flag = "--out" if argv[0] in CSV_COMMANDS else "--report"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + [flag, str(report)])
    return {"exit": rc,
            "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
            "stdout_sha256": hashlib.sha256(
                buf.getvalue().encode("utf-8")).hexdigest()}


def run_all(directory: Path) -> dict[str, dict]:
    write_random_instances(directory)
    return {cid: run_case(argv, directory) for cid, argv in cases().items()}


def test_golden_fixtures_are_every_bundled_fixture():
    from conftest import FIXTURE_NAMES
    assert sorted(FIXTURES) == FIXTURE_NAMES


def test_golden_corpus(tmp_path):
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [cid for cid in expected if got[cid] != expected[cid]]
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_all(Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, sort_keys=True, indent=2) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(corpus)} cases to {CORPUS}", file=sys.stderr)
