"""Golden corpus: exact report and stdout bytes of audit-type commands.

Each case runs in-process through `cli.main`; the corpus stores the
output file (the JSON report, or the CSV for the series commands) and
stdout as text under `golden/<case>/`, and the exit codes in
`golden/corpus.json`.  A change that claims to keep reports
byte-identical must leave this test green; on a mismatch the message
names, for each case that moved, the JSON paths (or the lines) that
differ.

To re-record after an intended output change, run by hand from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
#: case id -> exit code
CORPUS = GOLDEN / "corpus.json"

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
            out[f"counterexample {axiom} overlap2 seed={seed}"] = [
                "counterexample", "--axiom", axiom, "--seed", seed,
                "overlap2"]
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


def case_dir(cid: str) -> Path:
    return GOLDEN / re.sub(r"[^\w.=-]+", "_", cid)


def run_case(argv: list[str], directory: Path) -> dict:
    """Exit code, output file name and bytes, and stdout bytes."""
    from qdtbench import cli
    argv = [a.replace("{inst}", str(directory)) for a in argv]
    flag, name = (("--out", "report.csv") if argv[0] in CSV_COMMANDS
                  else ("--report", "report.json"))
    report = directory / name
    report.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + [flag, str(report)])
    return {"exit": rc, name: report.read_bytes(),
            "stdout.txt": buf.getvalue().encode("utf-8")}


def run_all(directory: Path) -> dict[str, dict]:
    write_random_instances(directory)
    return {cid: run_case(argv, directory) for cid, argv in cases().items()}


_ABSENT = object()


def json_paths(old, new, path: str = "$"):
    """Paths at which two JSON documents differ.  Objects and lists of
    objects are walked; any other list (a vector, a matrix) is one value."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from json_paths(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                  f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)
          and any(isinstance(x, dict) for x in old + new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_paths(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path


def changed_lines(old: bytes, new: bytes) -> str:
    """Line ranges (1-based, as recorded) at which two texts differ."""
    a, b = old.decode("utf-8").splitlines(), new.decode("utf-8").splitlines()
    spans: list[list[int]] = []
    for n in range(1, max(len(a), len(b)) + 1):
        if a[n - 1:n] != b[n - 1:n]:
            if spans and spans[-1][1] == n - 1:
                spans[-1][1] = n
            else:
                spans.append([n, n])
    return ", ".join(f"{lo}" if lo == hi else f"{lo}-{hi}" for lo, hi in spans)


def differences(cid: str, got: dict, exit_code: int) -> list[str]:
    """Where a case's output moved from the recorded one."""
    out = [] if got["exit"] == exit_code else [
        f"exit {exit_code} -> {got['exit']}"]
    for name, data in got.items():
        if name == "exit":
            continue
        path = case_dir(cid) / name
        recorded = path.read_bytes() if path.is_file() else b""
        if data == recorded:
            continue
        if name == "report.json" and recorded:
            paths = list(json_paths(json.loads(recorded), json.loads(data)))
            out += [f"report {p}" for p in paths] or ["report formatting"]
        else:
            out.append(f"{name} lines {changed_lines(recorded, data)}")
    return out


def test_golden_fixtures_are_every_bundled_fixture():
    from conftest import FIXTURE_NAMES
    assert sorted(FIXTURES) == FIXTURE_NAMES


def test_golden_corpus(tmp_path):
    exits = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert sorted(got) == sorted(exits)
    assert (sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
            == sorted(case_dir(cid).name for cid in got))
    changed = {cid: diff for cid, out in got.items()
               if (diff := differences(cid, out, exits[cid]))}
    assert not changed, "output bytes changed:\n" + "\n".join(
        f"  {cid}: {'; '.join(diff)}" for cid, diff in changed.items())


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_all(Path(tmp))
    for cid, out in corpus.items():
        case_dir(cid).mkdir(parents=True, exist_ok=True)
        for name, data in out.items():
            if name != "exit":
                (case_dir(cid) / name).write_bytes(data)
    CORPUS.write_text(json.dumps({cid: out["exit"] for cid, out in
                                  corpus.items()}, sort_keys=True, indent=2)
                      + "\n", encoding="utf-8")
    print(f"recorded {len(corpus)} cases to {GOLDEN}", file=sys.stderr)
