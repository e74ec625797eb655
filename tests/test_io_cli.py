"""Instance documents and the command-line surface.

Round-trips must be byte-stable, schema problems must name the offending
field, and every command must honour the pass / audited-failure / usage
exit-code split.
"""

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtbench import branching
from qdtbench import cli as qdt_cli
from qdtbench.branching import (DEPTH_GUARD, ROUNDS_GUARD, TREE_GUARD,
                                coarse_grain_count, tree_words)
from qdtbench.classical import CELLS_GUARD, VNM_TRIPLE_GUARD
from qdtbench.errors import ParseError, SchemaError, ValidationError
from qdtbench.io import dumps_instance, load_instance, loads_instance

from conftest import FIXTURE_DIR, FIXTURE_NAMES, cli


# -- round trips --------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip_is_byte_stable(name):
    text = (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")
    once = dumps_instance(loads_instance(text))
    twice = dumps_instance(loads_instance(once))
    assert once == twice
    assert once == text  # shipped fixtures are already canonical


# -- schema errors ------------------------------------------------------------

def _doc(name="min2"):
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text())


def test_missing_reward_flag_names_the_field():
    doc = _doc()
    del doc["rewards"][0]["is_r0"]
    with pytest.raises(SchemaError, match=r"\$\.rewards\[0\]\.is_r0"):
        loads_instance(json.dumps(doc))


def test_missing_erasure_names_the_field():
    doc = _doc()
    del doc["rewards"][1]["erasure"]
    with pytest.raises(SchemaError, match=r"\$\.rewards\[1\]\.erasure"):
        loads_instance(json.dumps(doc))


def test_bad_vector_entry_names_the_path():
    doc = _doc()
    doc["macrostates"][0]["basis"][0][0] = ["oops", 0.0]
    with pytest.raises(SchemaError, match=r"\$\.macrostates\[0\]\.basis"):
        loads_instance(json.dumps(doc))


def test_unknown_oracle_kind_is_schema_error():
    doc = _doc()
    doc["oracle"] = "dice"
    with pytest.raises(SchemaError, match="dice"):
        loads_instance(json.dumps(doc))


def test_unsupported_schema_version():
    doc = _doc()
    doc["schema_version"] = 99
    with pytest.raises(SchemaError, match="99"):
        loads_instance(json.dumps(doc))


def test_not_json_is_parse_error():
    with pytest.raises(ParseError):
        loads_instance("{not json")


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_instance(tmp_path / "absent.json")


def test_invalid_geometry_echoes_validation():
    doc = _doc("overlap2")
    doc["orthmacr"] = True  # now the overlap violates the niceness clause
    with pytest.raises(ValidationError, match="orthogonality"):
        loads_instance(json.dumps(doc))


def test_bad_comparison_value_rejected():
    doc = _doc("std6")
    doc["preference_pairs"][0]["comparison"] = 2
    with pytest.raises(ValidationError):
        loads_instance(json.dumps(doc))


# -- CLI exit codes -----------------------------------------------------------

def fx(name):
    return str(FIXTURE_DIR / f"{name}.json")


def test_cli_validate_passes_on_fixture():
    res = cli("validate", fx("min2"))
    assert res.returncode == 0
    assert b"valid" in res.stdout


def test_cli_validate_flags_broken_instance(tmp_path):
    doc = _doc("overlap2")
    doc["orthmacr"] = True
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    res = cli("validate", str(path))
    assert res.returncode == 1


_STD6 = _doc("std6")
#: case (a violation kind, then a note) -> (path, value) edits of std6
_INVALID_EDITS = {
    "macrostate-id": [(("macrostates", 1, "id"), "m0")],
    "reward-id": [(("rewards", 1, "id"), "r0")],
    "orthogonality": [(("macrostates", 1, "basis"),
                       _STD6["macrostates"][0]["basis"])],
    "coverage": [(("macrostates",), _STD6["macrostates"][:5]),
                 (("rewards", 2, "members"), ["m4"])],
    "reward-empty": [(("rewards", 1, "members"), [])],
    "reward-member": [(("rewards", 0, "members"), ["m0", "m1", "zz"])],
    "reward-overlap": [(("rewards", 0, "members"), ["m0", "m1", "m2"])],
    "reward-cover": [(("rewards", 1, "members"), ["m2"])],
    "erasure": [(("rewards", 0, "erasure"), "m2")],
    "anchors no worst": [(("rewards", 0, "is_r0"), False)],
    "anchors two worst": [(("rewards", 1, "is_r0"), True)],
    "anchors no best": [(("rewards", 2, "is_r1"), False)],
    "anchors two best": [(("rewards", 1, "is_r1"), True)],
    "anchors coincide": [(("rewards", 0, "is_r1"), True),
                         (("rewards", 2, "is_r1"), False)],
    "macrostates": [(("macrostates",), [])],
    "rewards": [(("rewards",), [])],
}


@pytest.mark.parametrize("case", sorted(_INVALID_EDITS))
def test_cli_validate_names_each_violation_kind(case, tmp_path, capsys):
    # the loader is the one gate: every violation a file can reach exits 1
    # with its kind in stdout and in the report
    doc = _doc("std6")
    for (*keys, last), value in _INVALID_EDITS[case]:
        slot = doc
        for key in keys:
            slot = slot[key]
        slot[last] = value
    path, report = tmp_path / "bad.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert qdt_cli.main(["validate", str(path), "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    kind = f"[{case.split()[0]}]"
    assert err == "" and "INVALID" in out and kind in out
    got = json.loads(report.read_text())
    assert got["ok"] is False and kind in got["error"]


@pytest.mark.parametrize("token",
                         ["NaN", "Infinity", "1e999", "1" + "0" * 400])
@pytest.mark.parametrize("name, keys, path", [
    ("min2", ("macrostates", 0, "basis", 0, 0, 0),
     "$.macrostates[0].basis[0][0][0]"),
    ("std6", ("acts", 0, "matrix", 0, 0, 0), "$.acts[0].matrix[0][0][0]"),
    ("std6", ("utility", "rA"), "$.utility.rA"),
])
def test_cli_refuses_non_finite_numbers(name, keys, path, token, tmp_path,
                                        capsys):
    # json reads each token (the last as an int past the float range);
    # each is refused at its path before numpy meets it (a numpy warning
    # turned error would show as an internal error)
    doc = _doc(name)
    slot = doc
    for key in keys[:-1]:
        slot = slot[key]
    slot[keys[-1]] = "@@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@@"', token))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qdt_cli.main(["validate", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert err == "" and "INVALID" in out
        assert f"{path}: not a finite number" in out
        assert qdt_cli.main(["audit-richness", "--seed", "0", str(bad)]) == 2
        out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid instance: {path}: not a finite number\n"


def test_cli_missing_seed_is_usage_error():
    res = cli("audit-richness", fx("min2"))
    assert res.returncode == 2


def test_cli_seed_comes_only_from_the_flag():
    # the environment is not a second seed source
    res = cli("audit-richness", fx("min2"),
              env=dict(os.environ, QDT_SEED="7"))
    assert res.returncode == 2 and res.stdout == b""
    assert res.stderr.startswith(b"error:") and res.stderr.count(b"\n") == 1


def test_cli_missing_file_is_io_error():
    res = cli("validate", "/no/such/instance.json")
    assert res.returncode == 2


def test_cli_counting_audit_fails_with_witness():
    res = cli("audit-rationality", "--seed", "0", "--samples", "60",
              "--oracle", "counting", fx("std6"))
    assert res.returncode == 1
    assert b"FAIL" in res.stdout


def test_cli_counterexample_exit_codes():
    found = cli("counterexample", "--seed", "0", "--samples", "80",
                "--axiom", "branch-uniqueness", fx("overlap2"))
    assert found.returncode == 1
    clean = cli("counterexample", "--seed", "0", "--samples", "40",
                "--axiom", "branch-uniqueness", fx("std6"))
    assert clean.returncode == 0


def test_cli_counterexample_reports_a_skipped_target(tmp_path, capsys):
    # on overlap2 no StaSup, DiacCons or BrCons construction fits, so no
    # check runs: the search says so and why, and still exits 0
    for axiom in ("StaSup", "DiacCons", "BrCons"):
        report = tmp_path / f"{axiom}.json"
        assert qdt_cli.main(["counterexample", "--seed", "0", "--oracle",
                             "counting", "--axiom", axiom, "overlap2",
                             "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert (doc["status"], doc["checks"], doc["found"]) == ("skip", 0,
                                                                False)
        assert doc["note"].startswith("skipped: ")
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"no check could run - {doc['note']}", "RESULT skip"]


def test_cli_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("audit-rationality", "--seed", "3", "--samples", "40",
            "--oracle", "born", fx("min2"))
    r1 = cli(*args, "--report", str(out1))
    r2 = cli(*args, "--report", str(out2))
    assert r1.returncode == r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.stdout == r2.stdout


def test_cli_report_has_no_absolute_paths(tmp_path):
    out = tmp_path / "r.json"
    cli("check-lemmas", "--seed", "1", "--samples", "40", fx("std6"),
        "--report", str(out))
    doc = json.loads(out.read_text())
    blob = json.dumps(doc)
    assert str(FIXTURE_DIR) not in blob
    assert doc["instance"] == "std6.json"


def test_cli_simulate_csv_contract():
    res = cli("simulate", "--k", "2", "--weights", "0.5,0.5",
              "--n", "10,100,1000", "--eps", "0.1")
    assert res.returncode == 0
    lines = res.stdout.split(b"\r\n")
    assert lines[0] == b"k,n,deviation"
    rows = [line.split(b",") for line in lines[1:] if line]
    assert len(rows) == 3
    devs = [float(r[2]) for r in rows]
    assert abs(devs[0] - 0.34375) < 1e-12
    assert devs[0] > devs[1] > devs[2]


_W6 = "0.3,0.15,0.25,0.05,0.2,0.05"


@pytest.mark.parametrize("args, message", [
    (["--k", "6", "--weights", _W6, "--n", "33", "--theta-list", "0.1,-1"],
     "grain threshold must be nonnegative"),
    (["--k", "2", "--weights", "0.5,0.5", "--n", "3",
      "--theta-list=-0.0,-1e-300"], "grain threshold must be nonnegative"),
    # weight, depth and guard errors still win over a negative threshold
    (["--k", "2", "--weights", "0.5,0.6", "--n", "4", "--theta-list=-1"],
     "branch weights sum to 1.1, not 1"),
    (["--k", "2", "--weights", "0.5,0.5", "--n", "-1",
      "--theta-list", "0.1,-1"], "depth must be nonnegative"),
    (["--k", "6", "--weights", _W6, "--n", "34", "--theta-list=-1"],
     "6 outcomes at depth 34 give a tree of more than 4000000 words "
     "(the tree guard)"),
    (["--k", "2", "--weights", "0.5,0.5", "--n", str(DEPTH_GUARD + 1),
      "--theta-list=-1"],
     f"depth {DEPTH_GUARD + 1} is above the depth guard of {DEPTH_GUARD}"),
    (["--k", "6", "--weights", _W6, "--n", "30",
      "--theta-list=" + ",".join(["-1"] + ["0.1"] * 130)],
     "grain threshold must be nonnegative"),
    # a weight error wins over the depth guard
    (["--k", "2", "--weights", "0.5,0.6", "--n", str(DEPTH_GUARD + 1),
      "--theta-list=-1"], "branch weights sum to 1.1, not 1"),
])
def test_cli_sweep_refuses_before_the_walk(args, message, monkeypatch,
                                           capsys):
    def walk(*_):
        raise AssertionError("the count vectors were walked")

    monkeypatch.setattr(branching, "_count_rows", walk)
    assert qdt_cli.main(["sweep-grain"] + args) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_sweep_at_the_tree_guard_takes_eleven_thresholds(capsys):
    # one walk whatever the thresholds: eleven at k = 6, n = 33 run, and
    # each count is that threshold's own single-threshold sweep
    thetas = [10.0 ** -e for e in range(15, 36, 2)]
    assert qdt_cli.main(["sweep-grain", "--k", "6", "--weights", _W6,
                         "--n", "33", "--theta-list",
                         ",".join(map(repr, thetas))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,count" and len(lines) == 12
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts[0] == 0 < counts[2]
    w6 = [float(w) for w in _W6.split(",")]
    assert counts == [coarse_grain_count(w6, 33, [theta])[0]
                      for theta in thetas]


def test_cli_elicit_recovers_planted_value():
    res = cli("elicit", fx("std6"))
    assert res.returncode == 0
    assert b"rA" in res.stdout


def test_cli_elicit_reports_a_refused_elicitation(monkeypatch, tmp_path,
                                                  capsys):
    # no bundled oracle reaches this branch, so the elicitation is stubbed
    from qdtbench import preference
    from qdtbench.errors import NonMonotoneOracle

    def refuse(*args, **kwargs):
        raise NonMonotoneOracle("stub refusal")

    monkeypatch.setattr(preference, "elicit_utility", refuse)
    report = tmp_path / "elicit.json"
    assert qdt_cli.main(["elicit", "std6", "--report", str(report)]) == 1
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["ok"] is False
    assert doc["error"] == "stub refusal"
    out = capsys.readouterr().out.splitlines()
    assert out == ["instance std6.json: elicitation failed: stub refusal",
                   "RESULT fail"]


def test_cli_savage_brackets_planted_probability():
    res = cli("savage", "--cells", "8")
    assert res.returncode == 0
    res64 = cli("savage", "--cells", "64")
    assert res64.returncode == 0


def test_cli_classical_lex_fails_archimedean():
    res = cli("classical-vnm", "--seed", "0", "--oracle", "lex", fx("std6"))
    assert res.returncode == 1
    res2 = cli("classical-vnm", "--seed", "0", "--oracle", "pmeu", fx("std6"))
    assert res2.returncode == 0


def test_cli_classical_refuses_past_the_triple_guard(capsys):
    # std6 has 3 rewards, so 6 fixed lotteries: 1,239 samples draw 61
    # more (C(67, 3) = 47,905 triples) and 1,240 draw 62 (50,116)
    assert math.comb(6 + 1239 // 20, 3) <= VNM_TRIPLE_GUARD
    assert qdt_cli.main(["classical-vnm", "--seed", "0", "--samples",
                         "1240", "std6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --samples 1240 makes 68 lotteries with 50116 "
                   "triples, above the triple guard of 50000\n")


@pytest.mark.xfail(strict=True, reason="Archimedean tries t only down to "
                   "1 - 1e-4; a chain whose A and B differ by less in "
                   "expected utility finds no upper witness")
def test_cli_classical_pmeu_passes_archimedean_on_a_close_chain(capsys):
    # first witness: A = {r1: .5, rA: .5} > B > δ(r0) with u(rA) = 0.4,
    # EU(A) - EU(B) = 3.45e-5 < 1e-4 * (EU(A) - EU(C)), so no grid t
    # straddles B, though t = 1 - 1e-5 does
    assert qdt_cli.main(["classical-vnm", "--seed", "450", "--oracle",
                         "pmeu", fx("std6")]) == 0


def test_cli_bundled_fixture_by_name():
    # a bare known name resolves to the packaged instance
    res = cli("validate", "min2.json")
    assert res.returncode == 0


@pytest.mark.parametrize("argv", [
    ["elicit", "std6", "--tol", "-1"],
    ["elicit", "std6", "--tol", "nan"],
    ["validate", "std6", "--report", "{tmp}/missing/r.json"],
    ["simulate", "--k", "2", "--weights", "0.5,0.5", "--n", "10",
     "--eps", "0.1", "--out", "{tmp}/missing/s.csv"],
    ["simulate", "--k", "2", "--weights", "0.5,0.5", "--n", "10",
     "--eps", "inf"],
    ["simulate", "--k", "2", "--weights", "0.5,0.5", "--n", "nan",
     "--eps", "0.1"],
    ["audit-richness", "--seed", "0", "--samples", "-5", "min2"],
    ["sweep-grain", "--k", "2", "--weights", "0.5,0.5", "--n", "3",
     "--theta-list", "nan"],
    ["counterexample", "--seed", "0", "--oracle", "born", "--axiom",
     "branch-uniqueness", "overlap2"],
    ["counterexample", "--seed", "0", "--oracle", "counting", "--axiom",
     "equivalence-step", "irrev6"],
    ["simulate", "--k", "2", "--weights", "0.5,0.5", "--n", "1.9",
     "--eps", "0.1"],
    ["classical-vnm", "--seed", "0", "--samples", "0", "std6"],
    ["born-theorem", "--seed", "0", "--samples", "0", "std6"],
    ["counterexample", "--seed", "0", "--samples", "0", "--axiom",
     "branch-uniqueness", "overlap2"],
])
def test_cli_bad_arguments_are_usage_errors(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert qdt_cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err and "internal error" not in err


#: (command, optional flag) -> (the rest of one call, two flag values)
#: whose outcomes differ; every optional flag needs an entry
_FLAG_CALLS = {
    ("validate", "--report"): (["min2"], "a.json", "b.json"),
    ("audit-richness", "--report"): (["--seed", "0", "--samples", "5",
                                      "min2"], "a.json", "b.json"),
    ("audit-richness", "--samples"): (["--seed", "0", "std6", "--report",
                                       "r.json"], "3", "60"),
    ("audit-richness", "--seed"): (["--samples", "5", "overlap2",
                                    "--report", "r.json"], "0", "1"),
    ("audit-rationality", "--report"): (["--seed", "0", "--samples", "5",
                                         "min2"], "a.json", "b.json"),
    ("audit-rationality", "--samples"): (["--seed", "0", "std6", "--report",
                                          "r.json"], "3", "60"),
    ("audit-rationality", "--seed"): (["--samples", "5", "overlap2",
                                       "--report", "r.json"], "0", "1"),
    ("audit-rationality", "--oracle"): (["--seed", "0", "--samples", "5",
                                         "std6"], "born", "counting"),
    ("check-lemmas", "--report"): (["--seed", "0", "--samples", "5",
                                    "min2"], "a.json", "b.json"),
    ("check-lemmas", "--samples"): (["--seed", "0", "std6", "--report",
                                     "r.json"], "3", "60"),
    ("check-lemmas", "--seed"): (["--samples", "5", "overlap2", "--report",
                                  "r.json"], "0", "1"),
    ("check-lemmas", "--oracle"): (["--seed", "0", "--samples", "5", "std6"],
                                   "born", "counting"),
    ("born-theorem", "--report"): (["--seed", "0", "--samples", "5",
                                    "min2"], "a.json", "b.json"),
    ("born-theorem", "--samples"): (["--seed", "0", "std6", "--report",
                                     "r.json"], "3", "60"),
    ("born-theorem", "--seed"): (["--samples", "5", "overlap2", "--report",
                                  "r.json"], "0", "1"),
    ("counterexample", "--report"): (["--seed", "0", "--axiom", "Ord",
                                      "min2"], "a.json", "b.json"),
    ("counterexample", "--samples"): (["--seed", "0", "--oracle", "counting",
                                       "--axiom", "SolCont", "std6",
                                       "--report", "r.json"], "1", "200"),
    ("counterexample", "--seed"): (["--axiom", "branch-uniqueness",
                                    "overlap2", "--report", "r.json"],
                                   "0", "1"),
    ("counterexample", "--oracle"): (["--seed", "0", "--axiom", "Ord",
                                      "std6"], "born", "table"),
    ("elicit", "--report"): (["min2"], "a.json", "b.json"),
    ("elicit", "--oracle"): (["std6"], "born", "counting"),
    ("elicit", "--tol"): (["std6", "--report", "r.json"], "0.001", "1e-06"),
    ("classical-vnm", "--report"): (["--seed", "0", "min2"],
                                    "a.json", "b.json"),
    ("classical-vnm", "--samples"): (["--seed", "0", "std6"], "20", "40"),
    ("classical-vnm", "--seed"): (["--oracle", "lex", "std6", "--report",
                                   "r.json"], "0", "1"),
    ("classical-vnm", "--oracle"): (["--seed", "0", "std6"], "pmeu", "lex"),
    ("simulate", "--out"): (["--k", "2", "--weights", "0.5,0.5", "--n", "10",
                             "--eps", "0.1"], "a.csv", "b.csv"),
    ("sweep-grain", "--out"): (["--k", "2", "--weights", "0.5,0.5", "--n",
                                "4", "--theta-list", "0.1"], "a.csv", "b.csv"),
    ("savage", "--report"): (["--cells", "8"], "a.json", "b.json"),
}


def _optional_flags() -> set[tuple[str, str]]:
    parser = qdt_cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return {(name, action.option_strings[-1])
            for name, sp in sub.choices.items() for action in sp._actions
            if action.option_strings and not action.required
            and not isinstance(action, argparse._HelpAction)}


def test_flag_table_covers_every_optional_flag():
    assert sorted(_FLAG_CALLS) == sorted(_optional_flags())


def _outcome(argv, value, directory, capsys, monkeypatch):
    """Exit code, stdout and the files a call writes, less the flag's own
    echo (`=value` in stdout, a report field equal to the value)."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    rc = qdt_cli.main(argv)
    out = capsys.readouterr().out.replace(f"={value}", "=")
    files = {}
    for path in directory.iterdir():
        text = path.read_text(encoding="utf-8")
        files[path.name] = text if path.suffix != ".json" else {
            k: v for k, v in json.loads(text).items() if str(v) != value}
    return rc, out, files


@pytest.mark.parametrize("command, flag", [
    pytest.param(*key, id=" ".join(key)) for key in sorted(_FLAG_CALLS)])
def test_no_optional_flag_is_ignored(command, flag, tmp_path, capsys,
                                     monkeypatch):
    rest, one, two = _FLAG_CALLS[command, flag]
    first, second = (_outcome([command, flag, value] + rest, value,
                              tmp_path / str(i), capsys, monkeypatch)
                     for i, value in enumerate((one, two)))
    assert first != second


# Numeric tokens for the fuzz test: legal values stay small, so the test
# stays fast (`savage --cells` also draws up to its guard); illegal ones
# cover signs, non-finite and non-numeric text.
_BAD_TOKENS = ["-1", "0", "nan", "inf", "-inf", "1e999", "abc", "", "0x10",
               "1,2", " ", "1.5", "-0.0"]
_INTS = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(_BAD_TOKENS))
_FLOATS = st.one_of(st.floats(-2.0, 2.0).map(repr),
                    st.sampled_from(["0.5", "0.25", "1e-3", "1e-300"]),
                    st.sampled_from(_BAD_TOKENS))
_LISTS = st.lists(st.one_of(_INTS, _FLOATS), min_size=1,
                  max_size=3).map(",".join)


@st.composite
def _cheap_argv(draw):
    kind = draw(st.sampled_from(["validate", "elicit", "simulate",
                                 "sweep-grain", "savage", "classical-vnm"]))
    if kind == "validate":
        return ["validate", draw(st.sampled_from(["min2", "nosuch", "5"]))]
    if kind == "elicit":
        return ["elicit", "min2", "--tol", draw(_FLOATS)]
    if kind == "simulate":
        return ["simulate", "--k", draw(_INTS), "--weights", draw(_LISTS),
                "--n", draw(_LISTS), "--eps", draw(_FLOATS)]
    if kind == "sweep-grain":
        return ["sweep-grain", "--k", draw(_INTS), "--weights", draw(_LISTS),
                "--n", draw(_INTS), "--theta-list", draw(_LISTS)]
    if kind == "savage":
        # a draw at the cell guard takes about 0.2 s in process
        return ["savage", "--cells",
                draw(st.one_of(_INTS, st.integers(2, CELLS_GUARD).map(str)))]
    return ["classical-vnm", "--seed", draw(_INTS), "--samples",
            draw(_INTS), "min2"]


def _first_refused_depth(k: int) -> int:
    """The least depth at which coarse_grain_count refuses k outcomes:
    past the depth guard, or a tree of more words than the tree guard."""
    n = 0
    while n <= DEPTH_GUARD and tree_words(k, n) <= TREE_GUARD:
        n += 1
    return n


_REFUSED_DEPTH = {k: _first_refused_depth(k) for k in range(2, 9)}
_PAST = st.one_of(st.integers(1, 50), st.just(10 ** 12))


def _first_refused_samples() -> int:
    """A --samples value classical-vnm refuses on any instance: it draws
    samples // 20 lotteries, whose triples alone pass the triple guard."""
    m = 3
    while math.comb(m, 3) <= VNM_TRIPLE_GUARD:
        m += 1
    return 20 * m


@st.composite
def _past_guard_argv(draw):
    """Otherwise legal series arguments just past a cost guard: one
    entry too large, or legal entries too many for the whole call."""
    kind = draw(st.sampled_from(["simulate", "simulate-list", "sweep-grain",
                                 "savage", "classical-vnm"]))
    if kind == "savage":
        return ["savage", "--cells", str(CELLS_GUARD + draw(_PAST))]
    if kind == "classical-vnm":
        samples = _first_refused_samples() - 1 + draw(_PAST)
        return ["classical-vnm", "--seed", "0", "--samples", str(samples),
                draw(st.sampled_from(FIXTURE_NAMES))]
    if kind.startswith("simulate"):
        if kind == "simulate":
            depths = draw(st.lists(st.integers(1, 50), max_size=2))
            depths.insert(draw(st.integers(0, len(depths))),
                          DEPTH_GUARD + draw(_PAST))
        else:
            depth = draw(st.integers(DEPTH_GUARD // 2, DEPTH_GUARD))
            depths = [depth] * (ROUNDS_GUARD // (depth + 10) + 1
                                + draw(st.integers(0, 5)))
        return ["simulate", "--k", "2", "--weights", "0.25,0.75",
                "--n", ",".join(map(str, depths)), "--eps", "0.1"]
    k = draw(st.sampled_from(sorted(_REFUSED_DEPTH)))
    weights = ",".join(["0.5"] + [repr(0.5 / (k - 1))] * (k - 1))
    depth = _REFUSED_DEPTH[k] - 1 + draw(_PAST)
    return ["sweep-grain", "--k", str(k), "--weights", weights,
            "--n", str(depth), "--theta-list", "0.001,0.001"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_cheap_argv().map(lambda argv: (argv, False)),
                 _past_guard_argv().map(lambda argv: (argv, True))))
def test_cli_exit_contract_on_fuzzed_numbers(case):
    argv, past_guard = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qdt_cli.main(argv)
    assert rc in (0, 1, 2), argv
    text = err.getvalue()
    assert text == "" or text.startswith(("error:", "usage:")), (argv, text)
    assert "internal error" not in text, (argv, text)
    if past_guard:
        assert rc == 2 and out.getvalue() == "", argv
        assert text.startswith("error:") and text.count("\n") == 1, text
        assert "guard" in text, text


def test_cli_backstop_turns_a_defect_into_one_error_line(monkeypatch,
                                                         capsys):
    # a defect in a command, or a ValueError inside a search check, which
    # must not read as a usage error
    from qdtbench import audit

    def broken(*args):
        raise RuntimeError("kernel fault\nsecond line")

    def refused(*args):
        raise ValueError("not an isometry")

    monkeypatch.setattr(qdt_cli, "cmd_savage", broken)
    monkeypatch.setitem(audit._TABLES["search"][1], "branch-uniqueness",
                        refused)
    for argv, kind in ((["savage", "--cells", "8"], "RuntimeError"),
                       (["counterexample", "--seed", "0", "--axiom",
                         "branch-uniqueness", "overlap2"], "ValueError")):
        assert qdt_cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error at ")
        assert captured.err.count("\n") == 1
        assert kind in captured.err and "Traceback" not in captured.err


def test_cli_commands_never_import_the_scipy_package(tmp_path):
    # a fresh interpreter: this pytest process has already imported scipy.
    # No command loads any scipy module.  Importing the CLI, the series
    # commands and the usage errors load neither numpy nor the quantum
    # layers.
    script = textwrap.dedent("""
        import sys
        from qdtbench import cli

        def loaded(prefix):
            return sorted(m for m in sys.modules if m.startswith(prefix))

        assert not loaded("numpy"), loaded("numpy")
        for argv, code in (
                (["simulate", "--k", "2", "--weights", "0.5,0.5",
                  "--n", "10,100", "--eps", "0.1", "--out", "sim.csv"], 0),
                (["sweep-grain", "--k", "2", "--weights", "0.5,0.5",
                  "--n", "4", "--theta-list", "0.1", "--out", "grain.csv"], 0),
                (["savage", "--cells", "8", "--report", "savage.json"], 0),
                (["--help"], 0), (["frobnicate"], 2),
                (["audit-richness", "std6"], 2),
                (["validate", "no-such-fixture"], 2)):
            assert cli.main(argv) == code, argv
            assert not loaded("numpy"), (argv, loaded("numpy"))
        assert not loaded("scipy"), loaded("scipy")
        from qdtbench.audit import AuditReport
        from qdtbench.instances import random_problem
        # every layer has run now (audit imports the rest); none loads scipy
        assert not loaded("scipy"), loaded("scipy")
        random_problem(0)
        assert not loaded("scipy"), loaded("scipy")
        for argv in (
                ["validate", "std6"],
                ["elicit", "min2"],
                ["audit-richness", "--seed", "0", "--samples", "5", "min2"],
                ["audit-rationality", "--seed", "0", "--samples", "5",
                 "min2"],
                ["check-lemmas", "--seed", "0", "--samples", "5", "min2"],
                ["born-theorem", "--seed", "0", "--samples", "5", "min2"],
                ["counterexample", "--seed", "0", "--axiom",
                 "branch-uniqueness", "overlap2"],
                ["classical-vnm", "--seed", "0", "--samples", "5", "min2"]):
            cli.main(argv)
            assert not loaded("scipy"), (argv, loaded("scipy"))
    """)
    src = str(Path(qdt_cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=env, capture_output=True, timeout=300)
    assert res.returncode == 0, res.stderr.decode()


def test_package_names_resolve_lazily_to_their_home_objects():
    import qdtbench
    from qdtbench import classical, preference
    for name in qdtbench.__all__:
        value = getattr(qdtbench, name)
        home = sys.modules[value.__module__]
        assert value is getattr(home, name), name
    namespace = {}
    exec("from qdtbench import *", namespace)
    assert set(qdtbench.__all__) <= set(namespace)
    assert set(qdtbench.__all__) <= set(dir(qdtbench))
    with pytest.raises(AttributeError, match="no_such_name"):
        qdtbench.no_such_name
    assert preference.Comparison is classical.Comparison
    assert preference.TIE_BAND is classical.TIE_BAND


def test_no_call_overrides_a_tolerance():
    # each decision reads its one named tolerance; only the elicitation
    # bracket width, which `qdt elicit --tol` sets, is an argument
    from qdtbench import classical, comparison, forge, hilbert, preference
    knobs = {"tol", "tie", "max_steps", "method"}
    exempt = {"elicit_utility.tol", "vnm_elicit.tol"}
    found = []
    for mod in (hilbert, forge, comparison, preference, classical):
        funcs = []
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                funcs.append(obj)
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    attr = getattr(attr, "__func__", attr)
                    if inspect.isfunction(attr):
                        funcs.append(attr)
        for f in funcs:
            for param in inspect.signature(f).parameters.values():
                key = f"{f.__qualname__}.{param.name}"
                if (param.name in knobs and key not in exempt
                        and param.default is not param.empty):
                    found.append(f"{mod.__name__}.{key}")
    assert found == []
