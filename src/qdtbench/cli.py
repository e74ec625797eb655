"""The `qdt` command: load an instance file, run one audit or series,
emit a human summary on stdout and, on request, a machine report.

Exit contract: 0 when everything audited passed, 1 when an audited
property failed (the report carries a replayable witness), 2 on usage
or I/O problems.  Reports are byte-identical for identical
(instance, command, seed): keys are sorted, no timestamps or absolute
paths are embedded.  Sampled commands require --seed so no report is
irreproducible.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from . import classical as cls
from .branching import (born_deviation_norm, check_series_cost,
                        coarse_grain_count)
from .comparison import ELICIT_TOL
from .errors import (NonMonotoneOracle, NotEquipartition, QdtError,
                     SeriesTooLarge, ValidationError)


def _lazy(layer: str):
    """Register `qdtbench.<layer>` with its bytecode cached; its body runs
    at the first attribute use, so the series commands never load it."""
    name = f"{__package__}.{layer}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if not sys.dont_write_bytecode and not os.path.exists(spec.cached):
        spec.loader.get_code(name)  # writes the .pyc, as an import would
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], layer, module)
    return module


audit_mod = _lazy("audit")
io_mod = _lazy("io")
preference_mod = _lazy("preference")
# no command reads this name; registering it writes problem.pyc when
# `import qdtbench.cli` warms the bytecode, before anything is timed
problem_mod = _lazy("problem")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# -- plumbing -----------------------------------------------------------------

def _resolve_instance_text(name: str) -> tuple[str, str]:
    """Return (display name, document text) for a path or bundled fixture."""
    path = Path(name)
    if path.exists():
        try:
            return path.name, path.read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read {name}: {exc}") from None
    stem = name[:-5] if name.endswith(".json") else name
    try:
        pkg_file = resources.files("qdtbench.fixtures") / f"{stem}.json"
        if pkg_file.is_file():
            return f"{stem}.json", pkg_file.read_text(encoding="utf-8")
    except (ModuleNotFoundError, FileNotFoundError):
        pass
    raise UsageError(f"no such instance file or bundled fixture: {name}")


def _load(name: str) -> tuple[str, io_mod.LoadedInstance]:
    display, text = _resolve_instance_text(name)
    return display, io_mod.loads_instance(text)


def _seed_of(args) -> int:
    if args.seed is None:
        raise UsageError("this command samples; pass --seed")
    if args.seed < 0:
        raise UsageError("seed must be nonnegative")
    return args.seed


def _write_report(doc: dict, path: str | None) -> None:
    if path:
        try:
            Path(path).write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n",
                encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(header: list[str], rows: list[list], path: str | None) -> None:
    """RFC-4180-style series: header row, CRLF, `.` decimals."""
    if path:
        try:
            handle = open(path, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    else:
        handle = sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    finally:
        if path:
            handle.close()


def _print_audit(display: str, report) -> None:
    print(f"instance {display}: {report.kind} audit "
          f"(seed={report.seed}, samples={report.samples})")
    for r in report.results:
        line = f"  {r.status.upper():4s} {r.name} ({r.samples} checks)"
        if r.note:
            line += f" - {r.note}"
        print(line)
    print(f"RESULT {'pass' if report.ok else 'fail'}")


# -- commands ----------------------------------------------------------------

def cmd_validate(args) -> int:
    display, text = _resolve_instance_text(args.instance)
    try:
        inst = io_mod.loads_instance(text)
    except ValidationError as exc:
        doc = {"command": "validate", "instance": display, "ok": False,
               "error": str(exc)}
        _write_report(doc, args.report)
        print(f"instance {display}: INVALID")
        print(f"  {exc}")
        print("RESULT fail")
        return EXIT_FAIL
    doc = {"command": "validate", "instance": display, "ok": True}
    _write_report(doc, args.report)
    print(f"instance {display}: "
          f"dim={inst.problem.dim}, "
          f"{len(inst.problem.macrostates)} macrostates, "
          f"{len(inst.problem.rewards)} rewards, "
          f"{len(inst.problem.act_generators)} acts, "
          f"oracle={inst.oracle_kind}")
    print("valid")
    print("RESULT pass")
    return EXIT_OK


def cmd_audit(args) -> int:
    seed = _seed_of(args)
    display, inst = _load(args.instance)
    p, kw = inst.problem, {"samples": args.samples, "seed": seed}
    if args.command == "audit-richness":
        report = audit_mod.audit_richness(p, **kw)
    elif args.command == "audit-rationality":
        report = audit_mod.audit_rationality(p, inst.oracle(args.oracle), **kw)
    elif args.command == "check-lemmas":
        report = audit_mod.check_lemmas(p, inst.oracle(args.oracle),
                                        inst.utility, **kw)
    else:
        report = audit_mod.born_theorem_report(p, inst.utility, **kw)
    _write_report({"command": args.command, "instance": display,
                   **report.to_dict()}, args.report)
    _print_audit(display, report)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_counterexample(args) -> int:
    seed = _seed_of(args)
    targets = audit_mod.COUNTEREXAMPLE_TARGETS
    if args.axiom not in targets:
        raise UsageError(f"unknown counterexample target {args.axiom!r}; "
                         f"choose from {', '.join(targets)}")
    # the geometric searches read the problem alone
    geometric = args.axiom in audit_mod.SEARCH_TARGETS
    if geometric and args.oracle is not None:
        raise UsageError(f"--oracle: the {args.axiom} search asks no oracle")
    display, inst = _load(args.instance)
    oracle = None if geometric else inst.oracle(args.oracle)
    res = audit_mod.find_counterexample(
        inst.problem, oracle, args.axiom, budget=args.samples, seed=seed)
    witness = ({"target": args.axiom, "witness": res.witnesses[0]}
               if res.witnesses else None)
    doc = {"command": "counterexample", "instance": display,
           "axiom": args.axiom, "seed": seed,
           "budget": args.samples, "checks": res.samples,
           "found": witness is not None, "witness": witness}
    _write_report(doc, args.report)
    print(f"instance {display}: counterexample search for {args.axiom} "
          f"(seed={seed}, budget={args.samples})")
    if witness is None:
        print("no counterexample found")
        print("RESULT pass")
        return EXIT_OK
    print("counterexample found:")
    print(json.dumps(witness, sort_keys=True, indent=2))
    print("RESULT fail")
    return EXIT_FAIL


def cmd_simulate(args) -> int:
    weights = _parse_floats(args.weights, "--weights")
    depths = _parse_floats(args.n, "--n")
    if not all(v.is_integer() for v in depths):
        raise UsageError(f"--n: {args.n!r} has a non-integral depth")
    depths = [int(v) for v in depths]
    if args.k != len(weights):
        raise UsageError(f"--k {args.k} does not match "
                         f"{len(weights)} weights")
    check_series_cost(depths)
    try:
        rows = [[args.k, n, born_deviation_norm(weights, n, args.eps)]
                for n in depths]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_csv(["k", "n", "deviation"], rows, args.out)
    return EXIT_OK


def cmd_sweep_grain(args) -> int:
    weights = _parse_floats(args.weights, "--weights")
    thetas = _parse_floats(args.theta_list, "--theta-list")
    if args.k != len(weights):
        raise UsageError(f"--k {args.k} does not match "
                         f"{len(weights)} weights")
    try:
        counts = coarse_grain_count(weights, args.n, thetas)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_csv(["theta", "count"], [list(row) for row in zip(thetas, counts)],
               args.out)
    return EXIT_OK


def cmd_elicit(args) -> int:
    display, inst = _load(args.instance)
    oracle = inst.oracle(args.oracle)
    planted = inst.utility.as_dict()
    try:
        res = preference_mod.elicit_utility(inst.problem, oracle, tol=args.tol)
    except NonMonotoneOracle as exc:
        doc = {"command": "elicit", "instance": display, "ok": False,
               "error": str(exc), "tol": args.tol}
        _write_report(doc, args.report)
        print(f"instance {display}: elicitation failed: {exc}")
        print("RESULT fail")
        return EXIT_FAIL
    gaps = {rid: abs(res.table.of(rid) - planted[rid])
            for rid in inst.problem.reward_ids}
    ok = max(gaps.values()) <= args.tol
    doc = {"command": "elicit", "instance": display, "ok": ok,
           "tol": args.tol, "elicited": res.table.as_dict(),
           "planted": planted, "steps": res.steps, "queries": res.queries}
    _write_report(doc, args.report)
    print(f"instance {display}: elicited utilities "
          f"(tol={args.tol:g}, {res.queries} queries)")
    for rid in inst.problem.reward_ids:
        print(f"  {rid}: {res.table.of(rid):.9f} "
              f"(planted {planted[rid]:.9f}, gap {gaps[rid]:.3e})")
    print(f"RESULT {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_classical_vnm(args) -> int:
    import numpy as np

    seed = _seed_of(args)
    display, inst = _load(args.instance)
    values = inst.utility.as_dict()
    rids = list(inst.problem.reward_ids)
    by_worth = sorted(rids, key=lambda r: (-values[r], r))
    if args.oracle == "pmeu":
        oracle = cls.PMEUOracle(values)
    else:
        oracle = cls.LexicographicOracle(by_worth[:2])
    lotteries = [cls.Lottery.delta(rid) for rid in rids]
    if len(rids) >= 3:
        best, mid, worst = by_worth[0], by_worth[1], by_worth[-1]
        # lexicographic blind spot: ties in the top coordinate decided
        # below, which no mixture toward the top can overcome
        lotteries += [cls.Lottery({best: 0.5, mid: 0.5}),
                      cls.Lottery({best: 0.5, worst: 0.5}),
                      cls.Lottery({mid: 0.5, worst: 0.5})]
    drawn = max(2, args.samples // 20)
    n = len(lotteries) + drawn
    triples = math.comb(n, 3)
    if triples > cls.VNM_TRIPLE_GUARD:
        raise SeriesTooLarge(
            f"--samples {args.samples} makes {n} lotteries with {triples} "
            f"triples, above the triple guard of {cls.VNM_TRIPLE_GUARD}")
    rng = np.random.default_rng([seed, 7])
    for _ in range(drawn):
        probs = rng.dirichlet(np.ones(len(rids)))
        lotteries.append(cls.Lottery(dict(zip(rids, probs))))
    checks = cls.check_vnm_axioms(lotteries, oracle,
                                  samples=args.samples, seed=seed)
    ok = all(c.ok for c in checks)
    doc = {"command": "classical-vnm", "instance": display,
           "oracle": args.oracle, "seed": seed, "samples": args.samples,
           "ok": ok,
           "checks": [{"name": c.name, "status": c.status,
                       "samples": c.samples, "failures": c.failures}
                      for c in checks]}
    _write_report(doc, args.report)
    print(f"instance {display}: VNM axiom checks against the "
          f"{args.oracle} order (seed={seed})")
    for c in checks:
        print(f"  {c.status.upper():4s} {c.name} ({c.samples} checks)")
    print(f"RESULT {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_savage(args) -> int:
    n = args.cells
    if n < 2:
        raise UsageError("--cells must be at least 2")
    if n > cls.CELLS_GUARD:
        raise SeriesTooLarge(f"--cells {n} is above the cell guard of "
                             f"{cls.CELLS_GUARD}")
    states = [f"s{i}" for i in range(n)]
    measure = {s: 1.0 / n for s in states}
    oracle = cls.PlantedMeasureOracle(measure, {"win": 1.0, "lose": 0.0})
    cells = [[s] for s in states]
    m_true = max(1, n // 4)
    event = states[:m_true]
    planted = m_true / n
    try:
        lo, hi = cls.savage_probability(oracle, states, event, cells,
                                        "win", "lose")
    except NotEquipartition as exc:
        raise UsageError(str(exc)) from None
    width = hi - lo
    tol = cls.PROB_TOL
    ok = lo - tol <= planted <= hi + tol and abs(width - 1.0 / n) <= tol
    doc = {"command": "savage", "cells": n, "event_size": m_true,
           "planted": planted, "low": lo, "high": hi, "width": width,
           "ok": ok}
    _write_report(doc, args.report)
    print(f"savage bracket with {n} cells, event of {m_true} cell(s): "
          f"[{lo:.6f}, {hi:.6f}] (planted {planted:.6f})")
    print(f"RESULT {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_FAIL


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(v) for v in text.split(",") if v != "")
    except ValueError:
        raise UsageError(f"{flag}: {text!r} is not a comma-separated "
                         f"number list") from None
    if not parts:
        raise UsageError(f"{flag}: empty list")
    if not all(math.isfinite(v) for v in parts):
        raise UsageError(f"{flag}: {text!r} has a non-finite entry")
    return parts


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdt",
        description="Finite-dimensional decision-theory workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_instance(sp, sampled=True, oracle_kinds=None):
        sp.add_argument("instance",
                        help="instance JSON path or bundled fixture name")
        sp.add_argument("--report", help="write the JSON report here")
        if sampled:
            sp.add_argument("--samples", type=_positive_int, default=200)
            sp.add_argument("--seed", type=int, default=None,
                            help="required")
        if oracle_kinds:
            sp.add_argument("--oracle", choices=oracle_kinds, default=None,
                            help="override the document's oracle selector")

    sp = sub.add_parser("validate", help="structural checks on an instance")
    with_instance(sp, sampled=False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("audit-richness",
                        help="instantiate the availability axioms")
    with_instance(sp)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("audit-rationality",
                        help="instantiate the preference axioms")
    with_instance(sp, oracle_kinds=("born", "counting", "table"))
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("check-lemmas",
                        help="check the derived-lemma chain")
    with_instance(sp, oracle_kinds=("born", "counting", "table"))
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("born-theorem",
                        help="check preference order = expected-utility order")
    with_instance(sp)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("counterexample",
                        help="search an instance for a violation")
    with_instance(sp, oracle_kinds=("born", "counting", "table"))
    sp.add_argument("--axiom", required=True,
                    help="target: a preference axiom, or branch-uniqueness "
                         "or equivalence-step (these take no --oracle)")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("simulate",
                        help="deviation mass of iterated branching")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--n", required=True,
                    help="comma-separated list of depths")
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--out", help="write the CSV here instead of stdout")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep-grain",
                        help="leaf counts above a grain threshold")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--n", type=int, required=True, help="branching depth")
    sp.add_argument("--theta-list", required=True)
    sp.add_argument("--out", help="write the CSV here instead of stdout")
    sp.set_defaults(func=cmd_sweep_grain)

    sp = sub.add_parser("elicit",
                        help="recover the utility table from the oracle")
    with_instance(sp, sampled=False,
                  oracle_kinds=("born", "counting", "table"))
    sp.add_argument("--tol", type=_positive_float, default=ELICIT_TOL)
    sp.set_defaults(func=cmd_elicit)

    sp = sub.add_parser("classical-vnm",
                        help="mixture-space axiom checks on lotteries")
    with_instance(sp)
    sp.add_argument("--oracle", choices=("pmeu", "lex"), default="pmeu")
    sp.set_defaults(func=cmd_classical_vnm)

    sp = sub.add_parser("savage",
                        help="bracket a subjective probability by bets")
    sp.add_argument("--cells", type=int, required=True)
    sp.add_argument("--report", help="write the JSON report here")
    sp.set_defaults(func=cmd_savage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QdtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # backstop: a defect must still end in one line and exit 2
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
        print(f"error: internal error at {where}: {exc!r}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
