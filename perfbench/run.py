"""Cold-process benchmark of the `qdt` command.

    python3 perfbench/run.py --workload audits --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.

With `--trace 0` the workload runs as a closed loop from this process:
one `qdt` child at a time, each started after the previous one exited,
in whole rounds until another round would overrun `--seconds`.  Every
call is timed, its peak RSS read from `os.wait4`, and its exit code and
output compared with the digest recorded in `expected/`.  With
`--trace 1` the same round runs in-process through `cli.main`, once
untraced and once with every layer traced (see layertrace.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it repeat the metrics for
people, with the tail percentile and sample count.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import ROOT as ROOT_SPAN, Tracer  # noqa: E402

#: pinned so that a BLAS thread pool neither starts nor competes
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10


@dataclass
class Result:
    rc: int
    out: bytes
    err: bytes
    seconds: float
    maxrss_kb: int = 0


def child_env() -> dict:
    """The caller's environment, with the program on the path and bytecode
    caching on, as for an installed package, whatever the caller set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("QDT_SEED", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def warm_bytecode() -> None:
    """Write the program's .pyc files before anything is timed."""
    subprocess.run([sys.executable, "-c", "import qdtbench.cli"],
                   env=child_env(), check=True)


def fill(call: workloads.Call, dirs: dict, out: Path) -> list[str]:
    return [a.format(out=out, **dirs) for a in call.argv]


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""


def run_cold(argv: list[str], out: Path, scratch: Path) -> Result:
    """One `qdt` child; waits for it and reads its rusage.  A child still
    running after CHILD_TIMEOUT_S is killed, which fails its check."""
    err_path = scratch / "stderr"
    with open(scratch / "stdout", "wb") as so, open(err_path, "wb") as se:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qdtbench.cli", *argv],
                                stdout=so, stderr=se, env=child_env(),
                                cwd=scratch)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, _read(out), _read(err_path), seconds,
                  usage.ru_maxrss)


def run_inproc(main, argv: list[str], out: Path) -> Result:
    """One `cli.main` call in this process, with stdout and stderr captured."""
    so, se = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            rc = main(argv)
    except Exception:
        rc = 1
        se.write(traceback.format_exc())
    seconds = perf_counter() - t0
    return Result(rc, _read(out), se.getvalue().encode(), seconds)


def passed(call: workloads.Call, res: Result, expected: dict) -> bool:
    got = checks.digest(call.kind, res.rc, res.out, res.err)
    if call.kind == "usage":
        return got == checks.USAGE_EXPECTED
    return got == expected.get(call.key)


def write_instances(rnd: workloads.Round, directory: Path) -> None:
    from qdtbench.instances import random_problem
    from qdtbench.io import dumps_instance
    for name, (seed, n_mac, n_mid) in rnd.instances.items():
        (directory / name).write_text(
            dumps_instance(random_problem(seed, n_mac, n_mid)),
            encoding="utf-8")


def cold_import_s() -> float:
    """Median wall time of a fresh interpreter that imports qdtbench.cli."""
    argv = [sys.executable, "-c", "import qdtbench.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, env=child_env(), check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_profile() -> tuple[float, float]:
    """(qdtbench.cli import, scipy share of it) in seconds from
    `-X importtime`, each the median of IMPORT_REPEATS runs."""
    argv = [sys.executable, "-X", "importtime", "-c", "import qdtbench.cli"]
    total, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run(argv, env=child_env(), check=True,
                             capture_output=True).stderr.decode()
        t = s = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue                                  # the header line
            name = parts[2]
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            if depth == 1 and name.split(".")[0] == "qdtbench":
                t += cum_us
            if name.split(".")[0] == "scipy":
                s += self_us
        total.append(t / 1e6)
        scipy.append(s / 1e6)
    return statistics.median(total), statistics.median(scipy)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int,
                 scratch: Path):
        self.seconds = seconds
        self.round = workloads.WORKLOADS[workload](workloads.variant_of(seed))
        self.pick = random.Random(seed).choice(
            [i for i, c in enumerate(self.round.calls) if c.kind != "usage"])
        self.expected = json.loads(
            (HERE / "expected" / f"{workload}.json").read_text())
        self.scratch = scratch
        inst = scratch / "inst"
        inst.mkdir()
        self.dirs = {"inst": inst, "tmp": scratch}
        write_instances(self.round, inst)
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []

    def out_path(self, tag: str) -> Path:
        return self.scratch / f"out-{tag}"

    def tally(self, call: workloads.Call, res: Result) -> bool:
        ok = passed(call, res, self.expected)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(f"{call.key} -> exit {res.rc}")
        return ok

    def determinism(self, first: bytes, run) -> None:
        """Repeat the sampled call; different report bytes are a failure."""
        call = self.round.calls[self.pick]
        out = self.out_path("repeat")
        res = run(fill(call, self.dirs, out), out)
        self.attempted += 1
        if res.out != first or not res.out:
            self.failed += 1
            self.mismatches.append(f"nondeterministic: {call.key}")

    def probes(self, run) -> list[str]:
        """Contract probes that do not exit 2 cleanly."""
        bad = []
        for i, call in enumerate(self.round.probes):
            out = self.out_path(f"probe-{i}")
            res = run(fill(call, self.dirs, out), out)
            if not passed(call, res, self.expected):
                bad.append(f"{call.key} -> exit {res.rc}")
        return bad

    # -- untraced, cold processes ---------------------------------------------

    def cold(self) -> dict:
        setup_s = cold_import_s()
        run = lambda argv, out: run_cold(argv, out, self.scratch)  # noqa: E731
        samples: list[float] = []
        by_command: dict[str, list[float]] = {}
        good = rounds = 0
        maxrss = 0
        first = b""
        t_start = perf_counter()
        while True:
            t_round = perf_counter()
            for i, call in enumerate(self.round.calls):
                out = self.out_path(f"{rounds}-{i}")
                res = run(fill(call, self.dirs, out), out)
                samples.append(res.seconds)
                by_command.setdefault(call.argv[0], []).append(res.seconds)
                good += self.tally(call, res)
                maxrss = max(maxrss, res.maxrss_kb)
                if rounds == 0 and i == self.pick:
                    first = res.out
            rounds += 1
            now = perf_counter()
            if now - t_start + (now - t_round) > self.seconds:
                break
        wall = perf_counter() - t_start
        self.determinism(first, run)
        bad = self.probes(run)
        tail_s, tail_p = tail(samples)
        print(f"rounds {rounds}, {len(samples)} cold invocations in "
              f"{wall:.2f} s; inv_tail_s is p{tail_p:.1f} of "
              f"n={len(samples)} ({TAIL_BEYOND} samples beyond it)")
        print("median per subcommand: " + ", ".join(
            f"{cmd} {statistics.median(xs):.3f} s (n={len(xs)})"
            for cmd, xs in sorted(by_command.items())))
        report_probes(bad, len(self.round.probes))
        return {
            "setup_s": (setup_s, "s"),
            "inv_p50_s": (statistics.median(samples), "s"),
            "inv_tail_s": (tail_s, "s"),
            "throughput_inv_per_s": (good / wall, "1/s"),
            "peak_rss_mb": (maxrss / 1024, "MB"),
            "ok_ratio": ((self.attempted - self.failed) / self.attempted,
                         "ratio"),
        }

    # -- traced, in-process ---------------------------------------------------

    def traced(self) -> dict:
        import_s, scipy_s = import_profile()
        import qdtbench
        from qdtbench import cli
        pass_s = {}
        tracer = Tracer()
        report_counts = [0, 0, 0, 0]
        first = b""
        for mode in ("untraced", "traced"):
            main = cli.main
            if mode == "traced":
                tracer.install(qdtbench)
                main = tracer.wrap(ROOT_SPAN, cli.main)
            total = 0.0
            try:
                for i, call in enumerate(self.round.calls):
                    out = self.out_path(f"{mode}-{i}")
                    res = run_inproc(main, fill(call, self.dirs, out), out)
                    total += res.seconds
                    if mode == "untraced":
                        continue
                    tracer.end_request()
                    self.tally(call, res)
                    if call.kind == "audit":
                        for j, v in enumerate(checks.audit_counts(res.out)):
                            report_counts[j] += v
                    if i == self.pick:
                        first = res.out
            finally:
                tracer.uninstall()
            pass_s[mode] = total
        run = lambda argv, out: run_inproc(cli.main, argv, out)  # noqa: E731
        self.determinism(first, run)
        bad = self.probes(run)
        report_probes(bad, len(self.round.probes))

        layers = tracer.layer_self_s()
        total = tracer.total_s
        gap = abs(sum(layers.values()) - total)
        if gap > 1e-6 * max(total, 1.0):
            self.failed += 1
            self.mismatches.append(f"trace accounting off by {gap:.3g} s")
        print("trace: " + ", ".join(f"{k} {v:.3f} s"
                                    for k, v in sorted(layers.items()))
              + f"; sum {sum(layers.values()):.3f} s of traced total "
              f"{total:.3f} s (untraced in-process {pass_s['untraced']:.3f} s)")

        calls, self_s = tracer.calls, tracer.self_s
        forge = [n for n in calls if n.startswith("forge.")]
        attempts = sum(calls[n] for n in forge)
        checks_n, skips, checked, axioms = report_counts
        m = {
            "cli.import_s": (import_s, "s"),
            "cli.import.scipy_s": (scipy_s, "s"),
            "cli.contract_violations": (len(bad), "count"),
            "trace.total_s": (total, "s"),
            "trace.untraced_s": (layers.get("untraced", 0.0), "s"),
            "trace.overhead_ratio": (total / pass_s["untraced"], "ratio"),
            "forge.constructions": (attempts, "count"),
            "forge.useful_ratio": (
                (attempts - sum(tracer.failed[n] for n in forge)) / attempts
                if attempts else 0.0, "ratio"),
            "preference.elicit_utility.queries": (
                tracer.counts["preference.elicit_utility.queries"], "count"),
            "branching.grow.nodes": (
                tracer.counts["branching.grow.nodes"], "count"),
            "audit.checks": (checks_n, "count"),
            "audit.skips": (skips, "count"),
            "audit.useful_ratio": (checked / axioms if axioms else 0.0,
                                   "ratio"),
        }
        for layer in ("io", "problem", "hilbert", "forge", "preference",
                      "audit", "branching", "classical"):
            m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
        for name in ("io.loads_instance", "problem.event_of",
                     "problem.validate_problem", "hilbert.project",
                     "hilbert.meet", "hilbert.join", "hilbert.complement",
                     "hilbert.act_apply", "hilbert.acts_agree_on",
                     "preference.expected_utility", "preference.is_null_pair"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
        for name in ("preference.compare.born", "preference.compare.counting",
                     "preference.compare.table", "classical.act_compare",
                     "classical.lottery_compare"):
            m[f"{name}.calls"] = (calls[name], "count")
        for name in ("branching.born_deviation_norm", "branching.grow",
                     "branching.coarse_grain_count",
                     "classical.savage_probability",
                     "classical.check_vnm_axioms"):
            m[f"{name}.self_s"] = (self_s[name], "s")
        for name in ("audit_richness", "audit_rationality", "check_lemmas",
                     "born_theorem_report", "find_counterexample"):
            m[f"audit.{name}.s"] = (tracer.incl_s[f"audit.{name}"], "s")
        return m


def report_probes(bad: list[str], total: int) -> None:
    if total:
        print(f"CLI contract probes: {len(bad)} of {total} do not exit 2 "
              f"with an error line")
        for line in bad:
            print(f"  contract violation: {line}")


def environment() -> str:
    from importlib.metadata import version
    blas = ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"nproc {os.cpu_count()}; Python {sys.version.split()[0]}; "
            f"numpy {version('numpy')}; scipy {version('scipy')}; {blas}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qdtbench" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'qdtbench'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QDT_SEED", None)
    os.environ.update(THREAD_ENV)
    warm_bytecode()

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, scratch)
        print(f"workload {args.workload}, seed {args.seed} (variant "
              f"{workloads.variant_of(args.seed)}), "
              f"{len(bench.round.calls)} calls per round")
        print(environment())
        metrics = bench.traced() if args.trace else bench.cold()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    for line in bench.mismatches:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
