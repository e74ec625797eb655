"""Record the expected output digests for every variant of a workload.

    python3 perfbench/record.py [workload ...]

Runs each variant's round in-process through `cli.main` and writes
expected/<workload>.json, mapping each call's argv to its digest (see
checks.py).  Usage-error calls are not recorded: they are held to the
exit contract.  Re-record only when a change to the program is meant to
change its outputs.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from checks import USAGE_EXPECTED, digest


def record(name: str, scratch: Path) -> dict:
    from qdtbench import cli
    expected: dict = {}
    violations: set[str] = set()
    for variant in range(workloads.VARIANTS):
        rnd = workloads.WORKLOADS[name](variant)
        inst = scratch / f"{name}-{variant}"
        inst.mkdir()
        run.write_instances(rnd, inst)
        dirs = {"inst": inst, "tmp": scratch}
        for i, call in enumerate(rnd.calls + rnd.probes):
            out = scratch / f"out-{name}-{variant}-{i}"
            res = run.run_inproc(cli.main, run.fill(call, dirs, out), out)
            got = digest(call.kind, res.rc, res.out, res.err)
            if call.kind == "usage":
                if got != USAGE_EXPECTED and call.key not in violations:
                    violations.add(call.key)
                    print(f"{name}: contract violation: {call.key} -> {got}")
                continue
            if expected.setdefault(call.key, got) != got:
                raise SystemExit(f"{name}: {call.key} gave two digests")
        print(f"{name}: variant {variant} recorded", flush=True)
    return expected


def main(names: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    os.environ.pop("QDT_SEED", None)
    target = run.HERE / "expected"
    target.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        tmp_root = run.ROOT / ".perfbench_tmp"
        tmp_root.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            expected = record(name, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(expected.items())]
        (target / f"{name}.json").write_text(
            "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
