"""Output checks: reduce one call's exit code and output to a digest that
is compared with the digest recorded in expected/<workload>.json.

Usage-error calls are held to the README's exit contract (exit 2 with a
one-line `error:` message, never a traceback) rather than to a
recording.
"""
from __future__ import annotations

import hashlib
import json

USAGE_EXPECTED = {"exit": 2, "clean": True}


def _report(out: bytes) -> dict | None:
    try:
        return json.loads(out)
    except ValueError:
        return None


def digest(kind: str, rc: int, out: bytes, err: bytes) -> dict:
    """What must not change for a call of this kind."""
    if kind == "usage":
        return {"exit": rc, "clean": b"Traceback" not in err
                and err.startswith((b"error:", b"usage:"))}
    if kind == "csv":
        return {"exit": rc, "sha256": hashlib.sha256(out).hexdigest()}
    doc = _report(out)
    if doc is None:
        return {"exit": rc, "report": None}
    if kind == "audit":
        return {"exit": rc, "axioms": [[r["name"], r["status"],
                                        len(r["witnesses"])]
                                       for r in doc["results"]]}
    if kind == "counterexample":
        return {"exit": rc, "found": doc["found"]}
    if kind == "validate":
        return {"exit": rc, "ok": doc["ok"],
                "violations": len(doc.get("violations", []))}
    if kind == "elicit":
        return {"exit": rc, "ok": doc["ok"], "elicited": doc.get("elicited"),
                "queries": doc.get("queries")}
    if kind == "vnm":
        return {"exit": rc, "checks": [[c["name"], c["status"],
                                        len(c["failures"])]
                                       for c in doc["checks"]]}
    if kind == "savage":
        return {"exit": rc, "bracket": [doc["low"], doc["high"]]}
    raise ValueError(f"unknown call kind {kind!r}")


def audit_counts(out: bytes) -> tuple[int, int, int, int]:
    """(checks, skip reasons, axioms checked, axioms) read from an audit
    report; zeros when the report is missing."""
    doc = _report(out)
    if not doc or "results" not in doc:
        return 0, 0, 0, 0
    results = doc["results"]
    checks = sum(r["samples"] for r in results)
    skips = sum(part.startswith("skipped: ")
                for r in results for part in r["note"].split("; "))
    checked = sum(r["status"] != "skip" for r in results)
    return checks, skips, checked, len(results)
