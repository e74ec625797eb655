"""Instance files: UTF-8 JSON with explicit [re, im] number pairs.

A document carries the ambient dimension, macrostate bases, rewards
with their worst/best flags, an optional act catalog, a utility table,
and an oracle selector.  Matrices are row-major; ids are strings.
Loading is three-staged: ParseError for bad JSON, SchemaError for a
missing or mistyped field (named by path), ValidationError for
documents that parse but describe no legal instance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .comparison import Comparison
from .errors import (MissingUtility, ParseError, SchemaError, ValidationError)
from .hilbert import PartialIsometryAct, Subspace
from .preference import (BornOracle, CountingOracle, PreferenceOracle,
                         TableOracle, UtilityTable)
from .problem import (Macrostate, QuantumDecisionProblem, Reward,
                      validate_problem)

SCHEMA_VERSION = 1
ORACLE_KINDS = ("born", "counting", "table")


# -- primitive decoding ----------------------------------------------------

def _req(obj: dict, key: str, path: str, kind: type | tuple, kindname: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    val = obj[key]
    if kind is bool:
        if not isinstance(val, bool):
            raise SchemaError(f"{path}.{key}: expected {kindname}, "
                              f"got {type(val).__name__}")
        return val
    if isinstance(val, bool) or not isinstance(val, kind):
        raise SchemaError(f"{path}.{key}: expected {kindname}, "
                          f"got {type(val).__name__}")
    return val


def _number(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{path}: expected a number, "
                          f"got {type(val).__name__}")
    try:
        x = float(val)
    except OverflowError:           # an integer past the float range
        x = math.inf
    if not math.isfinite(x):        # json reads NaN, Infinity and 1e999
        raise ValidationError(f"{path}: not a finite number")
    return x


def decode_complex(raw, path: str) -> complex:
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"{path}: expected an [re, im] pair")
    return complex(_number(raw[0], f"{path}[0]"), _number(raw[1], f"{path}[1]"))


def decode_vector(raw, dim: int, path: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of [re, im] pairs")
    if len(raw) != dim:
        raise SchemaError(f"{path}: expected {dim} entries, got {len(raw)}")
    return np.array([decode_complex(z, f"{path}[{i}]")
                     for i, z in enumerate(raw)], dtype=np.complex128)


def decode_matrix(raw, rows: int, path: str) -> np.ndarray:
    """Row-major complex matrix with the given number of rows."""
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}: expected a non-empty list of rows")
    if len(raw) != rows:
        raise SchemaError(f"{path}: expected {rows} rows, got {len(raw)}")
    width = None
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]: expected a list of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]: ragged row, expected {width} "
                              f"entries, got {len(row)}")
        out.append([decode_complex(z, f"{path}[{i}][{j}]")
                    for j, z in enumerate(row)])
    return np.array(out, dtype=np.complex128)


def encode_vector(v: np.ndarray) -> list:
    """An [re, im] pair of Python floats per entry."""
    v = np.asarray(v, dtype=np.complex128)
    return np.stack([v.real, v.imag], axis=-1).tolist()


def encode_matrix(m: np.ndarray) -> list:
    """Row-major: one encode_vector list per row."""
    return encode_vector(m)


# -- acts -----------------------------------------------------------------

def serialize_act(p: QuantumDecisionProblem, act: PartialIsometryAct,
                  act_id: str) -> dict:
    """Act as (id, domain event ids, matrix on the event's canonical basis).

    The act's domain must be a lattice event; the stored matrix is
    re-expressed on the basis `event_of` assigns that event, so the file
    never depends on how the in-memory domain basis happened to be
    oriented.
    """
    ids = sorted(m.id for m in p.macrostates
                 if act.domain.contains_subspace(m.subspace))
    event = p.event_of(ids)
    if not event.equals(act.domain):
        raise ValidationError(
            f"act {act.label!r}: domain is not a join of macrostates")
    return {"id": act_id,
            "domain": ids,
            "matrix": encode_matrix(act.as_operator() @ event.basis)}


def deserialize_act(p: QuantumDecisionProblem, raw: dict,
                    path: str) -> PartialIsometryAct:
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object")
    act_id = _req(raw, "id", path, str, "a string")
    domain_ids = _req(raw, "domain", path, list, "a list of macrostate ids")
    for j, mid in enumerate(domain_ids):
        if not isinstance(mid, str):
            raise SchemaError(f"{path}.domain[{j}]: expected a string")
        if mid not in set(p.macrostate_ids):
            raise ValidationError(
                f"{path}.domain[{j}]: unknown macrostate {mid!r}")
    matrix = decode_matrix(_req(raw, "matrix", path, list, "a matrix"),
                           p.dim, f"{path}.matrix")
    try:
        return PartialIsometryAct(p.event_of(sorted(domain_ids)), matrix,
                                  label=act_id)
    except ValueError as exc:
        raise ValidationError(f"{path}.matrix: {exc}") from None


# -- whole instances ---------------------------------------------------------

@dataclass
class LoadedInstance:
    """A problem plus the evaluation apparatus the document selected."""
    problem: QuantumDecisionProblem
    utility: UtilityTable
    oracle_kind: str
    preference_pairs: dict[tuple[str, str], Comparison] = field(
        default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def oracle(self, kind: str | None = None) -> PreferenceOracle:
        """Instantiate the selected (or overridden) preference oracle."""
        choice = kind if kind is not None else self.oracle_kind
        if choice == "born":
            return BornOracle(self.problem, self.utility)
        if choice == "counting":
            return CountingOracle(self.problem)
        if choice == "table":
            return TableOracle(self.preference_pairs,
                               BornOracle(self.problem, self.utility))
        raise ValueError(f"unknown oracle kind {choice!r}; "
                         f"choose from {', '.join(ORACLE_KINDS)}")


def loads_instance(text: str) -> LoadedInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object at top level")

    version = _req(doc, "schema_version", "$", int, "an integer")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: unsupported version {version}, "
                          f"this reader handles {SCHEMA_VERSION}")
    dim = _req(doc, "dim", "$", int, "an integer")
    if dim < 1:
        raise ValidationError(f"$.dim: dimension {dim} is not positive")
    orthmacr = doc.get("orthmacr", True)
    if not isinstance(orthmacr, bool):
        raise SchemaError("$.orthmacr: expected a boolean")

    raw_macs = _req(doc, "macrostates", "$", list, "a list")
    macrostates = []
    for i, rm in enumerate(raw_macs):
        path = f"$.macrostates[{i}]"
        if not isinstance(rm, dict):
            raise SchemaError(f"{path}: expected an object")
        mid = _req(rm, "id", path, str, "a string")
        raw_basis = _req(rm, "basis", path, list, "a list of vectors")
        if not raw_basis:
            raise ValidationError(f"{path}.basis: no basis vectors")
        cols = np.stack([decode_vector(v, dim, f"{path}.basis[{j}]")
                         for j, v in enumerate(raw_basis)], axis=1)
        try:
            sub = Subspace(cols)
        except ValueError as exc:
            raise ValidationError(f"{path}.basis: {exc}") from None
        macrostates.append(Macrostate(id=mid, subspace=sub))

    raw_rewards = _req(doc, "rewards", "$", list, "a list")
    rewards = []
    for i, rr in enumerate(raw_rewards):
        path = f"$.rewards[{i}]"
        if not isinstance(rr, dict):
            raise SchemaError(f"{path}: expected an object")
        members = _req(rr, "members", path, list, "a list of macrostate ids")
        for j, mid in enumerate(members):
            if not isinstance(mid, str):
                raise SchemaError(f"{path}.members[{j}]: expected a string")
        rewards.append(Reward(
            id=_req(rr, "id", path, str, "a string"),
            members=tuple(members),
            erasure=_req(rr, "erasure", path, str, "a string"),
            is_r0=_req(rr, "is_r0", path, bool, "a boolean"),
            is_r1=_req(rr, "is_r1", path, bool, "a boolean")))

    bare = QuantumDecisionProblem(dim=dim, macrostates=tuple(macrostates),
                                  rewards=tuple(rewards), orthmacr=orthmacr)
    report = validate_problem(bare)
    if not report.ok:
        raise ValidationError("; ".join(
            f"[{v.kind}] {v.message}" for v in report.violations))

    acts = []
    raw_acts = doc.get("acts", [])
    if not isinstance(raw_acts, list):
        raise SchemaError("$.acts: expected a list")
    for i, ra in enumerate(raw_acts):
        acts.append(deserialize_act(bare, ra, f"$.acts[{i}]"))
    problem = QuantumDecisionProblem(
        dim=dim, macrostates=tuple(macrostates), rewards=tuple(rewards),
        orthmacr=orthmacr, act_generators=tuple(acts))

    raw_utility = _req(doc, "utility", "$", dict, "an object")
    values = {rid: _number(u, f"$.utility.{rid}")
              for rid, u in raw_utility.items()}
    try:
        utility = UtilityTable(values, problem=problem)
    except (MissingUtility, ValueError) as exc:
        raise ValidationError(f"$.utility: {exc}") from None

    oracle_kind = _req(doc, "oracle", "$", str, "a string")
    if oracle_kind not in ORACLE_KINDS:
        raise SchemaError(f"$.oracle: unknown oracle {oracle_kind!r}, "
                          f"expected one of {', '.join(ORACLE_KINDS)}")

    pairs: dict[tuple[str, str], Comparison] = {}
    raw_pairs = doc.get("preference_pairs", [])
    if not isinstance(raw_pairs, list):
        raise SchemaError("$.preference_pairs: expected a list")
    for i, rp in enumerate(raw_pairs):
        path = f"$.preference_pairs[{i}]"
        if not isinstance(rp, dict):
            raise SchemaError(f"{path}: expected an object")
        u = _req(rp, "u", path, str, "a string")
        v = _req(rp, "v", path, str, "a string")
        c = _req(rp, "comparison", path, int, "an integer")
        if c not in (-1, 0, 1):
            raise ValidationError(f"{path}.comparison: {c} is not -1, 0 or 1")
        pairs[(u, v)] = Comparison(c)

    return LoadedInstance(problem=problem, utility=utility,
                          oracle_kind=oracle_kind, preference_pairs=pairs,
                          schema_version=version)


def load_instance(path: str | Path) -> LoadedInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads_instance(text)


def dumps_instance(inst: LoadedInstance) -> str:
    p = inst.problem
    doc = {
        "schema_version": inst.schema_version,
        "dim": p.dim,
        "orthmacr": p.orthmacr,
        "macrostates": [
            {"id": m.id,
             "basis": [encode_vector(m.subspace.basis[:, j])
                       for j in range(m.subspace.dim)]}
            for m in p.macrostates],
        "rewards": [
            {"id": r.id, "members": list(r.members), "erasure": r.erasure,
             "is_r0": r.is_r0, "is_r1": r.is_r1}
            for r in p.rewards],
        "acts": [serialize_act(p, a, act_id=a.label or f"act-{i}")
                 for i, a in enumerate(p.act_generators)],
        "utility": inst.utility.as_dict(),
        "oracle": inst.oracle_kind,
        "preference_pairs": [
            {"u": u, "v": v, "comparison": int(c)}
            for (u, v), c in sorted(inst.preference_pairs.items())],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_instance(inst: LoadedInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(inst), encoding="utf-8")
