"""Finite-dimensional complex Hilbert space primitives.

States, subspaces with their meet/join/complement lattice, orthogonal
projection, and partial isometries (norm-preserving maps defined on a
subspace).  Everything is immutable and pure.  Subspaces are stored as
orthonormal bases but compared through projectors, which are gauge
independent; bases and complements come from numpy SVDs, so identical
inputs always canonicalize identically.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, OutsideDomain, ZeroState

# Tolerances.  Double precision leaves several orders of magnitude of
# headroom at the dimensions this package targets (d <= 64).
TOL_ORTH = 1e-9   # orthogonality, membership, subspace equality
TOL_NORM = 1e-9   # norm preservation / norm matching
TOL_RANK = 1e-9   # numerical rank decisions
TOL_ZERO = 1e-12  # a state below this norm has no direction


def _norm(v: np.ndarray) -> float:
    """2-norm of a 1-d complex array: numpy's own arithmetic for
    `np.linalg.norm(v)`, bit for bit, without its dispatch."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _as_complex_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m


class StateVector:
    """A vector in C^d.  Immutable, with cheap norm/dim accessors."""

    __slots__ = ("vec", "_unit")

    def __init__(self, components):
        vec = np.array(components, dtype=np.complex128).reshape(-1)
        if vec.size == 0:
            raise ValueError("a state vector needs at least one component")
        if not np.all(np.isfinite(vec)):
            raise ValueError("state vector has non-finite components")
        vec.setflags(write=False)
        self.vec = vec
        self._unit = None

    @classmethod
    def _trusted(cls, vec: np.ndarray) -> "StateVector":
        """Wrap a finite 1-d complex128 array, skipping the copy and checks.

        Only for results of finite arithmetic on validated states and
        bases; the array is marked read-only in place.
        """
        vec.setflags(write=False)
        state = object.__new__(cls)
        state.vec = vec
        state._unit = None
        return state

    @property
    def dim(self) -> int:
        return self.vec.size

    @property
    def norm(self) -> float:
        return _norm(self.vec)

    def unit(self) -> "StateVector":
        """Normalized copy, computed once per state; raises ZeroState
        below numerical resolution."""
        if self._unit is None:
            n = self.norm
            if n < TOL_ZERO:
                raise ZeroState(f"cannot normalize a state of norm {n:.3e}")
            self._unit = StateVector._trusted(self.vec / n)
        return self._unit

    def allclose(self, other: "StateVector") -> bool:
        self._check_dim(other)
        return _norm(self.vec - other.vec) <= TOL_ORTH

    def _check_dim(self, other: "StateVector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")

    def __sub__(self, other: "StateVector") -> "StateVector":
        self._check_dim(other)
        return StateVector(self.vec - other.vec)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim}, norm={self.norm:.6g})"


def _orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided at TOL_RANK.

    The leading left singular vectors of a reduced SVD, one for each
    singular value above TOL_RANK: deterministic for a fixed input matrix,
    and the input array is never written to.
    """
    a = np.asarray_chkfinite(a, dtype=np.complex128)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > TOL_RANK))
    return np.ascontiguousarray(u[:, :rank])


class Subspace:
    """A subspace of C^d held as an orthonormal basis (d x k matrix).

    The zero subspace (k = 0) is a first-class value.  Equality is
    projector equality, so two Subspace objects built from different
    generating sets of the same span compare equal.  `_adj` is the
    basis's conjugate transpose; the projector and the complement are
    computed at first use and kept.
    """

    __slots__ = ("basis", "_adj", "_proj", "_comp")

    def __init__(self, basis):
        b = _as_complex_matrix(basis)
        d, k = b.shape
        if d == 0:
            raise ValueError("ambient dimension must be positive")
        if k > d:
            raise ValueError(f"{k} basis vectors cannot be independent in C^{d}")
        adj = b.conj().T
        if k > 0:
            gram = adj @ b
            if not np.max(np.abs(gram - np.eye(k))) <= TOL_ORTH:
                raise ValueError("basis columns are not orthonormal; "
                                 "use orthonormalize() for raw spans")
        b.setflags(write=False)
        adj.setflags(write=False)
        self.basis = b
        self._adj = adj
        self._proj = None
        self._comp = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim))

    # -- accessors --------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def projector(self) -> np.ndarray:
        if self._proj is None:
            p = self.basis @ self._adj
            p.setflags(write=False)
            self._proj = p
        return self._proj

    # -- predicates -------------------------------------------------------

    def contains(self, psi: StateVector) -> bool:
        """Whether psi lies in the subspace up to a residual of TOL_ORTH."""
        if psi.dim != self.ambient_dim:
            raise DimensionMismatch(
                f"state dim {psi.dim} vs ambient {self.ambient_dim}")
        residual = psi.vec - self.basis @ (self._adj @ psi.vec)
        return _norm(residual) <= TOL_ORTH

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.is_zero:
            return True
        res = other.basis - self.basis @ (self._adj @ other.basis)
        return bool(np.max(np.linalg.norm(res, axis=0)) <= TOL_ORTH)

    def equals(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return bool(np.max(np.abs(self.projector() - other.projector()))
                    <= TOL_ORTH)

    def orthogonal_to(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if self.is_zero or other.is_zero:
            return True
        return bool(np.max(np.abs(self._adj @ other.basis))
                    <= TOL_ORTH)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims {self.ambient_dim} and {other.ambient_dim} differ")

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def orthonormalize(vectors) -> Subspace:
    """Subspace spanned by `vectors` (StateVectors or a d x k matrix).

    Numerical rank is decided at TOL_RANK; a list of dependent or zero
    vectors simply yields a lower-dimensional (possibly zero) subspace.
    """
    if isinstance(vectors, np.ndarray):
        mat = _as_complex_matrix(vectors)
    else:
        vs = list(vectors)
        if not vs:
            raise ValueError("cannot infer ambient dimension from an empty list; "
                             "use Subspace.zero(dim)")
        dims = {v.dim for v in vs}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed ambient dimensions {sorted(dims)}")
        mat = np.column_stack([v.vec for v in vs])
    return Subspace(_orthonormal_columns(mat))


def project(subspace: Subspace, psi: StateVector) -> StateVector:
    """Orthogonal projection of psi onto the subspace."""
    if psi.dim != subspace.ambient_dim:
        raise DimensionMismatch(
            f"state dim {psi.dim} vs ambient {subspace.ambient_dim}")
    return StateVector._trusted(subspace.basis
                                @ (subspace._adj @ psi.vec))


# -- lattice operations ---------------------------------------------------

def join(e: Subspace, f: Subspace) -> Subspace:
    """Closed span of the union (the lattice join)."""
    e._check_ambient(f)
    return Subspace(_orthonormal_columns(np.hstack([e.basis, f.basis])))


def complement(e: Subspace) -> Subspace:
    """Orthogonal complement, computed once per Subspace object."""
    if e._comp is None:
        e._comp = _complement(e)
    return e._comp


def _complement(e: Subspace) -> Subspace:
    d = e.ambient_dim
    if e.is_zero:
        return Subspace.full(d)
    if e.dim == d:
        return Subspace.zero(d)
    # scipy.linalg.null_space(basis^H), computed the same way: full SVD,
    # rank cut at max(s) * eps * max(shape), then the trailing rows of
    # vh.  Rows of basis^H are orthonormal, so the cut is numerically clean.
    a = e._adj
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(a.shape)
    num = np.sum(s > tol, dtype=int)
    return Subspace(vh[num:, :].T.conj())


def meet(e: Subspace, f: Subspace) -> Subspace:
    """Intersection, computed through the complement of the joined complements."""
    e._check_ambient(f)
    return complement(join(complement(e), complement(f)))


# -- partial isometries ----------------------------------------------------

class PartialIsometryAct:
    """A norm-preserving linear map defined on a domain subspace.

    `matrix` holds the images of the domain's stored basis vectors in
    ambient coordinates, so it has shape (ambient_dim, domain.dim) and
    orthonormal columns.  Acts are immutable; `label` is an optional
    catalog tag and plays no algebraic role.
    """

    __slots__ = ("domain", "matrix", "label")

    def __init__(self, domain: Subspace, matrix, label: str | None = None):
        m = _as_complex_matrix(matrix)
        if domain.dim == 0:
            raise ValueError("acts on the zero subspace are not defined")
        if m.shape != (domain.ambient_dim, domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match domain "
                f"({domain.ambient_dim} x {domain.dim})")
        gram = m.conj().T @ m
        defect = float(np.max(np.abs(gram - np.eye(domain.dim))))
        if not defect <= TOL_ORTH:
            raise ValueError(
                f"not an isometry: column gram defect {defect:.3e}")
        m.setflags(write=False)
        self.domain = domain
        self.matrix = m
        self.label = label

    def apply(self, psi: StateVector) -> StateVector:
        """Image of psi; psi must lie in the domain up to TOL_ORTH."""
        if psi.dim != self.domain.ambient_dim:
            raise DimensionMismatch(
                f"state dim {psi.dim} vs ambient {self.domain.ambient_dim}")
        coords = self.domain._adj @ psi.vec
        residual = _norm(psi.vec - self.domain.basis @ coords)
        if residual > TOL_ORTH:
            raise OutsideDomain(
                f"state lies {residual:.3e} outside the act's domain")
        return StateVector._trusted(self.matrix @ coords)

    def as_operator(self) -> np.ndarray:
        """Ambient d x d matrix: the act on its domain, zero on the complement."""
        return self.matrix @ self.domain._adj

    def range_subspace(self) -> Subspace:
        return Subspace(self.matrix.copy())

    def with_label(self, label: str) -> "PartialIsometryAct":
        return PartialIsometryAct(self.domain, self.matrix, label=label)

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return (f"PartialIsometryAct(domain_dim={self.domain.dim}, "
                f"ambient={self.domain.ambient_dim}{tag})")


def acts_equal(u: PartialIsometryAct, v: PartialIsometryAct) -> bool:
    """Same domain (as a subspace) and same action on it."""
    if u.domain.ambient_dim != v.domain.ambient_dim:
        raise DimensionMismatch("acts live in different ambient spaces")
    if not u.domain.equals(v.domain):
        return False
    return bool(np.max(np.abs(u.as_operator() - v.as_operator())) <= TOL_ORTH)


def acts_agree_on(u: PartialIsometryAct, v: PartialIsometryAct,
                  sub: Subspace) -> bool:
    """Whether u and v act identically on a common subspace of their domains."""
    return sub.is_zero or vanishes_on(u.as_operator() - v.as_operator(),
                                      sub)


def vanishes_on(op: np.ndarray, sub: Subspace) -> bool:
    """Whether the ambient operator sends each basis vector of sub to
    within TOL_ORTH of zero; for the difference of two acts, whether
    they agree on sub."""
    if sub.is_zero:
        return True
    return bool(np.max(np.linalg.norm(op @ sub.basis, axis=0)) <= TOL_ORTH)
