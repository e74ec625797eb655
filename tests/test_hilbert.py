"""Subspace lattice and partial isometry behaviour.

The lattice here is orthomodular, not distributive; the two-dimensional
spin example pins the distributivity failure exactly, and the algebraic
laws that do hold are checked on random subspaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtbench.errors import OutsideDomain, ZeroState
from qdtbench.hilbert import (TOL_RANK, TOL_ZERO, PartialIsometryAct,
                              StateVector, Subspace, _norm,
                              _orthonormal_columns, acts_agree_on, acts_equal,
                              complement, join, meet, orthonormalize, project)

from conftest import unitary_frame

TOL = 1e-9


def sub_eq(a: Subspace, b: Subspace) -> bool:
    return np.allclose(a.projector(), b.projector(), atol=TOL)


def random_subspace(dim: int, rank: int, rng) -> Subspace:
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return orthonormalize(m)


# -- states and bases ---------------------------------------------------------

def test_orthonormalize_gram_identity():
    rng = np.random.default_rng(5)
    sub = random_subspace(6, 3, rng)
    g = sub.basis.conj().T @ sub.basis
    assert np.allclose(g, np.eye(3), atol=TOL)


def test_project_onto_axis():
    psi = StateVector([1.0, 1.0])
    axis = Subspace(np.array([[1.0], [0.0]]))
    out = project(axis, psi)
    assert np.allclose(out.vec, [1.0, 0.0], atol=TOL)


@pytest.mark.parametrize("dim", range(1, 9))
def test_internal_states_match_public_constructor(dim):
    # project, act.apply and unit() skip the public constructor's copy
    # and checks; their arrays must still be the bits it would give,
    # and read-only
    rng = np.random.default_rng([dim, 29])
    for rank in range(1, dim + 1):
        sub = Subspace(unitary_frame("haar", dim, rng)[:, :rank])
        act = PartialIsometryAct(sub, unitary_frame("haar", dim, rng)[:, :rank])
        psi = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        inside = StateVector(sub.basis @ (rng.normal(size=rank)
                                          + 1j * rng.normal(size=rank)))
        b = sub.basis
        cases = [
            (project(sub, psi), b @ (b.conj().T @ psi.vec)),
            (act.apply(inside), act.matrix @ (b.conj().T @ inside.vec)),
            (psi.unit(), psi.vec / psi.norm),
        ]
        for got, raw in cases:
            assert got.vec.tobytes() == StateVector(raw).vec.tobytes()
            assert not got.vec.flags.writeable
        # the kept adjoint and unit are the arrays a fresh call would give
        adj = b.conj().T
        assert sub._adj.tobytes() == adj.tobytes()
        assert sub._adj.strides == adj.strides
        assert not sub._adj.flags.writeable
        for state in (psi, inside, project(sub, psi), act.apply(inside)):
            assert state.unit() is state.unit()


def test_unit_of_a_zero_state_is_refused_every_time():
    zero = StateVector(np.zeros(3))
    for _ in range(2):
        with pytest.raises(ZeroState):
            zero.unit()


@pytest.mark.parametrize("bad", [[], [1.0, np.nan], [np.inf, 0.0],
                                 [1.0, complex(0.0, -np.inf)]])
def test_public_state_constructor_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        StateVector(np.array(bad, dtype=complex))


# -- the spin fixture ---------------------------------------------------------

def _spin_rays():
    up_z = Subspace(np.array([[1.0], [0.0]], dtype=complex))
    up_x = Subspace(np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2))
    up_y = Subspace(np.array([[1.0], [1.0j]], dtype=complex) / np.sqrt(2))
    return up_z, up_x, up_y


def test_spin_distributivity_failure_exact():
    """a AND (b OR c) = a, but (a AND b) OR (a AND c) = 0 on spin rays."""
    up_z, up_x, up_y = _spin_rays()
    lhs = meet(up_z, join(up_x, up_y))
    rhs = join(meet(up_z, up_x), meet(up_z, up_y))
    assert sub_eq(lhs, up_z)
    assert rhs.dim == 0
    assert not sub_eq(lhs, rhs)


def test_spin_joins_fill_the_plane():
    up_z, up_x, up_y = _spin_rays()
    assert join(up_x, up_y).dim == 2
    assert join(up_z, up_x).dim == 2
    assert meet(up_z, up_x).dim == 0


# -- algebraic laws on random pairs -------------------------------------------

@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_de_morgan_on_random_pairs(seed, ra, rb):
    rng = np.random.default_rng(seed)
    e = random_subspace(4, ra, rng)
    f = random_subspace(4, rb, rng)
    assert sub_eq(complement(join(e, f)), meet(complement(e), complement(f)))
    assert sub_eq(complement(meet(e, f)), join(complement(e), complement(f)))


@given(st.integers(0, 10_000), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_orthomodularity_on_random_pairs(seed, rank):
    # e <= f implies f = e join (f meet e-perp)
    rng = np.random.default_rng(seed)
    e = random_subspace(4, rank, rng)
    extra = random_subspace(4, 1, rng)
    f = join(e, extra)
    assert sub_eq(f, join(e, meet(f, complement(e))))


def test_double_complement_and_involution():
    rng = np.random.default_rng(11)
    e = random_subspace(5, 2, rng)
    assert sub_eq(complement(complement(e)), e)
    assert meet(e, complement(e)).dim == 0
    assert join(e, complement(e)).dim == 5


@pytest.mark.parametrize("kind", ["haar", "axis"])
@pytest.mark.parametrize("dim", range(1, 9))
def test_complement_matches_scipy_null_space_bit_for_bit(dim, kind):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng([dim, 17])
    for _ in range(5):
        frame = unitary_frame(kind, dim, rng)
        for rank in range(1, dim + 1):
            e = Subspace(frame[:, :rank])
            got = complement(e).basis
            ref = scipy_linalg.null_space(e.basis.conj().T)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_complement_is_kept_per_subspace():
    rng = np.random.default_rng(31)
    for dim in range(1, 9):
        for rank in range(dim + 1):
            e = random_subspace(dim, rank, rng) if rank else Subspace.zero(dim)
            c = complement(e)
            assert complement(e) is c
            fresh = complement(Subspace(e.basis))
            assert fresh is not c
            assert c.basis.tobytes() == fresh.basis.tobytes()


# -- the 2-norm helper -------------------------------------------------------

_MAGNITUDES = ([10.0 ** k for k in range(-13, 4)]
               + [TOL_ZERO * (1 + k * 2.0 ** -52) for k in (-2, -1, 0, 1, 2)])


@pytest.mark.parametrize("dim", range(1, 9))
def test_norm_helper_is_numpys_2_norm_bit_for_bit(dim):
    rng = np.random.default_rng([dim, 41])
    for scale in _MAGNITUDES:
        for _ in range(10):
            frame = unitary_frame("haar", dim, rng) * scale
            # a strided column, a contiguous row and a copied column
            column = np.ascontiguousarray(frame[:, -1])
            for v in (frame[:, 0], frame[0], column):
                want = np.linalg.norm(v)
                got = _norm(v)
                assert type(got) is float
                assert got == want, (dim, scale)
                norm = StateVector(v).norm
                assert type(norm) is float and norm == want


def _known_rank_inputs(dim: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """(columns, orthonormal basis of their span) pairs: random
    combinations of r frame vectors, up to d x 2d wide; two frame slices
    sharing columns, as `join` stacks overlapping bases; two whole frames
    side by side (a d x 2d join); and a combination with an extra column
    below TOL_RANK."""
    frame = unitary_frame("haar", dim, rng)
    r = int(rng.integers(0, dim + 1))
    k = int(rng.integers(max(r, 1), 2 * dim + 1))
    mixed = frame[:, :r] @ (rng.normal(size=(r, k))
                            + 1j * rng.normal(size=(r, k)))
    hi = int(rng.integers(0, dim + 1))
    lo = int(rng.integers(0, hi + 1))
    top = int(rng.integers(lo, dim + 1))
    tiny = unitary_frame("haar", dim, rng)[:, :1] * (TOL_RANK / 10)
    return [(mixed, frame[:, :r]),
            (np.hstack([frame[:, :hi], frame[:, lo:top]]),
             frame[:, :max(hi, top)]),
            (np.hstack([frame, unitary_frame("haar", dim, rng)]), frame),
            (np.hstack([mixed, tiny]), frame[:, :r])]


@pytest.mark.parametrize("dim", range(1, 9))
def test_orthonormal_columns_spans_its_input_at_the_known_rank(dim):
    rng = np.random.default_rng([dim, 23])
    for _ in range(25):
        for a, span in _known_rank_inputs(dim, rng):
            before = a.copy()
            got = _orthonormal_columns(a)
            assert got.shape == span.shape
            assert np.allclose(got.conj().T @ got, np.eye(span.shape[1]),
                               atol=TOL)
            assert np.allclose(got @ got.conj().T, span @ span.conj().T,
                               atol=TOL)
            assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthonormal_columns_rejects_non_finite_input(bad):
    a = np.eye(3, dtype=np.complex128)
    a[1, 2] = bad
    with pytest.raises(ValueError):
        _orthonormal_columns(a)
    with pytest.raises(ValueError):
        orthonormalize(a)


def test_subspace_orthonormality_check_rejects_nan():
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace([[np.nan], [0.0]])


# -- partial isometries -------------------------------------------------------

def test_isometry_check_rejects_nan():
    dom = Subspace(np.eye(2, dtype=complex)[:, :1])
    with pytest.raises(ValueError, match="gram defect nan"):
        PartialIsometryAct(dom, [[np.nan], [0.0]])


def test_isometry_validation_rejects_contractions():
    dom = Subspace(np.eye(2, dtype=complex))
    bad = np.array([[1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        PartialIsometryAct(dom, bad)


def test_apply_act_preserves_norm():
    dom = Subspace(np.eye(2, dtype=complex))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    act = PartialIsometryAct(dom, swap)
    psi = StateVector(np.array([0.6, 0.8]))
    out = act.apply(psi)
    assert out.norm == pytest.approx(psi.norm, abs=TOL)
    assert np.allclose(out.vec, [0.8, 0.6], atol=TOL)


def test_acts_agree_on_subdomain_only():
    dom = Subspace(np.eye(2, dtype=complex))
    ident = PartialIsometryAct(dom, np.eye(2, dtype=complex))
    phase = np.diag([1.0, -1.0]).astype(complex)
    flipped = PartialIsometryAct(dom, phase)
    axis0 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
    axis1 = Subspace(np.array([[0.0], [1.0]], dtype=complex))
    assert acts_agree_on(ident, flipped, axis0)
    assert not acts_agree_on(ident, flipped, axis1)
    assert not acts_equal(ident, flipped)


def test_apply_act_outside_domain_is_rejected():
    axis0 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
    act = PartialIsometryAct(axis0, np.array([[0.0], [1.0]], dtype=complex))
    outside = StateVector(np.array([0.0, 1.0]))
    with pytest.raises(OutsideDomain):
        act.apply(outside)
