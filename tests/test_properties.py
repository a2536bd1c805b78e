"""Property tests of the operator, the partition of unity, the density
filter, the preconditioner build and PCG over drawn problems.

Each example is a clamped problem on a drawn (possibly non-square) mesh and
coarse grid, with or without the boundary coarse nodes, a drawn Poisson
ratio, contrast, mode cap and variant.  The examples are derandomized (see
the hypothesis profile in ``conftest.py``), so every run draws the same ones.

With every coarse node kept (``include_boundary``) blocks narrower than 4
elements are not drawn: with up to 4 modes per neighborhood their basis is
rank deficient by construction, because on a clamped corner patch of m x m
elements chi_l is nonzero at only (m - 1)^2 free nodes.

The level-1 band fill is checked on its own draws, which also take SIMP-like
fields of a few distinct moduli: where equal moduli meet, entries cancel and
are dropped from the matrix but keep their slot in the pattern.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given
from hypothesis import strategies as st

from mselast.assembly import CoefficientField, DensityFilter, assemble_diffusion, assemble_elasticity
from mselast.banded import _band, banded_cholesky
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, PartitionOfUnity, build_fine_mesh
from mselast.krylov import pcg_solve
from mselast.schwarz import VARIANTS, EigOptions, _level1_slots, build_level1, build_preconditioner, part_keys


@st.composite
def problems(draw):
    include_boundary = draw(st.booleans())
    Nx, Ny = (draw(st.integers(1 if include_boundary else 2, 3)) for _ in range(2))
    mex, mey = (draw(st.integers(4 if include_boundary else 2, 5)) for _ in range(2))
    mesh = build_fine_mesh(Nx * mex, Ny * mey)
    part = CoarsePartition(mesh, Nx, Ny, include_boundary=include_boundary)
    nu = draw(st.floats(0.0, 0.45))
    eta = draw(st.sampled_from([1.0, 1e2, 1e4, 1e6]))
    coeff = generate_coefficient("channels-and-inclusions", mesh, eta, nu=nu)
    op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
    tag = draw(st.sampled_from(sorted(VARIANTS)))
    n_max = draw(st.integers(1, 4))
    parts = {}
    precond = build_preconditioner(tag, op, part, coeff, EigOptions(n_max=n_max), parts)
    level1_key, _, coarse_key = part_keys(tag)
    return dict(
        mesh=mesh, part=part, coeff=coeff, op=op, variant=VARIANTS[tag],
        precond=precond, level1=parts[level1_key].value, basis=parts[coarse_key].value[0],
    )


@given(problems())
def test_basis_rows_supported_in_their_neighborhood(p):
    mesh, part, basis = p["mesh"], p["part"], p["basis"]
    n = part.n_neighborhoods
    # eigenmode rows center by center, then one rotation row per center but
    # the last when every coarse node is kept
    rotated = np.arange(n - part.include_boundary if p["variant"].enrich else 0)
    n_eig = np.array(basis.modes_per_center)
    n_eig[rotated] -= 1
    centers = np.concatenate([np.repeat(np.arange(n), n_eig), rotated])
    assert centers.size == basis.N_c
    R0 = basis.R0.tocoo()
    nodes = p["op"].free_dofs[R0.col] % mesh.n_nodes
    for center, patch in enumerate(part.neighborhoods):
        assert np.isin(nodes[centers[R0.row] == center], patch.node_ids(mesh)).all()


@given(problems())
def test_coarse_operator_full_rank(p):
    # the build raises if the coarse operator rejects the basis; check the rank too
    s = np.linalg.svd(p["precond"].coarse.K0, compute_uv=False)
    assert p["precond"].coarse_dim == p["basis"].N_c
    assert s[-1] > 1e-12 * s[0]


@given(problems(), st.integers(0, 2**32 - 1))
def test_level1_solves_match_spsolve(p, seed):
    rng = np.random.default_rng(seed)
    op, heat = p["op"], p["variant"].level1 == "heat"
    if heat:
        D = assemble_diffusion(p["mesh"], p["coeff"].values, p["mesh"].boundary_nodes())
    assert len(p["level1"]) == p["part"].n_neighborhoods
    for idx, solve in p["level1"]:
        r = rng.standard_normal(idx.size)
        if heat:
            m = idx.size // 2
            H = D.matrix[idx[:m]][:, idx[:m]].tocsc()
            ref = np.concatenate([spla.spsolve(H, r[:m]), spla.spsolve(H, r[m:])])
        else:
            ref = spla.spsolve(op.matrix[idx][:, idx].tocsc(), r)
        assert np.linalg.norm(solve(r) - ref) <= 1e-9 * np.linalg.norm(ref)


@given(problems(), st.integers(0, 2**32 - 1))
def test_preconditioner_symmetric(p, seed):
    rng = np.random.default_rng(seed)
    v, w = rng.standard_normal((2, p["op"].n_free))
    P = p["precond"]
    assert v @ P.apply(w) == pytest.approx(w @ P.apply(v), rel=1e-10)


@given(problems(), st.integers(0, 2**32 - 1))
def test_preconditioner_positive(p, seed):
    v = np.random.default_rng(seed).standard_normal((3, p["op"].n_free))
    assert all(w @ p["precond"].apply(w) > 0.0 for w in v)


@given(problems(), st.integers(0, 2**32 - 1))
def test_pcg_matches_spsolve(p, seed):
    A = p["op"].matrix
    b = np.random.default_rng(seed).standard_normal(A.shape[0])
    x, report = pcg_solve(A, b, p["precond"], tol=1e-10)
    ref = spla.spsolve(A.tocsc(), b)
    assert report.converged
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)


@given(problems())
def test_operator_spd_and_bitwise_symmetric(p):
    A = p["op"].matrix
    assert (A - A.T).nnz == 0
    np.linalg.cholesky(A.toarray())  # raises unless positive definite


@given(problems())
def test_partition_of_unity_off_the_boundary(p):
    mesh = p["mesh"]
    pou = PartitionOfUnity(p["part"])
    total = np.zeros(mesh.n_nodes)
    for ids, vals in zip(pou.node_ids, pou.values):
        np.add.at(total, ids, vals)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes())
    assert np.abs(total[interior] - 1.0).max() <= 1e-14


@given(
    st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 4.0), st.integers(0, 2**32 - 1)
)
def test_density_filter_adjoint(nx, ny, radius_in_h, seed):
    mesh = build_fine_mesh(nx, ny)
    filt = DensityFilter(mesh, radius_in_h * mesh.h)
    u, v = np.random.default_rng(seed).standard_normal((2, mesh.n_elements))
    scale = np.linalg.norm(u) * np.linalg.norm(v)
    assert v @ filt.apply(u) == pytest.approx(u @ filt.adjoint(v), rel=0.0, abs=1e-12 * scale)


@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.booleans(),
    st.sampled_from(["layout", "simp", "uniform"]), st.sampled_from(["elasticity", "heat"]),
    st.integers(0, 2**32 - 1),
)
@pytest.mark.filterwarnings("ignore:.*subdomains with no free dofs skipped")
def test_level1_band_fill_matches_sliced_matrix(Nx, Ny, mex, mey, include_boundary, field, kind, seed):
    # the band array filled through the pattern's slots is bitwise the one
    # built from the submatrix with its zeros dropped, so the factors are too
    assume(Nx * mex > 1 and Ny * mey > 1)  # a clamped 1-element strip has no free dof
    rng = np.random.default_rng(seed)
    mesh = build_fine_mesh(Nx * mex, Ny * mey)
    part = CoarsePartition(mesh, Nx, Ny, include_boundary=include_boundary)
    if field == "layout":
        coeff = generate_coefficient("channels-and-inclusions", mesh, 1e6)
    else:  # a void-solid design: neighbours of equal modulus cancel couplings
        rho = rng.choice([1e-3, 0.5, 1.0] if field == "simp" else [1.0], mesh.n_elements)
        coeff = CoefficientField(1e-6 + rho**3 * (1.0 - 1e-6), 0.3)
    op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
    A = op if kind == "elasticity" else assemble_diffusion(mesh, coeff.values, mesh.boundary_nodes())
    data = A.pattern_data
    assert np.array_equal(data[data != 0.0], A.matrix.data)
    level1 = build_level1(kind, op, part, coeff)
    slots = _level1_slots(A.pattern, mesh, Nx, Ny, include_boundary)
    assert len(level1) == len(slots)
    for (idx, solve), (sub_idx, band_slots) in zip(level1, slots):
        assert np.array_equal(idx[: sub_idx.size], sub_idx)
        sub = A.matrix[sub_idx][:, sub_idx]
        ab, kd = band_slots.band(data)
        ref_ab, ref_kd = _band(sub, None, upper_only=True)
        assert kd == ref_kd and np.array_equal(ab, ref_ab)
        r = rng.standard_normal((sub_idx.size, 2))
        ref = banded_cholesky(sub)(r)
        if kind == "elasticity":
            assert np.array_equal(solve(r[:, 0]), ref[:, 0])
        else:  # one two-column solve on the x- and y-blocks
            assert np.array_equal(solve(r.T.ravel()), ref.T.ravel())
