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

The band fills of level 1 and of the eigensolver's LU, and the eigenpairs
mirrored by a lattice symmetry, are checked on their own draws, which also take SIMP-like fields of a few distinct moduli: where
equal moduli meet, entries cancel and are dropped from the matrix but keep
their slot in the pattern.  Their reference is a band array built from the
dense matrix with its zeros dropped.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf, dpbtrs

from conftest import own_patch, rows_per_center
from test_assembly import OPERATOR_KINDS, assemble_kind, assert_bitwise_the_bincount_scatter
from mselast.assembly import CoefficientField, DensityFilter, assemble_diffusion, assemble_elasticity
from mselast.banded import node_major_order
from mselast.coefficients import generate_coefficient
from mselast.grid import CoarsePartition, FineMesh, build_fine_mesh
from mselast.krylov import pcg_solve
from mselast import schwarz
from mselast.schwarz import VARIANTS, EigOptions, _level1_slots, build_level1, build_preconditioner, part_keys
from mselast.spectral import (
    SYMMETRIES,
    _lu_slots,
    build_local_eigproblem,
    lattice_image,
    solve_local_eig_dense,
)


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
    tag = draw(st.sampled_from(sorted(t for t, v in VARIANTS.items() if v.eig_kind is not None)))
    n_max = draw(st.integers(1, 4))
    parts = {}
    precond = build_preconditioner(tag, op, part, coeff, EigOptions(n_max=n_max), parts)
    level1_key, selections_key, coarse_key = part_keys(tag)
    return dict(
        mesh=mesh, part=part, coeff=coeff, op=op, variant=VARIANTS[tag],
        precond=precond, level1=parts[level1_key].value, R0=parts[coarse_key].value.R0,
        rows=rows_per_center(VARIANTS[tag], part, parts[selections_key].value),
    )


@given(problems())
def test_basis_rows_supported_in_their_neighborhood(p):
    mesh, part = p["mesh"], p["part"]
    # rows center by center, each center's rotation row after its eigenmode rows
    centers = np.repeat(np.arange(part.n_neighborhoods), p["rows"])
    assert centers.size == p["R0"].shape[0]
    R0 = p["R0"].tocoo()
    nodes = p["op"].free_dofs[R0.col] % mesh.n_nodes
    for center, node_ids in enumerate(part.node_ids):
        assert np.isin(nodes[centers[R0.row] == center], node_ids).all()


@given(problems())
def test_coarse_operator_full_rank(p):
    # the build raises if the coarse operator rejects the basis; check the rank too
    s = np.linalg.svd(p["precond"].coarse.K0.toarray(), compute_uv=False)
    assert p["precond"].coarse_dim == p["R0"].shape[0] == sum(p["rows"])
    assert s[-1] > 1e-12 * s[0]


@given(problems())
def test_closed_patch_classes_refine_the_level1_classes(p):
    # a neighborhood's closed patch problem holds its interior one, so the
    # neighborhoods of one closed problem, bit for bit, are one level-1 class
    # and share one level-1 factor
    part, coeff = p["part"], p["coeff"]
    clamped = schwarz._clamped_nodes(p["op"])
    closed, interior = (schwarz._patch_classes(part, coeff, clamped, on_closed, SYMMETRIES[:1])
                        for on_closed in (True, False))
    level1_class = {c: i for i, (_, members) in enumerate(interior) for c, _ in members}
    factors = [solve for _, solve in p["level1"]]  # every drawn subdomain has free dofs
    assert sorted(level1_class) == list(range(part.n_neighborhoods)) == list(range(len(factors)))
    for _, members in closed:
        assert {sym for _, sym in members} == {SYMMETRIES[0]}
        assert len({level1_class[c] for c, _ in members}) == 1
        assert len({id(factors[c]) for c, _ in members}) == 1


@given(problems(), st.integers(0, 2**32 - 1))
def test_coarse_factor_banded_by_center_rows(p, seed):
    # a basis row couples only the rows of centers whose patches share an
    # element, provided each hat vanishes on its patch edge; those centers are
    # at most one coarse-node row and one center apart, so with each center's
    # rows consecutive the band is narrow
    part, coarse = p["part"], p["precond"].coarse
    i, j = coarse.K0.nonzero()
    centers = np.repeat(np.arange(part.n_neighborhoods), p["rows"])
    node = np.array(part.coarse_nodes)
    assert np.abs(node[centers[i]] - node[centers[j]]).max() <= 1
    per_row = part.Nx + 1 if part.include_boundary else part.Nx - 1
    assert np.abs(i - j).max() <= (per_row + 2) * max(p["rows"]) - 1
    f = np.random.default_rng(seed).standard_normal(coarse.dim)
    ref = np.linalg.solve(coarse.K0.toarray(), f)
    assert np.linalg.norm(coarse.solve(f) - ref) <= 1e-10 * np.linalg.norm(ref)


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
    mesh, part = p["mesh"], p["part"]
    # each center's closed-patch nodes and hat, and the hats renormalized by
    # their sum taken center by center with np.add.at: chi is that, bit for bit
    node_ids, hats = [], []
    for (I, J), patch in zip(part.coarse_nodes, part.neighborhoods):
        i = np.tile(np.arange(patch.ex0, patch.ex1 + 1), patch.ey1 - patch.ey0 + 1)
        j = np.repeat(np.arange(patch.ey0, patch.ey1 + 1), patch.ex1 - patch.ex0 + 1)
        node_ids.append(j * (mesh.nx + 1) + i)
        hats.append((1.0 - np.abs(i - I * part.mex) / part.mex) * (1.0 - np.abs(j - J * part.mey) / part.mey))
    hat_total = np.zeros(mesh.n_nodes)
    for ids, hat in zip(node_ids, hats):
        np.add.at(hat_total, ids, hat)
    safe = np.where(hat_total > 0.0, hat_total, 1.0)
    assert all(np.array_equal(part.node_ids[c], ids) and np.array_equal(part.chi[c], hat / safe[ids])
               for c, (ids, hat) in enumerate(zip(node_ids, hats)))
    total = np.zeros(mesh.n_nodes)
    for ids, chi in zip(part.node_ids, part.chi):
        np.add.at(total, ids, chi)
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
    st.integers(1, 12), st.integers(1, 12), st.sampled_from(OPERATOR_KINDS), st.floats(0.0, 0.45),
    st.sampled_from(["none", "boundary", "scattered"]),
    st.lists(st.sampled_from([1e-6, 1e-3, 0.5, 1.0]), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
)
def test_assembly_is_bitwise_the_bincount_scatter(nx, ny, kind, nu, clamp, moduli, seed):
    # a field of a few distinct moduli cancels couplings exactly where equal moduli meet
    rng = np.random.default_rng(seed)
    mesh = build_fine_mesh(nx, ny)
    nodes = {
        "none": np.array([], dtype=np.int64),
        "boundary": mesh.boundary_nodes(),
        "scattered": np.flatnonzero(rng.random(mesh.n_nodes) < 0.3),
    }[clamp]
    assume(nodes.size < mesh.n_nodes)
    E = rng.choice(moduli, mesh.n_elements)
    op, dofs, element = assemble_kind(kind, mesh, E, nodes, nu)
    assert_bitwise_the_bincount_scatter(op, dofs, element, E)


def dense_band(D, lu):
    """LAPACK band array of the dense symmetric ``D`` and its half-bandwidth,
    that of the nonzero entries: the upper triangle in ``pbtrf`` layout, or
    with ``lu`` the whole band in ``gbtrf`` layout (kd more rows on top)."""
    i, j = np.nonzero(D)
    kd = int(np.abs(i - j).max(initial=0))
    if not lu:
        i, j = i[j >= i], j[j >= i]
    top = 2 * kd if lu else kd
    ab = np.zeros((top + kd + 1 if lu else kd + 1, D.shape[0]), order="F")
    ab[top + i - j, j] = D[i, j]
    return ab, kd


def band_fill_fields(mesh, field, rng):
    """The channels-and-inclusions layout at contrast 1e6, or a void-solid
    design, whose neighbours of equal modulus cancel couplings."""
    if field == "layout":
        return generate_coefficient("channels-and-inclusions", mesh, 1e6)
    rho = rng.choice([1e-3, 0.5, 1.0] if field == "simp" else [1.0], mesh.n_elements)
    return CoefficientField(1e-6 + rho**3 * (1.0 - 1e-6), 0.3)


@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.booleans(),
    st.sampled_from(["layout", "simp", "uniform"]), st.sampled_from(["elasticity", "heat"]),
    st.integers(0, 2**32 - 1),
)
@pytest.mark.filterwarnings("ignore:.*subdomains with no free dofs skipped")
def test_level1_band_fill_matches_sliced_matrix(Nx, Ny, mex, mey, include_boundary, field, kind, seed):
    # the band array filled through the pattern's slots is bitwise the one
    # built from the dense submatrix with its zeros dropped, so the factors are too
    assume(Nx * mex > 1 and Ny * mey > 1)  # a clamped 1-element strip has no free dof
    rng = np.random.default_rng(seed)
    mesh = build_fine_mesh(Nx * mex, Ny * mey)
    part = CoarsePartition(mesh, Nx, Ny, include_boundary=include_boundary)
    coeff = band_fill_fields(mesh, field, rng)
    op = assemble_elasticity(mesh, coeff, mesh.boundary_nodes())
    A = op if kind == "elasticity" else assemble_diffusion(mesh, coeff.values, mesh.boundary_nodes())
    data = A.pattern_data
    assert np.array_equal(data[data != 0.0], A.matrix.data)
    level1 = build_level1(kind, op, part, coeff)
    slots = _level1_slots(A.pattern, part)
    assert len(level1) == len(slots)
    for (idx, solve), band_slots in zip(level1, slots.values()):
        sub_idx = band_slots.idx
        assert np.array_equal(idx[: sub_idx.size], sub_idx)
        ab, kd = band_slots.band(data)
        ref_ab, ref_kd = dense_band(A.matrix[sub_idx][:, sub_idx].toarray(), lu=False)
        assert kd == ref_kd and np.array_equal(ab, ref_ab)
        r = rng.standard_normal((sub_idx.size, 2))
        ref = dpbtrs(dpbtrf(ref_ab)[0], r)[0]
        if kind == "elasticity":
            assert np.array_equal(solve(r[:, 0]), ref[:, 0])
        else:  # one two-column solve on the x- and y-blocks
            assert np.array_equal(solve(r.T.ravel()), ref.T.ravel())


@given(
    st.integers(2, 4), st.integers(2, 4), st.integers(2, 5), st.integers(2, 5), st.booleans(),
    st.sampled_from(["layout", "simp", "uniform"]), st.sampled_from(["elasticity", "diffusion"]),
    st.integers(0, 2**32 - 1),
)
def test_eigensolver_lu_band_matches_dense_sum(Nx, Ny, mex, mey, include_boundary, field, kind, seed):
    # on every neighborhood, K + sigma M summed on the shared pattern and
    # mirrored into the gbtrf layout is bitwise the band of the dense sum,
    # and its solve agrees with spsolve on forcings M-orthogonal to the
    # near-null space, as in the eigensolver.  With 4 coarse elements a
    # neighborhood can miss the clamped boundary (a pure Neumann patch); with
    # at least 2 coarse and 2 fine elements per direction a clamped patch
    # keeps more free dofs than near-null modes.
    rng = np.random.default_rng(seed)
    mesh = build_fine_mesh(Nx * mex, Ny * mey)
    part = CoarsePartition(mesh, Nx, Ny, include_boundary=include_boundary)
    coeff = band_fill_fields(mesh, field, rng)
    for patch in part.neighborhoods:
        prob = build_local_eigproblem(*own_patch(mesh, coeff, patch, mesh.boundary_nodes()), kind)
        K, M = prob.K.matrix, prob.M.matrix
        sigma = 1e-8 * (K.diagonal().sum() / prob.dim)
        slots = _lu_slots(prob.K.pattern, prob.patch_mesh.n_nodes)
        data = prob.K.pattern_data + sigma * prob.M.pattern_data
        order = node_major_order(prob.K.free_dofs, prob.patch_mesh.n_nodes)
        assert np.array_equal(slots.idx, order)
        ab, kd = slots.lu_band(data)
        ref_ab, ref_kd = dense_band((K.toarray() + sigma * M.toarray())[order][:, order], lu=True)
        assert kd == ref_kd and np.array_equal(ab, ref_ab)

        Z = prob.kernel_basis()
        MZ = M @ Z
        G = Z.T @ MZ
        F = rng.standard_normal((prob.dim, 2))
        F -= MZ @ np.linalg.solve(G, Z.T @ F)
        X = slots.lu(data)(F)
        Y = spla.spsolve((K + sigma * M).tocsc(), F)
        X, Y = (W - Z @ np.linalg.solve(G, MZ.T @ W) for W in (X, Y))
        # at contrast 1e6, K + sigma M stays ill conditioned off the deflated
        # modes, so two stable solvers differ by up to ~1e-8 here; a fault
        # in the numbering would differ by O(1)
        assert np.linalg.norm(X - Y) <= 1e-6 * np.linalg.norm(Y)


@given(
    st.integers(2, 3), st.integers(2, 3), st.integers(2, 5), st.integers(2, 5), st.booleans(),
    st.sampled_from(["layout", "simp", "uniform"]), st.sampled_from(["elasticity", "diffusion"]),
    st.integers(0, 2**32 - 1),
)
@example(2, 2, 5, 5, False, "layout", "elasticity", 0)  # diag M spans 4.4e-9 to 3.3e-3
def test_mirrored_eigenpairs_solve_the_mirrored_problem(Nx, Ny, mex, mey, include_boundary, field, kind, seed):
    # a neighborhood's dense eigenpairs carried over by each lattice symmetry
    # are eigenpairs of the mirrored patch problem assembled on its own, zero
    # on its own constrained dofs, with the eigenvalues of its own dense solve
    # up to round-off, which grows with the spread of diag M: over all 7680
    # draws of Nx, Ny, mex, mey, include_boundary, field, kind and seeds 0-9,
    # the largest gap is 31 eps * spread * lam[-1]
    rng = np.random.default_rng(seed)
    mesh = build_fine_mesh(Nx * mex, Ny * mey)
    part = CoarsePartition(mesh, Nx, Ny, include_boundary=include_boundary)
    coeff = band_fill_fields(mesh, field, rng)
    pmesh, moduli, clamped = own_patch(
        mesh, coeff, part.neighborhoods[rng.integers(part.n_neighborhoods)], mesh.boundary_nodes())
    prob = build_local_eigproblem(pmesh, moduli, clamped, kind)
    sel = solve_local_eig_dense(prob, min(7, prob.dim))
    mask = np.zeros(pmesh.n_nodes, dtype=bool)
    mask[clamped] = True
    for sym in SYMMETRIES:
        E = lattice_image(moduli.values.reshape(pmesh.ny, pmesh.nx), sym)
        mirrored_mask = lattice_image(mask.reshape(pmesh.ny + 1, pmesh.nx + 1), sym)
        image = build_local_eigproblem(FineMesh(E.shape[1], E.shape[0], pmesh.h), CoefficientField(E.ravel(), moduli.nu),
                                       np.flatnonzero(mirrored_mask), kind)
        mapped = sel.mirrored((pmesh.nx, pmesh.ny), sym)
        assert mapped.vectors.shape == (image.K.n_full, sel.n_sel)
        assert np.all(np.delete(mapped.vectors, image.K.free_dofs, axis=0) == 0.0)
        assert np.array_equal(mapped.eigenvalues, sel.eigenvalues)
        K, M, V = image.K.matrix, image.M.matrix, image.K.restrict(mapped.vectors)
        residual = np.linalg.norm(K @ V - (M @ V) * mapped.eigenvalues, axis=0)
        assert np.all(residual <= 1e-12 * abs(K).max() * np.linalg.norm(V, axis=0))
        lam = solve_local_eig_dense(image, sel.n_sel).eigenvalues
        spread = M.diagonal().max() / M.diagonal().min()
        assert np.abs(lam - mapped.eigenvalues).max() <= 100 * np.finfo(float).eps * spread * lam[-1]
