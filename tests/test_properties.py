"""Property tests of the preconditioner build over drawn problems.

Each example is a clamped problem on a drawn (possibly non-square) mesh and
coarse grid, with or without the boundary coarse nodes, a drawn Poisson
ratio, contrast, mode cap and variant.  The examples are derandomized (see
the hypothesis profile in ``conftest.py``), so every run draws the same ones.

With every coarse node kept (``include_boundary``) two kinds of basis are
rank deficient by construction, so they are not drawn:
- the rotation-enriched ones: the bilinear hats then reproduce linear
  functions, sum_l chi_l (x - x_l) = 0, so the localized rotations sum to
  zero;
- blocks narrower than 4 elements with up to 4 modes per neighborhood: on a
  clamped corner patch chi_l is nonzero at only (m - 1)^2 free nodes.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from mselast.assembly import assemble_diffusion, assemble_elasticity
from mselast.coefficients import generate_coefficient
from mselast.grid import build_coarse_partition, build_fine_mesh
from mselast.schwarz import VARIANTS, EigOptions, build_preconditioner, part_keys


@st.composite
def problems(draw):
    include_boundary = draw(st.booleans())
    Nx, Ny = (draw(st.integers(1 if include_boundary else 2, 3)) for _ in range(2))
    mex, mey = (draw(st.integers(4 if include_boundary else 2, 5)) for _ in range(2))
    mesh = build_fine_mesh(Nx * mex, Ny * mey)
    part = build_coarse_partition(mesh, Nx, Ny, include_boundary=include_boundary)
    nu = draw(st.floats(0.0, 0.45))
    eta = draw(st.sampled_from([1.0, 1e2, 1e4, 1e6]))
    coeff = generate_coefficient("channels-and-inclusions", mesh, eta, nu=nu)
    dirichlet = mesh.boundary_nodes()
    op = assemble_elasticity(mesh, coeff, dirichlet)
    tag = draw(st.sampled_from([t for t in sorted(VARIANTS) if not (include_boundary and VARIANTS[t].enrich)]))
    n_max = draw(st.integers(1, 4))
    parts = {}
    precond = build_preconditioner(tag, op, mesh, part, coeff, dirichlet, EigOptions(n_max=n_max), parts)
    level1_key, _, coarse_key = part_keys(tag)
    return dict(
        mesh=mesh, part=part, coeff=coeff, dirichlet=dirichlet, op=op, variant=VARIANTS[tag],
        precond=precond, level1=parts[level1_key].value, basis=parts[coarse_key].value[0],
    )


@given(problems())
def test_basis_rows_supported_in_their_neighborhood(p):
    mesh, part, basis = p["mesh"], p["part"], p["basis"]
    enrich = p["variant"].enrich
    # eigenmode rows center by center, then one rotation row per center
    centers = np.repeat(np.arange(part.n_neighborhoods), np.array(basis.modes_per_center) - enrich)
    if enrich:
        centers = np.concatenate([centers, np.arange(part.n_neighborhoods)])
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
        D = assemble_diffusion(p["mesh"], p["coeff"].values, p["dirichlet"])
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
