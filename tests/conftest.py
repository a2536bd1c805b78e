"""Shared fixtures and small-problem builders for the test suite."""

import os

# One BLAS thread, set before numpy loads its BLAS: timings and summation
# orders do not then depend on how many cores other processes leave free.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from mselast.assembly import CoefficientField  # noqa: E402
from mselast.grid import FineMesh, _lattice_nodes, build_fine_mesh  # noqa: E402
from mselast.spectral import build_local_eigproblem  # noqa: E402

# Property tests draw a fixed sequence of examples (derandomize) and keep no
# example database, so every run checks the same cases in about the same time.
settings.register_profile("mselast", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("mselast")


def make_patch_problem(n, kind, eta, solids, nu=0.3, dirichlet_nodes=()):
    """A pure-Neumann n x n patch with soft background 1/eta and unit-stiff
    axis-aligned rectangles (fractional coordinates)."""
    mesh = build_fine_mesh(n, n)
    E = np.full(mesh.n_elements, 1.0 / eta)
    c = mesh.element_centroids()
    for x0, x1, y0, y1 in solids:
        inside = (c[:, 0] >= x0) & (c[:, 0] < x1) & (c[:, 1] >= y0) & (c[:, 1] < y1)
        E[inside] = 1.0
    return build_local_eigproblem(mesh, CoefficientField(E, nu), dirichlet_nodes, kind)


def own_patch(mesh, coeff, patch, clamped):
    """``patch`` of ``mesh`` as a mesh of its own: (patch mesh, the moduli of
    its elements, the patch-local ids of its nodes in ``clamped``), the
    arguments of ``build_local_eigproblem`` before its kind."""
    E = coeff.values.reshape(mesh.ny, mesh.nx)[patch.ey0 : patch.ey1, patch.ex0 : patch.ex1]
    node_ids = _lattice_nodes(mesh, patch.ex0, patch.ex1 + 1, patch.ey0, patch.ey1 + 1)
    local = np.flatnonzero(np.isin(node_ids, clamped))
    return FineMesh(*patch.shape, mesh.h), CoefficientField(E.ravel(), coeff.nu), local


def rows_per_center(variant, part, selections):
    """The coarse basis rows of each center, as ``coarse.build_coarse_basis``
    documents them: its selected modes, two rows per heat mode, and its
    rotation row, which the last center goes without when every coarse node
    is kept."""
    n_rot = part.n_neighborhoods - part.include_boundary if variant.enrich else 0
    return [sel.n_sel * (1 if sel.kind == "elasticity" else 2) + (c < n_rot) for c, sel in enumerate(selections)]


# rectangle sets reused across eigensolver tests
PATCH_GEOMETRIES = {
    "homogeneous": [],
    "one-inclusion": [(0.3, 0.6, 0.3, 0.6)],
    "two-inclusions": [(0.1, 0.35, 0.1, 0.35), (0.55, 0.9, 0.55, 0.9)],
    "channel": [(0.0, 1.0, 0.4, 0.6)],
    "three-blobs": [(0.1, 0.3, 0.1, 0.3), (0.6, 0.85, 0.15, 0.4), (0.3, 0.55, 0.6, 0.9)],
}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
