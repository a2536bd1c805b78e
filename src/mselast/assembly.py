"""Q1 finite element assembly on the structured mesh.

Provides the plane-stress elasticity operator, the scalar diffusion operator,
weighted mass matrices, load vectors, and the SIMP / density-filter pipeline.
Dirichlet conditions are imposed by dof elimination; the operators act on the
remaining free dofs.  Element integrals use 2x2 Gauss quadrature, which is
exact for bilinear shape functions on square elements.

Assembly scatters the element matrices with one ``np.bincount`` over a cached
pattern (keyed by mesh, element width and free-dof set): the CSR structure of
the free-dof operator and the slot of every element-matrix entry.  Each entry
sums its element terms in element order, so (i, j) and (j, i) add the same
terms in the same order and the operator is bitwise symmetric without a
mirror step; entries that cancel exactly are dropped.  Repeated assembly on
one mesh (every neighborhood of a coarse grid, every SIMP step) reuses the
pattern.  The operator also keeps the pattern and its undropped values
(``SymmetricSparseOperator.pattern``/``pattern_data``), so a consumer that
reads fixed submatrices, such as the level-1 band fill, can map the pattern
once and copy the values at every rebuild.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


# ---------------------------------------------------------------------------
# coefficient and load descriptions


@dataclass
class CoefficientField:
    """Per-element modulus E_e, finite and positive, and the Poisson ratio."""

    values: np.ndarray  # (n_elements,) row-major
    nu: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        bad = np.flatnonzero(~(np.isfinite(self.values) & (self.values > 0)))
        if bad.size:
            raise ValueError(f"moduli must be finite and positive, but element {bad[0]} has {self.values[bad[0]]}")

    def to_text(self, path, mesh):
        np.savetxt(path, self.values.reshape(mesh.ny, mesh.nx))

    @classmethod
    def from_text(cls, path, nu, mesh=None):
        """Read a field written by ``to_text``: ny rows of nx values.  With
        ``mesh`` the shape is checked, which also rejects a transposed field."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file fails the shape check
                vals = np.loadtxt(path, ndmin=2)
            if mesh is not None and vals.shape != (mesh.ny, mesh.nx):
                raise ValueError(
                    f"{vals.shape[0]} rows of {vals.shape[1]} values, "
                    f"the {mesh.nx}x{mesh.ny} mesh needs {mesh.ny} rows of {mesh.nx}"
                )
            return cls(vals, nu)
        except ValueError as exc:
            raise ValueError(f"coefficient file {path}: {exc}") from None


@dataclass
class LoadSpec:
    """Point loads (node, component, magnitude) plus optional uniform body force."""

    point_loads: list = field(default_factory=list)
    body_force: tuple | None = None  # (fx, fy) per unit area


def build_load_vector(mesh, load):
    f = np.zeros(mesh.n_dofs)
    for node, comp, mag in load.point_loads:
        if not (0 <= node < mesh.n_nodes) or comp not in (0, 1):
            raise ValueError(f"invalid point load ({node}, {comp})")
        f[node + comp * mesh.n_nodes] += mag
    if load.body_force is not None:
        fx, fy = load.body_force
        me = mass_element_scalar(mesh.h)
        nodal = np.zeros(mesh.n_nodes)
        np.add.at(nodal, mesh.element_nodes().ravel(),
                  np.tile(me.sum(axis=1), mesh.n_elements))
        f[: mesh.n_nodes] += fx * nodal
        f[mesh.n_nodes:] += fy * nodal
    return f


# ---------------------------------------------------------------------------
# element matrices (square elements; 2x2 Gauss)


def _gauss2():
    a = 0.5 - 0.5 / np.sqrt(3.0)
    b = 0.5 + 0.5 / np.sqrt(3.0)
    return [(x, y) for x in (a, b) for y in (a, b)]


def _dshape(xi, eta):
    """Reference derivatives of the 4 bilinear shape functions (unit square)."""
    return np.array(
        [
            [-(1 - eta), (1 - eta), eta, -eta],
            [-(1 - xi), -xi, xi, (1 - xi)],
        ]
    )


@lru_cache(maxsize=None)
def unit_elasticity_element(nu):
    """8x8 plane-stress Q1 element stiffness for E = 1, the same on a square
    of any side in 2D.  Ordering: [x1..x4, y1..y4], corners counterclockwise
    from the lower-left.  The cached array is shared: do not write to it."""
    if not (0 <= nu < 0.5):
        raise ValueError(f"Poisson ratio {nu} outside [0, 0.5)")
    C = np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]) / (
        1.0 - nu * nu
    )
    K = np.zeros((8, 8))
    for xi, eta in _gauss2():
        dN = _dshape(xi, eta)
        B = np.zeros((3, 8))
        B[0, :4] = dN[0]
        B[1, 4:] = dN[1]
        B[2, :4] = dN[1]
        B[2, 4:] = dN[0]
        K += 0.25 * B.T @ C @ B
    # enforce bitwise symmetry (matmul rounding makes K[i,j] != K[j,i] at ~1e-18)
    return 0.5 * (K + K.T)


@lru_cache(maxsize=None)
def laplace_element_scalar():
    """4x4 scalar Q1 Laplacian element (unit conductivity, h-independent)."""
    A = np.zeros((4, 4))
    for xi, eta in _gauss2():
        dN = _dshape(xi, eta)
        A += 0.25 * (np.outer(dN[0], dN[0]) + np.outer(dN[1], dN[1]))
    return A


def mass_element_scalar(h):
    """4x4 scalar Q1 mass element on a square of side h (exact)."""
    return (h * h / 36.0) * np.array(
        [[4.0, 2.0, 1.0, 2.0], [2.0, 4.0, 2.0, 1.0], [1.0, 2.0, 4.0, 2.0], [2.0, 1.0, 2.0, 4.0]]
    )


# ---------------------------------------------------------------------------
# global operators


@dataclass(eq=False)
class ScatterPattern:
    """CSR structure of the operator on the dofs ``free`` (of ``n_full``),
    every entry kept, and the slot of every element-matrix entry: one int32
    per entry, row-major within each element, with the entries of a
    constrained row or column sent to the dummy slot ``indices.size``.
    Compared and hashed by identity, so caches of maps derived from a
    pattern can key on it.  The pattern of a matrix built by hand has no
    ``slot``."""

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray | None
    free: np.ndarray
    n_full: int


@dataclass
class SymmetricSparseOperator:
    """Symmetric sparse operator restricted to free dofs.

    ``free_dofs`` indexes into the full dof vector (length ``n_full``);
    ``matrix`` is the SPD restriction after Dirichlet elimination.  An
    assembled operator also holds its cached ``pattern`` and ``pattern_data``,
    the values on every pattern entry, exact zeros included; an operator
    built by hand takes its matrix's own structure and values.
    """

    matrix: sp.csr_matrix
    free_dofs: np.ndarray
    n_full: int
    pattern: ScatterPattern | None = None
    pattern_data: np.ndarray | None = None

    def __post_init__(self):
        if self.pattern is None:
            A = self.matrix.tocsr()
            A.sum_duplicates()
            self.pattern = ScatterPattern(A.indptr, A.indices, None, np.asarray(self.free_dofs), self.n_full)
            self.pattern_data = A.data

    @property
    def n_free(self):
        return self.free_dofs.size

    def free_index(self):
        """Map full dof id -> free index (-1 if constrained)."""
        idx = np.full(self.n_full, -1, dtype=np.int64)
        idx[self.free_dofs] = np.arange(self.n_free)
        return idx

    def expand(self, x_free):
        x = np.zeros(self.n_full)
        x[self.free_dofs] = x_free
        return x

    def restrict(self, x_full):
        return x_full[self.free_dofs]


@lru_cache(maxsize=32)
def _scatter_pattern(mesh, width, free_key):
    """The ``ScatterPattern`` of the free-dof operator.

    ``width`` is 4 (one dof per node) or 8 (component-grouped vector dofs) and
    ``free_key`` the bytes of the int64 free-dof array.
    """
    free = np.frombuffer(free_key, dtype=np.int64)
    n, n_full = free.size, mesh.n_nodes * width // 4
    dofs = mesh.element_nodes() if width == 4 else mesh.element_dofs()
    index = np.full(n_full, -1, dtype=np.int64)
    index[free] = np.arange(n)
    r = index[dofs]
    key = r[:, :, None] * n + r[:, None, :]
    constrained = r < 0
    key[constrained[:, :, None] | constrained[:, None, :]] = n * n  # sorts last
    uniq, slot = np.unique(key.ravel(), return_inverse=True)
    del key
    uniq = uniq[uniq < n * n]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
    return ScatterPattern(indptr, (uniq % n).astype(np.int32), slot.astype(np.int32), free, n_full)


def _assemble(mesh, mats, free):
    """Sum the element matrices ``mats`` (n_elements, w, w) into the operator
    on the dofs ``free``: w = 4 for scalar node dofs, 8 for vector dofs.

    Every entry sums its element terms in element order (``np.bincount`` over
    the cached scatter pattern), so entries (i, j) and (j, i) add the same
    terms in the same order and the result is bitwise symmetric.  Entries that
    cancel to zero are dropped from the matrix; the operator keeps the
    pattern and the undropped values beside it.
    """
    free = np.asarray(free, dtype=np.int64)
    if free.size == 0:
        raise ValueError("empty free-dof set")
    width = mats.shape[1]
    pattern = _scatter_pattern(mesh, width, free.tobytes())
    indptr, indices = pattern.indptr, pattern.indices
    data = np.bincount(pattern.slot, weights=mats.ravel(), minlength=indices.size + 1)[: indices.size]
    # drop the zeros into fresh arrays: the pattern arrays are cached, and
    # eliminate_zeros would keep the full-size buffers alive
    keep = data != 0.0
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    A = sp.csr_matrix((data[keep], indices[keep], kept_before[indptr]), shape=(free.size, free.size))
    return SymmetricSparseOperator(A, free, mesh.n_nodes * width // 4, pattern, data)


def _free_from_constrained(n_dofs, constrained):
    return np.setdiff1d(np.arange(n_dofs), np.asarray(constrained, dtype=np.int64))


def assemble_elasticity(mesh, coeff, dirichlet_nodes):
    """Assemble the plane-stress operator on free dofs.

    ``dirichlet_nodes`` are clamped in both components.  Dof ordering groups
    components: all x-displacements first, so the operator has the block form
    [[K_xx, K_xy], [K_xy^T, K_yy]].
    """
    if coeff.values.size != mesh.n_elements:
        raise ValueError("coefficient field does not match mesh")
    Ke = unit_elasticity_element(float(coeff.nu))
    mats = coeff.values[:, None, None] * Ke[None, :, :]
    nodes = np.asarray(dirichlet_nodes, dtype=np.int64)
    free = _free_from_constrained(mesh.n_dofs, np.concatenate([nodes, nodes + mesh.n_nodes]))
    return _assemble(mesh, mats, free)


def assemble_diffusion(mesh, kappa, dirichlet_nodes):
    """Scalar Q1 Laplacian weighted by the per-element conductivity."""
    kappa = np.asarray(kappa, dtype=float).ravel()
    if kappa.size != mesh.n_elements:
        raise ValueError("conductivity field does not match mesh")
    if kappa.min() <= 0:
        raise ValueError("conductivity must be positive")
    Ae = laplace_element_scalar()
    mats = kappa[:, None, None] * Ae[None, :, :]
    free = _free_from_constrained(mesh.n_nodes, np.asarray(dirichlet_nodes, dtype=np.int64))
    return _assemble(mesh, mats, free)


def assemble_weighted_mass(mesh, weight, kind, dirichlet_nodes=()):
    """Mass matrix with element integrals weighted by the coefficient.

    kind='diffusion' gives the scalar matrix S; kind='elasticity' the
    block-diagonal two-component version block_diag(S, S) on the
    component-grouped free dofs (the components decouple and share the weight).
    """
    if kind not in ("diffusion", "elasticity"):
        raise ValueError(f"unknown mass kind {kind!r}")
    weight = np.asarray(weight, dtype=float).ravel()
    if weight.size != mesh.n_elements:
        raise ValueError("weight field does not match mesh")
    if weight.min() <= 0:
        raise ValueError("weight must be positive")
    Me = mass_element_scalar(mesh.h)
    free = _free_from_constrained(mesh.n_nodes, np.asarray(dirichlet_nodes, dtype=np.int64))
    S = _assemble(mesh, weight[:, None, None] * Me[None, :, :], free)
    if kind == "diffusion":
        return S
    return SymmetricSparseOperator(
        sp.block_diag([S.matrix, S.matrix], format="csr"),
        np.concatenate([free, free + mesh.n_nodes]),
        mesh.n_dofs,
    )


def rigid_body_modes(coords, center=(0.0, 0.0)):
    """Columns: x-translation, y-translation, rotation about ``center``.

    ``coords`` is (n_nodes, 2); output rows are component-grouped dofs.
    """
    n = coords.shape[0]
    Z = np.zeros((2 * n, 3))
    Z[:n, 0] = 1.0
    Z[n:, 1] = 1.0
    Z[:n, 2] = -(coords[:, 1] - center[1])
    Z[n:, 2] = coords[:, 0] - center[0]
    return Z


# ---------------------------------------------------------------------------
# SIMP and density filtering


def simp_modulus(rho_f, p, E_min, E_max):
    """E = E_min + rho^p (E_max - E_min)."""
    rho_f = np.asarray(rho_f, dtype=float)
    if rho_f.min() < -1e-12 or rho_f.max() > 1 + 1e-12:
        raise ValueError("density out of [0, 1]")
    if p < 1:
        raise ValueError("penalization exponent must be >= 1")
    return E_min + np.clip(rho_f, 0.0, 1.0) ** p * (E_max - E_min)


class DensityFilter:
    """Linear (cone) density filter with row-normalized weights.

    rho_f = W rho with w_ek = max(0, r - dist(centroid_e, centroid_k)).
    ``adjoint`` applies W^T, the chain-rule map for sensitivities when the
    filtered field is the physical one.
    """

    def __init__(self, mesh, radius):
        if radius < 0:
            raise ValueError("filter radius must be nonnegative")
        nx, ny, h = mesh.nx, mesh.ny, mesh.h
        reach = int(np.ceil(radius / h)) - 1 if radius > 0 else 0
        reach = max(reach, 0)
        rows, cols, vals = [], [], []
        offs = [
            (di, dj)
            for di in range(-reach, reach + 1)
            for dj in range(-reach, reach + 1)
            if radius - h * np.hypot(di, dj) > 0
        ]
        if not offs:
            offs = [(0, 0)]
        ii = np.tile(np.arange(nx), ny)
        jj = np.repeat(np.arange(ny), nx)
        e = jj * nx + ii
        for di, dj in offs:
            ik, jk = ii + di, jj + dj
            ok = (ik >= 0) & (ik < nx) & (jk >= 0) & (jk < ny)
            # a radius up to h weighs each element alone: a unit weight makes
            # the filter exactly the identity (1 / rowsum overflows for tiny radii)
            w = max(radius - h * np.hypot(di, dj), 0.0) if reach > 0 else 1.0
            rows.append(e[ok])
            cols.append((jk * nx + ik)[ok])
            vals.append(np.full(ok.sum(), w))
        W = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_elements, mesh.n_elements),
        ).tocsr()
        rowsum = np.asarray(W.sum(axis=1)).ravel()
        self.W = (sp.diags(1.0 / rowsum) @ W).tocsr()

    def apply(self, rho):
        return self.W @ np.asarray(rho, dtype=float).ravel()

    def adjoint(self, v):
        return self.W.T @ np.asarray(v, dtype=float).ravel()

