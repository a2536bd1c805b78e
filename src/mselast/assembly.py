"""Q1 finite element assembly on the structured mesh.

Provides the plane-stress elasticity operator, the scalar diffusion operator,
weighted mass matrices, load vectors, and the SIMP / density-filter pipeline.
Dirichlet conditions are imposed by dof elimination; the operators act on the
remaining free dofs.  Element integrals use 2x2 Gauss quadrature, which is
exact for bilinear shape functions on square elements.

Assembly is linear in the element weights: an operator's values on its
pattern (cached per mesh, element width and clamped nodes) are one CSR
product ``S @ weights``, S cached per pattern and element matrix.  Row k of
S holds entry k's element terms in element order, and the product sums them
from zero in that order, so (i, j) and (j, i) are bitwise equal.  Entries
that cancel exactly are dropped; where none does, the matrix shares the
pattern's read-only ``indptr`` and ``indices``.  The operator also keeps the
pattern and its undropped values (``pattern``/``pattern_data``), so a
consumer that reads fixed submatrices, such as the level-1 band fill, can
map the pattern once and copy the values at every rebuild.
"""

import threading
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
        self.values = _finite_positive(self.values, "moduli")

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


def _finite_positive(values, name):
    """``values`` as a flat float array, each entry finite and positive."""
    values = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        raise ValueError(f"{name} must be finite and positive, but element {bad[0]} has {values[bad[0]]}")
    return values


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


def check_poisson_ratio(nu):
    """Reject a Poisson ratio outside [0, 0.5), where plane stress is
    positive definite; nan too."""
    if not (0 <= nu < 0.5):
        raise ValueError(f"Poisson ratio {nu} outside [0, 0.5)")


@lru_cache(maxsize=None)
def unit_elasticity_element(nu):
    """8x8 plane-stress Q1 element stiffness for E = 1, the same on a square
    of any side in 2D.  Ordering: [x1..x4, y1..y4], corners counterclockwise
    from the lower-left.  The cached array is shared: do not write to it."""
    check_poisson_ratio(nu)
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
    every entry kept, and ``terms``, that of S (pattern entries x elements)
    with each term's place i * w + j in the element matrix as its uint8
    value; a constrained row or column has no terms.  Compared and hashed by
    identity, so caches of maps derived from a pattern can key on it.  The
    pattern of a matrix built by hand has no ``terms``."""

    indptr: np.ndarray
    indices: np.ndarray
    free: np.ndarray
    n_full: int
    terms: sp.csr_matrix | None = None


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
            self.pattern = ScatterPattern(A.indptr, A.indices, np.asarray(self.free_dofs), self.n_full)
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
        """A vector or columns on the free dofs, on every dof: 0 where constrained."""
        x = np.zeros((self.n_full, *np.shape(x_free)[1:]))
        x[self.free_dofs] = x_free
        return x

    def restrict(self, x_full):
        return x_full[self.free_dofs]


# one pattern and one S per key also when threads assemble at once: a patch's K and M share the pattern
_PATTERN_LOCK = threading.Lock()


@lru_cache(maxsize=32)
def _scatter_pattern(mesh, width, nodes_key):
    """The ``ScatterPattern`` of the free-dof operator.

    ``width`` is 4 (one dof per node) or 8 (component-grouped vector dofs)
    and ``nodes_key`` the bytes of the int64 array of the clamped nodes,
    which every caller in the package passes sorted and unique.  The free
    set and its checks run once per key; ``free``, ``indptr`` and
    ``indices`` are read-only, as the operators of one key share them.
    """
    nodes = np.frombuffer(nodes_key, dtype=np.int64)
    outside = nodes[(nodes < 0) | (nodes >= mesh.n_nodes)]
    if outside.size:
        raise ValueError(f"Dirichlet node {outside[0]} is outside the mesh of {mesh.n_nodes} nodes")
    n_full = mesh.n_nodes * width // 4
    free = np.setdiff1d(np.arange(n_full), nodes if width == 4 else np.concatenate([nodes, nodes + mesh.n_nodes]))
    if free.size == 0:
        raise ValueError("empty free-dof set")
    n = free.size
    dofs = mesh.element_nodes() if width == 4 else mesh.element_dofs()
    index = np.full(n_full, -1, dtype=np.int64)
    index[free] = np.arange(n)
    r = index[dofs]
    key = r[:, :, None] * n + r[:, None, :]
    constrained = r < 0
    key[constrained[:, :, None] | constrained[:, None, :]] = n * n  # sorts last, then cut off
    order = np.argsort(key, axis=None, kind="stable")  # element order within each entry
    key = key.ravel()[order]
    order = order[: np.searchsorted(key, n * n)]
    first = np.flatnonzero(np.diff(key[: order.size], prepend=-1))
    uniq = key[first]
    indptr, indices = np.searchsorted(uniq, np.arange(n + 1) * n).astype(np.int32), (uniq % n).astype(np.int32)
    for shared in (free, indptr, indices):
        shared.flags.writeable = False
    element, term = np.divmod(order, width * width)
    terms = (term.astype(np.uint8), element.astype(np.int32), np.append(first, order.size).astype(np.int32))
    return ScatterPattern(indptr, indices, free, n_full, sp.csr_matrix(terms, shape=(uniq.size, mesh.n_elements)))


@lru_cache(maxsize=64)
def _scatter_matrix(pattern, element_key):
    """S of ``pattern`` for the element matrix of float64 bytes ``element_key``,
    less its zero terms, which leave a sum begun at +0.0 bitwise unchanged."""
    T = pattern.terms
    return _nonzero_csr(np.frombuffer(element_key)[T.data], T.indices, T.indptr, T.shape)


def _nonzero_csr(data, indices, indptr, shape):
    """The CSR matrix of these arrays less its zeros, which go into fresh
    arrays, since the given ones may be shared."""
    keep = data != 0.0
    if not keep.all():
        data, indices, indptr = data[keep], indices[keep], np.concatenate([[0], np.cumsum(keep)])[indptr]
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _assemble(mesh, element, weights, dirichlet_nodes):
    """The operator sum of ``weights[e] * element`` over the elements e on the
    dofs of the nodes not in ``dirichlet_nodes``: ``element`` is 4 x 4 for
    node dofs, 8 x 8 for vector dofs (a clamped node loses both)."""
    width = element.shape[0]
    nodes_key = np.asarray(dirichlet_nodes, dtype=np.int64).ravel().tobytes()
    with _PATTERN_LOCK:
        pattern = _scatter_pattern(mesh, width, nodes_key)
        S = _scatter_matrix(pattern, element.tobytes())
    data = S @ weights
    A = _nonzero_csr(data, pattern.indices, pattern.indptr, (pattern.free.size,) * 2)
    return SymmetricSparseOperator(A, pattern.free, pattern.n_full, pattern, data)


def assemble_elasticity(mesh, coeff, dirichlet_nodes):
    """Assemble the plane-stress operator on free dofs.

    ``dirichlet_nodes`` are clamped in both components.  Dof ordering groups
    components: all x-displacements first, so the operator has the block form
    [[K_xx, K_xy], [K_xy^T, K_yy]].
    """
    if coeff.values.size != mesh.n_elements:
        raise ValueError("coefficient field does not match mesh")
    return _assemble(mesh, unit_elasticity_element(float(coeff.nu)), coeff.values, dirichlet_nodes)


def assemble_diffusion(mesh, kappa, dirichlet_nodes):
    """Scalar Q1 Laplacian weighted by the per-element conductivity."""
    kappa = _finite_positive(kappa, "conductivity")
    if kappa.size != mesh.n_elements:
        raise ValueError("conductivity field does not match mesh")
    return _assemble(mesh, laplace_element_scalar(), kappa, dirichlet_nodes)


def assemble_weighted_mass(mesh, weight, kind, dirichlet_nodes=()):
    """Mass matrix with element integrals weighted by the coefficient.

    kind='diffusion' gives the scalar matrix S; kind='elasticity' the
    two-component version block_diag(S, S) on the component-grouped free dofs
    (the components decouple and share the weight), scattered from the 8x8
    element matrices block_diag(M_e, M_e).  Each kind is assembled on the
    pattern of the stiffness operator of its width, the x-y couplings of the
    vector mass kept there as exact zeros, so a patch's K and M share one
    ``ScatterPattern``.
    """
    if kind not in ("diffusion", "elasticity"):
        raise ValueError(f"unknown mass kind {kind!r}")
    weight = _finite_positive(weight, "weight")
    if weight.size != mesh.n_elements:
        raise ValueError("weight field does not match mesh")
    Me = mass_element_scalar(mesh.h)
    if kind == "elasticity":
        Me = np.kron(np.eye(2), Me)  # block_diag(M_e, M_e): x and y do not couple
    return _assemble(mesh, Me, weight, dirichlet_nodes)


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
        if not 0 <= radius < np.inf:  # nan too
            raise ValueError(f"filter radius must be finite and nonnegative, got {radius}")
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

