"""Structured fine mesh and coarse partition.

The unit square is meshed with nx*ny square Q1 elements.  Fine nodes are
numbered lexicographically, node (i, j) -> j*(nx+1) + i, and elements
e = j*nx + i.  Displacement dofs are grouped by component: dof n is the
x-displacement of node n, dof n + n_nodes its y-displacement.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FineMesh:
    nx: int
    ny: int
    h: float

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elements(self):
        return self.nx * self.ny

    @property
    def n_dofs(self):
        """Raw displacement dof count before Dirichlet constraints."""
        return 2 * self.n_nodes

    def node_coords(self):
        """(n_nodes, 2) lattice coordinates."""
        x = np.arange(self.nx + 1) * self.h
        y = np.arange(self.ny + 1) * self.h
        X, Y = np.meshgrid(x, y)
        return np.column_stack([X.ravel(), Y.ravel()])

    def element_nodes(self):
        """(n_elements, 4) corner nodes, counterclockwise from lower-left."""
        n00 = _lattice_nodes(self, 0, self.nx, 0, self.ny)
        return np.column_stack([n00, n00 + 1, n00 + self.nx + 2, n00 + self.nx + 1])

    def element_dofs(self):
        """(n_elements, 8) dofs, component-grouped: 4 x-dofs then 4 y-dofs."""
        nodes = self.element_nodes()
        return np.hstack([nodes, nodes + self.n_nodes])

    def element_centroids(self):
        i = np.tile(np.arange(self.nx), self.ny)
        j = np.repeat(np.arange(self.ny), self.nx)
        return np.column_stack([(i + 0.5) * self.h, (j + 0.5) * self.h])

    def boundary_nodes(self):
        """Node indices on the domain boundary."""
        on = np.ones(self.n_nodes, dtype=bool)
        on[_lattice_nodes(self, 1, self.nx, 1, self.ny)] = False
        return np.flatnonzero(on)


def _lattice_nodes(mesh, i0, i1, j0, j1):
    """Ids of the nodes (i, j) with i0 <= i < i1 and j0 <= j < j1, lexicographic."""
    return (np.arange(j0, j1)[:, None] * (mesh.nx + 1) + np.arange(i0, i1)).ravel()


def build_fine_mesh(nx, ny):
    """nx x ny elements of side h = 1 / nx."""
    if nx < 1 or ny < 1:
        raise ValueError(f"element counts must be positive, got ({nx}, {ny})")
    return FineMesh(int(nx), int(ny), 1.0 / nx)


@dataclass(frozen=True)
class Patch:
    """Axis-aligned rectangle of fine elements [ex0, ex1) x [ey0, ey1)."""

    ex0: int
    ex1: int
    ey0: int
    ey1: int

    @property
    def shape(self):
        return (self.ex1 - self.ex0, self.ey1 - self.ey0)


class CoarsePartition:
    """Non-overlapping coarse blocks plus overlapping coarse-node neighborhoods.

    The overlapping subdomains coincide with the neighborhoods: each coarse
    node y_j owns the union of the coarse blocks touching it.  By default
    only interior coarse nodes generate neighborhoods (all experiments clamp
    the whole boundary); ``include_boundary=True`` also keeps the boundary
    coarse nodes, which is the right choice for fully unconstrained problems.

    Per neighborhood j the partition holds ``node_ids[j]``, the nodes of the
    closed patch, ``interior_node_ids[j]``, those strictly inside it, both
    lexicographic, and ``chi[j]``, the partition-of-unity function chi_j on
    ``node_ids[j]``: the bilinear coarse hat of node y_j, computed from
    integer lattice offsets, so exactly 1 at y_j and exactly 0 on the edge of
    its patch, divided by the pointwise sum of the hats.  So sum_j chi_j = 1
    on every node where that sum is positive (all nodes off the domain
    boundary), and the hats of dropped boundary coarse nodes are folded into
    their interior neighbors.  All of it follows from (mesh, Nx, Ny,
    include_boundary), and two partitions are equal, and hash equal, when
    those are, so a cache keyed by a partition serves every equal one.
    """

    def __init__(self, mesh, Nx, Ny, include_boundary=False):
        if Nx < 1 or Ny < 1:
            raise ValueError(f"coarse element counts must be positive, got ({Nx}, {Ny})")
        if mesh.nx % Nx != 0 or mesh.ny % Ny != 0:
            raise ValueError(
                f"coarse mesh {Nx}x{Ny} not nested in fine mesh {mesh.nx}x{mesh.ny}"
            )
        self.mesh = mesh
        self.Nx = int(Nx)
        self.Ny = int(Ny)
        self.mex = mesh.nx // Nx
        self.mey = mesh.ny // Ny
        self.include_boundary = bool(include_boundary)
        self._key = (mesh, self.Nx, self.Ny, self.include_boundary)

        if include_boundary:
            self.coarse_nodes = [(I, J) for J in range(Ny + 1) for I in range(Nx + 1)]
        else:
            self.coarse_nodes = [(I, J) for J in range(1, Ny) for I in range(1, Nx)]
        self.neighborhoods, self.node_ids, self.interior_node_ids, hats = [], [], [], []
        for I, J in self.coarse_nodes:
            p = Patch(max(0, (I - 1) * self.mex), min(mesh.nx, (I + 1) * self.mex),
                      max(0, (J - 1) * self.mey), min(mesh.ny, (J + 1) * self.mey))
            self.neighborhoods.append(p)
            self.node_ids.append(_lattice_nodes(mesh, p.ex0, p.ex1 + 1, p.ey0, p.ey1 + 1))
            self.interior_node_ids.append(_lattice_nodes(mesh, p.ex0 + 1, p.ex1, p.ey0 + 1, p.ey1))
            hx = 1.0 - np.abs(np.arange(p.ex0, p.ex1 + 1) - I * self.mex) / self.mex
            hy = 1.0 - np.abs(np.arange(p.ey0, p.ey1 + 1) - J * self.mey) / self.mey
            hats.append(np.outer(hy, hx).ravel())
        # the hats summed in center order, from empty arrays when there is no neighborhood
        total = np.bincount(np.concatenate([np.zeros(0, dtype=np.intp), *self.node_ids]),
                            np.concatenate([np.zeros(0), *hats]), minlength=mesh.n_nodes)
        safe = np.where(total > 0.0, total, 1.0)
        self.chi = [hat / safe[ids] for ids, hat in zip(self.node_ids, hats)]

    def __eq__(self, other):
        return isinstance(other, CoarsePartition) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def n_neighborhoods(self):
        return len(self.coarse_nodes)

    def coarse_node_coords(self, k):
        I, J = self.coarse_nodes[k]
        return (I * self.mex * self.mesh.h, J * self.mey * self.mesh.h)
