"""Structured fine mesh, coarse partition, neighborhoods and partition of unity.

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
        i = np.tile(np.arange(self.nx), self.ny)
        j = np.repeat(np.arange(self.ny), self.nx)
        n00 = j * (self.nx + 1) + i
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
        i = np.tile(np.arange(self.nx + 1), self.ny + 1)
        j = np.repeat(np.arange(self.ny + 1), self.nx + 1)
        on = (i == 0) | (i == self.nx) | (j == 0) | (j == self.ny)
        return np.nonzero(on)[0]


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

    def node_ids(self, mesh):
        """Global ids of all nodes in the closed patch, lexicographic."""
        i = np.tile(np.arange(self.ex0, self.ex1 + 1), self.ey1 - self.ey0 + 1)
        j = np.repeat(np.arange(self.ey0, self.ey1 + 1), self.ex1 - self.ex0 + 1)
        return j * (mesh.nx + 1) + i

    def interior_node_ids(self, mesh):
        """Nodes strictly inside the patch rectangle."""
        i = np.tile(np.arange(self.ex0 + 1, self.ex1), self.ey1 - self.ey0 - 1)
        j = np.repeat(np.arange(self.ey0 + 1, self.ey1), self.ex1 - self.ex0 - 1)
        return j * (mesh.nx + 1) + i


class CoarsePartition:
    """Non-overlapping coarse blocks plus overlapping coarse-node neighborhoods.

    The overlapping subdomains coincide with the neighborhoods: each coarse
    node y_j owns the union of the coarse blocks touching it.  By default
    only interior coarse nodes generate neighborhoods (all experiments clamp
    the whole boundary); ``include_boundary=True`` also keeps the boundary
    coarse nodes, which is the right choice for fully unconstrained problems.
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

        if include_boundary:
            self.coarse_nodes = [(I, J) for J in range(Ny + 1) for I in range(Nx + 1)]
        else:
            self.coarse_nodes = [(I, J) for J in range(1, Ny) for I in range(1, Nx)]
        self.neighborhoods = [
            Patch(
                max(0, (I - 1) * self.mex),
                min(mesh.nx, (I + 1) * self.mex),
                max(0, (J - 1) * self.mey),
                min(mesh.ny, (J + 1) * self.mey),
            )
            for (I, J) in self.coarse_nodes
        ]

    @property
    def n_neighborhoods(self):
        return len(self.coarse_nodes)

    def coarse_node_coords(self, k):
        I, J = self.coarse_nodes[k]
        return (I * self.mex * self.mesh.h, J * self.mey * self.mesh.h)


class PartitionOfUnity:
    """Fine-nodal hat functions chi_j, one per kept coarse node.

    Each chi_j is the bilinear coarse hat of node y_j sampled at fine nodes,
    computed from integer lattice offsets, so it is exactly 1 at y_j and
    exactly 0 on the edge of its patch.  When boundary coarse nodes are
    dropped, the interior hats are renormalized by their pointwise sum so that
    sum_j chi_j = 1 on every fine node where the sum is positive (all nodes
    off the domain boundary); the hats of dropped boundary nodes are thereby
    folded into their interior neighbors.
    """

    def __init__(self, part):
        mesh = part.mesh
        self.node_ids = [patch.node_ids(mesh) for patch in part.neighborhoods]
        raw = []
        for (I, J), ids in zip(part.coarse_nodes, self.node_ids):
            j, i = np.divmod(ids, mesh.nx + 1)
            raw.append((1.0 - np.abs(i - I * part.mex) / part.mex) * (1.0 - np.abs(j - J * part.mey) / part.mey))

        total = np.zeros(mesh.n_nodes)
        for ids, vals in zip(self.node_ids, raw):
            np.add.at(total, ids, vals)
        safe = np.where(total > 0.0, total, 1.0)
        self.values = [vals / safe[ids] for ids, vals in zip(self.node_ids, raw)]
