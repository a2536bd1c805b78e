"""Synthetic high-contrast coefficient layouts and field image export.

The benchmark layout is frozen: rectangles are given in unit-square fractions
and rasterized by element-centroid membership, so a layout tag plus mesh size
determines the field exactly.  Channels deliberately cross coarse-block
boundaries (the hard case); inclusions sit strictly inside single blocks of
the reference 10x10 coarse grid.
"""

import numpy as np

from .assembly import CoefficientField

# (x0, x1, y0, y1) in unit-square fractions
_CHANNELS = (
    (0.04, 0.96, 0.28, 0.32),
    (0.64, 0.68, 0.04, 0.96),
)
_INCLUSIONS = (
    (0.13, 0.17, 0.73, 0.77),
    (0.33, 0.37, 0.53, 0.57),
    (0.83, 0.87, 0.13, 0.17),
    (0.53, 0.57, 0.83, 0.87),
    (0.13, 0.17, 0.13, 0.17),
)

LAYOUTS = ("channels-and-inclusions", "inclusions-only", "homogeneous")


def _solid_mask(mesh, rects):
    c = mesh.element_centroids()
    x = c[:, 0] / (mesh.nx * mesh.h)
    y = c[:, 1] / (mesh.ny * mesh.h)
    mask = np.zeros(mesh.n_elements, dtype=bool)
    for x0, x1, y0, y1 in rects:
        mask |= (x >= x0) & (x < x1) & (y >= y0) & (y < y1)
    return mask


def solid_mask(mesh, layout):
    if layout == "homogeneous":
        return np.ones(mesh.n_elements, dtype=bool)
    if layout == "inclusions-only":
        return _solid_mask(mesh, _INCLUSIONS)
    if layout == "channels-and-inclusions":
        return _solid_mask(mesh, _CHANNELS + _INCLUSIONS)
    raise ValueError(f"unknown layout {layout!r}; choose from {LAYOUTS}")


def check_contrast(eta):
    """Reject a contrast that is not a finite number >= 1 (NaN included)."""
    if not (1 <= eta < np.inf):
        raise ValueError(f"contrast must be finite and >= 1, got {eta:g}")


def generate_coefficient(layout, mesh, eta, nu=0.3):
    """Deterministic coefficient field: 1 on solid, 1/eta background."""
    check_contrast(eta)
    return CoefficientField(np.where(solid_mask(mesh, layout), 1.0, 1.0 / eta), nu)


def snap_to_solid(mesh, solid, x, y):
    """Index of the element of the boolean mask ``solid`` whose centroid is
    nearest (x, y); raises when the mask has no element."""
    c = mesh.element_centroids()
    candidates = np.nonzero(solid)[0]
    if candidates.size == 0:
        raise ValueError(f"no solid element on the {mesh.nx}x{mesh.ny} mesh to take the load at ({x:g}, {y:g})")
    d2 = (c[candidates, 0] - x) ** 2 + (c[candidates, 1] - y) ** 2
    return int(candidates[np.argmin(d2)])


def export_field_image(field_values, mesh, path):
    """Write the per-element field as an 8-bit binary PGM, one pixel per element.

    Linear grayscale from min to max; constant fields map to full white.
    Row 0 of the mesh is the bottom of the domain and is written last so the
    image reads with y pointing up.
    """
    vals = np.asarray(field_values, dtype=float).reshape(mesh.ny, mesh.nx)
    lo, hi = vals.min(), vals.max()
    if hi > lo:
        pix = np.round(255.0 * (vals - lo) / (hi - lo)).astype(np.uint8)
    else:
        pix = np.full(vals.shape, 255, dtype=np.uint8)
    pix = pix[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mesh.nx} {mesh.ny}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def read_pgm(path):
    """Read a binary PGM written by export_field_image; returns (ny, nx) uint8."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ValueError("not a binary PGM file")
    w, h = (int(t) for t in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    return np.frombuffer(parts[3][: w * h], dtype=np.uint8).reshape(h, w)
