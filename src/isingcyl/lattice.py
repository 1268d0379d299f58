"""Cylinder geometry and distance functions.

The lattice is a discrete cylinder: L columns (horizontal direction,
periodic) by M rows (vertical direction, open at top and bottom).  Sites
are 1-based, z = (z1, z2) with z1 in {1..L} and z2 in {1..M}.  Propagator
boundary identities additionally refer to the extended rows z2 = 0 and
z2 = M + 1, where Dirichlet-like cancellations hold.

Horizontal displacements live on a ring of circumference L.  `per_range`
folds a displacement into the symmetric window (-L/2, L/2], and `ring_sign`
is +1/0/-1 according to whether the displacement is shorter than, equal to,
or longer than half the circumference; the sign multiplies the bulk part of
the propagator so that the bulk/edge split is continuous across the
antipodal line.

`edge_distance` measures how far a pair of points is from "feeling" the
boundary: it is the minimum over (i) reflecting the pair off the top or
bottom row and (ii) winding the long way around the cylinder.

`steiner_length` is the exact rectilinear Steiner minimal tree length of
up to four distinct points, in closed form (Hwang 1976): the bounding-box
half-perimeter, plus for four points the shorter middle gap when the
x- and y-median splits pair them differently.  It takes one point set or
a batch of them, and is the decay exponent delta in weighted kernel
norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def per_range(z1, L):
    """Fold a horizontal displacement into the window (-L/2, L/2].

    The antipodal displacement L/2 maps to +L/2, not -L/2; this matches
    the convention used by the bulk/edge decomposition, where the sign
    function vanishes there anyway.

    Args:
        z1: integer displacement (any integer, not necessarily reduced).
        L: even circumference.

    Returns:
        Integer congruent to z1 mod L lying in (-L/2, L/2].
    """
    if L % 2 != 0:
        raise ValueError(f"circumference must be even, got L={L}")
    return (z1 + L // 2 - 1) % L - L // 2 + 1


def ring_sign(z1, L):
    """Sign weight of the bulk propagator: +1, 0, -1 for |z1| <, =, > L/2.

    Evaluated on the raw (unfolded) displacement of two columns in
    {1..L}, so |z1| <= L - 1; elementwise on an integer array.
    """
    return np.sign(L - 2 * np.abs(z1))


def norm1_cyl(z, zp, L):
    """Cylinder l1 distance: folded horizontal part plus vertical part."""
    return abs(per_range(z[0] - zp[0], L)) + abs(z[1] - zp[1])


def edge_distance(z, zp, L, M):
    """Distance-to-boundary metric entering edge-part decay bounds.

    Minimum of two routes: connect z and z' through the nearest horizontal
    boundary (top or bottom, whichever pair of reflections is cheaper), or
    connect them the long way around the cylinder.

    Args:
        z, zp: sites with z2 in the extended range {0..M+1}.
        L, M: cylinder dimensions.
    """
    dx = abs(per_range(z[0] - zp[0], L))
    via_boundary = dx + min(z[1] + zp[1], 2 * (M + 1) - z[1] - zp[1])
    around = L - dx + abs(z[1] - zp[1])
    return min(via_boundary, around)


# the most distinct points `steiner_length` has a closed form for
STEINER_MAX_POINTS = 4


def steiner_length(points):
    """Exact rectilinear Steiner minimal tree length of point sets with at
    most 4 distinct points, for one set or a batch of them.

    On the distinct points: one point has length 0; two or three points
    have the bounding-box half-perimeter (three meet at the
    coordinate-wise median).  Four points need the half-perimeter plus
    min(x3 - x2, y3 - y2) (sorted coordinates) when the median splits
    in x and in y pair them differently, and nothing more otherwise; a
    tie at either median makes that extra term 0.  This is the degree-4
    case of Hwang, SIAM J. Appl. Math. 30, 104 (1976).  Each set is
    deduplicated by sorting packed (x, y) keys.

    Args:
        points: integer pairs, shape (k, 2) for one set or (..., k, 2)
            for a batch of sets, k >= 2 (before deduplication).

    Returns:
        Integer tree length, or an integer array of shape (...).
    """
    pts = np.asarray(points)
    if pts.ndim < 2 or pts.shape[-1] != 2 or pts.shape[-2] < 2:
        raise ValueError(f"steiner_length needs sets of 2 or more points, got shape {pts.shape}")
    # coordinate-major layout (2, k, sets): per-set work runs along contiguous rows
    xy = pts.reshape(-1, *pts.shape[-2:]).transpose(2, 1, 0).astype(np.int64, order="C")
    low = xy.min(axis=1)
    span = xy.max(axis=1) - low
    length = span[0] + span[1]
    if pts.shape[-2] >= 4 and length.size:
        # per set, (x, y) keys off the lower-left corner, sorted by an odd-even network
        width = int(span[1].max()) + 1
        k = list((xy[0] - low[0]) * width + xy[1] - low[1])
        for r in range(len(k)):
            for i in range(r % 2, len(k) - 1, 2):
                k[i], k[i + 1] = np.minimum(k[i], k[i + 1]), np.maximum(k[i], k[i + 1])
        keys = np.array(k)
        new = np.concatenate([np.ones((1, keys.shape[1]), bool), keys[1:] != keys[:-1]])
        distinct = new.sum(axis=0)
        if distinct.max() > STEINER_MAX_POINTS:
            raise ValueError(f"steiner_length supports at most {STEINER_MAX_POINTS} distinct "
                             f"points, got {distinct.max()}")
        four = distinct == 4
        # the 4 distinct terminals in (x, y) order, so xs comes sorted
        xs, ys = np.divmod(keys[:, four].T[new[:, four].T].reshape(-1, 4).T.copy(), width)
        yx = ys * (int(span[0].max()) + 1) + xs
        # the two lowest in (y, x) order pair up differently from the x split
        split = (yx[:2].max(0) > yx[2:].min(0)) & (yx[2:].max(0) > yx[:2].min(0))
        # y3 - y2 in sorted order: the middle comparator of a 4-input sorting network
        middle = np.abs(np.maximum(ys[:2].min(0), ys[2:].min(0))
                        - np.minimum(ys[:2].max(0), ys[2:].max(0)))
        length[four] += split * np.minimum(xs[2] - xs[1], middle)
    return int(length[0]) if pts.ndim == 2 else length.reshape(pts.shape[:-2])


@dataclass(frozen=True)
class CylinderGeometry:
    """An L x M cylinder, periodic horizontally, open vertically.

    Attributes:
        L: even number of columns, L >= 2.
        M: number of rows, M >= 1.
    """

    L: int
    M: int

    def __post_init__(self):
        if self.L < 2 or self.L % 2 != 0:
            raise ValueError(f"L must be even and >= 2, got {self.L}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")

    @property
    def n_sites(self):
        return self.L * self.M

    def sites(self):
        """Iterate sites row-major: (1,1), (2,1), ..., (L,M)."""
        for z2 in range(1, self.M + 1):
            for z1 in range(1, self.L + 1):
                yield (z1, z2)

    def contains(self, z):
        return 1 <= z[0] <= self.L and 1 <= z[1] <= self.M

    def site_arrays(self, z, zp, extended=False):
        """Two site arguments (one site or a batch) as (P, 2) integer arrays,
        checked to lie on the lattice, or also on its extended rows."""
        z, zp = (np.asarray(s, dtype=int).reshape(-1, 2) for s in (z, zp))
        if z.shape != zp.shape:
            raise ValueError(f"{len(z)} first sites against {len(zp)} second sites")
        pad = int(extended)
        lo, hi = np.array([1, 1 - pad]), np.array([self.L, self.M + pad])
        bad = ((z < lo) | (z > hi) | (zp < lo) | (zp > hi)).any(axis=1)
        if bad.any():
            p = int(np.argmax(bad))
            raise ValueError(f"sites {tuple(z[p].tolist())}, {tuple(zp[p].tolist())} outside "
                             f"the {'extended ' if extended else ''}lattice")
        return z, zp

    def norm1(self, z, zp):
        return norm1_cyl(z, zp, self.L)

    def edge_distance(self, z, zp):
        return edge_distance(z, zp, self.L, self.M)
