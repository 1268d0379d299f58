"""Scaling limit of the critical cylinder propagator.

The continuum propagator on the cylinder of sides (l1, l2) is an
alternating double image sum of the infinite-plane scaling profile.  The
profile is the real or imaginary part of 1/w in the rescaled complex
displacement w, so the alternating sum over windings around the ring
closes to a cosecant (Mittag-Leffler), and the sum over reflections
across the two boundaries that remains converges geometrically; it is
cut where a rigorous tail bound meets the requested tolerance.

Coordinates follow the lattice convention: the first axis is periodic
with period l1, the second runs across the open boundary at heights 0
and l2.  Entries vanish on the boundary rows in the same species pattern
as the lattice propagator: the first row at z2 = 0, the second at
z2 = l2, and likewise in the primed argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import CylinderGeometry

IMAGE_TOL = 1e-10


@dataclass(frozen=True)
class ContinuumCylinder:
    """Continuum cylinder of circumference l1 and height l2."""

    ell1: float
    ell2: float

    def __post_init__(self):
        if not (self.ell1 > 0 and self.ell2 > 0):
            raise ValueError("cylinder sides must be positive")

    def lattice_sizes(self, a):
        """Induced lattice sizes at mesh a: L = 2 floor(l1/(2a)), M = floor(l2/a)."""
        if not 0 < a < math.inf:
            raise ValueError(f"mesh must be positive and finite, got a={a}")
        n1, n2 = self.ell1 / (2.0 * a), self.ell2 / a
        if max(n1, n2) == math.inf:
            raise ValueError(f"mesh a={a} too fine: l/a overflows a double")
        L, M = 2 * math.floor(n1), math.floor(n2)
        if L < 4 or M < 4:
            raise ValueError(f"mesh a={a} too coarse: induced sizes L={L}, M={M}")
        return L, M

    def coincident(self, z, zp):
        """Whether z meets zp, or a mirror image of zp across a boundary,
        up to windings around the ring: where `cylinder_scal_block` is
        singular."""
        return math.remainder(z[0] - zp[0], self.ell1) == 0.0 and any(
            math.remainder(v, 2.0 * self.ell2) == 0.0 for v in (z[1] - zp[1], z[1] + zp[1]))

    def lattice_geometry(self, a):
        return CylinderGeometry(*self.lattice_sizes(a))

    def lattice_site(self, a, z):
        """floor(a^-1 z), wrapped into ring coordinates 1..L.

        The second coordinate must land in the interior rows 1..M.
        """
        L, M = self.lattice_sizes(a)
        z1 = int(math.floor(z[0] / a)) % L
        if z1 == 0:
            z1 = L
        z2 = int(math.floor(z[1] / a))
        if not 1 <= z2 <= M:
            raise ValueError(f"continuum point {z} maps to boundary row {z2} at a={a}")
        return z1, z2


def _csc(z):
    """Cosecant in the overflow-free form -2i s q / (1 - q^2), q = e^{i s z}.

    s = sign(Im z) keeps |q| <= 1, so large |Im z| underflows to 0
    instead of producing 0 * inf.
    """
    s = np.where(z.imag < 0.0, -1.0, 1.0)
    q = np.exp(1j * s * z)
    return -2j * s * q / (1.0 - q * q)


def cylinder_scal_block(cylinder, couplings, z, zp, tol=IMAGE_TOL):
    """Continuum cylinder propagator block via the alternating image sum.

    The images of the plane profile sit at displacements (x + n1 l1,
    v0 + 2 n2 l2) with sign (-1)^(n1 + n2), for the direct separation
    v0 = z2 - z2' and the reflected one v0 = z2 + z2'.  In the rescaled
    complex displacement w = x/(1-t2) + i v0/(1-t1) the profile is
    (g1, g2) = pref (Re 1/w, -Im 1/w), and the alternating sum over ring
    windings is a cosecant (Mittag-Leffler, DLMF 4.22.5):

        sum_n1 (-1)^n1 / (w + n1 lam) = (pi/lam) csc(pi w / lam),

    lam = l1/(1-t2).  What remains is the sum over reflections,

        S(v0) = sum_n2 (-1)^n2 (pi/lam) csc(pi (w + i n2 mu) / lam),

    mu = 2 l2/(1-t1), whose terms decay like exp(-pi |Im w + n2 mu| / lam).

    Terms with pi |Im w + n2 mu| / lam > D are dropped.  Since
    |csc z| <= 1/sinh|Im z| and the dropped terms on each side of the
    real axis are spaced by pi mu / lam, the dropped part of S is at
    most (2 pi/lam) / ((1 - e^{-pi mu/lam}) sinh D); D is chosen so that
    twice this, times |pref|, equals `tol`.  So `tol` bounds the sup norm
    of the truncation error of the block.  The cutoff depends on |Im|
    only, which keeps the swap and boundary identities exact term by
    term.

    Raises:
        ValueError: tol is not positive.
        ZeroDivisionError: coincident or mirror-coincident points, up to
            windings around the ring (singular direct term).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if cylinder.coincident(z, zp):
        raise ZeroDivisionError("coincident (or mirror-coincident) points")
    l1, l2 = cylinder.ell1, cylinder.ell2
    t1, t2 = couplings.t1, couplings.t2
    u0 = z[0] - zp[0]
    v0 = np.array([z[1] - zp[1], z[1] + zp[1]])

    lam = l1 / (1.0 - t2)
    mu = 2.0 * l2 / (1.0 - t1)
    pref = -1.0 / (2.0 * math.pi * t2 * (1.0 - t2))
    # expm1 keeps 1 - e^{-pi mu/lam} exact when the exponential underflows
    ratio_gap = -math.expm1(-math.pi * mu / lam)
    cut = math.asinh(4.0 * math.pi * abs(pref) / (lam * ratio_gap * tol))
    y_cut = cut * lam / math.pi
    n_max = math.ceil((y_cut + float(np.max(np.abs(v0))) / (1.0 - t1)) / mu)
    n2 = np.arange(-n_max, n_max + 1)
    y = v0[:, None] / (1.0 - t1) + mu * n2
    terms = (-1.0) ** n2 * _csc(math.pi * (u0 / (1.0 - t2) + 1j * y) / lam)
    kept = np.where(np.abs(y) <= y_cut, terms, 0.0)
    s_m, s_p = (math.pi / lam) * np.sum(kept, axis=1)

    # the lower-right entry takes the reflected images one step down in
    # n2, and that shift flips the sign of the alternating series
    a_m, b_m = pref * s_m.real, -pref * s_m.imag
    a_p, b_p = pref * s_p.real, -pref * s_p.imag
    return np.array([[a_m - a_p, b_m + b_p], [b_m - b_p, -a_p - a_m]])


def scaling_remainder_records(cylinder, couplings, pairs, meshes):
    """Lattice-to-continuum residual sweep.

    For each continuum pair and mesh a, evaluates the rescaled lattice
    propagator a^-1 g_c(floor(z/a), floor(z'/a)) on the induced lattice,
    subtracts the continuum block, and fits the log-log slope of the
    residual norm against a per pair.

    Returns:
        list of dicts with keys pair_id, a, L, M, residual_norm,
        fitted_slope (slope repeated on each record of a pair).
    """
    from .spectral import critical_propagator

    records = []
    for pid, (z, zp) in enumerate(pairs):
        target = cylinder_scal_block(cylinder, couplings, z, zp, IMAGE_TOL)
        rows = []
        for a in meshes:
            geo = cylinder.lattice_geometry(a)
            lz = cylinder.lattice_site(a, z)
            lzp = cylinder.lattice_site(a, zp)
            lat = critical_propagator(geo, couplings, lz, lzp) / a
            resid = float(np.max(np.abs(lat - target)))
            rows.append((a, geo.L, geo.M, resid))
        logs = np.log([r[3] for r in rows])
        la = np.log([r[0] for r in rows])
        slope = float(np.polyfit(la, logs, 1)[0])
        for a, L, M, resid in rows:
            records.append(
                dict(pair_id=pid, a=a, L=L, M=M, residual_norm=resid,
                     fitted_slope=slope)
            )
    return records
