"""Energy-bond observables: lattice moments, cumulants, and their scaling limit.

A bond energy is the product of the two spins across a lattice edge.  In
the fermionic representation it becomes a quadratic monomial, so all of
its moments follow from the Wick rule as Pfaffians of two-point minors,
and truncated correlations (cumulants) follow from the moments by Moebius
inversion over set partitions.  A brute-force Gibbs enumeration on small
cylinders serves as the independent oracle.

The continuum limit of the truncated correlations is a Pfaffian in the
continuum cylinder propagator with direction-dependent scalar prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import Species, propagator_from_A
from .scaling import IMAGE_TOL, cylinder_scal_block
from .skew import pfaffian_combinatorial, pfaffian_sign_logabs

_BRUTE_FORCE_SITE_CAP = 24
_BRUTE_FORCE_CHUNK = 1 << 18


@dataclass(frozen=True)
class EnergyBond:
    """Lattice edge carrying the energy observable sigma_z sigma_{z+e_j}.

    direction 1 is horizontal (wraps around the ring at z1 = L),
    direction 2 is vertical.
    """

    z1: int
    z2: int
    direction: int

    def __post_init__(self):
        if self.direction not in (1, 2):
            raise ValueError("bond direction must be 1 or 2")

    @property
    def site(self):
        return (self.z1, self.z2)

    def other_site(self, geometry):
        if self.direction == 1:
            return (1 if self.z1 == geometry.L else self.z1 + 1, self.z2)
        return (self.z1, self.z2 + 1)

    def fields(self, geometry):
        """Grassmann field pair representing the bond, plus the seam sign.

        A horizontal bond is Hbar at the left endpoint times H at the
        right one; the antiperiodic field convention flips the sign of
        the pair crossing the seam at z1 = L.  A vertical bond is Vbar
        below times V above.
        """
        z = self.site
        if not geometry.contains(z):
            raise ValueError(f"bond site {z} outside the lattice")
        other = self.other_site(geometry)
        if self.direction == 1:
            sign = -1.0 if self.z1 == geometry.L else 1.0
            return (z, Species.HBAR), (other, Species.H), sign
        if not geometry.contains(other):
            raise ValueError(f"vertical bond at {z} leaves the lattice")
        return (z, Species.VBAR), (other, Species.V), 1.0

    def tanh_coupling(self, couplings):
        return couplings.t1 if self.direction == 1 else couplings.t2


def set_partitions(items):
    """All partitions of a sequence into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]


def cumulant_from_moments(moment, items):
    """Moebius inversion: cumulant of the items given a joint-moment callable.

    Each subset's moment is computed once: `set_partitions` keeps every
    block in input order, so tuple(block) is a canonical key.
    """
    moments = {}
    total = 0.0
    for part in set_partitions(items):
        coef = (-1.0) ** (len(part) - 1) * math.factorial(len(part) - 1)
        prod = 1.0
        for block in part:
            key = tuple(block)
            if key not in moments:
                moments[key] = moment(block)
            prod *= moments[key]
        total += coef * prod
    return total


def _pfaffian_value(mat):
    if mat.shape[0] <= 8:
        return pfaffian_combinatorial(mat)
    sign, logabs = pfaffian_sign_logabs(mat)
    return float(sign) * math.exp(logabs)


def dense_correlator(geometry, couplings):
    """Two-point callable backed by the dense inverse (small lattices)."""
    cache = propagator_from_A(geometry, couplings)

    def corr(field_a, field_b):
        (z, sa), (zp, sb) = field_a, field_b
        return cache.two_point(z, sa, zp, sb)

    return corr


def spectral_vertical_correlator(geometry, couplings):
    """Two-point callable from the critical mode sum.

    Covers the vertical-bond species only (Vbar, V); the horizontal
    species would need the massive Schur complement on top.  Works at
    any lattice size the mode sum supports, unlike the dense route.
    """
    from .spectral import critical_propagator

    row = {Species.VBAR: 0, Species.V: 1}

    def corr(field_a, field_b):
        (z, sa), (zp, sb) = field_a, field_b
        if sa not in row or sb not in row:
            raise ValueError("spectral correlator covers vertical bonds only")
        return float(critical_propagator(geometry, couplings, z, zp)
                     .matrix[row[sa], row[sb]])

    return corr


def _wick_bond_moment(geometry, bonds, correlator):
    """<prod_x E_x> by the fermionic Wick rule: a Pfaffian of two-points."""
    fields = []
    sign = 1.0
    for bond in bonds:
        fa, fb, s = bond.fields(geometry)
        sign *= s
        fields.append(fa)
        fields.append(fb)
    n = len(fields)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = correlator(fields[i], fields[j])
            mat[i, j] = v
            mat[j, i] = -v
    return sign * _pfaffian_value(mat)


def _energy_moment(geometry, couplings, bonds, correlator):
    """<prod_x eps_x>: expand eps = t + (1 - t^2) E over subsets."""
    m = len(bonds)
    total = 0.0
    for mask in range(1 << m):
        coef = 1.0
        chosen = []
        for i, bond in enumerate(bonds):
            t = bond.tanh_coupling(couplings)
            if (mask >> i) & 1:
                coef *= 1.0 - t * t
                chosen.append(bond)
            else:
                coef *= t
        wick = _wick_bond_moment(geometry, chosen, correlator) if chosen else 1.0
        total += coef * wick
    return total


def truncated_energy_correlation(geometry, couplings, bonds, correlator=None):
    """Truncated correlation (cumulant) of the listed energy bonds.

    Valid at any couplings, critical or not, when the default dense
    correlator is used.  Repeated bonds are rejected: the observable is
    a polynomial of degree one in each eps_x, so repeated-bond cumulants
    are not defined by this representation.

    Args:
        correlator: optional two-point callable (defaults to the dense
            inverse; `spectral_vertical_correlator` scales further for
            vertical bonds at criticality).
    """
    bonds = list(bonds)
    if len(set(bonds)) != len(bonds):
        raise ValueError("repeated bonds in a truncated correlation")
    if not bonds:
        raise ValueError("need at least one bond")
    if correlator is None:
        correlator = dense_correlator(geometry, couplings)

    def moment(block):
        return _energy_moment(geometry, couplings, block, correlator)

    return cumulant_from_moments(moment, bonds)


class BruteForceGibbs:
    """Exact Gibbs expectations by enumerating all spin configurations.

    Capped at 24 sites.  Summation is chunked with a fixed chunk size
    and per-chunk compensated totals, so results are reproducible to the
    last bit regardless of platform threading.
    """

    def __init__(self, geometry, beta, j1, j2):
        n = geometry.L * geometry.M
        if n > _BRUTE_FORCE_SITE_CAP:
            raise ValueError(f"{n} sites exceed the brute-force cap "
                             f"({_BRUTE_FORCE_SITE_CAP})")
        self.geometry = geometry
        self.beta = beta
        self.j1 = j1
        self.j2 = j2
        self.n_sites = n
        L, M = geometry.L, geometry.M
        h_bonds = [EnergyBond(z1, z2, 1) for z2 in range(1, M + 1)
                   for z1 in range(1, L + 1)]
        v_bonds = [EnergyBond(z1, z2, 2) for z2 in range(1, M)
                   for z1 in range(1, L + 1)]
        self._ha, self._hb = self._bond_bits(h_bonds)
        self._va, self._vb = self._bond_bits(v_bonds)
        # exp shift keeping all Boltzmann weights <= 1
        self._shift = beta * (abs(j1) * len(h_bonds) + abs(j2) * len(v_bonds))

    def _site_bit(self, z):
        return (z[1] - 1) * self.geometry.L + (z[0] - 1)

    def _bond_bits(self, bonds):
        a = np.array([self._site_bit(b.site) for b in bonds], dtype=np.int64)
        b = np.array([self._site_bit(b.other_site(self.geometry)) for b in bonds],
                     dtype=np.int64)
        return a, b

    def _sweep(self, bond_groups):
        """One pass over all configurations.

        Returns (sum of weights, [sum of weight * prod_eps per group]).
        """
        den_parts = []
        num_parts = [[] for _ in bond_groups]
        group_bits = []
        for bonds in bond_groups:
            a, b = self._bond_bits(bonds)
            group_bits.append((a, b))
        total = 1 << self.n_sites
        bits = np.arange(self.n_sites, dtype=np.uint32)
        for start in range(0, total, _BRUTE_FORCE_CHUNK):
            stop = min(start + _BRUTE_FORCE_CHUNK, total)
            idx = np.arange(start, stop, dtype=np.uint32)[:, None]
            spins = (2 * ((idx >> bits) & 1).astype(np.int8) - 1)
            eh = (spins[:, self._ha] * spins[:, self._hb]).sum(1, dtype=np.int64)
            ev = (spins[:, self._va] * spins[:, self._vb]).sum(1, dtype=np.int64)
            w = np.exp(self.beta * (self.j1 * eh + self.j2 * ev) - self._shift)
            den_parts.append(float(np.sum(w)))
            for g, (a, b) in enumerate(group_bits):
                prod = np.ones(stop - start, dtype=np.int8)
                for ai, bi in zip(a, b):
                    prod = prod * spins[:, ai] * spins[:, bi]
                num_parts[g].append(float(np.sum(w * prod)))
        den = math.fsum(den_parts)
        return den, [math.fsum(p) for p in num_parts]

    def log_partition(self):
        den, _ = self._sweep([])
        return self._shift + math.log(den)

    def moment(self, bonds):
        """<prod eps_x> over the listed bonds (repeats allowed here)."""
        den, nums = self._sweep([list(bonds)])
        return nums[0] / den

    def truncated(self, bonds):
        """Cumulant of the listed energy bonds, straight from the measure."""
        bonds = list(bonds)
        subsets = {}
        for part in set_partitions(bonds):
            for block in part:
                subsets.setdefault(tuple(block), None)
        keys = list(subsets)
        den, nums = self._sweep([list(k) for k in keys])
        table = {k: v / den for k, v in zip(keys, nums)}
        return cumulant_from_moments(lambda block: table[tuple(block)], bonds)


def scal_energy_correlation(cylinder, couplings, marked, tol=IMAGE_TOL):
    """Scaling limit of the truncated correlation of m energy observables.

    Args:
        marked: sequence of ((x, y), direction) continuum points with the
            bond direction (1 horizontal, 2 vertical).

    Returns:
        (2 t2)^{m1} (1 - t2^2)^{m2} Pf(M) where M is the 2m x 2m
        antisymmetric matrix with 2x2 off-diagonal blocks given by the
        continuum cylinder propagator between the marked points and zero
        diagonal blocks (the observables are normal-ordered, which
        removes the self-contraction).
    """
    marked = list(marked)
    m = len(marked)
    if m < 2:
        raise ValueError("the scaling limit is defined for m >= 2 observables")
    pts = [p for p, _ in marked]
    if len({(x % cylinder.ell1, y) for x, y in pts}) != m:
        raise ValueError("marked points must be distinct around the ring")
    m1 = sum(1 for _, d in marked if d == 1)
    m2 = m - m1
    mat = np.zeros((2 * m, 2 * m))
    for i in range(m):
        for j in range(i + 1, m):
            blk = cylinder_scal_block(cylinder, couplings, pts[i], pts[j], tol)
            mat[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
            mat[2 * j:2 * j + 2, 2 * i:2 * i + 2] = -blk.T
    return ((2.0 * couplings.t2) ** m1 * (1.0 - couplings.t2 ** 2) ** m2
            * _pfaffian_value(mat))
