"""Energy-bond observables: lattice cumulants and their scaling limit.

A bond energy is the product of the two spins across a lattice edge.  In
the fermionic representation it is the quadratic monomial
eps_x = t_x + (1 - t_x^2) s_x psi_a psi_b, with s_x the seam sign of the
bond's field pair (a, b).  The bonds of a truncated correlation share
one Wick matrix W over their fields a_1, b_1, ..., a_m, b_m: the
two-point functions with the bond factors folded in, and t_x on
(a_x, b_x).  Its entries come from one batched correlator call.  By the
minor summation formula for the Pfaffian of a sum (Ishikawa and
Wakayama, Linear Multilinear Algebra 39 (1995) 285) the moment
generating function is a determinant, so the cumulant is a sum over the
Hamiltonian cycles of the bonds of traces of 2 x 2 Wick blocks
(`truncated_energy_correlation`), evaluated by a subset dynamic
program: no Pfaffian and no Moebius inversion.  A brute-force Gibbs
enumeration on small cylinders, with cumulants by Moebius inversion over
set partitions, serves as the independent oracle.

The continuum limit of the correlations is a Pfaffian in the continuum
cylinder propagator with direction-dependent scalar prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import Species, propagator_from_A
from .scaling import IMAGE_TOL, cylinder_scal_block
from .skew import pfaffian

_BRUTE_FORCE_SITE_CAP = 20
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


def dense_correlator(geometry, couplings):
    """Two-point callable summed from the row generators of -A^{-1}: any
    couplings, all four species.  `corr(z, s, zp, sp)` maps (P, 2) site
    and (P,) `Species` arrays to the P values <Phi_{z,s} Phi_{z',s'}>."""
    cache = propagator_from_A(geometry, couplings)

    def corr(z, s, zp, sp):
        return cache.species_block(z, zp)[np.arange(len(s)), s, sp]

    return corr


def spectral_vertical_correlator(geometry, couplings):
    """Two-point callable like `dense_correlator`, one `critical_propagator`
    batch per call.  Covers the vertical-bond species only (Vbar, V); the
    horizontal species would need the massive Schur complement on top.
    Works at any lattice size the mode sum supports, unlike the dense route.
    """
    from .spectral import critical_propagator

    def corr(z, s, zp, sp):
        row, col = np.asarray(s) - Species.VBAR, np.asarray(sp) - Species.VBAR
        if min(row.min(), col.min()) < 0:
            raise ValueError("spectral correlator covers vertical bonds only")
        return critical_propagator(geometry, couplings, z, zp)[np.arange(len(row)), row, col]

    return corr


def truncated_energy_correlation(geometry, couplings, bonds, correlator=None):
    """Truncated correlation (cumulant) of the listed energy bonds.

    Valid at any couplings, critical or not, when the default dense
    correlator is used.  Repeated bonds are rejected: the observable is
    a polynomial of degree one in each eps_x, so repeated-bond cumulants
    are not defined by this representation.

    The 2m x 2m Wick matrix of the m bonds has W_ij = d_i d_j <f_i f_j>
    for i < j, with d = (1 - t_x^2) s_x on a_x and 1 on b_x, plus t_x on
    (a_x, b_x).  Its upper triangle comes from one correlator call on
    the m (2m - 1) field pairs; the cumulant is then `_cycle_sum(W)`.

    Args:
        correlator: optional batched two-point callable (defaults to the
            dense inverse; `spectral_vertical_correlator` scales further
            for vertical bonds at criticality), called once with the
            sites and species of the fields of every pair i < j.
    """
    bonds = list(bonds)
    if len(set(bonds)) != len(bonds):
        raise ValueError("repeated bonds in a truncated correlation")
    if not bonds:
        raise ValueError("need at least one bond")
    fields = []
    scale = []
    for bond in bonds:
        fa, fb, seam = bond.fields(geometry)
        t = bond.tanh_coupling(couplings)
        fields += [fa, fb]
        scale += [(1.0 - t * t) * seam, 1.0]
    if correlator is None:
        correlator = dense_correlator(geometry, couplings)
    n = len(fields)
    sites, species = np.array([z for z, _ in fields]), np.array([s for _, s in fields])
    scale = np.array(scale)
    rows, cols = np.triu_indices(n, 1)
    w = np.zeros((n, n))
    w[rows, cols] = scale[rows] * scale[cols] * correlator(
        sites[rows], species[rows], sites[cols], species[cols])
    for x, bond in enumerate(bonds):
        w[2 * x, 2 * x + 1] += bond.tanh_coupling(couplings)
    return _cycle_sum(w - w.T)


def _cycle_sum(w):
    """Cumulant of m quadratic monomials from their 2m x 2m Wick matrix w.

    With the blocks W_xy = w[2x:2x+2, 2y:2y+2] and J = [[0, 1], [-1, 0]],

        kappa = -1/2 sum over directed Hamiltonian cycles
                x_1 -> x_2 -> ... -> x_m -> x_1 of tr prod_i J W_{x_i x_{i+1}},

    the (m - 1)! cycles with x_1 = 0; kappa = w[0, 1] for m = 1.

    Derivation.  The moment of a bond subset S is Pf(w_S), so the moment
    generating function is Z(lambda) = sum_S lambda^S Pf(w_S), and the
    minor summation formula gives Z(lambda) = prod_x lambda_x
    Pf(w + (+)_x lambda_x^{-1} J).  Squaring, Z(lambda)^2 =
    det(I - B(lambda) w) with B(lambda) = (+)_x lambda_x J, so the
    cumulant, the lambda_1 ... lambda_m coefficient of log Z =
    1/2 tr log(I - B w) = -1/2 sum_k tr (B w)^k / k, comes from k = m
    alone: the m! orderings of distinct blocks are the directed cycles
    times their m rotations.  For m >= 2 a cycle never visits a diagonal
    block, so t_x drops out.  At m = 2, with W_01 = [[p, q], [r, s]],
    kappa = qr - ps = Pf(w) - t_0 t_1.

    Evaluation (Held-Karp).  P[S, v] is the ordered product J W_{0 x_2}
    J W_{x_2 x_3} ... J W_{x_k v} summed over the paths from 0 to v that
    visit exactly S, a subset of {1, ..., m - 1}; a step appends
    J W_{v u} for u outside S, and the cycles close with J W_{v 0}.
    Each pair (S, u) has exactly one predecessor set S - {u}, so a step
    is one matmul of all the sets of one size against the block row
    (J W)_{vu}: O(2^m m^2) 2 x 2 products in O(2^m m) memory, and sums of
    products without the cancellation of a Moebius inversion.
    """
    m = w.shape[0] // 2
    if m == 1:
        return float(w[0, 1])
    # the rows of J W_xy are (W_xy[1], -W_xy[0])
    jw = (w.reshape(m, 2, 2 * m)[:, ::-1] * [[1.0], [-1.0]]).reshape(2 * m, 2 * m)
    n = m - 1
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1                      # (2^n, n)
    size = bits.sum(axis=1)
    # path[S, :, v, :] = P[S, v]; left as zeros for v outside S
    path = np.zeros((1 << n, 2, n, 2))
    path[1 << np.arange(n), :, np.arange(n), :] = jw[0:2, 2:].reshape(2, n, 2).transpose(1, 0, 2)
    step = jw[2:, 2:]
    for k in range(1, n):
        src = masks[size == k]
        grown = (path[src].reshape(-1, 2, 2 * n) @ step).reshape(-1, 2, n, 2)
        s, u = np.nonzero(bits[src] == 0)
        path[src[s] | (1 << u), :, u, :] = grown[s, :, u, :]
    return -0.5 * float(np.sum(path[-1].reshape(2, 2 * n) * jw[2:, 0:2].T))


class BruteForceGibbs:
    """Exact Gibbs expectations by enumerating all spin configurations.

    Capped at 20 sites.  Summation is chunked with a fixed chunk size
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


def scal_energy_correlation(cylinder, couplings, marked):
    """Scaling limit of the truncated correlation of m energy observables.

    Args:
        marked: sequence of ((x, y), direction) continuum points with the
            bond direction (1 horizontal, 2 vertical) and 0 < y < l2.

    Returns:
        (2 t2)^{m1} (1 - t2^2)^{m2} Pf(M) where M is the 2m x 2m
        antisymmetric matrix with 2x2 off-diagonal blocks given by the
        continuum cylinder propagator between the marked points and zero
        diagonal blocks (the observables are normal-ordered, which
        removes the self-contraction).  This is the full correlation of
        the normal-ordered fields, the sum over the partitions of the
        points into blocks of two or more of the products of truncated
        correlations: the truncated correlation itself for m = 2 and 3,
        but not for m >= 4.
    """
    marked = list(marked)
    m = len(marked)
    if m < 2:
        raise ValueError("the scaling limit is defined for m >= 2 observables")
    pts = [p for p, _ in marked]
    l2 = cylinder.ell2
    if any(cylinder.coincident(z, zp) for i, z in enumerate(pts) for zp in pts[:i]):
        raise ValueError("marked points must be distinct around the ring, "
                         "none coincident with a mirror image of another")
    for (x, y), d in marked:
        if d not in (1, 2):
            raise ValueError(f"bond direction at {(x, y)} must be 1 or 2, got {d}")
        if not 0.0 < y < l2:
            raise ValueError(f"marked point {(x, y)} lies outside the height (0, {l2})")
    m1 = sum(1 for _, d in marked if d == 1)
    m2 = m - m1
    mat = np.zeros((2 * m, 2 * m))
    for i in range(m):
        for j in range(i + 1, m):
            blk = cylinder_scal_block(cylinder, couplings, pts[i], pts[j], IMAGE_TOL)
            mat[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
            mat[2 * j:2 * j + 2, 2 * i:2 * i + 2] = -blk.T
    return ((2.0 * couplings.t2) ** m1 * (1.0 - couplings.t2 ** 2) ** m2
            * pfaffian(mat))
