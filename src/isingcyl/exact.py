"""Exact Grassmann representation of the cylinder Ising model.

The partition function of the nearest-neighbor Ising model on an L x M
cylinder equals, after the high-temperature expansion is organized into a
Gaussian Grassmann integral,

    Z = 2^{LM} (cosh beta J1)^{LM} (cosh beta J2)^{L(M-1)} Pf A,

where A is the 4LM x 4LM antisymmetric matrix of the quadratic action in
the four species Hbar, H, Vbar, V living on each site.  The action
couples each site to itself (six local monomials) and to its horizontal
and vertical neighbors with weights t1 = tanh(beta J1), t2 = tanh(beta J2).
The horizontal field is antiperiodic around the cylinder, H_{(L+1, y)} =
-H_{(1, y)}, and the vertical coupling out of the top row is absent.

The couplings are uniform, so A is invariant under z1 -> z1 + 1 with the
antiperiodic wrap: A = 1 (x) A0 + T (x) A1 - T^T (x) A1^T, with A0 the
4M x 4M action of one column (local monomials and vertical t2 hops), A1
the t1 hop to the next column and T the antiperiodic shift.  T is
diagonal in the ring momenta k = pi (2n + 1) / L; L is even, so the
momenta come in pairs (k, -k) with 0 < k < pi and none is its own
partner.  On the real orthonormal basis sqrt(2/L) cos(k z1),
sqrt(2/L) sin(k z1) of a pair, T acts as the rotation R(k), and A
becomes the direct sum of L/2 real skew 8M x 8M blocks

    B_k = 1_2 (x) A0 + R(k) (x) A1 - R(k)^T (x) A1^T
        = [[X_k, Y_k], [-Y_k, X_k]],   X_k + i Y_k = A0 + e^{ik} A1 - e^{-ik} A1^T,

built by `ring_blocks` straight from the couplings.  The transform has
determinant det(Q)^{4M} = +1, and the reordering of the flat
(z2, z1, species) rows into (pair, cos/sin, z2, species) moves whole runs
of four rows, so it is even: Pf A = prod_k Pf B_k.

Each block's Pfaffian is a complex determinant of half its size,
Pf B_k = det C_k with C_k = X_k + i Y_k (n = 4M rows, n even):

  - B is unitarily similar to diag(C, conj C).
  - X is skew and Y symmetric, so conj C = -C^T and det conj C = det C:
    det C is real and det B = (det C)^2.
  - Pf B and det C are then polynomials in the entries of X and Y whose
    squares agree, so they agree up to one global sign.
  - At X = 0, Y = 1 both equal (-1)^{n(n-1)/2} = i^n, hence Pf B = det C.

Each C_k is block tridiagonal in the row index z2, with 4 x 4 blocks
over the species.  Every row carries the same diagonal block D_k, the
one-site action at momentum k (`ring_blocks`), and rows j and j + 1
touch only through the vertical hop: t2 at (Vbar_j, V_{j+1}) and -t2
at its mirror, the rank-one blocks E = t2 e_b e_v^T above the diagonal
and F = -E^T below it (b = Vbar, v = V).  Eliminating from the bottom
row up gives the left Schur complements

    S_1 = D_k,   S_{j+1} = D_k - F S_j^{-1} E = D_k + t2^2 [S_j^{-1}]_bb e_v e_v^T,

so every S_j = D_k + sigma_j e_v e_v^T is a rank-one update of D_k with
sigma_1 = 0.  With P = D_k^{-1}, Sherman-Morrison and the matrix
determinant lemma give

    f_j = 1 + sigma_j P_vv = det S_j / det D_k,
    sigma_{j+1} = t2^2 (P_bb + sigma_j (P_bb P_vv - P_bv P_vb)) / f_j,

    det C_k = prod_j det S_j = (det D_k)^M prod_j f_j.

The step sigma_j -> sigma_{j+1} is a Moebius map.  With sigma_j =
p_j / q_j and (p_1, q_1) = (0, 1) it is linear,

    (p_{j+1}, q_{j+1}) = T_k (p_j, q_j),
    T_k = [[t2^2 (P_bb P_vv - P_bv P_vb), t2^2 P_bb], [P_vv, 1]],

and f_j = q_{j+1} / q_j, so the product telescopes:

    det C_k = (det D_k)^M (T_k^M)_22,

Kaufman's row transfer matrix (Phys. Rev. 76, 1232 (1949)) at one
momentum.  `partition_function_log` raises the L/2 matrices T_k to the
power M by repeated squaring: O(L log M) time, O(L) memory, no loop over
the rows, and an exactly zero f_j inside a regular block does no harm.

Sign.  i C_k = i X_k - Y_k is Hermitian, and so is i times each of its
Schur complements; det(i S) = det S for 4 x 4 blocks, so every det S_j is
real, and so are det D_k (the M = 1 case) and (T_k^M)_22 = prod_j f_j.
The sign of Pf A is the product of the signs of their real parts.  Their
imaginary parts are roundoff, and |Im x| / |x| of det D_k and of
(T_k^M)_22 is the scale-free certificate gated by PHASE_TOL.  An exactly
zero det D_k or (T_k^M)_22 is a singular action matrix (ArithmeticError).
The dense matrix itself (`build_action_matrix`) is kept as the oracle the
tests compare against, and so is the M-step product of the f_j.

Inverse.  Eliminating from the top row down gives the right Schur
complements S^R_M = D_k, S^R_j = D_k - E (S^R_{j+1})^{-1} F =
D_k + tau_j e_b e_b^T: the same recursion with V and Vbar swapped, which
is the left one reflected.  The signed species permutation Pi: Hbar ->
-Hbar, H -> H, Vbar <-> V (the vertical reflection of `verify`) gives
Pi D_k Pi^T = -D_k, so P = D_k^{-1} has P_bb = -P_vv and P_vb = -P_bv.
Put tau = -sigma into the right step and it becomes the left step, with
the factor 1 + tau P_bb = 1 + sigma P_vv; hence tau_j = -sigma_{M+1-j},
the right Schur factor at row j is f_{M+1-j}, and one sweep serves both.
Block-tridiagonal inversion (Meurant, SIAM J. Matrix Anal. Appl. 13, 707
(1992)) makes G = C_k^{-1} semiseparable, fixed by O(M) row generators,
each a rank-one update by Sherman-Morrison, of P or of Q_j = (S^R_j)^{-1}:

    Q_j = P - (tau_j / f_{M+1-j}) (P e_b)(e_b^T P),       r_j = Q_j e_v,
    G_jj = Q_j - sigma_j r_j (e_v^T Q_j) / (1 + sigma_j r_j[v]),
    G_ij = t2 e^{A_{i-1} - A_j} r_i (e_b^T G_jj)        for i > j,

with the chain logarithm A_i = sum_{1 <= m <= i} log(t2 r_m[b]), whose
differences stay finite where the plain products underflow.  Only this
lower chain is formed: i C_k is Hermitian, so G is anti-Hermitian, and a
site pair above the diagonal is taken as minus the transpose of the
swapped pair; -A^{-1} is then antisymmetric by construction.
`PropagatorCache` certifies each block invertible by the lower bound
1 / (||C_k||_1 ||C_k^{-1}||_F) <= sigma_min / sigma_max: |C_k| is
entrywise symmetric, so ||C_k||_2 <= ||C_k||_1, and
||C_k^{-1}||_2 <= ||C_k^{-1}||_F, whose square is sum_j ||G_jj||^2 plus
twice the chain blocks, an O(M) recursion per k.  A bound below
PIVOT_TOL raises SingularSkewError, so every block with a singular value
ratio below PIVOT_TOL is rejected.

Wick's rule reduces every even correlation to a Pfaffian of two-point
functions <Phi_i Phi_j> = -[A^{-1}]_{ij}.  -A^{-1} depends on z1 - z1'
only, as the back-transform -(2/L) Re sum_k e^{ik(z1 - z1')} G_k;
`propagator_from_A` keeps the O(LM) generators and sums over k per site
pair, in batches.
The horizontal (xi) sector decouples from
the vertical (phi) sector after a Schur reduction and has the explicit
"massive" propagator computed by `massive_propagator` as an
antiperiodized geometric kernel.  Both return plain real arrays, (2, 2)
for one site pair and (P, 2, 2) for (P, 2) site arrays, like every
two-point function of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache

import numpy as np

from .lattice import CylinderGeometry
from .skew import PIVOT_TOL, SingularSkewError, SkewMatrix
from .spectral import antiperiodic_momenta

CRITICAL_TOL = 1e-14

# largest |Im x| / |x| of det D_k and of (T_k^M)_22, which are real in
# exact arithmetic (module docstring)
PHASE_TOL = 1e-8


@dataclass(frozen=True)
class Couplings:
    """Hyperbolic-tangent couplings t_l = tanh(beta J_l), both in (0, 1).

    The critical line is t1 t2 + t1 + t2 = 1, i.e. t2 = (1 - t1)/(1 + t1).
    """

    t1: float
    t2: float

    def __post_init__(self):
        for name, t in (("t1", self.t1), ("t2", self.t2)):
            if not 0.0 < t < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {t}")

    @classmethod
    def from_beta(cls, beta, J1, J2):
        if beta <= 0 or J1 <= 0 or J2 <= 0:
            raise ValueError("beta, J1, J2 must be positive")
        products = (beta * J1, beta * J2)
        for l, x in enumerate(products, 1):
            if math.tanh(x) == 1.0:  # 1 - tanh x < 2^-54
                raise ValueError(f"beta*J{l} = {x:g} too large: tanh(beta*J{l}) rounds to 1 "
                                 f"from beta*J{l} = 27.5 log 2 = 19.06")
        return cls(*map(math.tanh, products))

    @classmethod
    def critical_from_t1(cls, t1):
        return cls(t1, (1.0 - t1) / (1.0 + t1))

    @classmethod
    def isotropic_critical(cls):
        t = math.sqrt(2.0) - 1.0
        return cls(t, t)

    @property
    def is_critical(self):
        return abs(self.t1 * self.t2 + self.t1 + self.t2 - 1.0) <= CRITICAL_TOL


class Species(IntEnum):
    """Canonical on-site ordering of the four Grassmann species."""

    HBAR = 0
    H = 1
    VBAR = 2
    V = 3


# the six local monomials Phi_i Phi_j of one site, each with coefficient 1
_LOCAL_MONOMIALS = (
    (Species.HBAR, Species.H), (Species.VBAR, Species.V),
    (Species.VBAR, Species.HBAR), (Species.V, Species.HBAR),
    (Species.H, Species.VBAR), (Species.V, Species.H),
)


def flat_index(geometry, z, species):
    """Flat Grassmann index: site-major in (z2, z1), species-minor.

    Bijective onto {0, ..., 4 L M - 1}.
    """
    z1, z2 = z
    if not geometry.contains(z):
        raise ValueError(f"site {z} outside {geometry.L} x {geometry.M} lattice")
    return 4 * ((z2 - 1) * geometry.L + (z1 - 1)) + int(species)


def build_action_matrix(geometry, couplings):
    """Assemble the quadratic action matrix A.

    Each monomial c Phi_i Phi_j of the action contributes A_ij += c,
    A_ji -= c, so that S = (1/2) (Phi, A Phi) reproduces it exactly.
    Monomials per site z (with t-couplings first, then the six local
    terms):

        t1 Hbar_z H_{z+e1}   (antiperiodic wrap: -t1 when z1 = L)
        t2 Vbar_z V_{z+e2}   (dropped on the top row)
        Hbar_z H_z,  Vbar_z V_z,
        Vbar_z Hbar_z,  V_z Hbar_z,  H_z Vbar_z,  V_z H_z

    Returns:
        SkewMatrix of dimension 4 L M.
    """
    L, M = geometry.L, geometry.M
    t1, t2 = couplings.t1, couplings.t2
    a = SkewMatrix.zeros(4 * L * M)

    def ix(z, sp):
        return flat_index(geometry, z, sp)

    for z2 in range(1, M + 1):
        for z1 in range(1, L + 1):
            z = (z1, z2)
            # horizontal hopping, antiperiodic around the cylinder
            if z1 < L:
                a.add_pair(ix(z, Species.HBAR), ix((z1 + 1, z2), Species.H), t1)
            else:
                a.add_pair(ix(z, Species.HBAR), ix((1, z2), Species.H), -t1)
            # vertical hopping, open at the top
            if z2 < M:
                a.add_pair(ix(z, Species.VBAR), ix((z1, z2 + 1), Species.V), t2)
            # local monomials
            a.add_pair(ix(z, Species.HBAR), ix(z, Species.H), 1.0)
            a.add_pair(ix(z, Species.VBAR), ix(z, Species.V), 1.0)
            a.add_pair(ix(z, Species.VBAR), ix(z, Species.HBAR), 1.0)
            a.add_pair(ix(z, Species.V), ix(z, Species.HBAR), 1.0)
            a.add_pair(ix(z, Species.H), ix(z, Species.VBAR), 1.0)
            a.add_pair(ix(z, Species.V), ix(z, Species.H), 1.0)
    return a


def ring_momenta(L):
    """One momentum of each antiperiodic pair (k, -k): the L/2 with k > 0."""
    return antiperiodic_momenta(L)[L // 2:]


def ring_blocks(geometry, couplings):
    """The parts X_k, Y_k of the row blocks D_k = X_k + i Y_k.

    D_k is the diagonal 4 x 4 block of every row of the ring block
    C_k = A0 + e^{ik} A1 - e^{-ik} A1^T over `ring_momenta`: the six local
    monomials and the t1 hop into the next column, rows and columns
    ordered by `Species`.  X_k is built as A0 + cos k (A1 - A1^T) and Y_k
    as sin k (A1 + A1^T), so X_k is exactly antisymmetric and Y_k exactly
    symmetric in floating point.  The rows couple only through the t2 hop
    (module docstring), which the sweeps add themselves.

    Returns:
        (X, Y), two real arrays of shape (L/2, 4, 4).
    """
    a0 = np.zeros((4, 4))
    for i, j in _LOCAL_MONOMIALS:
        a0[i, j] = 1.0
        a0[j, i] = -1.0
    a1 = np.zeros((4, 4))
    a1[Species.HBAR, Species.H] = couplings.t1
    k = ring_momenta(geometry.L)[:, None, None]
    return a0 + np.cos(k) * (a1 - a1.T), np.sin(k) * (a1 + a1.T)


_B, _V = Species.VBAR, Species.V


def _transfer(p, t2):
    """The row transfer matrices T_k = [[t2^2 (P_bb P_vv - P_bv P_vb),
    t2^2 P_bb], [P_vv, 1]] from P = D_k^{-1} (L/2, 4, 4), as an
    (L/2, 2, 2) stack (module docstring)."""
    tt, bb, vv = t2 * t2, p[:, _B, _B], p[:, _V, _V]
    return np.stack([tt * (bb * vv - p[:, _B, _V] * p[:, _V, _B]), tt * bb, vv,
                     np.ones_like(vv)], axis=1).reshape(-1, 2, 2)


def _schur_sweep(p, t2, M):
    """The left Schur complements D + sigma_j e_v e_v^T, j = 1..M.

    sigma_1 = 0 and sigma_{j+1} = (T00 sigma_j + T01) / (T10 sigma_j + T11),
    the Moebius action of the row transfer matrix (`_transfer`) of
    P = D^{-1} (L/2, 4, 4).  Returns (sigma, f), complex arrays of shape
    (M, L/2) with f_j = 1 + sigma_j P_vv; an exactly zero f_j is left
    for the caller to reject.
    """
    (t00, t01), (t10, t11) = np.moveaxis(_transfer(p, t2), 0, -1)
    s = np.zeros((M, len(p)), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, M):
            s[j] = (t00 * s[j - 1] + t01) / (t10 * s[j - 1] + t11)
    return s, t11 + s * t10


@dataclass(frozen=True)
class PartitionResult:
    """log Z split into its exactly known pieces plus the Pfaffian."""

    log_z: float
    pf_sign: float
    log_pf_abs: float


def _rescaled(a, log_scale):
    """(K, m, n) a over its largest modulus per k, that modulus's log added
    to `log_scale`; an all-zero a stays zero."""
    top = np.abs(a).max(axis=(1, 2), keepdims=True)
    top[top == 0] = 1.0
    return a / top, log_scale + np.log(top[:, 0, 0])


def partition_function_log(geometry, beta, J1, J2):
    """Exact log partition function via the Pfaffian formula.

    Pf A = prod_k (det D_k)^M (T_k^M)_22, each 2 x 2 row transfer matrix
    T_k raised to the power M by repeated squaring (module docstring),
    every product divided by its largest modulus and that log kept apart,
    so no power over- or underflows.  O(L log M) time, O(L) memory.

    Args:
        geometry: CylinderGeometry.
        beta, J1, J2: inverse temperature and the two exchange couplings.

    Returns:
        PartitionResult with log Z = LM log 2 + LM log cosh(beta J1)
        + L(M-1) log cosh(beta J2) + log|Pf A| and the sign of Pf A under
        the canonical index ordering.

    Raises:
        ValueError: beta, J1 or J2 is not positive, or a beta J_l is too
            large for tanh to stay below 1 (`Couplings.from_beta`).
        ArithmeticError: a det D_k or (T_k^M)_22 is exactly zero.
        AssertionError: a det D_k or (T_k^M)_22 is off the real axis by
            more than PHASE_TOL relative to its modulus.
    """
    L, M = geometry.L, geometry.M
    couplings = Couplings.from_beta(beta, J1, J2)
    x, y = ring_blocks(geometry, couplings)
    d = x + 1j * y
    det = np.linalg.det(d)
    if np.any(det == 0):
        raise ArithmeticError("action matrix is singular; Z would vanish")
    base = _transfer(np.linalg.inv(d), couplings.t2)
    # e^{log_scale} power = T_k^m, m the leading bits of M read so far
    power, log_scale = base, 0.0
    for bit in bin(M)[3:]:
        power, log_scale = _rescaled(power @ power, 2.0 * log_scale)
        if bit == "1":
            power, log_scale = _rescaled(power @ base, log_scale)
    q = power[:, 1, 1]
    if np.any(q == 0):
        raise ArithmeticError("action matrix is singular; Z would vanish")
    det_abs, q_abs = np.abs(det), np.abs(q)
    imag = max(np.max(np.abs(det.imag) / det_abs), np.max(np.abs(q.imag) / q_abs))
    if imag > PHASE_TOL:
        raise AssertionError(
            f"ring-block determinant phase off the real axis by {imag:.3e} > {PHASE_TOL:.0e}"
        )
    negative = M * np.count_nonzero(det.real < 0) + np.count_nonzero(q.real < 0)
    sign = -1.0 if negative % 2 else 1.0
    log_pf = float(M * np.sum(np.log(det_abs)) + np.sum(np.log(q_abs) + log_scale))
    prefactor = (
        L * M * math.log(2.0)
        + L * M * math.log(math.cosh(beta * J1))
        + L * (M - 1) * math.log(math.cosh(beta * J2))
    )
    return PartitionResult(prefactor + log_pf, sign, log_pf)


# site pairs summed per pass of `PropagatorCache.species_block`
_CHUNK = 256


class PropagatorCache:
    """Two-point function <Phi_i Phi_j> = -[A^{-1}]_{ij} from the row
    generators of the ring inverses G_k = C_k^{-1}.

    One inverse P = D_k^{-1} per ring momentum k and one Schur sweep give
    them all by Sherman-Morrison (module docstring): Q_j = (S^R_j)^{-1}
    from P, the column t2 r_j = t2 Q_j e_v, G_jj from Q_j, and the chain
    logarithm A_j = sum_{1 <= m <= j} log(t2 r_m[b]).  Each C_k is
    certified invertible by the lower bound 1 / (||C_k||_1 ||C_k^{-1}||_F)
    on sigma_min / sigma_max (below PIVOT_TOL, or at an exactly zero
    pivot, raises SingularSkewError).  The cache holds O(L M) numbers and
    `species_block` does one k-sum per site pair.  The dense 4LM x 4LM
    `matrix` is a test oracle view, built only on request.
    """

    def __init__(self, geometry, couplings):
        self.geometry, self.couplings = geometry, couplings
        L, M, t2 = geometry.L, geometry.M, couplings.t2
        x, y = ring_blocks(geometry, couplings)
        d = x + 1j * y
        try:
            p = np.linalg.inv(d)
        except np.linalg.LinAlgError:
            raise SingularSkewError(0.0) from None
        sigma, f = _schur_sweep(p, t2, M)
        if np.any(f == 0):
            raise SingularSkewError(0.0)
        # Q_j = (D + tau_j e_b e_b^T)^{-1} with tau_j = -sigma_{M+1-j} and
        # 1 + tau_j P_bb = f_{M+1-j} (module docstring), (M, L/2, 4, 4)
        g = (sigma[::-1] / f[::-1])[..., None, None] * p[:, :, _B, None] * p[:, None, _B, :]
        g += p
        # t2 r_j = t2 Q_j e_v, (M, 4, L/2)
        right = self._right = np.ascontiguousarray(t2 * np.swapaxes(g[..., _V], 1, 2))
        # G_jj = Q_j - sigma_j (Q_j e_v)(e_v^T Q_j) / (1 + sigma_j (Q_j)_vv)
        g -= g[..., :, _V, None] * (
            (sigma / (1.0 + sigma * g[..., _V, _V]))[..., None, None] * g[..., _V, None, :])
        # G_jj is anti-Hermitian (i C_k is Hermitian): project onto that
        anti = g - np.conjugate(np.swapaxes(g, 2, 3))
        anti *= 0.5
        defect, norm = np.max(np.abs(g - anti)), np.max(np.abs(anti))
        del g
        # ||C_k^{-1}||_F^2: the diagonal blocks plus twice those below it,
        # sum_i ||t2 r_i||^2 S_i with S_{i+1} = ||row_i||^2 + |t2 r_i[b]|^2 S_i
        link = np.abs(right[:, _B]) ** 2
        row_sq = np.sum(np.abs(anti[..., _B, :]) ** 2, axis=2)
        right_sq = np.sum(np.abs(right) ** 2, axis=1)
        tail = lower = 0.0
        for i in range(1, M):
            tail = row_sq[i - 1] + link[i - 1] * tail
            lower += right_sq[i] * tail
        frob = np.sum(np.abs(anti) ** 2, axis=(0, 2, 3)) + 2.0 * lower
        # ||C_k||_1: the largest column sum of |D_k|, plus t2 on the vertical
        # species when the rows couple
        cols = np.abs(d).sum(axis=1)
        cols[:, [_B, _V]] += t2 * (M > 1)
        bound = 1.0 / (cols.max(axis=1) * np.sqrt(frob))
        if not bound.min() >= PIVOT_TOL:
            raise SingularSkewError(float(np.nan_to_num(bound.min())))
        if defect > 1e-10 * norm:
            raise AssertionError(f"inverse symmetrization defect {defect:.3e} > 1e-10 * {norm:.3e}")
        self._k = ring_momenta(L)
        self._chain = np.zeros((M, L // 2), dtype=complex)
        np.cumsum(np.log(right[1:, _B]), axis=0, out=self._chain[1:])
        # scaled so that a block is Re sum_k e^{ikd} (...) of the stored factors
        self._diag = (-2.0 / L) * anti.reshape(M, L // 2, 16)
        self._rows = (-2.0 / L) * anti[..., _B, :]

    def species_block(self, z, zp):
        """<Phi_{z,s} Phi_{z',s'}> indexed [s, s'] by `Species`: (4, 4) for
        one site pair, (P, 4, 4) for (P, 2) site arrays.

        Only pairs with z2 > z2', or z2 = z2' and z1 >= z1', are summed,
        in chunks of _CHUNK: the back-transformed G_jj on one row, the
        rank-one chain below it.  The others are minus the transpose of
        the swapped pair, so the blocks are exactly antisymmetric."""
        single = np.shape(z) == (2,)
        z, zp = self.geometry.site_arrays(z, zp)
        d, i, j = z[:, 0] - zp[:, 0], z[:, 1] - 1, zp[:, 1] - 1
        swap = (i < j) | ((i == j) & (d < 0))
        i, j, d = np.where(swap, j, i), np.where(swap, i, j), np.where(swap, -d, d)
        out = np.empty((len(d), 4, 4))
        same, low = np.flatnonzero(i == j), np.flatnonzero(i != j)
        for c in range(0, len(d), _CHUNK):
            s, q = same[c:c + _CHUNK], low[c:c + _CHUNK]
            phase = np.exp(1j * np.multiply.outer(d[s], self._k))[:, None]
            out[s] = (phase @ self._diag[j[s]]).real.reshape(-1, 4, 4)
            w = np.exp(1j * np.multiply.outer(d[q], self._k)
                       + self._chain[i[q] - 1] - self._chain[j[q]])
            out[q] = ((w[:, None] * self._right[i[q]]) @ self._rows[j[q]]).real
        out[swap] = -out[swap].transpose(0, 2, 1)
        site = (i == j) & (d == 0)
        out[site] = 0.5 * (out[site] - out[site].transpose(0, 2, 1))
        return out[0] if single else out

    def vertical_block(self, z, zp):
        """The (Vbar, V) block: rows/cols ordered (+, -) = (Vbar, V)."""
        return self.species_block(z, zp)[..., Species.VBAR:, Species.VBAR:]

    @cached_property
    def matrix(self):
        """Dense read-only -A^{-1} in `flat_index` order: a test oracle,
        assembled from `species_block` over every site pair on first
        access; the library never builds it."""
        sites = np.array(list(self.geometry.sites()))
        n = len(sites)
        g = self.species_block(np.repeat(sites, n, axis=0), np.tile(sites, (n, 1)))
        g = g.reshape(n, n, 4, 4).transpose(0, 2, 1, 3).reshape(4 * n, 4 * n)
        g.setflags(write=False)
        return g


@lru_cache(maxsize=16)
def propagator_from_A(geometry, couplings):
    """Cached `PropagatorCache` of (geometry, couplings)."""
    return PropagatorCache(geometry, couplings)


def dense_propagator(geometry, couplings, z, zp):
    """The (Vbar, V) block of -A^{-1} at any couplings, called and batched
    like `spectral.critical_propagator`: (2, 2) or (P, 2, 2)."""
    return propagator_from_A(geometry, couplings).vertical_block(z, zp)


def horizontal_kernel(y, L, t1):
    """Antiperiodized kernel s_+(y) = sum_n (-1)^n s_{infinity,+}(y + nL).

    The terms start at the first n with y + nL >= 0 and form a geometric
    series of ratio -(-t1)^L = -t1^L (L is even), summed in closed form.
    """
    n = -(y // L)
    return (-1.0) ** n * (-t1) ** (y + n * L) / (1.0 + t1 ** L)


def massive_propagator(geometry, couplings, z, zp):
    """Two-point block of the horizontal (xi) sector.

    <xi_omega,z xi_omega',z'> is diagonal in the row index and couples
    only opposite species, with the mirrored kernel s_-(y) = s_+(-y):

        [[0,               s_+(z1 - z1')],
         [-s_-(z1 - z1'),  0            ]] * delta_{z2, z2'}.

    Args:
        z, zp: one lattice site each, or (P, 2) arrays of sites.

    Returns:
        (2, 2) array for one pair, (P, 2, 2) for a batch; zero blocks
        where the rows differ.
    """
    single = np.shape(z) == (2,)
    z, zp = geometry.site_arrays(z, zp)
    dz1 = z[:, 0] - zp[:, 0]
    same = z[:, 1] == zp[:, 1]
    out = np.zeros((len(z), 2, 2))
    out[:, 0, 1] = np.where(same, horizontal_kernel(dz1, geometry.L, couplings.t1), 0.0)
    out[:, 1, 0] = np.where(same, -horizontal_kernel(-dz1, geometry.L, couplings.t1), 0.0)
    return out[0] if single else out
