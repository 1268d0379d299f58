"""Multiscale decomposition of the critical propagator.

The propagator is sliced into scales through the heat-kernel family
f_eta = D e^{-eta D} acting multiplicatively on the momentum-space
symbol: integrating eta over [0, 1) gives scale h = 0, over
[4^{-h-1}, 4^{-h}) gives scale h < 0, and the tail [4^{-h-1}, infinity)
gives the infrared remainder g^{(<= h)}.  All eta integrals are done in
closed form, so the scale weights are

    w_0(D)    = 1 - e^{-D},
    w_h(D)    = e^{-4^{-h-1} D} - e^{-4^{-h} D},      h < 0,
    w_<=h(D)  = e^{-4^{-h-1} D},

and the telescoping w_<=h + sum_{j>h} w_j = 1 holds exactly, term by
term, in floating point.  The deepest useful scale is
h* = -floor(log2 min(L, M)).

Each single-scale cylinder propagator splits into a bulk part, the
infinite-plane single-scale propagator evaluated at the folded
displacement and weighted by the ring sign, plus an edge part that decays
in the distance to the boundary.  The infinite-plane propagator is a
short Gauss-Legendre sum in eta of products of two 1D lattice heat
kernels e^{-c} I_n(c), the dispersion being separable, with node count
and table length taken from an a priori error bound.

The Gram representation realizes every derivative block of g^{(h)} as an
inner product of two explicit vectors indexed by (k1, q2, sigma, #), kept
on the quarter of the modes like every mode sum: the rows are built with
weight 1 and w_h enters the inner product, and the norms are in closed
form.  It exists to verify, numerically, the reconstruction identity, the
Cauchy-Schwarz bounds, and the 2^h scaling of the vector norms.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .lattice import per_range, ring_sign
from .spectral import (
    dispersion,
    forward_difference,
    mode_sum,
    quarter_fold,
    spectral_data,
    symbol_numerator,
)

PLANE_TOL = 1e-14


def h_star(geometry):
    """Deepest scale index: -floor(log2 min(L, M))."""
    return -int(math.floor(math.log2(min(geometry.L, geometry.M))))


def scale_indices(geometry):
    """All single-scale indices h* .. 0, infrared to ultraviolet."""
    return list(range(h_star(geometry), 1))


def eta_window(h):
    """Heat-kernel time window [eta_lo, eta_hi) covered by scale h <= 0."""
    if h > 0:
        raise ValueError(f"eta windows exist for h <= 0, got h={h}")
    if h == 0:
        return 0.0, 1.0
    return 4.0 ** (-h - 1), 4.0 ** (-h)


def scale_weight(h, D):
    """w_h(D) = integral of D e^{-eta D} over the scale-h window."""
    if h == 0:
        return -np.expm1(-np.asarray(D, dtype=float))
    return tail_weight(h, D) - tail_weight(h - 1, D)


def tail_weight(h, D):
    """w_<=h(D): everything at times beyond the scale-h window start."""
    a, _ = eta_window(h)
    return np.exp(-a * np.asarray(D, dtype=float))


# scale and tail weights and telescoping ladders per SpectralData, dropped with it
_WEIGHTS = weakref.WeakKeyDictionary()


def _kept(data, key, build):
    """build(), kept read-only in _WEIGHTS under `key` for the table `data`."""
    weights = _WEIGHTS.setdefault(data, {})
    if key not in weights:
        weights[key] = build()
        weights[key].setflags(write=False)
    return weights[key]


def _weight(geometry, couplings, h, tail=False):
    """w_h(D), or w_<=h(D) with `tail`, on the quarter of the modes for
    h* <= h <= 0; built once per spectral table and h, read-only."""
    if not h_star(geometry) <= h <= 0:
        raise ValueError(f"h={h} outside [{h_star(geometry)}, 0]")
    data = spectral_data(geometry, couplings)
    return _kept(data, (h, tail),
                 lambda: (tail_weight if tail else scale_weight)(h, data.D))


def single_scale_propagator(geometry, couplings, h, z, zp, deriv_z=(0, 0), deriv_zp=(0, 0)):
    """Scale-h cylinder propagator block, h* <= h <= 0.

    Same eigenmode sum as the full critical propagator with the w_h(D)
    weight inserted per mode; boundary cancellations survive because the
    weight is even in k2.  Site arrays give a (P, 2, 2) batch, as in
    `critical_propagator`.
    """
    return mode_sum(spectral_data(geometry, couplings), z, zp, _weight(geometry, couplings, h),
                    deriv_z, deriv_zp)


def tail_propagator(geometry, couplings, h, z, zp):
    """Infrared remainder g^{(<= h)} on the cylinder (batches as above)."""
    return mode_sum(spectral_data(geometry, couplings), z, zp,
                    _weight(geometry, couplings, h, True))


def telescoping_residual(geometry, couplings, z, zp, h=None):
    """max |g_c - g^{(<=h)} - sum_{j=h+1..0} g^{(j)}| per site pair, h* <= h <= 0.

    One `mode_sum` call evaluates the ladder [w_<=h, w_{h+1}, ..., w_0, 1],
    stacked once per spectral table and h.  Returns a float for one site
    pair, a (P,) array for (P, 2) site arrays.
    """
    if h is None:
        h = h_star(geometry)
    data = spectral_data(geometry, couplings)
    ladder = _kept(data, ("ladder", h), lambda: np.stack(
        [_weight(geometry, couplings, h, True)]
        + [_weight(geometry, couplings, j) for j in range(h + 1, 1)]
        + [np.ones_like(data.D)]))
    *pieces, full = mode_sum(data, z, zp, ladder)
    resid = np.max(np.abs(sum(pieces) - full), axis=(-2, -1))
    return float(resid) if resid.ndim == 0 else resid


# ---------------------------------------------------------------------------
# infinite-plane single-scale propagator (separable lattice heat kernels)
# ---------------------------------------------------------------------------

# Bernstein ellipse parameters tried by the eta-quadrature bound; rho = 3
# (index 6) is the ellipse of every h < 0 window that touches Re eta = 0
_BERNSTEIN_RHO = 3.0 * 2.0 ** (np.arange(-6, 25) / 4.0)
# DFT from samples at k = 2 pi j / 3 to the coefficients of e^{i k m}, m = -1, 0, 1
_DFT3 = np.exp(-2j * np.pi * np.outer(np.arange(-1, 2), np.arange(3)) / 3.0) / 3.0


def _separable_symbol(couplings):
    """(alpha, beta, coef): D(k) = alpha (1 - cos k1) + beta (1 - cos k2),
    and numerator entry e (pp, pm, mp, mm) is sum_m coef[e, m1 + 1, m2 + 1]
    e^{i k.m}, m in {-1, 0, 1}^2.  A 3 x 3 DFT of `symbol_numerator` is
    exact at this degree; coef is real as n(-k) = conj(n(k))."""
    alpha = dispersion(couplings, np.pi, 0.0) / 2.0
    beta = dispersion(couplings, 0.0, np.pi) / 2.0
    k = 2.0 * np.pi * np.arange(3) / 3.0
    num = np.array(symbol_numerator(couplings, k[:, None], k[None, :]))
    return alpha, beta, (_DFT3 @ num @ _DFT3.T).real


def _plane_error_bound(symbol, h, n_max, q, N=None):
    """Bound on |`_plane_heat_sum` - g_infinity^{(h)}| at |dz_i| < n_max, derived
    in `plane_block_batch`, for `symbol` = `_separable_symbol(couplings)`; the
    eta part alone for N None, infinite when a length-N table cannot hold
    |n| <= n_max."""
    alpha, beta, coef = symbol
    a, b = eta_window(h)
    mass = float(np.max(np.sum(np.abs(coef), axis=(1, 2))))
    rho = _BERNSTEIN_RHO
    reach = np.maximum(0.0, (b - a) * (rho + 1.0 / rho) / 4.0 - (a + b) / 2.0)
    log_growth = 2.0 * (alpha + beta) * reach - 2 * q * np.log(rho) - np.log(rho * rho - 1.0)
    bound = (b - a) / 2.0 * 64.0 / 15.0 * mass * math.exp(np.min(log_growth))
    if N is None:
        return bound
    if N // 2 < n_max:
        return math.inf
    m = N - n_max
    u = m / (b * np.array([alpha, beta]))
    root = np.sqrt(1.0 + u * u)
    # c (sqrt(1 + u^2) - 1) - m asinh u, written without cancellation
    e1, e2 = 2.0 * np.exp(-m * (np.arcsinh(u) - u / (1.0 + root))) / (1.0 - 1.0 / (u + root))
    return bound + (b - a) * mass * (e1 + e2 + e1 * e2)


def _least(ok, n):
    """The least integer >= n at which the monotone predicate ok holds."""
    lo, hi = n - 1, n
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _plane_quadrature(symbol, h, n_max):
    """The fewest nodes q whose eta bound is below PLANE_TOL, then the
    shortest table N that keeps the whole bound within PLANE_TOL."""
    q = _least(lambda q: _plane_error_bound(symbol, h, n_max, q) < PLANE_TOL, 1)
    N = _least(lambda N: _plane_error_bound(symbol, h, n_max, q, N) <= PLANE_TOL, 2 * n_max)
    return q, N


def _plane_heat_sum(symbol, h, dz, q, N):
    """g_infinity^{(h)} at (P, 2) displacements from q nodes and length-N tables."""
    alpha, beta, coef = symbol
    a, b = eta_window(h)
    x, w = np.polynomial.legendre.leggauss(q)
    c = np.multiply.outer((alpha, beta), 0.5 * (a + b) + 0.5 * (b - a) * x)   # (2, q)
    k = 2.0 * np.pi * np.arange(N) / N
    # table[i, j, n] = e^{-c} I_n(c) plus its aliases, c = c[i, j], n <= N/2
    table = np.fft.rfft(np.exp(-c[..., None] * (1.0 - np.cos(k))), axis=-1).real / N
    n = np.abs(dz[:, :, None] - np.arange(-1, 2))                      # (P, 2, 3)
    out = np.einsum("j,jpa,jpb,eab->pe", 0.5 * (b - a) * w, table[0][:, n[:, 0]],
                    table[1][:, n[:, 1]], coef, optimize=True)
    return out.reshape(-1, 2, 2)


def plane_block_batch(couplings, h, dzs):
    """g_infinity^{(h)} at many displacements, within PLANE_TOL a priori.

    D(k) = alpha (1 - cos k1) + beta (1 - cos k2), alpha = 2 (1 - t2)^2 and
    beta = 2 (1 - t1)^2; w_h(D)/D = int_a^b e^{-eta D} deta over the window
    [a, b) of scale h; (1/2 pi) int e^{-ikn} e^{-c (1 - cos k)} dk =
    e^{-c} I_n(c) (DLMF 10.32.3).  So each numerator entry sum_m c_m e^{ik.m}
    gives g^{(h)}(x) = int_a^b sum_m c_m T_alpha[x1 - m1] T_beta[x2 - m2] deta
    with T_c[n] = e^{-eta c} I_n(eta c): q Gauss-Legendre nodes in eta, each
    with tables from one real FFT of length N of e^{-eta c (1 - cos k)}.

    A priori bound (`_plane_error_bound`), with S = max_e sum_m |c_m|:
    - eta.  |T| <= 1 for Re eta >= 0, <= e^{2c |Re eta|} otherwise.  On the
      Bernstein ellipse E_rho of [a, b], reaching r into Re eta < 0, the
      integrand is <= S e^{r D_max}, D_max = 2 (alpha + beta), so q nodes
      err by <= ((b - a)/2) (64/15) S e^{r D_max} rho^{-2q}/(rho^2 - 1)
      (Trefethen, ATAP, Thm 19.3), least over a grid of rho; for h < 0 the
      window is [a, 4a] and rho = 3 touches Re eta = 0.
    - tables.  Length N returns sum_l T_c[n + lN] exactly, off by eps_c <=
      2 sum_{m >= N - n_max} T_c[m] for |n| <= n_max.  On Im k = -asinh u,
      u = m/c, T_c[m] <= exp(c (sqrt(1 + u^2) - 1) - m asinh u) (Trefethen
      & Weideman, SIAM Rev. 56, 385 (2014)), falling by e^{-asinh u} per
      step, so the tail sums as a geometric series; it grows with c, so
      c = b alpha, b beta covers every node.  As |T| <= 1 and the weights
      sum to b - a, the tables add <= (b - a) S (eps_a + eps_b + eps_a eps_b).
    q is the fewest nodes whose eta bound is below PLANE_TOL, N the shortest
    table keeping the sum within it (n_max = max |dz_i| + 1); rounding is
    not in the bound.

    Returns:
        (P, 2, 2) real array.
    """
    dz = np.asarray(dzs, dtype=int).reshape(-1, 2)
    n_max = int(np.max(np.abs(dz), initial=0)) + 1
    symbol = _separable_symbol(couplings)
    q, N = _plane_quadrature(symbol, h, n_max)
    return _plane_heat_sum(symbol, h, dz, q, N)


# ---------------------------------------------------------------------------
# bulk / edge decomposition
# ---------------------------------------------------------------------------


def bulk_edge_split(geometry, couplings, h, z, zp):
    """Split the scale-h cylinder propagator into (bulk, edge) blocks.

    The bulk part is ring_sign(dz1) g_infinity^{(h)}(per(dz1), dz2), one
    `plane_block_batch` call over the sorted distinct folded
    displacements of the batch; the edge part is g^{(h)}(z, z') minus the
    bulk, so bulk + edge reproduces g^{(h)} by construction.  The content
    of the decomposition is that the edge part decays in the boundary
    distance, which `edge_decay_report` quantifies.

    Returns:
        (bulk, edge): (2, 2) arrays for one site pair, (P, 2, 2) arrays
        for (P, 2) site arrays.
    """
    single = np.shape(z) == (2,)
    z, zp = geometry.site_arrays(z, zp, extended=True)
    full = single_scale_propagator(geometry, couplings, h, z, zp)
    dz1 = z[:, 0] - zp[:, 0]
    folded = np.stack([per_range(dz1, geometry.L), z[:, 1] - zp[:, 1]], axis=1)
    needed, index = np.unique(folded, axis=0, return_inverse=True)
    plane = plane_block_batch(couplings, h, needed)[index.ravel()]
    bulk = ring_sign(dz1, geometry.L)[:, None, None] * plane
    edge = full - bulk
    return (bulk[0], edge[0]) if single else (bulk, edge)


# ---------------------------------------------------------------------------
# decay-bound fits
# ---------------------------------------------------------------------------


def _decay_samples(h, dist, blocks):
    """(2^h d, sup |block|) for every block at or above _FIT_NOISE_FLOOR."""
    n = np.max(np.abs(blocks), axis=(-2, -1))
    keep = n >= _FIT_NOISE_FLOOR
    return list(zip(2.0 ** h * np.asarray(dist, dtype=float)[keep], n[keep]))


def _fit_exponential(samples):
    """_FIT_SHRINK times the least-squares c in log n = const - c x."""
    if len(samples) < 3:
        raise ValueError("not enough nonzero samples for a decay fit")
    xs, ns = np.array(samples).T
    coef, *_ = np.linalg.lstsq(np.vstack([np.ones_like(xs), -xs]).T, np.log(ns), rcond=None)
    return _FIT_SHRINK * coef[1]


def _envelope(h, c, samples):
    """Report row: the least C with n <= C 2^h e^{-c x} on every sample (x, n)."""
    logC = max(math.log(n) - h * math.log(2.0) + c * x for x, n in samples)
    resid = max(math.log(n) - (logC + h * math.log(2.0) - c * x) for x, n in samples)
    return dict(h=h, fitted_C=math.exp(logC), fitted_c=c, max_residual=resid,
                n_samples=len(samples))


_FIT_SHRINK = 0.9
_FIT_X_RANGE = (0.5, 4.0)
_FIT_NOISE_FLOOR = 1e-8


def _bulk_sample_displacements(h):
    """l1 shells along fixed directions, covering the same rescaled
    distance range 2^h |dz|_1 in [0.5, 4] at every scale.

    A fixed rescaled window keeps the per-scale envelopes comparable (the
    scale-h propagator is approximately self-similar in 2^h dz) and keeps
    every sampled value well above the quadrature tolerance; far samples
    would otherwise be pure quadrature noise at shallow scales.
    """
    dists = {int(round(x * 2.0 ** (-h))) for x in np.linspace(*_FIT_X_RANGE, 10)} - {0}
    dzs = {(round(d * ux / (ux + uy)), round(d * uy / (ux + uy)))
           for d in dists for ux, uy in ((1, 0), (0, 1), (1, 1), (2, 1))}
    return sorted(dzs - {(0, 0)})


def bulk_decay_report(couplings, h_list):
    """Fit C, c in  sup|g_inf^{(h)}(dz)| <= C 2^h exp(-c 2^h |dz|_1).

    The rate c is fitted per scale by least squares and the smallest
    (shrunk) value is shared across scales; C is then the smallest
    constant making every sample margin nonnegative, reported per scale
    so stability in h can be checked.

    Returns:
        list of dicts {h, fitted_C, fitted_c, max_residual, n_samples}.
    """
    per_h = {}
    for h in h_list:
        dzs = _bulk_sample_displacements(h)
        per_h[h] = _decay_samples(h, np.abs(dzs).sum(axis=1),
                                  plane_block_batch(couplings, h, dzs))
    c = min(_fit_exponential(s) for s in per_h.values())
    if c <= 0:
        raise AssertionError(f"fitted decay rate nonpositive: {c}")
    return [_envelope(h, c, samples) for h, samples in per_h.items()]


class SampleDepthError(ValueError):
    """The edge decay fit cannot place its sample pairs at a requested
    depth h: the cylinder is too small for edge distances of order 2^-h."""


_EDGE_RATE_X_RANGE = (1.0, 2.5)
_EDGE_AMP_X_RANGE = (1.0, 1.5)
_EDGE_PER_DISTANCE = 5


def _edge_sample_pairs(geometry, h, rng, window):
    """Pairs whose edge distance d covers a rescaled window, up to
    _EDGE_PER_DISTANCE per d = max(2, round(x 2^-h)), x at eight points of
    the window, from at most 60 tries.  A try realizes d through the
    boundary branch, a ring offset d - b plus a combined boundary depth b
    in [max(2, d - L/8), min(d, 2M - 1)]: rejection sampling would almost
    never land near the boundary at shallow scales on a large cylinder, and
    the offset below L/8 keeps the wrap-around branch from binding.
    """
    L, M = geometry.L, geometry.M
    pairs = []
    for x in np.linspace(*window, 8):
        d = max(2, int(round(x * 2.0 ** (-h))))
        lo, hi = max(2, d - L // 8), min(d, 2 * M - 1)
        placed = attempts = 0
        while lo <= hi and placed < _EDGE_PER_DISTANCE and attempts < 60:
            attempts += 1
            b = int(rng.integers(lo, hi + 1))
            u = max(1, min(M, int(rng.integers(1, b))))
            if not 1 <= b - u <= M:
                continue
            z1 = int(rng.integers(1, L + 1))
            w1 = (z1 - 1 + d - b) % L + 1
            z, zp = (z1, u), (w1, b - u)
            if rng.random() >= 0.5:
                z, zp = (z1, M + 1 - u), (w1, M + 1 - b + u)
            if geometry.edge_distance(z, zp) == d:
                pairs.append((z, zp))
                placed += 1
    if len(pairs) < 12:
        raise SampleDepthError(f"could not place enough edge samples at h = {h} on "
                               f"{L} x {M}; use shallower depths")
    return pairs


def _edge_samples(geometry, couplings, h, pairs):
    _, edge = bulk_edge_split(geometry, couplings, h,
                              [z for z, _ in pairs], [zp for _, zp in pairs])
    return _decay_samples(h, [geometry.edge_distance(z, zp) for z, zp in pairs], edge)


def edge_decay_report(geometry, couplings, h_list, seed=0):
    """Fit C, c in  sup|edge^{(h)}(z, z')| <= C 2^h exp(-c 2^h d_E(z, z')).

    The rate is fitted on the shallowest three scales over a wide
    rescaled window, where wrap-around images are negligible against the
    boundary signal; the per-scale envelope constants are then compared
    on a narrow window common to all scales.  Near the bottom scale
    (2^-h approaching L/2) wrap images contaminate large rescaled
    distances, which would tilt a fit done there.
    """
    rng = np.random.default_rng(seed)
    rate_samples = {h: _edge_samples(geometry, couplings, h, _edge_sample_pairs(
        geometry, h, rng, _EDGE_RATE_X_RANGE)) for h in sorted(h_list, reverse=True)[:3]}
    c = min(_fit_exponential(s) for s in rate_samples.values())
    if c <= 0:
        raise AssertionError(f"fitted edge decay rate nonpositive: {c}")
    reports = [_envelope(h, c, _edge_samples(geometry, couplings, h, _edge_sample_pairs(
        geometry, h, rng, _EDGE_AMP_X_RANGE)) + rate_samples.get(h, [])) for h in h_list]
    return sorted(reports, key=lambda r: r["h"])


def tail_bound_report(geometry, couplings, h_list):
    """C_h in  sup_{z,z'} |g^{(<=h)}(z, z')| <= C_h 2^h, per scale, in closed form.

    Entry a of a block sums w_<=h trans_a and w_<=h image_a over all L M
    modes, times plane waves and the ring factor, of modulus 1, and the
    four quadrants of the modes carry equal moduli (the sigma symmetry of
    the `spectral` docstring).  So at every site pair, the extended rows 0
    and M + 1 included, |g^{(<=h)}_a| <= 4 sum_quarter w_<=h (|trans_a| +
    |image_a|): one quarter reduction per scale, as in `gram_norms`, and
    C_h is 2^-h times the largest entry.  Nothing is sampled or fitted:
    fitted_c and max_residual are 0, and n_samples is (L M)^2, the number
    of site pairs covered.
    """
    data = spectral_data(geometry, couplings)
    size = (np.abs(data.trans) + np.abs(data.image)).reshape(-1, 4)
    return [dict(h=h, fitted_C=4.0 * 2.0 ** (-h) * float(np.max(
                     _weight(geometry, couplings, h, True).reshape(-1) @ size)),
                 fitted_c=0.0, max_residual=0.0, n_samples=(geometry.L * geometry.M) ** 2)
            for h in h_list]


# ---------------------------------------------------------------------------
# Gram representation
# ---------------------------------------------------------------------------


# phase of the # = - slice per side; the # = + slice has phase 1
_SHARP_PHASE = {"left": -1j, "right": 1j}
# modes per block of k1 rows in `gram_report` (three orders take 6 MB a side)
_GRAM_BLOCK = 1 << 14
# scales of the norm-vs-h slope that `gram_report` fits at s = 0
GRAM_SLOPE_HS = (-1, -2, -3, -4)


def gram_rows(geometry, couplings, z, side, orders, part=slice(None)):
    """Weight-1 Gram rows at site z, one per derivative order.

    Slot sigma carries the principal square root of table entry sigma
    (pp, pm, mp, mm) of the translation-invariant (# = +) and image (# = -)
    terms times the plane wave and the derivative multipliers; the # = -
    slice is phased -i on the left and +i on the right, absorbing the image
    sign.  The Gram vector of species omega is the part on the slots it
    fills, (omega, .) on the left and (., omega) on the right
    (`gram_vector`), so a left and a right vector share the one slot
    (omega, omega').  Mode by mode their product is the summand of the
    direct mode sum, so the rows live on the quarter k1 > 0, q2 = +k2;
    `gram_inner` weights and folds them.

    Args:
        side: "left" for the first (conjugated) factor, "right" for the
            second.
        orders: derivative multi-orders (s1, s2), each in {0, 1, 2}.
        part: the k1 rows of the quarter to keep, all by default.

    Returns:
        (ring, vec): row s is ring[s, k1] vec[s, sigma, #, k1, k2], ring
        (S, n) and vec (S, 4, 2, n, M) complex.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    data = spectral_data(geometry, couplings)
    left = side == "left"
    k1, k2 = data.k1[part], data.roots[part]
    ring = np.array([np.exp(1j * k1 * z[0]) * forward_difference(k1, s[0]) for s in orders])
    vec = np.empty((len(orders), 4, 2) + k2.shape, dtype=complex)
    for sharp, table in enumerate((data.trans, data.image)):
        # the right image row carries the reflected momentum -k2
        q = -k2 if sharp and not left else k2
        wave = np.exp(1j * q * z[1]) * (_SHARP_PHASE[side] if sharp else 1.0)
        root = np.moveaxis(np.sqrt(table[part]), -1, 0)
        root = np.conj(root) if left else root
        for r, s in enumerate(orders):
            np.multiply(root, wave * forward_difference(q, s[1]), out=vec[r, :, sharp])
    return ring, vec


def gram_vector(geometry, couplings, h, omega, s, z, side):
    """The scale-h Gram vector (ring, vec) of species omega and order s at
    z: the slots of `gram_rows` that omega fills, times sqrt(w_h)."""
    ring, vec = gram_rows(geometry, couplings, z, side, [s])
    e = int(omega < 0)
    slots = slice(2 * e, 2 * e + 2) if side == "left" else slice(e, None, 2)
    return ring[0], vec[0, slots] * np.sqrt(_weight(geometry, couplings, h))


def gram_inner(left, right, weights):
    """(H, S, 2, S', 2) products <left_(s, omega), w right_(s', omega')> of
    the rows of `gram_rows` at two sites, on the k1 rows they hold, for an
    (H, n, M) stack of weights w.

    Per k1 row, Y sums over k2 and # the products on the shared slot
    (omega, omega'); `quarter_fold` adds the rows at -k1 and q2 = -k2.
    """
    (ring_l, vec_l), (ring_r, vec_r) = left, right
    H, n, M = weights.shape
    prod = (np.conj(vec_l[:, None]) * vec_r).sum(axis=3)                # (S, S', 4, n, M)
    S, S2 = prod.shape[:2]
    ys = np.matmul(weights.transpose(1, 0, 2), prod.reshape(-1, n, M).transpose(1, 2, 0))
    ys = ys.reshape(n, H, S, S2, 4).transpose(1, 2, 3, 0, 4)[..., None, :]  # (H, S, S', n, 1, 4)
    ring = 4.0 * (np.conj(ring_l)[:, None] * ring_r)[..., None, :]      # (S, S', 1, n)
    return quarter_fold(ring, ys).reshape(H, S, S2, 2, 2).transpose(0, 1, 3, 2, 4)


def gram_norms(geometry, couplings, hs, orders):
    """(len(hs), S, 2) squared norms of the Gram vectors of orders s and
    species omega at the scales hs.

    The plane wave has modulus 1, |sqrt a|^2 = |a|, and |pm| = |mp|,
    |pp| = |mm| in both tables, so a norm depends on neither the site nor
    the side: one quarter reduction per (h, s, omega),
    4 sum w_h |e^{i k1} - 1|^{2 s1} |e^{i k2} - 1|^{2 s2}
    sum_{sigma in (omega, .)} (|trans_sigma| + |image_sigma|).
    """
    data = spectral_data(geometry, couplings)
    half, M = data.D.shape
    size = (np.abs(data.trans) + np.abs(data.image)).reshape(half, M, 2, 2).sum(-1)
    terms = np.array([np.abs(forward_difference(data.k1[:, None, None], s[0])
                             * forward_difference(data.roots[:, :, None], s[1])) ** 2 * size
                      for s in orders]).reshape(len(orders), -1, 2)
    weights = np.array([scale_weight(h, data.D) for h in hs]).reshape(len(hs), -1)
    return 4.0 * np.matmul(weights, terms).transpose(1, 0, 2)


def gram_report(geometry, couplings, h_list, n_pairs=4, seed=0):
    """Verify the Gram representation and measure its norm scaling.

    For `n_pairs` random site pairs and all derivative orders with
    |s|_1, |s'|_1 <= 1, compares `gram_inner` of the left and right rows
    with the directly computed derivative blocks of g^{(h)}, h in h_list.
    Both stack the scales: a site's rows are built once, with weight 1 and in
    blocks of k1 rows, and their products weighted by every w_h; the direct
    blocks are one weight-stacked `mode_sum` per (s, s').  The closed-form
    norms (`gram_norms`) give the Cauchy-Schwarz margins and the slope of
    log2 |gamma|^2 against h at s = 0, where the Gram bound says
    |gamma|^2 <= C 2^h.

    Returns:
        dict with max reconstruction error, worst Cauchy-Schwarz margin
        (nonnegative means the bound holds), fitted norm-vs-h slope, n_pairs.
    """
    rng = np.random.default_rng(seed)
    L, M = geometry.L, geometry.M
    pairs = [
        ((int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))),
         (int(rng.integers(1, L + 1)), int(rng.integers(1, M + 1))))
        for _ in range(n_pairs)
    ]
    orders = [(0, 0), (1, 0), (0, 1)]
    weights = np.stack([_weight(geometry, couplings, h) for h in h_list])
    zs, zps = np.array(pairs).transpose(1, 0, 2)
    # direct[h, p, (s, omega), (s', omega')]
    direct = np.array([[mode_sum(spectral_data(geometry, couplings), zs, zps, weights, s, sp)
                        for sp in orders] for s in orders])
    direct = direct.transpose(2, 3, 0, 4, 1, 5).reshape(len(h_list), len(pairs), 6, 6)
    rec = np.zeros_like(direct)
    step = max(1, _GRAM_BLOCK // M)
    for p, (z, zp) in enumerate(pairs):
        for part in (slice(lo, lo + step) for lo in range(0, L // 2, step)):
            rec[:, p] += gram_inner(gram_rows(geometry, couplings, z, "left", orders, part),
                                    gram_rows(geometry, couplings, zp, "right", orders, part),
                                    weights[:, part]).reshape(len(h_list), 6, 6)
    norms = np.sqrt(gram_norms(geometry, couplings, h_list, orders)).reshape(len(h_list), 6)
    plain = gram_norms(geometry, couplings, GRAM_SLOPE_HS, [(0, 0)])[:, 0, 0]  # s = 0, omega = +1
    slope = np.polyfit(GRAM_SLOPE_HS, np.log2(plain), 1)
    return dict(
        max_reconstruction_error=float(np.max(np.abs(rec - direct))),
        min_cauchy_schwarz_margin=float(np.min(
            norms[:, None, :, None] * norms[:, None, None, :] - np.abs(rec))),
        norm_slope=float(slope[0]),
        n_pairs=n_pairs,
    )
