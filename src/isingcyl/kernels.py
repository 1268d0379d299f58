"""Localization and interpolation calculus on Grassmann kernels.

A kernel is a finite real-valued map on field multilabels: ordered even
tuples of (omega, D, z) with omega in {+1, -1}, D a pair of forward
difference orders with |D|_1 <= 2, and z a site of the integer plane.
The calculus splits a kernel into a local part built from the few
marginal and relevant monomials and an interpolated remainder carrying
one extra discrete derivative, with norm inequalities (checked here
exactly on the finite support) controlling the remainder.

Translation-invariant kernels are stored anchored: every multilabel is
shifted so the first position is the origin, and the invariance is a
certificate established by `certify_translation_invariance` (an
exhaustive consistency test over the support), never an assumption.
The localization and renormalization operators require the certificate.

All merging steps accumulate contributions per target label (for
symmetrization, per canonical field ordering) and reduce them with
`math.fsum`, dividing by the symmetry-group order only at the end.
Structural cancellations (repeated labels under permutation
antisymmetrization, reflection-odd components) therefore come out as
exact floating-point zeros, not small residues.

The module also carries an independent oracle for kernel equivalence:
multilabels are expanded into elementary wedge monomials (finite
differences written out pointwise, fields sorted with permutation
signs, repeated fields dropped), under which equivalent kernels have
identical coefficient maps.
"""

from __future__ import annotations

import functools
import itertools
import math

from .lattice import STEINER_MAX_POINTS, steiner_length

DERIV_SET = tuple((a, b) for a in range(3) for b in range(3) if a + b <= 2)

INTERPOLATED_SECTORS = ((2, 0), (2, 1), (4, 0))

_ORIGIN = (0, 0)


def _check_label(label):
    omega, d, z = label
    if omega not in (1, -1):
        raise ValueError(f"omega must be +-1, got {omega}")
    if tuple(d) not in DERIV_SET:
        raise ValueError(f"derivative label {d} outside the allowed set")
    return (omega, (int(d[0]), int(d[1])), (int(z[0]), int(z[1])))


def _anchor(multilabel):
    """Shift positions so the first field sits at the origin."""
    x0, y0 = multilabel[0][2]
    if x0 == 0 and y0 == 0:
        return multilabel
    return tuple((om, d, (z[0] - x0, z[1] - y0)) for om, d, z in multilabel)


def _sector_of(multilabel):
    n = len(multilabel)
    p = sum(d[0] + d[1] for _, d, _ in multilabel)
    return n, p


class Kernel:
    """Sparse kernel: finite map from field multilabels to reals.

    translation_invariant marks the map as the anchored representative
    of a translation-invariant kernel.  The flag is set by anchored
    construction or by `certify_translation_invariance`, and every
    operator here preserves it, re-anchoring after label motions.
    """

    def __init__(self, translation_invariant=False):
        self._data = {}
        self.translation_invariant = translation_invariant

    @classmethod
    def _from_buffer(cls, buffer, translation_invariant):
        out = cls(translation_invariant)
        for key, vals in buffer.items():
            total = math.fsum(vals)
            if total != 0.0:
                out._data[key] = total
        return out

    def _bufkey(self, multilabel):
        return _anchor(multilabel) if self.translation_invariant else multilabel

    def add(self, multilabel, value):
        labels = tuple(_check_label(l) for l in multilabel)
        if len(labels) % 2:
            raise ValueError("multilabels must have even length")
        labels = self._bufkey(labels)
        new = self._data.get(labels, 0.0) + value
        if new == 0.0:
            self._data.pop(labels, None)
        else:
            self._data[labels] = new

    def items(self):
        return self._data.items()

    def __len__(self):
        return len(self._data)

    def value(self, multilabel):
        key = tuple(multilabel)
        if self.translation_invariant:
            key = _anchor(key)
        return self._data.get(key, 0.0)

    def sectors(self):
        return sorted({_sector_of(k) for k in self._data})

    def sector(self, n, p):
        out = Kernel(self.translation_invariant)
        for k, v in self._data.items():
            if _sector_of(k) == (n, p):
                out._data[k] = v
        return out

    def plus(self, other):
        if self.translation_invariant != other.translation_invariant:
            raise ValueError("cannot mix anchored and literal kernels")
        buffer = {}
        for k, v in self._data.items():
            buffer.setdefault(k, []).append(v)
        for k, v in other._data.items():
            buffer.setdefault(k, []).append(v)
        return Kernel._from_buffer(buffer, self.translation_invariant)

    def max_abs_diff(self, other):
        keys = set(self._data) | set(other._data)
        return max((abs(self._data.get(k, 0.0) - other._data.get(k, 0.0))
                    for k in keys), default=0.0)

    def max_abs(self):
        return max(map(abs, self._data.values()), default=0.0)


def certify_translation_invariance(kernel):
    """Anchor a literal kernel after an exhaustive shift consistency test.

    Entries that are translates of one another must carry equal values;
    any contradiction raises.  The result carries the certificate flag.
    Already-certified kernels pass through unchanged.
    """
    if kernel.translation_invariant:
        return kernel
    out = Kernel(translation_invariant=True)
    for key, v in kernel.items():
        ak = _anchor(key)
        prev = out._data.get(ak)
        if prev is not None and prev != v:
            raise ValueError(f"translation-inconsistent values at {ak}: "
                             f"{prev} vs {v}")
        out._data[ak] = v
    return out


# ---------------------------------------------------------------------------
# collapse and the canonical interpolation paths


def localize_collapse(kernel, n=None, p=None):
    """Collapse every position onto the first one, optionally sector-wise.

    The output at (z1, ..., z1) is the sum of the kernel over all
    position tuples sharing z1 (with the same omega and derivative
    labels).  With n, p given, only that sector is collapsed.
    """
    buffer = {}
    for key, v in kernel.items():
        if n is not None and _sector_of(key) != (n, p):
            continue
        z1 = key[0][2]
        collapsed = kernel._bufkey(tuple((om, d, z1) for om, d, _ in key))
        buffer.setdefault(collapsed, []).append(v)
    return Kernel._from_buffer(buffer, kernel.translation_invariant)


def canonical_path(z, zp):
    """Staircase from z to z': horizontal segment first, then vertical.

    Coincident endpoints give the empty path.
    """
    if tuple(z) == tuple(zp):
        return ()
    x, y = z
    path = [(x, y)]
    step = 1 if zp[0] > x else -1
    while x != zp[0]:
        x += step
        path.append((x, y))
    step = 1 if zp[1] > y else -1
    while y != zp[1]:
        y += step
        path.append((x, y))
    return tuple(path)


def _int_steps(z, zp):
    """Interpolation elements along the canonical path.

    Yields (sigma, d, y): one per path step, where d is the unit
    derivative label, y the site carrying it, and sigma +1 when the
    step runs along +d (the difference at y spans the step), -1 when
    it runs along -d (the difference at the far endpoint does).
    """
    path = canonical_path(z, zp)
    for a, b in zip(path, path[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx + dy > 0:
            yield 1.0, (abs(dx), abs(dy)), a
        else:
            yield -1.0, (abs(dx), abs(dy)), b


def interpolation_elements(ztuple):
    """The interpolation set of a position tuple: (sigma, D', y) triples.

    For a pair, the second field is interpolated along the canonical
    path from z1 to z2.  For a quadruple, the collapse telescopes one
    field at a time: field 2 with fields 3 and 4 in place, then field 3
    with field 2 already collapsed, then field 4 with everything else
    collapsed.  Fields already at z1 contribute nothing (empty paths).
    """
    n = len(ztuple)
    z1 = ztuple[0]
    if n == 2:
        for sig, d, y in _int_steps(z1, ztuple[1]):
            yield sig, (_ORIGIN, d), (z1, y)
    elif n == 4:
        z2, z3, z4 = ztuple[1], ztuple[2], ztuple[3]
        for sig, d, y in _int_steps(z1, z2):
            yield sig, (_ORIGIN, d, _ORIGIN, _ORIGIN), (z1, y, z3, z4)
        for sig, d, y in _int_steps(z1, z3):
            yield sig, (_ORIGIN, _ORIGIN, d, _ORIGIN), (z1, z1, y, z4)
        for sig, d, y in _int_steps(z1, z4):
            yield sig, (_ORIGIN, _ORIGIN, _ORIGIN, d), (z1, z1, z1, y)
    else:
        raise ValueError(f"interpolation is defined for n in {{2, 4}}, not {n}")


def interpolate_remainder(kernel, n, p):
    """The interpolated remainder of the collapse on the (n, p) sector.

    Every support entry is spread over its interpolation elements with
    the step sign, the unit derivative landing on top of the moved
    field's own label; the output lies entirely in sector (n, p+1) and
    is equivalent (as a Grassmann form) to the sector minus its
    collapse.
    """
    if (n, p) not in INTERPOLATED_SECTORS:
        raise ValueError(f"interpolation not defined on sector {(n, p)}")
    buffer = {}
    for key, v in kernel.items():
        if _sector_of(key) != (n, p):
            continue
        zt = tuple(z for _, _, z in key)
        for sig, dprime, yt in interpolation_elements(zt):
            labels = tuple(
                (om, (d[0] + dp[0], d[1] + dp[1]), y)
                for (om, d, _), dp, y in zip(key, dprime, yt)
            )
            buffer.setdefault(kernel._bufkey(labels), []).append(sig * v)
    return Kernel._from_buffer(buffer, kernel.translation_invariant)


# ---------------------------------------------------------------------------
# the symmetrization operator


def _reflect_label(label, axis):
    """Reflect one field label; returns (label', scalar factor).

    Axis 1 flips the first coordinate (omega unchanged, factor -1 for
    omega = -1 times (-1)^d1); axis 2 flips the second and swaps omega
    (factor (-1)^d2).  Forward differences reflect to backward ones,
    hence the extra -d offset in the flipped coordinate.
    """
    om, d, z = label
    if axis == 1:
        factor = (-1.0 if om == -1 else 1.0) * (-1.0) ** d[0]
        return (om, d, (-z[0] - d[0], z[1])), factor
    factor = (-1.0) ** d[1]
    return (-om, d, (z[0], -z[1] - d[1])), factor


def _reflect_entry(key, axes):
    """Pushforward of one entry under a product of axis reflections.

    Each reflection contributes the per-field factors and a global sign
    (-1)^(n/2), the real value of i^n for even n.
    """
    factor = 1.0
    labels = key
    for axis in axes:
        factor *= (-1.0) ** (len(key) // 2)
        moved = []
        for label in labels:
            lab, f = _reflect_label(label, axis)
            factor *= f
            moved.append(lab)
        labels = tuple(moved)
    return labels, factor


def _perm_sign(items):
    """Sign of the permutation sorting distinct items: (-1)^inversions."""
    inversions = sum(a > b for a, b in itertools.combinations(items, 2))
    return -1.0 if inversions % 2 else 1.0


def _sorted_with_sign(items):
    """Items in ascending order and the sorting sign; (None, 0.0) on a repeat."""
    ordered = tuple(sorted(items))
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        return None, 0.0
    return ordered, _perm_sign(items)


@functools.cache
def _signed_orderings(n):
    return tuple((perm, _perm_sign(perm))
                 for perm in itertools.permutations(range(n)))


def symmetrize(kernel):
    """Average over field permutations (signed) and the four reflections.

    The group has order 4 n!.  Each reflected image of an entry is sorted
    into canonical field order with the sorting sign, and dropped if a
    label repeats.  Per canonical entry the sum is divided once by 4 n!
    and written at all n! orderings with their signs.  Translation keeps
    the order, so anchored canonical entries label whole orbits.

    On translation-invariant kernels this never increases the weighted
    norm of an underived sector, and never increases any sector norm at
    rate zero.  Sectors carrying p derivative units obey the slightly
    weaker bound with factor e^(rate * p): reflecting a forward
    difference re-bases its stencil, moving support points by up to
    their difference order and lengthening the tree distance by at
    most p.
    """
    buffer = {}
    for key, v in kernel.items():
        for axes in ((), (1,), (2,), (1, 2)):
            labels, factor = _reflect_entry(key, axes)
            ordered, sign = _sorted_with_sign(labels)
            if ordered is not None:
                buffer.setdefault(kernel._bufkey(ordered), []).append(
                    sign * factor * v)
    out = Kernel(kernel.translation_invariant)
    for ordered, vals in buffer.items():
        n = len(ordered)
        total = math.fsum(vals) / (4 * math.factorial(n))
        if total != 0.0:
            for perm, sign in _signed_orderings(n):
                out._data[kernel._bufkey(tuple(ordered[i] for i in perm))] = (
                    sign * total)
    return out


# ---------------------------------------------------------------------------
# the localization and renormalization operators


def _require_certified(kernel):
    if not kernel.translation_invariant:
        raise ValueError("operator requires a certified translation-invariant "
                         "kernel; run certify_translation_invariance first")


def localization_operator(kernel):
    """The local part of a kernel, by output sector:

        (2, 0): the symmetrized collapse of the (2, 0) sector;
        (2, 1): the symmetrized collapse of the (2, 1) sector plus the
                collapse of the interpolated remainder of the (2, 0) one;
        everything else: zero.  The quadratic outputs exhaust the
        nonnegative scaling dimensions; the quartic local part cancels
        identically under antisymmetrization (two omega values cannot
        fill four coincident underived fields without repetition).
    """
    _require_certified(kernel)
    local20 = symmetrize(localize_collapse(kernel, 2, 0))
    spread = interpolate_remainder(kernel, 2, 0)
    local21 = symmetrize(
        localize_collapse(kernel, 2, 1).plus(localize_collapse(spread)))
    return local20.plus(local21)


def _interpolations(kernel):
    """Interpolated remainders and the renormalized (2, 2), (4, 1) blocks.

    Returns (once, twice, renormalized): the interpolated remainder of
    each sector in INTERPOLATED_SECTORS, the (2, 0) sector interpolated
    twice, and the symmetrized renormalized blocks keyed by sector.
    """
    once = {(n, p): interpolate_remainder(kernel, n, p)
            for n, p in INTERPOLATED_SECTORS}
    twice = interpolate_remainder(once[(2, 0)], 2, 1)
    renormalized = {
        (2, 2): symmetrize(kernel.sector(2, 2).plus(once[(2, 1)]).plus(twice)),
        (4, 1): symmetrize(kernel.sector(4, 1).plus(once[(4, 0)])),
    }
    return once, twice, renormalized


def renormalization_operator(kernel):
    """The renormalized remainder, by output sector:

        (2,0), (2,1), (4,0): zero;
        (2,2): symmetrized V_{2,2} plus the once-interpolated (2,1)
               sector plus the twice-interpolated (2,0) sector;
        (4,1): symmetrized V_{4,1} plus the interpolated (4,0) sector;
        every other sector: passed through unchanged.
    """
    _require_certified(kernel)
    _, _, renormalized = _interpolations(kernel)
    replaced = set(INTERPOLATED_SECTORS) | set(renormalized)
    passed = [kernel.sector(n, p) for n, p in kernel.sectors() if (n, p) not in replaced]
    out = Kernel(translation_invariant=True)
    for part in passed + list(renormalized.values()):
        out._data.update(part.items())
    return out


# ---------------------------------------------------------------------------
# the marginal and relevant local monomials


def mass_monomial():
    """Symmetrized local pairing of opposite-omega fields."""
    k = Kernel(translation_invariant=True)
    for om in (1, -1):
        k.add(((om, _ORIGIN, _ORIGIN), (-om, _ORIGIN, _ORIGIN)), om / 2.0)
    return symmetrize(k)


def kinetic_monomial(direction):
    """Symmetrized local field-times-derivative pairing.

    Direction 1 pairs equal omegas through the symmetric horizontal
    difference, direction 2 opposite omegas through the vertical one
    (each symmetric difference splits into forward differences at the
    site and at the shifted site, both with weight one half).
    """
    if direction == 1:
        d, shift, swap = (1, 0), (-1, 0), 1
    elif direction == 2:
        d, shift, swap = (0, 1), (0, -1), -1
    else:
        raise ValueError("direction must be 1 or 2")
    k = Kernel(translation_invariant=True)
    for om in (1, -1):
        weight = om / 2.0 if direction == 1 else 0.5
        k.add(((om, _ORIGIN, _ORIGIN), (swap * om, d, _ORIGIN)), weight)
        k.add(((om, _ORIGIN, _ORIGIN), (swap * om, d, shift)), weight)
    return symmetrize(k)


def span_projection(kernel, basis):
    """Least-squares coefficients of the kernel in the given basis.

    Returns (coefficients, sup-norm residual), exact on the finite
    union support.
    """
    import numpy as np

    keys = set(k for k, _ in kernel.items())
    for b in basis:
        keys |= set(k for k, _ in b.items())
    if not keys:
        return [0.0] * len(basis), 0.0
    keys = sorted(keys)
    a = np.array([[b.value(k) for b in basis] for k in keys])
    y = np.array([kernel.value(k) for k in keys])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.max(np.abs(a @ coef - y)))
    return [float(c) for c in coef], resid


# ---------------------------------------------------------------------------
# weighted norms and the interpolation bounds


def _tree_distance(ztuple):
    distinct = set(ztuple)
    return steiner_length(distinct) if len(distinct) > 1 else 0


def _norm_table(kernel, n, p):
    """Rate-independent norm data for one sector, checked to lie in the
    domain of `weighted_norm` before any Steiner length is taken.

    Returns {(omega-tuple, z1): [(delta, magnitude), ...]} with the sup
    over derivative labels already folded into the magnitudes.
    """
    sup_over_derivs = {}
    for key, v in kernel.items():
        if _sector_of(key) != (n, p):
            continue
        om = tuple(l[0] for l in key)
        zt = tuple(l[2] for l in key)
        if len(set(zt)) > STEINER_MAX_POINTS:
            raise ValueError(f"sector ({n}, {p}) has an entry on {len(set(zt))} distinct sites; "
                             f"the closed-form Steiner length covers at most {STEINER_MAX_POINTS}")
        k = (om, zt)
        sup_over_derivs[k] = max(sup_over_derivs.get(k, 0.0), abs(v))
    groups = {}
    for (om, zt), mag in sup_over_derivs.items():
        groups.setdefault((om, zt[0]), []).append((_tree_distance(zt), mag))
    return groups


def _evaluate_norm(table, rate):
    return max((math.fsum(math.exp(rate * d) * m for d, m in entries)
                for entries in table.values()), default=0.0)


def _check_rate(rate):
    if not (rate >= 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")


def weighted_norm(kernel, n, p, rate):
    """Weighted mass of the (n, p) sector:

        sup over omega-tuples and z1 of the sum, over position tuples
        sharing z1, of e^(rate * delta(z)) times the sup over
        derivative labels of |V|,

    with delta the rectilinear Steiner length of the distinct points.
    Defined when every entry of the sector sits on at most
    STEINER_MAX_POINTS = 4 distinct sites (the closed form of
    `lattice.steiner_length`), as all n <= 4 sectors do; ValueError else.
    """
    _check_rate(rate)
    return _evaluate_norm(_norm_table(kernel, n, p), rate)


def interpolation_bound_reports(kernel, combos):
    """Margins of the interpolation norm inequalities, batched.

    Single-step: the interpolated remainder of an (n, p) sector at the
    base rate is bounded by (n-1)/rate_step times the input norm at
    rate + rate_step.  Double-step: the twice-interpolated (2, 0)
    sector is bounded by rate_step^-2 times the input norm at
    rate + 2 rate_step.  Composite: the renormalized (2, 2) and (4, 1)
    blocks are bounded by the corresponding sums of input norms.  Both
    sides are evaluated exactly on the finite support.

    The interpolations and renormalized blocks do not depend on the
    rates, so they are computed once and re-measured per combination.

    Returns:
        list of dicts, one per (rate, rate_step) pair, mapping bound
        names to (value, bound, margin) triples; every margin must be
        nonnegative.
    """
    _require_certified(kernel)
    for rate, rate_step in combos:
        _check_rate(rate)
        if not (rate_step > 0 and math.isfinite(rate_step)):
            raise ValueError(
                f"rate_step must be finite and positive, got {rate_step}")
    once, twice, renormalized = _interpolations(kernel)
    single = {}
    input_tables = {}
    for n, p in INTERPOLATED_SECTORS:
        input_tables[(n, p)] = _norm_table(kernel, n, p)
        if input_tables[(n, p)]:
            single[(n, p)] = _norm_table(once[(n, p)], n, p + 1)
    double_table = _norm_table(twice, 2, 2) if input_tables[(2, 0)] else None
    input_tables[(2, 2)] = _norm_table(kernel, 2, 2)
    input_tables[(4, 1)] = _norm_table(kernel, 4, 1)
    renorm22 = _norm_table(renormalized[(2, 2)], 2, 2)
    renorm41 = _norm_table(renormalized[(4, 1)], 4, 1)

    reports = []
    for rate, rate_step in combos:
        report = {}
        for (n, p), table in single.items():
            lhs = _evaluate_norm(table, rate)
            rhs = (n - 1) / rate_step * _evaluate_norm(
                input_tables[(n, p)], rate + rate_step)
            report[f"single_{n}{p}_to_{n}{p + 1}"] = (lhs, rhs, rhs - lhs)
        if double_table is not None:
            lhs = _evaluate_norm(double_table, rate)
            rhs = rate_step ** -2 * _evaluate_norm(
                input_tables[(2, 0)], rate + 2 * rate_step)
            report["double_20_to_22"] = (lhs, rhs, rhs - lhs)
        lhs = _evaluate_norm(renorm22, rate)
        rhs = (_evaluate_norm(input_tables[(2, 2)], rate)
               + _evaluate_norm(input_tables[(2, 1)], rate + rate_step)
               / rate_step
               + _evaluate_norm(input_tables[(2, 0)], rate + 2 * rate_step)
               / rate_step ** 2)
        report["renormalized_22"] = (lhs, rhs, rhs - lhs)
        lhs = _evaluate_norm(renorm41, rate)
        rhs = (_evaluate_norm(input_tables[(4, 1)], rate)
               + 3.0 / rate_step * _evaluate_norm(input_tables[(4, 0)],
                                                  rate + rate_step))
        report["renormalized_41"] = (lhs, rhs, rhs - lhs)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# equivalence oracle: expansion into elementary wedge monomials


def _difference_expansion(d, z):
    """Pointwise expansion of a forward-difference label at z.

    Yields (site, coefficient), the coefficients being products of two
    binomial rows with alternating signs.
    """
    d1, d2 = d
    for k1 in range(d1 + 1):
        c1 = math.comb(d1, k1) * (-1.0) ** (d1 - k1)
        for k2 in range(d2 + 1):
            c2 = math.comb(d2, k2) * (-1.0) ** (d2 - k2)
            yield (z[0] + k1, z[1] + k2), c1 * c2


def wedge_expansion(kernel):
    """Expand a literal kernel into elementary wedge monomials.

    Every field label becomes a signed sum of underived fields;
    products are sorted into canonical field order with the permutation
    sign; monomials with a repeated field vanish.  Two kernels are
    equivalent exactly when their expansions agree.  (For an anchored
    translation-invariant kernel this expands the representative, not
    the infinite sum of translates.)
    """
    buffer = {}
    for key, v in kernel.items():
        factor_lists = []
        for om, d, z in key:
            factor_lists.append([((om, site), c)
                                 for site, c in _difference_expansion(d, z)])
        for combo in itertools.product(*factor_lists):
            mono, sign = _sorted_with_sign([f for f, _ in combo])
            if mono is None:
                continue
            coef = v
            for _, c in combo:
                coef *= c
            buffer.setdefault(mono, []).append(sign * coef)
    out = {}
    for mono, vals in buffer.items():
        total = math.fsum(vals)
        if total != 0.0:
            out[mono] = total
    return out


def kernels_equivalent(a, b, tol=1e-12):
    """Whether two kernels have the same wedge expansion within tol."""
    ea = wedge_expansion(a)
    eb = wedge_expansion(b)
    keys = set(ea) | set(eb)
    return all(abs(ea.get(k, 0.0) - eb.get(k, 0.0)) <= tol for k in keys)


def formal_pairing(kernel, coefficients):
    """Pair the kernel against a test family on canonical monomials.

    The coefficient map is read on sorted wedge monomials; its
    antisymmetric extension is implied by the canonical sign applied
    during expansion.  Equivalent kernels pair identically with every
    family.
    """
    expansion = wedge_expansion(kernel)
    return math.fsum(v * coefficients.get(mono, 0.0)
                     for mono, v in expansion.items())


def derivative_expansion(kernel, index, direction):
    """The derivative-rewriting move at (field index, direction).

    Every entry whose chosen field carries a positive difference order
    in the chosen direction is rewritten through the defining identity
    of the forward difference: the order drops by one and the entry
    splits into the shifted-position value minus the in-place value.
    Zero-order entries pass through.  The wedge expansion is unchanged.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    j = direction - 1
    step = (1 - j, j)
    buffer = {}
    for key, v in kernel.items():
        if index >= len(key):
            buffer.setdefault(kernel._bufkey(key), []).append(v)
            continue
        om, d, z = key[index]
        if d[j] == 0:
            buffer.setdefault(kernel._bufkey(key), []).append(v)
            continue
        lowered = (d[0] - step[0], d[1] - step[1])
        shifted = (z[0] + step[0], z[1] + step[1])
        for zz, sign in ((shifted, 1.0), (z, -1.0)):
            moved = key[:index] + ((om, lowered, zz),) + key[index + 1:]
            buffer.setdefault(kernel._bufkey(moved), []).append(sign * v)
    return Kernel._from_buffer(buffer, kernel.translation_invariant)


# ---------------------------------------------------------------------------
# random kernels for property tests


def random_sparse_kernel(rng, n, p, entries=6, box=3, translation_invariant=True):
    """A random sparse kernel in one (n, p) sector.

    Positions are drawn from the centered box, derivative labels
    uniformly among the splittings of p over n fields, values uniform
    in [-1, 1].  The splittings are enumerated, 6^n label tuples, so
    the sector is validated first.
    """
    if n < 2 or n % 2 or not 0 <= p <= 2 * n:
        raise ValueError(f"no sector ({n}, {p}): n must be even and >= 2, 0 <= p <= 2n")
    if entries < 0:
        raise ValueError(f"entries must be nonnegative, got {entries}")
    if box < 0:
        raise ValueError(f"box must be nonnegative, got {box}")
    splittings = [ds for ds in itertools.product(DERIV_SET, repeat=n)
                  if sum(a + b for a, b in ds) == p]
    out = Kernel(translation_invariant=translation_invariant)
    for _ in range(entries):
        ds = splittings[int(rng.integers(len(splittings)))]
        labels = []
        for i in range(n):
            om = 1 if rng.integers(2) else -1
            z = (int(rng.integers(-box, box + 1)),
                 int(rng.integers(-box, box + 1)))
            labels.append((om, ds[i], z))
        out.add(tuple(labels), float(rng.uniform(-1.0, 1.0)))
    return out


# ---------------------------------------------------------------------------
# text serialization
#
# Line-oriented format, one support entry per line:
#
#     n  omega-tuple  D-tuple  z-tuple  value
#
# with comma-separated tuples; each D and z component is a colon-joined
# pair.  The first line is a header carrying the format version and
# whether the kernel is stored in the anchored translation-invariant
# representation.  Entries are written in sorted key order so dumps are
# deterministic, and values use repr() so a round trip is bit-exact.

_TEXT_FORMAT_VERSION = 1


def kernel_to_text(kernel):
    """Serialize a kernel to the line-oriented text format."""
    mode = "anchored" if kernel.translation_invariant else "literal"
    lines = ["kernel %d %s" % (_TEXT_FORMAT_VERSION, mode)]
    for labels, value in sorted(kernel.items()):
        omegas = ",".join(str(om) for om, _, _ in labels)
        ds = ",".join("%d:%d" % d for _, d, _ in labels)
        zs = ",".join("%d:%d" % z for _, _, z in labels)
        lines.append("%d %s %s %s %s" % (len(labels), omegas, ds, zs, repr(value)))
    return "\n".join(lines) + "\n"


def kernel_from_text(text):
    """Parse the output of kernel_to_text back into a Kernel.

    Raises ValueError on unknown headers or malformed entry lines; the
    label checks in Kernel.add apply to every parsed entry.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty kernel text")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "kernel":
        raise ValueError("bad kernel header: %r" % lines[0])
    if int(header[1]) != _TEXT_FORMAT_VERSION:
        raise ValueError("unsupported kernel format version %s" % header[1])
    if header[2] not in ("anchored", "literal"):
        raise ValueError("unknown storage mode %r" % header[2])
    ti = header[2] == "anchored"
    out = Kernel(translation_invariant=ti)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5:
            raise ValueError("malformed kernel entry: %r" % ln)
        n = int(parts[0])
        omegas = [int(tok) for tok in parts[1].split(",")]
        ds = [tuple(int(c) for c in tok.split(":")) for tok in parts[2].split(",")]
        zs = [tuple(int(c) for c in tok.split(":")) for tok in parts[3].split(",")]
        if not (len(omegas) == len(ds) == len(zs) == n):
            raise ValueError("entry arity mismatch: %r" % ln)
        labels = tuple(zip(omegas, ds, zs))
        out.add(labels, float(parts[4]))
    return out
