"""Tuple-based oracles for the kernel calculus in `isingcyl.kernels`.

The library stores kernels as integer label arrays; these reference
implementations work one multilabel tuple at a time, read kernels only
through `Kernel.items`, and build them only through `Kernel.add`:

- the two-stage symmetrization (every ordering of every entry, then
  every reflection of that), the oracle for the one-pass `symmetrize`;
- the canonical interpolation paths, entry by entry, the oracle for the
  array `interpolate_remainder`;
- the wedge-expansion oracle for kernel equivalence: multilabels are
  expanded into elementary wedge monomials (finite differences written
  out pointwise, fields sorted with permutation signs, repeated fields
  dropped), under which equivalent kernels have identical coefficient
  maps.
"""

import itertools
import math

import numpy as np

from isingcyl.kernels import INTERPOLATED_SECTORS, Kernel

_ORIGIN = (0, 0)


def _anchor(multilabel):
    x0, y0 = multilabel[0][2]
    return tuple((om, d, (z[0] - x0, z[1] - y0)) for om, d, z in multilabel)


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


def _from_buffer(kernel, buffer, order=lambda key: 1):
    """Per key, the fsum of its contributions divided by order(key)."""
    out = Kernel(kernel.translation_invariant)
    for key, vals in buffer.items():
        total = math.fsum(vals) / order(key)
        if total != 0.0:
            out.add(key, total)
    return out


def _push(kernel, buffer, labels, value):
    if kernel.translation_invariant:
        labels = _anchor(labels)
    buffer.setdefault(labels, []).append(value)


# ---------------------------------------------------------------------------
# the two-stage symmetrization


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


def reflect_entry(key, axes):
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


def antisymmetrize(kernel):
    """Projection onto the permutation-antisymmetric part."""
    buffer = {}
    for key, v in kernel.items():
        for perm in itertools.permutations(range(len(key))):
            _push(kernel, buffer, tuple(key[i] for i in perm), _perm_sign(perm) * v)
    return _from_buffer(kernel, buffer, lambda key: math.factorial(len(key)))


def reflection_average(kernel):
    """Average over the four-element reflection group."""
    buffer = {}
    for axes in ((), (1,), (2,), (1, 2)):
        for key, v in kernel.items():
            labels, factor = reflect_entry(key, axes)
            _push(kernel, buffer, labels, factor * v)
    return _from_buffer(kernel, buffer, lambda key: 4.0)


# ---------------------------------------------------------------------------
# interpolation along canonical paths, entry by entry


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
    for j in range(1, n):
        for sig, d, y in _int_steps(z1, ztuple[j]):
            dprime = tuple(d if i == j else _ORIGIN for i in range(n))
            yield sig, dprime, (z1,) * j + (y,) + tuple(ztuple[j + 1:])


def interpolate_remainder(kernel, n, p):
    """The interpolated remainder of the (n, p) sector, entry by entry."""
    if (n, p) not in INTERPOLATED_SECTORS:
        raise ValueError(f"interpolation not defined on sector {(n, p)}")
    buffer = {}
    for key, v in kernel.items():
        if len(key) != n or sum(d[0] + d[1] for _, d, _ in key) != p:
            continue
        for sig, dprime, yt in interpolation_elements(tuple(z for _, _, z in key)):
            labels = tuple((om, (d[0] + dp[0], d[1] + dp[1]), y)
                           for (om, d, _), dp, y in zip(key, dprime, yt))
            _push(kernel, buffer, labels, sig * v)
    return _from_buffer(kernel, buffer)


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
        if index >= len(key) or key[index][1][j] == 0:
            _push(kernel, buffer, key, v)
            continue
        om, d, z = key[index]
        lowered = (d[0] - step[0], d[1] - step[1])
        shifted = (z[0] + step[0], z[1] + step[1])
        for zz, sign in ((shifted, 1.0), (z, -1.0)):
            _push(kernel, buffer, key[:index] + ((om, lowered, zz),) + key[index + 1:],
                  sign * v)
    return _from_buffer(kernel, buffer)


def span_projection(kernel, basis):
    """Least-squares coefficients of the kernel in the given basis.

    Returns (coefficients, sup-norm residual), exact on the finite
    union support.
    """
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
