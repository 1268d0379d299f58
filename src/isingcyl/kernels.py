"""Localization and interpolation calculus on Grassmann kernels.

A kernel is a finite real-valued map on field multilabels: ordered even
tuples of (omega, D, z) with omega in {+1, -1}, D a pair of forward
difference orders with |D|_1 <= 2, and z a site of the integer plane.
The calculus splits a kernel into a local part built from the few
marginal and relevant monomials and an interpolated remainder carrying
one extra discrete derivative, with norm inequalities (checked here
exactly on the finite support) controlling the remainder.

Storage: each sector (n, p) (n fields, p derivative units) is an int16
label array of shape (N, n, 5), one row (omega, d1, d2, x, y) per field,
and a float64 value array; rows are distinct and values nonzero.  Site
coordinates lie in [-COORD_LIMIT, COORD_LIMIT), so a field packs into a
31-bit key ordered like its label tuple and two fields into one int64;
operators sort and group rows by these keys.  A coordinate outside the
range raises ValueError.  Python tuples appear only at the edges:
`add` stages entries in a dict, and `items` and `value` read tuples;
the text format is written from and parsed into the label arrays.
`symmetrize` still writes every ordering of every orbit, but on
translation-invariant kernels it also keeps each sector's canonical
rows (one per orbit) and their totals, and the weighted norms are read
from those (`_orbit_rows`); any other kernel is measured on its rows.
A kernel memoizes its interpolations for the operators and the bounds;
`add` drops the orbits and the memo.

Translation-invariant kernels are stored anchored: every multilabel is
shifted so the first position is the origin, and the invariance is a
certificate established by `certify_translation_invariance` (an
exhaustive consistency test over the support), never an assumption.
The localization and renormalization operators require the certificate.

Every merge groups the contributions per target label (for
symmetrization, per canonical field ordering) and reduces each group to
its `math.fsum`: one or two terms by IEEE addition, which is the same
number, three or more by `math.fsum` itself.  Symmetrization divides by
the group order 4 n! once, after the sum.  Structural cancellations
(repeated labels under permutation antisymmetrization, reflection-odd
components) therefore come out as exact floating-point zeros, not small
residues.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np

from .lattice import STEINER_MAX_POINTS, steiner_length

DERIV_SET = tuple((a, b) for a in range(3) for b in range(3) if a + b <= 2)

INTERPOLATED_SECTORS = ((2, 0), (2, 1), (4, 0))

# stored site coordinates lie in [-COORD_LIMIT, COORD_LIMIT)
COORD_LIMIT = 1 << 12

_ORIGIN = (0, 0)


_RANGE_ERROR = (f"site coordinates must lie in [{-COORD_LIMIT}, {COORD_LIMIT - 1}] "
                "to be packed into kernel keys")


def _check_label(label):
    omega, d, z = label
    if omega not in (1, -1):
        raise ValueError(f"omega must be +-1, got {omega}")
    if tuple(d) not in DERIV_SET:
        raise ValueError(f"derivative label {d} outside the allowed set")
    if not all(-COORD_LIMIT <= c < COORD_LIMIT for c in z):
        raise ValueError(_RANGE_ERROR)
    return (omega, (int(d[0]), int(d[1])), (int(z[0]), int(z[1])))


def _anchor(multilabel):
    """Shift positions so the first field sits at the origin."""
    x0, y0 = multilabel[0][2]
    if x0 == 0 and y0 == 0:
        return multilabel
    return tuple((om, d, (z[0] - x0, z[1] - y0)) for om, d, z in multilabel)


# ---------------------------------------------------------------------------
# label arrays: packed keys, grouping and the exact group sums


def _site_keys(labels):
    """Per-field 26-bit keys of the sites, ordered like (x, y)."""
    x = labels[..., 3].astype(np.int64) + COORD_LIMIT
    y = labels[..., 4].astype(np.int64) + COORD_LIMIT
    if np.any((x | y) >> 13):
        raise ValueError(_RANGE_ERROR)
    return (x << 13) | y


def _field_keys(labels, derivs=True):
    """Per-field keys >= 1 (0 is free for padding) that order like the
    label tuples (omega, D, z); without derivs they ignore D."""
    head = 9 * (labels[..., 0] > 0) + 1
    if derivs:
        head = head + 3 * labels[..., 1] + labels[..., 2]
    return (head.astype(np.int64) << 26) | _site_keys(labels)


def _row_keys(fkeys):
    """Key columns holding two field keys each: rows compare lexicographically."""
    return [(fkeys[:, i] << 31) | fkeys[:, i + 1] for i in range(0, fkeys.shape[1], 2)]


def _group(columns):
    """Lexicographic order of the rows of a list of key columns and the
    first position of each run of equal rows."""
    order = np.lexsort(columns[::-1])
    new = np.ones(len(order), bool)
    new[1:] = False
    for column in columns:
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(new)


def _reduce(values, order, starts):
    """`math.fsum` of every group: IEEE addition for one or two terms
    (the same number), `math.fsum` for three or more."""
    ranked = values[order]
    counts = np.append(starts[1:], len(ranked)) - starts
    total = ranked[starts]
    two = counts == 2
    total[two] += ranked[starts[two] + 1]
    for g in np.flatnonzero(counts > 2).tolist():
        total[g] = math.fsum(ranked[starts[g]:starts[g] + counts[g]].tolist())
    return total


def _anchored(labels):
    out = labels.copy()
    out[..., 3:5] -= labels[:, :1, 3:5]
    return out


def _collect(parts, translation_invariant):
    """A kernel from (sector, labels, values) parts: equal labels of a
    sector summed by `_reduce`, zero sums dropped."""
    pieces = {}
    for sector, labels, values in parts:
        pieces.setdefault(sector, []).append((labels, values))
    blocks = {}
    for sector, chunk in pieces.items():
        labels = np.concatenate([lab for lab, _ in chunk])
        order, starts = _group(_row_keys(_field_keys(labels)))
        total = _reduce(np.concatenate([v for _, v in chunk]), order, starts)
        keep = total != 0.0
        blocks[sector] = (labels[order[starts[keep]]], total[keep])
    return Kernel._of(blocks, translation_invariant)


def _parts_of(pairs):
    """(sector, labels, values) parts from (multilabel, value) pairs."""
    rows = {}
    for key, v in pairs:
        sector = (len(key), sum(d[0] + d[1] for _, d, _ in key))
        rows.setdefault(sector, []).append((key, v))
    return [(sector, np.array([[(om, *d, *z) for om, d, z in key] for key, _ in chunk],
                              dtype=np.int16).reshape(-1, sector[0], 5),
             np.array([v for _, v in chunk], dtype=float))
            for sector, chunk in rows.items()]


def _label_tuples(labels):
    return [tuple((f[0], (f[1], f[2]), (f[3], f[4])) for f in row) for row in labels.tolist()]


class Kernel:
    """Sparse kernel: finite map from field multilabels to reals.

    translation_invariant marks the map as the anchored representative
    of a translation-invariant kernel.  The flag is set by anchored
    construction or by `certify_translation_invariance`, and every
    operator here preserves it, re-anchoring after label motions.
    Entries given to `add` are staged in a dict and packed into the
    sector arrays when an operator first reads them; `value` keeps such
    a dict as its lookup table.  `symmetrize` leaves the orbits of an
    anchored result beside its blocks and `_interpolations` memoizes on
    the instance; `add` drops both.
    """

    def __init__(self, translation_invariant=False):
        self.translation_invariant = translation_invariant
        self._blocks = {}
        self._entries = None  # {multilabel: value}, authoritative while _blocks is None
        self._orbits = {}  # {(n, p): (canonical labels, totals)}, set by `symmetrize`
        self._memo = {}  # interpolations of this kernel, see `_interpolations`

    @classmethod
    def _of(cls, blocks, translation_invariant):
        out = cls(translation_invariant)
        out._blocks = {s: b for s, b in blocks.items() if len(b[1])}
        return out

    def _arrays(self):
        """The sector blocks: {(n, p): (labels, values)}."""
        if self._blocks is None:
            parts = _parts_of(self._entries.items())
            for _, labels, _ in parts:
                _site_keys(labels)  # raises unless every anchored site packs
            self._blocks = {s: (labels, values) for s, labels, values in parts}
        return self._blocks

    def add(self, multilabel, value):
        labels = tuple(_check_label(l) for l in multilabel)
        if len(labels) % 2:
            raise ValueError("multilabels must have even length")
        if self.translation_invariant:
            labels = _anchor(labels)
        if self._entries is None:
            self._entries = dict(self.items())
        self._blocks = None
        self._orbits, self._memo = {}, {}
        new = self._entries.get(labels, 0.0) + value
        if new == 0.0:
            self._entries.pop(labels, None)
        else:
            self._entries[labels] = new

    def items(self):
        if self._entries is not None:
            return self._entries.items()
        return dict(pair for labels, values in self._blocks.values()
                    for pair in zip(_label_tuples(labels), values.tolist())).items()

    def __len__(self):
        if self._entries is not None:
            return len(self._entries)
        return sum(len(values) for _, values in self._blocks.values())

    def value(self, multilabel):
        key = tuple(multilabel)
        if self.translation_invariant:
            key = _anchor(key)
        if self._entries is None:
            self._entries = dict(self.items())
        return self._entries.get(key, 0.0)

    def sectors(self):
        return sorted(self._arrays())

    def sector(self, n, p):
        block = self._arrays().get((n, p))
        return Kernel._of({(n, p): block} if block else {}, self.translation_invariant)

    def plus(self, other):
        if self.translation_invariant != other.translation_invariant:
            raise ValueError("cannot mix anchored and literal kernels")
        mine, theirs = self._arrays(), other._arrays()
        shared = mine.keys() & theirs.keys()
        # a sector that only one side holds is already reduced
        blocks = {s: b for s, b in {**mine, **theirs}.items() if s not in shared}
        blocks.update(_collect([(s, *d[s]) for s in shared for d in (mine, theirs)], False)._blocks)
        return Kernel._of(blocks, self.translation_invariant)

    def max_abs_diff(self, other):
        parts = [(s, *b) for s, b in self._arrays().items()]
        parts += [(s, labels, -values) for s, (labels, values) in other._arrays().items()]
        return _collect(parts, False).max_abs()

    def max_abs(self):
        return max((float(np.max(np.abs(v))) for _, v in self._arrays().values()),
                   default=0.0)


def certify_translation_invariance(kernel):
    """Anchor a literal kernel after an exhaustive shift consistency test.

    Entries that are translates of one another must carry equal values;
    any contradiction raises.  The result carries the certificate flag.
    Already-certified kernels pass through unchanged.
    """
    if kernel.translation_invariant:
        return kernel
    blocks = {}
    for sector, (labels, values) in kernel._arrays().items():
        anchored = _anchored(labels)
        order, starts = _group(_row_keys(_field_keys(anchored)))
        ranked = values[order]
        first = np.repeat(ranked[starts], np.diff(starts, append=len(ranked)))
        bad = np.flatnonzero(ranked != first)
        if len(bad):
            i = bad[0]
            raise ValueError(f"translation-inconsistent values at "
                             f"{_label_tuples(anchored[order[i:i + 1]])[0]}: "
                             f"{first[i]} vs {ranked[i]}")
        blocks[sector] = (anchored[order[starts]], ranked[starts])
    return Kernel._of(blocks, True)


# ---------------------------------------------------------------------------
# collapse and interpolation along canonical paths


def localize_collapse(kernel, n=None, p=None):
    """Collapse every position onto the first one, optionally sector-wise.

    The output at (z1, ..., z1) is the sum of the kernel over all
    position tuples sharing z1 (with the same omega and derivative
    labels).  With n, p given, only that sector is collapsed.
    """
    parts = []
    for sector, (labels, values) in kernel._arrays().items():
        if n is None or sector == (n, p):
            moved = labels.copy()
            moved[..., 3:5] = labels[:, :1, 3:5]
            parts.append((sector, moved, values))
    return _collect(parts, kernel.translation_invariant)


def interpolate_remainder(kernel, n, p):
    """The interpolated remainder of the collapse on the (n, p) sector.

    The collapse telescopes one field at a time: field j moves to z1
    along the canonical staircase (horizontal leg first, then vertical)
    with fields 2..j-1 already at z1 and the later ones in place.  Each
    path step gives one output row: the unit difference lands on top of
    the moved field's own label, at the step's near end with sign +1 if
    the step runs along +d, at its far end with sign -1 otherwise.  The
    output lies entirely in sector (n, p+1) and is equivalent (as a
    Grassmann form) to the sector minus its collapse.  The first
    position never moves, so anchoring holds.
    """
    if (n, p) not in INTERPOLATED_SECTORS:
        raise ValueError(f"interpolation not defined on sector {(n, p)}")
    block = kernel._arrays().get((n, p))
    if block is None:
        return Kernel(kernel.translation_invariant)
    labels, values = block
    z1 = labels[:, 0, 3:5].astype(np.int64)
    parts = []
    for j in range(1, n):
        delta = labels[:, j, 3:5] - z1
        legs = np.abs(delta)
        steps = legs.sum(axis=1)
        row = np.repeat(np.arange(len(labels)), steps)
        k = np.arange(len(row)) - np.repeat(np.cumsum(steps) - steps, steps)
        vertical = k >= legs[row, 0]
        k -= vertical * legs[row, 0]
        along = delta[row, vertical.astype(int)]
        back = along < 0
        # the leg starts at z1 (horizontal) or at (x_j, y1) (vertical);
        # a backward step carries the difference at its far end
        site = np.where(vertical, z1[row, 1], z1[row, 0]) + np.sign(along) * (k + back)
        moved = labels[row]
        moved[:, 1:j, 3:5] = z1[row, None]
        moved[:, j, 3] = np.where(vertical, labels[row, j, 3], site)
        moved[:, j, 4] = np.where(vertical, site, z1[row, 1])
        moved[np.arange(len(row)), j, 1 + vertical] += 1
        parts.append(((n, p + 1), moved, np.where(back, -values[row], values[row])))
    return _collect(parts, kernel.translation_invariant)


# ---------------------------------------------------------------------------
# the symmetrization operator


def _inversion_parity(keys):
    """Parity of the inversion count of every row of an (N, n) array."""
    inversions = np.zeros(len(keys), np.int64)
    for i, j in itertools.combinations(range(keys.shape[1]), 2):
        inversions += keys[:, i] > keys[:, j]
    return inversions % 2


@functools.cache
def _orderings(n):
    """All n! orderings as an index table, with their signs."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return perms, 1.0 - 2.0 * _inversion_parity(perms)


def _reflections(labels):
    """Images of every entry under {1, R1, R2, R1 R2}, stacked as (4N, n, 5),
    with the parity of each image's scalar factor.

    R1 flips the first coordinate (factor -1 for omega = -1 times
    (-1)^d1 per field); R2 flips the second and swaps omega (factor
    (-1)^d2 per field).  Forward differences reflect to backward ones,
    hence the extra -d offset in the flipped coordinate.  Each reflection
    also carries (-1)^(n/2), the real value of i^n for even n.
    """
    om, d1, d2 = labels[..., 0], labels[..., 1], labels[..., 2]
    images = np.repeat(labels[None], 4, axis=0)
    images[1::2, ..., 3] = -labels[..., 3] - d1
    images[2:, ..., 0] = -om
    images[2:, ..., 4] = -labels[..., 4] - d2
    half = labels.shape[1] // 2
    p1 = np.sum((om < 0) + d1, axis=1) + half
    p2 = np.sum(d2, axis=1) + half
    parity = np.stack([np.zeros_like(p1), p1, p2, p1 + p2])
    return images.reshape(-1, *labels.shape[1:]), parity.ravel()


def symmetrize(kernel):
    """Average over field permutations (signed) and the four reflections.

    The group has order 4 n!.  Each reflected image of an entry is sorted
    into canonical field order (an argsort of its packed field keys) with
    the sign of the sorting permutation, and dropped if a label repeats.
    Per canonical entry the contributions are summed as in `_reduce`,
    divided once by 4 n! and written at all n! orderings with their
    signs.  Translation keeps the order, so anchored canonical entries
    label whole orbits; on translation-invariant kernels the result
    keeps them and their totals per sector, for `_norm_table`.

    On translation-invariant kernels this never increases the weighted
    norm of an underived sector, and never increases any sector norm at
    rate zero.  Sectors carrying p derivative units obey the slightly
    weaker bound with factor e^(rate * p): reflecting a forward
    difference re-bases its stencil, moving support points by up to
    their difference order and lengthening the tree distance by at
    most p.
    """
    ti = kernel.translation_invariant
    blocks, orbits = {}, {}
    for (n, p), (labels, values) in kernel._arrays().items():
        images, parity = _reflections(labels)
        fkeys = _field_keys(images)
        order = np.argsort(fkeys, axis=1, kind="stable")
        ranked = np.take_along_axis(fkeys, order, axis=1)
        keep = np.all(ranked[:, 1:] != ranked[:, :-1], axis=1)
        canon = np.take_along_axis(images, order[..., None], axis=1)[keep]
        if ti:
            canon = _anchored(canon)
        odd = (parity + _inversion_parity(fkeys))[keep] % 2 == 1
        signed = np.tile(values, 4)[keep]
        rows, starts = _group(_row_keys(_field_keys(canon)))
        total = _reduce(np.where(odd, -signed, signed), rows, starts) / (4 * math.factorial(n))
        nonzero = total != 0.0
        canon = canon[rows[starts[nonzero]]]
        perms, signs = _orderings(n)
        if ti:
            orbits[(n, p)] = (canon, total[nonzero])
            # every canonical entry re-anchored at each of its fields, then ordered
            rebased = np.repeat(canon[:, None], n, axis=1)
            rebased[..., 3:5] -= canon[:, :, None, 3:5]
            _site_keys(rebased)  # raises unless every re-anchored site packs
            rows = (np.arange(len(canon)) * n * n)[:, None, None] + perms[:, :1] * n + perms
            out = np.take(rebased.reshape(-1, 5), rows, axis=0)
        else:
            out = canon[:, perms]
        blocks[(n, p)] = (out.reshape(-1, n, 5), (total[nonzero][:, None] * signs).ravel())
    result = Kernel._of(blocks, ti)
    result._orbits = orbits
    return result


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
    spread = _remainder(kernel, 2, 0)
    local21 = symmetrize(
        localize_collapse(kernel, 2, 1).plus(localize_collapse(spread)))
    return local20.plus(local21)


def _remainder(kernel, n, p):
    """`interpolate_remainder(kernel, n, p)`, memoized on the kernel."""
    if (n, p) not in kernel._memo:
        kernel._memo[(n, p)] = interpolate_remainder(kernel, n, p)
    return kernel._memo[(n, p)]


def _interpolations(kernel):
    """Interpolated remainders and the renormalized (2, 2), (4, 1) blocks.

    Returns (once, twice, renormalized): the interpolated remainder of
    each sector in INTERPOLATED_SECTORS, the (2, 0) sector interpolated
    twice, and the symmetrized renormalized blocks keyed by sector.
    Memoized on the kernel, which `add` clears, so the operators and
    the bound reports share one computation; callers only read them.
    """
    if "interpolations" not in kernel._memo:
        once = {(n, p): _remainder(kernel, n, p) for n, p in INTERPOLATED_SECTORS}
        twice = interpolate_remainder(once[(2, 0)], 2, 1)
        renormalized = {
            (2, 2): symmetrize(kernel.sector(2, 2).plus(once[(2, 1)]).plus(twice)),
            (4, 1): symmetrize(kernel.sector(4, 1).plus(once[(4, 0)])),
        }
        kernel._memo["interpolations"] = once, twice, renormalized
    return kernel._memo["interpolations"]


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
    blocks = {s: b for s, b in kernel._arrays().items() if s not in replaced}
    for part in renormalized.values():
        blocks.update(part._arrays())
    return Kernel._of(blocks, True)


# ---------------------------------------------------------------------------
# weighted norms and the interpolation bounds


def _norm_table(kernel, n, p):
    """Rate-independent norm data for one sector, checked to lie in the
    domain of `weighted_norm` before any Steiner length is taken.

    Returns None for an empty sector, else (deltas, which, magnitudes,
    bounds): one magnitude per (omega-tuple, z-tuple), the sup over
    derivative labels already folded in, with its Steiner length
    deltas[which], sorted so that bounds delimit the (omega-tuple, z1)
    groups.  A sector that `symmetrize` left with its orbits is read
    from them instead, one group per count of plus fields (`_orbit_rows`),
    to the same norm.
    """
    block = kernel._arrays().get((n, p))
    if block is None:
        return None
    orbits = kernel._orbits.get((n, p))
    labels, values = block if orbits is None else orbits
    sites = _site_keys(labels)
    if n > STEINER_MAX_POINTS:
        ranked = np.sort(sites, axis=1)
        distinct = 1 + np.count_nonzero(ranked[:, 1:] != ranked[:, :-1], axis=1)
        over = np.flatnonzero(distinct > STEINER_MAX_POINTS)
        if len(over):
            raise ValueError(f"sector ({n}, {p}) has an entry on {distinct[over[0]]} distinct "
                             f"sites; the closed-form Steiner length covers at most "
                             f"{STEINER_MAX_POINTS}")
    if orbits is not None:
        lengths, magnitudes, bounds = _orbit_rows(labels, values)
    else:
        # rows keyed by (omega-tuple, z1), then z2 ... zn: equal keys differ in D only
        lead = ((labels[..., 0] > 0) @ (1 << np.arange(n))) << 26 | sites[:, 0]
        order, starts = _group([lead] + [sites[:, i] << 26 | sites[:, i + 1]
                                         for i in range(1, n - 1, 2)] + [sites[:, -1]])
        magnitudes = np.maximum.reduceat(np.abs(values[order]), starts)
        reps = order[starts]
        lengths = steiner_length(labels[reps][..., 3:5])
        bounds = np.flatnonzero(np.append(True, lead[reps[1:]] != lead[reps[:-1]])).tolist()
    deltas, which = np.unique(lengths, return_inverse=True)
    return deltas.tolist(), which, magnitudes, bounds + [len(magnitudes)]


def _orbit_rows(canon, totals):
    """(Steiner lengths, magnitudes, bounds) of the rows of `_norm_table`
    from the canonical rows and totals of a symmetrized anchored sector.

    Orbits sharing their (omega, z) multiset up to translation form one
    group G with a plus fields out of n.  Every omega-tuple with a plus
    signs meets G in a!(n-a)!/prod(mult!) anchored z-tuples (mult: the
    multiplicities of the multiset), each with magnitude max |total| over
    G and G's Steiner length.  So per a the rows are these copies, a
    representative row of G standing for each: the same terms as every
    omega-tuple's group of the expanded block, in one group per a, and
    `math.fsum` is exact whatever the order of its terms.
    """
    n = canon.shape[1]
    keys = _field_keys(canon, derivs=False)
    order = np.argsort(keys, axis=1, kind="stable")
    keys = _field_keys(_anchored(np.take_along_axis(canon, order[..., None], axis=1)),
                       derivs=False)
    rows, starts = _group(_row_keys(keys))
    magnitudes = np.maximum.reduceat(np.abs(totals[rows]), starts)
    reps = rows[starts]
    first = keys[reps]
    plus = np.count_nonzero(canon[reps, :, 0] > 0, axis=1)
    run = stabilizer = np.ones(len(starts), np.int64)
    for j in range(1, n):
        run = np.where(first[:, j] == first[:, j - 1], run + 1, 1)
        stabilizer = stabilizer * run
    factorial = np.array([math.factorial(k) for k in range(n + 1)])
    copies = factorial[plus] * factorial[n - plus] // stabilizer
    by_plus = np.argsort(plus, kind="stable")
    take = np.repeat(by_plus, copies[by_plus])
    bounds = np.flatnonzero(np.append(True, np.diff(plus[take]))).tolist()
    return steiner_length(canon[reps][..., 3:5])[take], magnitudes[take], bounds


def _evaluate_norm(table, rate):
    """The weighted norm of a `_norm_table` at one rate; OverflowError or
    FloatingPointError when a weight or a sum leaves the floats."""
    if table is None:
        return 0.0
    deltas, which, magnitudes, bounds = table
    scale = [math.exp(rate * d) for d in deltas]
    if not all(map(math.isfinite, scale)):  # rate * d itself overflowed
        raise OverflowError(f"e^(rate * delta) is not finite at rate {rate}")
    with np.errstate(over="raise"):
        weights = (np.array(scale)[which] * magnitudes).tolist()
    return max(math.fsum(weights[a:b]) for a, b in zip(bounds, bounds[1:]))


_OVERFLOW = (OverflowError, FloatingPointError)


def _check_rate(rate):
    if not (rate >= 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")


def weighted_norm(kernel, n, p, rate):
    """Weighted mass of the (n, p) sector:

        sup over omega-tuples and z1 of the sum, over position tuples
        sharing z1, of e^(rate * delta(z)) times the sup over
        derivative labels of |V|,

    with delta the rectilinear Steiner length of the distinct points.
    The sup over derivative labels is a group max over rows with equal
    (omega-tuple, z-tuple) keys; every inner sum is a `math.fsum`, and
    e^(rate * delta) is taken once per distinct delta.  Defined when
    every entry of the sector sits on at most STEINER_MAX_POINTS = 4
    distinct sites (the closed form of `lattice.steiner_length`), as
    all n <= 4 sectors do; ValueError else, and also when a weight or
    the norm overflows a float at this rate.
    """
    _check_rate(rate)
    try:
        return _evaluate_norm(_norm_table(kernel, n, p), rate)
    except _OVERFLOW:
        raise ValueError(f"rate {rate}: the weighted norm of sector ({n}, {p}) "
                         f"overflows a float") from None


def interpolation_bound_reports(kernel, combos):
    """Margins of the interpolation norm inequalities, batched.

    One rule gives every bound: an interpolation step costs one rate step
    and a factor 1/rate_step, so a block built by k steps from input
    sectors V_s obeys ||left||_rate <= the sum over its (c, k, s) of
    c / rate_step^k ||V_s||_(rate + k rate_step).  The table:

        single_{n}{p}_to_{n}{p+1}  [(n - 1, 1, (n, p))], INTERPOLATED_SECTORS
        double_20_to_22            [(1, 2, (2, 0))]
        renormalized_22            [(1, 0, (2, 2)), (1, 1, (2, 1)), (1, 2, (2, 0))]
        renormalized_41            [(1, 0, (4, 1)), (3, 1, (4, 0))]

    A single or double bound with an empty input sector is omitted.  Both
    sides are exact on the finite support; the norm tables are built once
    per call, each input sector's shared by the rules that read it, and
    only their evaluations depend on the rates.  A bound that overflows a
    float is a ValueError, like a weighted norm that does.

    Returns one dict per (rate, rate_step) pair, mapping bound names to
    (value, bound, margin) triples; every margin must be nonnegative.
    """
    _require_certified(kernel)
    for rate, rate_step in combos:
        _check_rate(rate)
        try:  # the double-step bound scales by rate_step^-2
            finite = math.isfinite(rate_step ** -2)
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not (rate_step > 0 and math.isfinite(rate_step) and finite):
            raise ValueError(f"rate_step must be finite and positive, with rate_step^-2 "
                             f"a finite float, got {rate_step}")
    once, twice, renormalized = _interpolations(kernel)
    rules = [(f"single_{n}{p}_to_{n}{p + 1}", once[(n, p)], (n, p + 1), [(n - 1, 1, (n, p))])
             for n, p in INTERPOLATED_SECTORS if (n, p) in kernel._arrays()]
    if (2, 0) in kernel._arrays():
        rules.append(("double_20_to_22", twice, (2, 2), [(1, 2, (2, 0))]))
    rules += [("renormalized_22", renormalized[(2, 2)], (2, 2),
               [(1, 0, (2, 2)), (1, 1, (2, 1)), (1, 2, (2, 0))]),
              ("renormalized_41", renormalized[(4, 1)], (4, 1), [(1, 0, (4, 1)), (3, 1, (4, 0))])]
    inputs = {s: _norm_table(kernel, *s)
              for s in dict.fromkeys(s for *_, terms in rules for *_, s in terms)}
    reports = [{} for _ in combos]
    try:
        for name, left, sector, terms in rules:
            table = _norm_table(left, *sector)
            for report, (rate, rate_step) in zip(reports, combos):
                lhs = _evaluate_norm(table, rate)
                rhs = 0.0  # left to right: `sum` of floats is compensated from Python 3.12
                for c, k, s in terms:
                    rhs += c / rate_step ** k * _evaluate_norm(inputs[s], rate + k * rate_step)
                if not math.isfinite(rhs):  # c / rate_step^k times a finite norm
                    raise OverflowError
                report[name] = (lhs, rhs, rhs - lhs)
    except _OVERFLOW:
        raise ValueError(f"rate {rate} (rate_step {rate_step}): a weighted norm "
                         f"overflows a float, or a bound built from them does") from None
    return reports


# ---------------------------------------------------------------------------
# random kernels for property tests


@functools.cache
def _splittings(n, p):
    """Derivative labels of n fields with p units in all, in product order."""
    if n == 0:
        return [()] if p == 0 else []
    return [(d,) + r for d in DERIV_SET if sum(d) <= p for r in _splittings(n - 1, p - sum(d))]


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
    splittings = _splittings(n, p)
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
    lines, keys = [], []
    blocks = kernel._arrays()
    width = max((n for n, _ in blocks), default=0)
    for (n, _), (labels, values) in blocks.items():
        fmt = " ".join([str(n), ",".join(["%d"] * n), ",".join(["%d:%d"] * n),
                        ",".join(["%d:%d"] * n), "%r"])
        cols = np.concatenate([labels[..., 0], labels[..., 1:3].reshape(len(labels), -1),
                               labels[..., 3:5].reshape(len(labels), -1)], axis=1)
        for a in range(0, len(cols), 4096):  # chunked: no nested list of the whole block
            lines += [fmt % (*row, v) for row, v in zip(cols[a:a + 4096].tolist(),
                                                        values[a:a + 4096].tolist())]
        # pad shorter multilabels with key 0, so a prefix sorts first
        keys.append(np.pad(_field_keys(labels), ((0, 0), (0, width - n))))
    order = _group(_row_keys(np.concatenate(keys)))[0].tolist() if keys else []
    header = "kernel %d %s" % (_TEXT_FORMAT_VERSION, mode)
    return "\n".join([header] + [lines[i] for i in order]) + "\n"


def kernel_from_text(text):
    """Parse the output of kernel_to_text back into a Kernel.

    Entry lines are grouped by arity and each group is parsed into one
    label array.  Raises ValueError on unknown headers or malformed entry
    lines, and on the label checks of Kernel.add: even arity, omega,
    derivative set and coordinate range.
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
    by_arity = {}
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 5:
            raise ValueError("malformed kernel entry: %r" % ln)
        by_arity.setdefault(int(fields[0]), []).append(fields)
    parts = []
    num = r"[+-]?\d+"
    for n, entries in by_arity.items():
        shape = re.compile(" ".join([",".join([num] * n)] + [",".join([f"{num}:{num}"] * n)] * 2))
        tuples = [" ".join(f[1:4]) for f in entries]
        bad = [" ".join(f) for f, t in zip(entries, tuples) if not shape.fullmatch(t)]
        if bad:
            raise ValueError("entry arity mismatch: %r" % bad[0])
        if n % 2:
            raise ValueError("multilabels must have even length")
        try:
            flat = np.array(" ".join(tuples).replace(",", " ").replace(":", " ").split(),
                            dtype=np.int64).reshape(len(entries), 5 * n)
        except OverflowError:
            raise ValueError(_RANGE_ERROR) from None
        # (omega, d1, d2, x, y) rows from the omega, D and z columns
        labels = np.concatenate([flat[:, :n, None], flat[:, n:3 * n].reshape(-1, n, 2),
                                 flat[:, 3 * n:].reshape(-1, n, 2)], axis=2)
        # the omega and derivative checks of `add`, once per distinct head
        for om, d1, d2 in set(map(tuple, labels[..., :3].reshape(-1, 3).tolist())):
            _check_label((om, (d1, d2), _ORIGIN))
        if np.any((labels[..., 3:] < -COORD_LIMIT) | (labels[..., 3:] >= COORD_LIMIT)):
            raise ValueError(_RANGE_ERROR)
        values = np.array([float(f[4]) for f in entries])
        degree = labels[..., 1:3].sum(axis=(1, 2))
        labels = (_anchored(labels) if ti else labels).astype(np.int16)
        parts += [((n, int(p)), labels[degree == p], values[degree == p])
                  for p in np.unique(degree)]
    return _collect(parts, ti)
