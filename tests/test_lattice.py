"""Cylinder geometry, folded distances, and Steiner tree lengths."""

import itertools

import numpy as np
import pytest

from isingcyl.lattice import (
    CylinderGeometry,
    edge_distance,
    per_range,
    ring_sign,
    steiner_length,
)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CylinderGeometry(3, 4)
    with pytest.raises(ValueError):
        CylinderGeometry(0, 4)
    with pytest.raises(ValueError):
        CylinderGeometry(4, 0)
    CylinderGeometry(2, 1)


def test_sites_row_major():
    g = CylinderGeometry(4, 2)
    assert list(g.sites()) == [
        (1, 1), (2, 1), (3, 1), (4, 1),
        (1, 2), (2, 2), (3, 2), (4, 2),
    ]
    assert g.n_sites == 8


def test_contains_and_extended_rows():
    g = CylinderGeometry(4, 3)
    assert g.contains((1, 1)) and g.contains((4, 3))
    assert not g.contains((0, 1)) and not g.contains((1, 0))
    assert not g.contains((1, 4))
    # virtual boundary rows belong to the extended range only
    z, zp = g.site_arrays([(2, 0), (1, 1)], [(2, 4), (4, 3)], extended=True)
    assert z.tolist() == [[2, 0], [1, 1]] and zp.tolist() == [[2, 4], [4, 3]]
    for bad in ((2, 0), (2, 5), (0, 1), (5, 1)):
        with pytest.raises(ValueError, match="outside the lattice"):
            g.site_arrays(bad, (1, 1))
        with pytest.raises(ValueError, match=r"sites \(1, 1\), \(\d, \d\) outside the lattice"):
            g.site_arrays([(2, 2), (1, 1)], [(3, 3), bad])
    with pytest.raises(ValueError, match="outside the extended lattice"):
        g.site_arrays((1, 1), (2, 5), extended=True)
    with pytest.raises(ValueError, match="2 first sites against 3 second sites"):
        g.site_arrays([(1, 1), (2, 2)], [(1, 1)] * 3)
    assert [a.shape for a in g.site_arrays(np.empty((0, 2)), np.empty((0, 2)))] == [(0, 2)] * 2


def test_per_range_window():
    L = 8
    for z1 in range(-20, 21):
        folded = per_range(z1, L)
        assert -L // 2 < folded <= L // 2
        assert (folded - z1) % L == 0
    # antipodal displacement keeps the positive representative
    assert per_range(4, 8) == 4
    assert per_range(-4, 8) == 4
    with pytest.raises(ValueError):
        per_range(1, 7)


def test_ring_sign_cases():
    assert ring_sign(0, 8) == 1
    assert ring_sign(3, 8) == 1
    assert ring_sign(4, 8) == 0
    assert ring_sign(-4, 8) == 0
    assert ring_sign(5, 8) == -1
    assert ring_sign(-7, 8) == -1


def test_edge_distance_routes():
    # near the bottom boundary the through-boundary route wins
    assert edge_distance((1, 1), (2, 1), 8, 6) == min(1 + 2, 8 - 1)
    # symmetric under swapping the pair
    assert edge_distance((3, 2), (6, 5), 8, 6) == edge_distance(
        (6, 5), (3, 2), 8, 6)


def test_steiner_degenerate_cases():
    with pytest.raises(ValueError):
        steiner_length(())
    with pytest.raises(ValueError):
        steiner_length(((3, 4),))
    with pytest.raises(ValueError):
        steiner_length(((0, 0), (0, 1), (0, 2), (0, 3), (0, 4)))
    assert steiner_length(((0, 0), (2, 5))) == 7
    assert steiner_length(((3, 4), (3, 4))) == 0


def test_steiner_three_points_is_half_perimeter():
    # with a single Steiner point allowed, three terminals always cost
    # exactly the half-perimeter of their bounding box
    pts = ((0, 0), (4, 1), (2, 6))
    assert steiner_length(pts) == 4 + 6
    pts = ((-3, 2), (5, 2), (1, -1))
    assert steiner_length(pts) == 8 + 3


def test_steiner_four_corners_beats_mst():
    # the 2 x n "ladder" needs two Steiner points; the optimal tree costs
    # 2 + 2 + n rather than the MST's 2 + n + n
    pts = ((0, 0), (0, 2), (5, 0), (5, 2))
    assert steiner_length(pts) == 2 + 2 + 5


def test_steiner_collinear_and_duplicates():
    assert steiner_length(((0, 0), (3, 0), (7, 0))) == 7
    assert steiner_length(((1, 1), (1, 1), (4, 1))) == 3


def _l1(p, q):
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def _mst_length(points):
    """Prim's algorithm on the complete l1 graph of distinct points."""
    dist = {p: _l1(points[0], p) for p in points[1:]}
    total = 0
    while dist:
        q = min(dist, key=dist.get)
        total += dist.pop(q)
        for p in dist:
            dist[p] = min(dist[p], _l1(q, p))
    return total


def _hanan_steiner_length(points):
    """Steiner length by enumeration over the Hanan grid (the oracle).

    Some minimal rectilinear tree takes its Steiner points from the grid
    of lines through the terminals (Hanan 1966), and a tree on n
    terminals needs at most n - 2 of them.  No tree is shorter than the
    bounding-box half-perimeter, so the search stops once it is reached.
    """
    terminals = sorted(set(points))
    xs = sorted({x for x, _ in terminals})
    ys = sorted({y for _, y in terminals})
    half_perimeter = xs[-1] - xs[0] + ys[-1] - ys[0]
    hanan = [(x, y) for x in xs for y in ys if (x, y) not in terminals]
    best = _mst_length(terminals)
    for k in range(1, len(terminals) - 1):
        for extra in itertools.combinations(hanan, k):
            if best == half_perimeter:
                return best
            best = min(best, _mst_length(terminals + list(extra)))
    return best


def test_steiner_closed_form_matches_hanan_enumeration():
    # one batched call over every 4-point multiset of a 5 x 5 grid
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    multisets = list(itertools.combinations_with_replacement(grid, 4))
    assert len(multisets) == 20475
    lengths = steiner_length(multisets)
    assert lengths.shape == (20475,)
    for pts, length in zip(multisets, lengths.tolist()):
        assert length == _hanan_steiner_length(pts), pts


def test_steiner_batches_keep_their_shape_and_count_distinct_points():
    square = ((0, 0), (0, 2), (5, 0), (5, 2))
    line = ((0, 0), (3, 0), (7, 0), (7, 0))
    batch = np.array([[square, line], [line, square]])
    assert steiner_length(batch).tolist() == [[9, 7], [7, 9]]
    assert steiner_length(np.zeros((3, 0, 4, 2), int)).shape == (3, 0)
    # six points on four distinct sites: the length of the four
    assert steiner_length(square + square[:2]) == 9
    assert steiner_length(((1, 1),) * 6) == 0
    with pytest.raises(ValueError, match="at most 4 distinct"):
        steiner_length(square + ((9, 9), (0, 0)))
