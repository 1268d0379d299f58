"""Pfaffian and skew-inverse primitives.

The elimination route is pinned against the combinatorial perfect-
matching expansion, and both against the Pf^2 = det identity.
"""

import math

import numpy as np
import pytest

from isingcyl.skew import (
    SingularSkewError,
    SkewMatrix,
    pfaffian,
    pfaffian_combinatorial,
    pfaffian_sign_logabs,
    skew_inverse,
)

from oracles import pfaffian_minor


def _random_skew(rng, n):
    u = np.triu(rng.normal(size=(n, n)), k=1)
    return u - u.T


def test_two_by_two_sign_convention():
    a = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert pfaffian_combinatorial(a) == 3.0
    assert math.isclose(pfaffian(a), 3.0, rel_tol=1e-12)
    sign, logabs = pfaffian_sign_logabs(a)
    assert sign == 1.0 and math.isclose(logabs, math.log(3.0))


def test_elimination_matches_combinatorial():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            a = _random_skew(rng, n)
            ref = pfaffian_combinatorial(a)
            got = pfaffian(a)
            assert math.isclose(got, ref, rel_tol=1e-10)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(1)
    for n in (4, 8, 12):
        a = _random_skew(rng, n)
        pf = pfaffian(a)
        assert math.isclose(pf * pf, np.linalg.det(a), rel_tol=1e-9)


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian_combinatorial(np.zeros((5, 5)))


def test_non_antisymmetric_rejected():
    with pytest.raises(ValueError):
        pfaffian(np.eye(4))


def test_singular_matrix_sign_zero():
    sign, logabs = pfaffian_sign_logabs(np.zeros((4, 4)))
    assert sign == 0 and logabs == -math.inf


def test_pfaffian_minor_against_full():
    rng = np.random.default_rng(2)
    a = _random_skew(rng, 6)
    full = pfaffian_minor(a, tuple(range(6)))
    assert math.isclose(full, pfaffian(a), rel_tol=1e-10)
    # a transposition of the index tuple flips the sign
    swapped = pfaffian_minor(a, (1, 0, 2, 3, 4, 5))
    assert math.isclose(swapped, -full, rel_tol=1e-10)


def test_skew_matrix_storage_is_exactly_antisymmetric():
    m = SkewMatrix.zeros(4)
    m.add_pair(0, 1, 0.3)
    m.add_pair(1, 0, 0.1)  # accumulates as -0.1 at (0, 1)
    d = m.dense()
    assert np.max(np.abs(d + d.T)) == 0.0
    assert d[0, 1] == 0.3 - 0.1
    with pytest.raises(ValueError):
        m.add_pair(2, 2, 1.0)


def test_skew_inverse_roundtrip():
    rng = np.random.default_rng(3)
    a = _random_skew(rng, 10)
    inv = skew_inverse(a).dense()
    assert np.max(np.abs(a @ inv - np.eye(10))) < 1e-10
    assert np.max(np.abs(inv + inv.T)) == 0.0


def test_skew_inverse_rejects_singular():
    with pytest.raises(SingularSkewError):
        skew_inverse(np.zeros((4, 4)))
    with pytest.raises(SingularSkewError):
        skew_inverse(np.zeros((3, 3)))


def test_overflow_safe_logabs():
    # 300 doublings would overflow a plain product of pivots
    n = 600
    u = np.zeros((n, n))
    for i in range(0, n, 2):
        u[i, i + 1] = 2.0
    a = u - u.T
    sign, logabs = pfaffian_sign_logabs(a)
    assert sign == 1.0
    assert math.isclose(logabs, (n // 2) * math.log(2.0), rel_tol=1e-12)
