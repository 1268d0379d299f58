"""Scale decomposition: windows, telescoping, decay fits, Gram vectors."""

import math

import numpy as np
import pytest

from isingcyl import multiscale, spectral
from isingcyl.exact import Couplings
from isingcyl.lattice import CylinderGeometry, per_range
from isingcyl.multiscale import (
    _SHARP_PHASE,
    _weight,
    PLANE_TOL,
    _bulk_sample_displacements,
    _plane_error_bound,
    _plane_heat_sum,
    _plane_quadrature,
    _separable_symbol,
    bulk_decay_report,
    bulk_edge_split,
    gram_inner,
    gram_norms,
    gram_report,
    gram_rows,
    gram_vector,
    h_star,
    plane_block_batch,
    scale_indices,
    scale_weight,
    single_scale_propagator,
    tail_bound_report,
    tail_propagator,
    tail_weight,
    telescoping_residual,
)
from oracles import GRAM_SLOTS, full_gram_rows, plane_block_trapezoid

ISO = Couplings.isotropic_critical()
EPS = np.finfo(float).eps
T05 = Couplings.critical_from_t1(0.5)
# trapezoid grids on which the oracle has converged to rounding
ORACLE_N = {0: 64, -1: 128, -3: 512, -5: 1024}


def test_h_star_and_scale_indices():
    assert h_star(CylinderGeometry(8, 8)) == -3
    assert h_star(CylinderGeometry(32, 16)) == -4
    g = CylinderGeometry(16, 16)
    assert scale_indices(g) == list(range(-4, 1))


def test_windows_partition_unity():
    # tail at h plus every window above h resums to one, pointwise in D
    for h in (-5, -3, -1):
        for d in (1e-6, 1e-3, 0.7, 2.0, 7.9):
            total = tail_weight(h, d) + math.fsum(
                scale_weight(j, d) for j in range(h + 1, 1))
            assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-12)


def test_telescoping_residual_all_scales():
    g = CylinderGeometry(8, 6)
    for h in scale_indices(g):
        for z, zp in [((1, 1), (8, 6)), ((3, 2), (6, 5))]:
            assert telescoping_residual(g, ISO, z, zp, h) < 1e-12


def test_batched_telescoping_equals_per_pair_values():
    g = CylinderGeometry(16, 12)
    cpl = Couplings.critical_from_t1(0.3)
    rng = np.random.default_rng(5)
    z = np.column_stack([rng.integers(1, 17, 25), rng.integers(1, 13, 25)])
    zp = np.column_stack([rng.integers(1, 17, 25), rng.integers(1, 13, 25)])
    for h in scale_indices(g):
        batch = telescoping_residual(g, cpl, z, zp, h)
        assert batch.shape == (len(z),)
        ones = [telescoping_residual(g, cpl, tuple(a), tuple(b), h)
                for a, b in zip(z.tolist(), zp.tolist())]
        assert all(type(r) is float for r in ones)
        assert np.max(np.abs(batch - ones)) <= 1e-15
        assert np.max(batch) <= 1e-15
    with pytest.raises(ValueError, match="outside"):
        telescoping_residual(g, cpl, z, zp, h_star(g) - 1)


def test_telescoping_ladder_is_stacked_once_per_table_and_scale():
    g = CylinderGeometry(16, 12)
    data = spectral.spectral_data(g, ISO)
    first = telescoping_residual(g, ISO, (3, 2), (9, 11), -2)
    ladder = multiscale._WEIGHTS[data]["ladder", -2]
    assert ladder.shape == (4,) + data.D.shape and not ladder.flags.writeable
    assert telescoping_residual(g, ISO, (3, 2), (9, 11), -2) == first
    assert multiscale._WEIGHTS[data]["ladder", -2] is ladder
    with pytest.raises(ValueError, match="outside"):
        telescoping_residual(g, ISO, (3, 2), (9, 11), h_star(g) - 1)
    assert ("ladder", h_star(g) - 1) not in multiscale._WEIGHTS[data]


def test_telescoping_anisotropic():
    g = CylinderGeometry(8, 4)
    cpl = Couplings.critical_from_t1(0.5)
    assert telescoping_residual(g, cpl, (2, 1), (7, 4)) < 1e-12


def test_single_scale_boundary_rows_vanish():
    g = CylinderGeometry(8, 5)
    zp = (4, 3)
    for h in (-2, -1, 0):
        bottom = single_scale_propagator(g, ISO, h, (2, 0), zp)
        assert abs(bottom[0, 0]) < 1e-13 and abs(bottom[0, 1]) < 1e-13
        top = single_scale_propagator(g, ISO, h, (2, g.M + 1), zp)
        assert abs(top[1, 0]) < 1e-13 and abs(top[1, 1]) < 1e-13


def test_bulk_edge_split_reassembles():
    g = CylinderGeometry(16, 16)
    h = -2
    # the last pair sits at the antipodal offset L/2, where the ring sign is 0
    pairs = [((3, 5), (9, 8)), ((1, 1), (6, 2)), ((14, 15), (2, 13)), ((1, 7), (9, 7))]
    zs, zps = [z for z, _ in pairs], [zp for _, zp in pairs]
    bulk, edge = bulk_edge_split(g, ISO, h, zs, zps)
    assert bulk.shape == edge.shape == (len(pairs), 2, 2)
    whole = single_scale_propagator(g, ISO, h, zs, zps)
    assert np.max(np.abs(bulk + edge - whole)) < 1e-12
    assert not np.any(bulk[3])
    for p, (z, zp) in enumerate(pairs):
        one_bulk, one_edge = bulk_edge_split(g, ISO, h, z, zp)
        assert one_bulk.shape == one_edge.shape == (2, 2)
        assert np.max(np.abs(one_bulk - bulk[p])) <= 1e-14
        assert np.max(np.abs(one_edge - edge[p])) <= 1e-14


def test_bulk_block_is_image_sum_of_plane():
    g = CylinderGeometry(16, 16)
    h = -1
    # one interior pair and one whose offset wraps the long way round
    zs, zps = [(4, 7), (15, 7)], [(6, 8), (2, 8)]
    folded = [(per_range(z[0] - zp[0], g.L), z[1] - zp[1]) for z, zp in zip(zs, zps)]
    assert folded == [(-2, -1), (-3, -1)]
    bulk, edge = bulk_edge_split(g, ISO, h, zs, zps)
    # the same batch of sorted displacements as the split evaluates
    plane = plane_block_batch(ISO, h, sorted(folded))
    assert np.array_equal(bulk[0], plane[1]) and np.array_equal(bulk[1], -plane[0])
    # interior pair at a high scale: the wrapped images are tiny, so the
    # plane propagator at the folded displacement dominates
    assert np.max(np.abs(edge[0])) < 1e-4
    assert np.max(np.abs(bulk[0])) > 1e-4


@pytest.mark.parametrize("h", [0, -1, -3, -5])
@pytest.mark.parametrize("cpl", [ISO, T05], ids=["isotropic", "t1=0.5"])
def test_plane_blocks_match_trapezoid_oracle(cpl, h):
    dzs = _bulk_sample_displacements(h) + [(0, 0), (-1, 2), (3, -1), (-2, -2)]
    got = plane_block_batch(cpl, h, dzs)
    assert got.shape == (len(dzs), 2, 2) and got.dtype == float
    ref = plane_block_trapezoid(cpl, h, dzs, ORACLE_N[h])
    assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("cpl", [ISO, T05], ids=["isotropic", "t1=0.5"])
def test_plane_error_bound_covers_observed_error(cpl):
    # at the chosen (q, N) and at coarser ones, where the error is visible
    symbol = _separable_symbol(cpl)
    for h in (0, -3, -5):
        dzs = np.array(_bulk_sample_displacements(h))
        n_max = int(np.max(np.abs(dzs))) + 1
        ref = plane_block_trapezoid(cpl, h, dzs, ORACLE_N[h]).real
        q, N = _plane_quadrature(symbol, h, n_max)
        assert _plane_error_bound(symbol, h, n_max, q, N) <= PLANE_TOL
        for qq, NN in [(q, N), (q // 2, N), (q, 2 * n_max), (3, 2 * n_max + 2)]:
            err = np.max(np.abs(_plane_heat_sum(symbol, h, dzs, qq, NN) - ref))
            assert err <= _plane_error_bound(symbol, h, n_max, qq, NN)


def test_fewer_nodes_or_shorter_tables_fail_the_bound():
    for cpl in (ISO, T05):
        symbol = _separable_symbol(cpl)
        for h in (0, -1, -4, -7, -10):
            for n_max in (1, 40, 700):
                q, N = _plane_quadrature(symbol, h, n_max)
                assert _plane_error_bound(symbol, h, n_max, q, N) <= PLANE_TOL
                assert _plane_error_bound(symbol, h, n_max, q - 1, N) > PLANE_TOL
                assert _plane_error_bound(symbol, h, n_max, q, N - 1) > PLANE_TOL
                assert _plane_error_bound(symbol, h, n_max, q, N // 2) > PLANE_TOL


@pytest.mark.parametrize("cpl", [ISO, T05], ids=["isotropic", "t1=0.5"])
def test_bulk_decay_report_at_deep_scales(cpl):
    # the scale-h bump narrows like 2^h in momentum; the fitted envelope
    # constant must stay put as h goes down
    report = bulk_decay_report(cpl, [-7, -8, -9])
    assert all(rec["max_residual"] <= 1e-9 for rec in report)
    cs = [rec["fitted_C"] for rec in report]
    assert max(cs) / min(cs) <= 1.1


def test_bulk_decay_report_fits():
    report = bulk_decay_report(ISO, [-1, -2])
    assert [rec["h"] for rec in report] == [-1, -2]
    for rec in report:
        assert rec["max_residual"] <= 1e-9
        assert rec["fitted_c"] > 0
        assert rec["n_samples"] >= 20


def test_gram_reconstruction_small():
    g = CylinderGeometry(8, 8)
    h = -1
    z, zp = (2, 3), (7, 6)
    direct = single_scale_propagator(g, ISO, h, z, zp)
    norms = np.sqrt(gram_norms(g, ISO, [h], [(0, 0)])[0, 0])
    rec = gram_inner(gram_rows(g, ISO, z, "left", [(0, 0)]),
                     gram_rows(g, ISO, zp, "right", [(0, 0)]), _weight(g, ISO, h)[None])
    assert rec.shape == (1, 1, 2, 1, 2)
    rec = rec[0, 0, :, 0]
    assert np.max(np.abs(rec - direct)) < 1e-12
    assert np.all(np.outer(norms, norms) >= np.abs(rec) - 1e-15)


GRAM_ORDERS = [(0, 0), (1, 0), (0, 1)]
# the Gram vectors (omega, s), in the (s, omega) order of `gram_inner`'s axes
GRAM_ROWS = [(om, s) for s in GRAM_ORDERS for om in (+1, -1)]


@pytest.mark.parametrize("side", ["left", "right"])
def test_gram_rows_equal_single_gram_vectors(side):
    g = CylinderGeometry(12, 10)
    D = spectral.spectral_data(g, ISO).D
    for h, z in ((-1, (3, 4)), (-2, (12, 1)), (0, (7, 10))):
        ring, vec = gram_rows(g, ISO, z, side, GRAM_ORDERS)
        assert vec.shape == (3, 4, 2, 6, 10) and ring.shape == (3, 6)
        for r, (om, s) in enumerate(GRAM_ROWS):
            one_ring, one_vec = gram_vector(g, ISO, h, om, s, z, side)
            assert np.array_equal(one_ring, ring[r // 2])
            assert np.array_equal(one_vec, vec[r // 2, GRAM_SLOTS[side][om]] * np.sqrt(
                scale_weight(h, D)))
        # a block of k1 rows is that block of the whole
        part = gram_rows(g, ISO, z, side, GRAM_ORDERS, slice(2, 5))
        assert np.array_equal(part[0], ring[:, 2:5])
        assert np.max(np.abs(part[1] - vec[..., 2:5, :])) <= 1e-16


# three geometries and couplings for the Gram oracle checks
GRAM_CASES = [(8, 5, None), (12, 7, 0.3), (32, 24, 0.5)]


def _gram_case(L, M, t1):
    return CylinderGeometry(L, M), ISO if t1 is None else Couplings.critical_from_t1(t1)


def _weighted_inner(g, cpl, h, z, zp):
    """The (6, 6) products of the Gram vectors GRAM_ROWS at z and zp at scale h,
    from the weight-1 rows and the weight w_h."""
    rec = gram_inner(gram_rows(g, cpl, z, "left", GRAM_ORDERS),
                     gram_rows(g, cpl, zp, "right", GRAM_ORDERS), _weight(g, cpl, h)[None])
    assert rec.shape == (1, 3, 2, 3, 2) and rec.dtype == np.float64
    return rec.reshape(6, 6)


@pytest.mark.parametrize("L,M,t1", GRAM_CASES)
def test_quarter_rows_are_the_oracle_rows_on_the_quarter(L, M, t1):
    g, cpl = _gram_case(L, M, t1)
    for side, z in (("left", (2, 3)), ("right", (L, M))):
        ring, vec = gram_rows(g, cpl, z, side, GRAM_ORDERS)
        for h in (None, -1):
            full = full_gram_rows(g, cpl, h, z, side, GRAM_ROWS)     # (6, L, 2M, 4, 2)
            for r, (om, s) in enumerate(GRAM_ROWS):
                slots = GRAM_SLOTS[side][om]
                if h is None:
                    one = ring[r // 2], vec[r // 2, slots]
                else:
                    one = gram_vector(g, cpl, h, om, s, z, side)
                rows = one[0][None, None, :, None] * one[1]              # (2, 2, L/2, M)
                ref = full[r, L // 2:, :M][..., slots, :].transpose(2, 3, 0, 1)
                # the oracle takes one exponential of k1 z1 + q2 z2, the rows
                # two; the arguments round to within eps |k z|, |k| < pi
                tol = EPS * (16 + 2 * np.pi * (z[0] + z[1])) * np.max(np.abs(ref))
                assert np.max(np.abs(rows - ref)) <= tol
                # the other two slots of the oracle row are empty
                assert not np.any(full[r][..., [k for k in range(4) if k not in slots], :])


@pytest.mark.parametrize("L,M,t1", GRAM_CASES)
def test_closed_form_gram_norms_match_oracle_vectors(L, M, t1):
    g, cpl = _gram_case(L, M, t1)
    hs = [0, -1, -2]
    closed = gram_norms(g, cpl, hs, GRAM_ORDERS)
    assert closed.shape == (3, 3, 2)
    for h, row in zip(hs, closed.reshape(3, 6)):
        for side, z in (("left", (1, 1)), ("right", (L // 2, M))):
            full = full_gram_rows(g, cpl, h, z, side, GRAM_ROWS).reshape(6, -1)
            oracle = np.linalg.norm(full, axis=1) ** 2
            assert np.max(np.abs(row / oracle - 1.0)) <= 1e-14


@pytest.mark.parametrize("L,M,t1", GRAM_CASES)
def test_quarter_reconstruction_matches_oracle_vdot(L, M, t1):
    g, cpl = _gram_case(L, M, t1)
    for h, z, zp in ((-1, (2, 3), (L, M)), (-2, (L, 1), (3, M // 2)), (0, (1, 0), (2, M + 1))):
        left = full_gram_rows(g, cpl, h, z, "left", GRAM_ROWS).reshape(6, -1)
        right = full_gram_rows(g, cpl, h, zp, "right", GRAM_ROWS).reshape(6, -1)
        oracle = np.array([[np.vdot(a, b) for b in right] for a in left])
        assert np.max(np.abs(oracle.imag)) <= 1e-15
        assert np.max(np.abs(_weighted_inner(g, cpl, h, z, zp) - oracle.real)) <= 1e-15


def _transposed_left_slots(rows_of):
    """`gram_rows` with the slot axis of the left rows read as (., omega)."""
    def rows(geometry, couplings, z, side, orders, part=slice(None)):
        ring, vec = rows_of(geometry, couplings, z, side, orders, part)
        return ring, vec[:, [0, 2, 1, 3]] if side == "left" else vec
    return rows


@pytest.mark.parametrize("wrong", ["slot", "phase"])
def test_wrong_slot_or_dropped_sharp_phase_fails_reconstruction(monkeypatch, wrong):
    g = CylinderGeometry(8, 8)
    z, zp = (2, 3), (7, 6)
    direct = single_scale_propagator(g, ISO, -1, z, zp)
    rows = [(+1, (0, 0)), (-1, (0, 0))]
    if wrong == "slot":
        # left species omega on the slots (., omega)
        slots, phases = {"left": GRAM_SLOTS["right"], "right": GRAM_SLOTS["right"]}, _SHARP_PHASE
    else:
        slots, phases = GRAM_SLOTS, {"left": 1.0, "right": 1.0}
    left = full_gram_rows(g, ISO, -1, z, "left", rows, slots, phases).reshape(2, -1)
    right = full_gram_rows(g, ISO, -1, zp, "right", rows, slots, phases).reshape(2, -1)
    oracle = np.array([[np.vdot(a, b) for b in right] for a in left])
    assert np.max(np.abs(oracle - direct)) > 1e-3
    if wrong == "slot":
        monkeypatch.setattr(multiscale, "gram_rows", _transposed_left_slots(gram_rows))
    else:
        monkeypatch.setattr(multiscale, "_SHARP_PHASE", phases)
    rep = gram_report(g, ISO, [-1, -2], n_pairs=4, seed=0)
    assert rep["max_reconstruction_error"] > 1e-3


def test_gram_report_at_printed_precision():
    # acceptance criterion 6 prints the slope to 3 decimals and the error to
    # 3 digits
    rep = gram_report(CylinderGeometry(32, 32), ISO, (-1, -2), n_pairs=8, seed=2)
    assert f"{rep['norm_slope']:.3f}" == "1.037"
    assert rep["max_reconstruction_error"] <= 1e-15


def test_gram_report_keys():
    g = CylinderGeometry(8, 8)
    rep = gram_report(g, ISO, [-1, -2], n_pairs=4, seed=0)
    assert rep["max_reconstruction_error"] < 1e-10
    assert rep["min_cauchy_schwarz_margin"] >= 0.0
    assert rep["n_pairs"] == 4


def test_gram_report_checks_the_pairs_it_draws():
    # the first 4 pairs of the seed-0 draw, the ones that a report asked
    # for 20 pairs over 6 scales used to check while printing 20
    g = CylinderGeometry(64, 64)
    rep = gram_report(g, ISO, range(-1, -7, -1), n_pairs=4)
    assert rep["n_pairs"] == 4
    assert rep["max_reconstruction_error"] <= 1e-15
    assert rep["min_cauchy_schwarz_margin"] == pytest.approx(
        float.fromhex("0x1.eeaa50ca58bfep-17"), rel=1e-12)
    assert rep["norm_slope"] == pytest.approx(float.fromhex("0x1.14bf52709e381p+0"), rel=1e-12)


def test_gram_report_reconstructs_every_pair_it_draws(monkeypatch):
    # 9 pairs over 4 scales: each pair's left rows are built from k1 row 0 on
    calls = []

    def counted(geometry, couplings, z, side, orders, part=slice(None)):
        calls.append((side, part.start))
        return gram_rows(geometry, couplings, z, side, orders, part)

    monkeypatch.setattr(multiscale, "gram_rows", counted)
    rep = gram_report(CylinderGeometry(16, 16), ISO, range(-1, -5, -1), n_pairs=9)
    assert rep["n_pairs"] == calls.count(("left", 0)) == 9


def test_tail_plus_scales_is_projection_complete():
    # the tail at the bottom scale is itself the whole propagator minus
    # the windows above it; check via the identity at h = h*
    g = CylinderGeometry(8, 4)
    hs = h_star(g)
    z, zp = (2, 1), (5, 4)
    total = tail_propagator(g, ISO, hs, z, zp)
    for j in range(hs + 1, 1):
        total += single_scale_propagator(g, ISO, j, z, zp)
    from isingcyl.spectral import critical_propagator
    full = critical_propagator(g, ISO, z, zp)
    assert np.max(np.abs(total - full)) < 1e-13


@pytest.mark.parametrize("cpl", [ISO, T05], ids=["iso", "t1=0.5"])
@pytest.mark.parametrize("L,M", [(16, 16), (32, 32), (16, 6)])
def test_tail_bound_covers_every_site_pair(monkeypatch, L, M, cpl):
    # C_h 2^h bounds |g^{(<=h)}| on every site pair, the extended rows 0 and
    # M + 1 included, and the sup reaches at least 0.45 of it at every h
    g = CylinderGeometry(L, M)
    hs = scale_indices(g)
    with monkeypatch.context() as m:
        m.setattr(multiscale, "mode_sum", None)      # closed form: no mode sum
        reports = tail_bound_report(g, cpl, hs)
    assert [r["h"] for r in reports] == hs
    sites = np.array([(x, y) for x in range(1, L + 1) for y in range(M + 2)])
    z, zp = np.repeat(sites, len(sites), axis=0), np.tile(sites, (len(sites), 1))
    for rep in reports:
        assert rep["fitted_c"] == rep["max_residual"] == 0.0
        assert rep["n_samples"] == (L * M) ** 2
        bound = rep["fitted_C"] * 2.0 ** rep["h"]
        sup = np.max(np.abs(tail_propagator(g, cpl, rep["h"], z, zp)))
        assert 0.45 * bound <= sup <= bound * (1.0 + 1e-12)
