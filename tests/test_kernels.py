"""Local-kernel calculus: collapse, interpolation, symmetrization, norms.

The structural identities (remainder equivalence, operator algebra,
exact zeros) are checked through the wedge-expansion oracle, which
reduces every kernel to its canonical antisymmetric coefficients; the
array operators are checked against the tuple oracles of
tests/kernel_oracle.py.
"""

import math

import numpy as np
import pytest

from isingcyl import kernels
from isingcyl.kernels import (
    Kernel,
    certify_translation_invariance,
    interpolate_remainder,
    interpolation_bound_reports,
    kernel_from_text,
    kernel_to_text,
    localization_operator,
    localize_collapse,
    random_sparse_kernel,
    renormalization_operator,
    symmetrize,
    weighted_norm,
)
import kernel_oracle
from kernel_oracle import (
    antisymmetrize,
    canonical_path,
    derivative_expansion,
    formal_pairing,
    kernels_equivalent,
    reflect_entry,
    reflection_average,
    span_projection,
    wedge_expansion,
)
from oracles import kinetic_monomial, mass_monomial


def _mixed(rng, entries=4):
    out = Kernel(translation_invariant=True)
    for n, p in ((2, 0), (2, 1), (2, 2), (4, 0), (4, 1)):
        out = out.plus(random_sparse_kernel(rng, n, p, entries=entries))
    return out


# ---------------------------------------------------------------------------
# label bookkeeping


def test_label_validation():
    k = Kernel(translation_invariant=True)
    with pytest.raises(ValueError):
        k.add(((2, (0, 0), (0, 0)), (1, (0, 0), (1, 0))), 1.0)
    with pytest.raises(ValueError):
        k.add(((1, (3, 0), (0, 0)), (1, (0, 0), (1, 0))), 1.0)
    with pytest.raises(ValueError):
        k.add(((1, (0, 0), (0, 0)),), 1.0)


def test_anchored_lookup_is_shift_invariant():
    k = Kernel(translation_invariant=True)
    k.add(((1, (0, 0), (5, 7)), (-1, (1, 0), (6, 7))), 0.25)
    assert k.value(((1, (0, 0), (0, 0)), (-1, (1, 0), (1, 0)))) == 0.25
    assert k.value(((1, (0, 0), (-3, 2)), (-1, (1, 0), (-2, 2)))) == 0.25


def test_certification_detects_inconsistency():
    lit = Kernel(translation_invariant=False)
    lit.add(((1, (0, 0), (0, 0)), (-1, (0, 0), (1, 0))), 0.5)
    lit.add(((1, (0, 0), (2, 3)), (-1, (0, 0), (3, 3))), 0.5)
    cert = certify_translation_invariance(lit)
    assert cert.translation_invariant and len(cert) == 1
    bad = Kernel(translation_invariant=False)
    bad.add(((1, (0, 0), (0, 0)), (-1, (0, 0), (1, 0))), 0.5)
    bad.add(((1, (0, 0), (2, 3)), (-1, (0, 0), (3, 3))), 0.75)
    with pytest.raises(ValueError):
        certify_translation_invariance(bad)


def test_mixing_anchored_and_literal_rejected():
    a = Kernel(translation_invariant=True)
    b = Kernel(translation_invariant=False)
    with pytest.raises(ValueError):
        a.plus(b)


def test_labels_outside_the_packed_range_raise():
    # a coordinate must pack into 13 bits, a derivative into the allowed set;
    # nothing wraps silently, at entry or after a label motion
    limit = kernels.COORD_LIMIT
    for z in ((limit, 0), (0, -limit - 1), (2 ** 40, 0), (0, -2 ** 63)):
        with pytest.raises(ValueError, match="packed"):
            Kernel().add(((1, (0, 0), (0, 0)), (-1, (0, 0), z)), 1.0)
    for d in ((3, 0), (0, 3), (-1, 0), (2, 1)):
        with pytest.raises(ValueError, match="derivative"):
            Kernel().add(((1, d, (0, 0)), (-1, (0, 0), (1, 0))), 1.0)
    edge = Kernel()
    edge.add(((1, (0, 0), (-limit, limit - 1)), (-1, (0, 0), (limit - 1, -limit))), 1.0)
    assert len(kernel_from_text(kernel_to_text(edge))) == 1
    with pytest.raises(ValueError, match="packed"):
        kernel_from_text(f"kernel 1 literal\n2 1,-1 0:0,0:0 0:0,{limit}:0 1.0\n")
    # anchoring at the far field doubles the span
    wide = Kernel(translation_invariant=True)
    wide.add(((1, (0, 0), (-3000, 0)), (-1, (0, 0), (3000, 0))), 1.0)
    with pytest.raises(ValueError, match="packed"):
        symmetrize(wide)
    # in range when stored, out of range once reflected and re-anchored
    spread = Kernel(translation_invariant=True)
    spread.add(((1, (0, 0), (0, 0)), (1, (0, 0), (3000, 0)), (-1, (0, 0), (-3000, 0)),
                (-1, (0, 0), (0, 1))), 1.0)
    assert len(localize_collapse(spread)) == 1
    with pytest.raises(ValueError, match="packed"):
        symmetrize(spread)


# ---------------------------------------------------------------------------
# collapse and interpolation


def test_canonical_path_staircase():
    assert canonical_path((0, 0), (0, 0)) == ()
    assert canonical_path((0, 0), (2, 1)) == ((0, 0), (1, 0), (2, 0), (2, 1))
    assert canonical_path((1, 1), (-1, 0)) == ((1, 1), (0, 1), (-1, 1), (-1, 0))


def test_collapse_moves_everything_to_first_position():
    k = Kernel(translation_invariant=True)
    k.add(((1, (0, 0), (0, 0)), (-1, (0, 0), (2, 1))), 1.5)
    c = localize_collapse(k)
    assert c.value(((1, (0, 0), (0, 0)), (-1, (0, 0), (0, 0)))) == 1.5
    assert len(c) == 1


def test_interpolated_remainder_hand_case():
    k = Kernel(translation_invariant=True)
    k.add(((1, (0, 0), (0, 0)), (-1, (0, 0), (2, 1))), 1.0)
    rem = interpolate_remainder(k, 2, 0)
    # three path steps: two horizontal differences, one vertical
    assert len(rem) == 3
    assert rem.value(((1, (0, 0), (0, 0)), (-1, (1, 0), (0, 0)))) == 1.0
    assert rem.value(((1, (0, 0), (0, 0)), (-1, (1, 0), (1, 0)))) == 1.0
    assert rem.value(((1, (0, 0), (0, 0)), (-1, (0, 1), (2, 0)))) == 1.0


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (4, 0)])
def test_remainder_equivalence_oracle(n, p):
    # the defining identity: sector = collapse + interpolated remainder,
    # as Grassmann forms
    rng = np.random.default_rng(10 * n + p)
    for _ in range(5):
        v = random_sparse_kernel(rng, n, p, entries=5)
        rebuilt = localize_collapse(v, n, p).plus(interpolate_remainder(v, n, p))
        assert kernels_equivalent(v, rebuilt)


@pytest.mark.parametrize("translation_invariant", [True, False])
def test_interpolation_matches_entry_by_entry_oracle(translation_invariant):
    # the array spread over path steps equals the tuple one bit for bit
    rng = np.random.default_rng(31)
    for n, p in ((2, 0), (2, 1), (4, 0)):
        for _ in range(4):
            v = random_sparse_kernel(rng, n, p, entries=8, box=4,
                                     translation_invariant=translation_invariant)
            v = v.plus(random_sparse_kernel(rng, 4, 1, entries=2,
                                            translation_invariant=translation_invariant))
            got = interpolate_remainder(v, n, p)
            want = kernel_oracle.interpolate_remainder(v, n, p)
            assert got.translation_invariant == translation_invariant
            assert dict(got.items()) == dict(want.items())


def test_interpolation_rejects_other_sectors():
    rng = np.random.default_rng(3)
    v = random_sparse_kernel(rng, 2, 2, entries=3)
    with pytest.raises(ValueError):
        interpolate_remainder(v, 2, 2)


def test_derivative_expansion_preserves_wedge():
    # on a literal kernel the rewrite is wedge-exact at every index; an
    # anchored kernel re-bases when the first field moves, so there the
    # identity is only representative-exact away from the anchor field
    rng = np.random.default_rng(4)
    lit = random_sparse_kernel(rng, 2, 1, entries=5,
                               translation_invariant=False)
    for idx in (0, 1):
        for direction in (1, 2):
            assert kernels_equivalent(lit, derivative_expansion(lit, idx,
                                                                direction))
    anchored = random_sparse_kernel(rng, 2, 1, entries=5)
    for direction in (1, 2):
        assert kernels_equivalent(anchored,
                                  derivative_expansion(anchored, 1, direction))
    with pytest.raises(ValueError):
        derivative_expansion(lit, 0, 3)


def test_formal_pairing_respects_equivalence():
    rng = np.random.default_rng(5)
    v = random_sparse_kernel(rng, 2, 0, entries=5)
    rebuilt = localize_collapse(v, 2, 0).plus(interpolate_remainder(v, 2, 0))
    monos = set(wedge_expansion(v)) | set(wedge_expansion(rebuilt))
    coeffs = {m: float(rng.uniform(-1, 1)) for m in monos}
    assert math.isclose(formal_pairing(v, coeffs),
                        formal_pairing(rebuilt, coeffs),
                        rel_tol=0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# symmetrization and the operator algebra


def test_symmetrize_is_projection():
    rng = np.random.default_rng(6)
    v = _mixed(rng)
    s = symmetrize(v)
    assert s.max_abs_diff(symmetrize(s)) < 1e-14
    # antisymmetrization alone is also idempotent
    a = antisymmetrize(v)
    assert a.max_abs_diff(antisymmetrize(a)) < 1e-14
    # reflection averaging commutes into the full symmetrization
    assert symmetrize(reflection_average(v)).max_abs_diff(s) < 1e-13


def _assert_matches_two_stage(v):
    # same support; on these draws quadratic sectors agree bit for bit and
    # the rest within one ulp (one division by 4 n! instead of n!, then 4)
    got = symmetrize(v)
    want = reflection_average(antisymmetrize(v))
    assert got.translation_invariant == want.translation_invariant
    assert set(dict(got.items())) == set(dict(want.items()))
    for key, w in want.items():
        g = got.value(key)
        if len(key) == 2:
            assert g == w, key
        else:
            assert abs(g - w) <= math.ulp(w), key


def test_symmetrize_matches_two_stage_projection():
    for seed in range(25):
        v = _mixed(np.random.default_rng(seed))
        _assert_matches_two_stage(v)
        _assert_matches_two_stage(symmetrize(v))
    # sectors never mix, so the (6, 0) and (2, 3) ones (drawing a (6, 0)
    # kernel enumerates 6^6 splittings) are checked once, together
    rng = np.random.default_rng(25)
    extra = random_sparse_kernel(rng, 6, 0, entries=5).plus(
        random_sparse_kernel(rng, 2, 3, entries=10))
    _assert_matches_two_stage(extra.plus(_mixed(rng)))


def test_symmetrize_matches_two_stage_at_six_fields():
    # 6! orderings per entry, with derivative labels and repeated sites,
    # anchored and literal
    rng = np.random.default_rng(26)
    for ti in (True, False):
        for p in (0, 1, 2):
            _assert_matches_two_stage(random_sparse_kernel(
                rng, 6, p, entries=3, box=1, translation_invariant=ti))


def test_symmetrize_rounds_each_orbit_once():
    # the orbit sum is 2^-60 exactly; rounding it per ordering first, as
    # the two-stage projection does, loses the 2^-60 and leaves zero
    l1, l2 = (1, (0, 0), (0, 0)), (-1, (0, 0), (1, 0))
    v = Kernel()
    v.add((l1, l2), 1.0)
    v.add((l2, l1), -2.0 ** -60)
    mirrored, factor = reflect_entry((l1, l2), (1,))
    v.add(mirrored, -factor)
    s = symmetrize(v)
    assert len(s) == 8
    assert {abs(x) for _, x in s.items()} == {2.0 ** -63}


def test_symmetrize_matches_two_stage_on_literal_kernels():
    rng = np.random.default_rng(25)
    for n, p in ((2, 0), (2, 1), (4, 0), (4, 2)):
        lit = random_sparse_kernel(rng, n, p, entries=6, box=1,
                                   translation_invariant=False)
        _assert_matches_two_stage(lit)
        assert not symmetrize(lit).translation_invariant


def test_quartic_collapse_vanishes_identically():
    # collapsing a quartic repeats field labels, which the antisymmetric
    # projection kills exactly, raw or symmetrized
    rng = np.random.default_rng(7)
    for _ in range(10):
        v40 = random_sparse_kernel(rng, 4, 0, entries=6)
        assert symmetrize(localize_collapse(v40, 4, 0)).max_abs() == 0.0
        assert localization_operator(v40).max_abs() == 0.0
        assert localization_operator(symmetrize(v40)).max_abs() == 0.0


def test_localization_idempotent_on_invariant_kernels():
    # the operator identities hold exactly on the reflection-invariant
    # class (the physical one); raw kernels can leave it
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = symmetrize(_mixed(rng, entries=5))
        loc = localization_operator(v)
        assert localization_operator(loc).max_abs_diff(loc) == 0.0
        assert renormalization_operator(loc).max_abs() == 0.0


def test_localization_lands_in_the_marginal_span():
    rng = np.random.default_rng(9)
    v = symmetrize(_mixed(rng, entries=5))
    loc = localization_operator(v)
    basis = [mass_monomial(), kinetic_monomial(1), kinetic_monomial(2)]
    _, resid = span_projection(loc, basis)
    assert resid < 1e-12


def test_renormalization_case_table():
    rng = np.random.default_rng(10)
    v = symmetrize(_mixed(rng, entries=4))
    # sectors outside the special set pass through untouched
    v = v.plus(random_sparse_kernel(rng, 6, 0, entries=3)).plus(
        random_sparse_kernel(rng, 2, 3, entries=3))
    ren = renormalization_operator(v)
    for sector in ((2, 0), (2, 1), (4, 0)):
        assert ren.sector(*sector).max_abs() == 0.0
    for sector in ((6, 0), (2, 3)):
        assert len(v.sector(*sector))
        assert ren.sector(*sector).max_abs_diff(v.sector(*sector)) == 0.0


def test_operators_require_certificate():
    lit = Kernel(translation_invariant=False)
    lit.add(((1, (0, 0), (0, 0)), (-1, (0, 0), (1, 0))), 1.0)
    with pytest.raises(ValueError):
        localization_operator(lit)
    with pytest.raises(ValueError):
        renormalization_operator(lit)
    with pytest.raises(ValueError):
        interpolation_bound_reports(lit, [(0.0, 0.5)])


# ---------------------------------------------------------------------------
# weighted norms and the interpolation bounds


def test_symmetrization_contracts_underived_norms():
    rng = np.random.default_rng(11)
    for n, p in ((2, 0), (4, 0)):
        v = random_sparse_kernel(rng, n, p, entries=6)
        for rate in (0.0, 0.3):
            assert (weighted_norm(symmetrize(v), n, p, rate)
                    <= weighted_norm(v, n, p, rate) + 1e-12)


def test_symmetrization_norm_slack_on_derivative_sectors():
    # reflections re-base the derivative stencil, so at positive rate
    # the contraction only holds with the e^{rate p} allowance
    rng = np.random.default_rng(12)
    for n, p in ((2, 1), (2, 2), (4, 1)):
        v = random_sparse_kernel(rng, n, p, entries=6)
        assert (weighted_norm(symmetrize(v), n, p, 0.0)
                <= weighted_norm(v, n, p, 0.0) + 1e-12)
        rate = 0.4
        bound = math.exp(rate * p) * weighted_norm(v, n, p, rate)
        assert weighted_norm(symmetrize(v), n, p, rate) <= bound + 1e-12


NORM_RATES = (0.0, 0.1, 0.3, 0.7, 1.2, 2.0)


def _rows_only(kernel):
    """The same blocks without the orbits `symmetrize` keeps: the row path."""
    return Kernel._of(kernel._arrays(), kernel.translation_invariant)


def _assert_orbit_norms_equal_row_norms(kernel, weighted=True):
    rows = _rows_only(kernel)
    for n, p in kernel.sectors():
        assert (n, p) in kernel._orbits
        orbit, row = kernels._norm_table(kernel, n, p), kernels._norm_table(rows, n, p)
        for rate in NORM_RATES:
            assert kernels._evaluate_norm(orbit, rate) == kernels._evaluate_norm(row, rate)
        if weighted:
            assert weighted_norm(kernel, n, p, 0.7) == weighted_norm(rows, n, p, 0.7)


@pytest.mark.parametrize("name", ["mixed_raw", "mixed_sym", "criterion10"])
def test_orbit_norms_equal_row_norms_on_the_frozen_corpus(name):
    # the renormalized blocks are the ones the frozen digests pin (memoized
    # on the corpus kernels); up to 10^5 rows each, so no weighted_norm there
    from test_kernel_frozen import _corpus

    for k in _corpus(name):
        _assert_orbit_norms_equal_row_norms(symmetrize(k))
        for block in kernels._interpolations(k)[2].values():
            _assert_orbit_norms_equal_row_norms(block, weighted=False)


def test_orbit_norms_count_repeated_fields():
    # equal (omega, z) on two fields (different D) and repeated sites:
    # orbit groups whose multisets have multiplicities above one
    k = Kernel(translation_invariant=True)
    k.add(((1, (0, 0), (0, 0)), (1, (1, 0), (0, 0)), (-1, (0, 0), (2, 1)),
           (-1, (0, 1), (2, 1))), 0.75)
    k.add(((1, (0, 0), (0, 0)), (-1, (1, 0), (0, 0)), (1, (0, 0), (1, 0)),
           (-1, (0, 0), (1, 0))), -0.5)
    k.add(((1, (1, 0), (0, 0)), (1, (0, 0), (0, 0)), (-1, (0, 0), (0, 3)),
           (-1, (0, 1), (2, 1))), 0.25)
    sym = symmetrize(k)
    assert sym.sectors() == [(4, 1), (4, 2)]
    heads = sym._orbits[(4, 2)][0][..., [0, 3, 4]].tolist()
    assert any(len({tuple(field) for field in row}) < 4 for row in heads)
    _assert_orbit_norms_equal_row_norms(sym)


def test_orbit_norm_rejects_five_distinct_sites_like_the_rows():
    on_five = symmetrize(certify_translation_invariance(
        _six_field_kernel([(0, 0), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])))
    assert (6, 0) in on_five._orbits
    message = r"sector \(6, 0\) has an entry on 5 distinct sites.*at most 4"
    for k in (on_five, _rows_only(on_five)):
        with pytest.raises(ValueError, match=message):
            weighted_norm(k, 6, 0, 0.5)
    on_four = symmetrize(certify_translation_invariance(
        _six_field_kernel([(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (1, 1)])))
    _assert_orbit_norms_equal_row_norms(on_four)


def test_literal_kernels_keep_the_row_path():
    rng = np.random.default_rng(19)
    literal = symmetrize(random_sparse_kernel(rng, 4, 1, entries=4, translation_invariant=False))
    assert literal.sectors() == [(4, 1)] and literal._orbits == {}
    assert (weighted_norm(literal, 4, 1, 0.3)
            == kernels._evaluate_norm(kernels._norm_table(_rows_only(literal), 4, 1), 0.3))


def test_add_after_an_operator_drops_the_memo_and_the_orbits():
    rng = np.random.default_rng(20)
    sym = symmetrize(_mixed(rng, entries=3))
    localization_operator(sym)
    renormalization_operator(sym)
    interpolation_bound_reports(sym, [(0.2, 0.5)])
    assert sym._memo and sym._orbits
    label = ((1, (0, 0), (0, 0)), (-1, (1, 0), (1, 2)))
    sym.add(label, 0.125)
    assert sym._memo == {} and sym._orbits == {}
    fresh = Kernel(translation_invariant=True)
    for key, value in sym.items():
        fresh.add(key, value)
    assert renormalization_operator(sym).max_abs_diff(renormalization_operator(fresh)) == 0.0
    assert localization_operator(sym).max_abs_diff(localization_operator(fresh)) == 0.0
    assert (interpolation_bound_reports(sym, [(0.2, 0.5)])
            == interpolation_bound_reports(fresh, [(0.2, 0.5)]))


def test_bound_reports_follow_the_one_rule_on_the_criterion_10_kernels():
    # each family written out by hand: (n - 1)/step for a single step,
    # step^-2 for two, the renormalized blocks summing their inputs
    from test_kernel_frozen import _corpus

    combos = [(0.0, 0.1), (0.0, 0.5), (0.2, 0.1), (0.2, 0.5)]
    for k in _corpus("criterion10"):
        once, twice, renormalized = kernels._interpolations(k)
        held = k.sectors()
        for (rate, step), report in zip(combos, interpolation_bound_reports(k, combos)):
            def norm(n, p, shift=0.0):
                return weighted_norm(k, n, p, rate + shift)

            want = {f"single_{n}{p}_to_{n}{p + 1}":
                    (weighted_norm(once[(n, p)], n, p + 1, rate), (n - 1) / step * norm(n, p, step))
                    for n, p in kernels.INTERPOLATED_SECTORS if (n, p) in held}
            if (2, 0) in held:
                want["double_20_to_22"] = (weighted_norm(twice, 2, 2, rate),
                                           step ** -2 * norm(2, 0, 2 * step))
            want["renormalized_22"] = (weighted_norm(renormalized[(2, 2)], 2, 2, rate),
                                       norm(2, 2) + norm(2, 1, step) / step
                                       + norm(2, 0, 2 * step) / step ** 2)
            want["renormalized_41"] = (weighted_norm(renormalized[(4, 1)], 4, 1, rate),
                                       norm(4, 1) + 3.0 / step * norm(4, 0, step))
            assert sorted(report) == sorted(want)
            for name, (lhs, rhs) in want.items():
                for got, ref in zip(report[name], (lhs, rhs, rhs - lhs)):
                    assert abs(got - ref) <= 4 * math.ulp(ref), (name, got, ref)


def test_operators_and_bounds_share_the_interpolations(monkeypatch):
    rng = np.random.default_rng(21)
    sym = symmetrize(_mixed(rng, entries=3))
    calls = []

    def counted(kernel, n, p):
        calls.append((n, p))
        return interpolate_remainder(kernel, n, p)

    monkeypatch.setattr(kernels, "interpolate_remainder", counted)
    localization_operator(sym)
    assert calls == [(2, 0)]
    renormalization_operator(sym)
    interpolation_bound_reports(sym, [(0.0, 0.5)])
    interpolation_bound_reports(sym, [(0.2, 0.1)])
    assert sorted(calls) == [(2, 0), (2, 1), (2, 1), (4, 0)]


def test_interpolation_bounds_nonnegative_margins():
    rng = np.random.default_rng(13)
    combos = [(0.0, 0.1), (0.0, 0.5), (0.2, 0.1), (0.2, 0.5)]
    for _ in range(5):
        v = _mixed(rng, entries=4)
        for report in interpolation_bound_reports(v, combos):
            for name, (value, bound, margin) in report.items():
                assert margin >= 0.0, name


def test_interpolation_bounds_parameter_validation():
    rng = np.random.default_rng(14)
    v = random_sparse_kernel(rng, 2, 0, entries=3)
    with pytest.raises(ValueError):
        interpolation_bound_reports(v, [(-0.1, 0.5)])
    with pytest.raises(ValueError):
        interpolation_bound_reports(v, [(0.1, 0.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rates_rejected(bad):
    rng = np.random.default_rng(14)
    v = random_sparse_kernel(rng, 2, 0, entries=3)
    with pytest.raises(ValueError):
        weighted_norm(v, 2, 0, bad)
    with pytest.raises(ValueError):
        interpolation_bound_reports(v, [(bad, 0.5)])
    with pytest.raises(ValueError):
        interpolation_bound_reports(v, [(0.1, bad)])


def test_overflowing_rates_raise_value_errors_naming_the_rate():
    v = symmetrize(random_sparse_kernel(np.random.default_rng(22), 4, 1, entries=6))
    with pytest.raises(ValueError, match=r"rate 500\.0: the weighted norm of sector \(4, 1\) "
                                         r"overflows"):
        weighted_norm(v, 4, 1, 500.0)
    with pytest.raises(ValueError, match=r"rate 1e\+308:"):
        weighted_norm(v, 4, 1, 1e308)
    with pytest.raises(ValueError, match=r"rate 500\.0 \(rate_step 0\.5\): a weighted norm "
                                         r"overflows"):
        interpolation_bound_reports(v, [(0.0, 0.5), (500.0, 0.5)])
    for step in (1e-300, 1e-160, 5e-324):
        with pytest.raises(ValueError, match=f"rate_step .*got {step}"):
            interpolation_bound_reports(v, [(0.0, step)])
    # the smallest steps whose inverse square is a float still report
    assert interpolation_bound_reports(v, [(0.0, 1e-150)])[0]


def test_overflowing_bounds_raise_value_errors_naming_the_rate():
    # finite norms, but 1 / rate_step^2 = 1e308 times the (2, 0) norm 4 is not a float
    k = Kernel(translation_invariant=True)
    k.add(((1, (0, 0), (0, 0)), (-1, (0, 0), (1, 0))), 4.0)
    with pytest.raises(ValueError, match=r"rate 0\.0 \(rate_step 1e-154\): .*bound"):
        interpolation_bound_reports(k, [(0.0, 0.5), (0.0, 1e-154)])
    # one step larger, every bound is a float again
    bound = interpolation_bound_reports(k, [(0.0, 1e-150)])[0]["double_20_to_22"][1]
    assert bound == pytest.approx(4e300)


def _six_field_kernel(positions):
    k = Kernel()
    k.add(tuple((1 if i % 2 else -1, (0, 0), z) for i, z in enumerate(positions)), 0.5)
    return k


def test_weighted_norm_domain_is_four_distinct_sites():
    # n = 6 on the corners of a unit square: the Steiner length is 3
    on_four = _six_field_kernel([(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (1, 1)])
    assert weighted_norm(on_four, 6, 0, 0.5) == pytest.approx(0.5 * math.exp(1.5))
    on_five = _six_field_kernel([(0, 0), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"sector \(6, 0\) has an entry on 5 distinct "
                                         r"sites.*at most 4"):
        weighted_norm(on_five, 6, 0, 0.5)


def test_random_kernel_rejects_negative_draw_sizes():
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError, match="entries"):
        random_sparse_kernel(rng, 2, 1, entries=-3)
    with pytest.raises(ValueError, match="box"):
        random_sparse_kernel(rng, 2, 1, box=-1)


def test_single_report_matches_batch():
    rng = np.random.default_rng(15)
    v = _mixed(rng, entries=3)
    lone = interpolation_bound_reports(v, [(0.1, 0.25)])[0]
    batch = interpolation_bound_reports(v, [(0.0, 0.5), (0.1, 0.25)])[1]
    assert lone == batch


def test_bound_report_interpolates_each_sector_once(monkeypatch):
    # three interpolated sectors plus the second (2, 0) step, shared by
    # the single, double and renormalized bounds
    rng = np.random.default_rng(17)
    v = symmetrize(_mixed(rng, entries=3))
    calls = []

    def counted(kernel, n, p):
        calls.append((n, p))
        return interpolate_remainder(kernel, n, p)

    monkeypatch.setattr(kernels, "interpolate_remainder", counted)
    reports = interpolation_bound_reports(v, [(0.0, 0.5), (0.2, 0.1)])
    assert len(calls) <= 4
    assert len(reports) == 2 and len(reports[0]) == 6


# ---------------------------------------------------------------------------
# serialization


def test_text_roundtrip_bit_exact():
    rng = np.random.default_rng(16)
    v = _mixed(rng, entries=5)
    back = kernel_from_text(kernel_to_text(v))
    assert back.max_abs_diff(v) == 0.0
    assert back.translation_invariant
    lit = random_sparse_kernel(rng, 2, 0, entries=4,
                               translation_invariant=False)
    back = kernel_from_text(kernel_to_text(lit))
    assert back.max_abs_diff(lit) == 0.0
    assert not back.translation_invariant


def test_text_dump_is_deterministic():
    rng = np.random.default_rng(17)
    v = _mixed(rng, entries=3)
    txt = kernel_to_text(v)
    assert txt == kernel_to_text(kernel_from_text(txt))


def test_text_parse_errors():
    with pytest.raises(ValueError):
        kernel_from_text("")
    with pytest.raises(ValueError):
        kernel_from_text("kernel 99 anchored\n")
    with pytest.raises(ValueError):
        kernel_from_text("kernel 1 sideways\n")
    with pytest.raises(ValueError):
        kernel_from_text("kernel 1 anchored\n2 1 0:0 0:0 1.0\n")
    # a site with one coordinate, or with three
    for site in ("1", "1:0:0"):
        with pytest.raises(ValueError, match="arity"):
            kernel_from_text(f"kernel 1 literal\n2 1,-1 0:0,0:0 0:0,{site} 1.0\n")
