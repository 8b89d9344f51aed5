import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import dsexact.catalog
import dsexact.residual
from conftest import published_constants
from dsexact import ConfigError, EmptySampleError, Solution, TransformSpec, \
    Variant, compose, family_a, family_c, parse_timefn, verify
from dsexact.catalog import eval_solution
from dsexact.gridio import GridSpec
from dsexact.residual import DEFAULT_H, ORDERS
from dsexact.selftest import default_verification_matrix

GRID = [(0.5, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]


def exact_a(eps1=1, eps2=1, c=1.0):
    return family_a(Variant(eps1, eps2), parse_timefn("t"), c)


def at_point(sol, t, x, y, h=2.0 * DEFAULT_H):
    """The report of a one-point sample: max1, max2 are |R1|, |R2| at the
    fine step h/2 (the default fine step is DEFAULT_H), order 4."""
    return verify(sol, [(t, x, y)], h=h)


def test_exact_solution_has_tiny_residual():
    report = at_point(exact_a(), 0.5, 0.4, -0.7, h=2e-3)
    assert report.max1 <= 1e-8 * 10.0
    assert report.max2 <= 1e-8 * 10.0


def test_zero_solution_residual_is_exactly_zero():
    zero = Solution(Variant(1, 1), lambda t, x, y: 0j,
                    lambda t, x, y: 0.0, lambda t, x, y: True)
    report = at_point(zero, 0.1, 0.2, 0.3)
    assert report.max1 == 0.0 and report.max2 == 0.0


def test_perturbed_mean_flow_shifts_r1_linearly():
    # v -> v + 0.1 changes R1 by -0.2*u and leaves R2 unchanged, so by the
    # triangle inequality |R1| moves from 0.2|u| by at most the base |R1|.
    sol = exact_a()
    bumped = Solution(sol.variant, sol.u,
                      lambda t, x, y: sol.v(t, x, y) + 0.1, sol.valid)
    t, x, y = 0.5, 0.6, -0.4
    base = at_point(sol, t, x, y)
    bump = at_point(bumped, t, x, y)
    assert abs(bump.max1 - 0.2 * abs(sol.u(t, x, y))) <= base.max1 + 1e-9
    assert abs(bump.max2 - base.max2) <= 1e-9


def test_verify_passes_exact_family():
    report = verify(exact_a(-1, 1), GRID)
    assert report.passed
    assert report.n_points == len(GRID)
    assert report.rms1 <= report.max1
    assert report.rms2 <= report.max2


# A step per stencil order at which truncation error dominates roundoff on
# the line below, also at half the step.
TRUNCATION_STEPS = {2: 0.04, 4: 0.08, 6: 0.16}


@pytest.mark.parametrize("order", ORDERS)
def test_nominal_order_convergence_in_truncation_regime(order):
    # Halving h must shrink the R1 and R2 norms by at least 2^(order-0.5),
    # from h to h/2 and again from h/2 to h/4.
    sol = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.3,
                   parse_timefn("0.1*t"))
    pts = [(0.8, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    for h in (TRUNCATION_STEPS[order], TRUNCATION_STEPS[order] / 2.0):
        report = verify(sol, pts, h=h, order=order, tol_rel=float("inf"))
        assert report.n_points == len(pts)
        assert report.order1 >= order - 0.5
        assert report.order2 >= order - 0.5


def test_wrong_constants_produce_h_independent_residual():
    # Feeding the alternative constant set (kappa=+zeta^2 and the doubled
    # linear constant) must fail with an O(1) residual at order ~ 0.
    eps1, eps2, m, ell = -1, 1, 0.7, 0.4
    sol = family_c(Variant(eps1, eps2), "sn", m, ell, 0.3,
                   parse_timefn("0.1*t"),
                   **published_constants("sn", m, eps1, ell, eps2))
    pts = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    report = verify(sol, pts)
    assert not report.passed
    assert abs(report.order1) <= 0.5
    assert abs(report.order2) <= 0.5
    assert report.rms1 >= 1e-2
    # vacuous pass when the tolerance is infinite
    assert verify(sol, pts, tol_rel=float("inf")).passed


def test_stencil_error_and_skipping():
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    with pytest.raises(EmptySampleError):
        at_point(sol, 0.0, math.pi / 2.0 - 5e-4, 0.0, h=2e-3)
    # a grid straddling the pole loses points but still verifies
    xs = [math.pi / 2.0 + 0.22 * i for i in range(-4, 5)]
    pts = [(0.0, x, 0.5) for x in xs]
    report = verify(sol, pts)
    assert report.passed
    assert 0 < report.n_points < len(pts)


def test_empty_sample():
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    with pytest.raises(EmptySampleError):
        verify(sol, [(0.0, math.pi / 2.0, 0.0)])


def test_point_whose_half_step_rounds_away_is_skipped():
    # At x = 1e17, x + h/2 == x, so every x difference is 0 and R1 is no
    # residual at all (kept, the point read rms1 2.7e31 at order 0).  Such
    # a point is skipped like one whose stencil leaves the valid region.
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    report = verify(sol, [(0.2, 0.1, 0.1), (0.2, 1e17, 0.1)])
    assert report.n_points == 1
    assert report == verify(sol, [(0.2, 0.1, 0.1)])
    with pytest.raises(EmptySampleError):
        verify(sol, [(0.2, 1e17, 0.1)])


@pytest.mark.parametrize("order, nodes", [(2, 15), (4, 21), (6, 33)])
def test_each_axis_evaluates_one_row_of_nodes(monkeypatch, order, nodes):
    # Each axis has one row of the distinct offsets s*k of the steps
    # s = h, h/2 (at order 4: -2h, -h, -h/2, 0, h/2, h, 2h), so the nodes
    # the two steps share are evaluated once; only the centre repeats, once
    # on each axis.  Separate stencils per step took 14/26/38 nodes.
    seen = []
    evaluate = dsexact.residual.eval_solution

    def recording(sol, t, x, y):
        seen.append(np.stack(np.broadcast_arrays(t, x, y), axis=-1))
        return evaluate(sol, t, x, y)

    monkeypatch.setattr(dsexact.residual, "eval_solution", recording)
    assert verify(exact_a(), [(0.5, 0.4, -0.7)], order=order).n_points == 1
    [block] = seen
    assert block.shape == (1, 3, nodes // 3, 3)
    assert len(set(map(tuple, block.reshape(-1, 3).tolist()))) == nodes - 2


@pytest.mark.parametrize("times, size", [((0.5,), 3 * 7),
                                         ((0.5, 0.6), len(GRID) * 3 * 7)])
def test_a_one_time_block_walks_its_time_functions_once(monkeypatch, times,
                                                        size):
    # At one t, each time function walks the 3 x 7 t nodes of one point
    # (order 4), not those of every point of the block.
    sizes = []
    walk = dsexact.catalog.jet_arrays

    def recording(f, t):
        sizes.append(np.size(t))
        return walk(f, t)

    monkeypatch.setattr(dsexact.catalog, "jet_arrays", recording)
    sample = [(times[i % len(times)], x, y) for i, (_, x, y) in
              enumerate(GRID)]
    assert verify(exact_a(), sample).n_points == len(GRID)
    assert sizes and set(sizes) == {size}


def test_order_may_be_any_number_equal_to_an_order():
    want = verify(exact_a(), GRID, order=4)
    assert verify(exact_a(), GRID, order=4.0) == want
    assert verify(exact_a(), GRID, order=np.int64(4)) == want


def test_rms_rescales_only_a_sum_that_overflows():
    # Each square, 1e308, is finite; their sum is not.  One row per block.
    assert dsexact.residual._rms([np.full((1, 6), 1e154)] * 2) == [1e154] * 6


def column_rms(values):
    """The rms of one column as verify summed it from whole-column lists:
    the reference that _rms of the column's blocks must equal bit for
    bit."""
    with np.errstate(over="ignore"):
        squares = (values * values).tolist()
    try:
        total = math.fsum(squares)
    except OverflowError:
        total = math.inf
    values = values.tolist()
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return math.sqrt(total / len(values))
    big = max(values)
    return big * math.sqrt(math.fsum((v / big) ** 2 for v in values)
                           / len(values))


@pytest.mark.parametrize("block", [4096, 3])
def test_rms_of_each_column_equals_the_whole_column_rms(block):
    # Columns: plain, squares that overflow (1e160^2), finite squares whose
    # sum overflows (about 1e308 each), squares that underflow, and one
    # infinite and one NaN value.  Blocks of 3 hold 11 rows in 4 blocks.
    scales = [1.0, 1e160, 1e154, 1e-200, 1.0, 1.0]
    values = np.linspace(0.5, 1.2, 11)[:, None] * scales
    values[4, 4], values[7, 5] = math.inf, math.nan
    got = dsexact.residual._rms([values[i:i + block]
                                 for i in range(0, len(values), block)])
    assert [v.hex() for v in got] == \
        [column_rms(col).hex() for col in values.T]
    assert got[1] == pytest.approx(1e160 * column_rms(values[:, 0]))


def test_blocked_verify_equals_one_block(monkeypatch):
    # 40 points in blocks of 7, the last one short; the points on the pole
    # are skipped.
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    pts = [(t, math.pi / 2.0 + 0.1 * i, 0.3 * j) for t in (0.1, 0.3)
           for i in range(-5, 5) for j in (-1, 1)]
    whole = verify(sol, pts)
    assert whole.passed and whole.n_points == 36
    monkeypatch.setattr(dsexact.residual, "_BLOCK", 7)
    assert verify(sol, pts) == whole


@pytest.mark.parametrize("late", [7.0, math.nan])
def test_blocks_aggregate_like_the_joined_columns(monkeypatch, late):
    # Two blocks of two points.  The first holds an infinite |R1| at h/2,
    # the second the only |R2|s at h/2 whose squares overflow, so the rms2
    # is rescaled over both blocks; a NaN |R1| after the infinite one must
    # still make max1 NaN.  The reference is the same verify with the
    # columns joined into one block and the whole-column rms.
    terms = np.array([[1.0, math.inf, 1e-3, 1e100, 2.0, 3.0],
                      [2.0, 5.0, 2e-3, 2e100, 1.0, 1.0],
                      [3.0, late, 3e-3, 1e160, 1.0, 1.0],
                      [4.0, 6.0, 4e-3, 3e160, 1.0, 2.0]])
    monkeypatch.setattr(dsexact.residual, "_residual_terms",
                        lambda sol, points, h, order:
                        terms[points[:, 0].astype(int)])
    pts = [(i, 0.0, 0.0) for i in range(4)]
    monkeypatch.setattr(dsexact.residual, "_BLOCK", 2)
    blocked = verify(exact_a(), pts)
    monkeypatch.setattr(dsexact.residual, "_BLOCK", 4)
    monkeypatch.setattr(dsexact.residual, "_rms", lambda blocks: [
        column_rms(c) for c in np.concatenate(blocks).T])
    assert repr(blocked) == repr(verify(exact_a(), pts))
    assert blocked.n_points == 4 and 1e160 < blocked.rms2 < math.inf
    assert math.isnan(blocked.max1) == math.isnan(late)


def test_sample_without_a_kept_point_is_empty(monkeypatch):
    # Five points in blocks of two, each skipped because x + h/2 == x:
    # three blocks are evaluated and none keeps a point.  An empty sample,
    # of any shape, evaluates no block.
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    sizes = []
    terms = dsexact.residual._residual_terms

    def counting(sol, points, h, order):
        sizes.append(len(points))
        return terms(sol, points, h, order)

    monkeypatch.setattr(dsexact.residual, "_residual_terms", counting)
    monkeypatch.setattr(dsexact.residual, "_BLOCK", 2)
    with pytest.raises(EmptySampleError):
        verify(sol, [(0.2, 1e17 * k, 0.1) for k in range(1, 6)])
    assert sizes == [2, 2, 1]
    for empty in ([], np.empty((0, 3)), np.empty((0, 2))):
        with pytest.raises(EmptySampleError):
            verify(sol, empty)
    assert sizes == [2, 2, 1]


@pytest.mark.parametrize("sample, named", [
    # Three (t, x) pairs were read as two made-up (t, x, y) points, and the
    # sn line below passed on them with n_points=2.
    ([(0.2, 0.1), (0.3, 0.2), (0.4, 0.3)],
     "sample shape (3, 2) is not (N, 3)"),
    # One row of four was a bare ValueError from reshape.
    ([[0.2, 0.1, 0.1, 0.0]], "sample shape (1, 4) is not (N, 3)"),
    ((0.2, 0.1, 0.1), "sample shape (3,) is not (N, 3)"),
    # Ragged rows and a string cell were numpy's bare ValueError.
    ([(0.1, 0.2, 0.3), (0.1, 0.2)], "sample is not an array"),
    ([(0.1, 0.2, "a")], "sample is not an array"),
], ids=["t-x-pairs", "row-of-four", "flat-point", "ragged", "non-numeric"])
def test_sample_not_of_t_x_y_rows_is_config_error(sample, named):
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    with pytest.raises(ConfigError, match=re.escape(f"verify: {named}")):
        verify(sol, sample)


def test_verify_memory_is_bounded_by_the_block():
    # A 128 x 64 sn grid held about 5.5 KB a point (45 MB) when every
    # stencil was evaluated at once, and 17.8 MB with separate stencils per
    # step; a block of 4,096 points peaks at 13.9 MB and the grid at
    # 14.1 MB (tracemalloc, numpy 2.4).  The bound sits between 14.1 and
    # 17.8 MB, with room for other numpy versions' temporaries.
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    x, y = np.meshgrid(np.linspace(-0.8, 0.8, 128), np.linspace(-0.8, 0.8, 64))
    pts = np.stack([np.full(x.size, 0.2), x.ravel(), y.ravel()], axis=1)
    tracemalloc.start()
    try:
        report = verify(sol, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.n_points == 8192
    assert peak < 16e6


def test_sign_flip_symmetry():
    base = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0"))
    flipped = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0"),
                       amplitude=-base.provenance["amplitude"])
    # R1 is odd and R2 even in u, and negating u negates every rounded
    # term of R1 exactly, so both magnitudes are equal bit for bit.
    a = at_point(base, 0.0, 0.5, -0.3)
    b = at_point(flipped, 0.0, 0.5, -0.3)
    assert (a.max1, a.max2) == (b.max1, b.max2)


def test_report_json_shape_and_determinism():
    report = verify(exact_a(), GRID)
    doc = report.to_json_dict()
    assert sorted(doc) == ["max1", "max2", "n_points", "order1", "order2",
                           "pass", "rms1", "rms2"]
    again = verify(exact_a(), GRID).to_json_dict()
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_invalid_order_rejected():
    with pytest.raises(ConfigError, match=r"\(2, 4, 6\); got h=0.001, order=3"):
        verify(exact_a(), GRID, order=3)


@pytest.mark.parametrize("tol_rel", [-1.0, -1e-12, math.nan])
def test_negative_or_nan_tolerance_is_config_error(tol_rel):
    # A negative tolerance can never pass; infinity keeps its vacuous pass.
    with pytest.raises(ConfigError, match=f"tol_rel={tol_rel!r}"):
        verify(exact_a(), GRID, tol_rel=tol_rel)
    assert verify(exact_a(), GRID, tol_rel=math.inf).passed


# 1e-300: (h/2)^2 underflows to 0, and the second differences divided by 0.
@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, 1e-300])
def test_bad_step_is_config_error(h):
    with pytest.raises(ConfigError, match=f"got h={h!r}, order=4"):
        verify(exact_a(), GRID, h=h)


@pytest.mark.parametrize("amplitude", [1e120])
def test_overflowing_fields_fail_with_non_finite_order(amplitude):
    # |u|^2 u overflows at this amplitude.  The certificate must fail, and
    # the order must not be clamped to +-20.
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"), amplitude=amplitude)
    report = verify(sol, GRID)
    assert not report.passed
    assert not math.isfinite(report.rms1)
    assert math.isnan(report.order1)


def test_overflowing_squares_give_finite_rms_and_fail():
    # Every residual is finite at amplitude 1e80 (max1 = 3.5e239), but
    # their squares overflow.  The rms is still the true one, and the
    # h-independent residual (order 0) of this wrong amplitude fails the
    # certificate; an infinite rms once compared below an infinite term
    # scale and passed.
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"), amplitude=1e80)
    report = verify(sol, GRID)
    assert not report.passed
    assert report.max1 == pytest.approx(3.470e239, rel=1e-3)
    assert report.rms1 == pytest.approx(2.218e239, rel=1e-3)
    assert report.order1 == pytest.approx(0.0, abs=1e-6)


# Known failures of the oracle, pinned as strict xfails: each becomes a
# plain test when the ROADMAP item named in its reason lands.
SCALE_BLIND = "ROADMAP item 3: the tolerance is blind to the field scale"
ROUNDOFF_FLOOR = "ROADMAP item 3: no named roundoff floor"
FOOTPRINT = "ROADMAP item 10: the pole guard is not measured in footprints"


def matrix_entry(name):
    return next(e for e in default_verification_matrix() if e.name == name)


@pytest.mark.parametrize("b", [1.0, 10.0] + [
    pytest.param(b, marks=pytest.mark.xfail(strict=True, reason=SCALE_BLIND))
    for b in (100.0, 1000.0)])
def test_wrong_amplitude_is_rejected_at_any_scale(b):
    # 1.5x the matched amplitude is wrong at any scale.  Under T2 every
    # term of R1 shrinks with b (rms1 8.0e-2, 2.2e-7, 2.4e-13 and 1.3e-15
    # at b = 1, 10, 100 and 1000), but the tolerance tol_rel * (1 + rms of
    # the terms) never falls below tol_rel, so the last two pass.
    beta = parse_timefn("0.1*t")
    matched = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.0, beta)
    wrong = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.0, beta,
                     amplitude=1.5 * matched.provenance["amplitude"])
    axis = np.linspace(-1.0, 1.0, 8)
    pts = [(0.3, x, y) for x in axis for y in axis]
    report = verify(compose([TransformSpec("T2", b=b)], wrong), pts)
    assert report.n_points == 64
    assert not report.passed


@pytest.mark.parametrize("seed", [
    pytest.param(s, marks=pytest.mark.xfail(strict=True,
                                            reason=ROUNDOFF_FLOOR))
    for s in (5, 7, 17, 19, 25)])
def test_matrix_coth_entry_passes_on_every_seed(seed):
    # On these jitter seeds rms2 reads 1.3-1.5e-8 at order2 -2.0 to -2.3:
    # equation 2 sits on its roundoff floor at h = 1e-3, above the
    # tolerance, and nothing names the floor.
    entry = matrix_entry("C coth eps1=+1 eps2=+1 ell=0.3")
    assert verify(entry.solution, entry.grid.points(seed)).passed


@pytest.mark.parametrize("b", [
    pytest.param(b, marks=pytest.mark.xfail(strict=True, reason=FOOTPRINT))
    for b in (None, 0.7, -0.7, 0.3)] + [1.5])
def test_tan_line_passes_near_its_poles(b):
    # The guard excludes a fixed radius of the base line coordinate, so
    # points a few stencil footprints from a pole keep a truncation error
    # far above the tolerance (rms1 3.8e3 alone, 1.3e4 at b = +-0.7 and
    # 2.1e4 at b = 0.3, where T2 shrinks the radius in x by |b|).
    sol = matrix_entry("C tan eps1=+1 eps2=+1 ell=0.3").solution
    if b is not None:
        sol = compose([TransformSpec("T2", b=b)], sol)
    grid = GridSpec((0.0, 0.4), (-2.0, 2.0, 41), (-1.5, 1.5, 31))
    assert verify(sol, grid.points(1)).passed


def reference_cases():
    sn = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.3, parse_timefn("0.1*t"))
    chain = compose([TransformSpec("T1", alpha=parse_timefn("0.3*sin(t)"),
                                   beta=parse_timefn("0.2*t^2"),
                                   gamma=parse_timefn("t^2")),
                     TransformSpec("T2", b=2.0)], sn)
    return {
        "A": (family_a(Variant(1, -1), parse_timefn("t+0.1*t^2"), 1.0),
              GridSpec((0.3, 0.7), (-1.0, 1.0, 5), (-1.0, 1.0, 5))),
        "C sn": (sn, GridSpec((0.2, 0.5), (-0.8, 0.8, 5), (-0.8, 0.8, 5))),
        # 5,120 points: two blocks.
        "chain": (chain,
                  GridSpec((0.2, 0.5), (-0.8, 0.8, 64), (-0.8, 0.8, 40))),
    }


# offset: coefficient pairs; apply as sum(c * f(x0 + k*h)) / h**deriv_order.
STENCIL_D1 = {
    2: ((-1, -0.5), (1, 0.5)),
    4: ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0)),
    6: ((-3, -1.0 / 60.0), (-2, 3.0 / 20.0), (-1, -3.0 / 4.0),
        (1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0)),
}
STENCIL_D2 = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0),
        (1, 4.0 / 3.0), (2, -1.0 / 12.0)),
    6: ((-3, 1.0 / 90.0), (-2, -3.0 / 20.0), (-1, 3.0 / 2.0),
        (0, -49.0 / 18.0), (1, 3.0 / 2.0), (2, -3.0 / 20.0), (3, 1.0 / 90.0)),
}


def stencil_sums(sol, points, steps, order):
    """_residual_terms as it was when each difference was its own sum of
    stencil terms and every step had its own divisions: the reference that
    the one stencil pass must equal bit for bit."""
    eps1, eps2 = sol.variant.eps1, sol.variant.eps2
    half = order // 2
    reach = range(-half, half + 1)
    d1, d2 = STENCIL_D1[order], STENCIL_D2[order]
    row = sorted({s * k for s in steps.tolist() for k in reach})
    cols = np.array([[row.index(s * k) for k in reach]
                     for s in steps.tolist()])
    offsets = np.where(np.eye(3, dtype=bool)[:, None, :, None], row, 0.0)
    u, v, ok = eval_solution(sol, *(points.T[..., None, None] + offsets))
    size = np.abs(points)
    keep = ok.all(axis=(1, 2)) & (size + steps[1] != size).all(axis=1)
    u, v = u[:, :, cols], v[:, :, cols]

    def diff(f, table):
        return sum(c * f[..., k + half] for k, c in table)

    with np.errstate(over="ignore", invalid="ignore"):
        h2 = steps * steps
        g = np.abs(u[:, 1]) ** 2
        u0, v0 = u[:, 0, :, half], v[:, 0, :, half]
        du_dt = diff(u[:, 0], d1) / steps
        du_xx, du_yy, dv_xx, dv_yy, dg_xx = (
            diff(f, d2) / h2 for f in (u[:, 1], u[:, 2], v[:, 1], v[:, 2], g))
        cubic = 2.0 * eps2 * (u0.real ** 2 + u0.imag ** 2) * u0
        coupling = 2.0 * u0 * v0
        r1 = 2j * du_dt + eps1 * du_xx + du_yy - cubic - coupling
        r2 = dv_xx - eps1 * (dv_yy + 2.0 * dg_xx)
        scale1 = (2.0 * np.abs(du_dt) + np.abs(du_xx) + np.abs(du_yy)
                  + np.abs(cubic) + np.abs(coupling))
        scale2 = np.abs(dv_xx) + np.abs(dv_yy) + 2.0 * np.abs(dg_xx)
    return np.concatenate([np.abs(r1), np.abs(r2), scale1[:, 1:],
                           scale2[:, 1:]], axis=1)[keep]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ["A", "C sn", "chain"])
def test_verify_reports_equal_the_reference_sums(monkeypatch, name, order):
    # The same machine computes both sides, so the check holds whatever
    # bits its numpy gives exp, sin and cos.
    sol, grid = reference_cases()[name]
    report = verify(sol, grid.points(1), order=order)
    monkeypatch.setattr(dsexact.residual, "_residual_terms",
                        lambda sol, points, h, order: stencil_sums(
                            sol, points, np.array([h, h / 2.0]), order))
    monkeypatch.setattr(dsexact.residual, "_rms", lambda blocks: [
        column_rms(c) for c in np.concatenate(blocks).T])
    assert repr(report) == repr(verify(sol, grid.points(1), order=order))
    assert report.n_points == (5120 if name == "chain" else 50)
