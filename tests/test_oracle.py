"""The oracle against fields whose residuals are known exactly.

A plane wave u = A e^{i(kx x + ky y - w t)}, v = v0 solves the system when
w = (e1 kx^2 + ky^2)/2 + e2 A^2 + v0; with w + delta instead, R1 = 2 delta u
and R2 = 0 exactly, and with v = v0 + q x^2 instead, R1 = -2 q x^2 u and
R2 = 2q exactly.  Family A with Im = t solves it for every c, and
selftest's T1-then-T2 chain for every T2 b != 0.  Each case that fails today is a strict xfail naming the ROADMAP
item whose change makes it a plain test; each fails at the default numpy
dispatch and with AVX-512 off alike.
"""

import copy
import itertools
import math

import numpy as np
import pytest

from dsexact import Variant, cli, verify
from dsexact.catalog import family_a, solution
from dsexact.gridio import GridSpec
from dsexact.selftest import CERTIFICATES
from dsexact.timefn import parse_timefn

KX, KY, V0 = 1.3, 0.7, 0.2
SIGNS = list(itertools.product((1, -1), repeat=2))
POINTS = GridSpec((0.2, 0.5), (-1.0, 1.0, 5), (-1.0, 1.0, 5)).points(1)

ROUNDOFF_FLOOR = ("ROADMAP items 3 and 26: the floor leaves out the roundoff "
                  "of |u|^2's second difference (order2 about -2)")
FIXED_STEP = ("ROADMAP items 3 and 26: a fixed h on w about 100 (order1 4.0, "
              "time truncation)")
SCALE_BLIND = ("ROADMAP item 3: the smallest rejected frequency error grows "
               "tenfold a decade of amplitude")
CHAIN_STEP = ("ROADMAP items 3 and 26: T2 scales t by b^2, so a fixed h "
              "misses its truncation or roundoff")


def wave(eps1, eps2, amplitude, delta=0.0, q=0.0):
    """The plane wave of amplitude A on (eps1, eps2), its w off by delta
    and q x^2 added to its v."""
    w = (eps1 * KX ** 2 + KY ** 2) / 2.0 + eps2 * amplitude ** 2 + V0 + delta

    def fields(t, x, y):
        u = amplitude * np.exp(1j * (KX * x + KY * y - w * t))
        return u, np.full(u.shape, V0) + q * x ** 2, np.ones(u.shape, bool)

    return solution(Variant(eps1, eps2), fields, {"family": "plane wave"})


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("amplitude", [1e-3, 1e-2, 0.1, 1.0] + [
    pytest.param(3.0, marks=pytest.mark.xfail(strict=True,
                                              reason=ROUNDOFF_FLOOR)),
    pytest.param(10.0, marks=pytest.mark.xfail(strict=True,
                                               reason=FIXED_STEP))])
def test_exact_plane_wave_passes(amplitude, signs):
    # At A = 3, rms2 reads 3.0-4.3e-8 at order2 about -2 against a floor of
    # 1e-8; at A = 10, rms1 about 4e-4 at order1 4.0.
    report = verify(wave(*signs, amplitude), POINTS)
    assert report.n_points == len(POINTS)
    assert report.passed


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("amplitude", [1e-2, 1.0])
@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-2])
def test_rms1_is_the_manufactured_residual(delta, amplitude, signs):
    # |R1| = 2 delta A at every point, so rms1 is 2 delta A up to the error
    # verify reads on the exact wave: rounding, which enters rms1 in phase
    # with u (0.6e-3 of it at delta = 1e-6 for eps1 = +1, where the centre
    # node's rounding adds in D_xx and D_yy), and a truncation far below.
    sol = wave(*signs, amplitude, delta)
    exact = verify(wave(*signs, amplitude), POINTS, tol_rel=math.inf)
    report = verify(sol, POINTS, tol_rel=math.inf)
    assert abs(report.rms1 - 2.0 * delta * amplitude) <= exact.rms1
    assert report.rms2 <= 1e-8


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("amplitude", [1e-2, 1.0])
@pytest.mark.parametrize("q", [1e-6, 1e-4, 1e-2])
def test_rms_are_the_manufactured_mean_flow_residual(q, amplitude, signs):
    # v = v0 + q x^2 gives R2 = 2q and R1 = -2 q x^2 u exactly, so rms2 is
    # 2q and rms1 is 2 q A sqrt(mean x^4).  The worst relative error reads
    # 6.9e-4 on rms1 and 4.3e-4 on rms2, with AVX-512 off too.
    report = verify(wave(*signs, amplitude, q=q), POINTS, tol_rel=math.inf)
    x4 = np.mean(POINTS[:, 1] ** 4)
    assert report.rms2 == pytest.approx(2.0 * q, rel=1e-3)
    assert report.rms1 == pytest.approx(2.0 * q * amplitude * math.sqrt(x4),
                                        rel=1e-3)


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("amplitude", [1e-2, 1.0])
def test_a_mean_flow_curvature_of_1e_8_is_rejected(amplitude, signs):
    # rms2 = 2q = 2e-8 does not move with h (order2 about 0) and sits above
    # the roundoff floor, 1e-8 of the term scale.
    assert not verify(wave(*signs, amplitude, q=1e-8), POINTS).passed


@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("c", [0.1, 0.3, 1.0, 2.0] + [
    pytest.param(c, marks=pytest.mark.xfail(strict=True,
                                            reason=ROUNDOFF_FLOOR))
    for c in (3.0, 10.0)])
def test_exact_family_a_passes(c, signs):
    # Im = t: |u| = c everywhere, with a quadratic phase.  At c = 3, rms2
    # reads 3.7-6.5e-8 at order2 about -2; at c = 10, 5.2-9.0e-7.
    report = verify(family_a(Variant(*signs), parse_timefn("t"), c), POINTS)
    assert report.n_points == len(POINTS)
    assert report.passed


def smallest_rejected(eps1, eps2, amplitude):
    """The least delta = 10^-12, 10^-11, ... that verify rejects."""
    return next(delta for delta in (10.0 ** -k for k in range(12, -1, -1))
                if not verify(wave(eps1, eps2, amplitude, delta),
                              POINTS).passed)


@pytest.mark.xfail(strict=True, reason=SCALE_BLIND)
def test_smallest_rejected_frequency_error_is_scale_free():
    # On every sign pair it reads 1e-4, 1e-5, 1e-6, 1e-7 and 1e-7 as A
    # runs 1e-4, 1e-3, 1e-2, 0.1 and 1: at A = 1e-4 a relative residual
    # of 6e-5 passes, since the tolerance is tol_rel * (1 + term scale).
    for signs in SIGNS:
        found = [smallest_rejected(*signs, a)
                 for a in (1e-4, 1e-3, 1e-2, 0.1, 1.0)]
        assert max(found) <= 10.0 * min(found), (signs, found)


@pytest.mark.parametrize("b", [0.5] + [
    pytest.param(b, marks=pytest.mark.xfail(strict=True, reason=CHAIN_STEP))
    for b in (0.2, 0.1)])
def test_selftest_chain_passes_at_any_b(b):
    # T2 maps solutions to solutions for every b != 0.  At b = 0.2 the
    # chain fails at order1 3.99 (truncation in t), at b = 0.1 at order1
    # -0.46.
    [(_, _, cfg)] = CERTIFICATES["transform certificates"]
    cfg = copy.deepcopy(cfg)
    cfg["transforms"][-1]["b"] = b
    assert cli.verify_report(cfg).passed
