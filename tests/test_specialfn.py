"""Special function values against closed forms and high-precision references."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from sectorfem import specialfn as sfn
from sectorfem.contour import laplace_invert_scalar
from conftest import fresh_interpreter_env

# Frozen from an independent 30-digit series summation; the small-alpha
# entries, where the float64 series overflows, from a 25-digit quadrature of
# E_a(-x) = sin(a pi)/(a pi) * int_0^inf exp(-v**(1/a)) x / (v**2 + 2 x v cos(a pi) + x**2) dv.
ML_REFERENCE = {
    (0.25, 1.0): 0.46385276080171329,
    (0.5, 1.0): 0.427583576155807,
    (0.75, 1.0): 0.39310830281575406,
    (0.25, 5.0): 0.1427989464258737,
    (0.5, 5.0): 0.11070463773306863,
    (0.25, 50.0): 0.016097508838799057,
    (0.5, 50.0): 0.011281536265323773,
    (0.75, 20.0): 0.014527522154459504,
    (0.05, 3.0): 0.24443463564564761,
    (0.1, 4.0): 0.19013365426129279,
    (0.2, 4.5): 0.1621451580569823,
    (0.02, 50.0): 0.019381083059974081,
}

# First positive zeros of J_nu from mpmath.besseljzero at 40 digits, rounded to 20.
FIRST_ZEROS = {
    0.25: 2.7808877239949776268,
    1.0 / 3.0: 2.9025862484169524802,
    0.5: math.pi,
    2.0 / 3.0: 3.3756106526936204926,
    1.0: 3.8317059702075123156,
    1.5: 4.4934094579090641753,
    2.0: 5.1356223018406825563,
}


def test_mittag_leffler_at_zero_is_one():
    for alpha in (0.1, 0.25, 0.5, 1.0):
        assert sfn.mittag_leffler_neg(alpha, 0.0) == 1.0


def test_mittag_leffler_exponential_case():
    for x in np.arange(0.0, 10.5, 0.5):
        assert sfn.mittag_leffler_neg(1.0, x) == pytest.approx(math.exp(-x), abs=1e-10)


def test_mittag_leffler_half_erfc_identity():
    for x in np.arange(0.0, 5.5, 0.5):
        ref = math.exp(x * x) * math.erfc(x)
        assert sfn.mittag_leffler_neg(0.5, x) == pytest.approx(ref, abs=1e-8)


def test_mittag_leffler_reference_values():
    for (alpha, x), ref in ML_REFERENCE.items():
        assert sfn.mittag_leffler_neg(alpha, x) == pytest.approx(ref, abs=1e-10)


def test_mittag_leffler_bounds_and_monotonicity():
    for alpha in (0.25, 0.5, 0.75):
        values = [sfn.mittag_leffler_neg(alpha, x) for x in np.linspace(0.0, 50.0, 101)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_mittag_leffler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sfn.mittag_leffler_neg(0.0, 1.0)
    with pytest.raises(ValueError):
        sfn.mittag_leffler_neg(1.5, 1.0)
    with pytest.raises(ValueError):
        sfn.mittag_leffler_neg(0.5, -0.5)
    with pytest.raises(ValueError):
        sfn.mittag_leffler_neg(0.5, math.nan)


def _ml_taylor(alpha, x):
    """E_alpha(-x) by its Taylor series, summed by math.fsum; usable while the terms stay small."""
    terms = [(-1) ** p * math.exp(p * math.log(x) - math.lgamma(1.0 + alpha * p))
             for p in range(200)]
    return math.fsum(terms)


def test_ml_backends_agree_on_overlap_window():
    # alpha values whose series stays below the cancellation limit up to x=5
    for alpha in (0.75, 1.0):
        for x in np.linspace(2.5, 5.0, 7):
            assert abs(_ml_taylor(alpha, x) - sfn.mittag_leffler_neg(alpha, x)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.01, 1.0), x=st.floats(0.0, 50.0), y=st.floats(0.0, 50.0))
def test_mittag_leffler_bounded_and_decreasing(alpha, x, y):
    lo, hi = sorted((x, y))
    e_lo, e_hi = sfn.mittag_leffler_neg(alpha, lo), sfn.mittag_leffler_neg(alpha, hi)
    assert 0.0 <= e_hi <= 1.0 and 0.0 <= e_lo <= 1.0
    assert e_hi <= e_lo + 1e-12


def test_bessel_values():
    assert sfn.bessel_j(0.0, 0.0) == 1.0
    assert sfn.bessel_j(0.5, 0.0) == 0.0
    assert sfn.bessel_j(2.0, 0.0) == 0.0
    for x in (0.5, 1.0, 5.0, 6.0):
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert sfn.bessel_j(0.5, x) == pytest.approx(ref, abs=1e-12)
    np.testing.assert_allclose(sfn.bessel_j(1.0, np.array([0.0, 1.0])),
                               [0.0, 0.44005058574493355], atol=1e-12)


BESSEL_ORDERS = (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("nu", BESSEL_ORDERS)
def test_bessel_matches_amos_reference(nu):
    # dense grid of the whole range [0, 6], its end and tiny arguments
    xs = np.concatenate([np.linspace(0.0, 6.0, 20001),
                         6.0 + np.array([-1e-12, 0.0]), [1e-300, 1e-8]])
    np.testing.assert_allclose(sfn.bessel_j(nu, xs), jv(nu, xs), rtol=0, atol=1e-13)


def test_bessel_keeps_input_shape():
    for x in (0.7, 6.0, np.float64(3.0), np.array(5.5), np.array(0.0)):
        got = sfn.bessel_j(1.0 / 3.0, x)
        assert type(got) is float
        assert got == pytest.approx(jv(1.0 / 3.0, float(x)), abs=1e-13)
    xs = np.linspace(0.0, 6.0, 24).reshape(6, 4)
    for sample in (xs, xs[:, :2].T, xs[:2, :] * 0.5):
        got = sfn.bessel_j(0.5, sample)
        assert isinstance(got, np.ndarray) and got.shape == sample.shape
        np.testing.assert_allclose(got, jv(0.5, sample), rtol=0, atol=1e-13)
    assert sfn.bessel_j(0.5, np.empty((0, 3))).shape == (0, 3)


def test_bessel_rejects_out_of_range():
    with pytest.raises(ValueError):
        sfn.bessel_j(-0.1, 1.0)
    with pytest.raises(ValueError):
        sfn.bessel_j(2.5, 1.0)
    for x in (6.0 + 1e-12, 20.0, np.array([1.0, 7.0])):  # the series cancels above 6
        with pytest.raises(ValueError, match=r"argument must lie in \[0, 6\]"):
            sfn.bessel_j(1.0, x)
    with pytest.raises(ValueError):
        sfn.bessel_j(1.0, -1.0)
    with pytest.raises(ValueError):
        sfn.bessel_j(1.0, math.nan)
    with pytest.raises(ValueError):
        sfn.bessel_j(1.0, np.array([1.0, math.nan]))


def test_first_bessel_zeros():
    for nu, ref in FIRST_ZEROS.items():
        z = sfn.first_bessel_zero(nu)
        assert z == pytest.approx(ref, abs=1e-10)
        assert abs(z - ref) <= math.ulp(ref)
        assert abs(sfn.bessel_j(nu, z)) < 1e-12
        assert sfn.bessel_j(nu, z - 0.05) > 0  # first zero, not a later one


def test_first_bessel_zeros_are_these_doubles():
    # Examples 1 and 2 take K from these zeros, so a faster series or
    # bisection must not move them by an ulp
    got = {nu: sfn.first_bessel_zero.__wrapped__(nu).hex() for nu in FIRST_ZEROS}
    assert got == {0.25: "0x1.63f421023401cp+1", 1.0 / 3.0: "0x1.7387f23962940p+1",
                   0.5: "0x1.921fb54442d19p+1", 2.0 / 3.0: "0x1.b0140286ac958p+1",
                   1.0: "0x1.ea75575af6f0ap+1", 1.5: "0x1.1f940543506aep+2",
                   2.0: "0x1.48ae0929c0e50p+2"}


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.0, 2.0), xs=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8))
def test_bessel_scalar_values_are_the_array_entries(nu, xs):
    # a scalar argument is summed in float arithmetic, an array in numpy
    got = sfn.bessel_j(nu, np.array(xs))
    assert got.tolist() == [sfn.bessel_j(nu, x) for x in xs]


def test_import_does_not_load_scipy_optimize():
    # the zero finder bisects the package's own Bessel series, so importing
    # the package leaves scipy.optimize and the modules it pulls in unloaded
    code = "import sys, sectorfem; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.01, 1.9), step=st.floats(1e-9, 0.1))
def test_first_bessel_zero_near_brentq_and_increasing(nu, step):
    # bisection on the series lands within a few ulp of brentq on jv, and
    # orders apart by more than that error keep their zeros in order.
    # brentq stops at rtol alone (about 1.8e-15 here): with xtol=1e-14 it
    # stopped 3.6e-15 from the 40-digit zero at nu=1.1331637983378682,
    # where the series zero is 1 ulp from it.
    from scipy.optimize import brentq

    xs = np.linspace(1e-3, 6.0, 1201)
    vals = jv(nu, xs)
    k = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    ref = brentq(lambda x: jv(nu, x), xs[k], xs[k + 1], xtol=1e-300, rtol=8.9e-16)
    z = sfn.first_bessel_zero(nu)
    assert abs(z - ref) <= 4e-15
    assert z < sfn.first_bessel_zero(nu + step)


def test_first_bessel_zero_monotone_in_order():
    zeros = [sfn.first_bessel_zero(nu) for nu in (0.25, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_first_bessel_zero_rejects_bad_order():
    with pytest.raises(ValueError):
        sfn.first_bessel_zero(0.0)
    with pytest.raises(ValueError):
        sfn.first_bessel_zero(2.1)


def test_cross_module_oracle_contour_vs_series():
    # inverse Laplace quadrature of the mode transform against the series value
    for lam in (1.0, 5.0):
        for t in (0.1, 1.0, 5.0):
            for alpha in (0.5, 0.75):
                got = laplace_invert_scalar(
                    lambda z: z ** (alpha - 1.0) / (z ** alpha + lam), t, M=12)
                ref = sfn.mittag_leffler_neg(alpha, lam * t ** alpha)
                assert got == pytest.approx(ref, abs=1e-6)
