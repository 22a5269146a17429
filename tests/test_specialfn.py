"""Special function values against closed forms and high-precision references."""

import math

import numpy as np
import pytest
from scipy.special import jv

from sectorfem import specialfn as sfn
from sectorfem.contour import laplace_invert_scalar

# Frozen from an independent 30-digit series summation.
ML_REFERENCE = {
    (0.25, 1.0): 0.46385276080171329,
    (0.5, 1.0): 0.427583576155807,
    (0.75, 1.0): 0.39310830281575406,
    (0.25, 5.0): 0.1427989464258737,
    (0.5, 5.0): 0.11070463773306863,
    (0.25, 50.0): 0.016097508838799057,
    (0.5, 50.0): 0.011281536265323773,
    (0.75, 20.0): 0.014527522154459504,
}

# Frozen from bracketing + Brent on an independent Bessel implementation.
FIRST_ZEROS = {1.0 / 3.0: 2.902586248417, 0.5: math.pi, 2.0 / 3.0: 3.375610652694}


def test_omega_kernel_values():
    assert sfn.omega_kernel(1.0, 7.3) == pytest.approx(1.0)
    assert sfn.omega_kernel(2.0, 0.6) == pytest.approx(0.6)
    assert sfn.omega_kernel(0.5, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
    np.testing.assert_allclose(sfn.omega_kernel(0.5, np.array([1.0, 4.0])),
                               [1 / math.sqrt(math.pi), 0.5 / math.sqrt(math.pi)])


def test_omega_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sfn.omega_kernel(0.5, 0.0)
    with pytest.raises(ValueError):
        sfn.omega_kernel(0.5, -1.0)
    with pytest.raises(ValueError):
        sfn.omega_kernel(2.5, 1.0)


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


def test_ml_backends_agree_on_overlap_window():
    # alpha values whose series stays below the cancellation limit up to x=5
    cfg = sfn.MLEvalConfig()
    for alpha in (0.75, 1.0):
        for x in np.linspace(cfg.series_cutoff / 2, cfg.series_cutoff, 7):
            series, peak = sfn._ml_series(alpha, x, cfg.series_tol)
            assert peak <= 1e4
            contour = sfn._ml_contour(alpha, x, cfg.contour_M)
            assert abs(series - contour) < 1e-9


def test_ml_config_validation():
    with pytest.raises(ValueError):
        sfn.MLEvalConfig(series_cutoff=0.0)
    with pytest.raises(ValueError):
        sfn.MLEvalConfig(series_tol=1e-12)


def test_bessel_values():
    assert sfn.bessel_j(0.0, 0.0) == 1.0
    assert sfn.bessel_j(0.5, 0.0) == 0.0
    assert sfn.bessel_j(2.0, 0.0) == 0.0
    for x in (0.5, 1.0, 5.0, 19.5):
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert sfn.bessel_j(0.5, x) == pytest.approx(ref, abs=1e-12)
    np.testing.assert_allclose(sfn.bessel_j(1.0, np.array([0.0, 1.0])),
                               [0.0, 0.44005058574493355], atol=1e-12)


BESSEL_ORDERS = (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("nu", BESSEL_ORDERS)
def test_bessel_matches_amos_reference(nu):
    # dense grid of [0, 20] with points on both sides of the series cut-off
    xs = np.concatenate([np.linspace(0.0, 20.0, 20001),
                         6.0 + np.array([-1e-12, 0.0, 1e-12]), [1e-300, 1e-8]])
    np.testing.assert_allclose(sfn.bessel_j(nu, xs), jv(nu, xs), rtol=0, atol=1e-13)


def test_bessel_keeps_input_shape():
    for x in (0.7, 12.0, np.float64(3.0), np.array(5.5), np.array(7.5)):
        got = sfn.bessel_j(1.0 / 3.0, x)
        assert type(got) is float
        assert got == pytest.approx(jv(1.0 / 3.0, float(x)), abs=1e-13)
    xs = np.linspace(0.0, 10.0, 24).reshape(6, 4)
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
    with pytest.raises(ValueError):
        sfn.bessel_j(1.0, 21.0)
    with pytest.raises(ValueError):
        sfn.bessel_j(1.0, -1.0)


def test_first_bessel_zeros():
    for nu, ref in FIRST_ZEROS.items():
        z = sfn.first_bessel_zero(nu)
        assert z == pytest.approx(ref, abs=1e-10)
        assert abs(sfn.bessel_j(nu, z)) < 1e-12
        assert sfn.bessel_j(nu, z - 0.05) > 0  # first zero, not a later one


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
