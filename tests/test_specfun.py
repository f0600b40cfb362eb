"""Special-function kernel against quadrature oracles and cross-checks."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from blslab import specfun as sf

# frozen oracle values, computed from the defining integrals with
# scipy.integrate.quad at epsabs=1e-14 (re-derived live below as well)
GAMMA_2P5_3 = 0.9222712123078344
K0_AT_1 = 0.42102443824070834


def test_lower_incomplete_gamma_against_quadrature():
    live = integrate.quad(lambda t: t**1.5 * np.exp(-t), 0, 3.0, epsabs=1e-13)[0]
    mine = sf.lower_incomplete_gamma(2.5, 3.0)
    assert abs(mine - GAMMA_2P5_3) < 1e-12
    assert abs(mine - live) < 1e-10


def test_lower_incomplete_gamma_relative_error_grid():
    for s in [0.3, 1.0, 2.5, 7.7, 20.0, 50.0]:
        x = np.linspace(0.0, 200.0, 401)
        mine = sf.lower_incomplete_gamma(s, x)
        ref = special.gammainc(s, x) * special.gamma(s)
        denom = np.where(ref > 0, ref, 1.0)
        assert np.max(np.abs(mine - ref) / denom) < 1e-12


def test_lower_incomplete_gamma_saturates_to_gamma():
    for s in [0.5, 1.5, 5.0, 12.0, 33.0]:
        assert sf.lower_incomplete_gamma(s, 50.0 * s) == pytest.approx(
            math.gamma(s), rel=1e-8
        )


def test_lower_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        sf.lower_incomplete_gamma(-1.0, 2.0)
    with pytest.raises(ValueError):
        sf.lower_incomplete_gamma(2.0, -0.5)
    assert sf.lower_incomplete_gamma(3.0, 0.0) == 0.0


def test_bessel_k0_defining_integral():
    # K0(u) = 1/2 int_0^inf t^-1 exp(-t - u^2/(4t)) dt at u = 1
    live = integrate.quad(
        lambda t: 0.5 * np.exp(-t - 0.25 / t) / t, 0, np.inf, epsabs=1e-13
    )[0]
    assert sf.bessel_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-12)
    assert sf.bessel_k0(1.0) == pytest.approx(live, rel=1e-9)


def test_bessel_normalization_identity():
    # int_0^inf t K0(t) dt = 1
    val = integrate.quad(lambda t: t * sf.bessel_k0(t), 0, np.inf, limit=200)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_bessel_relative_error_wide_grid():
    u = np.geomspace(1e-6, 700.0, 2000)
    ref0, ref1 = special.k0(u), special.k1(u)
    ok = ref0 > 0  # below the underflow threshold of the unscaled value
    assert np.max(np.abs(sf.bessel_k0(u[ok]) - ref0[ok]) / ref0[ok]) < 1e-10
    ok = ref1 > 0
    assert np.max(np.abs(sf.bessel_k1(u[ok]) - ref1[ok]) / ref1[ok]) < 1e-10
    assert np.max(np.abs(sf.bessel_k0e(u) - special.k0e(u)) / special.k0e(u)) < 1e-10
    assert np.max(np.abs(sf.bessel_k1e(u) - special.k1e(u)) / special.k1e(u)) < 1e-10


def test_bessel_ordering_and_positivity():
    u = np.geomspace(1e-3, 50.0, 500)
    k0, k1 = sf.bessel_k0(u), sf.bessel_k1(u)
    assert np.all(k0 > 0) and np.all(k1 > k0)


def test_bessel_scaled_consistency_and_large_u():
    for u in [0.5, 1.0, 2.0, 2.0000001, 5.0, 30.0]:
        assert sf.bessel_k0e(u) * math.exp(-u) == pytest.approx(
            sf.bessel_k0(u), rel=1e-12
        )
    # scaled form stays finite far past the unscaled underflow point
    assert 0.0 < sf.bessel_k0e(700.0) < 1.0


def test_bessel_small_u_log_divergence():
    # K0(u) ~ -log(u/2) - gamma_E as u -> 0: finite values, no error
    u = 1e-12
    assert sf.bessel_k0(u) == pytest.approx(
        -math.log(u / 2.0) - 0.5772156649015328606, rel=1e-10
    )
    with pytest.raises(ValueError):
        sf.bessel_k0(0.0)
    with pytest.raises(ValueError):
        sf.bessel_k1(-1.0)


def test_ln_gamma():
    assert sf.ln_gamma(1.0) == 0.0
    assert sf.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    with pytest.raises(ValueError):
        sf.ln_gamma(0.0)


def test_array_scalar_round_trip():
    x = np.array([0.5, 3.0, 40.0])
    arr = sf.lower_incomplete_gamma(2.0, x)
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(sf.lower_incomplete_gamma(2.0, 3.0), rel=1e-14)
    assert isinstance(sf.bessel_k0(1.0), float)
    assert sf.bessel_k0(np.array([1.0, 3.0])).shape == (2,)
