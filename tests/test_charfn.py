"""Riccati solver tests.

The solver has no closed form to lean on in general, so correctness is
established by (a) the constant-coefficient case where the classical
square-root-model transform is available, (b) direct residual checks of
the ODE system on the solver output, and (c) the observed convergence
order of the integrator.
"""

from dataclasses import replace

import numpy as np
import pytest

from powerswap.charfn import (
    CharFnSolution,
    RiccatiCoefficients,
    RiccatiError,
    char_fn,
    riccati_path,
    solve_riccati,
    solve_riccati_fixed,
)
from powerswap.models import (
    DeliveryPeriod,
    GeneralSeparable,
    HestonParams,
    Samuelson,
    UniformWeight,
)

from _reference import const_coef_psi

DP = DeliveryPeriod(0.75, 5.0 / 6.0)
UNI = UniformWeight()
SAM = Samuelson(3.5)
P = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
CONST = GeneralSeparable(s=lambda t, u: np.ones_like(np.asarray(u, float)), bound_r=1.0)


def test_coefficients_for_model():
    rc1 = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    rc2 = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    assert rc1.alpha == 0.5 and rc2.alpha == -0.5
    # alpha follows k, so the pricer's k = 2 copy of rc1 needs no alpha of its own
    assert replace(rc1, k=2).alpha == -0.5
    # beta differs between the two transforms by sigma rho S(t)
    t = 0.3
    s_t = rc1.big_s(t)
    assert rc1.beta(t) == pytest.approx(rc2.beta(t) - 0.4 * (-0.3) * s_t, rel=1e-14)
    with pytest.raises(ValueError):
        RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=3)


def test_phi_zero_is_exactly_zero():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    sol = solve_riccati(rc, 0.0, 0.5, np.array([0.0]))
    assert sol.psi0[0] == 0.0 + 0.0j
    assert sol.psi1[0] == 0.0 + 0.0j


def test_terminal_condition_no_time_to_run():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    sol = solve_riccati(rc, 0.5, 0.5, np.array([1.0, 7.0]))
    np.testing.assert_array_equal(sol.psi0, 0.0)
    np.testing.assert_array_equal(sol.psi1, 0.0)
    assert sol.n_steps == 0


@pytest.mark.parametrize("k,alpha,beta", [(1, 0.5, 3.0 - 0.4 * (-0.3)), (2, -0.5, 3.0)])
def test_constant_coefficients_match_closed_form(k, alpha, beta):
    rc = RiccatiCoefficients.for_model(P, CONST, UNI, DP, k=k)
    phi = np.array([1.0, 5.0, 25.0])
    sol = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-12)
    ref0, ref1 = const_coef_psi(phi, 0.5, 3.0, 0.6, 0.4, -0.3, 1.0, alpha, beta)
    np.testing.assert_allclose(sol.psi1, ref1, atol=1e-10)
    np.testing.assert_allclose(sol.psi0, ref0, atol=1e-10)


def test_hermitian_symmetry():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    sol = solve_riccati(rc, 0.0, 0.5, np.array([3.0, -3.0]), abs_tol=1e-12)
    assert abs(sol.psi1[0] - np.conj(sol.psi1[1])) < 1e-10
    assert abs(sol.psi0[0] - np.conj(sol.psi0[1])) < 1e-10


def test_ode_residual_on_path():
    """Central differences of the solved path must satisfy the ODE system."""
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    phi = 1.0
    times, psi0, psi1 = riccati_path(rc, 0.0, 0.5, phi, n_steps=2000)
    h = times[1] - times[0]
    mid = slice(1, -1)
    t_mid = times[mid]
    d_psi1 = (psi1[2:] - psi1[:-2]) / (2.0 * h)
    d_psi0 = (psi0[2:] - psi0[:-2]) / (2.0 * h)
    s_mid = np.array([rc.big_s(t) for t in t_mid])
    beta_mid = np.array([rc.beta(t) for t in t_mid])
    theta_mid = np.array([rc.theta(t) for t in t_mid])
    rhs1 = (
        -0.5 * rc.sigma_vv**2 * psi1[mid] ** 2
        + (beta_mid - 1j * rc.rho * rc.sigma_vv * s_mid * phi) * psi1[mid]
        + (0.5 * phi**2 - 1j * rc.alpha * phi) * s_mid**2
    )
    rhs0 = -rc.kappa * theta_mid * psi1[mid]
    assert np.max(np.abs(d_psi1 - rhs1)) < 1e-6
    assert np.max(np.abs(d_psi0 - rhs0)) < 1e-6


def test_path_endpoints():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    times, psi0, psi1 = riccati_path(rc, 0.0, 0.5, 2.0, n_steps=128)
    assert times[0] == 0.0 and times[-1] == 0.5
    # terminal condition holds exactly at the exercise time
    assert psi0[-1] == 0.0 + 0.0j
    assert psi1[-1] == 0.0 + 0.0j
    sol = solve_riccati_fixed(rc, 0.0, 0.5, np.array([2.0]), n_steps=128)
    assert psi0[0] == sol.psi0[0]
    assert psi1[0] == sol.psi1[0]


def test_runge_kutta_convergence_order():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    phi = np.array([5.0])
    ref = solve_riccati_fixed(rc, 0.0, 0.5, phi, n_steps=4096).psi1[0]
    errs = []
    for n in (8, 16, 32):
        approx = solve_riccati_fixed(rc, 0.0, 0.5, phi, n_steps=n).psi1[0]
        errs.append(abs(approx - ref))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 >= 3.5
    assert rate2 >= 3.5


def test_step_doubling_tolerance():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    phi = np.array([2.0, 10.0])
    loose = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-10)
    tight = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-12)
    np.testing.assert_allclose(loose.psi1, tight.psi1, atol=1e-9)
    np.testing.assert_allclose(loose.psi0, tight.psi0, atol=1e-9)
    assert tight.n_steps >= loose.n_steps


def test_starting_resolution_does_not_matter():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    phi = np.array([4.0])
    a = solve_riccati(rc, 0.0, 0.5, phi, n_start=50)
    b = solve_riccati(rc, 0.0, 0.5, phi, n_start=64)
    assert abs(a.psi1[0] - b.psi1[0]) < 1e-9
    assert abs(a.psi0[0] - b.psi0[0]) < 1e-9


def test_phi_beyond_cap_rejected():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    with pytest.raises(ValueError):
        solve_riccati(rc, 0.0, 0.5, np.array([500.0]), phi_max=400.0)


def test_exhausted_refinement_raises():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    with pytest.raises(RiccatiError):
        solve_riccati(rc, 0.0, 0.5, np.array([25.0]), abs_tol=1e-16, n_start=2, max_n=8)


def test_scalar_phi_accepted():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    sol = solve_riccati(rc, 0.0, 0.5, 3.0)
    assert isinstance(sol, CharFnSolution)
    # scalar in, scalar out; must agree with the vector call bit for bit
    vec = solve_riccati(rc, 0.0, 0.5, np.array([3.0]))
    assert sol.psi1 == vec.psi1[0]
    assert sol.psi0 == vec.psi0[0]


def test_char_fn_assembles_exponential():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    sol = solve_riccati(rc, 0.0, 0.5, np.array([1.5]))
    x = np.log(30.0)
    val = char_fn(sol, x, 0.6)
    expected = np.exp(sol.psi0[0] + sol.psi1[0] * 0.6 + 1j * 1.5 * x)
    assert val[0] == expected
    # at phi=0 the transform is the total mass
    sol0 = solve_riccati(rc, 0.0, 0.5, np.array([0.0]))
    assert char_fn(sol0, x, 0.6)[0] == 1.0 + 0.0j
