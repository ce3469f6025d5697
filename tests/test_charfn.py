"""Riccati solver tests.

The solver has no closed form to lean on in general, so correctness is
established by (a) the constant-coefficient case where the classical
square-root-model transform is available, (b) the integrator-free series
solution for the Samuelson shape, (c) direct residual checks of the ODE
system on the solver output, and (d) the observed convergence order of the
DOP853 step on a fixed grid, the step the adaptive solver takes.  The
closed forms, classical and Samuelson's from Kummer's equation, are checked
against tight DOP853 solves, and the Kummer series against mpmath's hyp1f1.
"""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from powerswap import charfn
from powerswap.charfn import (
    CharFnSolution,
    RiccatiCoefficients,
    RiccatiError,
    char_fn,
    riccati_path,
    solve_riccati,
    solve_riccati_closed_form,
    solve_riccati_fixed,
)
from powerswap.models import (
    DeliveryPeriod,
    DeliverySeasonal,
    ExponentialWeight,
    GeneralSeparable,
    HestonParams,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
)

from _reference import const_coef_psi, samuelson_d1_d2, samuelson_psi_series

DP = DeliveryPeriod(0.75, 5.0 / 6.0)
UNI = UniformWeight()
SAM = Samuelson(3.5)
P = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
CONST = GeneralSeparable(s=lambda t, u: np.ones_like(np.asarray(u, float)), bound_r=1.0)
# s = 1 as a built-in shape: constant coefficients that the model declares
FLAT = TradingSeasonal(0.6, 0.7, 0.2)


def test_coefficients_for_model():
    rc1 = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    rc2 = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    assert rc1.alpha == 0.5 and rc2.alpha == -0.5
    # alpha follows k, so a k = 2 copy of rc1 needs no alpha of its own
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
    assert sol.n_steps == 0 and sol.n_rhs == 0


@pytest.mark.parametrize("k,alpha,beta", [(1, 0.5, 3.0 - 0.4 * (-0.3)), (2, -0.5, 3.0)])
def test_constant_coefficients_match_closed_form(k, alpha, beta):
    rc = RiccatiCoefficients.for_model(P, CONST, UNI, DP, k=k)
    phi = np.array([1.0, 5.0, 25.0])
    sol = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-12)
    ref0, ref1 = const_coef_psi(phi, 0.5, 3.0, 0.6, 0.4, -0.3, 1.0, alpha, beta)
    np.testing.assert_allclose(sol.psi1, ref1, atol=1e-10)
    np.testing.assert_allclose(sol.psi0, ref0, atol=1e-10)
    # the same system from a built-in shape, in closed form
    rc = RiccatiCoefficients.for_model(P, FLAT, UNI, DP, k=k)
    assert rc.closed_form
    assert not RiccatiCoefficients.for_model(P, CONST, UNI, DP, k=k).closed_form
    sol = solve_riccati_closed_form(rc, 0.0, 0.5, phi)
    assert (sol.n_steps, sol.n_rhs) == (0, 0)
    np.testing.assert_allclose(sol.psi1, ref1, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sol.psi0, ref0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sigma_vv", [0.01, 0.4, 3.0])
@pytest.mark.parametrize("rho", [-0.99, 0.99])
@pytest.mark.parametrize("t", [0.0, 0.5 - 1e-4])
def test_closed_form_matches_a_tight_dop853_solve(k, sigma_vv, rho, t):
    # across the strip the pricer reads, phi and phi -+ i, and from phi = 1e-3
    # to 1e3; at sigma_vv = 0.01 numpy's complex log1p alone, which takes
    # log|1 + x| without log1p, would put Q_hat 3.9e-12 off
    params = replace(P, sigma_vv=sigma_vv, rho=rho)
    rc = RiccatiCoefficients.for_model(params, DeliverySeasonal(1.0, 0.4, 0.0),
                                       ExponentialWeight(1.0), DP, k=k)
    phi = np.geomspace(1e-3, 1e3, 40)
    nodes = np.concatenate([phi, phi + (1j if k == 1 else -1j)])
    fast = solve_riccati_closed_form(rc, t, 0.5, nodes)
    ode = solve_riccati(rc, t, 0.5, nodes, abs_tol=1e-13)
    assert np.max(np.abs(fast.psi1 - ode.psi1) / (1.0 + np.abs(ode.psi1))) <= 1e-10
    assert np.max(np.abs(fast.psi0 - ode.psi0) / (1.0 + np.abs(ode.psi0))) <= 1e-10
    np.testing.assert_allclose(char_fn(fast, 0.0, 0.6), char_fn(ode, 0.0, 0.6),
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_holds_where_a_plus_d_cancels(k):
    # kappa < rho sigma S turns beta_1 negative, so at small phi d lies near
    # -a on the rows of k = 1 and a + d loses its digits; taken from the
    # product (a + d)(a - d) = -2 sigma^2 p instead it keeps them (formed as
    # it stands, Psi0 lands up to 1.2e-11 off)
    params = replace(P, kappa=0.05, sigma_vv=0.1, rho=0.99)
    rc = RiccatiCoefficients.for_model(params, DeliverySeasonal(1.0, 0.4, 0.0),
                                       ExponentialWeight(1.0), DP, k=k)
    phi = np.geomspace(1e-10, 1e-2, 20) - (1j if k == 2 else 0.0)
    fast = solve_riccati_closed_form(rc, 0.0, 0.5, phi)
    ode = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-13)
    np.testing.assert_allclose(fast.psi0, ode.psi0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(fast.psi1, ode.psi1, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sigma_vv,rho", [(0.4, -0.3), (0.05, -0.99), (1.5, 0.99)])
@pytest.mark.parametrize("t", [0.0, 0.5 - 1e-4])
def test_samuelson_closed_form_matches_a_tight_dop853_solve(k, sigma_vv, rho, t):
    # Kummer's form across the strip the pricer reads, phi and phi -+ i,
    # from phi = 1e-3 up to the bound on |zeta|, against the ODE
    params = replace(P, sigma_vv=sigma_vv, rho=rho)
    rc = RiccatiCoefficients.for_model(params, SAM, UNI, DP, k=k)
    assert rc.closed_form and rc.lam == 3.5
    phi = np.geomspace(1e-3, 1e3, 60)

    def rows(n):
        return np.concatenate([phi[:n], phi[:n] + (1j if k == 1 else -1j)])

    # the largest batch of the ascending nodes that the form still takes
    n = max(n for n in range(1, 61) if charfn._closed_form(rc, t, 0.5, rows(n)) is not None)
    assert phi[n - 1] > 10.0
    nodes = rows(n)
    fast = solve_riccati_closed_form(rc, t, 0.5, nodes)
    ode = solve_riccati(rc, t, 0.5, nodes, abs_tol=1e-13)
    np.testing.assert_allclose(char_fn(fast, 0.0, 0.6), char_fn(ode, 0.0, 0.6),
                               rtol=0.0, atol=1e-12)
    assert np.max(np.abs(fast.psi1 - ode.psi1) / (1.0 + np.abs(ode.psi1))) <= 1e-10
    # no step is taken, and at t = T both vanish, as from solve_riccati
    assert (fast.n_steps, fast.n_rhs) == (0, 0)
    end = solve_riccati_closed_form(rc, 0.5, 0.5, nodes)
    assert not np.any(end.psi0) and not np.any(end.psi1)


def test_kummer_series_matches_mpmath():
    # M(a, b, zeta) and zeta M'(a, b, zeta) from the stacked series, against
    # mpmath's hyp1f1 at 30 digits, with complex a, real b and |zeta| up to
    # the bound, Re zeta >= 0 as the closed form takes it.  Both are held to
    # 1e-14 of the sum of the terms' sizes, where rounding sets the floor;
    # the worst seen was 1.1e-15
    rng = np.random.default_rng(11)
    n = 24
    zeta = charfn._KUMMER_Z_MAX * np.sqrt(rng.uniform(size=n)) * np.exp(
        1j * rng.uniform(-0.5 * np.pi, 0.5 * np.pi, n))
    zeta[:3] = charfn._KUMMER_Z_MAX * np.array([1.0, 1j, -1j])
    mu = 3.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    # b = 1 - kappa / lam and 2 - b, kappa / lam from 0.06 to 30.5, off the
    # integers; a = -b mu / zeta and a - b + 1, as the closed form pairs them
    b = np.array([0.94, 0.3, -0.5, -2.7, -6.8, -29.5])
    a_d = np.stack([(-bb * mu, (1.0 - bb) * zeta - bb * mu) for bb in b]).reshape(-1, n)
    b_s = np.stack([b, 2.0 - b], axis=1).ravel()
    terms = charfn._kummer_terms(a_d, b_s, zeta, np.max(np.abs(zeta)))
    j = np.arange(terms.shape[1])[:, None]
    value, derivative = terms.sum(axis=1), (j * terms).sum(axis=1)
    size, derivative_size = np.abs(terms).sum(axis=1), (j * np.abs(terms)).sum(axis=1)
    mpmath.mp.dps = 30
    for s in range(b_s.size):
        for i in range(n):
            z = mpmath.mpc(zeta[i])
            a = mpmath.mpc(a_d[s, i]) / z
            ref = complex(mpmath.hyp1f1(a, b_s[s], z))
            ref_derivative = complex(z * a / b_s[s] * mpmath.hyp1f1(a + 1, b_s[s] + 1, z))
            assert abs(value[s, i] - ref) <= 1e-14 * size[s, i], (s, i)
            assert abs(derivative[s, i] - ref_derivative) <= 1e-14 * derivative_size[s, i]


def test_closed_form_refuses_what_it_cannot_price():
    # a theta that moves with time, sigma_vv = 0, Samuelson with kappa / lam
    # = 1, and phi outside the strip where Q_hat_k is a characteristic
    # function: at -40i, past a moment explosion, the ODE raises where the
    # closed form would run straight through the pole
    for rc in (RiccatiCoefficients.for_model(replace(P, theta=FLAT.theta), FLAT, UNI, DP, k=2),
               RiccatiCoefficients.for_model(replace(P, sigma_vv=0.0), FLAT, UNI, DP, k=2),
               RiccatiCoefficients.for_model(P, Samuelson(3.0), UNI, DP, k=2)):
        with pytest.raises(ValueError, match="needs S and xi flat or of the Samuelson shape"):
            solve_riccati_closed_form(rc, 0.0, 0.5, 1.0)
    # Samuelson nodes past the Kummer argument's bound, about phi = 200 here
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    assert solve_riccati_closed_form(rc, 0.0, 0.5, np.array([1.0, 100.0])).n_steps == 0
    with pytest.raises(ValueError, match=r"\|zeta\| <= 8"):
        solve_riccati_closed_form(rc, 0.0, 0.5, np.array([1.0, 300.0]))
    for k, phi in ((2, -40j), (2, 1.0 + 0.5j), (1, -0.5j), (1, 2.0 + 1.5j)):
        rc = RiccatiCoefficients.for_model(P, FLAT, UNI, DP, k=k)
        with pytest.raises(ValueError, match=f"Im phi must lie in .* for k = {k}"):
            solve_riccati_closed_form(rc, 0.0, 0.5, np.array([1.0, phi]))
    with pytest.raises(RiccatiError):
        solve_riccati(RiccatiCoefficients.for_model(P, FLAT, UNI, DP, k=2), 0.0, 0.5, -40j)
    # the scalar and edge conventions of solve_riccati
    rc = RiccatiCoefficients.for_model(P, FLAT, UNI, DP, k=2)
    assert solve_riccati_closed_form(rc, 0.5, 0.5, 3.0 - 1j).psi0 == 0.0
    assert isinstance(solve_riccati_closed_form(rc, 0.0, 0.5, 3.0).psi1, complex)
    with pytest.raises(ValueError, match="phi must be finite"):
        solve_riccati_closed_form(rc, 0.0, 0.5, np.nan)


def test_span_is_checked_once_per_solve(monkeypatch):
    # S and xi are checked against the delivery start once, at T, and read
    # unchecked at every stage time after that
    calls = []

    def spy(curve):
        def recorded(t, check=True):
            calls.append(check)
            return curve(t, check=check)
        return recorded

    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    rc = replace(rc, big_s=spy(rc.big_s), xi=spy(rc.xi))
    for solve in (lambda: solve_riccati(rc, 0.0, 0.5, np.array([1.0, 5.0])),
                  lambda: solve_riccati_fixed(rc, 0.0, 0.5, np.array([1.0, 5.0]), 4)):
        calls.clear()
        solve()
        assert calls.count(True) == 1 and calls.count(False) > 4
    # past the delivery start, ValueError names it before any step
    def never(*args):
        raise AssertionError("a step was taken past the delivery start")

    monkeypatch.setattr(charfn, "_dop853_system", never)
    rc_flat = RiccatiCoefficients.for_model(P, FLAT, UNI, DP, k=2)
    for solve in (lambda: solve_riccati(rc, 0.0, 0.8, 1.0),
                  lambda: solve_riccati(rc, 0.8, 0.8, 1.0),
                  lambda: solve_riccati_fixed(rc, 0.0, 0.8, 1.0, 4),
                  lambda: riccati_path(rc, 0.0, 0.8, 1.0, 4),
                  lambda: solve_riccati_closed_form(rc_flat, 0.0, 0.8, 1.0)):
        with pytest.raises(ValueError, match="must not exceed the delivery start 0.75"):
            solve()


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
    # first same as last: one rhs at s = 0, then twelve per step
    assert sol.n_steps == 128 and sol.n_rhs == 12 * 128 + 1


@pytest.mark.parametrize("bad", [0, -3, 2.7, True])
def test_fixed_grid_rejects_bad_step_count(bad):
    def never(t):
        raise AssertionError("coefficient evaluated before n_steps was checked")

    rc = replace(RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1), big_s=never)
    for solve in (solve_riccati_fixed, riccati_path):
        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            solve(rc, 0.0, 0.5, np.array([2.0]), n_steps=bad)


def test_runge_kutta_convergence_order():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    phi = np.array([5.0])
    ref = solve_riccati_fixed(rc, 0.0, 0.5, phi, n_steps=4096).psi1[0]
    errs = []
    # from n = 16 on the error nears the roundoff floor of the reference
    # (3e-16 at n = 32), which would hide the order
    for n in (2, 4, 8):
        approx = solve_riccati_fixed(rc, 0.0, 0.5, phi, n_steps=n).psi1[0]
        errs.append(abs(approx - ref))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    # the DOP853 solution is 8th order
    assert rate1 >= 7.5
    assert rate2 >= 7.5


def test_tableau_is_dop853():
    # the literal tableau against scipy's copy of Hairer's coefficients;
    # scipy is imported here only, so that the solver never loads it
    from scipy.integrate._ivp import dop853_coefficients as ref

    a = np.zeros((12, 12))
    for i, row in enumerate(charfn._DOP_A):
        a[i, :i] = row
    np.testing.assert_array_equal(a, ref.A[:12, :12])
    np.testing.assert_array_equal(charfn._DOP_B, ref.B)
    np.testing.assert_array_equal(charfn._DOP_C, ref.C[:12])
    np.testing.assert_array_equal(charfn._DOP_E3, ref.E3[:12])
    np.testing.assert_array_equal(charfn._DOP_E5, ref.E5[:12])


def test_tableau_is_consistent():
    # each stage sits at the time its row reaches, the solution weights sum
    # to 1 and both error estimates vanish on a constant slope
    for c, row in zip(charfn._DOP_C, charfn._DOP_A):
        assert np.sum(row) == pytest.approx(c, abs=1e-14)
    assert np.sum(charfn._DOP_B) == pytest.approx(1.0, abs=1e-14)
    assert np.sum(charfn._DOP_E3) == pytest.approx(0.0, abs=1e-14)
    assert np.sum(charfn._DOP_E5) == pytest.approx(0.0, abs=1e-14)


def test_tighter_tolerance_takes_more_steps():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    phi = np.array([2.0, 10.0])
    loose = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-10)
    tight = solve_riccati(rc, 0.0, 0.5, phi, abs_tol=1e-12)
    np.testing.assert_allclose(loose.psi1, tight.psi1, atol=1e-9)
    np.testing.assert_allclose(loose.psi0, tight.psi0, atol=1e-9)
    assert tight.n_steps > loose.n_steps
    # FSAL DOP853: one rhs at s = 0, eleven per attempted step and one more
    # per accepted step but the last, so a rejected step costs eleven; at
    # phi = 200 the first trial step is rejected
    for sol in (loose, tight, solve_riccati(rc, 0.0, 0.5, 200.0)):
        rejected, rest = divmod(sol.n_rhs - 12 * sol.n_steps, 11)
        assert rest == 0 and rejected >= 0
    assert rejected >= 1


def test_transform_weighted_control_saves_steps_where_q_hat_is_small():
    # 512 nodes with phi in [64, 96], stacked with phi - i as the pricer
    # stacks its mapped nodes, where |Q_hat| at nu = 0.6 is below 4e-8: told
    # nu, the solve stops holding these nodes' Psi to abs_tol, and Q_hat
    # itself stays as accurate
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    gl_nodes, _ = np.polynomial.legendre.leggauss(32)
    phi = (2.0 * (np.arange(32, 48)[:, None] + 0.5 + 0.5 * gl_nodes)).ravel()
    stacked = np.concatenate([phi, phi - 1j])
    x, nu = np.log(30.0), 0.6
    weighted = solve_riccati(rc, 0.0, 0.5, stacked, nu=nu)
    plain = solve_riccati(rc, 0.0, 0.5, stacked)
    tight = solve_riccati(rc, 0.0, 0.5, stacked, abs_tol=1e-12)
    assert weighted.n_steps < plain.n_steps
    np.testing.assert_allclose(char_fn(weighted, x, nu), char_fn(tight, x, nu),
                               rtol=0.0, atol=1e-10)
    # 32 further on, |Q_hat| falls to 1e-20, the size at which the pricer's
    # envelope test reads its largest node: the weight's floor still keeps
    # it to 1% relative error
    stacked = np.concatenate([phi + 32.0, phi + 32.0 - 1j])
    weighted = solve_riccati(rc, 0.0, 0.5, stacked, nu=nu)
    tight = solve_riccati(rc, 0.0, 0.5, stacked, abs_tol=1e-12)
    np.testing.assert_allclose(char_fn(weighted, x, nu), char_fn(tight, x, nu),
                               rtol=1e-2, atol=0.0)


def _reference_steps(rc, T, phi, h, n_steps):
    """Psi0, Psi1 after n_steps DOP853 steps of size h from s = 0, written
    straight from the tableau and the textbook right-hand side in s = T - t,
    one node at a time."""
    def rhs(s, psi1):
        t = T - s
        big_s, xi = rc.big_s(t), rc.xi(t)
        beta = rc.kappa + rc.sigma_vv * rc.rho * (xi - big_s if rc.k == 1 else xi)
        d_psi1 = (0.5 * rc.sigma_vv ** 2 * psi1 ** 2
                  - (beta - 1j * rc.rho * rc.sigma_vv * big_s * phi) * psi1
                  - (0.5 * phi ** 2 - 1j * rc.alpha * phi) * big_s ** 2)
        return d_psi1, rc.kappa * rc.theta(t) * psi1

    psi0 = psi1 = 0.0j
    for j in range(n_steps):
        slopes = []
        for c, row in zip(charfn._DOP_C, charfn._DOP_A):
            arg = psi1 + h * sum(a * k1 for a, (k1, _) in zip(row, slopes))
            slopes.append(rhs((j + c) * h, arg))
        psi1 += h * sum(b * k1 for b, (k1, _) in zip(charfn._DOP_B, slopes))
        psi0 += h * sum(b * k0 for b, (_, k0) in zip(charfn._DOP_B, slopes))
    return psi0, psi1


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("params", [
    P, replace(P, sigma_vv=0.0), replace(P, rho=0.0),
    replace(P, theta=lambda t: 0.6 + 0.8 * t)], ids=["base", "sigma0", "rho0", "theta_t"])
def test_stages_match_a_direct_dop853_step(k, params):
    # the tabulated coefficients, the stage products and Psi0 taken from
    # Psi1's rows after the stages against the textbook step, over three
    # steps, so that the first-same-as-last slope is read too
    rc = RiccatiCoefficients.for_model(params, SAM, UNI, DP, k=k)
    phi = np.array([0.5, 5.0, 40.0])
    nodes = np.concatenate([phi, phi - 1j])
    sol = solve_riccati_fixed(rc, 0.1, 0.5, nodes, n_steps=3)
    for j, node in enumerate(nodes):
        ref0, ref1 = _reference_steps(rc, 0.5, node, 0.4 / 3, 3)
        assert abs(sol.psi1[j] - ref1) <= 1e-13 * (1.0 + abs(ref1))
        assert abs(sol.psi0[j] - ref0) <= 1e-13 * (1.0 + abs(ref0))


def test_a_step_within_a_tenth_of_the_end_takes_the_rest(monkeypatch):
    # without the rule (a stretch of 1) this solve's last but one step,
    # 0.0599, falls 0.0006 short of the end, which then costs one more step
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    phi = np.array([1.0, 5.0, 25.0])
    trials = []
    system = charfn._dop853_system

    def spy(*args):
        y_new, est, step, accept = system(*args)

        def recorded(s, h):
            trials.append((s, h))
            step(s, h)
        return y_new, est, recorded, accept

    monkeypatch.setattr(charfn, "_dop853_system", spy)
    monkeypatch.setattr(charfn, "_END_STRETCH", 1.0)
    plain = solve_riccati(rc, 0.0, 0.5, phi)
    plain_trials = trials.copy()
    trials.clear()
    monkeypatch.setattr(charfn, "_END_STRETCH", 1.1)
    ruled = solve_riccati(rc, 0.0, 0.5, phi)
    (s, h), (_, sliver) = plain_trials[-2:]
    assert 1.1 * h >= 0.5 - s > h and sliver < 0.1 * h
    # the same steps up to there, and then one that takes the rest
    assert trials[:-1] == plain_trials[:-2]
    assert trials[-1] == (s, 0.5 - s)
    assert (ruled.n_steps, ruled.n_rhs) == (plain.n_steps - 1, plain.n_rhs - 12)
    np.testing.assert_allclose(ruled.psi1, plain.psi1, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(ruled.psi0, plain.psi0, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("nu", [-0.1, np.inf, np.nan])
def test_weighted_control_rejects_a_bad_nu(nu):
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    with pytest.raises(ValueError, match="nu must be finite and non-negative"):
        solve_riccati(rc, 0.0, 0.5, np.array([1.0]), nu=nu)


@pytest.mark.parametrize("lam,T", [(3.5, 0.5), (1.0, 0.7)])
def test_samuelson_matches_series_oracle(lam, T):
    # |1 - e^{-lam T}| is 0.83 and 0.50, inside the series' radius
    d1, d2 = samuelson_d1_d2(lam * (DP.tau2 - DP.tau1))
    decay = np.exp(-lam * (DP.tau1 - T))
    phi = np.array([0.5, 1.0, 5.0, 25.0, 50.0, 84.0])
    for k in (1, 2):
        rc = RiccatiCoefficients.for_model(P, Samuelson(lam), UNI, DP, k=k)
        sol = solve_riccati(rc, 0.0, T, phi, abs_tol=1e-12)
        ref0, ref1 = samuelson_psi_series(phi, T, k, lam, 3.0, 0.6, 0.4, -0.3,
                                          d1 * decay, d2 * decay)
        np.testing.assert_allclose(sol.psi1, ref1, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(sol.psi0, ref0, rtol=0.0, atol=1e-10)


def test_stacked_k2_at_shifted_phi_is_k1():
    # Q_hat_1(phi) = Q_hat_2(phi - i) / F: the k = 2 system at phi - i has
    # k = 1's linear term and source, so the pricer solves only k = 2
    rc1 = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    rc2 = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=2)
    phi = np.array([0.5, 5.0, 25.0, 84.0])
    x, nu = np.log(30.0), 0.6
    stacked = solve_riccati(rc2, 0.0, 0.5, np.concatenate([phi, phi - 1j]))
    k1 = solve_riccati_fixed(rc1, 0.0, 0.5, phi, n_steps=4096)
    shifted = char_fn(stacked, x, nu)[phi.size:] / 30.0
    np.testing.assert_allclose(shifted, char_fn(k1, x, nu), rtol=0.0, atol=1e-10)
    # the error control is relative to 1 + |psi|, and |psi1| reaches 13 here
    np.testing.assert_allclose(stacked.psi1[phi.size:], k1.psi1, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(stacked.psi0[phi.size:], k1.psi0, rtol=1e-10, atol=1e-10)
    # and against the k = 1 series, which shares no code with the integrator
    d1, d2 = samuelson_d1_d2(3.5 * (DP.tau2 - DP.tau1))
    decay = np.exp(-3.5 * (DP.tau1 - 0.5))
    ref0, ref1 = samuelson_psi_series(phi, 0.5, 1, 3.5, 3.0, 0.6, 0.4, -0.3,
                                      d1 * decay, d2 * decay)
    np.testing.assert_allclose(stacked.psi1[phi.size:], ref1, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(stacked.psi0[phi.size:], ref0, rtol=1e-10, atol=1e-10)


def test_phi_beyond_cap_rejected():
    # one fixed ceiling on |Re phi| holds for every entry point
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    cap = charfn._PHI_HARD_CAP
    assert cap == 1e4
    for phi in (cap + 1.0, cap + 1.0 - 1j, -cap - 1.0):
        with pytest.raises(ValueError, match="exceeds the ceiling 10000"):
            solve_riccati(rc, 0.0, 0.5, np.array([phi]))
        with pytest.raises(ValueError, match="exceeds the ceiling 10000"):
            solve_riccati_fixed(rc, 0.0, 0.5, np.array([phi]), 4)
    # it bounds Re phi; the shifted nodes phi - i of the pricer pass
    assert np.isfinite(solve_riccati(rc, 0.499, 0.5, np.array([cap - 1j])).psi1).all()
    assert np.isfinite(riccati_path(rc, 0.0, 0.5, np.array([500.0]), 200)[2]).all()


def test_unreachable_tolerance_raises():
    rc = RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1)
    for tol in (1e-16, 0.0, -1e-10, np.nan):
        with pytest.raises(RiccatiError):
            solve_riccati(rc, 0.0, 0.5, np.array([25.0]), abs_tol=tol)


@pytest.mark.parametrize("tol", [np.inf, -np.inf, np.nan])
def test_non_finite_tolerance_raises_before_any_step(tol):
    def never(t):
        raise AssertionError("coefficient evaluated before abs_tol was checked")

    rc = replace(RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1), big_s=never)
    with pytest.raises(RiccatiError, match="abs_tol must be finite"):
        solve_riccati(rc, 0.0, 0.5, np.array([25.0]), abs_tol=tol)


@pytest.mark.parametrize("phi", [np.nan, 1.0 + np.nan * 1j, np.inf, -np.inf - 1j])
def test_non_finite_phi_raises_before_any_step(phi):
    def never(t):
        raise AssertionError("coefficient evaluated before phi was checked")

    rc = replace(RiccatiCoefficients.for_model(P, SAM, UNI, DP, k=1), big_s=never)
    nodes = np.array([1.0, phi, 3.0])
    with pytest.raises(ValueError, match="phi must be finite"):
        solve_riccati(rc, 0.0, 0.5, nodes)
    for solve in (solve_riccati_fixed, riccati_path):
        with pytest.raises(ValueError, match="phi must be finite"):
            solve(rc, 0.0, 0.5, nodes, n_steps=8)


@pytest.mark.slow
def test_moment_explosion_raises_at_blow_up_time():
    # with constant coefficients, phi = -40i turns the k = 2 system into
    # psi' = a psi^2 + b psi + c with 4ac > b^2, which blows up at
    # s* = (2 / sqrt(D)) (pi/2 - atan(b / sqrt(D))), D = 4ac - b^2
    rc = RiccatiCoefficients.for_model(P, CONST, UNI, DP, k=2)
    phi = -40j
    a = 0.5 * 0.4 ** 2
    b = -(3.0 - 1j * (-0.3) * 0.4 * phi).real
    c = -(0.5 * phi ** 2 + 0.5j * phi).real
    disc = 4.0 * a * c - b * b
    s_star = 2.0 / np.sqrt(disc) * (0.5 * np.pi - np.arctan(b / np.sqrt(disc)))
    assert 0.0 < s_star < 0.5
    with pytest.raises(RiccatiError) as info:
        solve_riccati(rc, 0.0, 0.5, phi)
    assert np.isfinite(info.value.t_fail)
    assert info.value.t_fail == pytest.approx(0.5 - s_star, abs=1e-6)
    # a fixed grid cannot step around the pole: the state turns non-finite
    # within a few steps past it
    n = 1000
    with pytest.raises(RiccatiError) as info:
        solve_riccati_fixed(rc, 0.0, 0.5, phi, n_steps=n)
    assert np.isfinite(info.value.t_fail)
    assert 0.0 < (0.5 - s_star) - info.value.t_fail < 3 * 0.5 / n


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
