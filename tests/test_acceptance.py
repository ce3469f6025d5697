"""Acceptance gate: one test per headline guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every test computes its quantities first, prints a single [PASS]/[FAIL]
line, then asserts, so a broken build still reports every criterion.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from powerswap.averaging import d1_d2, market_price_factor, samuelson_variance, swap_vol_factor
from powerswap.charfn import RiccatiCoefficients, riccati_path, solve_riccati, solve_riccati_fixed
from powerswap.models import (
    CustomWeight,
    DeliveryPeriod,
    DeliverySeasonal,
    ExponentialWeight,
    GeneralSeparable,
    HestonParams,
    OptionSpec,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
    weight_density,
)
from powerswap.pricer import price_fourier, price_fourier_many
from powerswap.simulate import GridSpec, Measure, simulate_paths, simulate_terminal

from _reference import const_coef_psi, lognormal_call_put

DP = DeliveryPeriod(0.75, 5.0 / 6.0)
UNI = UniformWeight()
T_EX = 0.5

TS = TradingSeasonal(alpha=0.6, beta=0.7, gamma=0.2)
SAM = Samuelson(lam=3.5)
DS = DeliverySeasonal(a=1.0, b=0.4, c=0.0)


def _params(theta=0.6, **over):
    base = dict(kappa=3.0, theta=theta, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    base.update(over)
    return HestonParams(**base)


THREE_CONFIGS = [
    ("trading_seasonal", TS, _params(theta=TS.theta)),
    ("samuelson", SAM, _params()),
    ("delivery_seasonal", DS, _params()),
]


def _report(name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_factor_regression_table():
    """Stored one-month averaging factors reproduce to 4 decimals in < 1 s."""
    expected = {
        1.5: (0.9400, 0.0012, 0.0006),
        3.5: (0.8674, 0.0053, 0.0031),
        5.5: (0.8022, 0.0112, 0.0070),
    }
    start = time.perf_counter()
    dp = DeliveryPeriod(0.75, 0.75 + 1.0 / 12.0)
    mismatches = []
    for lam, (e_d1, e_var, e_d2) in expected.items():
        d1, d2 = d1_d2(lam, dp.delta)
        var = samuelson_variance(lam, dp)
        for name, got, want in (("d1", d1, e_d1), ("var", var, e_var), ("d2", d2, e_d2)):
            if round(got, 4) != want:
                mismatches.append((lam, name, got, want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _report(
        "factor regression table",
        ok,
        f"9/9 values at 4 decimals, {elapsed * 1e3:.1f} ms" if ok else f"{mismatches}, {elapsed:.2f} s",
    )


def test_criterion_identity_suite():
    """d2 = Var/(2 E) to 1e-12; xi >= 0 everywhere; densities integrate to 1."""
    worst_identity = 0.0
    for lam in (0.5, 1.5, 3.5, 5.5):
        d1, d2 = d1_d2(lam, DP.delta)
        var = samuelson_variance(lam, DP)
        worst_identity = max(worst_identity, abs(d2 - 0.5 * var / d1))

    min_xi = np.inf
    t_grid = np.linspace(0.0, 0.75, 31)
    ramp = GeneralSeparable(
        s=lambda t, u: np.exp(-0.8 * (np.asarray(u, float) - t)) * (1.0 + 0.3 * np.asarray(u, float)),
        bound_r=3.0,
    )
    for vol in (Samuelson(0.5), Samuelson(3.5), Samuelson(12.0), DS, DeliverySeasonal(1.0, 0.9, 0.6), TS, ramp):
        for t in t_grid:
            min_xi = min(min_xi, market_price_factor(vol, UNI, DP, float(t)))

    worst_mass = 0.0
    custom = CustomWeight.from_table([0.7, 0.78, 0.82, 0.9], [1.0, 2.5, 0.5, 1.2])
    for w in (UNI, ExponentialWeight(rate=0.01), ExponentialWeight(rate=2.0), custom):
        mass, _ = quad(lambda u: float(weight_density(w, DP, u)), DP.tau1, DP.tau2,
                       epsabs=1e-13, epsrel=1e-13, limit=200)
        worst_mass = max(worst_mass, abs(mass - 1.0))

    ok = worst_identity < 1e-12 and min_xi >= 0.0 and worst_mass < 1e-10
    _report(
        "identity suite",
        ok,
        f"identity err {worst_identity:.2e}, min xi {min_xi:.2e}, density mass err {worst_mass:.2e}",
    )


def test_criterion_flat_profile_degeneracy():
    """Flat delivery profile: xi identically zero, both measures bit-identical."""
    xi_vals = [market_price_factor(TS, UNI, DP, t) for t in np.linspace(0.0, 0.75, 51)]
    xi_zero = all(v == 0.0 for v in xi_vals)

    p = _params(theta=TS.theta)
    g = GridSpec(t0=0.0, t_end=T_EX, n_steps=500, n_paths=5000, seed=13)
    q = simulate_paths(p, TS, UNI, DP, g, measure=Measure.Q)
    qt = simulate_paths(p, TS, UNI, DP, g, measure=Measure.Q_TILDE)
    identical = np.array_equal(q.x_paths, qt.x_paths) and np.array_equal(q.nu_paths, qt.nu_paths)

    ok = xi_zero and identical
    _report(
        "flat profile degeneracy",
        ok,
        f"xi == 0 at 51 grid points: {xi_zero}; Q vs Q-tilde paths bit-identical: {identical}",
    )


def test_criterion_martingale_three_configs():
    """Mean of F(0.5) within 3 standard errors of 30 at 1e5 paths, < 60 s."""
    start = time.perf_counter()
    zs = {}
    for name, vol, p in THREE_CONFIGS:
        g = GridSpec(t0=0.0, t_end=T_EX, n_steps=1000, n_paths=100_000, seed=2024)
        term = simulate_terminal(p, vol, UNI, DP, g, workers=2)
        f = term.f
        zs[name] = float((f.mean() - 30.0) / (f.std(ddof=1) / np.sqrt(g.n_paths)))
    elapsed = time.perf_counter() - start
    ok = all(abs(z) < 3.0 for z in zs.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} z={v:+.2f}" for k, v in zs.items())
    _report("martingale under the pricing measure", ok, f"{detail}, {elapsed:.1f} s")


def test_criterion_constant_coefficient_oracle():
    """Riccati solver matches the classical closed form to 1e-8."""
    const = GeneralSeparable(s=lambda t, u: np.ones_like(np.asarray(u, float)), bound_r=1.0)
    p = _params()
    phi = np.array([1.0, 5.0, 25.0])
    worst = 0.0
    for k, alpha, beta in ((1, 0.5, 3.0 - 0.4 * (-0.3)), (2, -0.5, 3.0)):
        rc = RiccatiCoefficients.for_model(p, const, UNI, DP, k=k)
        sol = solve_riccati(rc, 0.0, T_EX, phi, abs_tol=1e-12)
        ref0, ref1 = const_coef_psi(phi, T_EX, 3.0, 0.6, 0.4, -0.3, 1.0, alpha, beta)
        worst = max(worst, float(np.max(np.abs(sol.psi1 - ref1))), float(np.max(np.abs(sol.psi0 - ref0))))
    ok = worst < 1e-8
    _report("constant-coefficient transform oracle", ok, f"max |psi - closed form| = {worst:.2e}")


def test_criterion_lognormal_degenerate_pricing():
    """sigma_vv=0, rho=0: Fourier prices equal the lognormal oracle to 1e-7."""
    p = _params(sigma_vv=0.0, rho=0.0, nu0=0.4)
    nu_t = lambda u: 0.6 + (0.4 - 0.6) * np.exp(-3.0 * u)
    total_var, quad_err = quad(
        lambda u: swap_vol_factor(SAM, UNI, DP, u) ** 2 * nu_t(u),
        0.0, T_EX, epsabs=1e-13, epsrel=1e-13,
    )
    assert quad_err < 1e-12
    df = np.exp(-0.01 * T_EX)
    worst = 0.0
    for k in (24.0, 30.0, 36.0):
        res = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=k, exercise=T_EX))
        ref_call, ref_put = lognormal_call_put(30.0, k, total_var, df)
        worst = max(worst, abs(res.call - ref_call), abs(res.put - ref_put))
    ok = worst < 1e-7
    _report("deterministic-variance lognormal pricing", ok, f"max abs error {worst:.2e}")


def test_criterion_fourier_vs_mc_cross_validation():
    """Semi-analytic prices within 3 MC standard errors at 2e5 paths, < 5 min."""
    start = time.perf_counter()
    strikes = [24.0, 30.0, 36.0]
    df = np.exp(-0.01 * T_EX)
    worst_z = 0.0
    details = []
    for i, (name, vol, p) in enumerate(THREE_CONFIGS):
        fouriers = price_fourier_many(p, vol, UNI, DP, strikes=strikes, exercise=T_EX)
        g = GridSpec(t0=0.0, t_end=T_EX, n_steps=2000, n_paths=200_000, seed=9000 + i)
        f = simulate_terminal(p, vol, UNI, DP, g, workers=4).f
        for k, fr in zip(strikes, fouriers):
            payoff = df * np.maximum(f - k, 0.0)
            mc_call = payoff.mean()
            stderr = payoff.std(ddof=1) / np.sqrt(g.n_paths)
            z = float((fr.call - mc_call) / stderr)
            worst_z = max(worst_z, abs(z))
            details.append(f"{name} K={k:g} z={z:+.2f}")
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and elapsed < 300.0
    _report(
        "fourier vs monte-carlo cross-validation",
        ok,
        f"max |z| = {worst_z:.2f} over 9 cells ({'; '.join(details)}), {elapsed:.0f} s",
    )


def test_criterion_parity_and_shape():
    """Parity to 1e-10, monotone calls, clamped probabilities, exact terminal
    conditions, ODE residual < 1e-6 and observed RK order >= 3.5."""
    p = _params()
    strikes = np.linspace(20.0, 40.0, 20)
    results = price_fourier_many(p, SAM, UNI, DP, strikes=strikes, exercise=T_EX)
    df = np.exp(-0.01 * T_EX)
    parity_err = max(
        abs(r.call - r.put - df * (30.0 - k)) for k, r in zip(strikes, results)
    )
    calls = np.array([r.call for r in results])
    monotone = bool((np.diff(calls) <= 0).all())
    probs_ok = all(0.0 <= r.q1 <= 1.0 and 0.0 <= r.q2 <= 1.0 for r in results)

    rc = RiccatiCoefficients.for_model(p, SAM, UNI, DP, k=1)
    sol_t = solve_riccati(rc, T_EX, T_EX, np.array([2.0]))
    terminal_exact = sol_t.psi0[0] == 0.0 and sol_t.psi1[0] == 0.0

    phi = 1.0
    times, psi0, psi1 = riccati_path(rc, 0.0, T_EX, phi, n_steps=2000)
    h = times[1] - times[0]
    mid = slice(1, -1)
    s_mid = np.array([rc.big_s(t) for t in times[mid]])
    beta_mid = np.array([rc.beta(t) for t in times[mid]])
    theta_mid = np.array([rc.theta(t) for t in times[mid]])
    rhs1 = (
        -0.5 * rc.sigma_vv**2 * psi1[mid] ** 2
        + (beta_mid - 1j * rc.rho * rc.sigma_vv * s_mid * phi) * psi1[mid]
        + (0.5 * phi**2 - 1j * rc.alpha * phi) * s_mid**2
    )
    rhs0 = -rc.kappa * theta_mid * psi1[mid]
    residual = max(
        float(np.max(np.abs((psi1[2:] - psi1[:-2]) / (2 * h) - rhs1))),
        float(np.max(np.abs((psi0[2:] - psi0[:-2]) / (2 * h) - rhs0))),
    )

    # from n = 16 on the error nears the roundoff floor of the reference
    # (3e-16 at n = 32), which would hide the order
    ref = solve_riccati_fixed(rc, 0.0, T_EX, np.array([5.0]), n_steps=4096).psi1[0]
    errs = [
        abs(solve_riccati_fixed(rc, 0.0, T_EX, np.array([5.0]), n_steps=n).psi1[0] - ref)
        for n in (2, 4, 8)
    ]
    rates = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    order_ok = min(rates) >= 3.5

    ok = (
        parity_err < 1e-10
        and monotone
        and probs_ok
        and terminal_exact
        and residual < 1e-6
        and order_ok
    )
    _report(
        "parity and shape",
        ok,
        f"parity err {parity_err:.2e}, monotone {monotone}, probs in [0,1] {probs_ok}, "
        f"terminal exact {terminal_exact}, residual {residual:.2e}, RK order {min(rates):.2f}",
    )
