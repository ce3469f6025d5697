"""One benchmark workload in a fresh process.

``run.py`` starts this file once per workload, and a few more times with
``--setup-only`` to sample set-up time.  It imports powerswap from the
checkout's ``src/``, builds the workload inputs through ``cli.load_config``,
runs whole pricing passes until ``--seconds`` of pricing have been measured,
checks every price, and with ``--trace 1`` runs one more pass with the layer
wrappers of ``tracing.py`` installed.  The last line of standard output is
one JSON object for ``run.py``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXERCISE = 0.5
FOURIER_STRIKES = (24.0, 27.0, 30.0, 33.0, 36.0)
MC_STRIKES = (27.0, 30.0, 33.0)
ATM_STRIKE = 30.0
HESTON = {"kappa": 3.0, "theta": 0.6, "sigma_vv": 0.4, "rho": -0.3,
          "nu0": 0.6, "f0": 30.0, "r": 0.01}
DELIVERY = {"tau1": 0.75, "tau2": "5/6"}
SAMUELSON = {"variant": "samuelson", "lam": 3.5}
UNIFORM = {"variant": "uniform"}

# model, weight and engine per workload; see NOTES.md for why each exists
WORKLOADS = {
    "fourier_ladder": (SAMUELSON, UNIFORM, "fourier"),
    "fourier_quadrature": ({"variant": "delivery_seasonal", "a": 1.0, "b": 0.4,
                            "c": 0.0},
                           {"variant": "exponential", "rate": 1.0}, "fourier"),
    "mc_ladder": (SAMUELSON, UNIFORM, "mc"),
}

# The full sizes are the benchmark.  "tiny" only keeps the smoke test short:
# a looser Riccati tolerance and a small path grid, checked against its own
# recorded Fourier references.
SIZES = {
    "full": {"ode_tol": None, "n_steps": 1000, "n_paths": 32768},
    "tiny": {"ode_tol": 1e-6, "n_steps": 50, "n_paths": 2048},
}

PANEL_NODES = 32  # Gauss-Legendre nodes per Fourier panel in the pricer
FOURIER_TOL = 1e-8
PARITY_TOL = 1e-10
# Each run checks three strongly correlated MC prices; at 3 stderr a correct
# engine would fail about one run in 250 by chance, at 4 about one in 10^4.
MC_Z_LIMIT = 4.0


class Inputs:
    """Everything a pricing pass needs, built during set-up."""

    def __init__(self, workload, seed, size, workers):
        from powerswap import cli
        from powerswap.models import OptionSpec

        model, weight, self.engine = WORKLOADS[workload]
        dims = SIZES[size]
        config = {"model": model, "weight": weight, "heston": HESTON,
                  "delivery": DELIVERY,
                  "option": {"strike": ATM_STRIKE, "exercise": EXERCISE},
                  "grid": {"t0": 0.0, "t_end": EXERCISE,
                           "n_steps": dims["n_steps"],
                           "n_paths": dims["n_paths"], "seed": seed}}
        start = time.perf_counter()
        cfg = cli.load_config(config)
        self.load_config_s = time.perf_counter() - start
        self.args = (cfg.params, cfg.vol, cfg.weight, cfg.delivery)
        self.grid = cfg.grid.resolve(EXERCISE)
        self.workers = workers
        self.fourier_kwargs = ({} if dims["ode_tol"] is None
                               else {"ode_tol": dims["ode_tol"]})
        if self.engine == "fourier":
            self.strikes = FOURIER_STRIKES
        else:
            self.strikes = MC_STRIKES
            self.options = [OptionSpec(strike=k, exercise=EXERCISE)
                            for k in MC_STRIKES]


def run_pass(inputs: Inputs):
    """One pass of the workload's pricing calls.

    Returns (seconds, results by strike); a call that raised leaves its
    strikes holding the exception.  The pricer functions are looked up on
    the module at call time so that a traced pass sees the wrappers.
    """
    from powerswap import pricer

    results = {}
    start = time.perf_counter()
    if inputs.engine == "fourier":
        try:
            prices = pricer.price_fourier_many(*inputs.args, inputs.strikes,
                                               EXERCISE, **inputs.fourier_kwargs)
            results = dict(zip(inputs.strikes, prices))
        except Exception as exc:  # counted as failed prices, pass goes on
            results = dict.fromkeys(inputs.strikes, exc)
    else:
        for opt in inputs.options:
            try:
                results[opt.strike] = pricer.price_mc(
                    *inputs.args, opt, inputs.grid, workers=inputs.workers)
            except Exception as exc:
                results[opt.strike] = exc
    return time.perf_counter() - start, results


def check(inputs: Inputs, strike, res, refs) -> str | None:
    """Failure reason for one price, or None when it passes."""
    if isinstance(res, Exception):
        return f"K={strike}: {type(res).__name__}: {res}"
    for name in ("q1", "q2"):
        q = getattr(res, name)
        if not 0.0 <= q <= 1.0:
            return f"K={strike}: {name}={q!r} outside [0, 1]"
    ref = refs["fourier_ladder" if inputs.engine == "mc" else "self"][strike]
    if inputs.engine == "mc":
        if not (res.stderr > 0 and abs(res.call - ref) <= MC_Z_LIMIT * res.stderr):
            return (f"K={strike}: MC call {res.call!r} +- {res.stderr!r} is more "
                    f"than {MC_Z_LIMIT} stderr from the Fourier price {ref!r}")
        return None
    if not abs(res.call - ref) <= FOURIER_TOL:
        return f"K={strike}: call {res.call!r} differs from reference {ref!r}"
    p = inputs.args[0]
    forward_value = math.exp(-p.r * EXERCISE) * (p.f0 - strike)
    if not abs(res.call - res.put - forward_value) <= PARITY_TOL:
        return f"K={strike}: put-call parity off by {res.call - res.put - forward_value!r}"
    return None


def load_refs(workload, size):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)["calls"]
    return {"self": {float(k): v for k, v in table[size].get(workload, {}).items()},
            "fourier_ladder": {float(k): v
                               for k, v in table["full"]["fourier_ladder"].items()}}


def layer_metrics(tracer, inputs, results, traced_wall, walls):
    """Per-layer metrics of one traced pass."""
    total, self_s = tracer.layer_times()
    counts = tracer.counts
    node_steps = counts["charfn.node_steps"]
    path_steps = counts["simulate.path_steps"]
    sim_calls = counts["simulate.calls"]
    panels, phi_used = 0, 0.0
    if inputs.engine == "fourier":
        for res in results.values():
            diag = getattr(res, "diagnostics", {})
            panels += diag.get("panels_k1", 0) + diag.get("panels_k2", 0)
            phi_used = max(phi_used, diag.get("phi_used_k1", 0.0),
                           diag.get("phi_used_k2", 0.0))
    return {
        "averaging.s": total.get("averaging", 0.0),
        "averaging.points": counts["averaging.points"],
        "quadrature.calls": counts["quadrature.calls"],
        "charfn.solves": counts["charfn.solves"],
        "charfn.node_steps": node_steps,
        "charfn.self_s": self_s.get("charfn", 0.0),
        "charfn.ns_per_node_step": (1e9 * self_s["charfn"] / node_steps
                                    if node_steps else 0.0),
        "pricer.nodes": PANEL_NODES * panels,
        "pricer.phi_used": phi_used,
        "pricer.self_s": self_s.get("pricer", 0.0),
        "conditions.s": total.get("conditions", 0.0),
        "simulate.s": total.get("simulate", 0.0),
        "simulate.path_steps": path_steps,
        "simulate.ns_per_path_step": (1e9 * total["simulate"] / path_steps
                                      if path_steps else 0.0),
        "simulate.unique_frac": (counts["simulate.unique"] / sim_calls
                                 if sim_calls else 0.0),
        "cli.load_config_s": inputs.load_config_s,
        "trace_overhead_frac": traced_wall / statistics.median(walls) - 1.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    # set-up: import the program and build the inputs; the benchmark's own
    # imports above are not counted
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import powerswap
    inputs = Inputs(args.workload, args.seed, args.size, args.workers)
    setup_s = time.perf_counter() - start
    expected = os.path.join(ROOT, "src", "powerswap")
    if os.path.dirname(os.path.abspath(powerswap.__file__)) != expected:
        raise SystemExit(f"imported powerswap from {powerswap.__file__}, "
                         f"not from {expected}")
    out = {"setup_s": setup_s, "load_config_s": inputs.load_config_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import numpy
    import scipy
    refs = load_refs(args.workload, args.size)
    attempted = failed = 0
    failures: list[str] = []

    def account(results):
        nonlocal attempted, failed
        for strike in inputs.strikes:
            attempted += 1
            reason = check(inputs, strike, results.get(strike), refs)
            if reason is not None:
                failed += 1
                failures.append(reason)

    walls = []
    measured = 0.0
    while not walls or measured < args.seconds:
        wall, results = run_pass(inputs)
        walls.append(wall)
        measured += wall
        account(results)
    out.update(walls=walls, peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    atm = results.get(ATM_STRIKE)
    if inputs.engine == "mc" and not isinstance(atm, Exception):
        out["stderr_atm"] = atm.stderr

    if args.trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
        try:
            traced_wall, results = run_pass(inputs)
        finally:
            tracer.uninstall()
        account(results)
        out["layers"] = layer_metrics(tracer, inputs, results, traced_wall, walls)
        out["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)

    out.update(attempted=attempted, failed=failed, failures=failures[:5],
               versions={"numpy": numpy.__version__, "scipy": scipy.__version__})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
