"""Command-line interface: config ingestion and machine-readable output.

Subcommands
-----------
check       Feller / Novikov condition report for the configured model
decompose   (t, S, xi) curves for the configured model over a time grid
simulate    Monte-Carlo paths as CSV, or a running summary with --summary
price       European swap option price (Fourier, MC, or both)
validate    Fourier-vs-MC cross-check over a small strike ladder
table3      regression of the delivery-averaging factors against stored values

Configuration is a JSON object with sections ``model``, ``heston``,
``delivery``, ``weight``, ``option``, ``grid`` and ``output``.  Every
section is optional; omitted fields fall back to the standard simulation
setup (swap delivering on [0.75, 5/6], Samuelson decay 3.5, strike 30,
exercise 0.5, one hundred thousand paths at two thousand steps per year).
Unknown fields and out-of-range values are rejected with the offending
dotted path in the message, e.g. ``heston.rho: must lie in (-1, 1), got 1.0``.
The valid ranges belong to the library's dataclasses in ``models``.  Every
section is read through one field table, ``_read`` with the field parsers of
``_PARSERS`` (a custom weight's two lists aside): it refuses unknown keys and
checks JSON types, an explicit ``null`` included.  The CLI builds each
dataclass from what it read and reports its ValueError under the field that
the message names.  It adds only the rules that span sections: the
trading-seasonal variant owns theta, a custom weight table covers the
delivery period, the exercise precedes ``delivery.tau1``, and the grid starts
before and ends by ``delivery.tau1``.

``price`` and ``validate`` value the option at ``grid.t0`` with the state
(``heston.f0``, ``heston.nu0``) there, in both engines; ``grid.t0`` must
therefore precede ``option.exercise``.  Both subcommands reach the engines
through one call, ``_prices``.

``delivery.tau1`` and ``delivery.tau2`` accept fraction strings such as
``"5/6"`` so that one-sixth-of-a-year boundaries survive JSON without
decimal truncation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .averaging import d1_d2, decompose, samuelson_variance
from .conditions import full_report
from .models import (
    CustomWeight,
    DeliveryPeriod,
    DeliverySeasonal,
    ExponentialWeight,
    HestonParams,
    OptionSpec,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
    variant_tag,
)
from .pricer import price_fourier_many, price_mc_many
from .simulate import GridSpec, simulate_paths, simulate_summary

STEPS_PER_YEAR = 2000.0
WORKERS_ENV = "POWERSWAP_WORKERS"
# validate's three strikes are priced from one Monte-Carlo sample, so the run
# is held to a family-wise false-alarm rate of 0.27%, the two-sided 3 sigma
# rate, split by Bonferroni over the strikes: a strike fails when
# |z| > Phi^-1(1 - 0.0027 / 6) = 3.32
VALIDATE_Z_MAX = 3.32

# Reference values for the one-month averaging factors: rows are the decay
# rate lam, columns are (d1, variance of the decay factor, d2).
_TABLE3_EXPECTED = {
    1.5: (0.9400, 0.0012, 0.0006),
    3.5: (0.8674, 0.0053, 0.0031),
    5.5: (0.8022, 0.0112, 0.0070),
}

_HESTON_DEFAULTS = {
    "kappa": 3.0,
    "theta": 0.6,
    "sigma_vv": 0.4,
    "rho": -0.3,
    "nu0": 0.6,
    "f0": 30.0,
    "r": 0.01,
}


class ConfigError(ValueError):
    """Raised on unknown fields or out-of-range values; carries the path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require_number(field: str, value: Any) -> float:
    # bool is an int subclass; reject it explicitly so `true` is not 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(field, "must be finite")
    return v


def _require_int(field: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return value


def _parse_tau(field: str, value: Any) -> float:
    """Delivery boundary: a number, or a fraction string like "5/6"."""
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(field, f"not a valid fraction: {value!r}") from None
        except OverflowError:
            raise ConfigError(field, "must be finite") from None
    return _require_number(field, value)


def _require_str(field: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigError(field, f"expected a string, got {value!r}")
    return value


def _parse_format(field: str, value: Any) -> str:
    if value not in ("csv", "json"):
        raise ConfigError(field, f"expected csv or json, got {value!r}")
    return value


# the parser of each field that is not a plain number, by dotted path; every
# other field is read by _require_number
_PARSERS: dict[str, Callable[[str, Any], Any]] = {
    "delivery.tau1": _parse_tau, "delivery.tau2": _parse_tau,
    "grid.n_steps": _require_int, "grid.n_paths": _require_int, "grid.seed": _require_int,
    "output.format": _parse_format, "output.path": _require_str,
}


def _check_keys(section: str, given: dict, allowed: tuple[str, ...]) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError(f"{section}.{key}", "unknown field")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {value!r}")
    return value


@dataclass(frozen=True)
class GridSettings:
    """Grid section with per-subcommand defaults left unresolved.

    ``t_end`` and ``n_steps`` stay None when the config omits them: price
    and simulate default the horizon to the option exercise, and their step
    count follows the horizon at STEPS_PER_YEAR.  decompose defaults to the
    start of delivery and 200 intervals.
    """

    t0: float
    t_end: float | None
    n_steps: int | None
    n_paths: int
    seed: int

    def resolve(self, t_end_default: float) -> GridSpec:
        t_end = self.t_end if self.t_end is not None else t_end_default
        if not self.t0 < t_end:
            raise ConfigError("grid.t0", f"must precede the default grid end {t_end} "
                                         "(the option exercise) when grid.t_end is omitted")
        n_steps = self.n_steps
        if n_steps is None:
            n_steps = max(1, round((t_end - self.t0) * STEPS_PER_YEAR))
        return GridSpec(
            t0=self.t0,
            t_end=t_end,
            n_steps=n_steps,
            n_paths=self.n_paths,
            seed=self.seed,
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration plus its normalized JSON form."""

    params: HestonParams
    vol: Any
    weight: Any
    delivery: DeliveryPeriod
    option: OptionSpec
    grid: GridSettings
    out_format: str | None
    out_path: str | None
    normalized: dict

    def to_json(self) -> str:
        return _render_json(self.normalized)


def _build(section: str, cls: Callable, **fields: Any) -> Any:
    """cls(**fields), with its ValueError reported under the field it names.

    Every validation message of the model dataclasses starts with the
    offending field's name; any other message is reported for the section.
    """
    try:
        return cls(**fields)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name in fields:
            raise ConfigError(f"{section}.{name}", rest) from None
        raise ConfigError(section, str(exc)) from None


def _read(section: str, sec: dict, defaults: dict) -> dict:
    """The fields of ``defaults`` from ``sec``, each read by its parser in ``_PARSERS``.

    A key that is present is parsed whatever its value, so an explicit null
    is refused; an absent key takes its default, and a default of None is
    left None for the subcommand to resolve.
    """
    _check_keys(section, sec, tuple(defaults))
    values = dict.fromkeys(defaults)
    for key, default in defaults.items():
        if key in sec or default is not None:
            field = f"{section}.{key}"
            values[key] = _PARSERS.get(field, _require_number)(field, sec.get(key, default))
    return values


def _parse_variant(raw: dict, section: str, table: dict) -> tuple[Any, dict]:
    """A section whose ``variant`` picks a table entry, the first by default.

    An entry is (dataclass, {field: default}) or a function that reads the
    section itself.
    """
    sec = dict(_section(raw, section))
    variant = sec.pop("variant", next(iter(table)))
    if not isinstance(variant, str):
        raise ConfigError(f"{section}.variant", f"expected a string, got {variant!r}")
    if variant not in table:
        *head, last = table
        raise ConfigError(
            f"{section}.variant",
            f"unknown variant {variant!r}; expected {', '.join(head)} or {last}")
    if callable(table[variant]):
        return table[variant](sec)
    cls, defaults = table[variant]
    values = _read(section, sec, defaults)
    return _build(section, cls, **values), {"variant": variant, **values}


def _parse_custom_weight(sec: dict) -> tuple[CustomWeight, dict]:
    _check_keys("weight", sec, ("u_grid", "values"))
    for key in ("u_grid", "values"):
        if key not in sec:
            raise ConfigError(f"weight.{key}", "required for the custom variant")
        if not isinstance(sec[key], list):
            raise ConfigError(f"weight.{key}", "expected a list of numbers")
    u_grid = [_require_number(f"weight.u_grid[{i}]", v) for i, v in enumerate(sec["u_grid"])]
    values = [_require_number(f"weight.values[{i}]", v) for i, v in enumerate(sec["values"])]
    w = _build("weight", CustomWeight.from_table, u_grid=u_grid, values=values)
    return w, {"variant": "custom", "u_grid": u_grid, "values": values}


# variant -> (dataclass, {field: default}); the dataclass owns each field's range
_MODELS = {
    "samuelson": (Samuelson, {"lam": 3.5}),
    "trading_seasonal": (TradingSeasonal, {"alpha": 0.6, "beta": 0.7, "gamma": 0.2}),
    "delivery_seasonal": (DeliverySeasonal, {"a": 1.0, "b": 0.4, "c": 0.0}),
}
_WEIGHTS = {
    "uniform": (UniformWeight, {}),
    "exponential": (ExponentialWeight, {"rate": 0.0}),
    "custom": _parse_custom_weight,
}


def _parse_heston(raw: dict, vol: Any) -> tuple[HestonParams, dict]:
    sec = _section(raw, "heston")
    defaults = dict(_HESTON_DEFAULTS)
    owned = {}
    if isinstance(vol, TradingSeasonal):
        if "theta" in sec:
            raise ConfigError(
                "heston.theta",
                "set by the trading_seasonal variant; remove it from the heston section",
            )
        del defaults["theta"]
        owned["theta"] = vol.theta
    values = _read("heston", sec, defaults)
    return _build("heston", HestonParams, **values, **owned), values


def _parse_delivery(raw: dict) -> tuple[DeliveryPeriod, dict]:
    sec = _section(raw, "delivery")
    defaults = {"tau1": 0.75, "tau2": "5/6"}
    dp = _build("delivery", DeliveryPeriod, **_read("delivery", sec, defaults))
    # fraction strings are kept as given so that they round-trip exactly
    return dp, {key: sec.get(key, default) for key, default in defaults.items()}


def _parse_option(raw: dict, dp: DeliveryPeriod) -> tuple[OptionSpec, dict]:
    values = _read("option", _section(raw, "option"), {"strike": 30.0, "exercise": 0.5})
    option = _build("option", OptionSpec, **values)
    if not option.exercise < dp.tau1:
        raise ConfigError("option.exercise", "must precede delivery.tau1")
    return option, values


def _parse_grid(raw: dict, dp: DeliveryPeriod) -> tuple[GridSettings, dict]:
    values = _read("grid", _section(raw, "grid"),
                   {"t0": 0.0, "t_end": None, "n_steps": None, "n_paths": 100_000, "seed": 42})
    t_end, n_steps = values["t_end"], values["n_steps"]
    if not values["t0"] < dp.tau1:
        raise ConfigError("grid.t0", "must precede delivery.tau1")
    if t_end is not None and t_end > dp.tau1:
        raise ConfigError("grid.t_end", "must not exceed delivery.tau1")
    # GridSpec owns the ranges; an omitted t_end or n_steps is checked as tau1 or 1
    _build("grid", GridSpec, **{**values, "t_end": dp.tau1 if t_end is None else t_end,
                                "n_steps": 1 if n_steps is None else n_steps})
    return GridSettings(**values), _given(values)


def _given(values: dict) -> dict:
    """The normalized form of a section: its fields that are not None."""
    return {key: value for key, value in values.items() if value is not None}


def _read_config_file(path: Any) -> dict:
    """The top-level JSON object of a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # also an integer literal beyond the digit limit
            raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    return raw


def load_config(source: Any = None) -> RunConfig:
    """Build a RunConfig from a dict, a JSON file path, or nothing.

    Raises ConfigError (a ValueError) for unknown sections or fields,
    type mismatches and out-of-range values, always naming the dotted
    field path.  Loading the normalized form back produces an identical
    configuration, which is what makes runs reproducible byte for byte.
    """
    if source is None:
        raw = {}
    elif isinstance(source, dict):
        raw = source
    else:
        raw = _read_config_file(source)
    known = ("model", "heston", "delivery", "weight", "option", "grid", "output")
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown section")

    if _section(raw, "model").get("variant") == "general_separable":
        raise ConfigError(
            "model.variant",
            "general_separable needs a callable shape and is only available "
            "through the library API",
        )
    vol, model_norm = _parse_variant(raw, "model", _MODELS)
    params, heston_norm = _parse_heston(raw, vol)
    dp, delivery_norm = _parse_delivery(raw)
    weight, weight_norm = _parse_variant(raw, "weight", _WEIGHTS)
    if weight_norm["variant"] == "custom":
        u_grid = weight_norm["u_grid"]
        if not (u_grid[0] <= dp.tau1 and dp.tau2 <= u_grid[-1]):
            raise ConfigError("weight.u_grid",
                              f"must cover the delivery period [{dp.tau1}, {dp.tau2}], "
                              f"got [{u_grid[0]}, {u_grid[-1]}]")
    option, option_norm = _parse_option(raw, dp)
    grid, grid_norm = _parse_grid(raw, dp)
    output = _read("output", _section(raw, "output"), {"format": None, "path": None})
    output_norm = _given(output)

    normalized = {
        "model": model_norm,
        "heston": heston_norm,
        "delivery": delivery_norm,
        "weight": weight_norm,
        "option": option_norm,
        "grid": grid_norm,
    }
    if output_norm:
        normalized["output"] = output_norm
    return RunConfig(
        params=params,
        vol=vol,
        weight=weight,
        delivery=dp,
        option=option,
        grid=grid,
        out_format=output["format"],
        out_path=output["path"],
        normalized=normalized,
    )


# ---------------------------------------------------------------------------
# output plumbing


def _g17(x: float) -> str:
    # an artifact never needs NaN or Infinity (undefined values are null), so
    # one is a numerical failure: exit 2, and nothing is written
    if not math.isfinite(x):
        raise FloatingPointError(f"non-finite number in the artifact: {x}")
    return format(float(x), ".17g")


def _render_csv(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_g17(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _render_json(obj: Any) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:  # NaN or Infinity, as in _g17
        raise FloatingPointError("non-finite number in the artifact") from None


def _render_rows(fmt: str, rows: list[dict], **meta: Any) -> str:
    """Rows that share their keys: CSV with the keys as header, or JSON {**meta, "rows": rows}."""
    if fmt == "csv":
        return _render_csv(list(rows[0]), [list(r.values()) for r in rows])
    return _render_json({**meta, "rows": rows})


def _render_columns(fmt: str, columns: dict, **meta: Any) -> str:
    """Equal-length float columns: CSV one row per index, or JSON {**meta, name: list}.

    A None column is undefined throughout: JSON null, and empty CSV cells.
    A 2-D column, one row per path, is JSON only: a list of rows.
    """
    columns = {name: None if col is None else np.asarray(col, dtype=float).tolist()
               for name, col in columns.items()}
    if fmt == "csv":
        n_rows = max(len(col) for col in columns.values() if col is not None)
        cells = [[""] * n_rows if col is None else col for col in columns.values()]
        return _render_csv(list(columns), [list(row) for row in zip(*cells)])
    return _render_json({**meta, **columns})


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _novikov_lhs_json(value: float) -> Any:
    # strict JSON has no Infinity literal; the unconditional case (no
    # size restriction at all) is spelled out instead, in CSV as well
    return "unconditional" if math.isinf(value) else value


def _prices(cfg: RunConfig, args: argparse.Namespace, strikes: list[float],
            methods: tuple[str, ...]) -> dict[str, list]:
    """{method: one PriceResult per strike}, valued at grid.t0 by each engine.

    Every input is checked before any engine runs, so a bad Monte-Carlo grid
    costs no Fourier price.
    """
    t0, exercise = cfg.grid.t0, cfg.option.exercise
    if not t0 < exercise:
        raise ConfigError("grid.t0", f"the valuation time must precede option.exercise "
                                     f"{exercise}, got {t0}")
    if "mc" in methods:
        # the Monte-Carlo grid starts at the valuation time and ends at the exercise
        if cfg.grid.t_end is not None and cfg.grid.t_end != exercise:
            raise ConfigError(
                "grid.t_end",
                f"must equal option.exercise {exercise} for Monte-Carlo "
                f"pricing, got {cfg.grid.t_end}")
        g = cfg.grid.resolve(t_end_default=exercise)
        workers = _resolve_workers(args)
    model = (cfg.params, cfg.vol, cfg.weight, cfg.delivery)
    results = {}
    if "fourier" in methods:
        results["fourier"] = price_fourier_many(*model, strikes, exercise, t=t0)
    if "mc" in methods:
        results["mc"] = price_mc_many(*model, strikes, exercise, g, workers=workers)
    return results


# ---------------------------------------------------------------------------
# subcommands: each returns (artifact text, exit code) in the format given


def _cmd_check(cfg: RunConfig, args: argparse.Namespace, fmt: str) -> tuple[str, int]:
    report = full_report(cfg.params, cfg.vol, cfg.delivery)
    conditions = {
        "feller": {"ok": report.feller_ok, "lhs": report.feller_lhs, "rhs": report.feller_rhs},
        "novikov": {"ok": report.novikov_ok, "lhs": _novikov_lhs_json(report.novikov_lhs),
                    "rhs": report.novikov_rhs},
    }
    if fmt == "json":
        text = _render_json({"model": report.model_tag, **conditions, "notes": list(report.notes)})
    else:
        flat = {f"{name}_{key}": value
                for name, fields in conditions.items() for key, value in fields.items()}
        text = _render_rows(fmt, [{"model": report.model_tag, **flat}])
    # a failed condition is a finding, not an error: the report is the artifact
    return text, 0


def _cmd_decompose(cfg: RunConfig, args: argparse.Namespace, fmt: str) -> tuple[str, int]:
    dec = decompose(cfg.vol, cfg.weight, cfg.delivery)
    t0 = cfg.grid.t0
    t_end = cfg.grid.t_end if cfg.grid.t_end is not None else cfg.delivery.tau1
    n = cfg.grid.n_steps if cfg.grid.n_steps is not None else 200
    times = np.linspace(t0, t_end, n + 1)
    columns = {"t": times, "big_s": np.asarray(dec.big_s(times), dtype=float),
               "xi": np.asarray(dec.xi(times), dtype=float)}
    return _render_columns(fmt, columns, model=variant_tag(cfg.vol)), 0


def _cmd_simulate(cfg: RunConfig, args: argparse.Namespace, fmt: str) -> tuple[str, int]:
    g = cfg.grid.resolve(t_end_default=cfg.option.exercise)
    workers = _resolve_workers(args)
    if args.summary:
        stats = simulate_summary(cfg.params, cfg.vol, cfg.weight, cfg.delivery, g, workers=workers)
        columns = {"t": stats.times, "mean_F": stats.mean_f, "stderr_F": stats.stderr_f,
                   "mean_nu": stats.mean_nu}
        return _render_columns(fmt, columns), 0
    paths = simulate_paths(cfg.params, cfg.vol, cfg.weight, cfg.delivery, g, workers=workers)
    if fmt == "csv":
        columns = {"path_id": np.repeat(np.arange(g.n_paths), paths.times.size),
                   "t": np.tile(paths.times, g.n_paths), "X": paths.x_paths.ravel(),
                   "nu": paths.nu_paths.ravel(), "F": paths.f_paths.ravel()}
    else:
        columns = {"t": paths.times, "X": paths.x_paths, "nu": paths.nu_paths,
                   "F": paths.f_paths}
    return _render_columns(fmt, columns), 0


def _cmd_price(cfg: RunConfig, args: argparse.Namespace, fmt: str) -> tuple[str, int]:
    methods = ("fourier", "mc") if args.method == "both" else (args.method,)
    results = {name: res[0] for name, res in
               _prices(cfg, args, [cfg.option.strike], methods).items()}
    if fmt == "json":
        payload = {name: asdict(res) for name, res in results.items()}
        return _render_json(payload if args.method == "both" else payload[args.method]), 0
    # a None stderr is an empty CSV cell
    rows = [{key: getattr(res, key) for key in ("method", "call", "put", "q1", "q2", "stderr")}
            for res in results.values()]
    return _render_rows(fmt, rows), 0


def _cmd_validate(cfg: RunConfig, args: argparse.Namespace, fmt: str) -> tuple[str, int]:
    k0 = cfg.option.strike
    strikes = [0.8 * k0, k0, 1.2 * k0]
    results = _prices(cfg, args, strikes, ("fourier", "mc"))
    rows = []
    all_ok = True
    for k, fr, mc in zip(strikes, results["fourier"], results["mc"]):
        if mc.stderr is not None and mc.stderr > 0:
            z = float((fr.call - mc.call) / mc.stderr)
            ok = bool(abs(z) <= VALIDATE_Z_MAX)
        else:
            # no sampling spread to scale by (a zero or, with one path, an
            # undefined stderr): the calls must agree to the pricer's own
            # negative-price slack; z is null when they do not
            ok = bool(abs(fr.call - mc.call) <= 1e-10 * max(1.0, k))
            z = 0.0 if ok else None
        all_ok = all_ok and ok
        rows.append(
            {
                "strike": float(k),
                "fourier_call": float(fr.call),
                "mc_call": float(mc.call),
                "mc_stderr": None if mc.stderr is None else float(mc.stderr),
                "z": z,
                "ok": ok,
            }
        )
    diag = results["mc"][0].diagnostics
    text = _render_rows(fmt, rows, model=variant_tag(cfg.vol), n_paths=diag["n_paths"],
                        n_steps=diag["n_steps"], seed=diag["seed"], ok=all_ok)
    return text, 0 if all_ok else 2


def _cmd_table3(cfg: RunConfig, args: argparse.Namespace, fmt: str) -> tuple[str, int]:
    # the averaging factors depend on the window length only; one month here
    dp = DeliveryPeriod(tau1=0.75, tau2=0.75 + 1.0 / 12.0)
    rows = []
    all_ok = True
    for lam, (e_d1, e_var, e_d2) in _TABLE3_EXPECTED.items():
        d1, d2 = d1_d2(lam, dp.delta)
        var = samuelson_variance(lam, dp)
        for name, computed, expected in (("d1", d1, e_d1), ("variance", var, e_var), ("d2", d2, e_d2)):
            computed = float(computed)
            ok = bool(round(computed, 4) == expected)
            all_ok = all_ok and ok
            rows.append({"lam": lam, "quantity": name, "computed": computed, "expected": expected, "ok": ok})
    return _render_rows(fmt, rows, ok=all_ok), 0 if all_ok else 2


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _resolve_workers(args: argparse.Namespace) -> int:
    if args.workers is not None:
        workers = args.workers
    else:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            workers = 1
        else:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(WORKERS_ENV, f"expected an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigError("workers", "must be at least 1")
    return workers


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="path to a JSON configuration file")
    sp.add_argument("--seed", type=int, help="override grid.seed")
    sp.add_argument("--paths", type=int, help="override grid.n_paths")
    sp.add_argument("--steps", type=int, help="override grid.n_steps")
    sp.add_argument("--out", help="write the artifact to a file instead of stdout")
    sp.add_argument("--format", choices=("csv", "json"), help="artifact format")
    sp.add_argument("--workers", type=int, help=f"worker threads (default ${WORKERS_ENV} or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerswap",
        description="Electricity swap and swap-option pricing under stochastic volatility.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, help_text in (
        ("check", "report the Feller and Novikov conditions"),
        ("decompose", "emit the (t, S, xi) volatility decomposition"),
        ("simulate", "run the Monte-Carlo engine and emit paths or a summary"),
        ("price", "price the configured option"),
        ("validate", "cross-check Fourier prices against Monte-Carlo"),
        ("table3", "recompute the stored averaging-factor regression values"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "simulate":
            sp.add_argument("--summary", action="store_true", help="emit per-time summary statistics")
        if name == "price":
            sp.add_argument("--method", choices=("fourier", "mc", "both"), default="fourier")
    return parser


# subcommand -> (command, default artifact format)
_DISPATCH: dict[str, tuple[Callable[[RunConfig, argparse.Namespace, str], tuple[str, int]], str]] = {
    "check": (_cmd_check, "json"),
    "decompose": (_cmd_decompose, "csv"),
    "simulate": (_cmd_simulate, "csv"),
    "price": (_cmd_price, "json"),
    "validate": (_cmd_validate, "csv"),
    "table3": (_cmd_table3, "csv"),
}


def _load_with_overrides(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raw: dict = {}
    else:
        raw = {k: (dict(v) if isinstance(v, dict) else v)
               for k, v in _read_config_file(args.config).items()}
    if args.seed is not None:
        raw.setdefault("grid", {})["seed"] = args.seed
    if args.paths is not None:
        raw.setdefault("grid", {})["n_paths"] = args.paths
    if args.steps is not None:
        raw.setdefault("grid", {})["n_steps"] = args.steps
    return load_config(raw)


def _emit_error(code: int, exc: BaseException) -> None:
    body = {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(body) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_with_overrides(args)
        command, default_format = _DISPATCH[args.cmd]
        text, code = command(cfg, args, args.format or cfg.out_format or default_format)
        _emit(text, args.out or cfg.out_path)
        return code
    except (ValueError, OSError) as exc:
        # bad input, not a numerical fault: ConfigError, an unreadable config
        # file or an unwritable --out
        _emit_error(1, exc)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        _emit_error(2, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
