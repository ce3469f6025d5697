"""CLI tests drive main() in-process; one test goes through a subprocess
to confirm the console-script wiring."""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from powerswap import cli
from powerswap.averaging import SwapVolDecomposition
from powerswap.cli import ConfigError, load_config, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config loading


def test_defaults():
    cfg = load_config()
    assert cfg.params.f0 == 30.0
    assert cfg.params.kappa == 3.0
    assert cfg.delivery.tau1 == 0.75
    assert cfg.delivery.tau2 == pytest.approx(5.0 / 6.0, rel=1e-16)
    assert cfg.option.strike == 30.0
    assert cfg.option.exercise == 0.5
    assert cfg.grid.n_paths == 100_000
    assert cfg.grid.seed == 42
    from powerswap.models import Samuelson

    assert isinstance(cfg.vol, Samuelson)
    assert cfg.vol.lam == 3.5


def test_fraction_strings_parse_exactly():
    cfg = load_config({"delivery": {"tau1": "3/4", "tau2": "5/6"}})
    assert cfg.delivery.tau1 == 0.75
    assert cfg.delivery.tau2 == 5.0 / 6.0


_HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("config, field", [
    ('{"heston": {"kappa": %s}}' % _HUGE, "heston.kappa"),
    ('{"weight": {"variant": "custom", "u_grid": [0, %s], "values": [1, 1]}}' % _HUGE,
     "weight.u_grid[1]"),
    ('{"delivery": {"tau2": "1e400"}}', "delivery.tau2"),
], ids=["number", "list-entry", "fraction"])
def test_numbers_beyond_the_float_range_are_config_errors(capsys, tmp_path, config, field):
    with pytest.raises(ConfigError, match=re.escape(f"{field}: must be finite")):
        load_config(json.loads(config))
    path = tmp_path / "huge.json"
    path.write_text(config)
    code, out, err = run_cli(capsys, ["check", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {"code": 1, "type": "ConfigError",
                                        "message": f"{field}: must be finite"}


def test_integers_beyond_the_digit_limit_are_config_errors(capsys, tmp_path):
    # str() of an int with more than 4300 digits raises, so neither the
    # message nor the JSON reader may format one
    with pytest.raises(ConfigError, match=r"^grid\.n_paths: must be a positive integer$"):
        load_config({"grid": {"n_paths": -10 ** 5000}})
    path = tmp_path / "digits.json"
    path.write_text('{"grid": {"n_paths": %s}}' % ("1" * 5000))
    code, out, err = run_cli(capsys, ["check", "--config", str(path)])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("<config>: invalid JSON: ")


def test_unknown_section_and_field_rejected():
    with pytest.raises(ConfigError, match="bogus: unknown section"):
        load_config({"bogus": {}})
    with pytest.raises(ConfigError, match="heston.bogus: unknown field"):
        load_config({"heston": {"bogus": 1.0}})
    with pytest.raises(ConfigError, match="model.lam"):
        load_config({"model": {"variant": "samuelson", "lam": -1.0}})
    with pytest.raises(ConfigError, match="heston.rho"):
        load_config({"heston": {"rho": -1.5}})
    with pytest.raises(ConfigError, match="grid.seed"):
        load_config({"grid": {"seed": -3}})
    with pytest.raises(ConfigError, match="option.exercise"):
        load_config({"option": {"exercise": 0.8}})
    with pytest.raises(ConfigError, match="delivery.tau1: must be positive"):
        load_config({"delivery": {"tau1": 0}})


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = load_config(json.loads(blocks[0]))
    assert cfg.normalized["weight"] == {"variant": "uniform"}


def test_trading_seasonal_owns_theta():
    with pytest.raises(ConfigError, match="heston.theta"):
        load_config({"model": {"variant": "trading_seasonal"}, "heston": {"theta": 0.5}})
    cfg = load_config({"model": {"variant": "trading_seasonal"}})
    assert callable(cfg.params.theta)


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match="heston.kappa"):
        load_config({"heston": {"kappa": True}})


# (section, field, extra config, out-of-range value); the extra config picks
# the variant that owns the field
_BAD_FIELDS = [
    ("model", "lam", {"variant": "samuelson"}, -1.0),
    ("model", "alpha", {"variant": "trading_seasonal"}, 0.0),
    ("model", "beta", {"variant": "trading_seasonal"}, -0.7),
    ("model", "gamma", {"variant": "trading_seasonal"}, 1.5),
    ("model", "a", {"variant": "delivery_seasonal"}, 0.3),
    ("model", "b", {"variant": "delivery_seasonal"}, -0.4),
    ("model", "b", {"variant": "delivery_seasonal"}, 0.0),
    ("model", "c", {"variant": "delivery_seasonal"}, 1.0),
    ("heston", "kappa", {}, 0.0),
    ("heston", "theta", {}, -0.6),
    ("heston", "sigma_vv", {}, -0.4),
    ("heston", "rho", {}, 1.0),
    ("heston", "nu0", {}, 0.0),
    ("heston", "f0", {}, -30.0),
    ("heston", "r", {}, -0.01),
    ("delivery", "tau1", {}, 0.0),
    ("delivery", "tau2", {}, 0.7),
    ("delivery", "tau2", {}, "3/4"),
    ("weight", "rate", {"variant": "exponential"}, float("inf")),
    ("option", "strike", {}, 0.0),
    ("option", "exercise", {}, -0.5),
    ("option", "exercise", {}, 0.75),
    ("grid", "t0", {}, -0.1),
    ("grid", "t_end", {"t0": 0.3}, 0.2),
    ("grid", "n_steps", {}, 0),
    ("grid", "n_paths", {}, 0),
    ("grid", "seed", {}, 2**64),
]


@pytest.mark.parametrize("section, field, extra, value", _BAD_FIELDS,
                         ids=[f"{s}.{f}={v}" for s, f, _, v in _BAD_FIELDS])
def test_out_of_range_field_is_named(section, field, extra, value):
    with pytest.raises(ConfigError) as info:
        load_config({section: {**extra, field: value}})
    assert info.value.field == f"{section}.{field}"
    assert str(info.value).startswith(f"{section}.{field}: ")


def test_range_message_is_the_library_message():
    with pytest.raises(ConfigError, match=r"^heston\.rho: must lie in \(-1, 1\), got 1\.0$"):
        load_config({"heston": {"rho": 1.0}})
    with pytest.raises(ConfigError, match=r"^weight: weight table values must be positive$"):
        load_config({"weight": {"variant": "custom", "u_grid": [0.75, 0.9], "values": [1.0, 0.0]}})


def test_normalized_round_trip():
    custom = {"variant": "custom", "u_grid": [0.75, 0.8, 5.0 / 6.0], "values": [1.0, 2.0, 1.5]}
    for model in ("samuelson", "trading_seasonal", "delivery_seasonal"):
        for weight in ({"variant": "uniform"}, {"variant": "exponential", "rate": 0.5}, custom):
            cfg = load_config({"model": {"variant": model}, "weight": weight, "grid": {"seed": 9}})
            again = load_config(json.loads(cfg.to_json()))
            assert cfg.normalized == again.normalized
            assert cfg.to_json() == again.to_json()
            assert (cfg.vol, cfg.delivery, cfg.option, cfg.grid) == (
                again.vol, again.delivery, again.option, again.grid)


def test_general_separable_rejected_in_config():
    with pytest.raises(ConfigError, match="library API"):
        load_config({"model": {"variant": "general_separable"}})


# ---------------------------------------------------------------------------
# subcommands


def test_table3_all_rows_ok(capsys):
    code, out, err = run_cli(capsys, ["table3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lam,quantity,computed,expected,ok"
    assert len(lines) == 10
    assert all(line.endswith("True") for line in lines[1:])


def test_table3_json(capsys):
    code, out, _ = run_cli(capsys, ["table3", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["rows"]) == 9


def test_check_reports_conditions(capsys):
    code, out, _ = run_cli(capsys, ["check"])
    payload = json.loads(out)
    assert code == 0
    assert payload["model"] == "samuelson"
    assert payload["feller"]["ok"] is True
    assert payload["novikov"]["ok"] is True


def test_check_unconditional_is_json_safe(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"variant": "trading_seasonal"}}))
    code, out, _ = run_cli(capsys, ["check", "--config", str(cfg)])
    payload = json.loads(out)
    assert code == 0
    assert payload["novikov"]["lhs"] == "unconditional"


def test_decompose_default_grid(capsys):
    code, out, _ = run_cli(capsys, ["decompose"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,big_s,xi"
    assert len(lines) == 202  # 201 grid points up to the delivery start
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.75)
    # at the delivery start the factor is the one-month d1 decay value
    assert float(last[1]) == pytest.approx(0.86736857036423121, rel=1e-12)


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--steps", "4", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["model"] == "samuelson"
    assert len(payload["t"]) == 5
    assert payload["big_s"][-1] == pytest.approx(0.86736857036423121, rel=1e-12)


@pytest.mark.parametrize("rate", [-1000.0, 1000.0])
def test_decompose_steep_exponential_weight(capsys, tmp_path, rate):
    # e^{-rate u} under- or overflows on this delivery period; its density does not
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps({"weight": {"variant": "exponential", "rate": rate}}))
    code, out, err = run_cli(capsys, ["decompose", "--steps", "4", "--format", "json",
                                      "--config", str(cfg)])
    assert code == 0, err
    payload = _strict_json(out)
    assert all(np.isfinite(payload["big_s"])) and all(np.isfinite(payload["xi"]))
    assert min(payload["xi"]) >= 0.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_artifact_is_a_numerical_failure(capsys, monkeypatch, tmp_path, fmt):
    nan_curves = SwapVolDecomposition(big_s=lambda t: np.full(np.shape(t), np.nan),
                                      xi=lambda t: np.zeros(np.shape(t)))
    monkeypatch.setattr(cli, "decompose", lambda *args: nan_curves)
    target = tmp_path / "out.txt"
    for out_args in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, ["decompose", "--steps", "4", "--format", fmt,
                                          *out_args])
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == 2 and "non-finite" in error["message"]
    assert not target.exists()


def test_price_json_fields(capsys):
    code, out, _ = run_cli(capsys, ["price"])
    payload = json.loads(out)
    assert code == 0
    for field in ("call", "put", "q1", "q2", "method", "stderr", "diagnostics"):
        assert field in payload
    assert payload["method"] == "fourier"
    assert payload["call"] == pytest.approx(1.2354524073816033, rel=1e-10)


def test_price_mc_and_overrides(capsys):
    code, out, _ = run_cli(
        capsys, ["price", "--method", "mc", "--paths", "2000", "--steps", "50", "--seed", "3"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "mc"
    assert payload["diagnostics"]["n_paths"] == 2000
    assert payload["diagnostics"]["n_steps"] == 50
    assert payload["diagnostics"]["seed"] == 3
    assert payload["stderr"] > 0


def test_price_both(capsys):
    code, out, _ = run_cli(
        capsys, ["price", "--method", "both", "--paths", "2000", "--steps", "50"]
    )
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"fourier", "mc"}
    assert abs(payload["fourier"]["call"] - payload["mc"]["call"]) < 10 * payload["mc"]["stderr"]


def test_simulate_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "--paths", "3", "--steps", "4", "--seed", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "path_id,t,X,nu,F"
    assert len(lines) == 1 + 3 * 5


def test_simulate_summary(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "--summary", "--paths", "400", "--steps", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,mean_F,stderr_F,mean_nu"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(30.0, rel=1e-12)


def test_simulate_summary_one_path_has_no_stderr(capsys):
    argv = ["simulate", "--summary", "--paths", "1", "--steps", "5"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["stderr_F"] is None
    assert len(payload["t"]) == len(payload["mean_F"]) == 6
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 6
    assert [row[2] for row in rows] == [""] * 6


def test_simulate_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, ["simulate", "--paths", "5", "--steps", "6", "--seed", "2"])
    _, out2, _ = run_cli(capsys, ["simulate", "--paths", "5", "--steps", "6", "--seed", "2"])
    assert out1 == out2


def test_config_round_trip_is_byte_identical(capsys, tmp_path):
    src = tmp_path / "cfg.json"
    src.write_text(
        json.dumps(
            {
                "model": {"variant": "delivery_seasonal", "a": 1.0, "b": 0.4, "c": 0.0},
                "delivery": {"tau2": "5/6"},
                "grid": {"n_paths": 50, "seed": 31},
            }
        )
    )
    cfg = load_config(str(src))
    rt = tmp_path / "rt.json"
    rt.write_text(cfg.to_json())
    _, out1, _ = run_cli(capsys, ["simulate", "--config", str(src), "--steps", "5"])
    _, out2, _ = run_cli(capsys, ["simulate", "--config", str(rt), "--steps", "5"])
    assert out1 == out2
    _, p1, _ = run_cli(capsys, ["price", "--config", str(src)])
    _, p2, _ = run_cli(capsys, ["price", "--config", str(rt)])
    assert p1 == p2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, ["table3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("lam,quantity")


def test_validate_small(capsys):
    code, out, _ = run_cli(
        capsys, ["validate", "--paths", "20000", "--steps", "100", "--seed", "6", "--workers", "2"]
    )
    lines = out.strip().splitlines()
    assert lines[0] == "strike,fourier_call,mc_call,mc_stderr,z,ok"
    assert len(lines) == 4
    assert code == 0
    strikes = [float(line.split(",")[0]) for line in lines[1:]]
    assert strikes == [24.0, 30.0, 36.0]


def test_validate_threshold_is_bonferroni_over_three_strikes():
    from statistics import NormalDist

    from powerswap.cli import VALIDATE_Z_MAX

    assert VALIDATE_Z_MAX == pytest.approx(NormalDist().inv_cdf(1.0 - 0.0027 / 6), abs=1e-3)


def test_validate_seed_1_passes(capsys):
    # the three strikes share one sample, so their z-scores move together;
    # each must stay inside the family-wise bound
    code, _, _ = run_cli(capsys, ["validate", "--paths", "20000", "--steps", "100",
                                  "--seed", "1", "--workers", "1", "--format", "json"])
    assert code == 0


def test_validate_at_a_later_valuation_time(capsys, tmp_path):
    # both engines value at grid.t0 from (f0, nu0); a Fourier leg valued at
    # t = 0 instead disagrees with MC by z > 5 on this config
    cfg = tmp_path / "t0.json"
    cfg.write_text('{"grid": {"t0": 0.2, "n_paths": 20000, "n_steps": 100, "seed": 3}}')
    code, out, _ = run_cli(capsys, ["validate", "--config", str(cfg), "--format", "json"])
    assert code == 0
    assert [abs(r["z"]) <= 3.0 for r in json.loads(out)["rows"]] == [True] * 3


def test_price_fourier_values_at_grid_t0(capsys, tmp_path):
    from powerswap.pricer import price_fourier

    cfg = tmp_path / "t0.json"
    cfg.write_text('{"grid": {"t0": 0.2}}')
    code, out, _ = run_cli(capsys, ["price", "--config", str(cfg), "--method", "fourier",
                                    "--format", "json"])
    assert code == 0
    c = load_config(str(cfg))
    expected = price_fourier(c.params, c.vol, c.weight, c.delivery, c.option, t=0.2)
    assert json.loads(out)["call"] == expected.call


@pytest.mark.parametrize("config, warns", [
    ('{"grid": {"t0": 0.4995}}', []),
    ('{"heston": {"kappa": 1.5, "theta": 0.3, "sigma_vv": 1.5, "rho": -0.5, "nu0": 0.3}}',
     ["Novikov condition fails (18 <= 26.449); the measure change is not guaranteed"]),
], ids=["near-exercise", "feller"])
def test_price_fourier_slow_decay(capsys, tmp_path, config, warns):
    # the Fourier integrand decays slowly here: it truncates at phi = 1034
    # and 640
    cfg = tmp_path / "slow.json"
    cfg.write_text(config)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, ["price", "--config", str(cfg), "--method", "fourier",
                                        "--format", "json"])
    assert [str(w.message) for w in record] == warns
    assert code == 0
    payload = json.loads(out)
    assert np.isfinite([payload["call"], payload["put"]]).all()
    assert payload["diagnostics"]["phi_used_k1"] > 600.0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_validate_zero_stderr_agreeing(capsys, tmp_path):
    # far out of the money both engines price exactly 0, with no MC spread:
    # every path's conditional Black-76 price underflows to 0 here
    cfg = tmp_path / "otm.json"
    cfg.write_text('{"option": {"strike": 1e6}}')
    code, out, _ = run_cli(capsys, ["validate", "--config", str(cfg), "--paths", "500",
                                    "--steps", "20", "--format", "json"])
    assert code == 0
    rows = _strict_json(out)["rows"]
    assert [(r["strike"], r["mc_stderr"], r["z"], r["ok"]) for r in rows] == [
        (8e5, 0.0, 0.0, True), (1e6, 0.0, 0.0, True), (1.2e6, 0.0, 0.0, True)]


def test_validate_zero_stderr_disagreeing_is_strict_json(capsys):
    # one path has no spread either, but its calls disagree with Fourier
    code, out, _ = run_cli(capsys, ["validate", "--paths", "1", "--steps", "20",
                                    "--format", "json"])
    assert code == 2
    payload = _strict_json(out)
    assert payload["ok"] is False
    assert [(r["mc_stderr"], r["z"], r["ok"]) for r in payload["rows"]] == [
        (None, None, False)] * 3


def test_error_paths(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"heston": {"bogus": 1}}')
    code, out, err = run_cli(capsys, ["check", "--config", str(bad)])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == 1
    assert "heston.bogus" in payload["error"]["message"]

    notjson = tmp_path / "broken.json"
    notjson.write_text("{nope")
    code, _, err = run_cli(capsys, ["check", "--config", str(notjson)])
    assert code == 1
    assert "invalid JSON" in json.loads(err)["error"]["message"]

    # a config file that cannot be read and an --out that cannot be written
    for argv, error_type in [
        (["check", "--config", str(tmp_path / "missing.json")], "FileNotFoundError"),
        (["check", "--config", str(tmp_path)], "IsADirectoryError"),
        (["table3", "--out", str(tmp_path / "no" / "such" / "x.csv")], "FileNotFoundError"),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"]["code"] == 1
        assert payload["error"]["type"] == error_type


def test_grid_end_past_delivery_start_rejected(capsys, tmp_path):
    cfg = tmp_path / "late.json"
    cfg.write_text('{"grid": {"t_end": 0.9, "n_steps": 3}}')
    code, out, err = run_cli(capsys, ["decompose", "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert "grid.t_end" in json.loads(err)["error"]["message"]


_SHORT_TABLE = {"weight": {"variant": "custom", "u_grid": [0.76, 0.8], "values": [1, 2]}}


@pytest.mark.parametrize("argv, config, field", [
    (["decompose"], {"grid": {"t0": 0.8}}, "grid.t0"),
    (["simulate"], {"grid": {"t0": 0.5}}, "grid.t0"),
    (["price", "--method", "mc"], {"grid": {"t0": 0.6}}, "grid.t0"),
    (["validate"], {"grid": {"t0": 0.5}}, "grid.t0"),
    (["price", "--method", "mc"], {"grid": {"t_end": 0.6}}, "grid.t_end"),
    (["price", "--method", "both"], {"grid": {"t_end": 0.4}}, "grid.t_end"),
    (["validate"], {"grid": {"t_end": 0.6}}, "grid.t_end"),
    (["price"], {"option": {"exercise": 0.75}}, "option.exercise"),
    (["price"], {"grid": {"t0": 0.6}}, "grid.t0"),
    # counts beyond the largest numpy array
    (["check"], {"grid": {"n_paths": 10 ** 400, "n_steps": 2}}, "grid.n_paths"),
    (["decompose"], {"grid": {"n_steps": 10 ** 400}}, "grid.n_steps"),
    (["check"], {"grid": {"n_steps": 2 ** 63 - 1}}, "grid.n_steps"),
    # a weight table that starts inside the delivery period [0.75, 5/6]
    (["check"], _SHORT_TABLE, "weight.u_grid"),
    (["price"], _SHORT_TABLE, "weight.u_grid"),
], ids=["decompose-t0", "simulate-t0", "mc-t0", "validate-t0", "mc-t_end", "both-t_end",
        "validate-t_end", "price-exercise", "fourier-t0", "check-huge-n_paths",
        "decompose-huge-n_steps", "check-n_steps-grid-overflow", "check-short-weight-table",
        "price-short-weight-table"])
def test_grid_and_exercise_errors_name_the_field(capsys, tmp_path, argv, config, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    paths = [] if "n_paths" in config.get("grid", {}) else ["--paths", "10"]
    code, out, err = run_cli(capsys, [*argv, "--config", str(path), *paths])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["message"].startswith(f"{field}: ")


def test_workers_env_var(capsys, monkeypatch):
    monkeypatch.setenv("POWERSWAP_WORKERS", "2")
    _, out_env, _ = run_cli(capsys, ["simulate", "--paths", "10", "--steps", "4", "--seed", "4"])
    monkeypatch.delenv("POWERSWAP_WORKERS")
    _, out_one, _ = run_cli(capsys, ["simulate", "--paths", "10", "--steps", "4", "--seed", "4"])
    assert out_env == out_one

    monkeypatch.setenv("POWERSWAP_WORKERS", "zero?")
    code, _, err = run_cli(capsys, ["simulate", "--paths", "10", "--steps", "4"])
    assert code == 1
    assert "POWERSWAP_WORKERS" in json.loads(err)["error"]["message"]


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "powerswap.cli", "table3", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
