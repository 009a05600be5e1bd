import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wdrc
from wdrc.cli import main
from wdrc.serialize import (
    bound_from_dict,
    bound_to_dict,
    bundle_from_dict,
    bundle_to_dict,
    dumps_json,
    format_float,
    write_csv,
)

from helpers import REF


SCALAR_CONFIG = {
    "system": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "M": [[1.0]],
               "m0": [0.0], "M0": [[1.0]]},
    "weights": {"Q": [[1.0]], "Qf": [[1.0]], "R": [[1.0]]},
    "truth": {"type": "gaussian", "mean": [0.0], "cov": [[1.0]]},
    "nominal": {"mean": [0.0], "cov": [[1.0]]},
    "lambda": 10.0,
    "horizon": 20,
    "runs": 5,
    "seed": 0,
}


def write_config(tmp_path, updates=None, drop=()):
    cfg = json.loads(json.dumps(SCALAR_CONFIG))
    cfg.update(updates or {})
    for key in drop:
        cfg.pop(key, None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestDesignCommand:
    def test_scalar_reference_solution(self, tmp_path):
        cfg = write_config(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert main(["design", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "solution.json").read_text())
        p = doc["bundle"]["steady"]["P"][0][0]
        assert abs(p - 5.0 / 3.0) < 1e-9
        assert doc["config_sha256"]

    def test_theta_mode_reuses_tuned_design(self, tmp_path):
        grid = [4.0, 8.0, 16.0]
        cfg = write_config(tmp_path, {"out_dir": str(tmp_path / "out"), "theta": 0.1,
                                      "lambda_grid": grid, "seed": 7},
                           drop=("lambda",))
        assert main(["design", "--config", cfg]) == 0
        written = (tmp_path / "out" / "solution.json").read_text()
        system, weights, nominal = REF["system"], REF["weights"], REF["nominal"]
        lam, report = wdrc.tune_lambda(system, weights, nominal, 0.1, grid=grid)
        bundle = wdrc.design_wdrc(system, weights, nominal, lam, theta=0.1, seed=7)
        expected = {"bundle": bundle_to_dict(bundle), "bound": bound_to_dict(report),
                    "config_sha256": json.loads(written)["config_sha256"], "seed": 7}
        assert written == dumps_json(expected)

    def test_assumption_violation_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda": 0.1, "out_dir": str(tmp_path / "o")})
        assert main(["design", "--config", cfg]) == 2
        err = capsys.readouterr().err.lower()
        assert "assumption 1" in err

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"theta": 0.1})  # both lambda and theta
        assert main(["design", "--config", cfg]) == 1
        assert "lambda/theta" in capsys.readouterr().err
        cfg = write_config(tmp_path, drop=("truth",))
        assert main(["design", "--config", cfg]) == 1

    @pytest.mark.parametrize("field, updates", [
        ("truth", {"truth": {"type": "gaussian", "mean": [0.0, 0.0], "cov": np.eye(2).tolist()}}),
        ("x0", {"x0": {"type": "gaussian", "mean": [0.0, 0.0], "cov": np.eye(2).tolist()}}),
        ("nominal", {"nominal": {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()}}),
        ("weights", {"weights": {"Q": np.eye(2).tolist(), "Qf": np.eye(2).tolist(),
                                 "R": [[1.0]]}}),
        ("lambda_grid.points", {"lambda_grid": {"points": 0}}),
        ("lambda_grid.hi", {"lambda_grid": {"hi": -5}}),
        ("horizon", {"horizon": "ten"}),
        ("horizon", {"horizon": 1.5}),
        ("runs", {"runs": "x"}),
        ("seed", {"seed": "x"}),
        ("jitter", {"jitter": "x"}),
        ("traces", {"traces": "x"}),
        ("dataset_draws", {"dataset_draws": "x"}),
        ("lambda", {"lambda": "abc"}),
        ("lambda", {"lambda": [1, 2]}),
        ("lambda", {"lambda": float("nan")}),
        ("theta", {"lambda": None, "theta": "x"}),
        ("lambda_grid.points", {"lambda_grid": {"points": "x"}}),
        ("lambda_grid", {"lambda_grid": ["a"]}),
        ("lambda_grid", {"lambda_grid": [4.0, -1.0]}),
        ("seed", {"seed": -1}),
        ("nominal.sample_count", {"nominal": {"sample_count": "x"}}),
        ("system.power_grid.n_gen", {"system": {"power_grid": {"n_gen": "x"}}}),
        ("system.power_grid.observed_gens",
         {"system": {"power_grid": {"n_gen": 3, "observed_gens": "x"}}}),
        ("system.power_grid.dt", {"system": {"power_grid": {"n_gen": 3, "dt": "x"}}}),
        ("thetas", {"thetas": "abc"}),
        ("sample_sizes", {"sample_sizes": ["x"]}),
        ("thetas", {"thetas": [0.1, -0.1]}),
        ("system", {"system": dict(SCALAR_CONFIG["system"], A=[[float("nan")]])}),
        ("system", {"system": dict(SCALAR_CONFIG["system"], M=[[float("inf")]])}),
        ("truth", {"truth": {"type": "gaussian", "mean": [float("nan")], "cov": [[1.0]]}}),
        ("x0", {"x0": {"type": "gaussian", "mean": [float("nan")], "cov": [[1.0]]}}),
        ("nominal", {"nominal": {"mean": [float("nan")], "cov": [[1.0]]}}),
        ("truth", {"truth": {"type": "empirical", "samples": [[0.0], [float("nan")]]}}),
        ("nominal", {"nominal": [1, 2]}),
        ("system", {"system": [1, 2]}),
        ("weights", {"weights": [1]}),
        ("system.power_grid", {"system": {"power_grid": [1]}}),
    ])
    def test_malformed_field_exit_code(self, tmp_path, capsys, field, updates):
        cfg = write_config(tmp_path, dict(updates, out_dir=str(tmp_path / "o")))
        assert main(["simulate", "--config", cfg]) == 1
        assert "config field '%s'" % field in capsys.readouterr().err

    @pytest.mark.parametrize("code, message, updates", [
        (1, "config field 'horizon'", {"horizon": "ten"}),
        (2, "assumption 1", {"lambda": 0.1}),
        (2, "no admissible penalty",
         {"lambda": None, "theta": 0.1, "lambda_grid": [0.5, 1.0]}),
        (3, "(A, B) is not stabilizable",
         {"method": "LQG", "system": dict(SCALAR_CONFIG["system"], A=[[2.0]], B=[[0.0]])}),
    ])
    def test_documented_exit_codes(self, tmp_path, capsys, code, message, updates):
        cfg = write_config(tmp_path, dict(updates, out_dir=str(tmp_path / "o")))
        assert main(["simulate", "--config", cfg]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        assert main(["design", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path)
        assert main(["design", "--config", cfg, "--out", out,
                     "--lambda", "12.0"]) == 0
        doc = json.loads(os.path.join(out, "solution.json") and
                         (tmp_path / "o" / "solution.json").read_text())
        assert doc["bundle"]["steady"]["lam"] == 12.0


class TestSimulateAndCompare:
    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_config(tmp_path, {"out_dir": str(out), "traces": 2})
        assert main(["simulate", "--config", cfg]) == 0
        summary = (out / "summary.csv").read_text()
        lines = summary.strip().split("\n")
        assert lines[0] == "method,runs,mean_cost,std_cost,wall_time_s"
        assert lines[1].startswith("WDRC,5,")
        trace = (out / "trace_000.csv").read_text().strip().split("\n")
        assert trace[0] == "t,x_0,xhat_0,u_0,y_0,stage_cost"
        assert len(trace) == 21  # header + horizon rows

    def test_compare_two_rows(self, tmp_path):
        out = tmp_path / "cmp"
        cfg = write_config(tmp_path, {"out_dir": str(out)})
        assert main(["compare", "--config", cfg]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("WDRC,") and lines[2].startswith("LQG,")

    def test_byte_determinism_modulo_wall_time(self, tmp_path):
        def run(d):
            cfg = write_config(tmp_path, {"out_dir": str(tmp_path / d)})
            assert main(["simulate", "--config", cfg]) == 0
            sol = (tmp_path / d / "solution.json").read_bytes()
            rows = (tmp_path / d / "summary.csv").read_text().strip().split("\n")
            masked = [",".join(r.split(",")[:-1]) for r in rows]
            return sol, masked
        sol1, sum1 = run("a")
        sol2, sum2 = run("b")
        assert sol1 == sol2
        assert sum1 == sum2


class TestTuneAndSweeps:
    def test_tune_writes_curve(self, tmp_path):
        out = tmp_path / "t"
        cfg = write_config(tmp_path, {"out_dir": str(out), "theta": 0.1,
                                      "lambda_grid": [4.0, 8.0, 16.0]},
                           drop=("lambda",))
        assert main(["tune", "--config", cfg]) == 0
        doc = json.loads((out / "tune.json").read_text())
        assert doc["lambda_star"] in (4.0, 8.0, 16.0)
        assert len(doc["curve"]) == 3

    def test_tune_keeps_grid_order(self, tmp_path):
        out = tmp_path / "t"
        grid = [16.0, 4.0, 8.0]
        cfg = write_config(tmp_path, {"out_dir": str(out), "theta": 0.1,
                                      "lambda_grid": grid}, drop=("lambda",))
        assert main(["tune", "--config", cfg]) == 0
        doc = json.loads((out / "tune.json").read_text())
        assert [row["lam"] for row in doc["curve"]] == grid
        lam, report = wdrc.tune_lambda(REF["system"], REF["weights"], REF["nominal"],
                                       0.1, grid=grid)
        assert doc["lambda_star"] == lam
        assert doc["report"] == json.loads(dumps_json(bound_to_dict(report)))

    def test_sweep_lambda(self, tmp_path):
        out = tmp_path / "sl"
        cfg = write_config(tmp_path, {"out_dir": str(out),
                                      "lambda_grid": [4.0, 8.0]})
        assert main(["sweep-lambda", "--config", cfg]) == 0
        lines = (out / "lambda_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "lam,rho,bound,status"
        assert len(lines) == 3

    def test_sweep_lambda_quotes_rejected_statuses(self, tmp_path):
        # the three smallest penalties fail assumption 1, whose status text holds commas
        eye = [[1.0, 0.0], [0.0, 1.0]]
        system = {"A": [[0.85, 0.2], [0.0, 0.7]], "B": eye, "C": eye, "M": [[0.2, 0.0], [0.0, 0.2]],
                  "m0": [0.0, 0.0], "M0": [[0.05, 0.0], [0.0, 0.05]]}
        nominal, grid = ([0.0, 0.0], [[0.3, 0.1], [0.1, 0.2]]), [0.5, 1.0, 1.5, 4.0, 40.0]
        out = tmp_path / "sl"
        cfg = write_config(tmp_path, {
            "out_dir": str(out), "lambda_grid": grid, "theta": 0.1, "system": system,
            "weights": {"Q": eye, "Qf": eye, "R": eye},
            "truth": {"type": "gaussian", "mean": nominal[0], "cov": nominal[1]},
            "nominal": {"mean": nominal[0], "cov": nominal[1]}}, drop=("lambda",))
        assert main(["sweep-lambda", "--config", cfg]) == 0
        with open(out / "lambda_curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [4] * 6
        expected = wdrc.evaluate_lambda_grid(
            wdrc.LinearSystem(**system), wdrc.CostWeights(Q=eye, Qf=eye, R=eye),
            wdrc.NominalMoments(*nominal), 0.1, grid)
        assert [row[3] for row in rows[1:]] == [row["status"] for row in expected]
        assert all(", " in row[3] for row in rows[1:4])

    def test_sweep_theta(self, tmp_path):
        out = tmp_path / "st"
        cfg = write_config(tmp_path, {
            "out_dir": str(out), "theta": 0.05, "thetas": [0.0, 0.05],
            "sample_sizes": [20], "dataset_draws": 2, "runs": 2, "horizon": 30,
            "lambda_grid": [5.0, 10.0]}, drop=("lambda",))
        assert main(["sweep-theta", "--config", cfg]) == 0
        lines = (out / "oos_curve.csv").read_text().strip().split("\n")
        assert lines[0].startswith("n_samples,theta,mean_cost")
        assert len(lines) == 3

    def test_sweep_theta_uses_the_config_jitter(self, tmp_path):
        # the top-level jitter reaches the sampled nominals unless nominal.jitter is set
        def curve(name, jitter, nominal_jitter=None):
            nominal = dict(SCALAR_CONFIG["nominal"])
            if nominal_jitter is not None:
                nominal["jitter"] = nominal_jitter
            out = tmp_path / name
            cfg = write_config(tmp_path, {
                "out_dir": str(out), "thetas": [0.05], "sample_sizes": [5],
                "dataset_draws": 2, "runs": 2, "horizon": 10, "lambda_grid": [5.0, 10.0],
                "jitter": jitter, "nominal": nominal})
            assert main(["sweep-theta", "--config", cfg]) == 0
            return (out / "oos_curve.csv").read_bytes()

        small = curve("small", 1e-8)
        assert curve("large", 0.5) != small
        assert curve("nominal", 0.5, nominal_jitter=1e-8) == small

    def test_power_grid_config(self, tmp_path):
        out = tmp_path / "pg"
        cfg_dict = {
            "system": {"power_grid": {"n_gen": 3, "observed_gens": 2, "dt": 0.2}},
            "truth": {"type": "gaussian", "mean": [0.0] * 6,
                      "cov": (0.01 * np.eye(6)).tolist()},
            "nominal": {"sample_count": 8},
            "lambda": 500.0,
            "horizon": 10,
            "runs": 2,
            "out_dir": str(out),
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg_dict))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (out / "summary.csv").exists()


class TestPrintedPaths:
    MODES = {
        "design": ["solution.json"],
        "simulate": ["solution.json", "summary.csv", "trace_000.csv", "trace_001.csv"],
        "compare": ["solution.json", "summary.csv"],
        "sweep-theta": ["oos_curve.csv"],
        "sweep-lambda": ["lambda_curve.csv"],
        "tune": ["tune.json"],
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_prints_every_written_file(self, tmp_path, capsys, mode):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "out_dir": str(out), "theta": 0.05, "thetas": [0.05], "sample_sizes": [20],
            "dataset_draws": 2, "runs": 3, "horizon": 10, "traces": 2,
            "lambda_grid": [5.0, 10.0]}, drop=("lambda",))
        assert main([mode, "--config", cfg]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / name) for name in self.MODES[mode]]
        assert sorted(os.listdir(out)) == sorted(self.MODES[mode])

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"out_dir": str(out)})
        src = os.path.dirname(os.path.dirname(os.path.abspath(wdrc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "wdrc.cli", "design", "--config", cfg],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == str(out / "solution.json") + "\n"


class TestSerializationPrimitives:
    def test_float_format_round_trips(self):
        values = [5.0 / 3.0, 1e-300, 123456789.123456789, -0.0, 2.0 ** -52, 1.0]
        for v in values:
            assert float(format_float(v)) == v or (v == 0.0)

    def test_bundle_round_trip_bitwise(self):
        system, weights, nominal = REF["system"], REF["weights"], REF["nominal"]
        bundle = wdrc.design_wdrc(system, weights, nominal, REF["lam"])
        doc = dumps_json(bundle_to_dict(bundle))
        back = bundle_from_dict(json.loads(doc))
        assert dumps_json(bundle_to_dict(back)) == doc
        assert np.array_equal(back.steady.P, bundle.steady.P)
        assert back.steady.rho == bundle.steady.rho

        lqg = wdrc.design_lqg(system, weights, nominal, seed=3)
        doc = dumps_json(bundle_to_dict(lqg))
        back = bundle_from_dict(json.loads(doc))
        assert dumps_json(bundle_to_dict(back)) == doc
        assert back.steady is None and back.provenance == lqg.provenance
        assert np.array_equal(back.lqg.K, lqg.lqg.K)

        report = wdrc.guaranteed_bound(0.1, REF["lam"], bundle.steady.rho)
        doc = dumps_json(bound_to_dict(report))
        assert bound_from_dict(json.loads(doc)) == report

    def test_empty_csv_has_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_csv_uses_lf_and_decimal_points(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["v"], [[1.5], [2.0]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"v\n1.5\n2.0\n"
