"""Command-line driver: JSON experiment configs in, JSON/CSV artifacts out.

Subcommands: design, simulate, compare, sweep-theta, sweep-lambda, tune.
Every mode reads the config through ``load_config``, builds one results dict
of JSON documents and CSV tables, and writes it through ``emit_outputs``;
``main`` prints each written path, one per line. Exit codes: 0 success,
1 malformed config, 2 assumption violation, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import design as design_mod
from . import serialize, sim
from .exceptions import AssumptionViolated, ConfigError, NoAdmissibleLambda, NoConvergence
from .model import (
    DisturbanceModel,
    distribution_from_json,
    empirical_moments,
    NominalMoments,
    system_from_json,
    weights_from_json,
    zoh_discretize,
    build_power_system,
    ring_chords_laplacian,
)

__all__ = ["ExperimentConfig", "run_experiment", "emit_outputs", "main"]

# exit code of each documented failure; any other error propagates
EXIT_CODES = {ConfigError: 1, AssumptionViolated: 2, NoAdmissibleLambda: 2,
              NoConvergence: 3}

SUMMARY_HEADER = ["method", "runs", "mean_cost", "std_cost", "wall_time_s"]
LAMBDA_HEADER = ["lam", "rho", "bound", "status"]
OOS_HEADER = ["n_samples", "theta", "mean_cost", "mean_bound",
              "violation_fraction", "draws", "failures"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description; exactly one of lam/theta is set."""

    system: object
    weights: object
    truth: DisturbanceModel
    x0: Optional[DisturbanceModel]
    nominal: NominalMoments
    jitter: float  # eps*I added to sample-based nominals: nominal.jitter, else jitter
    lam: Optional[float]
    theta: Optional[float]
    lambda_grid: Optional[np.ndarray]
    thetas: Optional[list]
    sample_sizes: Optional[list]
    dataset_draws: int
    horizon: int
    runs: int
    seed: int
    traces: int
    method: str
    out_dir: str
    digest: str


def _parse(field, build, *args):
    """``build(*args)``; a KeyError or ValueError it raises becomes a
    ConfigError naming ``field``."""
    try:
        return build(*args)
    except KeyError as exc:
        raise ConfigError(field, "missing matrix %s" % exc)
    except ValueError as exc:
        raise ConfigError(field, str(exc))


def _grid_plant(g, n_gen, observed, dt):
    """ZOH-discretized generator grid and its default weights."""
    lap = g.get("laplacian")
    system, weights = build_power_system(
        n_gen,
        g.get("inertia", np.ones(n_gen)),
        g.get("damping", np.ones(n_gen)),
        ring_chords_laplacian(n_gen) if lap is None else lap,
        observed,
        measurement_cov=g.get("M"),
        m0=g.get("m0"),
        M0=g.get("M0"),
    )
    A_d, B_d = zoh_discretize(system.A, system.B, dt)
    return system.replace(A=A_d, B=B_d), weights


def _require(obj, key, path):
    if key not in obj:
        raise ConfigError("%s.%s" % (path, key) if path else key, "missing required key")
    return obj[key]


def _object(value, field):
    """``value`` if it is a JSON object; ConfigError naming ``field`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(field, "expected an object, got %r" % (value,))
    return value


def _scalar(value, kind, field, above=None):
    """``value`` as a finite ``kind`` (int or float), greater than ``above``
    when given; ConfigError naming ``field`` for a non-numeric, non-finite,
    non-integral or too small value. ``kind`` [int] or [float] reads a list."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(field, "expected a list, got %r" % (value,))
        return [_scalar(v, kind[0], field, above) for v in value]
    try:
        num = kind(value)
        ok = bool(np.isfinite(num)) and not (isinstance(value, float) and num != value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(field, "expected %s, got %r" % ("an integer" if kind is int else "a number", value))
    if above is not None and not num > above:
        raise ConfigError(field, "must be > %g" % above)
    return num


def _build_system(raw, path="system"):
    if "power_grid" not in _object(raw, path):
        return _parse(path, system_from_json, raw), None
    path += ".power_grid"
    g = _object(raw["power_grid"], path)
    n_gen = _scalar(_require(g, "n_gen", path), int, path + ".n_gen")
    observed = _scalar(g.get("observed_gens", n_gen), int, path + ".observed_gens")
    dt = _scalar(g.get("dt", 0.1), float, path + ".dt")
    return _parse(path, _grid_plant, g, n_gen, observed, dt)


def _build_nominal(raw, truth, seed, jitter, path="nominal"):
    if "mean" in raw or "cov" in raw:
        return _parse(path, NominalMoments, _require(raw, "mean", path),
                      _require(raw, "cov", path))
    if "samples" in raw:
        return _parse(path + ".samples", empirical_moments, raw["samples"], jitter)
    if "sample_count" in raw:
        count = _scalar(raw["sample_count"], int, path + ".sample_count", 0)
        # dedicated substream so the nominal does not perturb simulation draws
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
        samples = np.atleast_2d(truth.sample(rng, count))
        return empirical_moments(samples, jitter=jitter)
    raise ConfigError(path, "expected one of: (mean, cov) | samples | sample_count")


def load_config(path, overrides=None):
    """Parse and validate a config file, applying CLI overrides."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", "cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config", "invalid JSON at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg))
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")

    overrides = overrides or {}
    if overrides.get("lam") is not None and overrides.get("theta") is not None:
        raise ConfigError("config", "pass at most one of --lambda and --theta")
    if overrides.get("lam") is not None:
        raw["lambda"] = overrides["lam"]
        raw.pop("theta", None)
    if overrides.get("theta") is not None:
        raw["theta"] = overrides["theta"]
        raw.pop("lambda", None)
    for key in ("seed", "runs", "horizon", "out_dir"):
        if overrides.get(key) is not None:
            raw[key] = overrides[key]

    system, default_weights = _build_system(_require(raw, "system", ""))
    if "weights" in raw:
        weights = _parse("weights", weights_from_json, _object(raw["weights"], "weights"))
    elif default_weights is not None:
        weights = default_weights
    else:
        raise ConfigError("weights", "missing required key")
    if weights.Q.shape[0] != system.n_x or weights.R.shape[0] != system.n_u:
        raise ConfigError("weights", "Q and R must match the %d states and %d inputs"
                          % (system.n_x, system.n_u))

    truth = _parse("truth", distribution_from_json, _require(raw, "truth", ""), "truth")
    x0 = None
    if raw.get("x0") is not None:
        x0 = _parse("x0", distribution_from_json, raw["x0"], "x0")
    for field, model in (("truth", truth), ("x0", x0)):
        if model is not None and model.moments()[0].size != system.n_x:
            raise ConfigError(field, "dimension must equal the %d plant states" % system.n_x)

    has_lam = raw.get("lambda") is not None
    has_theta = raw.get("theta") is not None
    if has_lam == has_theta:
        raise ConfigError("lambda/theta", "exactly one of 'lambda' or 'theta' must be set")
    lam = _scalar(raw["lambda"], float, "lambda", 0) if has_lam else None
    theta = _scalar(raw["theta"], float, "theta") if has_theta else None
    thetas = _scalar(raw.get("thetas") or [], [float], "thetas")
    for field, values in (("theta", [theta] if has_theta else []), ("thetas", thetas)):
        if min(values, default=0.0) < 0:
            raise ConfigError(field, "must be nonnegative")

    seed = _scalar(raw.get("seed", 0), int, "seed", -1)
    jitter = _scalar(raw.get("jitter", 1e-8), float, "jitter")
    raw_nominal = _object(_require(raw, "nominal", ""), "nominal")
    jitter = _scalar(raw_nominal.get("jitter", jitter), float, "nominal.jitter")
    nominal = _build_nominal(raw_nominal, truth, seed, jitter)
    if nominal.w_hat.size != system.n_x:
        raise ConfigError("nominal", "dimension must equal the %d plant states" % system.n_x)

    grid = None
    if raw.get("lambda_grid") is not None:
        g = raw["lambda_grid"]
        if isinstance(g, dict):
            points = _scalar(g.get("points", 40), int, "lambda_grid.points", 0)
            lam_hi = _scalar(g.get("hi", 1e6), float, "lambda_grid.hi", 0)
            grid = design_mod.default_lambda_grid(system, weights, points=points,
                                                  lam_hi=lam_hi)
        else:
            grid = np.array(_scalar(g, [float], "lambda_grid", 0))
            if grid.size == 0:
                raise ConfigError("lambda_grid", "must be a nonempty list of penalties")

    horizon = _scalar(raw.get("horizon", 100), int, "horizon", 0)
    runs = _scalar(raw.get("runs", 100), int, "runs", 0)
    method = str(raw.get("method", "WDRC")).upper()
    if method not in ("WDRC", "LQG"):
        raise ConfigError("method", "must be WDRC or LQG")

    hashed = {k: v for k, v in raw.items() if k not in ("out_dir", "traces")}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, default=str).encode()).hexdigest()
    return ExperimentConfig(
        system=system, weights=weights, truth=truth, x0=x0, nominal=nominal,
        jitter=jitter, lam=lam, theta=theta, lambda_grid=grid,
        thetas=thetas or None,
        sample_sizes=_scalar(raw.get("sample_sizes") or [], [int], "sample_sizes", 0) or None,
        dataset_draws=_scalar(raw.get("dataset_draws", 20), int, "dataset_draws", 0),
        horizon=horizon, runs=runs, seed=seed,
        traces=_scalar(raw.get("traces", 0), int, "traces", -1),
        method=method, out_dir=str(raw.get("out_dir", "out")), digest=digest,
    )


def _resolve_design(config, method="WDRC"):
    """(bundle, bound report) for ``method``: LQG has no report; WDRC is
    designed in the config's lambda- or theta-mode."""
    if method == "LQG":
        return design_mod.design_lqg(config.system, config.weights,
                                     config.nominal, seed=config.seed), None
    if config.theta is not None:
        _, bundle, report = design_mod.tune_wdrc(config.system, config.weights,
                                                 config.nominal, config.theta,
                                                 config.lambda_grid)
        bundle = replace(bundle, provenance=dict(bundle.provenance, seed=config.seed))
        return bundle, report
    bundle = design_mod.design_wdrc(config.system, config.weights,
                                    config.nominal, config.lam, seed=config.seed)
    return bundle, design_mod.guaranteed_bound(0.0, config.lam, bundle.steady.rho)


def emit_outputs(results, out_dir):
    """Write the artifact dict under ``out_dir``; returns the written paths.

    results keys: 'documents' (JSON-able objects keyed by file name) and
    'tables' (CSV ``(header, rows)`` pairs keyed by file name), both
    optional. Documents are written first, each kind in its key order.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, doc in results.get("documents", {}).items():
        path = os.path.join(out_dir, name)
        serialize.write_json(path, doc)
        written.append(path)
    for name, (header, rows) in results.get("tables", {}).items():
        path = os.path.join(out_dir, name)
        serialize.write_csv(path, header, rows)
        written.append(path)
    return written


def _solution_doc(config, bundle, report):
    return {
        "bundle": serialize.bundle_to_dict(bundle),
        "bound": None if report is None else serialize.bound_to_dict(report),
        "config_sha256": config.digest,
        "seed": config.seed,
    }


def _columns(header, rows):
    """Each row dict's values in ``header`` order."""
    return [[r[k] for k in header] for r in rows]


def _trace_table(trace):
    """(header, rows) of one trace: t, states, estimates, inputs, outputs, stage cost."""
    n, nu, ny = trace.x.shape[1], trace.u.shape[1], trace.y.shape[1]
    header = (["t"] + ["x_%d" % i for i in range(n)] + ["xhat_%d" % i for i in range(n)]
              + ["u_%d" % i for i in range(nu)] + ["y_%d" % i for i in range(ny)] + ["stage_cost"])
    rows = [[t, *trace.x[t], *trace.x_hat[t], *trace.u[t], *trace.y[t],
             trace.stage_cost[t]] for t in range(trace.horizon)]
    return header, rows


def run_experiment(config, mode="simulate"):
    """Execute one experiment mode; returns the paths written."""
    documents, tables = {}, {}
    if mode == "design":
        documents["solution.json"] = _solution_doc(config, *_resolve_design(config))
    elif mode in ("simulate", "compare"):
        methods = ["WDRC", "LQG"] if mode == "compare" else [config.method]
        designs = [_resolve_design(config, method) for method in methods]
        documents["solution.json"] = _solution_doc(config, *designs[0])
        rows = []
        for bundle, _ in designs:
            s = sim.monte_carlo_summary(bundle, config.truth, config.horizon,
                                        config.runs, config.seed, x0_model=config.x0)
            rows.append((bundle.method, s.runs, s.mean_total_cost, s.std_total_cost,
                         s.wall_time))
        tables["summary.csv"] = (SUMMARY_HEADER, rows)
        traces = config.traces if mode == "simulate" else 0
        children = np.random.SeedSequence(config.seed).spawn(min(traces, config.runs))
        for idx, child in enumerate(children):
            trace = sim.run_closed_loop(designs[0][0], config.truth, config.horizon,
                                        child, x0_model=config.x0)
            tables["trace_%03d.csv" % idx] = _trace_table(trace)
    elif mode == "sweep-theta":
        thetas = config.thetas or ([config.theta] if config.theta is not None else None)
        if not thetas:
            raise ConfigError("thetas", "sweep-theta needs a nonempty 'thetas' list")
        sizes = config.sample_sizes
        if not sizes:
            raise ConfigError("sample_sizes", "sweep-theta needs a nonempty 'sample_sizes' list")
        rows = sim.out_of_sample_curve(
            config.system, config.weights, config.truth, sizes, thetas,
            config.runs, config.seed, dataset_draws=config.dataset_draws,
            horizon=config.horizon, lambda_grid=config.lambda_grid,
            jitter=config.jitter, x0_model=config.x0)
        tables["oos_curve.csv"] = (OOS_HEADER, _columns(OOS_HEADER, rows))
    elif mode == "sweep-lambda":
        grid = config.lambda_grid
        if grid is None:
            grid = design_mod.default_lambda_grid(config.system, config.weights)
        theta = config.theta if config.theta is not None else 0.0
        rows = design_mod.evaluate_lambda_grid(config.system, config.weights,
                                               config.nominal, theta, grid)
        tables["lambda_curve.csv"] = (LAMBDA_HEADER, _columns(LAMBDA_HEADER, rows))
    elif mode == "tune":
        if config.theta is None:
            raise ConfigError("theta", "tune mode requires 'theta'")
        rows, _, report = design_mod.tune_wdrc(config.system, config.weights,
                                               config.nominal, config.theta,
                                               config.lambda_grid)
        documents["tune.json"] = {
            "lambda_star": report.lam,
            "report": serialize.bound_to_dict(report),
            "curve": [{k: r[k] for k in LAMBDA_HEADER} for r in rows]}
    else:
        raise ValueError("unknown mode %r" % mode)
    return emit_outputs({"documents": documents, "tables": tables}, config.out_dir)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wdrc",
        description="Distributionally robust LQ control experiments.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in ("design", "simulate", "compare", "sweep-theta", "sweep-lambda", "tune"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--out", dest="out_dir", default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in ("seed", "runs", "horizon", "theta", "lam", "out_dir")}
    try:
        written = run_experiment(load_config(args.config, overrides), args.mode)
    except tuple(EXIT_CODES) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CODES[type(exc)]
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
