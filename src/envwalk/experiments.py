"""Experiment orchestration: config parsing, runners, deterministic
parallelism, CSV/JSON reports.

A config is a flat ``key = value`` text file, one experiment per file;
unknown keys are rejected so that typos cannot silently change a run.  The
report is a pure function of (config, seed): replica work is cut into
fixed-size chunks whose results are combined in index order, so the worker
count changes wall-clock time only.  Wall-clock is therefore *not* part of
the report; the CLI prints timing to stderr instead.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, diffchain
from .environments import Environment, env_replica, make_dirac, make_fully_correlated, make_lattice_product, make_finite_range
from .families import DiracSteps, FixedAtomic, UniformPM1
from .stats import ks_two_sample_critical, ks_two_sample_distance
from .streams import derive_seeds_vec
from .walks import exact_mean_curves, velocity_and_covariance

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "ConfigError",
    "parse_config",
    "run",
    "emit",
]

VERSION = __version__
CHUNK = 128  # replica chunk size; fixed so results never depend on workers

EXPERIMENTS = (
    "moments",
    "variance-scan",
    "phi-decay",
    "identity-check",
    "fclt",
    "max-drift",
    "ychain-exit",
    "ychain-excursion",
    "occupation",
    "counterexample",
)

MODELS = ("mixing-lattice", "finite-range", "level-correlated", "dirac-field", "fixed-lattice")


class ConfigError(ValueError):
    """Raised for malformed, unknown or inconsistent configuration."""


_COMMON_KEYS = {
    "experiment": None,
    "model": "mixing-lattice",
    "seed": 20100308,
    "workers": 1,
    "p_low": 0.0,
    "p_high": 1.0,
    "dependence_range": 1.0,
    "uniform_offset": 1,
}

_EXPERIMENT_KEYS: dict[str, dict] = {
    "moments": {"env_replicas": 100000, "walks_per_env": 1},
    "variance-scan": {
        "n_grid": [2**k for k in range(4, 13)],
        "env_replicas": 1000,
        "mean_method": "exact",
        "eta_min": None,
        "eta_max": None,
    },
    "phi-decay": {
        "x_grid": [0, 1, 2, 3, 4, 6, 8],
        "replicas": 20000,
        "independent_beyond": None,
    },
    "identity-check": {"n_list": [1, 4, 8], "env_replicas": 4000, "y_replicas": 4000},
    "fclt": {
        "epsilon": 2.0**-10,
        "time_points": [0.25, 0.5, 1.0],
        "walk_replicas": 10000,
        "env_seeds": 10,
        "pass_seeds": 8,
        "centering": "velocity",
        "expect_marginals": "pass",
        "cov_se_factor": 5.0,
    },
    "max-drift": {
        "n_lo": 2**6,
        "n_hi": 2**12,
        "env_replicas": 10,
        "decay_factor": 0.5,
        "expect_decay": 1,
        "pass_fraction": 0.8,
    },
    "ychain-exit": {
        "r_grid": [4, 8, 16, 32],
        "replicas": 4000,
        "step_cap": 1000000,
        "kind": "same_env",
        "slope_min": 1.6,
        "slope_max": 2.4,
        "slope_envelope": 13.0,
        "symmetry_replicas": 10000,
    },
    "ychain-excursion": {
        "horizon": 2**14,
        "box_eps": 0.2,
        "replicas": 1500,
        "kind": "same_env",
        "tail_min": 0.35,
        "tail_max": 0.65,
    },
    "occupation": {
        "n_grid": [2**k for k in range(4, 15)],
        "box_eps": 0.2,
        "replicas": 1000,
        "kind": "same_env",
        "eta_prime_max": 1.0,
    },
    "counterexample": {
        "model": "level-correlated",
        "epsilon": 2.0**-10,
        "time_points": [0.25, 0.5, 1.0],
        "walk_replicas": 10000,
        "env_seeds": 10,
        "pass_seeds": 8,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    values: dict
    text: str


@dataclass(frozen=True)
class Row:
    section: str
    name: str
    grid: float | None = None
    replica: int | None = None
    value: float | None = None
    se: float | None = None
    count: int | None = None
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    observed: float
    threshold: str


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config_text: str
    resolved: dict
    version: str
    rows: tuple[Row, ...]
    verdicts: tuple[Verdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value config; unknown keys are rejected by name."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(raw)

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    experiment = values["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; known: {', '.join(EXPERIMENTS)}")
    allowed = dict(_COMMON_KEYS)
    allowed.update(_EXPERIMENT_KEYS[experiment])
    for key in values:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}")
    resolved = {k: v for k, v in allowed.items() if k != "experiment"}
    resolved.update({k: v for k, v in values.items() if k != "experiment"})
    if resolved["model"] not in MODELS:
        raise ConfigError(f"unknown model {resolved['model']!r}; known: {', '.join(MODELS)}")
    return ExperimentConfig(experiment, resolved, text)


def build_model(values: dict, seed: int) -> Environment:
    """Environment template named by the config's model table."""
    name = values["model"]
    if name == "mixing-lattice":
        fam = UniformPM1(values["p_low"], values["p_high"])
        return make_lattice_product(seed, 1, fam, uniform_offset=bool(values["uniform_offset"]))
    if name == "finite-range":
        fam = UniformPM1(values["p_low"], values["p_high"])
        return make_finite_range(seed, 1, float(values["dependence_range"]), fam)
    if name == "level-correlated":
        return make_fully_correlated(seed, 1, UniformPM1(values["p_low"], values["p_high"]))
    if name == "dirac-field":
        return make_dirac(seed, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))
    if name == "fixed-lattice":
        return make_lattice_product(seed, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
    raise ConfigError(f"unknown model {name!r}")


def _chunks(n: int) -> list[np.ndarray]:
    return [np.arange(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]


def _pmap(fn, jobs: list, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


# --- chunk workers (module level: picklable) --------------------------------


def _curves_chunk(args):
    env, n_max, idx = args
    seeds = derive_seeds_vec(env.master_seed, idx)
    return exact_mean_curves(env, n_max, seeds)


def _fclt_chunk(args):
    env_template, seed_index, values, centering, cov, expect_dither = args
    env = env_replica(env_template, seed_index)
    fam = env.family
    return analysis.fclt_check(
        env,
        float(values["epsilon"]),
        values["time_points"],
        int(values["walk_replicas"]),
        cov,
        velocity=fam.averaged_mean,
        centering=centering,
        dither=expect_dither,
    )


# --- runners ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _run_moments(env: Environment, v: dict, workers: int):
    fam = env.family
    vel, vel_se, cov, cov_se = velocity_and_covariance(env, int(v["env_replicas"]), int(v["walks_per_env"]))
    rows = [
        Row("moments", "velocity", value=float(vel[0]), se=float(vel_se[0]), count=int(v["env_replicas"])),
        Row("moments", "covariance", value=float(cov[0, 0]), se=float(cov_se[0, 0]), count=int(v["env_replicas"])),
    ]
    verdicts = []
    v_true = float(fam.averaged_mean[0])
    d_true = float(fam.averaged_cov[0, 0])
    verdicts.append(
        Verdict("velocity_within_4se", abs(vel[0] - v_true) <= 4 * vel_se[0],
                float(abs(vel[0] - v_true) / vel_se[0]), f"|v - {v_true}| <= 4 SE")
    )
    verdicts.append(
        Verdict("covariance_within_4se", abs(cov[0, 0] - d_true) <= 4 * cov_se[0, 0],
                float(abs(cov[0, 0] - d_true) / cov_se[0, 0]), f"|D - {d_true}| <= 4 SE")
    )
    return rows, verdicts


def _scan_rows(section: str, curve) -> list[Row]:
    rows = [
        Row(section, "estimate", grid=float(g), value=float(e), se=float(s))
        for g, e, s in zip(curve.grid, curve.estimates, curve.standard_errors)
    ]
    if curve.fit is not None:
        rows.append(Row(section, "exponent", value=curve.fit.exponent, note=f"ci=({_fmt(curve.fit.ci_low)},{_fmt(curve.fit.ci_high)})"))
    return rows


def _run_variance_scan(env: Environment, v: dict, workers: int):
    n_grid = np.asarray(v["n_grid"], dtype=np.int64)
    m = int(v["env_replicas"])
    if v["mean_method"] == "exact" and env.d == 1:
        parts = _pmap(_curves_chunk, [(env, int(n_grid.max()), idx) for idx in _chunks(m)], workers)
        curve = analysis.variance_from_curves(env, n_grid, np.concatenate(parts, axis=0))
    else:
        curve = analysis.variance_scan(env, n_grid, m, mean_method=v["mean_method"])
    rows = _scan_rows("variance", curve)
    verdicts = []
    if curve.fit is not None:
        if v["eta_min"] is not None:
            verdicts.append(Verdict("eta_at_least", curve.fit.exponent >= float(v["eta_min"]),
                                    curve.fit.exponent, f">= {v['eta_min']}"))
        if v["eta_max"] is not None:
            verdicts.append(Verdict("eta_at_most", curve.fit.exponent <= float(v["eta_max"]),
                                    curve.fit.exponent, f"<= {v['eta_max']}"))
    return rows, verdicts


def _run_phi_decay(env: Environment, v: dict, workers: int):
    grid = np.asarray(v["x_grid"], dtype=float)
    curve = analysis.estimate_phi(env, grid, int(v["replicas"]))
    rows = [
        Row("phi", "estimate", grid=float(g), value=float(e), se=float(s))
        for g, e, s in zip(curve.grid, curve.estimates, curve.standard_errors)
    ]
    verdicts = []
    fam = env.family
    if 0.0 in grid.tolist() and getattr(fam, "drift_variance", None) is not None:
        j = grid.tolist().index(0.0)
        dev = abs(curve.estimates[j] - fam.drift_variance) / curve.standard_errors[j]
        verdicts.append(Verdict("phi0_matches_drift_variance", dev <= 4.0, float(dev), "<= 4 SE"))
    if v["independent_beyond"] is not None:
        far = grid >= float(v["independent_beyond"])
        devs = np.abs(curve.estimates[far]) / curve.standard_errors[far]
        if devs.size:
            verdicts.append(Verdict("phi_vanishes_beyond_range", bool((devs <= 4.0).all()),
                                    float(devs.max()), "<= 4 SE beyond range"))
    return rows, verdicts


def _run_identity(env: Environment, v: dict, workers: int):
    rows, verdicts = [], []
    for n in v["n_list"]:
        rep = analysis.variance_identity_check(env, int(n), int(v["env_replicas"]), int(v["y_replicas"]))
        rows += [
            Row("identity", "lhs", grid=float(n), value=rep.lhs, se=rep.lhs_se),
            Row("identity", "rhs", grid=float(n), value=rep.rhs, se=rep.rhs_se),
            Row("identity", "residual", grid=float(n), value=rep.residual, se=rep.combined_se),
        ]
        if n == 1:
            verdicts.append(Verdict("identity_exact_n1", rep.residual == 0.0, rep.residual, "== 0"))
        else:
            dev = abs(rep.residual) / rep.combined_se
            verdicts.append(Verdict(f"identity_within_4se_n{n}", dev <= 4.0, float(dev), "<= 4 combined SE"))
    return rows, verdicts


def _run_fclt(env: Environment, v: dict, workers: int, centering: str = None, expect: str = None):
    centering = centering or v["centering"]
    expect = expect or v["expect_marginals"]
    fam = env.family
    cov = fam.mean_step_cov if centering == "quenched_mean" else fam.averaged_cov
    jobs = [(env, s, v, centering, cov, True) for s in range(int(v["env_seeds"]))]
    reports = _pmap(_fclt_chunk, jobs, workers)
    rows, n_pass, cov_ok = [], 0, True
    label = "velocity" if centering == "velocity" else "quenched_mean"
    max_cov_dev = 0.0
    for s, rep in enumerate(reports):
        ok = rep.all_marginals_pass()
        n_pass += ok
        for t, res in rep.tests:
            rows.append(Row(f"fclt_{label}", "ks_p", grid=t, replica=s, value=res.p_value,
                            note=f"stat={_fmt(res.statistic)}"))
        for s_t, t_t, emp, expd, se in rep.cov_rows:
            dev = abs(emp - expd) / se
            max_cov_dev = max(max_cov_dev, dev)
            rows.append(Row(f"fclt_{label}", "cov", grid=s_t, replica=s, value=emp, se=se,
                            note=f"t={_fmt(t_t)} expected={_fmt(expd)}"))
    thresh = int(v["pass_seeds"])
    total = int(v["env_seeds"])
    verdicts = []
    if expect == "pass":
        verdicts.append(Verdict(f"{label}_marginals_gaussian", n_pass >= thresh, n_pass, f">= {thresh} of {total} seeds"))
        verdicts.append(Verdict(f"{label}_cov_within_se", max_cov_dev <= float(v.get("cov_se_factor", 5.0)),
                                max_cov_dev, f"<= {v.get('cov_se_factor', 5.0)} SE"))
    else:
        n_fail = total - n_pass
        verdicts.append(Verdict(f"{label}_marginals_rejected", n_fail >= thresh, n_fail, f">= {thresh} of {total} seeds"))
    return rows, verdicts


def _run_max_drift(env: Environment, v: dict, workers: int):
    n_lo, n_hi = int(v["n_lo"]), int(v["n_hi"])
    m = int(v["env_replicas"])
    report = analysis.max_drift_check(env, m, [n_lo, n_hi])
    rows = [
        Row("max_drift", "scaled_max", grid=float(n), replica=i, value=float(report.curves[i, j]))
        for i in range(m)
        for j, n in enumerate(report.n_grid)
    ]
    frac = report.decay_fraction(n_lo, n_hi, float(v["decay_factor"]))
    if int(v["expect_decay"]):
        verdicts = [Verdict("scaled_max_halves", frac >= float(v["pass_fraction"]), frac,
                            f">= {v['pass_fraction']} of replicas")]
    else:
        verdicts = [Verdict("scaled_max_does_not_halve", frac < float(v["pass_fraction"]), frac,
                            f"< {v['pass_fraction']} of replicas")]
    return rows, verdicts


def _run_ychain_exit(env: Environment, v: dict, workers: int):
    scan = diffchain.exit_time_scan(env, v["r_grid"], int(v["replicas"]),
                                    step_cap=int(v["step_cap"]), kind=v["kind"])
    rows = _scan_rows("exit_time", scan.curve)
    rows += [
        Row("exit_time", "capped_fraction", grid=float(r), value=float(c))
        for r, c in zip(scan.curve.grid, scan.capped_fraction)
    ]
    m_sym = int(v["symmetry_replicas"])
    verdicts = []
    for kind in (diffchain.SAME_ENV, diffchain.INDEPENDENT_ENV):
        _, y1 = diffchain.batch_diff_positions(env, 1, np.arange(m_sym), 0, kind, record_steps=[1])
        d = ks_two_sample_distance(y1[0], -y1[0])
        crit = ks_two_sample_critical(m_sym, m_sym, 0.01)
        rows.append(Row("symmetry", f"ks_distance_{kind}", value=d, note=f"critical={_fmt(crit)}"))
        verdicts.append(Verdict(f"first_step_symmetric_{kind}", d < crit, d, f"< {_fmt(crit)}"))
    if scan.curve.fit is not None:
        sl = scan.curve.fit.exponent
        verdicts.append(Verdict("exit_slope_in_window", float(v["slope_min"]) <= sl <= float(v["slope_max"]),
                                sl, f"in [{v['slope_min']}, {v['slope_max']}]"))
        verdicts.append(Verdict("exit_slope_below_envelope", sl <= float(v["slope_envelope"]),
                                sl, f"<= {v['slope_envelope']}"))
    return rows, verdicts


def _run_ychain_excursion(env: Environment, v: dict, workers: int):
    scan = diffchain.excursion_scan(env, int(v["horizon"]), float(v["box_eps"]),
                                    int(v["replicas"]), kind=v["kind"])
    rows = [
        Row("excursion", "survival", grid=float(a), value=float(sv), se=float(se))
        for a, sv, se in zip(scan.survival_curve.grid, scan.survival_curve.estimates,
                             scan.survival_curve.standard_errors)
    ]
    rows.append(Row("excursion", "tail_exponent", value=scan.tail_exponent,
                    note=f"ci=({_fmt(scan.tail_ci[0])},{_fmt(scan.tail_ci[1])})"))
    rows.append(Row("excursion", "complete_count", value=float(scan.lengths.size),
                    count=scan.n_incomplete, note="count column = incomplete"))
    verdicts = [Verdict("excursion_tail_exponent", float(v["tail_min"]) <= scan.tail_exponent <= float(v["tail_max"]),
                        scan.tail_exponent, f"in [{v['tail_min']}, {v['tail_max']}]")]
    return rows, verdicts


def _run_occupation(env: Environment, v: dict, workers: int):
    curve = diffchain.occupation_time(env, v["n_grid"], float(v["box_eps"]),
                                      int(v["replicas"]), kind=v["kind"])
    rows = _scan_rows("occupation", curve)
    verdicts = []
    if curve.fit is not None:
        verdicts.append(Verdict("occupation_sublinear", curve.fit.exponent < float(v["eta_prime_max"]),
                                curve.fit.exponent, f"< {v['eta_prime_max']}"))
    return rows, verdicts


def _run_counterexample(env: Environment, v: dict, workers: int):
    vv = dict(v)
    vv.setdefault("cov_se_factor", 5.0)
    rows_b, verd_b = _run_fclt(env, vv, workers, centering="velocity", expect="fail")
    rows_t, verd_t = _run_fclt(env, vv, workers, centering="quenched_mean", expect="pass")
    return rows_b + rows_t, list(verd_b) + list(verd_t)


_RUNNERS = {
    "moments": _run_moments,
    "variance-scan": _run_variance_scan,
    "phi-decay": _run_phi_decay,
    "identity-check": _run_identity,
    "fclt": _run_fclt,
    "max-drift": _run_max_drift,
    "ychain-exit": _run_ychain_exit,
    "ychain-excursion": _run_ychain_excursion,
    "occupation": _run_occupation,
    "counterexample": _run_counterexample,
}


def run(config: ExperimentConfig, seed: int | None = None, workers: int | None = None) -> ExperimentReport:
    """Execute one experiment; the report is a pure function of (config, seed)."""
    values = dict(config.values)
    if seed is not None:
        values["seed"] = int(seed)
    if workers is not None:
        values["workers"] = int(workers)
    env = build_model(values, int(values["seed"]))
    rows, verdicts = _RUNNERS[config.experiment](env, values, int(values["workers"]))
    resolved = {k: v for k, v in sorted(values.items()) if k != "workers"}
    return ExperimentReport(config.experiment, config.text, resolved, VERSION, tuple(rows), tuple(verdicts))


# --- emission ---------------------------------------------------------------


def _row_dict(r: Row) -> dict:
    return {
        "section": r.section,
        "name": r.name,
        "grid": r.grid,
        "replica": r.replica,
        "value": r.value,
        "se": r.se,
        "count": r.count,
        "note": r.note,
    }


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def report_json(report: ExperimentReport) -> str:
    doc = {
        "artifact": {"name": "envwalk", "version": report.version},
        "experiment": report.experiment,
        "config_text": report.config_text,
        "resolved": report.resolved,
        "rows": [_row_dict(r) for r in report.rows],
        "verdicts": [
            {"name": v.name, "passed": bool(v.passed), "observed": float(v.observed), "threshold": v.threshold}
            for v in report.verdicts
        ],
        "passed": bool(report.passed),
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def report_csv(report: ExperimentReport) -> tuple[str, str]:
    """(rows csv, verdicts csv); columns documented in csv_schema.txt."""
    header = "experiment,section,name,grid,replica,value,se,count,note"
    lines = [header]
    for r in report.rows:
        lines.append(",".join([
            report.experiment, r.section, r.name, _csv_cell(r.grid), _csv_cell(r.replica),
            _csv_cell(r.value), _csv_cell(r.se), _csv_cell(r.count),
            '"' + r.note.replace('"', "'") + '"' if r.note else "",
        ]))
    vlines = ["experiment,name,passed,observed,threshold"]
    for v in report.verdicts:
        vlines.append(",".join([
            report.experiment, v.name, str(int(v.passed)), _csv_cell(v.observed),
            '"' + v.threshold.replace('"', "'") + '"',
        ]))
    return "\n".join(lines) + "\n", "\n".join(vlines) + "\n"


def emit(report: ExperimentReport, fmt: str, out_dir) -> list[Path]:
    """Write the report files; byte-identical for identical (config, seed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = report.experiment
    paths = []
    if fmt == "json":
        p = out / f"{stem}_report.json"
        p.write_text(report_json(report))
        paths.append(p)
    elif fmt == "csv":
        rows_text, verdicts_text = report_csv(report)
        p1, p2 = out / f"{stem}_rows.csv", out / f"{stem}_verdicts.csv"
        p1.write_text(rows_text)
        p2.write_text(verdicts_text)
        paths += [p1, p2]
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return paths
