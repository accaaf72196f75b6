"""Experiment orchestration: config parsing, runners, deterministic
parallelism, CSV/JSON reports.

A config is a flat ``key = value`` text file, one experiment per file.
``_TABLE`` maps each experiment to its runner and its keys.  A :class:`Key`
states the key's default, its type (integer, number or a word from a fixed
set), whether it takes a comma-separated list and its bounds;
:func:`parse_config` checks every value against its key, so an unknown key
or a bad value ends in a ``ConfigError`` that names its line and key, and
the runners use the typed values as they are.  The report is a pure
function of (config, seed): replica work is cut into fixed-size chunks
whose results are combined in index order, so the worker count changes
wall-clock time only.  Wall-clock is therefore *not* part of the report;
the CLI prints timing to stderr instead.  Workers are threads of one
process: ``variance-scan`` runs one job per chunk, ``fclt`` and
``counterexample`` one per field, and the other experiments run on one
thread.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, diffchain
from .environments import (
    MAX_COORDINATE,
    MIN_DEPENDENCE_RANGE,
    Environment,
    env_replica,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
)
from .families import DiracSteps, FixedAtomic, UniformPM1
from .stats import MIN_FIT_POINTS, fit_points, ks_two_sample_critical, ks_two_sample_distance
from .walks import velocity_and_covariance

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "ConfigError",
    "parse_config",
    "run",
    "emit",
]

CHUNK = 128  # replica chunk size; fixed so results never depend on workers
SYMMETRY_ALPHA = 0.01  # level of ychain-exit's two-sample KS test of first-step symmetry
# The fewest replicas at which that test can reject: a KS distance is at most 1.
_MIN_SYMMETRY_REPLICAS = next(m for m in itertools.count(1) if ks_two_sample_critical(m, m, SYMMETRY_ALPHA) < 1)

MODELS = ("mixing-lattice", "finite-range", "level-correlated", "dirac-field", "fixed-lattice")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class ConfigError(ValueError):
    """Raised for malformed, unknown or inconsistent configuration."""


@dataclass(frozen=True)
class Key:
    """One config key: its default, type, list-ness and bounds.

    ``kind`` is ``int``, ``float`` (a number; an integer literal stays an
    int, so the report's ``resolved`` block echoes the config as written)
    or a tuple of the allowed words.  A list key reads comma-separated
    values, no two of them equal, and one value is a list of one.  ``lo``
    and ``hi`` are inclusive bounds, ``above`` and ``below`` exclusive ones;
    an integer value must also fit an int64, numpy's integer, unless the key
    states its own ``lo`` or ``hi`` on that side (``seed`` is a uint64).
    """

    default: object
    kind: type | tuple[str, ...]
    many: bool = False
    lo: float | None = None
    hi: float | None = None
    above: float | None = None
    below: float | None = None

    def parse(self, name: str, text: str, where: str = ""):
        """The typed value of ``text``, or a ConfigError naming ``where`` and the key."""
        words = [w.strip() for w in text.split(",")]
        try:
            if len(words) > 1 and not self.many:
                raise ValueError(f"takes one value, got {text.strip()!r}")
            values = [self._word(name, w) for w in words]
            if len(set(values)) < len(values):  # a repeated point would repeat its rows and verdicts
                raise ValueError(f"repeats a value, got {text.strip()!r}")
        except ValueError as exc:
            raise ConfigError(f"{where}{name}: {exc}") from None
        return values if self.many else values[0]

    def _word(self, name: str, word: str):
        if isinstance(self.kind, tuple):
            if word not in self.kind:
                raise ValueError(f"unknown {name} {word!r}; known: {', '.join(self.kind)}")
            return word
        try:
            x = int(word)
        except ValueError:
            if self.kind is int:
                raise ValueError(f"{word!r} is not an integer") from None
            x = float(word)
            if not math.isfinite(x):
                raise ValueError(f"{word!r} is not a finite number") from None
        lo, hi = self.lo, self.hi
        if isinstance(x, int):
            lo, hi = _INT64_MIN if lo is None else lo, _INT64_MAX if hi is None else hi
        for bound, op, holds in ((lo, ">=", operator.ge), (self.above, ">", operator.gt),
                                 (hi, "<=", operator.le), (self.below, "<", operator.lt)):
            if bound is not None and not holds(x, bound):
                raise ValueError(f"must be {op} {bound}, got {word}")
        return x


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
        """True when there is a verdict and every verdict passes."""
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value config; every value is checked against its key."""
    lines: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines[key] = (lineno, raw)

    if "experiment" not in lines:
        raise ConfigError("missing required key 'experiment'")
    experiment_line, raw = lines.pop("experiment")
    experiment = Key(None, EXPERIMENTS).parse("experiment", raw, f"line {experiment_line}: ")
    keys = {**_COMMON_KEYS, **_TABLE[experiment][1]}
    values = {name: key.default for name, key in keys.items()}
    for name, (lineno, raw) in lines.items():
        if name not in keys:
            raise ConfigError(f"line {lineno}: unknown key {name!r} for experiment {experiment!r}")
        values[name] = keys[name].parse(name, raw, f"line {lineno}: ")
    # The counterexample always centers at the quenched mean, fclt when asked to.
    quenched_mean = experiment == "counterexample" or values.get("centering") == "quenched_mean"
    if values["model"] == "dirac-field" and quenched_mean:
        lineno = max(lines["model"][0], lines["centering"][0] if experiment == "fclt" else experiment_line)
        raise ConfigError(f"line {lineno}: model: dirac-field walks are deterministic given the field, "
                          "so quenched_mean centering has no Gaussian limit")
    # A pass_seeds above env_seeds asks for more passing fields than there are.
    for ref, key, word, holds in (("p_low", "p_high", ">=", operator.ge), ("n_lo", "n_hi", ">", operator.gt),
                                  ("env_seeds", "pass_seeds", "<=", operator.le)):
        if key in values and not holds(values[key], values[ref]):
            lineno = max(lines.get(name, (0,))[0] for name in (ref, key))
            raise ConfigError(f"line {lineno}: {key}: must be {word} {ref} = {values[ref]}, got {values[key]}")
    if "time_points" in values:  # fclt_check reads B(t) at int64 step floor(t / epsilon)
        lineno = max(lines.get(name, (0,))[0] for name in ("epsilon", "time_points"))
        eps, seen = values["epsilon"], {}
        for t in values["time_points"]:
            if t / eps > _INT64_MAX:
                raise ConfigError(f"line {lineno}: time_points: {t} falls in step floor(t / epsilon) >= 2**63 "
                                  f"at epsilon = {eps}, past an int64 step count")
            k = math.floor(t / eps)
            if k == 0:
                raise ConfigError(f"line {lineno}: time_points: must be >= epsilon = {eps}, got {t}; "
                                  "step 0 has no walk, so B(t) would be the dither alone")
            if k in seen:
                raise ConfigError(f"line {lineno}: time_points: {seen[k]} and {t} fall in one step, "
                                  f"floor(t / epsilon) = {k}, and would test one walk sample twice")
            seen[k] = t
    if "box_eps" in values:  # diffchain's box radius is horizon ** box_eps, or n ** box_eps per n_grid point
        size = "horizon" if "horizon" in values else "n_grid"
        top = max(np.atleast_1d(values[size]))
        try:
            float(top) ** values["box_eps"]
        except OverflowError:
            lineno = max(lines.get(name, (0,))[0] for name in (size, "box_eps"))
            raise ConfigError(f"line {lineno}: box_eps: the box radius {top} ** {values['box_eps']} "
                              "overflows a float") from None
    return ExperimentConfig(experiment, values, text)


def build_model(values: dict, seed: int) -> Environment:
    """Environment template named by the config's model table (values as parse_config checked them)."""
    name = values["model"]
    if name == "dirac-field":
        return make_dirac(seed, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))
    if name == "fixed-lattice":
        return make_lattice_product(seed, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
    fam = UniformPM1(values["p_low"], values["p_high"])
    if name == "finite-range":
        return make_finite_range(seed, 1, values["dependence_range"], fam)
    if name == "level-correlated":
        return make_fully_correlated(seed, 1, fam)
    return make_lattice_product(seed, 1, fam, uniform_offset=bool(values["uniform_offset"]))


def _chunks(n: int) -> list[np.ndarray]:
    return [np.arange(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]


def _pmap(fn, jobs, workers: int) -> list:
    """``[fn(j) for j in jobs]`` on up to ``workers`` threads, capped at the
    CPUs this process may use.  The jobs' work runs in the compiled library,
    whose ctypes calls release the GIL."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(jobs), cpus)
    if workers <= 1:
        return [fn(j) for j in jobs]
    # Imported only here: concurrent.futures loads logging, 5-6 ms of start-up a one-worker run skips.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# --- runners ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _in_se(diff, se):
    """|diff| in standard errors: 0 when diff and se are both 0, inf when only se is."""
    diff = np.abs(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0, 0.0, diff / se)


def _run_moments(env: Environment, v: dict):
    fam = env.family
    vel, vel_se, cov, cov_se = velocity_and_covariance(env, v["env_replicas"], v["walks_per_env"])
    rows = [
        Row("moments", "velocity", value=float(vel[0]), se=float(vel_se[0]), count=v["env_replicas"]),
        Row("moments", "covariance", value=float(cov[0, 0]), se=float(cov_se[0, 0]), count=v["env_replicas"]),
    ]
    verdicts = []
    v_true = float(fam.averaged_mean[0])
    d_true = analysis.limit_variance(env, "velocity")  # the annealed step variance
    verdicts.append(
        Verdict("velocity_within_4se", abs(vel[0] - v_true) <= 4 * vel_se[0],
                float(_in_se(vel[0] - v_true, vel_se[0])), f"|v - {v_true}| <= 4 SE")
    )
    verdicts.append(
        Verdict("covariance_within_4se", abs(cov[0, 0] - d_true) <= 4 * cov_se[0, 0],
                float(_in_se(cov[0, 0] - d_true, cov_se[0, 0])), f"|D - {d_true}| <= 4 SE")
    )
    return rows, verdicts


def _finite(x) -> float | None:
    """``x`` as a float, or None where it is NaN or infinite, which strict
    JSON cannot hold: a mean exit time at a radius with fewer than two exits
    (its capped_fraction row says why), or a verdict's nonzero difference
    over a zero SE."""
    return float(x) if math.isfinite(x) else None


def _scan_rows(section: str, curve) -> list[Row]:
    rows = [
        Row(section, "estimate", grid=float(g), value=_finite(e), se=_finite(s))
        for g, e, s in zip(curve.grid, curve.estimates, curve.standard_errors)
    ]
    if curve.fit is not None:
        rows.append(Row(section, "exponent", value=curve.fit.exponent, note=f"ci=({_fmt(curve.fit.ci_low)},{_fmt(curve.fit.ci_high)})"))
    return rows


def _run_variance_scan(env: Environment, v: dict):
    n_grid = np.sort(np.asarray(v["n_grid"], dtype=np.int64))
    chunks = _pmap(lambda idx: analysis.squared_deviations(env, n_grid, idx, v["mean_method"]),
                   _chunks(v["env_replicas"]), v["workers"])
    curve = analysis.variance_curve(env, n_grid, np.concatenate(chunks))
    rows = _scan_rows("variance", curve)
    verdicts = []
    if v["eta_min"] is not None:
        verdicts.append(_exponent_verdict("eta_at_least", curve, lambda e: e >= v["eta_min"], f">= {v['eta_min']}"))
    if v["eta_max"] is not None:
        verdicts.append(_exponent_verdict("eta_at_most", curve, lambda e: e <= v["eta_max"], f"<= {v['eta_max']}"))
    return rows, verdicts


def _exponent_verdict(name: str, curve, passes, threshold: str) -> Verdict:
    """Whether the curve's fitted exponent ``passes``, the rule that
    ``threshold`` states.  With no fit the verdict fails: its observed value
    is the count of usable grid points, and its threshold names the count a
    fit needs."""
    if curve.fit is None:
        return Verdict(name, False, int(fit_points(curve).sum()),
                       f"{threshold}: a fit needs >= {MIN_FIT_POINTS} usable grid points")
    return Verdict(name, passes(curve.fit.exponent), curve.fit.exponent, threshold)


def _run_phi_decay(env: Environment, v: dict):
    grid = np.asarray(v["x_grid"], dtype=float)
    curve = analysis.estimate_phi(env, grid, v["replicas"])
    rows = _scan_rows("phi", curve)
    verdicts = []
    if 0.0 in grid.tolist():
        j = grid.tolist().index(0.0)
        dev = _in_se(curve.estimates[j] - env.family.drift_variance, curve.standard_errors[j])
        verdicts.append(Verdict("phi0_matches_drift_variance", dev <= 4.0, float(dev), "<= 4 SE"))
    if v["independent_beyond"] is not None:
        far = grid >= v["independent_beyond"]
        devs = _in_se(curve.estimates[far], curve.standard_errors[far])
        if devs.size:
            verdicts.append(Verdict("phi_vanishes_beyond_range", bool((devs <= 4.0).all()),
                                    float(devs.max()), "<= 4 SE beyond range"))
        else:  # observed: the count of x_grid points beyond range
            verdicts.append(Verdict("phi_vanishes_beyond_range", False, 0,
                                    f"<= 4 SE beyond range: needs an x_grid point >= {v['independent_beyond']}"))
    return rows, verdicts


def _run_identity(env: Environment, v: dict):
    rows, verdicts = [], []
    for n in v["n_list"]:
        rep = analysis.variance_identity_check(env, n, v["env_replicas"], v["y_replicas"])
        rows += [
            Row("identity", "lhs", grid=float(n), value=rep.lhs, se=rep.lhs_se),
            Row("identity", "rhs", grid=float(n), value=rep.rhs, se=rep.rhs_se),
            Row("identity", "residual", grid=float(n), value=rep.residual, se=rep.combined_se),
        ]
        if n == 1:
            verdicts.append(Verdict("identity_exact_n1", rep.residual == 0.0, rep.residual, "== 0"))
        else:
            dev = _in_se(rep.residual, rep.combined_se)
            verdicts.append(Verdict(f"identity_within_4se_n{n}", dev <= 4.0, float(dev), "<= 4 combined SE"))
    return rows, verdicts


def _fclt_runs(env: Environment, v: dict, expectations, cov_se_factor: float):
    """The FCLT check on ``env_seeds`` fields, one walk batch per field, under
    each (centering, expected marginals) pair of ``expectations``."""
    centerings = tuple(c for c, _ in expectations)
    per_field = _pmap(lambda s: analysis.fclt_check(env_replica(env, s), v["epsilon"], v["time_points"],
                                                    v["walk_replicas"], centerings),
                      range(v["env_seeds"]), v["workers"])
    thresh, total = v["pass_seeds"], v["env_seeds"]
    rows, verdicts = [], []
    for k, (centering, expect) in enumerate(expectations):
        n_pass, max_cov_dev = 0, 0.0
        for s, reports in enumerate(per_field):
            rep = reports[k]
            n_pass += rep.all_marginals_pass()
            for t, res in rep.tests:
                rows.append(Row(f"fclt_{centering}", "ks_p", grid=t, replica=s, value=res.p_value,
                                note=f"stat={_fmt(res.statistic)}"))
            for s_t, t_t, emp, expd, se in rep.cov_rows:
                max_cov_dev = max(max_cov_dev, float(_in_se(emp - expd, se)))
                rows.append(Row(f"fclt_{centering}", "cov", grid=s_t, replica=s, value=emp, se=se,
                                note=f"t={_fmt(t_t)} expected={_fmt(expd)}"))
        if expect == "pass":
            verdicts.append(Verdict(f"{centering}_marginals_gaussian", n_pass >= thresh, n_pass,
                                    f">= {thresh} of {total} seeds"))
            verdicts.append(Verdict(f"{centering}_cov_within_se", max_cov_dev <= cov_se_factor,
                                    max_cov_dev, f"<= {cov_se_factor} SE"))
        else:
            n_fail = total - n_pass
            verdicts.append(Verdict(f"{centering}_marginals_rejected", n_fail >= thresh, n_fail,
                                    f">= {thresh} of {total} seeds"))
    return rows, verdicts


def _run_fclt(env: Environment, v: dict):
    return _fclt_runs(env, v, ((v["centering"], v["expect_marginals"]),), v["cov_se_factor"])


def _run_max_drift(env: Environment, v: dict):
    n_lo, n_hi = v["n_lo"], v["n_hi"]
    m = v["env_replicas"]
    report = analysis.max_drift_check(env, m, [n_lo, n_hi])
    rows = [
        Row("max_drift", "scaled_max", grid=float(n), replica=i, value=float(report.curves[i, j]))
        for i in range(m)
        for j, n in enumerate(report.n_grid)
    ]
    frac = report.decay_fraction(n_lo, n_hi, v["decay_factor"])
    if v["expect_decay"]:
        verdicts = [Verdict("scaled_max_halves", frac >= v["pass_fraction"], frac,
                            f">= {v['pass_fraction']} of replicas")]
    else:
        verdicts = [Verdict("scaled_max_does_not_halve", frac < v["pass_fraction"], frac,
                            f"< {v['pass_fraction']} of replicas")]
    return rows, verdicts


def _run_ychain_exit(env: Environment, v: dict):
    scan = diffchain.exit_time_scan(env, v["r_grid"], v["replicas"],
                                    step_cap=v["step_cap"], kind=v["kind"])
    rows = _scan_rows("exit_time", scan.curve)
    rows += [
        Row("exit_time", "capped_fraction", grid=float(r), value=float(c))
        for r, c in zip(scan.curve.grid, scan.capped_fraction)
    ]
    m_sym = v["symmetry_replicas"]
    verdicts = []
    for kind in (diffchain.SAME_ENV, diffchain.INDEPENDENT_ENV):
        _, y1 = diffchain.batch_diff_positions(env, 1, np.arange(m_sym), 0, kind, record_steps=[1])
        d = ks_two_sample_distance(y1[0], -y1[0])
        crit = ks_two_sample_critical(m_sym, m_sym, SYMMETRY_ALPHA)
        rows.append(Row("symmetry", f"ks_distance_{kind}", value=d, note=f"critical={_fmt(crit)}"))
        verdicts.append(Verdict(f"first_step_symmetric_{kind}", d < crit, d, f"< {_fmt(crit)}"))
    # The mean exit time at a radius with capped replicas is censored, so a
    # slope fitted through it fails, naming the first such radius.
    capped = [(r, c) for r, c, fitted in zip(scan.curve.grid, (scan.exit_steps < 0).sum(axis=1),
                                             fit_points(scan.curve)) if fitted and c]

    def slope_verdict(name, passes, threshold):
        if not capped:
            return _exponent_verdict(name, scan.curve, passes, threshold)
        r, c = capped[0]
        return Verdict(name, False, int(c), f"{threshold}: every replica must exit a fitted radius, "
                                            f"and {c} capped at r = {_fmt(r)}")

    verdicts.append(slope_verdict("exit_slope_in_window", lambda sl: v["slope_min"] <= sl <= v["slope_max"],
                                  f"in [{v['slope_min']}, {v['slope_max']}]"))
    verdicts.append(slope_verdict("exit_slope_below_envelope", lambda sl: sl <= v["slope_envelope"],
                                  f"<= {v['slope_envelope']}"))
    return rows, verdicts


def _run_ychain_excursion(env: Environment, v: dict):
    scan = diffchain.excursion_scan(env, v["horizon"], v["box_eps"], v["replicas"], kind=v["kind"])
    rows = [
        Row("excursion", "survival", grid=float(a), value=float(sv), se=float(se))
        for a, sv, se in zip(scan.survival_curve.grid, scan.survival_curve.estimates,
                             scan.survival_curve.standard_errors)
    ]
    rows.append(Row("excursion", "tail_exponent", value=scan.tail_exponent,
                    note=f"ci=({_fmt(scan.tail_ci[0])},{_fmt(scan.tail_ci[1])})"))
    rows.append(Row("excursion", "complete_count", value=float(scan.lengths.size),
                    count=scan.n_incomplete, note="count column = incomplete"))
    verdicts = [Verdict("excursion_tail_exponent", v["tail_min"] <= scan.tail_exponent <= v["tail_max"],
                        scan.tail_exponent, f"in [{v['tail_min']}, {v['tail_max']}]")]
    return rows, verdicts


def _run_occupation(env: Environment, v: dict):
    curve = diffchain.occupation_time(env, v["n_grid"], v["box_eps"], v["replicas"], kind=v["kind"])
    verdict = _exponent_verdict("occupation_sublinear", curve, lambda e: e < v["eta_prime_max"],
                                f"< {v['eta_prime_max']}")
    return _scan_rows("occupation", curve), [verdict]


def _run_counterexample(env: Environment, v: dict):
    """One walk batch per field, centered twice: velocity centering must fail, quenched-mean centering pass."""
    return _fclt_runs(env, v, (("velocity", "fail"), ("quenched_mean", "pass")), _COV_SE_FACTOR.default)


# --- the experiment table ---------------------------------------------------


_COMMON_KEYS = {
    "model": Key("mixing-lattice", MODELS),
    "seed": Key(20100308, int, lo=0, hi=2**64 - 1),
    "workers": Key(1, int, lo=1),
    "p_low": Key(0.0, float, lo=0, hi=1),
    "p_high": Key(1.0, float, lo=0, hi=1),
    "dependence_range": Key(1.0, float, lo=MIN_DEPENDENCE_RANGE),
    "uniform_offset": Key(1, int, lo=0, hi=1),
}
_KIND = Key(diffchain.SAME_ENV, (diffchain.SAME_ENV, diffchain.INDEPENDENT_ENV))
_BOX_EPS = Key(0.2, float, above=0)
# fclt's covariance band, which the counterexample applies without the key
_COV_SE_FACTOR = Key(5.0, float, lo=0)
# the rescaled-walk keys of fclt and counterexample; fclt_check needs 1/epsilon >= 64
_WALK_KEYS = {
    "epsilon": Key(2.0**-10, float, above=0, hi=2.0**-6),
    "time_points": Key([0.25, 0.5, 1.0], float, many=True, above=0),
    "walk_replicas": Key(10000, int, lo=50),  # the KS test needs 50 samples
    "env_seeds": Key(10, int, lo=1),
    "pass_seeds": Key(8, int, lo=0),
}

# experiment -> (runner, its keys besides _COMMON_KEYS)
_TABLE = {
    "moments": (_run_moments, {"env_replicas": Key(100000, int, lo=2), "walks_per_env": Key(1, int, lo=1)}),
    "variance-scan": (_run_variance_scan, {
        "n_grid": Key([2**k for k in range(4, 13)], int, many=True, lo=1),
        "env_replicas": Key(1000, int, lo=2),
        "mean_method": Key("exact", ("exact", "mc")),
        "eta_min": Key(None, float),
        "eta_max": Key(None, float),
    }),
    "phi-decay": (_run_phi_decay, {
        "x_grid": Key([0, 1, 2, 3, 4, 6, 8], float, many=True, above=-MAX_COORDINATE, below=MAX_COORDINATE),
        "replicas": Key(20000, int, lo=2),
        "independent_beyond": Key(None, float),
    }),
    "identity-check": (_run_identity, {
        "n_list": Key([1, 4, 8], int, many=True, lo=1),
        "env_replicas": Key(4000, int, lo=2),
        "y_replicas": Key(4000, int, lo=1),
    }),
    "fclt": (_run_fclt, {
        **_WALK_KEYS,
        "centering": Key("velocity", analysis.CENTERINGS),
        "expect_marginals": Key("pass", ("pass", "fail")),
        "cov_se_factor": _COV_SE_FACTOR,
    }),
    "max-drift": (_run_max_drift, {
        "n_lo": Key(2**6, int, lo=1),
        "n_hi": Key(2**12, int, lo=1),
        "env_replicas": Key(10, int, lo=1),
        "decay_factor": Key(0.5, float, lo=0),
        "expect_decay": Key(1, int, lo=0, hi=1),
        "pass_fraction": Key(0.8, float, lo=0, hi=1),
    }),
    "ychain-exit": (_run_ychain_exit, {
        "r_grid": Key([4, 8, 16, 32], float, many=True, above=0),
        "replicas": Key(4000, int, lo=2),
        "step_cap": Key(1000000, int, lo=1),
        "kind": _KIND,
        "slope_min": Key(1.6, float),
        "slope_max": Key(2.4, float),
        "slope_envelope": Key(13.0, float),
        "symmetry_replicas": Key(10000, int, lo=_MIN_SYMMETRY_REPLICAS),
    }),
    "ychain-excursion": (_run_ychain_excursion, {
        "horizon": Key(2**14, int, lo=1),
        "box_eps": _BOX_EPS,
        "replicas": Key(1500, int, lo=1),
        "kind": _KIND,
        "tail_min": Key(0.35, float),
        "tail_max": Key(0.65, float),
    }),
    "occupation": (_run_occupation, {
        "n_grid": Key([2**k for k in range(4, 15)], int, many=True, lo=1),
        "box_eps": _BOX_EPS,
        "replicas": Key(1000, int, lo=2),
        "kind": _KIND,
        "eta_prime_max": Key(1.0, float),
    }),
    "counterexample": (_run_counterexample, {"model": Key("level-correlated", MODELS), **_WALK_KEYS}),
}

EXPERIMENTS = tuple(_TABLE)


def run(config: ExperimentConfig, seed: int | None = None, workers: int | None = None) -> ExperimentReport:
    """Execute one experiment; the report is a pure function of (config, seed).

    ``seed`` and ``workers`` override the config's values and are checked
    against the same keys.
    """
    values = dict(config.values)
    for name, override in (("seed", seed), ("workers", workers)):
        if override is not None:
            values[name] = _COMMON_KEYS[name].parse(name, str(override))
    env = build_model(values, values["seed"])
    rows, verdicts = _TABLE[config.experiment][0](env, values)
    resolved = {k: v for k, v in sorted(values.items()) if k != "workers"}
    return ExperimentReport(config.experiment, config.text, resolved, __version__, tuple(rows), tuple(verdicts))


# --- emission ---------------------------------------------------------------


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
        "rows": [vars(r) for r in report.rows],  # a Row's fields; asdict would deep-copy each
        "verdicts": [
            {"name": v.name, "passed": bool(v.passed), "observed": _finite(v.observed), "threshold": v.threshold}
            for v in report.verdicts
        ],
        "passed": bool(report.passed),
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default, allow_nan=False) + "\n"


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
