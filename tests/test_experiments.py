import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envwalk import streams
from envwalk.cli import main as cli_main
from envwalk.experiments import (
    EXPERIMENTS,
    MODELS,
    ConfigError,
    emit,
    parse_config,
    report_json,
    run,
)


def test_parse_types_and_defaults():
    cfg = parse_config("experiment = variance-scan\nn_grid = 4, 8, 16, 32\nenv_replicas = 50\n")
    assert cfg.experiment == "variance-scan"
    assert cfg.values["n_grid"] == [4, 8, 16, 32]
    assert cfg.values["env_replicas"] == 50
    assert cfg.values["seed"] == 20100308  # documented default
    assert cfg.values["mean_method"] == "exact"


def test_parse_comments_and_floats():
    cfg = parse_config("# a comment\nexperiment = fclt\nepsilon = 0.0009765625  # 2^-10\n")
    assert cfg.values["epsilon"] == 2.0**-10


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="replicsa"):
        parse_config("experiment = phi-decay\nreplicsa = 100\n")


def test_unknown_experiment_and_model_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment = nonsense\n")
    with pytest.raises(ConfigError, match="unknown model"):
        parse_config("experiment = moments\nmodel = nonsense\n")


def test_missing_experiment_and_bad_lines():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("model = mixing-lattice\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment = moments\njust some words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment = moments\nseed = 1\nseed = 2\n")


@pytest.mark.parametrize(
    "experiment, line",
    [
        ("moments", "env_replicas = 1"),
        ("variance-scan", "env_replicas = 1"),
        ("phi-decay", "replicas = 1"),
        ("moments", "walks_per_env = 0"),
        ("moments", "seed = 1.5"),
        ("fclt", "epsilon = abc"),
        ("fclt", "walk_replicas = 49"),
        ("counterexample", "walk_replicas = 10"),
        ("fclt", "expect_marginals = fial"),
        ("occupation", "kind = same"),
        ("variance-scan", "dependence_range = 1e-18"),
        ("occupation", "dependence_range = 1e-300"),
    ],
)
def test_bad_value_rejected_by_line_and_key(experiment, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"^line 2: {key}: "):
        parse_config(f"experiment = {experiment}\n{line}\n")


def _text(value) -> str:
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_default_round_trips(experiment):
    defaults = parse_config(f"experiment = {experiment}\n").values
    for key, value in defaults.items():
        if value is None:  # optional: absent unless given
            continue
        parsed = parse_config(f"experiment = {experiment}\n{key} = {_text(value)}\n").values[key]
        assert repr(parsed) == repr(value), key


_KEYS = {e: sorted(parse_config(f"experiment = {e}\n").values) + ["bogus"] for e in EXPERIMENTS}
_WORDS = (*EXPERIMENTS, *MODELS, "exact", "mc", "velocity", "quenched_mean", "pass", "fail", "same_env", "independent_env")
_VALUE = st.one_of(
    st.sampled_from(_WORDS),
    st.integers(0, 64).map(str),
    st.floats(0, 1).map(repr),
    st.one_of(st.integers(-(2**70), 2**70).map(str), st.floats().map(repr), st.text(max_size=6)),
)


@st.composite
def _config_text(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    lines = [f"experiment = {experiment}"]
    for key in draw(st.lists(st.sampled_from(_KEYS[experiment]), max_size=4, unique=True)):
        lines.append(f"{key} = {', '.join(draw(st.lists(_VALUE, min_size=1, max_size=2)))}")
    lines += draw(st.lists(st.sampled_from(["", "# note"]), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=500)
@given(st.one_of(st.text(), _config_text()))
def test_any_text_parses_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # what parses is typed: each value reads back unchanged
    for key, value in cfg.values.items():
        if value is not None:
            again = parse_config(f"experiment = {cfg.experiment}\n{key} = {_text(value)}\n").values[key]
            assert repr(again) == repr(value)


SMALL_VARIANCE = "experiment = variance-scan\nn_grid = 16, 32, 64, 128\nenv_replicas = 300\n"


def test_run_is_deterministic():
    cfg = parse_config(SMALL_VARIANCE)
    a = report_json(run(cfg))
    b = report_json(run(cfg))
    assert a == b


def test_workers_do_not_change_report():
    cfg = parse_config(SMALL_VARIANCE)
    a = report_json(run(cfg, workers=1))
    b = report_json(run(cfg, workers=4))
    assert a == b


def test_seed_override_changes_report():
    cfg = parse_config(SMALL_VARIANCE)
    a = report_json(run(cfg))
    b = report_json(run(cfg, seed=777))
    assert a != b
    assert json.loads(b)["resolved"]["seed"] == 777
    with pytest.raises(ConfigError, match="^seed: must be <= 18446744073709551615"):
        run(cfg, seed=2**64)


def test_report_carries_config_and_metadata(tmp_path):
    cfg = parse_config(SMALL_VARIANCE)
    report = run(cfg)
    doc = json.loads(report_json(report))
    assert doc["config_text"] == SMALL_VARIANCE
    assert doc["resolved"]["seed"] == 20100308
    assert doc["artifact"]["name"] == "envwalk"
    grids = [r["grid"] for r in doc["rows"] if r["name"] == "estimate"]
    assert grids == [16.0, 32.0, 64.0, 128.0]


def test_emit_json_and_csv(tmp_path):
    cfg = parse_config("experiment = moments\nenv_replicas = 5000\n")
    report = run(cfg)
    paths = emit(report, "json", tmp_path)
    assert paths[0].name == "moments_report.json"
    doc = json.loads(paths[0].read_text())
    assert doc["experiment"] == "moments"
    paths = emit(report, "csv", tmp_path)
    rows, verdicts = (p.read_text() for p in paths)
    assert rows.splitlines()[0] == "experiment,section,name,grid,replica,value,se,count,note"
    assert verdicts.splitlines()[0] == "experiment,name,passed,observed,threshold"
    assert len(rows.splitlines()) == len(report.rows) + 1


def test_counterexample_report_contains_both_verdicts():
    cfg = parse_config(
        "experiment = counterexample\nwalk_replicas = 1500\nenv_seeds = 3\npass_seeds = 2\n"
    )
    report = run(cfg)
    names = {v.name for v in report.verdicts}
    assert "velocity_marginals_rejected" in names
    assert "quenched_mean_marginals_gaussian" in names
    assert report.resolved["model"] == "level-correlated"


def test_cli_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("experiment = moments\nenv_replicas = 5000\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "moments_report.json" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = moments\nbogus_key = 1\n")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "bogus_key" in capsys.readouterr().err

    # a value outside its key's bounds is an input error, not a NaN verdict
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("experiment = moments\nenv_replicas = 1\n")
    assert cli_main(["--config", str(tiny), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: env_replicas")
    fine = tmp_path / "fine.cfg"
    fine.write_text("experiment = occupation\nmodel = finite-range\ndependence_range = 1e-18\n")
    assert cli_main(["--config", str(fine), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: dependence_range: must be >= 9.5367431640625e-07")

    # one value on a list key is a list of one
    single = tmp_path / "single.cfg"
    single.write_text("experiment = identity-check\nn_list = 4\nenv_replicas = 300\ny_replicas = 300\n")
    assert cli_main(["--config", str(single), "--out", str(tmp_path)]) == 0
    assert "identity_within_4se_n4" in capsys.readouterr().out

    # an impossible verdict: eta of the mixing model is ~0.5, demand >= 2
    failing = tmp_path / "fail.cfg"
    failing.write_text(
        "experiment = variance-scan\nn_grid = 16, 32, 64, 128\nenv_replicas = 200\neta_min = 2.0\n"
    )
    assert cli_main(["--config", str(failing), "--out", str(tmp_path)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("model", MODELS)
def test_p_low_above_p_high_rejected(model, tmp_path, capsys):
    text = f"experiment = moments\nmodel = {model}\np_high = 0.2\np_low = 0.9\n"
    with pytest.raises(ConfigError, match=r"^line 4: p_high: must be >= p_low"):
        parse_config(text)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: p_high: must be >= p_low")


# n_hi <= n_lo is rejected at the later of the two lines, like p_low > p_high.
@pytest.mark.parametrize(
    "text, line, n_lo",
    [
        ("experiment = max-drift\nn_lo = 64\nn_hi = 32\n", 3, 64),
        ("experiment = max-drift\nn_hi = 32\nn_lo = 64\n", 3, 64),
        ("experiment = max-drift\nn_hi = 64\n", 2, 64),
        ("n_lo = 16\nexperiment = max-drift\nn_hi = 16\nenv_replicas = 2\n", 3, 16),
    ],
    ids=["n_hi-last", "n_lo-last", "default-n_lo", "equal"],
)
def test_max_drift_n_hi_not_above_n_lo_rejected(text, line, n_lo, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^line {line}: n_hi: must be > n_lo = {n_lo}, got "):
        parse_config(text)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: n_hi: must be > n_lo = {n_lo}, got ")


def test_drifting_field_exact_means_end_in_error(tmp_path, capsys):
    # The dense window is centred at the origin; a drift carries the law out of it.
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(
        "experiment = variance-scan\np_low = 0.6\np_high = 0.9\nn_grid = 16, 32, 64, 128\nenv_replicas = 4\n"
    )
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: exact propagation: step ")
    assert not (tmp_path / "variance-scan_report.json").exists()


# Below a spacing of 2**-20 the finite-range cell floor(x / R + 0.5) of a
# walker leaves int64, where numpy's cast and C's disagree; at 2**-20 they agree.
@pytest.mark.parametrize(
    "text",
    [
        "experiment = variance-scan\nn_grid = 2, 4, 8, 16\nenv_replicas = 20\n",
        "experiment = occupation\nn_grid = 2, 4, 8, 16\nreplicas = 50\n",
    ],
    ids=["variance-scan", "occupation"],
)
def test_finest_finite_range_grid_gives_one_report_on_both_paths(text, monkeypatch):
    config = parse_config(text + "model = finite-range\ndependence_range = 9.5367431640625e-07\n")
    compiled = report_json(run(config))
    monkeypatch.setattr(streams, "_LIB", None)
    assert report_json(run(config)) == compiled


# Dirac-field walks are deterministic given the field: quenched-mean
# centering leaves nothing to be Gaussian, so the config is rejected at the
# later of the two lines that combine it.
@pytest.mark.parametrize(
    "text, line",
    [
        ("experiment = counterexample\nmodel = dirac-field\n", 2),
        ("model = dirac-field\nwalk_replicas = 300\nexperiment = counterexample\n", 3),
        ("experiment = fclt\nmodel = dirac-field\ncentering = quenched_mean\n", 3),
        ("experiment = fclt\ncentering = quenched_mean\nmodel = dirac-field\nenv_seeds = 2\n", 3),
    ],
    ids=["counterexample", "counterexample-experiment-last", "fclt", "fclt-model-last"],
)
def test_quenched_mean_centering_on_dirac_field_rejected(text, line, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^line {line}: model: dirac-field"):
        parse_config(text)
    cfg = tmp_path / "d.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: model: dirac-field")


def test_velocity_centering_on_dirac_field_runs(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(
        "experiment = fclt\nmodel = dirac-field\ncentering = velocity\nexpect_marginals = fail\n"
        "epsilon = 0.015625\nwalk_replicas = 200\nenv_seeds = 2\npass_seeds = 1\n"
    )
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fclt_report.json").exists()


# a nonrandom field has zero standard errors where a random one has none
@pytest.mark.parametrize(
    "text",
    [
        "experiment = identity-check\nmodel = fixed-lattice\nn_list = 1, 4\nenv_replicas = 50\ny_replicas = 50\n",
        "experiment = phi-decay\nmodel = fixed-lattice\nreplicas = 200\n",
        "experiment = phi-decay\nmodel = dirac-field\nreplicas = 200\n",
        "experiment = max-drift\nmodel = fixed-lattice\nn_lo = 16\nn_hi = 64\nenv_replicas = 4\n",
    ],
    ids=["identity-fixed-lattice", "phi-fixed-lattice", "phi-dirac-field", "max-drift-fixed-lattice"],
)
def test_nonrandom_field_verdicts_are_numbers(text, tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(text)
    code = cli_main(["--config", str(cfg), "--out", str(tmp_path)])
    report = next(tmp_path.glob("*_report.json")).read_text()
    assert code != 1
    assert "NaN" not in report
    if "fixed-lattice" in text and "identity-check" not in text:
        assert code == 0


def test_cli_csv_format(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = moments\nenv_replicas = 2000\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path), "--format", "csv"]) == 0
    assert (tmp_path / "moments_rows.csv").exists()
    assert (tmp_path / "moments_verdicts.csv").exists()


def test_csv_schema_ships_with_package():
    import importlib.resources

    text = importlib.resources.files("envwalk").joinpath("csv_schema.txt").read_text()
    for column in ("section", "grid", "replica", "value", "se", "threshold"):
        assert column in text


def test_every_shipped_config_parses(tmp_path):
    from pathlib import Path

    cfg_dir = Path(__file__).parent.parent / "configs"
    names = sorted(p.name for p in cfg_dir.glob("*.cfg"))
    assert len(names) >= 10
    for name in names:
        cfg = parse_config((cfg_dir / name).read_text())
        assert cfg.experiment in name.replace("_", "-") or cfg.experiment.split("-")[0] in name
