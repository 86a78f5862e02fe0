"""NetworkConfig validation, config-file parsing and the setting table."""
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cbsim.cli import main
from cbsim.config import (NetworkConfig, config_schema, network_config_from_values,
                          parse_config_file)
from cbsim.errors import ConfigurationError
from cbsim.experiments import COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"
#: The config-file keys and sim flags; a change to either set is a change to
#: the command line and the file format that users write against.
KEYS = {"M", "N", "K", "Nt", "pmax", "gamma_db", "L_in_max", "L_out_max", "lambda_min",
        "inner_tol", "outer_tol", "trials", "seed", "algos", "init", "refs", "workers",
        "qbits", "k_list", "nt_list", "out", "timestamp"}
FLAGS = {"--config", "--seed", "--trials", "--algo", "--init", "--refs", "--gamma-db",
         "--workers", "--out", "--no-timestamp", "--dump-prefix"}


def help_text(capsys) -> str:
    with pytest.raises(SystemExit):
        main(["snr_sweep", "--help"])
    return capsys.readouterr().out


def test_defaults_match_documented_values():
    config = NetworkConfig()
    assert (config.M, config.N, config.K, config.Nt) == (3, 3, 3, 3)
    assert config.gamma_db == 30.0
    assert config.L_in_max == 40
    assert config.L_out_max == 4
    assert config.lambda_min == 1e-10
    assert np.allclose(config.weights, 1.0 / 9.0)
    assert config.assignment.all()


def test_sigma2_from_gamma():
    config = NetworkConfig(Pmax=2.0, gamma_db=30.0)
    assert config.sigma2 == pytest.approx(2.0e-3)


@pytest.mark.parametrize("field,value", [
    ("M", 0), ("N", 0), ("K", 0), ("Nt", 0), ("Pmax", -1.0),
    ("lambda_min", 0.0), ("L_in_max", 0),
    # values that hang a solve or silently give nonsense
    ("Pmax", np.inf), ("Pmax", np.nan), ("gamma_db", np.nan), ("gamma_db", -np.inf),
    ("lambda_min", np.inf), ("lambda_min", np.nan), ("inner_tol", -1.0),
    ("inner_tol", np.nan), ("outer_tol", -1e-4), ("outer_tol", np.nan),
    ("L_in_max", 2.5), ("L_out_max", 1.0), ("L_in_max", True), ("L_out_max", False),
    ("M", True), ("Nt", np.True_),
])
def test_invalid_scalars_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        NetworkConfig(**{field: value})


def test_negative_weights_rejected():
    with pytest.raises(ConfigurationError):
        NetworkConfig(M=1, N=1, K=1, Nt=1, weights=np.array([[[-0.1]]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(value):
    with pytest.raises(ConfigurationError, match="weights must be finite"):
        NetworkConfig(M=1, N=1, K=1, Nt=1, weights=np.array([[[value]]]))


def test_config_file_with_an_infinite_value_fails_naming_the_key(tmp_path):
    for line, key in (("lambda_min = inf", "lambda_min"), ("pmax = inf", "Pmax"),
                      ("outer_tol = nan", "outer_tol")):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match=key):
            network_config_from_values(parse_config_file(path))


def test_wrong_shape_assignment_rejected():
    with pytest.raises(ConfigurationError):
        NetworkConfig(M=2, N=2, K=2, Nt=2, assignment=np.ones((2, 2), dtype=bool))


def test_user_id_mapping():
    config = NetworkConfig(M=2, K=3, N=1, Nt=1)
    assert config.user_id(0, 0) == 0
    assert config.user_id(1, 2) == 5
    assert config.n_users == 6


def test_parse_empty_file_gives_paper_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but a comment\n\n")
    values = parse_config_file(path)
    assert values == {}
    config = network_config_from_values(values)
    assert (config.M, config.N, config.K, config.Nt) == (3, 3, 3, 3)
    assert config.gamma_db == 30.0


def test_parse_gamma_list(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("gamma_db = 10,30,50\n")
    values = parse_config_file(path)
    assert values["gamma_db"] == (10.0, 30.0, 50.0)


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bandwidth = 20\n")
    with pytest.raises(ConfigurationError, match="bandwidth"):
        parse_config_file(path)


def test_parse_names_malformed_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("trials = soon\n")
    with pytest.raises(ConfigurationError, match="trials"):
        parse_config_file(path)


def test_zero_users_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("K = 0\n")
    with pytest.raises(ConfigurationError):
        network_config_from_values(parse_config_file(path))


def test_parse_full_file(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text("""
# experiment setup
M = 2
K = 2 # users
Nt = 2
gamma_db = 20
trials = 7
algos = cm, icbf
seed = 123
out = a#b.csv  # note
""")
    values = parse_config_file(path)
    config = network_config_from_values(values)
    assert config.M == 2 and config.K == 2
    assert values["algos"] == ("cm", "icbf")
    assert values["trials"] == 7
    assert values["out"] == "a#b.csv"


def test_with_gamma_db_copies_arrays():
    base = NetworkConfig()
    other = base.with_gamma_db(50.0)
    assert other.gamma_db == 50.0
    other.weights[0, 0, 0] = 99.0
    assert base.weights[0, 0, 0] == pytest.approx(1.0 / 9.0)


def test_duplicate_key_fails_naming_it_and_both_lines(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("seed = 1\nK = 2\n# a comment\nseed = 2\n")
    with pytest.raises(ConfigurationError, match=r":4: key 'seed' was already set on line 1"):
        parse_config_file(path)


def flags_of(text: str) -> set:
    return set(re.findall(r"--[a-z][a-z-]*", text))


def test_keys_and_flags_are_the_documented_sets(capsys):
    assert set(config_schema()) == KEYS
    assert flags_of(help_text(capsys).split("options:")[0]) == FLAGS


def test_help_takes_defaults_from_the_fields(capsys):
    text = " ".join(help_text(capsys).split())
    for shown in ("Monte-Carlo trials (default 100)", "solver starting point (default mslnr)",
                  "(default cm,zf,mslnr,icbf,icbf_wi,cb_refim)", "(default 30.0)"):
        assert shown in text


def test_readme_lists_every_key_and_flag(capsys):
    text = README.read_text()
    keys = re.search(r"Recognized keys: `([^`]*)`", text).group(1)
    assert set(keys.split()) == set(config_schema())
    synopsis = re.search(r"```\nsim <experiment>(.*?)```", text, re.S).group(1)
    assert flags_of(synopsis) == flags_of(help_text(capsys).split("options:")[0])
    table = re.findall(r"^\| `(\w+)` +\| `([^`]*)`", text, re.M)
    assert {kind: tuple(columns.split(", ")) for kind, columns in table} == COLUMNS
    assert len(table) == len(COLUMNS)


def test_import_leaves_the_command_line_unloaded(tmp_path):
    """A one-process run loads neither the command line, nor scipy, nor the
    process pool: one trial of snr_sweep and one of feedback at workers=1."""
    code = textwrap.dedent("""
        import sys
        from cbsim import ExperimentSpec, NetworkConfig, run_experiment
        for kind in ("snr_sweep", "feedback"):
            run_experiment(NetworkConfig(), ExperimentSpec(
                kind=kind, trials=1, workers=1, timestamp=False, out=f"{sys.argv[1]}/{kind}.csv"))
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m in (
            "multiprocessing", "concurrent.futures.process", "cbsim.cli")]
        assert not loaded, loaded
    """)
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True, env=env)
