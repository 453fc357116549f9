import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from katoflow import cli, potentials, spaces


def run(args):
    return cli.main(args)


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert run(["fk", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "o")]) == 2


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_grid": 0.5}))
    assert run(["fk", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("suite,override", [
    ("fk", "n_paths=true"),
    ("fk", 'grid_step="abc"'),
    ("molecule", 'calibrate="no"'),
    ("fk", "grid_step=0"),
    ("fk", "grid_step=-0.1"),
    ("fk", "n_paths=0"),
    ("theorem", "n_paths=0"),
    ("khashminskii", "n_paths=0"),
    ("molecule", "n_paths=0"),
    ("khashminskii", "steps=0"),
    ("couple", "n_runs=0"),
    ("duhamel", "step_ladder=[0]"),
    ("couple", "separation=0"),
    ("kato", "t_grid=[]"),
    ("theorem", "t_grid=[]"),
    ("couple", "t_grid=[]"),
    ("kernel-checks", "t_grid=[]"),
    ("molecule", "alpha_grid=[]"),
    ("fk", "t_grid=[]"),
    ("duhamel", "step_ladder=[]"),
    ("kato", "classify_t_grid=[]"),
    ("kato", "classify_t_grid=[0.5]"),  # a slope needs two times
    ("theorem", "K=1"),  # K is the space's Ricci lower bound
    ("kato", 't_grid=["a"]'),
    ("fk", "x=[0, null]"),
])
def test_mistyped_override_exits_2(tmp_path, capsys, suite, override):
    assert run([suite, "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", override]) == 2
    assert not (tmp_path / "o").exists()
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("suite,override", [
    ("kato", "classify_t_grid=[0.5]"),
    ("molecule", "classify_t_grid=[0.5]"),
    ("kato", 't_grid=["a"]'),
    ("molecule", "calibration_t=[0.5, true]"),
])
def test_list_errors_exit_2_before_any_suite_runs(tmp_path, monkeypatch, suite, override):
    def refuse(*_args):
        raise AssertionError("a suite ran on a config that fails validation")

    monkeypatch.setattr(cli, "run_suite", refuse)
    assert run([suite, "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", override]) == 2
    assert not (tmp_path / "o").exists()


def _strict_json_lines(path):
    """Every line of an ndjson file, parsed with NaN and Infinity refused."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return [json.loads(line, parse_constant=refuse)
            for line in path.read_text().splitlines()]


def test_kato_records_are_strict_json(tmp_path):
    """Hydrogen at alpha = 1 has infinite certificate values; they are
    written as the string "inf", never as a bare Infinity."""
    out = tmp_path / "o"
    assert run(["kato", "--seed", "1", "--out", str(out),
                "--set", 'potential={"type":"hydrogen"}',
                "--set", "alpha_grid=[0.5,1.0]"]) == 0
    records = _strict_json_lines(out / "records.ndjson")
    assert "inf" in json.dumps(records)


_MOLECULE = ('potential={"type":"molecular","m":2,"nuclei":'
             '[{"R":[0,0,0],"Z":2},{"R":[1,0,0],"Z":1}]}')


@pytest.mark.parametrize("overrides", [
    ['potential={"type":"bump"}'],  # reference: the sup-norm upper bound
    ['potential={"type":"constant","c":0.7,"dim":3}'],  # weights without spread
    [_MOLECULE, "alpha_grid=[0.5]"],  # reference: the triangle-inequality bound
])
def test_kato_monte_carlo_verdicts_hold_on_correct_code(tmp_path, overrides):
    args = ["kato", "--seed", "1", "--out", str(tmp_path / "o"),
            "--set", "mc_samples=5000"]
    for item in overrides:
        args += ["--set", item]
    assert run(args) == 0


def test_kato_monte_carlo_one_sided_check_catches_an_overestimate(tmp_path,
                                                                  monkeypatch):
    exact = potentials.kato_integral

    def inflated(V, alpha, t, method="auto", **kwargs):
        cert = exact(V, alpha, t, method=method, **kwargs)
        if method == "monte_carlo":
            cert.bound *= 1.5
        return cert

    monkeypatch.setattr(potentials, "kato_integral", inflated)
    assert run(["kato", "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", 'potential={"type":"bump"}',
                "--set", "mc_samples=5000"]) == 1


def test_missing_seed_exits_2(tmp_path):
    assert run(["fk", "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run(["fk", "--config", str(tmp_path / "nope.json"), "--seed", "1",
                "--out", str(tmp_path / "o")]) == 2


def test_fk_zero_potential_exit_zero(tmp_path):
    out = tmp_path / "o"
    assert run(["fk", "--seed", "3", "--out", str(out)]) == 0
    rows = (out / "fk_results.csv").read_text().strip().splitlines()
    assert rows[0].startswith("x,t,value,stderr,n_paths,epsilon,grid_step,seed")
    assert ",1.0," in rows[1] and rows[1].endswith("holds")


def test_couple_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["couple", "--seed", "11", "--set", "n_runs=20000",
            "--set", "t_grid=[0.25,1.0]"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("couple_results.csv", "couple_equivalence_results.csv",
                 "couple_marginals_results.csv", "records.ndjson"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "couple_results.csv").read_text().splitlines()[0]
    assert header == ("strategy,d,separation,t,p_tau_gt_t,stderr,"
                      "tv_supB,half_L1,verdict")


def test_worker_count_invariance(tmp_path):
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    args = ["couple", "--seed", "5", "--set", "n_runs=20000"]
    assert run(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert run(args + ["--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "couple_results.csv").read_bytes() == (
        out8 / "couple_results.csv"
    ).read_bytes()
    assert (out1 / "records.ndjson").read_bytes() == (
        out8 / "records.ndjson"
    ).read_bytes()


def test_report_empty_directory_exits_2(tmp_path):
    assert run(["report", str(tmp_path)]) == 2


def test_report_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["fk", "--seed", "3", "--out", str(out)]) == 0
    assert run(["report", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    with open(out / "records.ndjson", "a") as fh:
        fh.write(json.dumps({
            "record": "bound_report", "suite": "fk", "bound_name": "fake",
            "theoretical_value": 0.0, "empirical_value": 1.0,
            "verdict": "violated",
        }) + "\n")
    assert run(["report", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _sphere_moment_rows(out):
    with open(out / "moments_results.csv", newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["space"] == "sphere2(1)"]


def test_sphere_moment_rows_catch_a_sampler_at_the_wrong_time(tmp_path, monkeypatch):
    """The sphere rows test the exact E[d^2]; a sampler run at 1.1 t fails them.
    Below the certified range (t = 5e-4) only monotonicity is checked."""
    args = ["moments", "--seed", "4", "--set", "dims=[1]",
            "--set", "t_grid=[0.25, 1.0, 5e-4]"]
    assert run(args + ["--out", str(tmp_path / "ok")]) == 0
    rows = _sphere_moment_rows(tmp_path / "ok")
    assert [float(r["t"]) for r in rows] == [1.0, 0.25, 5e-4]
    assert [math.isfinite(float(r["expected"])) for r in rows] == [True, True, False]

    exact = spaces.StateSpace.sample_transition_batch

    def late(self, t, x, n, rng):
        return exact(self, 1.1 * t if self.kind == "sphere2" else t, x, n, rng)

    monkeypatch.setattr(spaces.StateSpace, "sample_transition_batch", late)
    assert run(args + ["--out", str(tmp_path / "late")]) == 1
    assert [r["verdict"] for r in _sphere_moment_rows(tmp_path / "late")] == [
        "violated", "violated", "holds"
    ]


def test_set_override_requires_key_value(tmp_path):
    assert run(["fk", "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", "garbage"]) == 2


def test_duhamel_suite_verdicts(tmp_path):
    out = tmp_path / "o"
    assert run(["duhamel", "--seed", "1", "--out", str(out)]) == 0
    lines = (out / "duhamel_results.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 refinement rows


def test_timestamp_confined_to_meta(tmp_path):
    out = tmp_path / "o"
    assert run(["fk", "--seed", "3", "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert "created_utc" in meta
    results = (out / "fk_results.csv").read_text()
    ndjson = (out / "records.ndjson").read_text()
    assert meta["created_utc"] not in results
    assert meta["created_utc"] not in ndjson


@pytest.mark.slow
def test_all_suites_smoke(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "couple": {"n_runs": 15000, "t_grid": [0.25, 1.0]},
        "moments": {"n_samples": 15000},
        "kato": {"mc_samples": 20000},
        "fk": {},
        "kernel-checks": {"n_ks": 15000},
        "khashminskii": {"n_paths": 15000},
        "theorem": {"n_paths": 1500, "t_grid": [0.5]},
        "molecule": {"n_paths": 1500},
        "holder": {"t_grid": [0.5, 1.0]},
        "duhamel": {},
    }))
    out = tmp_path / "o"
    assert run(["all", "--config", str(cfg), "--seed", "9",
                "--out", str(out)]) == 0
    assert run(["report", str(out)]) == 0
    # each table's header is its row of the README's column table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = dict(re.findall(r"^\| `(\w+)` \| `([\w,]+)` \|$", readme, re.M))
    headers = {path.name[:-len("_results.csv")]: path.read_text().splitlines()[0]
               for path in out.glob("*_results.csv")}
    assert len(headers) == 13
    assert headers == documented
    assert len(_strict_json_lines(out / "records.ndjson")) > 0


@pytest.mark.parametrize("suites,config", [
    ("kato,duhamel", {"duhamel": {"step_ladder": "x"}}),
    ("kato,no-such-suite", {}),
    ("kato,duhamel", {"duhamel": {"step_ladder": [0]}}),  # raised while computing
    ("kato,duhamel", {"seed": 5}),  # run options are flags, not config keys
])
def test_all_checks_every_suite_before_running(tmp_path, capsys, suites, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run(["all", "--config", str(cfg), "--suites", suites, "--seed", "1",
                "--out", str(out)]) == 2
    assert not out.exists()
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs every run ~0.6 s; only the KS checks import it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, katoflow.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
