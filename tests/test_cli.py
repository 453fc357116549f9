import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import katoflow
from katoflow import bounds, cli, coupling, feynman_kac as fk, functions, potentials, spaces
from katoflow.reports import CATEGORICAL, HOLDS, UPPER, VIOLATED


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
    ("fk", 'potential={"type":"coulomb","attractive":"no"}'),
    ("fk", "grid_step=0"),
    ("fk", "grid_step=-0.1"),
    ("couple", "grid_step=0"),  # the coupling simulators build their own grid
    ("couple", "grid_step=-0.1"),
    ("holder", "t_grid=[-1]"),
    ("duhamel", "t=0"),
    ("kernel-checks", "t_grid=[0]"),
    ("duhamel", "psi_width=0"),
    ("fk", "n_paths=0"),
    ("theorem", "n_paths=0"),
    ("khashminskii", "n_paths=0"),
    ("molecule", "n_paths=0"),
    ("khashminskii", "steps=0"),
    ("couple", "n_runs=0"),
    ("kernel-checks", "n_ks=0"),
    ("kernel-checks", "n_ks=-5"),
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
    ("molecule", "nuclei=[1]"),
    ("molecule", 'nuclei=[{"R":[0,0],"Z":1}]'),
    ("molecule", 'nuclei=[{"R":[0,0,0]}]'),
    ("holder", 'space={"kind":"sphere2","radius":0}'),
    ("holder", 'space={"kind":"sphere2","radius":-1}'),
    ("holder", 'space={"kind":"sphere2","radius":"a"}'),
    ("holder", 'space={"kind":"sphere2","radius":true}'),
    ("holder", 'space={"kind":"euclidean","d":1.9}'),
    ("holder", 'space={"kind":"sphere2","radius":1,"d":3}'),
    ("fk", 'potential={"type":"constant"}'),
    ("fk", 'potential={"type":"constant","c":"a"}'),
    ("fk", 'potential={"type":"coulomb","charge":"a"}'),
    ("fk", 'potential={"type":"molecular"}'),
    ("fk", 'psi={"type":"ball"}'),
    ("fk", 'potential={"type":"zero","dim":true}'),
    ("fk", 'potential={"type":"zero","dim":1,"extra":2}'),
    ("theorem", 'potential={"type":"coulomb","center":[0,0]}'),
    ("theorem", 'phi={"type":"ball","center":[1,1],"radius":1}'),  # 2-d center in R^3
    ("fk", 'psi={"type":"ball","radius":-1}'),
    ("couple", "alpha_grid=[0]"),  # statement (iii) takes alpha in (0, 1]
    ("couple", "alpha_grid=[1.5]"),
])
def test_mistyped_override_exits_2(tmp_path, capsys, suite, override):
    assert run([suite, "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", override]) == 2
    assert not (tmp_path / "o").exists()
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


_NUCLEUS = '[{"R": [0, 0, 0], "Z": 1}]'


@pytest.mark.parametrize("content", [
    None,  # no such file
    '{"m": 1,',  # not JSON
    "[1]",  # not an object
    '{"nuclei": ' + _NUCLEUS + "}",  # no m
    '{"m": 1.5, "nuclei": ' + _NUCLEUS + "}",
    '{"m": true, "nuclei": ' + _NUCLEUS + "}",
    '{"m": 1, "nuclei": ' + _NUCLEUS + ', "extra": 1}',
])
def test_bad_molecule_file_exits_2(tmp_path, capsys, content):
    """A molecule file is read through the schema that --set uses."""
    mol = tmp_path / "mol.json"
    if content is not None:
        mol.write_text(content)
    assert run(["molecule", "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", f"file={mol}"]) == 2
    assert not (tmp_path / "o").exists()
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("suite,override", [
    ("kato", "classify_t_grid=[0.5]"),
    ("molecule", "classify_t_grid=[0.5]"),
    ("kato", 't_grid=["a"]'),
    ("molecule", "alpha_grid=[0.5, true]"),
    ("fk", "grid_step=0"),
    ("fk", "grid_step=1e-310"),  # t / grid_step overflows
    ("khashminskii", "steps=0"),
    ("moments", "dims=[1.5]"),  # a list of integers holds integers
    ("duhamel", "step_ladder=[8.5]"),
    # at most cli._MAX_STEPS path or time steps
    ("fk", "grid_step=1e-9"),
    ("couple", "grid_step=0.000244140625"),  # divides t_grid, 16 384 steps to 4
    ("khashminskii", "steps=100000"),
    ("duhamel", "step_ladder=[8, 100000]"),
    ("molecule", "alpha_grid=[0.5, 1.0]"),  # the molecule is in K^alpha iff alpha < 1
    # json admits NaN and Infinity; no config value may be one
    ("holder", "t_grid=[NaN]"),
    ("moments", "t_grid=[Infinity]"),
    ("fk", 'potential={"type":"constant","c":NaN}'),
    ("molecule", "t=NaN"),
    ("couple", "alpha_grid=[0]"),  # the ladder's statement (iii) needs alpha in (0, 1]
    # a ball center of length 2 against hydrogen's R^3
    ("theorem", 'phi={"type":"ball","center":[1,1],"radius":1}'),
    # a ball center of length 2, and the default start [0.0], against R^1 and R^3
    ("fk", 'psi={"type":"ball","center":[1,1],"radius":1}'),
    ("fk", 'potential={"type":"hydrogen"}'),
])
def test_list_errors_exit_2_before_any_suite_runs(tmp_path, monkeypatch, suite, override):
    def refuse(*_args):
        raise AssertionError("a suite ran on a config that fails validation")

    monkeypatch.setattr(cli, "run_suite", refuse)
    assert run([suite, "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", override]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ['{"fk": {"t_grid": [NaN]}}',
                                  '{"holder": {"alpha_grid": [-Infinity]}}'])
def test_config_file_with_nan_exits_2(tmp_path, monkeypatch, capsys, text):
    """json reads NaN and Infinity from a config file too; they exit 2."""
    def refuse(*_args):
        raise AssertionError("a suite ran on a config that fails validation")

    monkeypatch.setattr(cli, "run_suite", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["all", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "is not a finite number" in capsys.readouterr().err


def test_integer_fields_are_stored_as_ints():
    """An integer given as 1.0 reaches the suite as the int 1, alone or in
    a list whose default holds integers."""
    params = [cli._validate("couple", {"d": 1.0}), cli._validate("moments", {
        "dims": [1.0, 3], "n_samples": 100.0}), cli._validate("duhamel", {
        "step_ladder": [8.0, 16]})]
    values = [params[0]["d"], *params[1]["dims"], params[1]["n_samples"],
              *params[2]["step_ladder"]]
    assert values == [1, 1, 3, 100, 8, 16]
    assert all(type(v) is int for v in values)


def test_an_integer_written_as_a_float_gives_the_same_bytes(tmp_path):
    outs = [tmp_path / n for n in ("int", "float")]
    for out, n_ks in zip(outs, ("12000", "12000.0")):
        assert run(["kernel-checks", "--seed", "1", "--out", str(out),
                    "--set", f"n_ks={n_ks}"]) == 0
    name = "kernel_checks_results.csv"
    assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_rerun_into_the_same_out_rewrites_records_and_meta(tmp_path):
    out = tmp_path / "o"
    for _ in range(2):
        assert run(["fk", "--seed", "1", "--set", "n_paths=500",
                    "--out", str(out)]) == 0
    assert len((out / "records.ndjson").read_text().splitlines()) == 1
    assert len((out / "meta.json").read_text().splitlines()) == 1


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

    fk.khashminskii_certify.cache_clear()
    monkeypatch.setattr(potentials, "kato_integral", inflated)
    code = run(["kato", "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", 'potential={"type":"bump"}',
                "--set", "mc_samples=5000"])
    fk.khashminskii_certify.cache_clear()  # no certificate of the inflated rule lives on
    assert code == 1


def test_missing_seed_exits_2(tmp_path):
    assert run(["fk", "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run(["fk", "--config", str(tmp_path / "nope.json"), "--seed", "1",
                "--out", str(tmp_path / "o")]) == 2


def test_fk_zero_potential_exit_zero(tmp_path):
    out = tmp_path / "o"
    assert run(["fk", "--seed", "3", "--out", str(out)]) == 0
    rows = (out / "fk_results.csv").read_text().strip().splitlines()
    assert rows[0] == ("x,t,n_paths,grid_step,seed,"
                       "measured,reference,stderr,verdict,tightness")
    assert ",1.0," in rows[1] and rows[1].endswith("holds,1.0")


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
    assert header == ("strategy,d,separation,t,measured,reference,stderr,"
                      "verdict,tightness")


def test_couple_runs_one_walk(monkeypatch):
    """The survival rows, the ladder and the marginals all read one mirror
    coupling walk: simulate_reflection_endpoints once, and no taus walk."""
    calls = {"simulate_reflection_taus": 0, "simulate_reflection_endpoints": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(coupling, name, counting(name, getattr(coupling, name)))
    params = cli._validate("couple", {"n_runs": 10000, "t_grid": [0.25, 1.0]})
    checks = cli.run_suite("couple", params, 3)
    assert calls == {"simulate_reflection_taus": 0, "simulate_reflection_endpoints": 1}
    assert {c.table for c in checks} == {"couple", "couple_equivalence",
                                         "couple_marginals"}


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
        fh.write(json.dumps(_planted_check("fake", 1.0, 0.0)) + "\n")
    assert run(["report", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _planted_check(table, measured, reference):
    """A violated upper-bound check record of the fk suite."""
    return {"record": "check", "suite": "fk", "table": table, "parameters": {"t": 0.5},
            "measured": measured, "reference": reference, "stderr": 0.0,
            "sidedness": "upper", "tol": 0.0, "verdict": "violated",
            "tightness": measured / reference if reference else "nan", "details": {}}


def test_report_lists_every_failure_and_the_tightest_check(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["fk", "--seed", "3", "--out", str(out)]) == 0
    with open(out / "records.ndjson", "a") as fh:
        for table, measured in (("first", 1.5), ("second", 2.0)):
            fh.write(json.dumps(_planted_check(table, measured, 1.0)) + "\n")
    assert run(["report", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "fk: FAIL (3 verdicts, 2 bad) tightest second t=0.5: tightness 2" in printed
    assert "  violated: first t=0.5: measured 1.5, reference 1.0" in printed
    assert "  violated: second t=0.5: measured 2.0, reference 1.0" in printed


def _csv_column(path, column, **match):
    with open(path, newline="") as fh:
        return [float(r[column]) for r in csv.DictReader(fh)
                if all(r[k] == v for k, v in match.items())]


def test_rows_draw_independent_samples(tmp_path):
    """Row i of moments and the i-th Monte Carlo row of kato draw from
    substream (seed, i).  One sample shared by the rows would make a
    Brownian second moment at t = 1 exactly 4 times the one at t = 1/4
    (B_t = sqrt(t) B_1), and an alpha = 0 Kato integral exactly 2 times."""
    out = tmp_path / "o"
    assert run(["moments", "--seed", "99", "--out", str(out), "--set", "dims=[1]",
                "--set", "t_grid=[0.25, 1.0]", "--set", "n_samples=10000"]) in (0, 1)
    m_quarter, m_one = _csv_column(out / "moments_results.csv", "measured",
                                   space="euclidean(1)", order="2")
    assert m_one != 4.0 * m_quarter
    assert run(["kato", "--seed", "99", "--out", str(out), "--set", "alpha_grid=[0.0]",
                "--set", "mc_samples=2000"]) in (0, 1)
    k_quarter, k_one = _csv_column(out / "kato_results.csv", "measured",
                                   method="monte_carlo")
    assert k_one != 2.0 * k_quarter


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
    assert [math.isfinite(float(r["reference"])) for r in rows] == [True, True, False]

    exact = spaces.StateSpace.sample_transition_batch

    def late(self, t, x, n, rng):
        return exact(self, 1.1 * t if self.kind == "sphere2" else t, x, n, rng)

    monkeypatch.setattr(spaces.StateSpace, "sample_transition_batch", late)
    assert run(args + ["--out", str(tmp_path / "late")]) == 1
    assert [r["verdict"] for r in _sphere_moment_rows(tmp_path / "late")] == [
        "violated", "violated", "holds"
    ]


def test_holder_on_a_high_curvature_sphere_runs(tmp_path):
    """K = 400 at t = 1 puts e^{2Kt} past the double range; F_K then takes
    its e^{-Kt} form instead of overflowing."""
    out = tmp_path / "o"
    assert run(["holder", "--seed", "1", "--out", str(out),
                "--set", 'space={"kind":"sphere2","radius":0.05}',
                "--set", "t_grid=[1.0]"]) == 0
    with open(out / "holder_results.csv", newline="") as fh:
        caps = {float(r["alpha"]): float(r["reference"]) for r in csv.DictReader(fh)}
    assert caps[1.0] == pytest.approx(20.0 * math.exp(-400.0), rel=1e-12)


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


def _count_exported_calls(monkeypatch):
    """{name: calls} of every function exported by katoflow/__init__.py,
    counted by wrappers bound wherever a katoflow module holds the function."""
    modules = [m for m in vars(katoflow).values() if inspect.ismodule(m)]
    exported = {n: f for n, f in vars(katoflow).items() if inspect.isfunction(f)}
    calls = dict.fromkeys(exported, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in exported.items():
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                monkeypatch.setattr(module, attr, counting(name, fn))
    return calls


@pytest.mark.slow
def test_all_suites_smoke(tmp_path, monkeypatch):
    calls = _count_exported_calls(monkeypatch)
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
    # every exported function serves a suite
    assert [name for name, n in calls.items() if n == 0] == []


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


# the scipy modules a run has loaded, and whether numpy.random is one of the
# modules: numpy loads it on first use, and a run that left it to then would
# pay for it inside its first timed suite
_LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
           "'numpy.random' in sys.modules")


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    """scipy.stats costs a run about 18 MB and 0.4 s, and scipy.special about
    24 MB and 0.19 s more. Neither the CLI import nor the KS checks of
    kernel-checks and couple at the c12 sizes load any scipy module: their
    p-values come from katoflow.special."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, katoflow.cli; print({_LOADED})"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[] True"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel-checks": {"n_ks": 12000},
                               "couple": {"n_runs": 20000, "t_grid": [0.25, 1.0]}}))
    run_ks = ("import sys, katoflow.cli; code = katoflow.cli.main(sys.argv[1:]); "
              f"print(code, {_LOADED})")
    done = subprocess.run(
        [sys.executable, "-c", run_ks, "all", "--suites", "kernel-checks,couple",
         "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "0 [] True"


def test_runs_load_no_scipy_integrate_optimize_linalg_or_sparse(tmp_path):
    """scipy.integrate, which loads scipy.optimize and scipy.sparse with it,
    and scipy.linalg cost every process about 26 MB and 0.3 s of import, and
    katoflow.special stands in for scipy.special. Neither the CLI import nor
    a run of all ten suites loads any scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, katoflow.cli; print({_LOADED})"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[] True"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kernel-checks": {"n_ks": 12000},
        "moments": {"n_samples": 10000},
        "couple": {"n_runs": 10000, "t_grid": [0.25, 1.0]},
        "kato": {"mc_samples": 1000},
        "fk": {"n_paths": 1000},
        "khashminskii": {"n_paths": 1000},
        "duhamel": {},
        "holder": {"t_grid": [0.5]},
        "theorem": {"n_paths": 200, "t_grid": [0.5]},
        "molecule": {"n_paths": 200},
    }))
    run_all = ("import sys, katoflow.cli; code = katoflow.cli.main(sys.argv[1:]); "
               f"print({_LOADED})")
    done = subprocess.run(
        [sys.executable, "-c", run_all, "all", "--config", str(cfg), "--seed", "1",
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, check=True)
    printed = done.stdout.strip().splitlines()
    assert len([line for line in printed if " verdicts, " in line]) == 10
    assert printed[-1] == "[] True"


@pytest.mark.parametrize("grid_step", ["0.3", "5", "1e-310"])
def test_couple_refuses_a_grid_step_off_its_times(tmp_path, monkeypatch, grid_step):
    """couple's tau lies on the grid of grid_step, and {tau > t} is exact only
    at grid times: a step that does not divide every time of t_grid (0.3), one
    beyond the horizon (5), or one so small that t / grid_step overflows, is a
    config error before any suite runs."""
    def refuse(*_args):
        raise AssertionError("a suite ran on a config that fails validation")

    monkeypatch.setattr(cli, "run_suite", refuse)
    assert run(["couple", "--seed", "1", "--out", str(tmp_path / "o"),
                "--set", f"grid_step={grid_step}"]) == 2
    assert not (tmp_path / "o").exists()


def test_couple_default_grid_step_holds(tmp_path):
    out = tmp_path / "o"
    assert run(["couple", "--seed", "1", "--out", str(out), "--set", "n_runs=20000",
                "--set", "grid_step=0.125"]) == 0
    assert (out / "couple_results.csv").exists()


def _corollary_B_row(checks):
    """(index, check) of the molecule table's corollary_B row."""
    return next((i, c) for i, c in enumerate(checks)
                if c.parameters["stage"] == "corollary_B")


def test_molecule_corollary_B_row_is_one_quotient_against_the_explicit_constant(
        monkeypatch):
    """At the c12 config and seed 99, the corollary_B row is the one Monte
    Carlo call of the molecule suite: the unit ball's Hoelder quotient at the
    suite's t and middle alpha, from the row's own substream, against
    2^{1-a}F_K(t)^a + B."""
    calls = []
    measured_holder_quotient_mc = bounds.measured_holder_quotient_mc

    def counted(*args, **kwargs):
        calls.append(args)
        return measured_holder_quotient_mc(*args, **kwargs)

    monkeypatch.setattr(bounds, "measured_holder_quotient_mc", counted)
    checks = cli.run_suite("molecule", cli._validate("molecule", {"n_paths": 1200}), 99)
    i, row = _corollary_B_row(checks)
    assert len(checks) == 8 and len(calls) == 1
    mol = potentials.load_molecule({"m": 1, "nuclei": [{"R": [0, 0, 0], "Z": 1.0}]})
    pairs = bounds.pair_grid_euclidean(mol.space, anchors=[np.zeros(3)], scale=1.0,
                                       k_max=3)
    direct = measured_holder_quotient_mc(
        mol, functions.BallIndicator(np.zeros(3), 1.0), 0.75, 1.0, pairs, 1200, (99, i))
    b = bounds.corollary_B_constant([potentials.CoulombPotential((0, 0, 0), 1.0)], [],
                                    0.0, 0.75, 1.0)
    assert (row.measured, row.stderr) == direct
    assert row.reference == bounds.holder_cap(0.0, 1.0, 0.75) + b
    assert row.sidedness == UPPER and row.verdict == HOLDS


def test_molecule_infinite_B_is_violated_without_monte_carlo(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("an infinite B ran the Monte Carlo quotient")

    monkeypatch.setattr(bounds, "corollary_B_constant", lambda *_args: math.inf)
    monkeypatch.setattr(bounds, "measured_holder_quotient_mc", refuse)
    checks = cli.run_suite("molecule", cli._validate("molecule", {}), 1)
    _i, row = _corollary_B_row(checks)
    assert row.verdict == VIOLATED and math.isinf(row.reference)


@pytest.mark.parametrize("suite,config,reason", [
    ("duhamel", {"step_ladder": [8, 16]}, "no previous residual"),
    ("kato", {"potential": {"type": "hydrogen"}, "alpha_grid": [0.5], "t_grid": [0.25],
              "mc_samples": 0}, "no finite closed form"),
    ("fk", {"potential": {"type": "constant", "c": 1.0}, "n_paths": 200}, "no oracle"),
])
def test_rows_that_cannot_fail_are_categorical(suite, config, reason):
    """A row with nothing to compare against holds by construction, and says
    so: categorical, with the reason in its details."""
    checks = cli.run_suite(suite, cli._validate(suite, config), 1)
    unfailing = [c for c in checks if c.details.get("reason") == reason]
    assert len(unfailing) == 1
    assert unfailing[0].sidedness == CATEGORICAL and unfailing[0].verdict == HOLDS


def test_theorem_records_keep_each_pairs_flags(tmp_path):
    """A run directory gives back each theorem pair's estimator flags: every
    row of a Feynman-Kac theorem record has its list."""
    out = tmp_path / "o"
    assert run(["theorem", "--seed", "1", "--out", str(out),
                "--set", "n_paths=64", "--set", "t_grid=[0.5]"]) == 0
    records = [r for r in _strict_json_lines(out / "records.ndjson")
               if r["parameters"]["potential"] != "zero"]
    assert len(records) == 1
    rows = records[0]["details"]["rows"]
    assert len(rows) == 21 and all(row["flags"] == [] for row in rows)
