import csv
import json
import os
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import fix_cpus
from wickfield import cli
from wickfield.cli import main
from wickfield.dnls import _member_chunks


@pytest.fixture
def runner():
    return CliRunner()


def test_partition_stats(runner, tmp_path):
    out = tmp_path / "ps"
    result = runner.invoke(main, ["partition-stats", "--n-max", "4",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "partition_stats.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "lhs", "rhs", "ratio", "flag"]
    assert len(rows) == 5
    assert rows[1][1] == "3"
    assert rows[2][1] == "73"
    reports = json.loads((out / "partition_stats.json").read_text())
    assert all(r["flag"] for r in reports)
    assert all(r["manifest"] == "manifest.json" for r in reports)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "partition-stats"
    assert manifest["tool_version"]


def test_partition_stats_beyond_size_guard(runner, tmp_path):
    # 2n = 16 exceeds the enumeration guard; the recurrence needs none
    out = tmp_path / "ps8"
    result = runner.invoke(main, ["partition-stats", "--n-max", "8",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    reports = json.loads((out / "partition_stats.json").read_text())
    assert len(reports) == 8
    assert all(r["flag"] for r in reports)


def test_verify_bounds_default(runner, tmp_path):
    out = tmp_path / "vb"
    result = runner.invoke(main, ["verify-bounds", "--max-order", "1",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    reports = json.loads((out / "bound_reports.json").read_text())
    assert reports
    assert all(r["flag"] for r in reports)
    assert all(r["schema_version"] == 1 for r in reports)
    assert all(isinstance(r["witnesses"]["field"], str) for r in reports)


def test_verify_bounds_corrupted_rhs_fails(runner, tmp_path, monkeypatch):
    check = cli.joint_theorem_check

    def shrunk(*args, **kwargs):
        report = check(*args, **kwargs)
        report.rhs *= 1e-6
        return report

    monkeypatch.setattr(cli, "joint_theorem_check", shrunk)
    out = tmp_path / "vbf"
    result = runner.invoke(main, ["verify-bounds", "--max-order", "1",
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "FLAG FALSE" in result.output
    reports = json.loads((out / "bound_reports.json").read_text())
    assert not all(r["flag"] for r in reports)


def test_verify_bounds_custom_config(runner, tmp_path):
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({
        "model": "spectral",
        "f1": {"name": "flat"},
        "f2": {"name": "flat"},
        "g": {"name": "band", "halfwidth": 0.25},
        "grid": 4096,
    }))
    result = runner.invoke(main, ["verify-bounds", "--max-order", "1",
                                  "--config", str(cfg),
                                  "--out", str(tmp_path / "vbc")])
    assert result.exit_code == 0, result.output


def test_verify_bounds_max_order_3(runner, tmp_path):
    outputs = []
    for name in ("a", "b"):
        result = runner.invoke(main, ["verify-bounds", "--max-order", "3",
                                      "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        outputs.append((tmp_path / name / "bound_reports.json").read_bytes())
    reports = json.loads(outputs[0])
    assert len(reports) == 120
    assert all(r["flag"] for r in reports)
    assert outputs[0] == outputs[1]


def test_verify_bounds_max_order_4(runner, tmp_path):
    out = tmp_path / "vb4"
    result = runner.invoke(main, ["verify-bounds", "--max-order", "4",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    reports = json.loads((out / "bound_reports.json").read_text())
    assert len(reports) == 208
    assert all(r["flag"] for r in reports)
    assert all(isinstance(r["witnesses"]["field"], str) for r in reports)


@pytest.mark.parametrize("args", [
    ["partition-stats", "--n-max", "0"],
    ["partition-stats", "--n-max", "-1"],
    ["verify-bounds", "--max-order", "0"],
    ["verify-bounds", "--max-order", "-1"],
    ["verify-bounds", "--max-order", "6"],
    ["example-gaussian", "--radius", "0"],
    ["example-gaussian", "--radius", "1"],
    ["example-gaussian", "--radius", "100"],
    pytest.param(["verify-bounds", "--seed", "-1"], id="verify-bounds--seed=-1"),
    pytest.param(["dnls-demo", "--seed", "-1"], id="dnls-demo--seed=-1"),
], ids=lambda args: f"{args[1]}={args[2]}")
def test_out_of_range_option_rejected(runner, tmp_path, args):
    # no order to check would pass vacuously over no reports, an order above
    # 5 needs cumulants of the discrete providers above their max_order of
    # 10, a radius of at most 100 leaves the l1 fit fewer than two radii,
    # and numpy seeds its generators from non-negative integers only
    out = tmp_path / "bad"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{args[1]}'" in result.output
    assert not out.exists()


def test_example_gaussian_smallest_radius(runner, tmp_path):
    out = tmp_path / "eg"
    result = runner.invoke(main, ["example-gaussian", "--radius", "101",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "partial_sums.csv") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["radius", "100", "101"]


def test_example_gaussian(runner, tmp_path):
    out = tmp_path / "eg"
    result = runner.invoke(main, ["example-gaussian", "--out", str(out)])
    assert result.exit_code == 0, result.output
    record = json.loads((out / "gaussian_example.json").read_text())
    assert record["psd_check"] is True
    assert abs(record["l2_limit_estimate"] - 0.5) < 1e-3
    with open(out / "partial_sums.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["radius", "l1_partial_sum", "l2_partial_sum"]
    sums = [float(r[1]) for r in rows[1:]]
    assert sums == sorted(sums)


def test_dnls_demo(runner, tmp_path):
    cfg = tmp_path / "dnls.json"
    cfg.write_text(json.dumps({"length": 16, "n_samples": 300,
                               "couplings": [0.0, 0.05]}))
    out = tmp_path / "dd"
    result = runner.invoke(main, ["dnls-demo", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    sidecar = json.loads((out / "dnls_run.json").read_text())
    assert sidecar["config"]["length"] == 16
    assert "0.05" in sidecar["fitted_constants"]
    assert len(sidecar["run_hash"]) == 16
    with open(out / "duhamel_residuals.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "coupling", "residual", "noise_scale"]


MANIFEST_KEYS = {"schema_version", "subcommand", "config", "seed",
                 "tool_version", "wall_clock_s", "environment"}


@pytest.mark.parametrize("args,files", [
    (["partition-stats"], ["partition_stats.csv", "partition_stats.json"]),
    (["verify-bounds", "--max-order", "1"], ["bound_reports.json"]),
    (["example-gaussian"], ["partial_sums.csv", "gaussian_example.json"]),
    (["dnls-demo", "--config", "{config}"],
     ["duhamel_residuals.csv", "dnls_run.json"]),
], ids=["partition-stats", "verify-bounds", "example-gaussian", "dnls-demo"])
def test_rerun_output_contract(runner, tmp_path, args, files):
    # every command: byte-identical data files on rerun, each JSON data file
    # versioned and pointing at the manifest, and one manifest key set with
    # the environment the run saw
    cfg = tmp_path / "dnls.json"
    cfg.write_text(json.dumps({"length": 16, "n_samples": 200,
                               "couplings": [0.0, 0.05]}))
    args = [a.format(config=cfg) for a in args]
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.json"])
        manifests.append(json.loads((out / "manifest.json").read_text()))
    for fname in files:
        data = (tmp_path / "a" / fname).read_bytes()
        assert data == (tmp_path / "b" / fname).read_bytes(), fname
        if fname.endswith(".json"):
            records = json.loads(data)
            for rec in records if isinstance(records, list) else [records]:
                assert rec["schema_version"] == 1
                assert rec["manifest"] == "manifest.json"
    assert set(manifests[0]) == set(manifests[1]) == MANIFEST_KEYS
    assert manifests[0]["subcommand"] == args[0]
    assert manifests[0]["environment"] == {
        "python": ".".join(map(str, sys.version_info)),
        "numpy": np.__version__, "cpu_count": os.cpu_count()}


def test_dnls_demo_rerun_with_split_members(runner, tmp_path, monkeypatch):
    # 1,501 members of 16 sites fill two chunks, so the lambda = 0.5 leg's
    # 40 steps run on two threads; the data files match a one-CPU run
    cfg = tmp_path / "dnls.json"
    cfg.write_text(json.dumps({"length": 16, "n_samples": 1501,
                               "couplings": [0.0, 0.5]}))
    runs = {}
    for name, cpus in (("a", 2), ("b", 2), ("one-cpu", 1)):
        fix_cpus(monkeypatch, cpus)
        assert len(_member_chunks(1501, 16)) == cpus
        out = tmp_path / name
        result = runner.invoke(main, ["dnls-demo", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs[name] = [(out / f).read_bytes()
                      for f in ("duhamel_residuals.csv", "dnls_run.json")]
    assert runs["a"] == runs["b"] == runs["one-cpu"]


def test_failed_computation_writes_nothing(runner, tmp_path, monkeypatch):
    def broken(n):
        raise RuntimeError("computation failed")

    monkeypatch.setattr(cli, "verify_comb_est", broken)
    out = tmp_path / "ps"
    result = runner.invoke(main, ["partition-stats", "--out", str(out)])
    assert isinstance(result.exception, RuntimeError)
    assert not out.exists()


def _assert_config_rejected(runner, tmp_path, command, text, message):
    """The command prints one error line naming the config, exits 2 and
    makes no output directory."""
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "bad"
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1, result.output
    assert lines[0].startswith(f"Error: {cfg}: ") and message in lines[0], result.output
    assert not out.exists()


COUPLINGS_MESSAGE = "couplings must be a non-empty list of finite numbers >= 0"


@pytest.mark.parametrize("text,message", [
    (json.dumps({"n_samples": 1}), "n_samples must be >= 2"),
    (json.dumps({"n_sample": 5}), "unknown key(s) 'n_sample'"),
    (json.dumps({"couplings": [-0.1], "n_samples": 10, "length": 4}),
     COUPLINGS_MESSAGE),
    (json.dumps({"couplings": [], "n_samples": 10}), COUPLINGS_MESSAGE),
    ('{"couplings": [0.01, NaN], "n_samples": 10}', COUPLINGS_MESSAGE),
    (json.dumps({"couplings": [0, 10 ** 400], "n_samples": 10}), COUPLINGS_MESSAGE),
    (json.dumps({"couplings": ["0.1"], "n_samples": 10}), COUPLINGS_MESSAGE),
    (json.dumps({"couplings": [0.05], "n_samples": 50, "length": 8}),
     "couplings must include 0"),
    (json.dumps({"n_samples": "5"}), "n_samples must be an integer, not '5'"),
    (json.dumps({"dt": 0}), "dt must be > 0"),
    ('{"beta": NaN}', "beta must be a finite number, not nan"),
    (json.dumps({"mu": 10 ** 400}), "mu must be a finite number"),
    (json.dumps({"seed": 1.5}), "seed must be an integer, not 1.5"),
    (json.dumps({"seed": -3}), "seed must be >= 0"),
    ("[1]", "config must be a JSON object"),
    ('{"n_samples": 10,', "invalid JSON"),
    # no recorded time in (0, 1/coupling] on the dt = 0.05 grid: nothing to fit
    (json.dumps({"n_samples": 2, "length": 2, "couplings": [0, 30]}),
     "couplings: 30 leaves no recorded time in (0, 1/coupling]"),
    (json.dumps({"n_samples": 2, "length": 2, "couplings": [0, 1e308]}),
     "couplings: 1e+308 leaves no recorded time in (0, 1/coupling]"),
    # the couplings loop would replace it, yet it reached the config and run_hash
    (json.dumps({"coupling": 0.3, "n_samples": 200, "length": 8}),
     "coupling is not a config key; give the list couplings"),
    # 10,000 members of 32^40 sites: no numpy array holds them
    (json.dumps({"dimension": 40}), "exceed numpy's largest array"),
    # one-site lattices hold few values, but a member array of d + 1 axes and
    # its complex standard error's float view of d + 2 pass numpy's 64 axes
    (json.dumps({"dimension": 63, "length": 1, "n_samples": 2}),
     "dimension must be <= 62"),
    (json.dumps({"dimension": 70, "length": 1, "n_samples": 2}),
     "dimension must be <= 62"),
], ids=["one-sample", "unknown-key", "negative-coupling", "no-couplings",
        "nan-coupling", "huge-coupling", "string-coupling", "no-zero-coupling",
        "string-n-samples", "zero-dt", "nan-beta", "huge-mu", "fractional-seed", "negative-seed",
        "not-an-object", "malformed-json", "coupling-above-one-over-dt",
        "max-float-coupling", "single-coupling", "too-many-sites",
        "too-many-axes-63", "too-many-axes-70"])
def test_dnls_demo_rejects_bad_config(runner, tmp_path, text, message):
    _assert_config_rejected(runner, tmp_path, "dnls-demo", text, message)


FLAT = {"name": "flat"}


@pytest.mark.parametrize("text,message", [
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": {"name": "flat", "value": 2.0}}),
     "spectra violate"),
    (json.dumps({"f1": {"name": "wavy"}, "f2": FLAT, "g": FLAT}),
     "unknown spectrum 'wavy'"),
    (json.dumps({"f1": "flat", "f2": FLAT, "g": FLAT}),
     "a spectrum must be an object"),
    (json.dumps({"model": "mystery"}), "unknown field model 'mystery'"),
    (json.dumps({"f1": FLAT, "f2": FLAT}), "missing key(s) 'g'"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": {"name": "band"}, "grid": 256}),
     "quadrature grid 256 is too small for displacement 400"),
    ("[1]", "config must be a JSON object"),
    ('{"model": "spectral",', "invalid JSON"),
    (json.dumps({"model": "sinc_coupling", "grid": 1000.7}),
     "grid must be an integer >= 1, not 1000.7"),
    (json.dumps({"model": "sinc_coupling", "grid": True}),
     "grid must be an integer >= 1, not True"),
    (json.dumps({"model": "sinc_coupling", "grid": 0}),
     "grid must be an integer >= 1, not 0"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": FLAT, "dimension": 1.9}),
     "dimension must be an integer, not 1.9"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": FLAT, "dimension": True}),
     "dimension must be an integer, not True"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": FLAT, "dimension": "1"}),
     "dimension must be an integer, not '1'"),
    (json.dumps({"model": "sinc_coupling", "dimension": 2}),
     "only dimension 1 spectral fields are supported"),
    (json.dumps({"model": "sinc_coupling", "gird": 256}), "unknown key(s) 'gird'"),
    (json.dumps({"model": "sinc_coupling", "name": "mine", "f1": FLAT}),
     "unknown key(s) 'f1', 'name'"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": FLAT, "nmae": "mine"}),
     "unknown key(s) 'nmae'"),
    (json.dumps({"f1": FLAT, "f2": FLAT,
                 "g": {"name": "band", "halfwdith": 0.1}}),
     "unknown key(s) 'halfwdith'"),
    (json.dumps({"f1": {"name": "flat", "height": 2.0}, "f2": FLAT, "g": FLAT}),
     "unknown key(s) 'height'"),
    (json.dumps({"f1": {"name": "flat", "value": "1"}, "f2": FLAT, "g": FLAT}),
     "value must be a finite number, not '1'"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": {"name": "band", "height": True}}),
     "height must be a finite number, not True"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": {"name": "band", "halfwidth": "0.3"}}),
     "halfwidth must be a finite number, not '0.3'"),
    (json.dumps({"f1": {"name": ["flat"]}, "f2": FLAT, "g": FLAT}),
     "unknown spectrum ['flat']"),
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": FLAT, "name": 5}),
     "name must be a string, not 5"),
    # a quadrature grid of 10^17 points needs more bytes than a 57-bit
    # address space holds, so no allocation of it can succeed
    (json.dumps({"f1": FLAT, "f2": FLAT, "g": FLAT, "grid": 10 ** 17}),
     "Unable to allocate"),
], ids=["psd-violation", "unknown-spectrum", "spectrum-not-an-object",
        "unknown-model", "missing-key", "small-grid", "not-an-object",
        "malformed-json", "fractional-grid", "boolean-grid", "zero-grid",
        "fractional-dimension", "boolean-dimension", "string-dimension",
        "sinc-dimension", "top-level-typo", "key-sinc-ignores", "spectral-typo",
        "spectrum-typo", "key-of-another-spectrum", "string-value",
        "boolean-height", "string-halfwidth", "list-spectrum-name",
        "integer-name", "unallocatable-grid"])
def test_verify_bounds_rejects_bad_config(runner, tmp_path, text, message):
    _assert_config_rejected(runner, tmp_path, "verify-bounds", text, message)


def test_dnls_demo_rejects_signal_free_ensemble(runner, tmp_path):
    # psi underflows at this beta: every residual, noise scale and fitted C
    # is 0, so the old gates passed vacuously
    cfg = tmp_path / "dnls.json"
    cfg.write_text(json.dumps({"beta": 1e300, "n_samples": 50, "length": 8}))
    result = runner.invoke(main, ["dnls-demo", "--config", str(cfg),
                                  "--out", str(tmp_path / "dd")])
    assert result.exit_code == 1, result.output
    assert "NOISE SCALE ZERO OR NOT FINITE" in result.output
    assert "FITTED C NOT POSITIVE" in result.output


@pytest.mark.parametrize("args,env,expected", [
    ([], {}, 3),
    (["--seed", "7"], {}, 7),
    ([], {"WICKFIELD_DNLS_DEMO_SEED": "7"}, 7),
], ids=["config-seed", "seed-option", "seed-env"])
def test_dnls_demo_seed_precedence(runner, tmp_path, args, env, expected):
    # an explicit --seed overrides the config's seed; the default does not
    cfg = tmp_path / "dnls.json"
    cfg.write_text(json.dumps({"length": 8, "n_samples": 50, "seed": 3,
                               "couplings": [0.0, 0.05]}))
    out = tmp_path / "dd"
    result = runner.invoke(main, ["dnls-demo", "--config", str(cfg),
                                  "--out", str(out)] + args, env=env)
    assert result.exit_code == 0, result.output
    sidecar = json.loads((out / "dnls_run.json").read_text())
    assert sidecar["config"]["seed"] == expected
    assert json.loads((out / "manifest.json").read_text())["seed"] == expected


@pytest.mark.parametrize("command", ["verify-bounds", "dnls-demo"])
def test_negative_seed_from_environment_rejected(runner, tmp_path, command):
    out = tmp_path / "bad"
    variable = f"WICKFIELD_{command.upper().replace('-', '_')}_SEED"
    result = runner.invoke(main, [command, "--out", str(out)], env={variable: "-1"})
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--seed'" in result.output
    assert not out.exists()


def test_env_var_override(runner, tmp_path):
    out = tmp_path / "env"
    result = runner.invoke(main, ["partition-stats", "--out", str(out)],
                           env={"WICKFIELD_PARTITION_STATS_N_MAX": "2"})
    assert result.exit_code == 0, result.output
    with open(out / "partition_stats.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + n = 1, 2
