import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaincast as cc
from chaincast import cli


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def ohmic_config(tmp_path, **overrides):
    payload = {
        "spectral_density": {"family": "power_law", "s": 1, "alpha": 0.1,
                             "omega_c": 1.0},
        "mapping_q": 0,
        "sites": 10,
        "residual_orders": [1, 2],
        "grid": {"points": 32},
    }
    payload.update(overrides)
    return write_config(tmp_path / "job.json", payload)


class TestValidate:
    def test_minimal_power_law_ok(self, tmp_path):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law", "s": 1, "alpha": 0.1,
                                 "omega_c": 1.0},
            "mapping_q": 0, "sites": 10})
        config = cli.validate(path)
        assert config.sites == 10
        assert config.grid_points == 512  # default
        assert config.residual_orders == ()

    def test_defaults_applied(self, tmp_path):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law", "s": 1, "alpha": 0.1}})
        config = cli.validate(path)
        assert config.sites == 50 and config.grid_points == 512

    def test_mid_q_with_residuals_rejected(self, tmp_path):
        path = ohmic_config(tmp_path, mapping_q=0.5, residual_orders=[1])
        with pytest.raises(cc.ConfigError, match="residual"):
            cli.validate(path)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG

    def test_negative_tabulated_sample_rejected(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("0.0,0.0\n0.5,-1.0\n1.0,1.0\n")
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "tabulated",
                                 "samples_path": "samples.csv"}})
        with pytest.raises(cc.ConfigError, match="nonnegative"):
            cli.validate(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law", "s": 1, "alpha": 0.1},
            "frobnicate": True})
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) \
            == cli.EXIT_CONFIG

    def test_overrides(self, tmp_path):
        path = ohmic_config(tmp_path)
        config = cli.validate(path, q_override=1.0, sites_override=7,
                              out_dir=tmp_path / "out")
        assert config.mapping_q == 1.0
        assert config.sites == 7
        assert config.chain_csv.endswith("out/chain.csv")


class TestRun:
    def test_ohmic_outputs(self, tmp_path):
        path = ohmic_config(tmp_path)
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK

        with open(tmp_path / "chain.csv") as fh:
            meta = fh.readline()
            assert meta.startswith("#") and "E5=" in meta and "q=0" in meta
            rows = list(csv.DictReader(fh))
        first = rows[0]
        assert float(first["alpha"]) == pytest.approx(2 / 3, rel=1e-12)
        assert float(first["beta"]) == pytest.approx(0.1, rel=1e-12)
        assert float(first["E4"]) == pytest.approx(math.sqrt(1 / 18), rel=1e-12)

        with open(tmp_path / "residual.csv") as fh:
            meta = fh.readline()
            header = fh.readline().strip()
        assert meta.startswith("#") and "clipped_range=" in meta
        assert header == "omega,J0,J1,J2"

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["szego"] == "in_class"
        assert report["alpha_limit"] == pytest.approx(0.5)
        assert report["provenance"]["tool"] == "chaincast"

    def test_chain_csv_round_trip_is_exact(self, tmp_path):
        path = ohmic_config(tmp_path, residual_orders=[])
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        with open(tmp_path / "chain.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        fresh = cc.chain_coefficients(cc.power_law_sd(1.0, 0.1, 1.0), 0.0, 10)
        for i, row in enumerate(rows):
            assert float(row["alpha"]) == fresh.alpha[i]
            assert float(row["beta"]) == fresh.beta[i]
            assert float(row["E4"]) == fresh.E4[i]

    def test_gapped_residuals_exit_4_with_zero_location(self, tmp_path, capsys):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "piecewise",
                                 "intervals": [[0, 1, 1.0], [2, 3, 1.0]]},
            "mapping_q": 0, "sites": 6, "residual_orders": [1]})
        assert cli.main(["run", "--config", path]) == cli.EXIT_UNSUPPORTED
        err = capsys.readouterr().err
        assert "z0=1.5" in err

    def test_gapped_residuals_exit_4_when_zero_not_located(self, tmp_path, capsys):
        # The heavy right piece pushes the zero to within one ulp of 1.0:
        # the request is unsupported all the same.
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "piecewise",
                                 "intervals": [[0, 1, 0.01], [1.3, 2, 100]]},
            "mapping_q": 0, "sites": 6, "residual_orders": [1]})
        assert cli.main(["run", "--config", path]) == cli.EXIT_UNSUPPORTED
        err = capsys.readouterr().err
        assert err.startswith("unsupported:") and "not located" in err
        assert "within one ulp" in err
        assert (tmp_path / "chain.csv").exists()
        assert not (tmp_path / "residual.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_unavailable_reducer_exits_4(self, tmp_path, capsys):
        # Neither reducer route exists: the Laguerre closed form needs an
        # integer s, the Lipschitz route bounded support.
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law_exp_cutoff", "s": 1.3,
                                 "alpha": 0.1, "omega_c": 1.0},
            "mapping_q": 0, "sites": 8, "residual_orders": [1, 2],
            "grid": {"points": 16}})
        assert cli.main(["run", "--config", path]) == cli.EXIT_UNSUPPORTED
        assert capsys.readouterr().err.startswith("unsupported:")
        assert (tmp_path / "chain.csv").exists()
        assert not (tmp_path / "residual.csv").exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("orders, keys", [([1, 2], {"1", "2"}), ([], set())])
    def test_moment_gaps_follow_residual_orders(self, tmp_path, orders, keys):
        path = ohmic_config(tmp_path, residual_orders=orders)
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        gaps = json.loads((tmp_path / "report.json").read_text())["moment_gaps"]
        assert set(gaps) == keys
        want = cc.convergence_report(cc.power_law_sd(1.0, 0.1, 1.0), 0.0, 10,
                                     residual_orders=2).terminal_moment_gap
        for key, vals in gaps.items():
            assert vals == [float(v) for v in want[int(key)]]

    def test_failed_run_leaves_no_stale_outputs(self, tmp_path):
        out = tmp_path / "out"
        flat = write_config(tmp_path / "flat.json", {
            "spectral_density": {"family": "piecewise",
                                 "intervals": [[0, 1, 1.0]]},
            "mapping_q": 0, "sites": 6, "residual_orders": [1],
            "grid": {"points": 8}})
        assert cli.main(["run", "--config", flat, "--out-dir", str(out)]) \
            == cli.EXIT_OK
        gapped = write_config(tmp_path / "gapped.json", {
            "spectral_density": {"family": "piecewise",
                                 "intervals": [[0, 1, 1.0], [2, 3, 1.0]]},
            "mapping_q": 0, "sites": 6, "residual_orders": [1]})
        assert cli.main(["run", "--config", gapped, "--out-dir", str(out)]) \
            == cli.EXIT_UNSUPPORTED
        assert "[0,1];[2,3]" in (out / "chain.csv").read_text().splitlines()[0]
        assert not (out / "residual.csv").exists()
        assert not (out / "report.json").exists()

    def test_gapped_without_residuals_succeeds(self, tmp_path):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "piecewise",
                                 "intervals": [[0, 1, 1.0], [2, 3, 1.0]]},
            "mapping_q": 0, "sites": 6})
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["szego"] == "out_of_class(gapped)"
        # without requested orders the residual CSV still samples J0
        with open(tmp_path / "residual.csv") as fh:
            fh.readline()
            assert fh.readline().strip() == "omega,J0"

    def test_exp_cutoff_report_verdict(self, tmp_path):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law_exp_cutoff", "s": 1,
                                 "alpha": 0.1, "omega_c": 1.0},
            "mapping_q": 0, "sites": 8})
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["szego"] == "out_of_class(unbounded)"
        assert report["alpha_limit"] is None

    @pytest.mark.parametrize("q", [0.5, 1])
    def test_exp_cutoff_mapped_run(self, tmp_path, q):
        # G_q maps the unbounded end of the support to infinity for q > 0
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law_exp_cutoff", "s": 1,
                                 "alpha": 0.1, "omega_c": 1.0},
            "mapping_q": q, "sites": 8})
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["szego"] == "out_of_class(unbounded)"

    def test_byte_identical_reruns(self, tmp_path):
        path = ohmic_config(tmp_path)
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        blobs = {name: (tmp_path / name).read_bytes()
                 for name in ("chain.csv", "residual.csv", "report.json")}
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        for name, blob in blobs.items():
            assert (tmp_path / name).read_bytes() == blob, name

    def test_grid_range_clip_warns_in_report(self, tmp_path):
        path = ohmic_config(tmp_path, grid={"points": 16, "range": [0.0, 2.0]})
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("clipped" in w for w in report["warnings"])

    def test_exp_cutoff_residual_run(self, tmp_path):
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law_exp_cutoff", "s": 1,
                                 "alpha": 0.1, "omega_c": 1.0},
            "mapping_q": 0, "sites": 8, "residual_orders": [1],
            "grid": {"points": 16}})
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        with open(tmp_path / "residual.csv") as fh:
            meta = fh.readline()
        # unbounded support: samples stop where J0 drops to 1e-12 of its peak
        hi = float(meta.split("clipped_range=[")[1].rstrip("]\n").split(",")[1])
        assert 25.0 < hi < 45.0

    def test_phonon_run(self, tmp_path):
        path = ohmic_config(tmp_path, mapping_q=1)
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        with open(tmp_path / "chain.csv") as fh:
            meta = fh.readline()
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["E3"]) == float(rows[0]["E4"])
        assert "E5=0.36514837167011072" in meta


# Runs in a fresh interpreter (the test process has scipy loaded already):
# each config is passed through `cli.main`, then the loaded scipy modules
# are listed.  Prints one JSON list of per-config results.
_STARTUP_CHILD = """
import contextlib, io, json, sys
from chaincast import cli
results = []
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", config, "--out-dir", out])
    results.append({"code": code, "stderr": err.getvalue(),
                    "scipy": sorted(m for m in sys.modules
                                    if m.split(".")[0] == "scipy")})
print(json.dumps(results))
"""

_STARTUP_CONFIGS = {
    "power_law_q0_report": {
        "spectral_density": {"family": "power_law", "s": 1, "alpha": 0.1,
                             "omega_c": 1.0},
        "mapping_q": 0, "sites": 10, "residual_orders": [1, 2, 3],
        "grid": {"points": 32}},
    "power_law_q1": {
        "spectral_density": {"family": "power_law", "s": 2, "alpha": 0.1,
                             "omega_c": 1.5},
        "mapping_q": 1, "sites": 10},
    "exp_cutoff_q0": {
        "spectral_density": {"family": "power_law_exp_cutoff", "s": 1.3,
                             "alpha": 0.1, "omega_c": 1.0},
        "mapping_q": 0, "sites": 10},
    "gapped_piecewise_q0": {
        "spectral_density": {"family": "piecewise",
                             "intervals": [[0, 1, 1.0], [2, 3, 1.0]]},
        "mapping_q": 0, "sites": 6, "residual_orders": [1]},
}


@pytest.fixture(scope="module")
def startup_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    argv = []
    for name, payload in _STARTUP_CONFIGS.items():
        (root / name).mkdir()
        argv += [write_config(root / name / "job.json", payload),
                 str(root / name)]
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _STARTUP_CHILD, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    return root, dict(zip(_STARTUP_CONFIGS, results))


class TestStartupImports:
    """`chaincast run` loads scipy only where a job needs a scipy routine."""

    @pytest.mark.parametrize("name", ["power_law_q0_report", "power_law_q1",
                                      "exp_cutoff_q0"])
    def test_run_without_scipy(self, startup_runs, name):
        root, results = startup_runs
        res = results[name]
        assert res["code"] == cli.EXIT_OK, res["stderr"]
        assert res["scipy"] == []
        assert (root / name / "report.json").exists()

    def test_residuals_and_report_ran(self, startup_runs):
        out = startup_runs[0] / "power_law_q0_report"
        with open(out / "residual.csv") as fh:
            fh.readline()
            assert fh.readline().strip() == "omega,J0,J1,J2,J3"
        report = json.loads((out / "report.json").read_text())
        assert report["moment_gaps"]

    def test_gap_zero_runs_without_scipy(self, startup_runs):
        _, results = startup_runs
        res = results["gapped_piecewise_q0"]
        assert res["code"] == cli.EXIT_UNSUPPORTED
        assert "z0=1.5" in res["stderr"]
        assert res["scipy"] == []
