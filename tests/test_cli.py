import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaincast as cc
from chaincast import cli, orthopoly


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

    @pytest.mark.parametrize("field, overrides", [
        ("sites", {"sites": "abc"}),
        ("sites", {"sites": 2.7}),
        ("spectral_density.s", {"spectral_density": {
            "family": "power_law", "s": "one", "alpha": 0.1}}),
        ("mapping_q", {"mapping_q": None}),
        ("spectral_density.intervals[0]", {"spectral_density": {
            "family": "piecewise", "intervals": [[0, "x", 1]]}}),
        ("spectral_density.samples_path", {"spectral_density": {
            "family": "tabulated", "samples_path": "samples.csv"}}),
        ("grid.points", {"grid": {"points": 3.9}}),
        ("residual_orders[0]", {"residual_orders": [True]}),
        # non-finite numbers: json.dumps writes Infinity and NaN
        ("spectral_density.alpha", {"spectral_density": {
            "family": "power_law", "s": 1, "alpha": math.inf}}),
        ("spectral_density.omega_c", {"spectral_density": {
            "family": "power_law", "s": 1, "alpha": 0.1, "omega_c": math.inf}}),
        ("spectral_density.s", {"spectral_density": {
            "family": "power_law", "s": math.nan, "alpha": 0.1}}),
        ("spectral_density.intervals[0]", {"spectral_density": {
            "family": "piecewise", "intervals": [[0, 1, math.inf]]}}),
        ("mapping_q", {"mapping_q": "nan"}),
        ("grid.range", {"grid": {"points": 32, "range": [0.1, math.inf]}}),
        ("sites", {"sites": math.inf}),
    ], ids=["sites-str", "sites-float", "s-str", "mapping_q-null",
            "intervals-str", "samples-str", "points-float", "orders-bool",
            "alpha-inf", "omega_c-inf", "s-nan", "height-inf",
            "mapping_q-nan-str", "range-inf", "sites-inf"])
    def test_non_numbers_exit_2(self, tmp_path, capsys, field, overrides):
        (tmp_path / "samples.csv").write_text("0.0,0.0\n0.5,abc\n1.0,1.0\n")
        path = ohmic_config(tmp_path, **overrides)
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_sample_cells_exit_2(self, tmp_path, capsys, cell):
        (tmp_path / "samples.csv").write_text(f"0.0,0.0\n0.5,{cell}\n1.0,1.0\n")
        path = ohmic_config(tmp_path, spectral_density={
            "family": "tabulated", "samples_path": "samples.csv"})
        for command in ("validate", "run"):
            assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error: spectral_density.samples_path: " in err
            assert "must be a finite number" in err
        assert not (tmp_path / "chain.csv").exists()

    def test_overflowing_json_number_exit_2(self, tmp_path, capsys):
        # 1e400 is valid JSON and parses to inf
        path = Path(ohmic_config(tmp_path))
        path.write_text(path.read_text().replace('"alpha": 0.1', '"alpha": 1e400'))
        assert "1e400" in path.read_text()
        for command in ("validate", "run"):
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error: spectral_density.alpha: must be a finite " \
                "number, got inf" in err
        assert not (tmp_path / "chain.csv").exists()

    @pytest.mark.parametrize("field, spec, reason", [
        ("spectral_density", {"family": "power_law", "s": -1, "alpha": 0.1},
         "s > -1"),
        ("spectral_density", {"family": "power_law_exp_cutoff", "s": 1,
                              "alpha": 0}, "alpha must be positive"),
        ("spectral_density", {"family": "power_law", "s": 1, "alpha": 0.1,
                              "omega_c": 0}, "omega_c must be positive"),
        ("spectral_density", {"family": "power_law_exp_cutoff", "s": 1,
                              "alpha": 0.1, "omega_c": -1}, "omega_c must be positive"),
        ("spectral_density.samples_path", "0.0,1.0\n", ">= 2 points"),
        ("spectral_density.samples_path", "0.0,1.0\n0.5,1.0\n0.5,1.0\n",
         "strictly increasing"),
        ("spectral_density.samples_path", "0.0,1.0\n0.5,-1.0\n", "nonnegative"),
        ("spectral_density.samples_path", "-0.5,1.0\n0.5,1.0\n", "w_min >= 0"),
        ("spectral_density.intervals", [[1, 0.5, 1]], "empty support interval"),
        ("spectral_density.intervals", [[-1, 1, 1]], "w_min >= 0"),
        ("spectral_density.intervals", [[0, 1, -1]], "nonnegative"),
        ("spectral_density.intervals", [[2, 3, 1], [0, 2.5, 1]], "disjoint"),
        ("spectral_density.intervals", [[0, 1, 1], [1, 2, 0.5]], "disjoint"),
        ("spectral_density.samples_path", "0.0,1e-310\n1.0,2e-310\n",
         "tabulated sample 1e-310 is nonzero but below the smallest normal"),
        ("spectral_density.intervals", [[0, 1, 1e-310]],
         "piecewise height 1e-310 is nonzero but below the smallest normal"),
    ], ids=["s", "alpha", "omega_c-zero", "omega_c-negative", "one-sample",
            "omega-repeated", "J-negative", "omega-negative", "lo-above-hi",
            "lo-negative", "height-negative", "overlap", "touching",
            "J-subnormal", "height-subnormal"])
    def test_constructor_rules_exit_2(self, tmp_path, capsys, field, spec,
                                      reason):
        # Each rule lives in the constructor; the CLI names the field.
        if isinstance(spec, str):
            (tmp_path / "samples.csv").write_text(spec)
            spec = {"family": "tabulated", "samples_path": "samples.csv"}
        elif isinstance(spec, list):
            spec = {"family": "piecewise", "intervals": spec}
        path = ohmic_config(tmp_path, spectral_density=spec)
        for command in ("validate", "run"):
            assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field}: ") and reason in err
        assert not (tmp_path / "chain.csv").exists()

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) \
            == cli.EXIT_CONFIG

    @pytest.mark.parametrize("field, case", [
        ("sites", "beyond-float"),
        ("spectral_density.alpha", "beyond-float"),
        ("config", "too-long-to-parse"),
        ("config", "directory"),
        ("config", "not-utf8"),
        ("spectral_density.samples_path", "directory"),
        ("spectral_density.samples_path", "not-utf8"),
        ("spectral_density.samples_path", "cell-beyond-csv-limit"),
    ])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, field, case):
        # JSON integers are exact, so one beyond the float range parses
        # and then overflows float(); past 4300 digits it does not parse.
        # The csv module rejects a cell longer than 131072 characters.
        samples = tmp_path / "samples.csv"
        samples.write_text("0.0,0.0\n0.5,0.5\n1.0,1.0\n")
        sd = ({"family": "tabulated", "samples_path": "samples.csv"}
              if field.endswith("samples_path") else None)
        path = Path(ohmic_config(tmp_path, **({"spectral_density": sd} if sd else {})))
        target = samples if sd else path
        if case == "beyond-float":
            key = field.rsplit(".", 1)[-1]
            text = re.sub(f'"{key}": [0-9.]+', f'"{key}": 1{"0" * 400}',
                          path.read_text())
            path.write_text(text)
            assert "0" * 400 in text
        elif case == "too-long-to-parse":
            path.write_text(path.read_text().replace('"sites": 10',
                                                     f'"sites": 1{"0" * 5000}'))
        elif case == "cell-beyond-csv-limit":
            samples.write_text(f"0.0,0.0\n0.5,0.{'5' * 200000}\n1.0,1.0\n")
        elif case == "directory":
            target.unlink()
            target.mkdir()
        else:
            target.write_bytes(target.read_bytes().replace(b"1", b"1\xff", 1))
        for command in ("validate", "run"):
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
            assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "chain.csv").exists()

    @pytest.mark.parametrize("how", ["config", "override"])
    def test_sites_beyond_the_order_limit_exit_2(self, tmp_path, capsys, how):
        # chain_coefficients asks for sites + 1 recurrence orders, at most
        # orthopoly.MAX_ORDER = 200
        if how == "config":
            argv = ["--config", ohmic_config(tmp_path, sites=200)]
        else:
            argv = ["--config", ohmic_config(tmp_path), "--sites", "200"]
        for command in ("validate", "run"):
            assert cli.main([command, *argv]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error: sites: " in err and "1..199" in err
        assert not (tmp_path / "chain.csv").exists()

    def test_residual_order_beyond_the_order_limit_exit_2(self, tmp_path, capsys):
        # J_n needs n + 1 recurrence orders, at most orthopoly.MAX_ORDER = 200
        path = ohmic_config(tmp_path, residual_orders=[1, 200])
        for command in ("validate", "run"):
            assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error: residual_orders[1]: " in err and "0..199" in err
        assert not any(tmp_path.glob("*.csv"))
        config = cli.validate(ohmic_config(tmp_path, residual_orders=[1, 199]))
        assert config.residual_orders == (1, 199)

    def test_sites_at_the_order_limit_run(self, tmp_path):
        path = ohmic_config(tmp_path, residual_orders=[])
        assert cli.main(["run", "--config", path, "--sites", "199"]) == cli.EXIT_OK
        with open(tmp_path / "chain.csv") as fh:
            fh.readline()
            assert len(list(csv.DictReader(fh))) == 199

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

    def test_one_chain_and_one_residual_build_per_job(self, tmp_path,
                                                      monkeypatch):
        # A family-less J takes the generic recurrence: once for the chain,
        # once for the residual density, both shared with the report.
        (tmp_path / "samples.csv").write_text(
            "".join(f"{w / 10},{w / 10}\n" for w in range(11)))
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "tabulated",
                                 "samples_path": "samples.csv"},
            "mapping_q": 0, "sites": 8, "residual_orders": [1, 2, 3],
            "grid": {"points": 16}})
        calls = []
        generic = orthopoly._generic_coefficients

        def counted(m, n):
            calls.append(n)
            return generic(m, n)

        monkeypatch.setattr(orthopoly, "_generic_coefficients", counted)
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        assert sorted(calls) == [4, 9]
        report = json.loads((tmp_path / "report.json").read_text())
        assert sorted(report["moment_gaps"]) == ["1", "2", "3"]

    def test_residual_columns_do_not_depend_on_the_height_of_j(self, tmp_path):
        # J_n (n >= 1) does not depend on the mass of J.  A flat tabulated J
        # of height 2**600, a power of four, keeps every bit of J_1..J_3;
        # those columns used to read 0.
        columns = []
        for height in (1.0, 2.0**600):
            job = tmp_path / f"h{len(columns)}"
            job.mkdir()
            (job / "samples.csv").write_text(f"0.0,{height!r}\n1.0,{height!r}\n")
            path = write_config(job / "job.json", {
                "spectral_density": {"family": "tabulated",
                                     "samples_path": "samples.csv"},
                "mapping_q": 0, "sites": 6, "residual_orders": [1, 2, 3],
                "grid": {"points": 16}})
            assert cli.main(["run", "--config", path]) == cli.EXIT_OK
            rows = (job / "residual.csv").read_text().splitlines()[2:]
            columns.append([row.split(",", 2)[::2] for row in rows])
        assert columns[0] == columns[1]
        assert all(float(cell) > 0 for row in columns[0]
                   for cell in row[1].split(","))

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

    def test_exp_cutoff_chain_past_the_tail_cutoff(self, tmp_path):
        # At 0 < q < 1 the exponential cutoff takes the generic route; with
        # the tail cutoff floored at the polynomial degree, 80 sites agree
        # with the same J under a tail bound of half the rate (without the
        # floor, off by 2.9e-3 and written with exit 0)
        path = write_config(tmp_path / "job.json", {
            "spectral_density": {"family": "power_law_exp_cutoff", "s": 1,
                                 "alpha": 0.1, "omega_c": 1.0},
            "mapping_q": 0.5, "sites": 80})
        assert cli.main(["run", "--config", path]) == cli.EXIT_OK
        with open(tmp_path / "chain.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        sd = cc.power_law_exp_sd(1.0, 0.1, 1.0)
        slower = cc.TailBound(sd.tail.rate / 2, sd.tail.power, sd.tail.stretch)
        ref = cc.chain_coefficients(
            cc.custom_sd(sd.evaluator, sd.support, tail=slower), 0.5, 80)
        assert len(rows) == 80
        for key in ("alpha", "beta"):
            got = [float(row[key]) for row in rows]
            assert got == pytest.approx(list(getattr(ref, key)), rel=1e-12), key

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
import contextlib, io, json, sys, traceback
from chaincast import cli
results = []
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", "--config", config, "--out-dir", out])
        except Exception:
            traceback.print_exc()
            code = None
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
    "flat_piecewise_q1_report": {
        "spectral_density": {"family": "piecewise", "intervals": [[0.2, 1.4, 0.8]]},
        "mapping_q": 1, "sites": 10, "residual_orders": [1, 2, 3],
        "grid": {"points": 32}},
    "gapped_piecewise_q0": {
        "spectral_density": {"family": "piecewise",
                             "intervals": [[0, 1, 1.0], [2, 3, 1.0]]},
        "mapping_q": 0, "sites": 6, "residual_orders": [1]},
}


def _child_runs(root, configs):
    """`chaincast run` on each config in one fresh interpreter, outputs in
    root / name; returns root and the per-config results by name."""
    argv = []
    for name, payload in configs.items():
        (root / name).mkdir()
        argv += [write_config(root / name / "job.json", payload),
                 str(root / name)]
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _STARTUP_CHILD, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    return root, dict(zip(configs, results))


@pytest.fixture(scope="module")
def startup_runs(tmp_path_factory):
    return _child_runs(tmp_path_factory.mktemp("startup"), _STARTUP_CONFIGS)


class TestStartupImports:
    """`chaincast run` loads scipy only where a job needs a scipy routine."""

    @pytest.mark.parametrize("name", ["power_law_q0_report", "power_law_q1",
                                      "exp_cutoff_q0", "flat_piecewise_q1_report"])
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


def _power_law(s, alpha=0.1, omega_c=1.0, family="power_law"):
    return {"family": family, "s": s, "alpha": alpha, "omega_c": omega_c}


# Configs that pass `chaincast validate`'s number checks but whose J, chain
# or report does not fit in a double.
_PROBE_CONFIGS = {
    "power_law_tiny_cutoff": {"spectral_density": _power_law(2, omega_c=1e-320)},
    "power_law_huge_cutoff": {"spectral_density": _power_law(-0.5, omega_c=1e300)},
    "power_law_cutoff_squared": {"spectral_density": _power_law(0, omega_c=1e200)},
    "power_law_huge_alpha_q0": {"spectral_density": _power_law(0, alpha=1e308)},
    "power_law_huge_alpha_q1": {"spectral_density": _power_law(0, alpha=1e308),
                                "mapping_q": 1},
    "power_law_nan_moment_gaps": {"spectral_density": _power_law(0, omega_c=1e120),
                                  "residual_orders": [1]},
    "exp_cutoff_huge_cutoff": {"spectral_density": _power_law(
        1, omega_c=1e200, family="power_law_exp_cutoff")},
    "piecewise_huge": {"spectral_density": {"family": "piecewise",
                                            "intervals": [[0, 1e300, 1e300]]}},
    "power_law_cutoff_squared_zero": {"spectral_density": _power_law(0, omega_c=1e-200)},
    "power_law_subnormal_alpha": {"spectral_density": _power_law(1, alpha=1e-320)},
    "power_law_cutoff_squared_subnormal": {"spectral_density": _power_law(
        0.5, omega_c=1e-160)},
    "exp_cutoff_cutoff_squared_subnormal": {"spectral_density": _power_law(
        1, omega_c=1e-160, family="power_law_exp_cutoff")},
}
# Of these, the constructor rejects a constant below the smallest normal
# float, naming it.  Before it did, the last two built chain measures of
# mass near 1e-321 and failed late, at the residual CSV.
_SUBNORMAL_PROBES = {"power_law_cutoff_squared_zero": "omega_c**2 = 0.0",
                     "power_law_subnormal_alpha": "alpha = 1e-320",
                     "power_law_cutoff_squared_subnormal": "omega_c**2 = 1e-320",
                     "exp_cutoff_cutoff_squared_subnormal": "omega_c**2 = 1e-320"}


@pytest.fixture(scope="module")
def probe_runs(tmp_path_factory):
    configs = {name: {"sites": 10, "residual_orders": [1, 2, 3],
                      "grid": {"points": 16}, **payload}
               for name, payload in _PROBE_CONFIGS.items()}
    return _child_runs(tmp_path_factory.mktemp("probes"), configs)


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


@pytest.mark.parametrize("name", list(_PROBE_CONFIGS))
def test_out_of_range_config_fails_cleanly(probe_runs, name):
    """Exit 2 (the constructor rejects J) or 3 (the run meets a number it
    cannot represent), one closing message, and no non-finite number in
    any file written."""
    root, results = probe_runs
    res = results[name]
    assert res["code"] in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), res["stderr"]
    if name in _SUBNORMAL_PROBES:
        assert res["code"] == cli.EXIT_CONFIG
        assert _SUBNORMAL_PROBES[name] in res["stderr"]
    assert "Traceback" not in res["stderr"]
    last = res["stderr"].strip().splitlines()[-1]
    assert last.startswith(("config error:", "numerical failure:")), last
    for path in (root / name).iterdir():
        if path.name == "job.json":
            continue
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
            continue
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")]
        assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
