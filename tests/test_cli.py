import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fringelab import cli, detection, estimation, fock
from fringelab.cli import main
from fringelab.spectral import HomDipFit, quartic_gaussian_overlap


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_fringe(path):
    rows = {}
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,class,count"
    for line in lines[1:]:
        theta, cls, count = line.split(",")
        rows.setdefault(float(theta), {})[int(cls)] = int(count)
    return rows


class TestSimulate:
    def test_fully_symmetric_probe_never_bunches_at_zero_phase(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 1.0},
                "zeta": 0.0,
                "phases": {"count": 16},
                "expected_counts_per_point": 5000,
                "seed": 4,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_fringe(tmp_path / "fringe.csv")
        assert rows[0.0][2] == 0
        truth = json.loads((tmp_path / "fringe_truth.json").read_text())
        assert truth["classes"] == [0, 2]
        assert truth["probs"][0][0] == pytest.approx(1.0)

    def test_empirical_frequency_matches_fringe_law(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 0.5},
                "zeta": 0.0,
                "bins_per_arm": 4,
                "phases": {"count": 16},
                "expected_counts_per_point": 100_000,
                "seed": 9,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_fringe(tmp_path / "fringe.csv")
        truth = json.loads((tmp_path / "fringe_truth.json").read_text())
        eta = {int(k): v for k, v in truth["efficiencies"].items()}

        def corrected_freq0(theta):
            counts = rows[min(rows, key=lambda t: abs(t - theta))]
            corrected = {c: counts[c] / eta[c] for c in counts}
            return corrected[0] / sum(corrected.values())

        # Class-0 fringe law: (3 - I' + (1 + I') cos 2theta)/4 for I' = 0.5,
        # giving 0.625 at the quarter turn (cos = 0) and 0.25 at the
        # balanced point (cos = -1).
        assert corrected_freq0(math.pi / 4) == pytest.approx(0.625, rel=0.01)
        assert corrected_freq0(math.pi / 2) == pytest.approx(0.25, rel=0.01)

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "dual_fock", "n": 2, "indist": 0.7},
                "zeta": 0.0119,
                "phases": {"count": 12},
                "expected_counts_per_point": 2000,
                "seed": 31,
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "fringe.csv").read_bytes() == (out_b / "fringe.csv").read_bytes()
        assert (out_a / "fringe_truth.json").read_bytes() == (
            out_b / "fringe_truth.json"
        ).read_bytes()

    def test_counts_are_one_poisson_draw(self):
        # Row k of one (phases, classes) draw from default_rng(seed) is
        # phase k's counts, in class order.
        noise = detection.NoiseAndEfficiencyConfig(zeta=0.0119, bins_per_arm=4)
        phases = 2 * math.pi * np.arange(12) / 12
        family, etas, points, table = cli._simulate_points(
            fock.dual_fock_mismatched(2, 0.7), noise, phases, 2000.0, 31
        )
        eta_row = np.array([etas[c] for c in family.classes])
        draw = np.random.default_rng(31).poisson(2000.0 * (table * eta_row))
        assert [theta for theta, _ in points] == phases.tolist()
        assert [list(counts) for _, counts in points] == [list(family.classes)] * 12
        assert [list(counts.values()) for _, counts in points] == draw.tolist()

    def test_phases_spanning_past_the_float_range_over_count(self, tmp_path):
        # The span times the count overflows; no phase of the grid does.
        phases = {"start": 0.0, "stop": 1e305, "count": cli.MAX_PHASES}
        cfg = write_config(tmp_path / "sim.json", {**_SIMULATE, "phases": phases})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        theta = json.loads((tmp_path / "fringe_truth.json").read_text())["theta"]
        assert len(theta) == cli.MAX_PHASES and theta[0] == 0.0
        assert all(math.isfinite(t) for t in theta) and max(theta) < 1e305

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 0.5},
                "expected_counts_per_point": 100,
                "typo_field": 1,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_probe_parameter_names_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 1.5},
                "expected_counts_per_point": 100,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "probe" in capsys.readouterr().err

    def test_bootstrap_trials_is_unknown(self, tmp_path, capsys):
        # simulate draws no bootstrap, so the key is rejected, not ignored.
        cfg = write_config(tmp_path / "sim.json", {**_SIMULATE, "bootstrap_trials": 100})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "bootstrap_trials" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("modes", [8, 12])
    def test_many_schmidt_modes_simulate(self, tmp_path, capsys, modes):
        # The full Schmidt expansion of 8 or more modes at 0 < tau < 1 holds
        # more than 24 mode labels; the pair ensemble holds 4 internal modes.
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "four_photon", "lambdas": [modes**-0.5] * modes, "tau": 0.7},
                "phases": {"count": 8},
                "expected_counts_per_point": 1000,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((tmp_path / "fringe_truth.json").read_text())["classes"] == [0, 2, 4]


class TestFitCommand:
    def test_round_trip_from_simulate(self, tmp_path):
        sim_cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 0.8},
                "zeta": 0.0119,
                "phases": {"count": 16},
                "expected_counts_per_point": 20_000,
                "seed": 2,
            },
        )
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path)]) == 0
        truth = json.loads((tmp_path / "fringe_truth.json").read_text())
        (tmp_path / "eff.json").write_text(json.dumps(truth["efficiencies"]))
        fit_cfg = write_config(
            tmp_path / "fit.json",
            {
                "fringe_csv": str(tmp_path / "fringe.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2],
                "restarts": 6,
                "bootstrap_trials": 40,
                "seed": 8,
            },
        )
        assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["fit"]["converged"] is True
        measured = report["fisher"]["per_photon"]
        sigma = report["bootstrap"]["sigma_per_photon"]
        from fringelab.metrology import optimal_fisher_two_photon

        predicted = optimal_fisher_two_photon(0.8, 0.0119).value / 2.0
        assert abs(measured - predicted) < 5 * max(sigma, 1e-3)

    def test_fit_deterministic(self, tmp_path):
        sim_cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 0.6},
                "phases": {"count": 12},
                "expected_counts_per_point": 3000,
                "seed": 5,
            },
        )
        main(["simulate", "--config", sim_cfg, "--out", str(tmp_path)])
        truth = json.loads((tmp_path / "fringe_truth.json").read_text())
        (tmp_path / "eff.json").write_text(json.dumps(truth["efficiencies"]))
        fit_cfg = write_config(
            tmp_path / "fit.json",
            {
                "fringe_csv": str(tmp_path / "fringe.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2],
                "restarts": 4,
                "bootstrap_trials": 10,
                "seed": 3,
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", "--config", fit_cfg, "--out", str(out_a)]) == 0
        assert main(["fit", "--config", fit_cfg, "--out", str(out_b)]) == 0
        assert (out_a / "fit_report.json").read_bytes() == (
            out_b / "fit_report.json"
        ).read_bytes()

    def _fit_config(self, tmp_path, name, fringe_csv, trials):
        (tmp_path / f"{name}.csv").write_text(fringe_csv)
        (tmp_path / "eff.json").write_text('{"0": 1.0, "2": 1.0}')
        return write_config(
            tmp_path / f"{name}.json",
            {
                "fringe_csv": str(tmp_path / f"{name}.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2],
                "bootstrap_trials": trials,
            },
        )

    def test_report_holds_the_results_in_field_order(self, tmp_path, monkeypatch):
        real_fit_batch, real_pipeline = estimation._fit_batch, cli._fit_pipeline

        def every_other_refit_fails(geometry, counts, eta):
            coeff, ll, converged = real_fit_batch(geometry, counts, eta)
            return coeff, ll, converged & ((len(counts) == 1) | (np.arange(len(counts)) % 2 == 1))

        results = []
        monkeypatch.setattr(estimation, "_fit_batch", every_other_refit_fails)
        monkeypatch.setattr(cli, "_fit_pipeline", lambda *args: results.append(real_pipeline(*args)) or results[0])
        cfg = self._fit_config(tmp_path, "fringe", _FRINGE_CSV, 10)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        (fit, fisher, boot), = results

        assert list(report) == ["fit", "fisher", "bootstrap"]
        assert list(report["fit"]) == ["model", "log_likelihood", "converged"]
        assert report["fit"]["model"] == {
            "classes": [0, 2],
            "harmonics": [2],
            "coefficients": {
                str(c): {"c0": row[0], "cos": {"2": row[1]}, "sin": {"2": row[2]}}
                for c, row in zip((0, 2), fit.model.coefficients.tolist())
            },
        }
        assert report["fit"]["log_likelihood"] == fit.log_likelihood
        assert report["fit"]["converged"] is True

        assert list(report["fisher"]) == ["theta", "fisher", "max", "argmax", "per_photon"]
        assert report["fisher"]["theta"] == list(fisher.theta_grid)
        assert report["fisher"]["fisher"] == list(fisher.fisher_values)
        assert len(report["fisher"]["theta"]) == len(report["fisher"]["fisher"]) == 256
        assert (report["fisher"]["max"], report["fisher"]["argmax"]) == (fisher.max_fisher, fisher.argmax_theta)
        assert report["fisher"]["per_photon"] == pytest.approx(report["fisher"]["max"] / 2)

        assert list(report["bootstrap"]) == [
            "sigma_max_fisher", "sigma_per_photon", "sigma_coefficients", "trials", "failed_refits"
        ]
        assert report["bootstrap"] == {
            "sigma_max_fisher": boot.sigma_max_fisher,
            "sigma_per_photon": boot.sigma_per_photon,
            "sigma_coefficients": boot.sigma_coefficients.tolist(),
            "trials": 10,
            "failed_refits": 5,
        }

    def test_blank_lines_are_skipped(self, tmp_path):
        header, *rows = _FRINGE_CSV.splitlines()
        spaced = "\n".join([header, "", *rows[:3], "   ", *rows[3:], ""]) + "\n"
        for name, text in (("plain", _FRINGE_CSV), ("spaced", spaced)):
            cfg = self._fit_config(tmp_path, name, text, 4)
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        plain, spaced = ((tmp_path / name / "fit_report.json").read_bytes() for name in ("plain", "spaced"))
        assert plain == spaced

    def test_empty_input_is_parse_error(self, tmp_path):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "eff.json").write_text('{"0": 1.0, "2": 1.0}')
        cfg = write_config(
            tmp_path / "fit.json",
            {
                "fringe_csv": str(tmp_path / "empty.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2],
            },
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("theta,class,count\n0.1,0,12\n0.2,zero,3\n")
        (tmp_path / "eff.json").write_text('{"0": 1.0, "2": 1.0}')
        cfg = write_config(
            tmp_path / "fit.json",
            {
                "fringe_csv": str(tmp_path / "bad.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2],
            },
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert ":3:" in capsys.readouterr().err

    def test_aliased_harmonics_exit_4(self, tmp_path, capsys):
        # sin(6 theta) vanishes at all 12 equally spaced phases.
        sim_cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "dual_fock", "n": 3, "indist": 0.5},
                "zeta": 0.0119,
                "bins_per_arm": 6,
                "phases": {"count": 12},
                "expected_counts_per_point": 300,
                "seed": 5,
            },
        )
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path)]) == 0
        truth = json.loads((tmp_path / "fringe_truth.json").read_text())
        (tmp_path / "eff.json").write_text(json.dumps(truth["efficiencies"]))
        fit_cfg = write_config(
            tmp_path / "fit.json",
            {
                "fringe_csv": str(tmp_path / "fringe.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2, 4, 6],
                "bootstrap_trials": 10,
            },
        )
        assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path)]) == 4
        assert "12 phases alias harmonics [2, 4, 6]" in capsys.readouterr().err
        assert not (tmp_path / "fit_report.json").exists()

    def test_non_converged_fit_exits_4_after_its_report(self, tmp_path, capsys, monkeypatch):
        # One Newton step is too few for this fit.
        monkeypatch.setattr(estimation, "_MAX_ITER", 1)
        (tmp_path / "fringe.csv").write_text(_FRINGE_CSV)
        (tmp_path / "eff.json").write_text('{"0": 1.0, "2": 1.0}')
        cfg = write_config(
            tmp_path / "fit.json",
            {
                "fringe_csv": str(tmp_path / "fringe.csv"),
                "efficiency_json": str(tmp_path / "eff.json"),
                "harmonics": [2],
                "bootstrap_trials": 4,
            },
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "non-convergence: maximum-likelihood fit did not converge\n"
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["fit"]["converged"] is False


@pytest.mark.parametrize(
    "fringe,efficiencies,where",
    [
        ("0.1,0,12\n0.1,2,3\n", {"0": 0, "2": 1.0}, "eff.json: efficiency of class 0"),
        ("0.1,0,12\n0.1,2,3\n", {"0": -1, "2": 1.0}, "eff.json: efficiency of class 0"),
        ("0.1,0,12\n0.1,2,3\n", {"0": math.nan, "2": 1.0}, "eff.json: efficiency of class 0"),
        ("0.1,0,12\n0.1,2,3\n", {"0": 1.0}, "eff.json: no efficiency for class 2"),
        ("0.1,0,12\n0.1,2,3\n", [1.0, 1.0], "eff.json: must be an object"),
        ("0.1,0,12\n0.1,2,-3\n", {"0": 1.0, "2": 1.0}, "fringe.csv:3: count"),
        ("nan,0,12\n0.1,2,3\n", {"0": 1.0, "2": 1.0}, "fringe.csv:2: bad theta"),
        ("0.1,0,12\n0.1,2,3\n0.1,0,7\n", {"0": 1.0, "2": 1.0}, "fringe.csv:4: repeats class 0"),
        ("0.1,0,12,1\n0.1,2,3\n", {"0": 1.0, "2": 1.0}, "fringe.csv:2: expected 3 fields, got 4"),
        ("", {"0": 1.0, "2": 1.0}, "fringe.csv: no data rows"),
        # A string is written as it is.
        ("0.1,0,12\n0.1,2,3\n", '{"0": 1.0,', "eff.json: Expecting"),
        ("0.1,0,12\n0.1,2,3\n", {"zero": 1.0, "2": 1.0}, "eff.json: class 'zero' is not an integer"),
        ("0.1,0,12\n0.1,2,3\n", {"0": True, "2": 1.0}, "eff.json: efficiency of class 0"),
        ("0.1,0,12\n0.1,2,3\n", {"0": "0.5", "2": 1.0}, "eff.json: efficiency of class 0"),
        # Counts are exact as floats below 2^53; phases times the top
        # harmonic stay floats.
        pytest.param(
            "0.1,0,1" + "0" * 400 + "\n0.1,2,3\n",
            {"0": 1.0, "2": 1.0},
            "fringe.csv:2: count must be in [0, 2^53)",
            id="count-10^400",
        ),
        ("0.1,0,12\n0.1,2,9007199254740992\n", {"0": 1.0, "2": 1.0}, "fringe.csv:3: count must be in"),
        ("0.1,0,12\n1e308,2,3\n", {"0": 1.0, "2": 1.0}, "fringe.csv:3: phase 1e+308 is beyond"),
        ("abc,0,12\n0.1,2,3\n", {"0": 1.0, "2": 1.0}, "fringe.csv:2: bad theta value 'abc'"),
        # One fit holds at most as many phases as simulate writes.
        pytest.param(
            "".join(f"{i},0,1\n" for i in range(cli.MAX_PHASES + 1)),
            {"0": 1.0, "2": 1.0},
            f"fringe.csv:{cli.MAX_PHASES + 2}: more than {cli.MAX_PHASES} distinct phases",
            id="too-many-phases",
        ),
        # Two keys that int() reads as one class.
        ("0.1,0,12\n0.1,2,3\n", {"0": 1.0, "2": 0.75, "02": 0.1}, "eff.json: class '02' repeats class 2"),
        ("0.1,0,12\n0.1,2,3\n", {"0": 1.0, "2": 0.75, " 2 ": 0.1}, "eff.json: class ' 2 ' repeats class 2"),
    ],
)
def test_bad_fit_data_is_parse_error(tmp_path, capsys, fringe, efficiencies, where):
    (tmp_path / "fringe.csv").write_text("theta,class,count\n" + fringe)
    text = efficiencies if isinstance(efficiencies, str) else json.dumps(efficiencies)
    (tmp_path / "eff.json").write_text(text)
    cfg = write_config(
        tmp_path / "fit.json",
        {
            "fringe_csv": str(tmp_path / "fringe.csv"),
            "efficiency_json": str(tmp_path / "eff.json"),
            "harmonics": [2],
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {tmp_path}/{where}")
    assert not (tmp_path / "fit_report.json").exists()


@pytest.mark.parametrize(
    "fringe_csv,header,efficiency_json,where",
    [
        ("fringe.csv", "theta,count", "eff.json", "{tmp}/fringe.csv:1: expected header 'theta,class,count'"),
        ("fringe.csv", "theta,class,count", ".", "cannot read {tmp}:"),
        ("missing.csv", "theta,class,count", "eff.json", "cannot read {tmp}/missing.csv:"),
    ],
    ids=["wrong-header", "unreadable-efficiencies", "unreadable-fringe"],
)
def test_unusable_fit_file_is_parse_error(tmp_path, capsys, fringe_csv, header, efficiency_json, where):
    (tmp_path / "fringe.csv").write_text(header + "\n0.1,0,12\n0.1,2,3\n")
    (tmp_path / "eff.json").write_text('{"0": 1.0, "2": 1.0}')
    cfg = write_config(
        tmp_path / "fit.json",
        {
            "fringe_csv": str(tmp_path / fringe_csv),
            "efficiency_json": str(tmp_path / efficiency_json),
            "harmonics": [2],
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("parse error: " + where.format(tmp=tmp_path))
    assert not (tmp_path / "fit_report.json").exists()


class TestHomCommand:
    def _dip_csv(self, path, a, b, sigma, noise_rng=None):
        xs = np.linspace(-8, 8, 25)
        lines = ["x,p,weight"]
        for x in xs:
            p = a + b * quartic_gaussian_overlap(float(x), sigma)
            if noise_rng is not None:
                p = max(0.0, p + noise_rng.normal(scale=0.003))
            lines.append(f"{x},{p},1.0")
        path.write_text("\n".join(lines) + "\n")

    def test_recovers_width(self, tmp_path):
        self._dip_csv(tmp_path / "dip.csv", 0.5, -0.45, 2.0)
        cfg = write_config(
            tmp_path / "hom.json",
            {"input": str(tmp_path / "dip.csv"), "init": {"a": 0.4, "b": -0.35, "sigma": 1.5}},
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "hom_fit.json").read_text())
        assert report["sigma"] == pytest.approx(2.0, abs=1e-6)
        assert not report["ill_posed"]
        curve = (tmp_path / "iprime_curve.csv").read_text().splitlines()
        assert curve[0] == "x,iprime"
        # Zero delay is not sampled, but the deepest point approaches 1-2(a+b).
        values = [float(line.split(",")[1]) for line in curve[1:]]
        assert max(values) == pytest.approx(1 - 2 * (0.5 - 0.45), abs=0.05)

    def test_fit_file_is_the_fields_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.spectral, "fit_hom_dip", lambda points: HomDipFit(0.5, -0.4, 2.0, 0.0))
        (tmp_path / "dip.csv").write_text(_DIP_CSV)
        cfg = write_config(tmp_path / "hom.json", {"input": str(tmp_path / "dip.csv")})
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "hom_fit.json").read_text() == (
            '{"a": 0.5, "b": -0.4, "sigma": 2.0, "residual": 0.0, "ill_posed": false, "converged": true}\n'
        )

    def test_zero_delay_probability_above_one_exits_4(self, tmp_path, capsys):
        # Noise-free a = 0.9, b = 0.3 fits exactly, with a + b = 1.2.
        self._dip_csv(tmp_path / "dip.csv", 0.9, 0.3, 2.0)
        cfg = write_config(tmp_path / "hom.json", {"input": str(tmp_path / "dip.csv")})
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 4
        report = json.loads((tmp_path / "hom_fit.json").read_text())
        assert capsys.readouterr().err == (
            "non-convergence: dip fit is ill-posed (fitted zero-delay coincidence "
            f"a + b = {report['a'] + report['b']!r} is not a probability)\n"
        )
        assert report["ill_posed"] is True
        assert report["a"] + report["b"] == pytest.approx(1.2, abs=1e-6)
        assert len((tmp_path / "iprime_curve.csv").read_text().split()) == 26

    def test_empty_file_is_parse_error(self, tmp_path):
        (tmp_path / "dip.csv").write_text("")
        cfg = write_config(
            tmp_path / "hom.json",
            {"input": str(tmp_path / "dip.csv"), "init": {"a": 0.5, "b": -0.5, "sigma": 1}},
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "rows,where",
        [
            ("0,0.1,1\n1,0.2,1\n2,0.3,1\n", "dip.csv: need at least 4 rows"),
            ("0,0.1,1\n1,0.2,-1\n2,0.3,1\n3,0.3,1\n", "dip.csv:3: weight"),
            ("nan,0.1,1\n1,0.2,1\n2,0.3,1\n3,0.3,1\n", "dip.csv:2: bad x"),
        ],
    )
    def test_bad_dip_data_is_parse_error(self, tmp_path, capsys, rows, where):
        (tmp_path / "dip.csv").write_text("x,p,weight\n" + rows)
        cfg = write_config(
            tmp_path / "hom.json",
            {"input": str(tmp_path / "dip.csv"), "init": {"a": 0.5, "b": -0.4, "sigma": 1}},
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"parse error: {tmp_path}/{where}")

    def test_non_converged_dip_fit_exits_4(self, tmp_path, monkeypatch):
        self._dip_csv(tmp_path / "dip.csv", 0.5, -0.45, 2.0)
        cfg = write_config(
            tmp_path / "hom.json",
            {"input": str(tmp_path / "dip.csv"), "init": {"a": 0.4, "b": -0.35, "sigma": 1.5}},
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        report = json.loads((tmp_path / "ok" / "hom_fit.json").read_text())
        assert report["converged"] is True

        real_fit = cli.spectral.fit_hom_dip
        monkeypatch.setattr(
            cli.spectral,
            "fit_hom_dip",
            lambda *args, **kwargs: dataclasses.replace(real_fit(*args, **kwargs), converged=False),
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path / "bad")]) == 4
        report = json.loads((tmp_path / "bad" / "hom_fit.json").read_text())
        assert report["converged"] is False

    def test_flat_data_exits_nonzero(self, tmp_path, capsys):
        xs = np.linspace(-5, 5, 20)
        (tmp_path / "dip.csv").write_text(
            "x,p,weight\n" + "\n".join(f"{x},0.5,1.0" for x in xs) + "\n"
        )
        cfg = write_config(
            tmp_path / "hom.json",
            {"input": str(tmp_path / "dip.csv"), "init": {"a": 0.5, "b": -0.1, "sigma": 2}},
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "non-convergence: dip fit is ill-posed (sigma unidentifiable)\n"
        report = json.loads((tmp_path / "hom_fit.json").read_text())
        assert report["ill_posed"] is True


    def test_zero_weights_exit_4_without_traceback(self, tmp_path, capsys):
        xs = np.linspace(-8, 8, 17)
        (tmp_path / "dip.csv").write_text(
            "x,p,weight\n"
            + "\n".join(f"{x},{0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0)},0" for x in xs)
            + "\n"
        )
        cfg = write_config(
            tmp_path / "hom.json",
            {"input": str(tmp_path / "dip.csv"), "init": {"a": 0.5, "b": -0.4, "sigma": 2}},
        )
        assert main(["hom", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((tmp_path / "hom_fit.json").read_text())["ill_posed"] is True
        assert len((tmp_path / "iprime_curve.csv").read_text().split()) == len(xs) + 1

    def test_init_has_no_effect(self, tmp_path):
        # The data set the sigma window, so any init, or none, gives the
        # same fit; an init sigma at the edge of the float range warns of
        # nothing.
        rows = [
            f"{x!r},{0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0)!r},1"
            for x in np.linspace(-8.0, 8.0, 17).tolist()
        ]
        (tmp_path / "dip.csv").write_text("x,p,weight\n" + "\n".join(rows) + "\n")
        reports = []
        for sigma in (None, 1e-308, 1e-5, 0.2, 2, 20, 1e5, 1e308):
            config = {"input": str(tmp_path / "dip.csv")}
            if sigma is not None:
                config["init"] = {"a": 0.5, "b": -0.4, "sigma": sigma}
            out = tmp_path / f"out_{sigma}"
            cfg = write_config(tmp_path / "hom.json", config)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["hom", "--config", cfg, "--out", str(out)]) == 0
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            reports.append((out / "hom_fit.json").read_bytes())
        assert all(report == reports[0] for report in reports)
        assert json.loads(reports[0])["sigma"] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("edge", [5e-324, 1.7e308])
    def test_delays_at_the_float_range_edges_exit_4(self, tmp_path, capsys, edge):
        xs = [edge, 1.0, 2.0, 3.0, 4.0]
        rows = [f"{x!r},{0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0)!r},1" for x in xs]
        (tmp_path / "dip.csv").write_text("x,p,weight\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path / "hom.json", {"input": str(tmp_path / "dip.csv")})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["hom", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("non-convergence: dip fit is ill-posed")
        assert "Traceback" not in err


def _run_python(code, cwd=None):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )


def test_cli_import_leaves_out_scipy():
    code = (
        "import sys, fringelab, fringelab.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert _run_python(code).stdout.strip() == "[]"


def test_metrology_import_builds_no_four_photon_table():
    # The tables are built at the first prediction, so that a traced run's
    # first fisher_scan op records the fock and detection calls behind them.
    code = "import fringelab.metrology as m; print(m._four_photon_tables.cache_info().currsize)"
    assert _run_python(code).stdout.strip() == "0"


def test_cli_import_builds_no_four_photon_table():
    # The first four-photon simulate builds it, so that a traced run's cold
    # four_photon_fit op records the fock and detection calls behind it.
    code = "import fringelab.cli as c; print(c.metrology._four_photon_tables.cache_info().currsize)"
    assert _run_python(code).stdout.strip() == "0"


def test_warm_four_photon_simulate_builds_no_sectors(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "sim.json",
        {"probe": {"type": "four_photon", "lambdas": [0.8, 0.6], "tau": 0.7}, "expected_counts_per_point": 1000},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "cold")]) == 0
    built = []
    real = cli.metrology.PathSectors

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli.metrology, "PathSectors", counted)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    assert built == []
    for name in ("fringe.csv", "fringe_truth.json"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # A blocked import raises ImportError, also from a function that
    # imports lazily, so each subcommand's whole path is covered.
    xs = np.linspace(-8.0, 8.0, 17)
    dip = [f"{x},{0.5 - 0.4 * quartic_gaussian_overlap(x, 2.0)!r},1" for x in xs.tolist()]
    (tmp_path / "dip.csv").write_text("x,p,weight\n" + "\n".join(dip) + "\n")
    configs = {
        "hom": {"input": "dip.csv", "init": {"a": 0.5, "b": -0.4, "sigma": 1.5}},
        "simulate": {
            "probe": {"type": "two_photon", "iprime": 0.5},
            "zeta": 0.0119,
            "phases": {"count": 8},
            "expected_counts_per_point": 5000,
            "seed": 3,
        },
        "fit": {**_FIT, "bootstrap_trials": 5, "seed": 4},
        "predict": {"mode": "four_photon_extremes", "lambda4": 0.479, "zeta": 0.0282},
        "reproduce-fig3": {**_FIG3, "phases": {"count": 8}, "bootstrap_trials": 5},
    }
    for name, config in configs.items():
        write_config(tmp_path / f"{name}.json", config)
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from fringelab.cli import main\n"
        "codes = {}\n"
        "for name in ('hom', 'simulate', 'fit', 'predict', 'reproduce-fig3'):\n"
        "    if name == 'fit':\n"
        "        truth = json.load(open('fringe_truth.json'))\n"
        "        json.dump(truth['efficiencies'], open('eff.json', 'w'))\n"
        "    codes[name] = main([name, '--config', name + '.json', '--out', '.'])\n"
        "print(json.dumps(codes))\n"
    )
    codes = json.loads(_run_python(code, cwd=tmp_path).stdout.splitlines()[-1])
    assert codes == dict.fromkeys(configs, 0)


class TestPredictCommand:
    def test_noiseless_two_photon_curve_exact(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json",
            {"mode": "two_photon_curve", "zeta": 0.0, "iprimes": {"count": 11}},
        )
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "prediction.csv").read_text().strip().splitlines()
        assert lines[0] == "iprime,fprime"
        for line in lines[1:]:
            ip, fp = (float(v) for v in line.split(","))
            assert fp == ip + 1.0

    def test_four_photon_extremes(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json",
            {"mode": "four_photon_extremes", "lambda4": 0.4790, "zeta": 0.0282},
        )
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "prediction.csv").read_text().strip().splitlines()
        values = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
        assert values["1"] == pytest.approx(2.246, rel=0.05)
        assert values["0"] == pytest.approx(0.7547, rel=0.05)

    @pytest.mark.parametrize(
        "lam4, zeta, message",
        [
            (0.5, 1.0, "zeta 1.0 outside [0, 1)"),
            (0.0, 1.0, "zeta 1.0 outside [0, 1)"),
            (0.0, 0.1, "lambda4 0.0 outside (0, 1]"),
            (-0.5, 0.1, "lambda4 -0.5 outside (0, 1]"),
            (math.nan, 0.1, "lambda4: must be a finite number"),
            (0.5, math.nan, "zeta: must be a finite number"),
        ],
    )
    def test_four_photon_extremes_out_of_range_exit_2(self, tmp_path, capsys, lam4, zeta, message):
        cfg = write_config(
            tmp_path / "p.json", {"mode": "four_photon_extremes", "lambda4": lam4, "zeta": zeta}
        )
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "prediction.csv").exists()

    def test_small_angle(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.json", {"mode": "small_angle", "n": 3, "indist": 1.0}
        )
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "prediction.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[2] == "24"

    def test_unknown_mode_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "p.json", {"mode": "banana"})
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_reproduce_fig3_rejects_probe(tmp_path, capsys):
    # Every reproduce-fig3 point simulates a two-photon probe, so a probe
    # in its config is unknown, not ignored.
    cfg = write_config(tmp_path / "c.json", {**_FIG3, "probe": "banana"})
    assert main(["reproduce-fig3", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: config: unknown keys ['probe']\n"
    assert not list(tmp_path.glob("*.csv"))


def test_reproduce_fig3_stage_failure_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(estimation, "_MAX_ITER", 1)
    cfg = write_config(tmp_path / "c.json", _FIG3)
    assert main(["reproduce-fig3", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        "non-convergence: stage failure at iprime=0.5: fit did not converge\n"
    )
    assert not list(tmp_path.glob("fig3*"))


@pytest.mark.parametrize(
    "iprimes", [{"count": -3}, {"count": 0}, {"count": "x"}, ["a"], [1.5], [], [0.5] * 1001]
)
@pytest.mark.parametrize(
    "command,config",
    [
        ("predict", {"mode": "two_photon_curve", "zeta": 0.0}),
        ("reproduce-fig3", {"expected_counts_per_point": 1000}),
    ],
)
def test_bad_iprime_grid_is_config_error(tmp_path, capsys, command, config, iprimes):
    cfg = write_config(tmp_path / "c.json", {**config, "iprimes": iprimes})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "iprimes" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


_SIMULATE = {"probe": {"type": "two_photon", "iprime": 0.5}, "expected_counts_per_point": 100}
_FIT = {"fringe_csv": "fringe.csv", "efficiency_json": "eff.json", "harmonics": [2]}
_FIG3 = {"expected_counts_per_point": 1000, "iprimes": [0.5]}
_HOM = {"input": "dip.csv"}
_INIT = {"a": 0.5, "b": -0.4, "sigma": 1.5}


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("simulate", {**_SIMULATE, "phases": {"count": "x"}}, "phases.count"),
        ("simulate", {**_SIMULATE, "phases": {"count": 2.5}}, "phases.count"),
        ("simulate", {**_SIMULATE, "phases": {"start": None}}, "phases.start"),
        ("simulate", {**_SIMULATE, "restarts": "x"}, "restarts"),
        ("simulate", {**_SIMULATE, "seed": -1}, "seed"),
        ("simulate", {**_SIMULATE, "expected_counts_per_point": "abc"}, "expected_counts_per_point"),
        ("simulate", {**_SIMULATE, "expected_counts_per_point": math.nan}, "expected_counts_per_point"),
        ("simulate", {**_SIMULATE, "expected_counts_per_point": 0}, "expected_counts_per_point"),
        ("simulate", {**_SIMULATE, "zeta": None}, "zeta"),
        ("simulate", {**_SIMULATE, "probe": {"type": "dual_fock", "n": 5, "indist": 0.5}}, "probe"),
        ("fit", {**_FIT, "bootstrap_trials": 1}, "bootstrap_trials"),
        ("fit", {**_FIT, "restarts": "x"}, "restarts"),
        ("fit", {**_FIT, "restarts": 0}, "restarts"),
        ("fit", {**_FIT, "seed": "7"}, "seed"),
        ("fit", {**_FIT, "harmonics": [0]}, "harmonics"),
        ("fit", {**_FIT, "harmonics": [2, 2]}, "harmonics"),
        ("fit", {**_FIT, "harmonics": [True]}, "harmonics"),
        ("fit", {**_FIT, "harmonics": 2}, "harmonics"),
        ("reproduce-fig3", {**_FIG3, "bootstrap_trials": 1}, "bootstrap_trials"),
        ("reproduce-fig3", {**_FIG3, "restarts": 0}, "restarts"),
        ("predict", {"mode": "two_photon_curve", "zeta": "x"}, "zeta"),
        ("predict", {"mode": "four_photon_extremes", "lambda4": None, "zeta": 0.0}, "lambda4"),
        ("predict", {"mode": "small_angle", "n": None, "indist": 1.0}, "n"),
        ("simulate", {**_SIMULATE, "expected_counts_per_point": 1e30}, "expected_counts_per_point"),
        ("reproduce-fig3", {**_FIG3, "expected_counts_per_point": 1e30}, "expected_counts_per_point"),
        ("simulate", {**_SIMULATE, "phases": {"count": 10**30}}, "phases.count"),
        ("simulate", {**_SIMULATE, "phases": {"start": -1e308, "stop": 1e308}}, "phases.stop"),
        ("simulate", {**_SIMULATE, "bins_per_arm": math.inf}, "bins_per_arm"),
        ("simulate", {**_SIMULATE, "probe": {"type": "dual_fock", "n": 3, "indist": 0.5}}, "bins_per_arm"),
        ("simulate", {**_SIMULATE, "probe": {"type": "dual_fock", "n": math.inf, "indist": 0.5}}, "probe"),
        ("reproduce-fig3", {**_FIG3, "bootstrap_trials": 10**30}, "bootstrap_trials"),
        ("predict", {"mode": "two_photon_curve", "zeta": 0.0, "iprimes": {"count": 10**30}}, "iprimes"),
        ("hom", {**_HOM, "init": {**_INIT, "a": "x"}}, "init.a"),
        ("hom", {**_HOM, "init": {**_INIT, "b": None}}, "init.b"),
        ("hom", {**_HOM, "init": {**_INIT, "sigma": 0}}, "init.sigma"),
        ("hom", {**_HOM, "init": {**_INIT, "sigma": "NaN"}}, "init.sigma"),
        ("hom", {**_HOM, "init": {**_INIT, "sigma": math.nan}}, "init.sigma"),
        ("hom", {**_HOM, "init": {**_INIT, "sigma": math.inf}}, "init.sigma"),
        ("hom", {**_HOM, "init": {**_INIT, "sigma": 10**400}}, "init.sigma"),
        ("hom", {"input": 5}, "input"),
        ("hom", {"input": None}, "input"),
        ("fit", {**_FIT, "fringe_csv": 5}, "fringe_csv"),
        ("fit", {**_FIT, "efficiency_json": ["eff.json"]}, "efficiency_json"),
        ("predict", {"mode": "small_angle", "n": 10**200, "indist": 1.0}, "n"),
        ("simulate", {**_SIMULATE, "probe": {"type": "four_photon", "lambdas": [13**-0.5] * 13, "tau": 0.7}}, "probe.lambdas"),
        # The grid stays finite, but not twice its phases.
        ("simulate", {**_SIMULATE, "phases": {"start": 1e308, "stop": 1.1e308, "count": 2}}, "phases: phase 1.05e+308"),
        ("simulate", {**_SIMULATE, "phases": {"start": 1e308, "stop": 1.5e308}}, "phases"),
        ("reproduce-fig3", {**_FIG3, "phases": {"start": 1e308, "stop": 1.5e308}}, "phases"),
        # In range for the table, out of range for the detector model.
        ("simulate", {**_SIMULATE, "zeta": 1.0}, "zeta:"),
        ("reproduce-fig3", {**_FIG3, "zeta": -0.1}, "zeta:"),
        ("predict", {"mode": "two_photon_curve", "zeta": 1.0, "iprimes": [0.5]}, "zeta 1.0 outside [0, 1)"),
    ],
)
def test_bad_typed_field_is_config_error(tmp_path, capsys, command, config, field):
    cfg = write_config(tmp_path / "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert not list(tmp_path.glob("*.csv"))


def _field(valid):
    """A config field: a valid small value, or a wrong type, NaN, an
    infinity, a negative value or a huge one."""
    return st.one_of(
        valid,
        st.sampled_from(["x", None, [], {}, True]),
        st.sampled_from([math.nan, math.inf, -math.inf, -1, -2.5, 1e30, 10**30, 1e300]),
    )


_EXPERIMENT_FIELDS = {
    "zeta": _field(st.sampled_from([0.0, 0.0119, 0.05])),
    "bins_per_arm": _field(st.integers(1, 8)),
    "phases": _field(
        st.fixed_dictionaries(
            {},
            optional={
                "count": _field(st.integers(1, 16)),
                "start": _field(st.floats(-1.0, 1.0)),
                "stop": _field(st.floats(3.2, 7.0)),
            },
        )
    ),
    "seed": _field(st.integers(0, 100)),
    "restarts": _field(st.integers(1, 3)),
    "bootstrap_trials": _field(st.integers(2, 5)),
}
_COUNTS = _field(st.sampled_from([10, 1000, 100_000]))
_PROBES = _field(
    st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("two_photon"), "iprime": _field(st.floats(0.0, 1.0))}
        ),
        st.fixed_dictionaries(
            {
                "type": st.just("dual_fock"),
                "n": _field(st.integers(1, 3)),
                "indist": _field(st.floats(0.0, 1.0)),
            }
        ),
        st.fixed_dictionaries(
            {
                "type": st.just("four_photon"),
                "lambdas": _field(st.just([0.8, 0.6])),
                "tau": _field(st.floats(0.0, 1.0)),
            }
        ),
    )
)
_IPRIMES = _field(
    st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
        st.fixed_dictionaries({"count": _field(st.integers(1, 2))}),
    )
)
# Fixed data files of the fit and hom examples: a two-photon fringe on eight
# phases and a noiseless dip of width 2.
_FRINGE_CSV = "theta,class,count\n" + "".join(
    f"{t!r},0,{round(900 + 700 * math.cos(2 * t))}\n{t!r},2,{round(300 - 250 * math.cos(2 * t))}\n"
    for t in (np.arange(8) * math.pi / 4).tolist()
)
_DIP_CSV = "x,p,weight\n" + "".join(
    f"{x!r},{0.5 - 0.4 * float(quartic_gaussian_overlap(x, 2.0))!r},1.0\n"
    for x in np.linspace(-8.0, 8.0, 17).tolist()
)
_EFFICIENCY = _field(st.floats(0.05, 1.0))
_CONFIGS = st.one_of(
    st.tuples(
        st.just("simulate"),
        st.fixed_dictionaries(
            {"probe": _PROBES, "expected_counts_per_point": _COUNTS},
            optional=_EXPERIMENT_FIELDS,
        ),
    ),
    st.tuples(
        st.just("reproduce-fig3"),
        st.fixed_dictionaries(
            {"expected_counts_per_point": _COUNTS, "iprimes": _IPRIMES},
            optional=_EXPERIMENT_FIELDS,
        ),
    ),
    st.tuples(
        st.just("predict"),
        st.one_of(
            st.fixed_dictionaries(
                {"mode": st.just("two_photon_curve"), "zeta": _field(st.floats(0.0, 0.5))},
                optional={"iprimes": _IPRIMES},
            ),
            st.fixed_dictionaries(
                {
                    "mode": st.just("four_photon_extremes"),
                    "lambda4": _field(st.floats(0.1, 1.0)),
                    "zeta": _field(st.floats(0.0, 0.5)),
                }
            ),
            st.fixed_dictionaries(
                {
                    "mode": st.just("small_angle"),
                    "n": _field(st.integers(1, 4)),
                    "indist": _field(st.floats(0.0, 1.0)),
                }
            ),
        ),
    ),
    # The efficiency object is written to the efficiency file.
    st.tuples(
        st.just("fit"),
        st.fixed_dictionaries(
            {
                "harmonics": st.just([2]),
                "efficiency_json": _field(
                    st.fixed_dictionaries({}, optional={"0": _EFFICIENCY, "2": _EFFICIENCY})
                ),
            },
            optional={k: _EXPERIMENT_FIELDS[k] for k in ("seed", "restarts", "bootstrap_trials")},
        ),
    ),
    st.tuples(
        st.just("hom"),
        st.fixed_dictionaries(
            {
                "init": _field(
                    st.fixed_dictionaries(
                        {
                            "a": _field(st.floats(0.3, 0.7)),
                            "b": _field(st.floats(-0.5, -0.2)),
                            "sigma": _field(st.floats(0.5, 4.0)),
                        }
                    )
                )
            }
        ),
    ),
)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_CONFIGS)
@example(("simulate", {**_SIMULATE, "expected_counts_per_point": 1e30}))
@example(("reproduce-fig3", {**_FIG3, "expected_counts_per_point": 1e30}))
@example(("fit", {"harmonics": [2], "efficiency_json": {"0": math.nan, "2": 1.0}}))
@example(("hom", {"init": {**_INIT, "sigma": 0}}))
@example(("hom", {"init": {**_INIT, "sigma": 1e-308}}))
def test_any_config_ends_in_a_documented_exit_code(command_config):
    command, config = command_config
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        out_dir = Path(out)
        if command == "fit":
            (out_dir / "fringe.csv").write_text(_FRINGE_CSV)
            (out_dir / "eff.json").write_text(json.dumps(config["efficiency_json"]))
            config = {
                **config,
                "fringe_csv": str(out_dir / "fringe.csv"),
                "efficiency_json": str(out_dir / "eff.json"),
            }
        elif command == "hom":
            (out_dir / "dip.csv").write_text(_DIP_CSV)
            config = {**config, "input": str(out_dir / "dip.csv")}
        path = write_config(out_dir / "c.json", config)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


class TestTopLevel:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text,what",
        [("{", "invalid JSON"), ("[1, 2]", "config must be a JSON object")],
        ids=["invalid-json", "not-an-object"],
    )
    def test_unusable_config_file(self, tmp_path, capsys, text, what):
        (tmp_path / "c.json").write_text(text)
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path / 'c.json'}: {what}")

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(cfg):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "simulate", (out_of_memory, cli._COMMANDS["simulate"][1]))
        cfg = write_config(
            tmp_path / "sim.json",
            {"probe": {"type": "two_photon", "iprime": 0.5}, "expected_counts_per_point": 1000},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: out of memory running simulate; ask for a smaller run\n"
        assert list(out.iterdir()) == []

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 0.5},
                "phases": {"count": 8},
                "expected_counts_per_point": 1000,
                "seed": 1,
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--seed", "2", "--out", str(out_b)])
        assert (out_a / "fringe.csv").read_bytes() != (out_b / "fringe.csv").read_bytes()

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # The parser is built once per process; no call leaves a value
        # behind for the next, whatever its subcommand.
        sim = write_config(
            tmp_path / "sim.json",
            {
                "probe": {"type": "two_photon", "iprime": 0.5},
                "phases": {"count": 8},
                "expected_counts_per_point": 1000,
                "seed": 1,
            },
        )
        pred = write_config(tmp_path / "p.json", {"mode": "small_angle", "n": 3, "indist": 1.0})
        runs = {name: tmp_path / name for name in ("seed2", "predict", "config", "seed1")}
        assert main(["simulate", "--config", sim, "--seed", "2", "--out", str(runs["seed2"])]) == 0
        assert main(["predict", "--config", pred, "--out", str(runs["predict"])]) == 0
        assert main(["simulate", "--config", sim, "--out", str(runs["config"])]) == 0
        assert main(["simulate", "--config", sim, "--seed", "1", "--out", str(runs["seed1"])]) == 0
        fringe = {name: (out / "fringe.csv").read_bytes() for name, out in runs.items() if name != "predict"}
        assert fringe["config"] == fringe["seed1"] != fringe["seed2"]
        assert cli._parser() is cli._parser()
        for argv in (["simulate"], ["banana", "--config", sim], ["predict", "--config", pred, "--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["predict", "--config", pred, "--out", str(runs["predict"])]) == 0

    @pytest.mark.parametrize("command", ["hom", "predict"])
    def test_seed_flag_rejected_where_nothing_is_drawn(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path / "c.json",
            {"input": "dip.csv", "init": _INIT}
            if command == "hom"
            else {"mode": "small_angle", "n": 3, "indist": 1.0},
        )
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
