"""Batch command-line front end.

    fringelab <hom|predict> --config cfg.json [--out DIR]
    fringelab <simulate|fit|reproduce-fig3> --config cfg.json [--seed N] [--out DIR]

Every subcommand reads a JSON config, writes CSV/JSON artifacts into the
output directory, and is deterministic given its config; ``--seed``
overrides the config seed of the three that draw random numbers.  Exit
codes: 0 success, 2 config error, 3 parse error, 4 non-convergence or
ill-posed data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import detection, estimation, fock, metrology, spectral
from .errors import IllPosedError, ResourceLimitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NONCONVERGENCE = 4

# Upper bounds on sizes a config can ask for.  The bootstrap refits all of
# its trials in one batch, with memory growing as trials times data cells.
MAX_PHASES = 10_000
MAX_IPRIMES = 1_000
MAX_TRIALS = 10_000


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_keys(data: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object, got {data!r}")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _read_csv(path: str, header: str) -> list[tuple[int, list[str]]]:
    """Rows as (line_number, fields); raises ParseError with line numbers."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}:1: empty file, expected header '{header}'")
    if lines[0].strip() != header:
        raise ParseError(f"{path}:1: expected header '{header}', got '{lines[0].strip()}'")
    rows = []
    n_fields = len(header.split(","))
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n_fields:
            raise ParseError(f"{path}:{i}: expected {n_fields} fields, got {len(fields)}")
        rows.append((i, fields))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _float_field(path: str, line: int, value: str, name: str) -> float:
    """A finite number from a CSV field; anything else is a parse error."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ParseError(f"{path}:{line}: bad {name} value '{value}'")
    return number


# ---------------------------------------------------------------------------
# Experiment configuration.


def _build_probe(probe_cfg: dict):
    if not isinstance(probe_cfg, dict) or "type" not in probe_cfg:
        raise ConfigError("probe: must be an object with a 'type' key")
    kind = probe_cfg["type"]
    try:
        if kind == "two_photon":
            _check_keys(probe_cfg, {"type", "iprime"}, {"iprime"}, "probe")
            return fock.spdc_two_photon(float(probe_cfg["iprime"]))
        if kind == "four_photon":
            _check_keys(probe_cfg, {"type", "lambdas", "tau"}, {"lambdas", "tau"}, "probe")
            spectrum = spectral.SchmidtSpectrum([float(v) for v in probe_cfg["lambdas"]])
            return fock.four_photon_schmidt(spectrum, float(probe_cfg["tau"]))
        if kind == "dual_fock":
            _check_keys(probe_cfg, {"type", "n", "indist"}, {"n", "indist"}, "probe")
            return fock.dual_fock_mismatched(int(probe_cfg["n"]), float(probe_cfg["indist"]))
    except (ValueError, TypeError, OverflowError, ResourceLimitError) as exc:
        raise ConfigError(f"probe: {exc}") from exc
    raise ConfigError(f"probe.type: unknown probe type '{kind}'")


def _number(
    data: dict,
    key: str,
    default,
    *,
    above: float,
    at_most: float = math.inf,
    integer: bool = True,
    where: str = "",
) -> int | float:
    """``data[key]`` (``default`` when absent), which must be a finite number
    greater than ``above``, at most ``at_most`` and, if ``integer``,
    integral; anything else is a config error that names the field."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}{key}: must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite or not above < value <= at_most or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        limit = "" if at_most == math.inf else f" and at most {at_most:g}"
        raise ConfigError(
            f"{where}{key}: must be {kind} greater than {above}{limit}, got {value!r}"
        )
    return int(value) if integer else float(value)


def _phase_grid(phases_cfg: dict | None) -> np.ndarray:
    if phases_cfg is None:
        phases_cfg = {}
    _check_keys(phases_cfg, {"count", "start", "stop"}, set(), "phases")
    count = _number(phases_cfg, "count", 32, above=0, at_most=MAX_PHASES, where="phases.")
    start = _number(phases_cfg, "start", 0.0, above=-math.inf, integer=False, where="phases.")
    stop = _number(phases_cfg, "stop", 2 * math.pi, above=-math.inf, integer=False, where="phases.")
    if not (start < stop and math.isfinite(stop - start)):
        raise ConfigError("phases.stop: must exceed phases.start by a finite span")
    return start + (stop - start) * np.arange(count) / count


def _iprime_grid(config: dict, default_count: int) -> np.ndarray:
    """Exchange-symmetry values from ``iprimes``: a list, or ``{"count": n}``
    for n evenly spaced values on [0, 1]."""
    grid_cfg = config.get("iprimes", {"count": default_count})
    if isinstance(grid_cfg, dict):
        _check_keys(grid_cfg, {"count"}, {"count"}, "iprimes")
        count = _number(grid_cfg, "count", None, above=0, at_most=MAX_IPRIMES, where="iprimes.")
        return np.linspace(0.0, 1.0, count)
    try:
        grid = np.array([float(v) for v in grid_cfg])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("iprimes: must be a list of numbers or {\"count\": n}") from None
    if grid.size == 0 or not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ConfigError("iprimes: need one or more values in [0, 1]")
    return grid


_EXPERIMENT_KEYS = {
    "probe",
    "zeta",
    "bins_per_arm",
    "phases",
    "expected_counts_per_point",
    "seed",
    "restarts",
}


def _experiment_config(data: dict, *, need_probe: bool, extra: set[str] = frozenset()) -> dict:
    allowed = _EXPERIMENT_KEYS | extra
    required = {"expected_counts_per_point"} | ({"probe"} if need_probe else set())
    _check_keys(data, allowed, required, "config")
    zeta = _number(data, "zeta", 0.0, above=-math.inf, integer=False)
    bins = _number(data, "bins_per_arm", 4, above=0)
    try:
        noise = detection.NoiseAndEfficiencyConfig(zeta=zeta, bins_per_arm=bins)
    except ValueError as exc:
        raise ConfigError(f"zeta: {exc}") from exc
    probe = _build_probe(data["probe"]) if need_probe else None
    # reproduce-fig3 simulates two-photon probes.
    photons = probe.total_photons if need_probe else 2
    if photons > noise.bins_per_arm:
        raise ConfigError(
            f"bins_per_arm: {photons} photons need at least {photons} bins per arm, "
            f"got {noise.bins_per_arm}"
        )
    # ``restarts`` is checked, as ``fit`` does, because README configs set
    # it; the fit has one optimum and no random start, so it has no effect.
    _number(data, "restarts", 1, above=0)
    return {
        "probe": probe,
        "noise": noise,
        "phases": _phase_grid(data.get("phases")),
        # Counts stay below 2^53, exact as floats in the fit.
        "expected": _number(
            data, "expected_counts_per_point", None, above=0, at_most=1e15, integer=False
        ),
        "seed": _number(data, "seed", 0, above=-1),
    }


# ---------------------------------------------------------------------------
# Simulation and fitting building blocks shared by subcommands.


def _simulate_points(probe, noise, phases, expected, seed):
    """Per-phase sampled class counts plus the ground-truth probabilities.

    The probabilities at every phase come from one exact Fourier table
    (``metrology.fringe_probabilities``, 2N + 1 probe rotations in all);
    each phase then draws its Poisson counts from its own spawned seed.
    """
    family = metrology.counting_family(probe, noise.zeta)
    etas = detection.class_efficiencies(family.n_photons, noise.bins_per_arm)
    table = metrology.fringe_probabilities(family, phases)
    children = np.random.SeedSequence(seed).spawn(len(phases))
    points = []
    truth = []
    for child, theta, row in zip(children, phases, table):
        probs = dict(zip(family.classes, row.tolist()))
        means = {c: probs[c] * etas[c] for c in family.classes}
        counts = detection.sample_counts(means, expected, child)
        points.append((float(theta), counts))
        truth.append(probs)
    return family, etas, points, truth


def _write_fringe_csv(path: Path, points) -> None:
    lines = ["theta,class,count"]
    for theta, counts in points:
        for c in sorted(counts):
            lines.append(f"{_fmt(theta)},{c},{counts[c]}")
    path.write_text("\n".join(lines) + "\n")


def _write_truth_json(path: Path, family, etas, truth, points, noise, expected) -> None:
    payload = {
        "classes": list(family.classes),
        "zeta": noise.zeta,
        "bins_per_arm": noise.bins_per_arm,
        "efficiencies": {str(c): etas[c] for c in family.classes},
        "expected_counts_per_point": expected,
        "theta": [theta for theta, _ in points],
        "probs": [[row[c] for c in family.classes] for row in truth],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _fit_pipeline(dataset, harmonics, trials, seed):
    fit = estimation.fit_mle(dataset, harmonics)
    fisher = estimation.fisher_from_model(fit.model)
    boot = estimation.bootstrap_errors(fit, dataset, trials=trials, seed=seed + 1)
    return fit, fisher, boot


def _fit_report_payload(fit, fisher, boot) -> dict:
    return {
        "fit": {
            "model": json.loads(fit.model.to_json()),
            "log_likelihood": fit.log_likelihood,
            "converged": fit.converged,
        },
        "fisher": json.loads(fisher.to_json()),
        "bootstrap": json.loads(boot.to_json()),
    }


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_hom(config: dict, out: Path) -> int:
    _check_keys(config, {"input", "init"}, {"input"}, "config")
    # ``init`` is checked, as ``restarts`` is, because existing configs set
    # it; the delays set the sigma window, so it has no effect.
    if "init" in config:
        init = config["init"]
        _check_keys(init, {"a", "b", "sigma"}, {"a", "b", "sigma"}, "init")
        for key in ("a", "b", "sigma"):
            _number(init, key, None, above=-math.inf, integer=False, where="init.")
        if init["sigma"] == 0.0:
            raise ConfigError("init.sigma: must be nonzero, got 0")
    path = str(config["input"])
    points = []
    for line, fields in _read_csv(path, "x,p,weight"):
        point = tuple(
            _float_field(path, line, value, name) for value, name in zip(fields, ("x", "p", "weight"))
        )
        if point[2] < 0:
            raise ParseError(f"{path}:{line}: weight must be nonnegative, got '{fields[2]}'")
        points.append(point)
    if len(points) < 4:
        raise ParseError(f"{path}: need at least 4 rows to fit (a, b, sigma), got {len(points)}")
    try:
        fit = spectral.fit_hom_dip(points)
    except IllPosedError as exc:
        raise NonConvergence(f"dip fit is ill-posed: {exc}") from exc
    (out / "hom_fit.json").write_text(fit.to_json() + "\n")
    xs = sorted({x for x, _, _ in points})
    qs = spectral.quartic_gaussian_overlap(xs, fit.sigma) if not fit.ill_posed else [0.0] * len(xs)
    lines = ["x,iprime"]
    for x, q in zip(xs, qs):
        lines.append(f"{_fmt(x)},{_fmt(1.0 - 2.0 * (fit.a + fit.b * q))}")
    (out / "iprime_curve.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'hom_fit.json'} and {out / 'iprime_curve.csv'}")
    if fit.ill_posed:
        raise NonConvergence("dip fit is ill-posed (sigma unidentifiable)")
    if not fit.converged:
        raise NonConvergence("dip fit did not converge")
    return EXIT_OK


def cmd_simulate(config: dict, out: Path) -> int:
    cfg = _experiment_config(config, need_probe=True)
    family, etas, points, truth = _simulate_points(
        cfg["probe"], cfg["noise"], cfg["phases"], cfg["expected"], cfg["seed"]
    )
    _write_fringe_csv(out / "fringe.csv", points)
    _write_truth_json(
        out / "fringe_truth.json", family, etas, truth, points, cfg["noise"], cfg["expected"]
    )
    print(f"wrote {out / 'fringe.csv'} and {out / 'fringe_truth.json'}")
    return EXIT_OK


def _efficiencies(path: str) -> dict[int, float]:
    """Class efficiencies from a JSON object {"class": efficiency in (0, 1]}."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: must be an object of class efficiencies, got {data!r}")
    eff = {}
    for key, value in data.items():
        try:
            cls = int(key)
        except ValueError:
            raise ParseError(f"{path}: class '{key}' is not an integer") from None
        try:
            eff[cls] = float(value)
            valid = 0.0 < eff[cls] <= 1.0
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ParseError(f"{path}: efficiency of class {key} must be in (0, 1], got {value!r}")
    return eff


def cmd_fit(config: dict, out: Path) -> int:
    allowed = {"fringe_csv", "efficiency_json", "harmonics", "restarts", "bootstrap_trials", "seed"}
    _check_keys(config, allowed, {"fringe_csv", "efficiency_json", "harmonics"}, "config")
    harmonics = config["harmonics"]
    if isinstance(harmonics, list):
        harmonics = [_number({"harmonics": k}, "harmonics", None, above=0) for k in harmonics]
    if not isinstance(harmonics, list) or not harmonics or len(set(harmonics)) < len(harmonics):
        raise ConfigError(f"harmonics: must be unique positive integers, got {harmonics!r}")
    _number(config, "restarts", 1, above=0)
    trials = _number(config, "bootstrap_trials", 200, above=1, at_most=MAX_TRIALS)
    seed = _number(config, "seed", 0, above=-1)
    csv_path, eff_path = str(config["fringe_csv"]), str(config["efficiency_json"])
    by_theta: dict[float, dict[int, int]] = {}
    for line, (ts, cs, xs) in _read_csv(csv_path, "theta,class,count"):
        theta = _float_field(csv_path, line, ts, "theta")
        try:
            cls, count = int(cs), int(xs)
        except ValueError:
            raise ParseError(f"{csv_path}:{line}: class and count must be integers") from None
        if count < 0:
            raise ParseError(f"{csv_path}:{line}: count must be nonnegative, got {count}")
        if cls in by_theta.setdefault(theta, {}):
            raise ParseError(f"{csv_path}:{line}: repeats class {cls} at theta {ts}")
        by_theta[theta][cls] = count
    eff = _efficiencies(eff_path)
    missing = {c for counts in by_theta.values() for c in counts} - set(eff)
    if missing:
        raise ParseError(f"{eff_path}: no efficiency for class {min(missing)} of {csv_path}")
    dataset = estimation.FringeDataset(tuple((t, by_theta[t]) for t in sorted(by_theta)), eff)
    try:
        fit, fisher, boot = _fit_pipeline(dataset, harmonics, trials, seed)
    except IllPosedError as exc:
        raise NonConvergence(f"fit is ill-posed: {exc}") from exc
    (out / "fit_report.json").write_text(
        json.dumps(_fit_report_payload(fit, fisher, boot), indent=1) + "\n"
    )
    print(f"wrote {out / 'fit_report.json'}")
    if not fit.converged:
        raise NonConvergence("maximum-likelihood fit did not converge")
    return EXIT_OK


def cmd_predict(config: dict, out: Path) -> int:
    if "mode" not in config:
        raise ConfigError("config: missing keys ['mode']")
    mode = config["mode"]
    path = out / "prediction.csv"
    if mode == "two_photon_curve":
        _check_keys(config, {"mode", "zeta", "iprimes"}, {"zeta"}, "config")
        zeta = _number(config, "zeta", None, above=-math.inf, integer=False)
        grid = _iprime_grid(config, default_count=51)
        try:
            curve = metrology.predicted_fprime_curve(grid, zeta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        lines = ["iprime,fprime"]
        lines += [f"{_fmt(ip)},{_fmt(fp)}" for ip, fp in zip(grid, curve)]
    elif mode == "four_photon_extremes":
        _check_keys(config, {"mode", "lambda4", "zeta"}, {"lambda4", "zeta"}, "config")
        lambda4 = _number(config, "lambda4", None, above=-math.inf, integer=False)
        zeta = _number(config, "zeta", None, above=-math.inf, integer=False)
        try:
            full, zero = metrology.predict_four_photon_extremes(lambda4, zeta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        lines = ["iprime,fprime", f"1,{_fmt(full)}", f"0,{_fmt(zero)}"]
    elif mode == "small_angle":
        _check_keys(config, {"mode", "n", "indist"}, {"n", "indist"}, "config")
        n = _number(config, "n", None, above=0)
        indist = _number(config, "indist", None, above=-math.inf, integer=False)
        try:
            value = metrology.small_angle_fisher(n, indist)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        lines = ["n,indist,fisher", f"{n},{_fmt(indist)},{_fmt(value)}"]
    else:
        raise ConfigError(f"mode: unknown prediction mode '{mode}'")
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_reproduce_fig3(config: dict, out: Path) -> int:
    cfg = _experiment_config(config, need_probe=False, extra={"iprimes", "bootstrap_trials"})
    trials = _number(config, "bootstrap_trials", 100, above=1, at_most=MAX_TRIALS)
    grid = _iprime_grid(config, default_count=6)
    zeta = cfg["noise"].zeta
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(grid))
    rows = []
    for point_seed, iprime in zip(seeds, grid):
        iprime = float(iprime)
        try:
            probe = fock.spdc_two_photon(iprime)
            sub_seeds = point_seed.generate_state(2)
            _, etas, points, _ = _simulate_points(
                probe, cfg["noise"], cfg["phases"], cfg["expected"], int(sub_seeds[0])
            )
            dataset = estimation.FringeDataset(tuple(points), etas)
            fit, fisher, boot = _fit_pipeline(dataset, [2], trials, int(sub_seeds[1]))
            if not fit.converged:
                raise NonConvergence("fit did not converge")
            predicted = metrology.optimal_fisher_two_photon(iprime, zeta).value / 2.0
        except (ValueError, RuntimeError) as exc:
            raise NonConvergence(f"stage failure at iprime={iprime}: {exc}") from exc
        rows.append(
            {
                "iprime": iprime,
                "fprime": fisher.per_photon,
                "sigma": boot.sigma_per_photon,
                "predicted": predicted,
            }
        )
    lines = ["iprime,fprime,sigma,predicted"]
    for r in rows:
        lines.append(
            f"{_fmt(r['iprime'])},{_fmt(r['fprime'])},{_fmt(r['sigma'])},{_fmt(r['predicted'])}"
        )
    (out / "fig3.csv").write_text("\n".join(lines) + "\n")
    deviations = [
        abs(r["fprime"] - r["predicted"]) / r["sigma"] if r["sigma"] > 0 else math.inf
        for r in rows
    ]
    summary = {
        "points": rows,
        "max_abs_deviation_sigma": max(deviations),
    }
    (out / "fig3_summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out / 'fig3.csv'} and {out / 'fig3_summary.json'}")
    return EXIT_OK


_COMMANDS = {
    "hom": cmd_hom,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "reproduce-fig3": cmd_reproduce_fig3,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description="Simulate, fit, and predict photon-counting interference fringes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if name in ("simulate", "fit", "reproduce-fig3"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
