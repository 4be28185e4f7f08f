"""Batch command-line front end.

    fringelab <hom|predict> --config cfg.json [--out DIR]
    fringelab <simulate|fit|reproduce-fig3> --config cfg.json [--seed N] [--out DIR]

Every subcommand reads a JSON config and returns the text of its CSV/JSON
artifacts; ``main`` alone writes them into the output directory and prints
one "wrote" line.  This module alone decides every artifact's format: the
subcommands build their CSV rows and JSON payloads from the library's
result fields, which serialise nothing themselves.  Each subcommand is
deterministic given its config; ``--seed`` overrides the config seed of the
three that draw random numbers.
Exit codes: 0 success, 2 config error, 3 parse error, 4 non-convergence or
ill-posed data.  A fit that ends unconverged still has its report written
before the exit 4; a command that fails part-way writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import reprlib
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import detection, estimation, fock, metrology, spectral
from .errors import IllPosedError, ResourceLimitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NONCONVERGENCE = 4

# Upper bounds on sizes a config or a fringe CSV can ask for.  The bootstrap
# refits its trials in blocks of bounded size (``estimation._BLOCK_CELLS``).
MAX_PHASES = 10_000
MAX_IPRIMES = 1_000
MAX_TRIALS = 10_000
# Counts are exact as floats in the fit below 2^53.
MAX_COUNT = 2**53


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
# Config tables.  ``main`` reads a config through its subcommand's table
# (``_COMMANDS``), each ``cmd_*`` gets the normalised dict and returns its
# files, and ``main`` writes them.


@dataclass(frozen=True)
class _Field:
    """A config field.  ``kind`` is ``int``, ``float``, ``str``, ``[item]``
    for a list of ``item`` fields, a dict of fields for a nested table, or a
    (list, table) pair that the value's JSON type picks from; with a ``tag``,
    a dict of tables that the value of the ``tag`` key picks from.  A number
    is finite, integral for ``int``, greater than ``above`` and at most
    ``at_most``; for a list the two bound its length.  An absent field takes
    ``default``: ``...`` means it must be given, and None that it stays absent."""

    kind: object
    default: object = ...
    above: float = -math.inf
    at_most: float = math.inf
    tag: str | None = None


def _read(value, field: _Field, where: str = ""):
    """``value`` checked against ``field`` and normalised: numbers as int or
    float, tables with their defaults filled in.  A misfit is a config error
    that starts with the dotted field name ``where``."""
    kind = field.kind
    if isinstance(kind, tuple):
        kind = kind[isinstance(value, dict)]
    name, prefix = (where, where + ".") if where else ("config", "")

    def misfit(what: str) -> ConfigError:
        if field.above > -math.inf:
            what += f" greater than {field.above:g}"
        if field.at_most < math.inf:
            what += f" and at most {field.at_most:g}"
        return ConfigError(f"{name}: must be {what}, got {reprlib.repr(value)}")

    if kind is str:
        if not isinstance(value, str):
            raise misfit("a string")
        return value
    if isinstance(kind, list):
        if not (isinstance(value, list) and field.above < len(value) <= field.at_most):
            raise misfit("a list of length")
        return [_read(item, kind[0], where) for item in value]
    if kind in (int, float):
        try:  # a TypeError for a non-number, an OverflowError for an int beyond floats
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
        if not (ok and field.above < value <= field.at_most) or kind is int and value != int(value):
            raise misfit("an integer" if kind is int else "a finite number")
        return kind(value)
    if not isinstance(value, dict):
        raise misfit("an object")
    if field.tag is not None:
        choice = value.get(field.tag)
        if not (isinstance(choice, str) and choice in kind):
            raise ConfigError(f"{prefix}{field.tag}: must be one of {sorted(kind)}, got {choice!r}")
        kind = {field.tag: _Field(str), **kind[choice]}
    required = {key for key, f in kind.items() if f.default is ...}
    for problem, keys in (("unknown", set(value) - set(kind)), ("missing", required - set(value))):
        if keys:
            raise ConfigError(f"{name}: {problem} keys {sorted(keys)}")
    return {
        key: _read(value.get(key, f.default), f, prefix + key)
        for key, f in kind.items()
        if key in value or f.default is not None
    }


# Accepted and checked, but without effect, because README and benchmark
# configs set them: the fringe fit has one optimum, so it needs no restarts,
# and the delays set the dip fit's sigma window, so it needs no init.
_NO_EFFECT = {
    "restarts": _Field(int, 1, above=0),
    "init": _Field({key: _Field(float) for key in ("a", "b", "sigma")}, None),
}
_SEED = _Field(int, 0, above=-1)
_TRIALS = _Field(int, 200, above=1, at_most=MAX_TRIALS)
# Exchange-symmetry values: a list, or {"count": n} evenly spaced on [0, 1].
_GRID = {"count": _Field(int, above=0, at_most=MAX_IPRIMES)}
_IPRIMES = _Field(([_Field(float)], _GRID), {"count": 51}, above=0, at_most=MAX_IPRIMES)
_PHASES = {
    "count": _Field(int, 32, above=0, at_most=MAX_PHASES),
    "start": _Field(float, 0.0),
    "stop": _Field(float, 2 * math.pi),
}
_EXPERIMENT = {
    "zeta": _Field(float, 0.0),
    "bins_per_arm": _Field(int, 4, above=0),
    "phases": _Field(_PHASES, {}),
    # Counts stay below 2^53, exact as floats in the fit.
    "expected_counts_per_point": _Field(float, above=0, at_most=1e15),
    "seed": _SEED,
    "restarts": _NO_EFFECT["restarts"],
}
_PROBES = {
    "two_photon": {"iprime": _Field(float)},
    "four_photon": {"lambdas": _Field([_Field(float)], above=0, at_most=12), "tau": _Field(float)},
    "dual_fock": {"n": _Field(int, above=0), "indist": _Field(float)},
}
_FIT = {
    "fringe_csv": _Field(str),
    "efficiency_json": _Field(str),
    "harmonics": _Field([_Field(int, above=0)], above=0),
    "bootstrap_trials": _TRIALS,
    "seed": _SEED,
    "restarts": _NO_EFFECT["restarts"],
}
_PREDICTIONS = {
    "two_photon_curve": {"zeta": _Field(float), "iprimes": _IPRIMES},
    "four_photon_extremes": {"lambda4": _Field(float), "zeta": _Field(float)},
    # As for the counts: n stays an exact float, and 2(n + I n^2) finite.
    "small_angle": {"n": _Field(int, above=0, at_most=10**15), "indist": _Field(float)},
}
_FIG3 = {
    **_EXPERIMENT,
    "iprimes": replace(_IPRIMES, default={"count": 6}),
    "bootstrap_trials": replace(_TRIALS, default=100),
}


# ---------------------------------------------------------------------------
# Simulation and fitting building blocks shared by subcommands, with the
# checks across config fields.


def _build_probe(probe: dict):
    """A probe config's photon number and its class probabilities, shaped
    (phases, classes), as a function of the background fraction and the
    phases."""
    try:
        if probe["type"] == "four_photon":
            # The purity-weighted pair mixture has the Schmidt state's
            # counting statistics; its rows come from a cached table.
            spectrum = spectral.SchmidtSpectrum(probe["lambdas"])
            return 4, metrology.four_photon_fringe(spectral.lambda4(spectrum), probe["tau"])
        if probe["type"] == "two_photon":
            state = fock.spdc_two_photon(probe["iprime"])
        else:
            state = fock.dual_fock_mismatched(probe["n"], probe["indist"])
    except (ValueError, OverflowError, ResourceLimitError) as exc:
        raise ConfigError(f"probe: {exc}") from exc
    return state.total_photons, lambda zeta, phases: metrology.fringe_probabilities(
        metrology.counting_family(state, zeta), phases
    )


def _experiment(cfg: dict, photons: int):
    """The detector and phase grid of an experiment with ``photons``-photon probes."""
    bins = cfg["bins_per_arm"]
    if photons > bins:
        raise ConfigError(f"bins_per_arm: must be at least the probe's {photons} photons, got {bins}")
    start, stop, count = (cfg["phases"][key] for key in ("start", "stop", "count"))
    if not (start < stop and math.isfinite(stop - start)):
        raise ConfigError("phases.stop: must exceed phases.start by a finite span")
    try:
        noise = detection.NoiseAndEfficiencyConfig(zeta=cfg["zeta"], bins_per_arm=bins)
    except ValueError as exc:
        raise ConfigError(f"zeta: {exc}") from exc
    # Scaled before the span multiplies them, the steps stay within the span.
    phases = start + (stop - start) * (np.arange(count) / count)
    _check_phase(float(np.abs(phases).max()), photons, ConfigError, "phases")
    return noise, phases


def _check_phase(theta: float, harmonic: int, error: type, where: str) -> None:
    """Raise ``error`` at ``where`` unless ``harmonic`` * ``theta`` is a
    float: a fringe's top harmonic turns a phase beyond that into NaN."""
    if not math.isfinite(harmonic * abs(theta)):
        raise error(f"{where}: phase {theta!r} is beyond the float range at harmonic {harmonic}")


def _iprime_values(iprimes) -> np.ndarray:
    if isinstance(iprimes, dict):
        return np.linspace(0.0, 1.0, iprimes["count"])
    if not all(0.0 <= v <= 1.0 for v in iprimes):
        raise ConfigError(f"iprimes: values must lie in [0, 1], got {reprlib.repr(iprimes)}")
    return np.array(iprimes)


def _draw_counts(photons, table, noise, phases, expected, seed):
    """The class efficiencies of a ``photons``-photon probe, and its counts
    at each phase drawn from the class probabilities ``table`` (phases,
    classes), columns in class order.  Every count is drawn from one stream,
    ``default_rng(seed)``: the counts are one ``poisson`` draw of the means
    ``expected * p * eta``, shaped (phases, classes), as the bootstrap draws
    its resamples."""
    etas = detection.class_efficiencies(photons, noise.bins_per_arm)
    counts = np.random.default_rng(seed).poisson(expected * (table * np.array(list(etas.values()))))
    points = [(float(theta), dict(zip(etas, row))) for theta, row in zip(phases, counts.tolist())]
    return etas, points


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of formatted fields."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=1) + "\n"


def _fisher_section(fisher) -> dict:
    """The ``fisher`` section of ``fit_report.json``."""
    return {
        "theta": list(fisher.theta_grid),
        "fisher": list(fisher.fisher_values),
        "max": fisher.max_fisher,
        "argmax": fisher.argmax_theta,
        "per_photon": fisher.per_photon,
    }


def _bootstrap_section(boot) -> dict:
    """The ``bootstrap`` section of ``fit_report.json``; the fit's own
    maximum is the ``fisher`` section."""
    return {
        "sigma_max_fisher": boot.sigma_max_fisher,
        "sigma_per_photon": boot.sigma_per_photon,
        "sigma_coefficients": boot.sigma_coefficients.tolist(),
        "trials": boot.trials,
        "failed_refits": boot.failed_refits,
    }


def _fit_pipeline(dataset, harmonics, trials, seed):
    """The fit and its bootstrap; the bootstrap maximises the fit's model
    alongside its refits, as ``boot.fisher``."""
    fit = estimation.fit_mle(dataset, harmonics)
    return fit, estimation.bootstrap_errors(fit, dataset, trials=trials, seed=seed + 1)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (files, failure): the text of every file it
# made, by file name, and the non-convergence message that ``main`` exits 4
# with after writing them, or None.


def cmd_hom(cfg: dict) -> tuple[dict[str, str], str | None]:
    if cfg.get("init", {}).get("sigma") == 0.0:
        raise ConfigError("init.sigma: must be nonzero, got 0")
    path = cfg["input"]
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
    xs = sorted({x for x, _, _ in points})
    qs = spectral.quartic_gaussian_overlap(xs, fit.sigma) if not fit.ill_posed else [0.0] * len(xs)
    curve = [(_fmt(x), _fmt(1.0 - 2.0 * (fit.a + fit.b * q))) for x, q in zip(xs, qs)]
    files = {"hom_fit.json": json.dumps(asdict(fit)) + "\n", "iprime_curve.csv": _csv("x,iprime", curve)}
    if fit.ill_posed:
        reason = spectral.zero_delay_problem(fit.a, fit.b) or "sigma unidentifiable"
        return files, f"dip fit is ill-posed ({reason})"
    return files, None if fit.converged else "dip fit did not converge"


def cmd_simulate(cfg: dict) -> tuple[dict[str, str], str | None]:
    photons, fringe = _build_probe(cfg["probe"])
    noise, phases = _experiment(cfg, photons)
    expected = cfg["expected_counts_per_point"]
    truth = fringe(noise.zeta, phases)
    etas, points = _draw_counts(photons, truth, noise, phases, expected, cfg["seed"])
    rows = [(_fmt(theta), str(c), str(counts[c])) for theta, counts in points for c in sorted(counts)]
    truth_payload = {
        "classes": list(etas),
        "zeta": noise.zeta,
        "bins_per_arm": noise.bins_per_arm,
        "efficiencies": {str(c): eta for c, eta in etas.items()},
        "expected_counts_per_point": expected,
        "theta": [theta for theta, _ in points],
        "probs": truth.tolist(),
    }
    return {"fringe.csv": _csv("theta,class,count", rows), "fringe_truth.json": _json(truth_payload)}, None


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
        if cls in eff:
            raise ParseError(f"{path}: class '{key}' repeats class {cls}")
        # A JSON number: float() would read true as 1.0 and "0.5" as 0.5.
        if not (type(value) in (int, float) and 0.0 < value <= 1.0):
            raise ParseError(
                f"{path}: efficiency of class {key} must be a number in (0, 1], got {reprlib.repr(value)}"
            )
        eff[cls] = float(value)
    return eff


def cmd_fit(cfg: dict) -> tuple[dict[str, str], str | None]:
    harmonics = cfg["harmonics"]
    if len(set(harmonics)) < len(harmonics):
        raise ConfigError(f"harmonics: must be unique positive integers, got {harmonics!r}")
    csv_path, eff_path = cfg["fringe_csv"], cfg["efficiency_json"]
    by_theta: dict[float, dict[int, int]] = {}
    for line, (ts, cs, xs) in _read_csv(csv_path, "theta,class,count"):
        theta = _float_field(csv_path, line, ts, "theta")
        _check_phase(theta, max(harmonics), ParseError, f"{csv_path}:{line}")
        try:
            cls, count = int(cs), int(xs)
        except ValueError:
            raise ParseError(f"{csv_path}:{line}: class and count must be integers") from None
        if not 0 <= count < MAX_COUNT:
            raise ParseError(f"{csv_path}:{line}: count must be in [0, 2^53), got {reprlib.repr(count)}")
        if theta not in by_theta and len(by_theta) == MAX_PHASES:
            raise ParseError(f"{csv_path}:{line}: more than {MAX_PHASES} distinct phases")
        if cls in by_theta.setdefault(theta, {}):
            raise ParseError(f"{csv_path}:{line}: repeats class {cls} at theta {ts}")
        by_theta[theta][cls] = count
    eff = _efficiencies(eff_path)
    missing = {c for counts in by_theta.values() for c in counts} - set(eff)
    if missing:
        raise ParseError(f"{eff_path}: no efficiency for class {min(missing)} of {csv_path}")
    dataset = estimation.FringeDataset(tuple((t, by_theta[t]) for t in sorted(by_theta)), eff)
    try:
        fit, boot = _fit_pipeline(dataset, harmonics, cfg["bootstrap_trials"], cfg["seed"])
    except IllPosedError as exc:
        raise NonConvergence(f"fit is ill-posed: {exc}") from exc
    model = fit.model
    keys = [str(k) for k in model.harmonics]
    report = {
        "fit": {
            "model": {
                "classes": list(model.classes),
                "harmonics": list(model.harmonics),
                "coefficients": {
                    str(c): {
                        "c0": row[0],
                        "cos": dict(zip(keys, row[1::2])),
                        "sin": dict(zip(keys, row[2::2])),
                    }
                    for c, row in zip(model.classes, model.coefficients.tolist())
                },
            },
            "log_likelihood": fit.log_likelihood,
            "converged": fit.converged,
        },
        "fisher": _fisher_section(boot.fisher),
        "bootstrap": _bootstrap_section(boot),
    }
    failure = None if fit.converged else "maximum-likelihood fit did not converge"
    return {"fit_report.json": _json(report)}, failure


def cmd_predict(cfg: dict) -> tuple[dict[str, str], str | None]:
    mode = cfg["mode"]
    try:
        if mode == "two_photon_curve":
            grid = _iprime_values(cfg["iprimes"])
            curve = metrology.predicted_fprime_curve(grid, cfg["zeta"])
            header, rows = "iprime,fprime", [(_fmt(ip), _fmt(fp)) for ip, fp in zip(grid, curve)]
        elif mode == "four_photon_extremes":
            full, zero = metrology.predict_four_photon_extremes(cfg["lambda4"], cfg["zeta"])
            header, rows = "iprime,fprime", [("1", _fmt(full)), ("0", _fmt(zero))]
        else:
            value = metrology.small_angle_fisher(cfg["n"], cfg["indist"])
            header, rows = "n,indist,fisher", [(str(cfg["n"]), _fmt(cfg["indist"]), _fmt(value))]
    except ValueError as exc:  # a physics range, or an iprime outside [0, 1]
        raise ConfigError(str(exc)) from exc
    return {"prediction.csv": _csv(header, rows)}, None


def cmd_reproduce_fig3(cfg: dict) -> tuple[dict[str, str], str | None]:
    # Every point is a two-photon simulate, then a harmonics-[2] fit.
    noise, phases = _experiment(cfg, 2)
    grid = _iprime_values(cfg["iprimes"])
    expected, trials = cfg["expected_counts_per_point"], cfg["bootstrap_trials"]
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(grid))
    curve = metrology.predicted_fprime_curve(grid, noise.zeta).tolist()
    rows = []
    for point_seed, iprime, predicted in zip(seeds, grid, curve):
        iprime = float(iprime)
        sim_seed, fit_seed = (int(s) for s in point_seed.generate_state(2))
        try:
            photons, fringe = _build_probe({"type": "two_photon", "iprime": iprime})
            etas, points = _draw_counts(photons, fringe(noise.zeta, phases), noise, phases, expected, sim_seed)
            fit, boot = _fit_pipeline(estimation.FringeDataset(tuple(points), etas), [2], trials, fit_seed)
            if not fit.converged:
                raise NonConvergence("fit did not converge")
            if not boot.sigma_per_photon > 0:
                raise NonConvergence("bootstrap spread is zero")
        except (ValueError, RuntimeError) as exc:
            raise NonConvergence(f"stage failure at iprime={iprime}: {exc}") from exc
        rows.append(
            {
                "iprime": iprime,
                "fprime": boot.fisher.per_photon,
                "sigma": boot.sigma_per_photon,
                "predicted": predicted,
            }
        )
    table = _csv("iprime,fprime,sigma,predicted", ([_fmt(v) for v in r.values()] for r in rows))
    deviations = [abs(r["fprime"] - r["predicted"]) / r["sigma"] for r in rows]
    summary = {
        "points": rows,
        "max_abs_deviation_sigma": max(deviations),
    }
    return {"fig3.csv": table, "fig3_summary.json": _json(summary)}, None


_COMMANDS = {
    "hom": (cmd_hom, _Field({"input": _Field(str), "init": _NO_EFFECT["init"]})),
    "simulate": (cmd_simulate, _Field({"probe": _Field(_PROBES, tag="type"), **_EXPERIMENT})),
    "fit": (cmd_fit, _Field(_FIT)),
    "predict": (cmd_predict, _Field(_PREDICTIONS, tag="mode")),
    "reproduce-fig3": (cmd_reproduce_fig3, _Field(_FIG3)),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description="Simulate, fit, and predict photon-counting interference fringes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if table.tag is None and "seed" in table.kind:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        command, table = _COMMANDS[args.command]
        cfg = _read(config, table)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        files, failure = command(cfg)
        paths = [out / name for name in files]
        for path, text in zip(paths, files.values()):
            path.write_text(text)
        print("wrote " + " and ".join(map(str, paths)))
        if failure is not None:
            raise NonConvergence(failure)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MemoryError:
        print(f"config error: out of memory running {args.command}; ask for a smaller run", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
