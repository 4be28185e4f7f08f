"""One SHA-256 over the artifacts of a fixed set of command runs, to show
that a change leaves every artifact byte-identical.  From a checkout's root:

    python tests/artifact_digest.py

imports ``fringelab`` from that checkout's ``src``.  Run it in two
checkouts and compare the digests.  It runs, at seeds 1 and 5, the cold
operation and the first 15 steady operations of every benchmark workload,
through ``perfbench/workloads.py``'s ``make_inputs``, ``run_op`` and
``check_op``; then the README's ``simulate`` -> ``fit`` chain and its
``reproduce-fig3`` sweep, as one run, and its three ``predict`` commands,
one run each; then a ``simulate`` -> ``fit`` chain of a ``dual_fock`` probe,
as one run.  The digest covers each run's file names and bytes, its
printed output, and its error and check result.  Prints one line per group
of runs, ``group NAME: DIGEST  N runs``, for each workload, ``readme``,
``readme predict`` and ``probes``, so that a moved digest shows where it
moved, each followed by one line per file name made in that group's runs,
``file GROUP NAME: DIGEST``, over that file's bytes in every run, so that a
moved group shows which files moved; then, last, the digest of every run and
the number of runs.  Exits 1 if any run fails its check, a command of the
README or ``probes`` runs exits nonzero, or a ``*.json`` file a run made is
not strict JSON: ``json.dumps`` writes ``NaN`` and ``Infinity``, which no
JSON parser has to read.  That check leaves every digest as it is.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fringelab.cli as cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 5)
STEADY_OPS = 15

README_SIM = {
    "probe": {"type": "two_photon", "iprime": 0.8},
    "zeta": 0.0119,
    "bins_per_arm": 4,
    "phases": {"count": 32},
    "expected_counts_per_point": 100000,
    "seed": 7,
}
README_FIT = {
    "fringe_csv": "run/fringe.csv",
    "efficiency_json": "run/eff.json",
    "harmonics": [2],
    "restarts": 20,
    "bootstrap_trials": 200,
    "seed": 1,
}
README_FIG3 = {
    "iprimes": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "zeta": 0.0119,
    "phases": {"count": 32},
    "expected_counts_per_point": 100000,
    "seed": 7,
    "restarts": 8,
    "bootstrap_trials": 100,
}

README_PREDICTS = (
    {"mode": "two_photon_curve", "zeta": 0.0119, "iprimes": {"count": 51}},
    {"mode": "four_photon_extremes", "lambda4": 0.4790, "zeta": 0.0282},
    {"mode": "small_angle", "n": 3, "indist": 1.0},
)

# The dual_fock probe, which no workload or README command simulates.
PROBE_SIM = {
    "probe": {"type": "dual_fock", "n": 2, "indist": 0.6},
    "zeta": 0.0119,
    "bins_per_arm": 8,
    "phases": {"count": 20},
    "expected_counts_per_point": 1e4,
    "seed": 3,
}
PROBE_FIT = {
    "fringe_csv": "run/fringe.csv",
    "efficiency_json": "run/eff.json",
    "harmonics": [2, 4],
    "bootstrap_trials": 20,
    "seed": 4,
}

# simulate into run/, its efficiencies into run/eff.json, then fit.
SIMULATE_FIT = [
    ["simulate", "--config", "sim.json", "--out", "run"],
    ["efficiencies"],
    ["fit", "--config", "fit.json", "--out", "run"],
]


def _commands(configs: dict, steps: list) -> tuple[str | None, None]:
    """Write ``configs`` by file name, then run ``steps`` in the current
    directory: (error or None, None)."""
    for name, cfg in configs.items():
        Path(name).write_text(json.dumps(cfg))
    for step in steps:
        if step == ["efficiencies"]:
            truth = json.loads(Path("run/fringe_truth.json").read_text())
            Path("run/eff.json").write_text(json.dumps(truth["efficiencies"]))
        elif (code := cli.main(step)) != 0:
            return f"{step[0]} exited with {code}", None
    return None, None


def _readme_predict(cfg: dict) -> tuple[str | None, None]:
    """One README ``predict`` command in the current directory: (error or None, None)."""
    Path("p.json").write_text(json.dumps(cfg))
    code = cli.main(["predict", "--config", "p.json", "--out", "."])
    return (f"predict exited with {code}" if code else None), None


def _op(workload: str, op: dict):
    """A benchmark operation in the current directory: (error, check result)."""
    error = workloads.run_op(cli, op)
    return error, workloads.check_op(workload, op) if error is None else None


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _record(digests, files: dict, failures: list, label: str, directory: Path, run) -> None:
    """Call ``run`` in the new ``directory`` with its printed output captured,
    and add the label, error, check result and every file to each of
    ``digests``, and the label and each file's bytes to its digest in
    ``files``, by file name.  The run fails if it errs, fails its check, or
    made a ``*.json`` file that is not strict JSON."""
    directory.mkdir(parents=True)
    os.chdir(directory)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        error, check = run()
    Path("printed.txt").write_text(printed.getvalue())
    chunks = [f"{label}\0{error}\0{check}\0".encode()]
    loose = []
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        name, data = str(path.relative_to(directory)), path.read_bytes()
        if path.suffix == ".json":
            try:
                json.loads(data, parse_constant=_reject_constant)
            except ValueError as exc:
                loose.append(f"{name}: {exc}")
        chunks += [f"{name}\0".encode(), data]
        file_digest = files.setdefault(name, hashlib.sha256())
        file_digest.update(f"{label}\0".encode())
        file_digest.update(data)
    for digest in digests:
        for chunk in chunks:
            digest.update(chunk)
    if error or check or loose:
        failures.append(f"{label}: {error or check or '; '.join(loose)}")


def main() -> int:
    digest, failures = hashlib.sha256(), []
    groups: dict[str, list] = {}  # name: [digest, runs, {file name: digest}]
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:

        def record(group: str, label: str, run) -> None:
            entry = groups.setdefault(group, [hashlib.sha256(), 0, {}])
            _record((digest, entry[0]), entry[2], failures, label, Path(tmp, label.replace(" ", "_")), run)
            entry[1] += 1

        try:
            for workload in workloads.WORKLOADS:
                for seed in SEEDS:
                    cold, steady = workloads.make_inputs(workload, seed, Path(tmp, "inputs", f"{workload}_{seed}"))
                    for i, op in enumerate([cold, *steady[:STEADY_OPS]]):
                        record(workload, f"{workload} seed {seed} op {i}", functools.partial(_op, workload, op))
            readme = {"sim.json": README_SIM, "fit.json": README_FIT, "fig3.json": README_FIG3}
            fig3 = ["reproduce-fig3", "--config", "fig3.json", "--out", "sweep"]
            record("readme", "readme", functools.partial(_commands, readme, [*SIMULATE_FIT, fig3]))
            for cfg in README_PREDICTS:
                record("readme predict", f"readme predict {cfg['mode']}", functools.partial(_readme_predict, cfg))
            probes = {"sim.json": PROBE_SIM, "fit.json": PROBE_FIT}
            record("probes", "probes dual_fock", functools.partial(_commands, probes, SIMULATE_FIT))
        finally:
            os.chdir(home)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (group_digest, runs, files) in groups.items():
        print(f"group {name}: {group_digest.hexdigest()}  {runs} runs")
        for file_name, file_digest in sorted(files.items()):
            print(f"file {name} {file_name}: {file_digest.hexdigest()}")
    runs = sum(entry[1] for entry in groups.values())
    print(f"{digest.hexdigest()}  {runs} runs, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
