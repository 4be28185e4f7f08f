"""Self-test of the benchmark's output checks.

    python3 -m pytest -q perfbench/test_checks.py

Runs each workload's cold operation once, confirms its check passes, then
corrupts, truncates or reorders an artifact and confirms the check fails, so that a broken output
counts as a failed operation.  Also confirms that a cold-op repeat whose
artifacts differ counts as failed, and that the tracer leaves no module
attribute bound to an unwrapped function.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fringelab.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _edit_json(name: str, edit) -> None:
    data = json.loads(Path(name).read_text())
    edit(data)
    Path(name).write_text(json.dumps(data))


def _fig3_off_by_5_sigma(d):
    point = d["points"][0]
    point["fprime"] = point["predicted"] + 5.0 * point["sigma"]


def _shift_class_weight(d):
    coef = d["fit"]["model"]["coefficients"]
    coef["0"]["c0"] += 0.05
    coef["2"]["c0"] -= 0.05


def _set(path: tuple, value):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return edit


def _scale_sigma(d):
    d["sigma"] *= 1.2


# An artifact's new content, or an edit of its parsed JSON.
CORRUPTIONS = {
    "fig3_sweep": [
        ("fig3_summary.json", _fig3_off_by_5_sigma),
        ("fig3_summary.json", _set(("points", 0, "iprime"), 0.5)),
        ("fig3_summary.json", '{"points": [{"iprime": 0.0, "fpr'),
    ],
    "four_photon_fit": [
        ("fit_report.json", _shift_class_weight),
        ("fit_report.json", _set(("fit", "converged"), False)),
        ("fit_report.json", '{"fit": {"converged": tr'),
    ],
    "fisher_scan": [  # the cold op is the A5 point
        ("prediction.csv", "iprime,fprime\n1,2.4\n0,0.7547\n"),
        ("prediction.csv", "iprime,fprime\n1,2.246\n0,0.70\n"),
        ("prediction.csv", "iprime,fprime\n1,2.2"),
        ("prediction.csv", "iprime,fprime\n1,0.5\n0,2.0\n"),
        ("prediction.csv", "iprime,fprime\n1,4.5\n0,1.0\n"),
        ("prediction.csv", "iprime,fprime\n1,2.0\n0,0.0\n"),
    ],
    "dip_fit": [
        ("hom_fit.json", _scale_sigma),
        ("hom_fit.json", _set(("ill_posed",), True)),
        ("hom_fit.json", '{"sigma": 1.'),
        ("iprime_curve.csv", "x,iprime\n0,1\n"),
    ],
}


@pytest.fixture(scope="module")
def cold_ops(tmp_path_factory):
    """Each workload's cold op, run once, with the directory of its artifacts."""
    base = tmp_path_factory.mktemp("perfbench")
    previous = os.getcwd()
    done = {}
    try:
        for workload in workloads.WORKLOADS:
            cold, _ = workloads.make_inputs(workload, 1, base / workload / "inputs")
            out = base / workload / "out"
            out.mkdir()
            os.chdir(out)
            assert workloads.run_op(cli, cold) is None
            assert workloads.check_op(workload, cold) is None
            done[workload] = (cold, out)
    finally:
        os.chdir(previous)
    return done


@pytest.mark.parametrize(
    "workload,case",
    [(w, i) for w, cases in CORRUPTIONS.items() for i in range(len(cases))],
)
def test_corrupted_artifact_fails_the_check(cold_ops, workload, case, tmp_path, monkeypatch):
    cold, out = cold_ops[workload]
    for path in out.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.chdir(tmp_path)
    name, corruption = CORRUPTIONS[workload][case]
    if callable(corruption):
        _edit_json(name, corruption)
    else:
        Path(name).write_text(corruption)
    assert workloads.check_op(workload, cold) is not None


def test_differing_cold_repeat_counts_as_failed():
    ok = {"error": None, "hash": "a"}
    main = {"cold": ok, "steady": [ok, {"error": "fit did not converge", "hash": "b"}]}
    repeat = {"cold": {"error": None, "hash": "c"}, "steady": []}
    attempted, failed, messages = run._failures(main, repeat)
    assert (attempted, failed) == (4, 2)
    assert any("differ" in m for m in messages)


def test_tracer_wraps_every_binding():
    # In a fresh interpreter, so that the wrapped package stays out of this one.
    code = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{str(HERE.parent / "src")!r}, {str(HERE)!r}]
        import fringelab, fringelab.cli
        from tracing import LAYERS, Tracer
        originals = {{
            id(getattr(sys.modules["fringelab." + mod], fn))
            for mod, fns in LAYERS.values() for fn in fns
        }}
        Tracer().install(fringelab)
        left = [
            (name, attr) for name, module in list(sys.modules.items())
            if name.split(".")[0] == "fringelab"
            for attr, value in vars(module).items() if id(value) in originals
        ]
        assert not left, left
        assert fringelab.metrology.apply_path_rotation is fringelab.fock.apply_path_rotation
        """
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
