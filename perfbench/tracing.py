"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the ``fringelab`` modules in place.
Each wrapped call is a span; a span's self time is its duration minus the
time covered by the spans it caused.  Spans are aggregated in memory per
layer name and read out once, after the run.

Every module attribute that binds a wrapped function is replaced, because
``from .fock import apply_path_rotation`` gives ``fringelab.metrology`` a
binding of its own that wrapping ``fringelab.fock`` alone would miss.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# Layer name -> (module, function names) whose calls are spans of that layer.
LAYERS = {
    "cli": ("cli", ("main",)),
    "fock.rotate": ("fock", ("apply_path_rotation",)),
    "fock.probe": (
        "fock",
        ("spdc_two_photon", "four_photon_schmidt", "dual_fock_mismatched", "two_distinct_pairs"),
    ),
    "detection.count": (
        "detection",
        ("outcome_distribution", "aggregate_by_abs_delta", "add_background"),
    ),
    "detection.sample": ("detection", ("sample_counts",)),
    "metrology.maximize": ("metrology", ("maximize_fisher",)),
    "metrology.optimal": (
        "metrology",
        ("optimal_fisher_two_photon", "predict_four_photon_extremes"),
    ),
    "metrology.family": ("metrology", ("counting_family",)),
    "estimation.fit": ("estimation", ("fit_mle",)),
    "estimation.bootstrap": ("estimation", ("bootstrap_errors",)),
    "estimation.fisher": ("estimation", ("fisher_from_model",)),
    "spectral.fit": ("spectral", ("fit_hom_dip",)),
    "spectral.overlap": ("spectral", ("quartic_gaussian_overlap",)),
}


class Tracer:
    """Span stack plus per-layer totals for one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {name: 0 for name in LAYERS}
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.counters: dict[str, float] = {}
        self.first_s: dict[str, float] = {}
        self._stack: list[list] = []  # [layer, time covered by child spans]

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def _span(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if layer == "estimation.fit" and any(s[0] == "estimation.bootstrap" for s in self._stack):
                self.count("estimation.bootstrap.fits")
            self._stack.append([layer, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._stack.pop()[1]
                self.self_s[layer] += duration - children
                if self._stack:
                    self._stack[-1][1] += duration
                self.first_s.setdefault(layer, duration)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_result(self, layer: str):
        """Counts taken from a layer's return value, at the layer boundary."""
        if layer == "fock.rotate":
            return lambda state: self.count("fock.rotate.amps_out", len(state.amplitudes))
        if layer == "estimation.fit":
            return lambda fit: self.count("estimation.fit.converged", bool(fit.converged))
        if layer == "estimation.bootstrap":
            return lambda report: self.count("estimation.bootstrap.trials", report.trials)
        if layer == "spectral.fit":
            return lambda fit: self.count("spectral.fit.ill_posed", bool(fit.ill_posed))
        return None

    def _count_family_evals(self, family_fn):
        """Wrap the evaluator of each family that ``counting_family`` returns."""

        @functools.wraps(family_fn)
        def wrapper(*args, **kwargs):
            family = family_fn(*args, **kwargs)
            evaluate = family.evaluator

            def counted(theta):
                self.count("metrology.family_evals")
                return evaluate(theta)

            return dataclasses.replace(family, evaluator=counted)

        return wrapper

    def install(self, package) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for layer, (module_name, fn_names) in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{module_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                if fn_name == "counting_family":
                    inner = self._count_family_evals(original)
                else:
                    inner = original
                wrapped = self._span(layer, inner, self._on_result(layer))
                bound = 0
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"no binding of {module_name}.{fn_name} found")
