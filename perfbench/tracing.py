"""Layer spans for the qchar benchmark, recorded from outside the package.

``Tracer.install()`` replaces each layer's public functions (plus the
``groups._add_table`` cache) with a wrapper that records a span: name,
start, end, parent span and operation id.  The wrapper is installed on the
defining module *and* under every name another ``qchar`` module imported
it by (``witnesses`` imports ``fit_polynomial_window`` directly, for
example), so calls between layers are seen too.  Spans are recorded only
while an operation is being timed, kept in memory, and turned into
per-layer metrics when the run ends.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Counts, times and sizes
are reported per operation, so runs that complete different numbers of
operations in their time budget stay comparable.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Public entry points of each layer, by defining module.
LAYER_FUNCTIONS = {
    "groups": ("_add_table", "phase_matrix", "adjoint", "annihilator", "all_subgroups",
               "quotient", "structural_predicates", "is_corwin", "multiplication_map",
               "generating_set", "primary_component", "element_order"),
    "kernels": ("dft_many", "dft", "convolve"),
    "measures": ("char_fn", "inverse_char_fn", "convolve", "haar", "haar_cf", "degenerate",
                 "shifted_haar", "support_bound", "idempotent_shift_factor", "push_forward",
                 "product_joint", "linear_form_joint", "random_distribution"),
    "polynomials": ("fit_polynomial_window", "min_degree", "delta", "iterated_delta",
                    "is_polynomial", "constancy_check", "quadratic_check", "tabulate"),
    "witnesses": ("extract_q_witness", "verify_q_independence", "q_identical_witness"),
    "characterizers": ("sd_conclude", "heyde_conclude", "kb_factorize", "cramer_check"),
    "elimination": ("run_pexider_chain", "run_heyde_chain", "substitute_and_subtract"),
    "circle": ("exp_poly_distribution", "gaussian_distribution", "gate_sum",
               "sum_difference_q", "sum_difference_joint", "density_grid", "gaussian_check"),
    "scenarios": ("run_scenario", "run_sweep"),
    "cli": ("canonical_json",),
}
LAYERS = tuple(LAYER_FUNCTIONS)

# name -> (unit, better); the per-layer metrics printed by a traced run.
METRICS = {
    "polynomials.fit_polynomial_window.calls": ("1/op", "lower"),
    "polynomials.fit_polynomial_window.self_s": ("s/op", "lower"),
    "polynomials.fit_polynomial_window.points": ("1/op", "lower"),
    "polynomials.fits_per_certificate": ("ratio", "lower"),
    "polynomials.min_degree.calls": ("1/op", "lower"),
    "polynomials.min_degree.self_s": ("s/op", "lower"),
    "polynomials.delta.calls": ("1/op", "lower"),
    "polynomials.delta.self_s": ("s/op", "lower"),
    "elimination.chains": ("1/op", "lower"),
    "elimination.self_s": ("s/op", "lower"),
    "elimination.sweep_shifts": ("1/op", "lower"),
    "elimination.square_points": ("1/op", "lower"),
    "groups.add_table.calls": ("1/op", "lower"),
    "groups.add_table.hit_ratio": ("ratio", "higher"),
    "groups.add_table.build_s": ("s/op", "lower"),
    "groups.add_table.built_bytes": ("B/op", "lower"),
    "groups.self_s": ("s/op", "lower"),
    "kernels.dft_many.calls": ("1/op", "lower"),
    "kernels.dft_many.self_s": ("s/op", "lower"),
    "kernels.dft_many.points": ("1/op", "lower"),
    "kernels.convolve.calls": ("1/op", "lower"),
    "kernels.convolve.self_s": ("s/op", "lower"),
    "kernels.convolve.points": ("1/op", "lower"),
    "kernels.ns_per_point": ("ns", "lower"),
    "measures.char_fn.calls": ("1/op", "lower"),
    "measures.self_s": ("s/op", "lower"),
    "witnesses.extract_q_witness.calls": ("1/op", "lower"),
    "witnesses.self_s": ("s/op", "lower"),
    "witnesses.found_ratio": ("ratio", "higher"),
    "characterizers.calls": ("1/op", "lower"),
    "characterizers.self_s": ("s/op", "lower"),
    "circle.constructions": ("1/op", "lower"),
    "circle.self_s": ("s/op", "lower"),
    "scenarios.run_scenario.self_s": ("s/op", "lower"),
    "cli.canonical_json.self_s": ("s/op", "lower"),
    "cli.report_bytes": ("B/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_CHARACTERIZER_ENTRIES = {f"characterizers.{f}" for f in LAYER_FUNCTIONS["characterizers"]}
_CONSTRUCTIONS = ("circle.exp_poly_distribution", "circle.gaussian_distribution")


def _square_points(key: str, args, kwargs) -> int:
    """|domain|^2 of the square an elimination chain works on (computed)."""
    from qchar.polynomials import GroupFunction

    if key == "elimination.run_pexider_chain":
        problem = args[0]
        first = problem.terms[0][0]
        if isinstance(first, GroupFunction):
            return first.group.order ** 2
        if problem.R is not None:
            radius = problem.R.window.radius
        else:
            radius = min(p.window.radius // (1 + abs(int(b))) for p, b in problem.terms)
    else:
        psi1, psi2, b = args[:3]
        if isinstance(psi1, GroupFunction):
            return psi1.group.order ** 2
        R = args[3] if len(args) > 3 else kwargs.get("R")
        if R is not None:
            radius = R.window.radius
        else:
            b = int(b)
            radius = min(psi1.window.radius // (abs(1 + b) + 2),
                         psi2.window.radius // (abs(2 * b) + abs(1 + b)))
    return (2 * radius + 1) ** 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [key, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = 0
        self.active = False
        self.counts: dict[str, float] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        import qchar  # noqa: F401  (loads every layer module)

        replaced = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"qchar.{layer}"]
            for name in names:
                orig = getattr(module, name, None)
                if orig is None:  # gone from the program: reported as zero calls
                    continue
                key = f"{layer}.{name.lstrip('_')}"
                replaced[id(orig)] = (orig, self._wrap(key, orig))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qchar" and not mod_name.startswith("qchar."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return self

    def _wrap(self, key, fn):
        tracer = self
        hook = self._hook(key)
        is_add_table = key == "groups.add_table" and hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            if is_add_table:
                misses = fn.cache_info().misses
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if is_add_table and fn.cache_info().misses > misses:
                n = args[0].order
                tracer._count("groups.add_table.misses")
                tracer._count("groups.add_table.build_s", rec[2] - rec[1])
                tracer._count("groups.add_table.built_bytes", n * n * 4)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, amount: float = 1.0):
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _hook(self, key):
        """Per-call work counters for the functions that have one."""
        count = self._count
        if key == "kernels.dft_many":
            return lambda a, k, r: count("kernels.dft_many.points", np.shape(a[1])[0] * a[0].order)
        if key == "kernels.convolve":
            return lambda a, k, r: count("kernels.convolve.points", a[0].order)
        if key == "polynomials.fit_polynomial_window":
            return lambda a, k, r: count("polynomials.fit_polynomial_window.points",
                                         a[0].window.side ** a[0].window.dim)
        if key == "witnesses.extract_q_witness":
            return lambda a, k, r: count("witnesses.found", r is not None)
        if key == "cli.canonical_json":
            return lambda a, k, r: count("cli.report_bytes", len(r))
        if key in ("elimination.run_pexider_chain", "elimination.run_heyde_chain"):
            def chain(a, k, r):
                count("elimination.sweep_shifts", len(r.sweep))
                count("elimination.square_points", _square_points(key, a, k))
            return chain
        return None

    # -- timing window --------------------------------------------------------

    def start_op(self, op_id: int):
        self.op = op_id
        self.active = True

    def stop_op(self):
        self.active = False
        self.stack.clear()

    # -- results ----------------------------------------------------------------

    def _self_times(self):
        keys = [s[0] for s in self.spans]
        start = np.fromiter((s[1] for s in self.spans), float, len(self.spans))
        end = np.fromiter((s[2] for s in self.spans), float, len(self.spans))
        parent = np.fromiter((s[3] for s in self.spans), np.int64, len(self.spans))
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for key, t in zip(keys, own.tolist()):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + t
        return calls, self_s

    def layer_seconds(self) -> dict[str, float]:
        _, self_s = self._self_times()
        out = dict.fromkeys(LAYERS, 0.0)
        for key, t in self_s.items():
            out[key.split(".", 1)[0]] += t
        return out

    def metrics(self, ops: int) -> dict[str, float]:
        """Every entry of METRICS but trace.overhead_ratio, which needs a
        second, untraced run.  Ratios with a zero base read 0.0."""
        calls, self_s = self._self_times()
        layer_s = self.layer_seconds()
        per = 1.0 / max(ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        def c(key):
            return calls.get(key, 0)

        add_calls = c("groups.add_table")
        misses = self.counts.get("groups.add_table.misses", 0.0)
        dft_points = self.counts.get("kernels.dft_many.points", 0.0)
        conv_points = self.counts.get("kernels.convolve.points", 0.0)
        return {
            "polynomials.fit_polynomial_window.calls": c("polynomials.fit_polynomial_window") * per,
            "polynomials.fit_polynomial_window.self_s":
                self_s.get("polynomials.fit_polynomial_window", 0.0) * per,
            "polynomials.fit_polynomial_window.points":
                self.counts.get("polynomials.fit_polynomial_window.points", 0.0) * per,
            "polynomials.fits_per_certificate":
                ratio(c("polynomials.fit_polynomial_window"), c("polynomials.min_degree")),
            "polynomials.min_degree.calls": c("polynomials.min_degree") * per,
            "polynomials.min_degree.self_s": self_s.get("polynomials.min_degree", 0.0) * per,
            "polynomials.delta.calls": c("polynomials.delta") * per,
            "polynomials.delta.self_s": self_s.get("polynomials.delta", 0.0) * per,
            "elimination.chains":
                (c("elimination.run_pexider_chain") + c("elimination.run_heyde_chain")) * per,
            "elimination.self_s": layer_s["elimination"] * per,
            "elimination.sweep_shifts": self.counts.get("elimination.sweep_shifts", 0.0) * per,
            "elimination.square_points":
                self.counts.get("elimination.square_points", 0.0) * per,
            "groups.add_table.calls": add_calls * per,
            "groups.add_table.hit_ratio": ratio(add_calls - misses, add_calls),
            "groups.add_table.build_s": self.counts.get("groups.add_table.build_s", 0.0) * per,
            "groups.add_table.built_bytes":
                self.counts.get("groups.add_table.built_bytes", 0.0) * per,
            "groups.self_s": layer_s["groups"] * per,
            "kernels.dft_many.calls": c("kernels.dft_many") * per,
            "kernels.dft_many.self_s": self_s.get("kernels.dft_many", 0.0) * per,
            "kernels.dft_many.points": dft_points * per,
            "kernels.convolve.calls": c("kernels.convolve") * per,
            "kernels.convolve.self_s": self_s.get("kernels.convolve", 0.0) * per,
            "kernels.convolve.points": conv_points * per,
            "kernels.ns_per_point": ratio(layer_s["kernels"] * 1e9, dft_points + conv_points),
            "measures.char_fn.calls": c("measures.char_fn") * per,
            "measures.self_s": layer_s["measures"] * per,
            "witnesses.extract_q_witness.calls": c("witnesses.extract_q_witness") * per,
            "witnesses.self_s": layer_s["witnesses"] * per,
            "witnesses.found_ratio": ratio(self.counts.get("witnesses.found", 0.0),
                                           c("witnesses.extract_q_witness")),
            "characterizers.calls": sum(c(k) for k in _CHARACTERIZER_ENTRIES) * per,
            "characterizers.self_s": layer_s["characterizers"] * per,
            "circle.constructions": sum(c(k) for k in _CONSTRUCTIONS) * per,
            "circle.self_s": layer_s["circle"] * per,
            "scenarios.run_scenario.self_s": self_s.get("scenarios.run_scenario", 0.0) * per,
            "cli.canonical_json.self_s": self_s.get("cli.canonical_json", 0.0) * per,
            "cli.report_bytes": self.counts.get("cli.report_bytes", 0.0) * per,
        }

    def write(self, path: str):
        """Dump the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
