"""Spans around the public functions of each freeprob module.

`install` replaces each function listed in LAYERS by a wrapper, both in the
module that defines it and at every `from ... import` site inside freeprob
(`cli` and `fid` bind names directly), so calls between layers are visible.
A wrapper records (id, parent, name, start, end) and, for some functions, a
count taken from the result.  Spans stay in memory until the pass ends.

Helpers that run inside loops (refines, tree_size, canonical, the
anti-increasing tests, dyck_factorial, ...) are not wrapped: a span on each
of their millions of calls would cost more than the work it measures.
Their time is self time of the wrapped function that calls them.  `_linalg`
has no span either; `chains.stationary`, its one caller in the workloads,
holds its time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# per-layer time metric -> (module, functions whose self time it sums)
LAYERS = {
    "cli.self_s": ("freeprob.cli", ["main"]),
    "fid.sequence_s": ("freeprob.transforms.fid", ["free_cumulants_of_mu_c", "shifted_sequence_of_mu_c"]),
    "fid.test_s": ("freeprob.transforms.fid", ["fid_test", "formal_phi_ode_check"]),
    "jacobi.sigma_table_s": ("freeprob.transforms.jacobi", ["jacobi_from_moments"]),
    "analytic.G_eval_s": ("freeprob.transforms.analytic", ["G_eval"]),
    "analytic.F_eval_s": ("freeprob.transforms.analytic", ["F_eval"]),
    "analytic.cf_eval_s": ("freeprob.transforms.analytic", ["cf_eval"]),
    "analytic.density_s": ("freeprob.transforms.analytic", ["density_eval"]),
    "analytic.riccati_s": ("freeprob.transforms.analytic", ["riccati_residual"]),
    "analytic.decomposition_s": ("freeprob.transforms.analytic", ["decomposition_residual", "dilation_residual"]),
    "analytic.phi_s": ("freeprob.transforms.analytic", ["voiculescu_phi"]),
    "analytic.trajectory_s": ("freeprob.transforms.analytic", ["f_trajectory"]),
    "partitions.enumerate_s": ("freeprob.partitions", ["enumerate_partitions", "enumerate_pairings"]),
    "partitions.classify_s": ("freeprob.partitions", ["classify", "statistics", "count_connected_pairings"]),
    "partitions.moebius_s": ("freeprob.partitions", ["moebius"]),
    "cumulants.series_s": ("freeprob.cumulants", [
        "classical_from_moments", "moments_from_classical", "free_from_moments",
        "moments_from_free", "boolean_from_moments", "moments_from_boolean",
        "gaussian_shifted_sequence", "gaussian_free_cumulants",
    ]),
    "cumulants.lattice_s": ("freeprob.cumulants", [
        "cumulants_via_lattice", "moments_via_lattice", "free_from_classical", "boolean_from_free",
    ]),
    "cumulants.moebius_weights_s": ("freeprob.cumulants", ["cumulant_via_moebius_weights"]),
    "cumulants.pairing_s": ("freeprob.cumulants", ["weighted_pairing_moment", "nc_innerpoint_sum"]),
    "trees.enumerate_s": ("freeprob.trees", ["enumerate_trees", "enumerate_dyck_words", "s_via_trees"]),
    "trees.labelings_s": ("freeprob.trees", ["count_anti_increasing_labelings"]),
    "trees.mu_s": ("freeprob.trees", ["mu_operator", "nu_operator", "nt_adjacency"]),
    "hopf.enumerate_s": ("freeprob.hopf", ["enumerate_ordered_trees", "hilbert_dimension"]),
    "hopf.laws_s": ("freeprob.hopf", ["coassociativity_check", "counit_check", "antipode_check"]),
    "hopf.product_s": ("freeprob.hopf", ["lr_product", "bf_over"]),
    "hopf.coproduct_s": ("freeprob.hopf", ["lr_coproduct", "bf_coproduct"]),
    "hopf.antipode_s": ("freeprob.hopf", ["antipode"]),
    "chains.matrix_s": ("freeprob.chains", ["mtr_transition_matrix", "nt_transition_matrix"]),
    "chains.stationary_s": ("freeprob.chains", ["stationary", "return_time_sum"]),
    "chains.simulate_s": ("freeprob.chains", ["simulate", "tv_distance"]),
}


def _pivot_bits(counts, fit):
    bits = max((max(p.numerator.bit_length(), p.denominator.bit_length()) for p in fit.pivots), default=0)
    counts["jacobi.pivots"] += len(fit.pivots)
    counts["jacobi.pivot_bits_max"] = max(counts["jacobi.pivot_bits_max"], bits)


def _add(metric, size=len):
    def count(counts, result):
        counts[metric] += size(result)
    return count


# function name -> how its result (and the call itself) adds to the counts
COUNTERS = {
    "fid_test": _add("fid.scans", lambda r: 1),
    "jacobi_from_moments": _pivot_bits,
    "enumerate_partitions": _add("partitions.objects"),
    "enumerate_pairings": _add("partitions.objects"),
    "moebius": _add("partitions.moebius_calls", lambda r: 1),
    "enumerate_ordered_trees": _add("hopf.ordered_trees"),
    "lr_product": _add("hopf.terms"),
    "lr_coproduct": _add("hopf.terms"),
    "bf_coproduct": _add("hopf.terms"),
    "antipode": _add("hopf.terms"),
    "G_eval": _add("analytic.G_eval_calls", lambda r: 1),
    "F_eval": _add("analytic.F_eval_calls", lambda r: 1),
    "cf_eval": _add("analytic.cf_eval_calls", lambda r: 1),
    "voiculescu_phi": _add("analytic.phi_calls", lambda r: 1),
}

COUNT_METRICS = [
    "fid.scans", "jacobi.pivots", "jacobi.pivot_bits_max", "partitions.objects",
    "partitions.moebius_calls", "hopf.ordered_trees", "hopf.terms", "analytic.G_eval_calls",
    "analytic.F_eval_calls", "analytic.cf_eval_calls", "analytic.phi_calls",
]
COUNT_UNITS = {"jacobi.pivot_bits_max": "bits"}
PASS_METRICS = ["trace.pass_s", "trace.uncovered_s", "trace.overhead_s", "trace.spans"]


class Tracer:
    """Span recorder for one pass; `recording` is on only inside the pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.recording = False
        self.metric_of: dict[str, str] = {}

    def wrap(self, fn, name: str):
        count = COUNTERS.get(fn.__name__)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function where it is defined and where it is imported."""
        importlib.import_module("freeprob.cli")
        replace = {}
        for metric, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fname in names:
                original = getattr(module, fname)
                name = f"{module_name.rsplit('.', 1)[-1]}.{fname}"
                self.metric_of[name] = metric
                replace[id(original)] = (original, self.wrap(original, name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "freeprob" and not module_name.startswith("freeprob."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self, pass_start: float, pass_end: float) -> dict:
        """Self time per LAYERS metric, counts, and the time no span covers.

        The self times and the uncovered time add up to the pass time when
        the spans nest (see nesting_errors): the sum of all self times then
        telescopes to the total of the root spans.
        """
        child_total = [0.0] * len(self.spans)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        metrics = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for sid, parent, name, start, end in self.spans:
            metrics[self.metric_of[name]] += (end - start) - child_total[sid]
            if parent < 0:
                roots += end - start
        metrics.update(self.counts)
        metrics["trace.pass_s"] = pass_end - pass_start
        metrics["trace.uncovered_s"] = (pass_end - pass_start) - roots
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def nesting_errors(self, pass_start: float, pass_end: float) -> list[str]:
        """Spans that break nesting, which would make self times wrong:
        a span outside its parent (roots: outside the pass), siblings that
        overlap, or children that add up to more than their parent."""
        errors = []
        bounds = {-1: (pass_start, pass_end)}
        bounds.update((sid, (start, end)) for sid, _parent, _name, start, end in self.spans)
        last_end = {}
        child_total = dict.fromkeys(bounds, 0.0)
        for sid, parent, name, start, end in self.spans:  # in call order
            lo, hi = bounds[parent]
            if not lo <= start <= end <= hi:
                errors.append(f"span {sid} {name} [{start}, {end}] lies outside its parent [{lo}, {hi}]")
            if start < last_end.get(parent, lo):
                errors.append(f"span {sid} {name} overlaps an earlier sibling")
            last_end[parent] = max(end, last_end.get(parent, lo))
            child_total[parent] += end - start
        for sid, (start, end) in bounds.items():
            if child_total[sid] > end - start:
                errors.append(f"span {sid}: children take {child_total[sid]} s of its {end - start} s")
        return errors
