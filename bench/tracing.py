"""Spans and counts for the traced run, recorded from outside the program.

While a Tracer is installed, public functions of the forestlie modules are
replaced on their modules by wrappers.  The modules look these names up at
call time, so calls from inside the library are recorded too.  A span holds
(id, parent id, name, start ns, end ns, items); spans stay in memory until
the run writes them out.  Generators are timed by draining them inside the
span.  Functions called too often for a span each get a call count only.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

from forestlie import compositions, dyck, forests, operators, partitions, polynomial

SPAN, DRAIN, COUNT = "span", "drain", "count"

# (module, attribute, span name, kind).  operators imported enumerate_partitions
# by name, so its copy is wrapped as well, under the partitions name.
WRAPPED = [
    (dyck, "enumerate_dyck", "dyck.enumerate_dyck", DRAIN),
    (dyck, "coeff_cp", "dyck.coeff_cp", SPAN),
    (dyck, "coefficient_table", "dyck.coefficient_table", SPAN),
    (dyck, "count_dyck", "dyck.count_dyck", SPAN),
    (dyck, "deficit_profile", "dyck.deficit_profile", COUNT),
    (forests, "enumerate_forests", "forests.enumerate_forests", DRAIN),
    (forests, "fiber", "forests.fiber", SPAN),
    (forests, "cprime", "forests.cprime", SPAN),
    (forests, "expand_covariant", "forests.expand_covariant", SPAN),
    (forests, "label_key", "forests.label_key", COUNT),
    (polynomial, "sigma_formula", "polynomial.sigma_formula", SPAN),
    (polynomial, "sigma_bruteforce", "polynomial.sigma_bruteforce", SPAN),
    (operators, "lie_chain_oracle", "operators.lie_chain_oracle", SPAN),
    (operators, "expand_lie_forests", "operators.expand_lie_forests", SPAN),
    (operators, "expand_lie_partitions", "operators.expand_lie_partitions", SPAN),
    (operators, "estimate_certificate", "operators.estimate_certificate", SPAN),
    (operators, "enumerate_partitions", "partitions.enumerate_partitions", DRAIN),
    (partitions, "enumerate_partitions", "partitions.enumerate_partitions", DRAIN),
    (partitions, "shape_census", "partitions.shape_census", SPAN),
    (partitions, "count_by_shape", "partitions.count_by_shape", SPAN),
    (compositions, "pullback_coefficients", "compositions.pullback_coefficients", SPAN),
]
LAYERS = ["cli", "checks", "dyck", "compositions", "partitions", "forests", "polynomial", "operators"]
# "<span or count name>.<ms|items|calls>", plus the fiber's useful share
KERNEL_METRICS = [
    "dyck.enumerate_dyck.ms", "dyck.enumerate_dyck.items", "dyck.coeff_cp.ms", "dyck.coeff_cp.calls",
    "dyck.deficit_profile.calls", "dyck.coefficient_table.ms", "dyck.count_dyck.ms",
    "forests.enumerate_forests.ms", "forests.enumerate_forests.items", "forests.label_key.calls",
    "forests.fiber.useful_ratio", "forests.expand_covariant.ms",
    "polynomial.sigma_bruteforce.ms", "polynomial.sigma_formula.ms",
    "operators.lie_chain_oracle.ms", "operators.expand_lie_forests.ms", "operators.expand_lie_forests.calls",
    "operators.expand_lie_partitions.ms", "operators.estimate_certificate.ms",
    "partitions.enumerate_partitions.ms", "partitions.enumerate_partitions.items", "partitions.shape_census.ms",
    "compositions.pullback_coefficients.ms",
]
ID, PARENT, NAME, START, END, ITEMS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._saved: list = []

    def wrap(self, name: str, fn: Callable, kind: str = SPAN) -> Callable:
        if kind == COUNT:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def spanned(*args, **kwargs):
            span = [len(spans) + 1, stack[-1], name, 0, 0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if kind == DRAIN:
                    result = list(result)
            finally:
                span[END] = clock()
                stack.pop()
            if kind == DRAIN:
                span[ITEMS] = len(result)
                return iter(result)
            if isinstance(result, list):
                span[ITEMS] = len(result)
            return result

        return spanned

    def install(self) -> None:
        for module, attr, name, kind in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, kind))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, traced_wall_ns: int) -> dict[str, float]:
        """Inclusive time, calls and items per span name, self time per layer
        (a span's duration minus its direct children's), and the traced wall
        time that no top-level span covers."""
        ms: Counter = Counter()
        calls: Counter = Counter()
        items: Counter = Counter()
        self_ns = {span[ID]: span[END] - span[START] for span in self.spans}
        by_id = {span[ID]: span for span in self.spans}
        top_ns = 0
        for span in self.spans:
            duration = span[END] - span[START]
            ms[span[NAME]] += duration / 1e6
            calls[span[NAME]] += 1
            items[span[NAME]] += span[ITEMS] or 0
            if span[PARENT]:
                self_ns[span[PARENT]] -= duration
            else:
                top_ns += duration
        layer_self: Counter = Counter()
        for sid, ns in self_ns.items():
            layer_self[by_id[sid][NAME].split(".")[0]] += ns / 1e6
        fiber_forests = sum(span[ITEMS] for span in self.spans
                            if span[NAME] == "forests.enumerate_forests" and span[PARENT]
                            and by_id[span[PARENT]][NAME] == "forests.fiber")
        out = {}
        for metric in KERNEL_METRICS:
            name, stat = metric.rsplit(".", 1)
            if stat == "ms":
                out[metric] = ms[name]
            elif stat == "items":
                out[metric] = items[name]
            elif stat == "calls":
                out[metric] = calls[name] + self.counts[name]
        out["forests.fiber.useful_ratio"] = items["forests.fiber"] / fiber_forests if fiber_forests else 0.0
        check_ms = {name: value for name, value in ms.items() if name.startswith("checks.")}
        for name, value in check_ms.items():
            out[f"{name}.ms"] = value
            out[f"{name}.rows"] = items[name]
        out["checks.longest_ms"] = max(check_ms.values(), default=0.0)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer]
        out["trace.unattributed_ms"] = (traced_wall_ns - top_ns) / 1e6
        return out
