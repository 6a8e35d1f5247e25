"""Spans around the library's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every voltlift
module namespace that bound it (``spectra`` imports ``associated_matrix``,
``algebra_matmul`` and ``build_lift`` from ``voltage``; ``reps`` imports
``build_builtin_group``; the package re-exports nearly everything), so calls
from inside the library are seen as well. ``voltage.algebra_mul`` only gets a
call counter: it runs tens of thousands of times per op.

A span is (name, start, end, parent span, op id, peak RSS before, peak RSS
after). Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "reps", "voltage", "spectra", "cli")

SPANNED = {
    "groups": ["build_builtin_group", "make_group_table"],
    "reps": ["builtin_irreps", "validate_irrep_set", "character_table"],
    "voltage": [
        "parse_voltage_digraph", "associated_matrix", "algebra_matmul",
        "algebra_matrix_power", "build_lift",
    ],
    "spectra": [
        "eig", "rho_matrix", "cluster_spectrum", "lift_spectrum_repr",
        "lift_spectrum_bruteforce", "lift_spectrum_charsum",
        "power_sums_from_characters", "roots_from_power_sums",
        "lift_eigenvectors", "spectra_equal",
    ],
    "cli": ["run"],
}
COUNTED = {"voltage": ["algebra_mul"]}

# Functions reported with a time as well as a call count. Each runs on every
# workload, so its time is never a constant zero; the charsum functions run
# only inside the CLI's verify and are reported as call counts.
TIMED = [
    "groups.build_builtin_group", "groups.make_group_table",
    "reps.builtin_irreps", "reps.validate_irrep_set", "reps.character_table",
    "voltage.parse_voltage_digraph", "voltage.associated_matrix",
    "voltage.algebra_matmul", "voltage.algebra_matrix_power", "voltage.build_lift",
    "spectra.eig", "spectra.rho_matrix", "spectra.cluster_spectrum",
    "spectra.lift_spectrum_repr", "spectra.lift_spectrum_bruteforce",
    "spectra.lift_eigenvectors", "spectra.spectra_equal", "cli.run",
]
CALLS = [
    "voltage.algebra_mul", "voltage.algebra_matmul", "spectra.eig",
    "spectra.rho_matrix", "spectra.lift_spectrum_charsum",
    "spectra.power_sums_from_characters", "spectra.roots_from_power_sums",
    "cli.run",
]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.enabled = False
        self.op = None
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.eig_max_dim = 0
        self.skipped_irreps = 0
        self.worst_distance = 0.0
        self._patched = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        lib = self.lib
        return [lib.package, lib.groups, lib.reps, lib.voltage, lib.spectra, lib.cli]

    def install(self):
        for layer, names in SPANNED.items():
            for name in names:
                self._patch(layer, name, self._span_wrapper)
        for layer, names in COUNTED.items():
            for name in names:
                self._patch(layer, name, self._count_wrapper)

    def _patch(self, layer, name, make):
        original = getattr(getattr(self.lib, layer), name)
        wrapper = make(f"{layer}.{name}", original)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _count_wrapper(self, qualname, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, qualname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            self.counts[qualname] += 1
            rss0 = peak_rss_mb()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (qualname, t0, t1, parent, self.op, rss0, peak_rss_mb())
            self._observe(qualname, args, out)
            return out

        return wrapper

    def _observe(self, qualname, args, out):
        if qualname == "spectra.eig":
            shape = getattr(args[0], "shape", ())
            if shape:
                self.eig_max_dim = max(self.eig_max_dim, int(shape[0]))
        elif qualname == "spectra.lift_eigenvectors":
            self.skipped_irreps += len(out.skipped_irreps)
        elif qualname == "spectra.spectra_equal":
            self.worst_distance = max(self.worst_distance, float(out.worst_distance))

    # -- reporting ---------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics for one set-up plus one pass of ops.

        Spans from set-up count once; spans from ops are divided by the
        number of traced passes.
        """
        spans = self.spans
        weight = [1.0 if s[4] == "setup" else 1.0 / passes for s in spans]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        self_s = defaultdict(float)
        rss = defaultdict(float)
        for i, (name, t0, t1, parent, _, rss0, rss1) in enumerate(spans):
            layer = name.split(".")[0]
            self_s[layer] += weight[i] * (t1 - t0 - child_time[i])
            # inclusive time and RSS rise count only the outermost span of a
            # function (resp. layer), so recursion is not counted twice
            outer_fn = outer_layer = True
            p = parent
            while p >= 0:
                pname = spans[p][0]
                outer_fn = outer_fn and pname != name
                outer_layer = outer_layer and not pname.startswith(layer + ".")
                p = spans[p][3]
            if outer_fn:
                total[name] += weight[i] * (t1 - t0)
            if outer_layer:
                rss[layer] += rss1 - rss0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.rss_mb"] = (rss[layer], "MB")
        for name in TIMED:
            out[f"{name}.s"] = (total[name], "s")
        op_calls = Counter()
        setup_calls = Counter()
        for s in spans:
            (setup_calls if s[4] == "setup" else op_calls)[s[0]] += 1
        for name in CALLS:
            if name == "voltage.algebra_mul":
                # a bare counter has no op id; algebra_mul runs only inside ops
                calls = self.counts[name] / passes
            else:
                calls = setup_calls[name] + op_calls[name] / passes
            out[f"{name}.calls"] = (calls, "count")
        out["spectra.eig.max_dim"] = (self.eig_max_dim, "count")
        out["spectra.lift_eigenvectors.skipped_irreps"] = (self.skipped_irreps / passes, "count")
        out["spectra.worst_distance_max"] = (self.worst_distance, "1")
        return out

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op, rss0, rss1) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1, "parent": parent,
                    "op": op, "peak_rss_mb_before": rss0, "peak_rss_mb_after": rss1,
                }) + "\n")
