"""Spans around the calls into each tactsqueeze layer, recorded from outside.

Public functions are replaced by module attribute, so internal callers that
look the name up in their module (for example `evolve -> channel_residuals`
or `factorization_error -> squeeze_generator`) are traced too.  The squeeze
and depolarize generators are wrapped so that the `apply` closures of the
Superoperators they return record one span per L1 or L2 application.

Spans live in flat arrays in memory and are written out once, when the run
ends.  Work done inside pool workers is not seen here: forked workers inherit
the wrappers but their spans die with them.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer -> public functions replaced by module attribute
LAYER_FUNCTIONS = {
    "core": ("derive_dimensionless", "validate"),
    "analytic": ("xi2_min", "xi2_min_dimensionless", "xi2_strong_squeezing",
                 "snr_squeeze_while_measure", "snr_squeeze_then_measure",
                 "snr_optimum_strong", "improvement_factor"),
    "linearized": ("vacuum_state", "effective_polarization", "bogoliubov_propagate",
                   "displaced_mode_means", "signal", "min_variance_direction"),
    "optimize": ("optimal_theta", "optimal_u", "optimal_split_full"),
    "exact": ("spin_operators", "build_initial_state", "evolve", "channel_residuals",
              "squeezing_parameter_exact", "measure", "trace_norm",
              "commutator_action_norm", "factorization_error"),
}
GENERATORS = {"squeeze_generator": "exact.L1_apply",
              "depolarize_generator": "exact.L2_apply"}
EXACT_BUILD = ("exact.spin_operators", "exact.build_initial_state",
               "exact.squeeze_generator", "exact.depolarize_generator")
EXACT_OBSERVABLES = ("exact.squeezing_parameter_exact", "exact.measure",
                     "exact.trace_norm", "exact.commutator_action_norm")
CLI_SERIAL = "cli.main"
CLI_POOL = "cli.pool"


def _n_spins_of_state(args) -> int:
    return args[0].shape[0].bit_length() - 1 if args else 0


def _n_spins_argument(args) -> int:
    return int(args[0]) if args else 0


# span tag (spin count) per exact-layer function
TAGS = {"channel_residuals": _n_spins_of_state, "trace_norm": _n_spins_of_state,
        "spin_operators": _n_spins_argument, "build_initial_state": _n_spins_argument,
        "factorization_error": _n_spins_argument}


class Tracer:
    """Records (name, start, end, parent span, tag) per wrapped call.

    tag carries the spin count for exact-layer spans, 0 elsewhere.  Spans of
    optimizers also keep `OptimizationOutcome.iterations`.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iterations: dict[int, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag=None, keep_iterations: bool = False):
        """Return `fn` wrapped so that every call records one span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.tag.append(tag(args) if tag else 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if keep_iterations:
                self.iterations[idx] = result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _generator(self, layer_name: str, apply_name: str, make):
        def build(n_spins, *args, **kwargs):
            sup = make(n_spins, *args, **kwargs)
            return dataclasses.replace(
                sup, apply=self.wrap(apply_name, sup.apply, tag=lambda a, n=n_spins: n))
        return self.wrap(layer_name, build, tag=_n_spins_argument)

    def install(self, package) -> None:
        """Replace the public layer functions of `package` by traced ones."""
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(package, layer)
            for attr in names:
                self._patch(module, attr, self.wrap(
                    f"{layer}.{attr}", getattr(module, attr), tag=TAGS.get(attr),
                    keep_iterations=layer == "optimize"))
        for attr, apply_name in GENERATORS.items():
            self._patch(package.exact, attr, self._generator(
                f"exact.{attr}", apply_name, getattr(package.exact, attr)))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        """Write every span as CSV: run_id, span, name, start, end, parent, tag."""
        with open(path, "w") as fh:
            fh.write("run_id,span,name,start,end,parent,tag\n")
            for i, (nid, s, e, p, t) in enumerate(zip(self.name, self.start, self.end,
                                                        self.parent, self.tag)):
                fh.write(f"{self.run_id},{i},{self.names[nid]},{s!r},{e!r},{p},{t}\n")


class Spans:
    """Array view of a Tracer's spans with self times and group sums."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.tag = np.array(tracer.tag, dtype=np.int64)
        self.duration = np.array(tracer.end) - np.array(tracer.start)
        self.iterations = tracer.iterations
        # self time: span time minus the time its child spans cover
        # (children of one span run one after another, so they never overlap)
        child = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in `mask` with no ancestor in `mask` (no double counting)."""
        nested = np.zeros(len(mask), dtype=bool)
        up = self.parent.copy()
        while (live := up >= 0).any():
            nested[live] |= mask[up[live]]
            up[live] = self.parent[up[live]]
        return mask & ~nested

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def time(self, *names: str) -> float:
        """Wall time covered by the outermost spans among `names`."""
        return float(self.duration[self.outermost(self.mask(*names))].sum())

    def under(self, names: tuple[str, ...], parents: tuple[str, ...]) -> np.ndarray:
        m = self.mask(*names)
        parent_mask = np.append(self.mask(*parents), False)  # index -1 -> False
        return m & parent_mask[self.parent]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced pass (names as in BENCHMARK.json)."""
    sp = Spans(tracer)
    out: dict[str, float] = {}
    for apply_name, key in (("exact.L1_apply", "L1"), ("exact.L2_apply", "L2")):
        m = sp.mask(apply_name)
        out[f"exact.{key}_apply_calls"] = int(m.sum())
        out[f"exact.{key}_apply_s"] = float(sp.duration[m].sum())
    l1 = sp.mask("exact.L1_apply")
    flops = float((16.0 * (2.0 ** sp.tag[l1]) ** 3).sum())  # 2 complex matmuls of d^3
    l1_s = out["exact.L1_apply_s"]
    out["exact.L1_gflop_per_s"] = flops / l1_s / 1e9 if l1_s > 0 else 0.0
    checks = sp.under(("exact.channel_residuals",), ("exact.evolve",))
    evolve_calls = sp.count("exact.evolve")
    out["exact.evolve_calls"] = evolve_calls
    out["exact.evolve_s"] = sp.time("exact.evolve")
    out["exact.rk4_passes"] = int(checks.sum())
    out["exact.pass_accept_ratio"] = evolve_calls / checks.sum() if checks.any() else 0.0
    out["exact.invariant_check_s"] = float(sp.duration[checks].sum())
    out["exact.build_s"] = sp.time(*EXACT_BUILD)
    out["exact.observables_s"] = sp.time(*EXACT_OBSERVABLES)
    for key, names in (("L1_apply", ("exact.L1_apply",)), ("L2_apply", ("exact.L2_apply",)),
                       ("invariant_check", ("exact.channel_residuals",))):
        m = sp.mask(*names) & (sp.tag == 8)
        out[f"exact.{key}_ms_n8"] = float(sp.duration[m].mean() * 1e3) if m.any() else 0.0
    for layer in ("analytic", "linearized", "core"):
        names = [f"{layer}.{f}" for f in LAYER_FUNCTIONS[layer]]
        out[f"{layer}.calls"] = sp.count(*names)
        out[f"{layer}.s"] = sp.time(*names)
    out["optimize.optimal_theta_calls"] = sp.count("optimize.optimal_theta")
    out["optimize.optimal_theta_s"] = sp.time("optimize.optimal_theta")
    out["optimize.optimal_u_s"] = sp.time("optimize.optimal_u")
    out["optimize.split_full_s"] = sp.time("optimize.optimal_split_full")
    top = np.flatnonzero(sp.outermost(sp.mask(
        *(f"optimize.{f}" for f in LAYER_FUNCTIONS["optimize"]))))
    out["optimize.objective_evals"] = sum(sp.iterations.get(int(i), 0) for i in top)
    out["cli.self_s"] = float(sp.self_time[sp.mask(CLI_SERIAL)].sum())
    out["trace.spans"] = len(sp.duration)
    return out
