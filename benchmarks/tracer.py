"""Span tracing of l0screen from outside the package.

``Tracer.install`` replaces the layer functions listed in ``TARGETS``
with timing wrappers.  Layers call each other through module-level
names, and several modules import those names directly (``exact``
imports ``_berhu_solve``, ``_rules_card`` and others from ``relax`` and
``screening``), so every module attribute bound to a target is patched,
not only the defining one.  ``uninstall`` restores the originals.

Spans are kept in memory as flat columns: name index, parent span, start,
end and the benchmark call they belong to (-1 for set-up).  A few
targets also record a small tuple of facts about the call (iterations,
node counts, fixes) that the per-layer metrics need.
"""

from __future__ import annotations

import functools
import os
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

SETUP_CALL = -1


def _relax_info(args, kwargs, res):
    return (bool(res.converged), float(res.gap), int(res.iterations))


def _apg_info(args, kwargs, res):
    a = args[0]
    return (a.shape[0] * a.shape[1], int(res[4]))


def _berhu_info(args, kwargs, res):
    return (int(res[4]), bool(res[5]))


def _rules_info(args, kwargs, res):
    delta, lower, zeta_bar = args[0], args[1], args[4]
    return (int(res[0].sum() + res[1].sum()), int(delta.size), float(lower), float(zeta_bar))


def _screen_info(args, kwargs, res):
    return (res.n_zero + res.n_one, len(res.fixes), float(res.lower_bound), float(res.upper_bound))


def _bnb_info(args, kwargs, res):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return (int(res.nodes_explored), True if cfg is None else bool(cfg.screen_at_root))


def _load_info(args, kwargs, res):
    return (os.path.getsize(args[0]) + os.path.getsize(args[1]),)


# (layer, function, info extractor)
TARGETS = [
    ("problem", "ridge_restricted_solve", None),
    ("problem", "objective_reg", None),
    ("problem", "objective_card", None),
    ("relax", "operator_norm_sq", None),
    ("relax", "solve_cc", _relax_info),
    ("relax", "solve_cr", _relax_info),
    ("relax", "_cc_bisection", None),
    ("relax", "_ridge_full", None),
    ("relax", "_berhu_solve", _berhu_info),
    ("relax", "_accel_prox_solve", _apg_info),
    ("relax", "berhu_prox", None),
    ("relax", "berhu_value", None),
    ("relax", "_bound_reg_terms", None),
    ("relax", "_bound_card_terms", None),
    ("screening", "screen_card", _screen_info),
    ("screening", "screen_reg", _screen_info),
    ("screening", "kth_largest_pair", None),
    ("screening", "_rules_card", _rules_info),
    ("screening", "_rules_reg", _rules_info),
    ("heuristics", "round_card", None),
    ("heuristics", "round_reg", None),
    ("heuristics", "_evaluate", None),
    ("exact", "branch_and_bound", _bnb_info),
    ("exact", "node_relaxation", _relax_info),
    ("exact", "_node_round", None),
    ("exact", "_evaluate_support", None),
    ("exact", "_ridge_on", None),
    ("datagen", "generate", None),
    ("datagen", "gamma_zero", None),
    ("datagen", "save_dataset", None),
    ("datagen", "load_csv", _load_info),
    ("cli", "main", None),
    ("report", "validate_run_report", None),
]

RELAX_TOP = ("relax.solve_cc", "relax.solve_cr", "exact.node_relaxation")


class Tracer:
    """Records spans around the l0screen layer functions."""

    def __init__(self, lib):
        self.lib = lib
        self.modules = [lib] + [getattr(lib, layer) for layer in dict.fromkeys(t[0] for t in TARGETS)]
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.call_col = array("i")
        self.t0_col = array("d")
        self.t1_col = array("d")
        self.info: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.call_id = SETUP_CALL
        self.active = True
        self._patches: list[tuple] = []
        self._wrappers: list[tuple] = []
        self._index: dict[str, int] = {}

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int) -> int:
        sid = len(self.t0_col)
        self.name_col.append(idx)
        self.parent_col.append(self.stack[-1] if self.stack else -1)
        self.call_col.append(self.call_id)
        self.t1_col.append(0.0)
        self.stack.append(sid)
        self.t0_col.append(perf_counter())
        return sid

    def _close(self, sid: int):
        self.t1_col[sid] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, info_fn):
        idx = self._name_index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if info_fn is not None:
                self.info[sid] = info_fn(args, kwargs, res)
            return res

        return wrapper

    def install(self):
        if self._patches:
            return
        if not self._wrappers:
            for layer, fname, info_fn in TARGETS:
                orig = getattr(getattr(self.lib, layer), fname)
                self._wrappers.append((orig, self._wrap(f"{layer}.{fname}", orig, info_fn)))
        for orig, wrapper in self._wrappers:
            for mod in self.modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    @contextmanager
    def span(self, name: str, call_id: int):
        """A span opened by the benchmark itself, around one call."""
        self.call_id = call_id
        sid = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(sid)
            self.call_id = SETUP_CALL

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not traced."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def dump(self, path: str):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tcall\tstart_s\tend_s\n")
            for sid in range(len(self.t0_col)):
                fh.write(f"{sid}\t{self.parent_col[sid]}\t{self.names[self.name_col[sid]]}\t"
                         f"{self.call_col[sid]}\t{self.t0_col[sid]!r}\t{self.t1_col[sid]!r}\n")

    def layer_metrics(self, n_passes: int, n_calls: int) -> dict[str, float]:
        """Per-layer metrics from the spans of the traced passes."""
        names = [self.names[i] for i in self.name_col]
        dur = [t1 - t0 for t0, t1 in zip(self.t0_col, self.t1_col)]
        in_pass = [c != SETUP_CALL for c in self.call_col]
        child = [0.0] * len(dur)
        child_relax = [0.0] * len(dur)
        for sid, p in enumerate(self.parent_col):
            if p >= 0:
                child[p] += dur[sid]
                if names[sid] == "exact.node_relaxation":
                    child_relax[p] += dur[sid]

        def spans(*wanted, setup=False):
            return [s for s, n in enumerate(names) if n in wanted and in_pass[s] != setup]

        def mean_ms(*wanted, setup=False, scale=1e3):
            ss = spans(*wanted, setup=setup)
            return scale * sum(dur[s] for s in ss) / len(ss) if ss else 0.0

        out: dict[str, float] = {}
        relax = spans(*RELAX_TOP)
        berhu = spans("relax._berhu_solve")
        apg = spans("relax._accel_prox_solve")
        apg_iters = sum(self.info[s][1] for s in apg)
        apg_time = sum(dur[s] for s in apg)
        out["relax.power_ms"] = mean_ms("relax.operator_norm_sq")
        out["relax.relax_ms"] = mean_ms(*RELAX_TOP)
        out["relax.apg_gflop_per_s"] = (
            sum(4.0 * self.info[s][0] * self.info[s][1] for s in apg) / apg_time / 1e9 if apg_time else 0.0
        )
        out["relax.inner_solves_per_relax"] = len(berhu) / len(relax) if relax else 0.0
        out["relax.apg_iters_per_relax"] = sum(self.info[s][0] for s in berhu) / len(relax) if relax else 0.0
        out["relax.apg_iter_us"] = 1e6 * apg_time / apg_iters if apg_iters else 0.0
        out["relax.prox_us"] = mean_ms("relax.berhu_prox", scale=1e6)
        out["relax.cert_us"] = mean_ms("relax._bound_reg_terms", "relax._bound_card_terms", scale=1e6)
        out["relax.converged_frac"] = sum(self.info[s][0] for s in relax) / len(relax) if relax else 0.0
        out["relax.gap_max"] = max((self.info[s][1] for s in relax), default=0.0)

        rules = spans("screening._rules_card", "screening._rules_reg")
        screens = spans("screening.screen_card", "screening.screen_reg")
        out["screening.ms"] = mean_ms("screening.screen_card", "screening.screen_reg")
        out["screening.rules_us"] = mean_ms("screening._rules_card", "screening._rules_reg", scale=1e6)
        out["screening.select_us"] = mean_ms("screening.kth_largest_pair", scale=1e6)
        n_rule_vars = sum(self.info[s][1] for s in rules)
        out["screening.fixed_frac"] = sum(self.info[s][0] for s in rules) / n_rule_vars if n_rule_vars else 0.0
        out["heuristics.round_ms"] = mean_ms("heuristics.round_card", "heuristics.round_reg")
        gaps = [(self.info[s][3] - self.info[s][2]) / max(abs(self.info[s][3]), 1e-300) for s in screens]
        out["heuristics.ub_gap"] = statistics.median(gaps) if gaps else 0.0

        bnb = spans("exact.branch_and_bound")
        on = [s for s in bnb if self.info[s][1]]
        off = [s for s in bnb if not self.info[s][1]]
        nodes_on = sum(self.info[s][0] for s in on)
        nodes_off = sum(self.info[s][0] for s in off)
        nodes = nodes_on + nodes_off
        out["exact.nodes"] = nodes_on / len(on) if on else 0.0
        out["exact.nodes_noscreen"] = nodes_off / len(off) if off else 0.0
        out["exact.root_node_ratio"] = nodes_on / nodes_off if nodes_off else 0.0
        out["exact.node_ms"] = 1e3 * sum(dur[s] for s in bnb) / nodes if nodes else 0.0
        out["exact.node_self_ms"] = 1e3 * sum(dur[s] - child_relax[s] for s in bnb) / nodes if nodes else 0.0
        out["exact.evaluate_us"] = mean_ms("exact._evaluate_support", scale=1e6)

        out["problem.ridge_calls"] = len(spans("problem.ridge_restricted_solve")) / n_calls if n_calls else 0.0
        out["problem.ridge_us"] = mean_ms("problem.ridge_restricted_solve", scale=1e6)

        out["datagen.generate_ms"] = mean_ms("datagen.generate", setup=True)
        out["datagen.save_ms"] = mean_ms("datagen.save_dataset", setup=True)
        loads = spans("datagen.load_csv")
        load_time = sum(dur[s] for s in loads)
        out["datagen.load_csv_ms"] = mean_ms("datagen.load_csv")
        out["datagen.load_csv_mb_per_s"] = (
            sum(self.info[s][0] for s in loads) / 1e6 / load_time if load_time else 0.0
        )
        out["report.validate_ms"] = mean_ms("report.validate_run_report")
        mains = spans("cli.main")
        out["cli.overhead_ms"] = 1e3 * sum(dur[s] - child[s] for s in mains) / len(mains) if mains else 0.0

        self_time = dict.fromkeys(("problem", "relax", "screening", "heuristics", "exact",
                                   "datagen", "cli", "report", "bench"), 0.0)
        for s, name in enumerate(names):
            if in_pass[s]:
                self_time[name.split(".", 1)[0]] += dur[s] - child[s]
        for layer, t in self_time.items():
            out[f"{layer}.self_ms"] = 1e3 * t / n_passes if n_passes else 0.0
        return out
