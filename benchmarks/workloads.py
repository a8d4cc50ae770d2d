"""Workloads: the calls each run makes, generated from the run's seed.

A workload turns ``--seed`` into instances (data seed ``seed * 1000 + j``
for its ``j``-th draw), and returns a list of ``Op``.  The runner times
``Op.call`` and then runs ``Op.check`` untimed; a check returns the
counts that must repeat exactly on every pass (nodes, fixes, APG
iterations) and the list of failed conditions.

Every workload uses the synthetic generator of ``l0screen.datagen``
(AR(1) rows with rho = 0.5) and gamma = 2^e * gamma0.  The reg variant
prices a variable at mu = gamma * (2k-th largest (a_i' y)^2).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

REL_TOL = 1e-9
SEED_STRIDE = 1000


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def reg_mu(inst, gamma: float, k: int) -> float:
    scores = np.sort((inst.a.T @ inst.y) ** 2)
    return float(gamma * scores[-2 * k])


@dataclass
class Op:
    key: str
    kind: str  # "screen", "solve" or "solve_noscreen"
    call: Callable[[], Any]
    check: Callable[[Any, dict], tuple[tuple, list[str]]]
    fixed: int = 0  # variables fixed, filled in by screen checks
    size: int = 0


@dataclass(frozen=True)
class Cell:
    """One problem: an instance and its variant parameters."""

    key: str
    inst: Any
    variant: str
    gamma: float
    par: float  # k for card, mu for reg

    def spec(self, lib):
        if self.variant == "card":
            return lib.ProblemSpec.card(self.gamma, int(self.par))
        return lib.ProblemSpec.reg(self.gamma, self.par)


def screen_pipeline(lib, cell: Cell):
    """relax -> round -> screen through the public API."""
    inst, g = cell.inst, cell.gamma
    if cell.variant == "card":
        k = int(cell.par)
        rel = lib.solve_cc(inst, g, k)
        inc = lib.round_card(inst, g, k, rel)
        return rel, inc, lib.screen_card(inst, g, k, rel, inc.objective)
    rel = lib.solve_cr(inst, g, cell.par)
    inc = lib.round_reg(inst, g, cell.par, rel)
    return rel, inc, lib.screen_reg(inst, g, cell.par, rel, inc.objective)


def check_screen(lib, cell: Cell, out, op: Op):
    rel, inc, rep = out
    fails = []
    if cell.variant == "card":
        bound = lib.certified_lower_bound_card(cell.inst, cell.gamma, int(cell.par), rel.epsilon)
    else:
        bound = lib.certified_lower_bound_reg(cell.inst, cell.gamma, cell.par, rel.epsilon)
    if not close(bound, rel.lower_bound):
        fails.append(f"recomputed bound {bound!r} differs from the returned {rel.lower_bound!r}")
    if bound > inc.objective + REL_TOL * max(1.0, abs(inc.objective)):
        fails.append(f"certified bound {bound!r} exceeds the incumbent {inc.objective!r}")
    op.fixed, op.size = rep.n_zero + rep.n_one, len(rep.fixes)
    return (rep.n_zero, rep.n_one, rel.iterations), fails


def check_fixes(fixes, support, forced_zero: int, forced_one: int) -> list[str]:
    """Every safe fix must agree with an optimal support."""
    supp = set(int(i) for i in support)
    fixes = np.asarray(fixes)
    wrong_out = [int(i) for i in np.flatnonzero(fixes == forced_zero) if int(i) in supp]
    wrong_in = [int(i) for i in np.flatnonzero(fixes == forced_one) if int(i) not in supp]
    fails = []
    if wrong_out:
        fails.append(f"variables {wrong_out} fixed out but in the optimal support")
    if wrong_in:
        fails.append(f"variables {wrong_in} fixed in but not in the optimal support")
    return fails


def check_reference(refs: dict, key: str, objective: float) -> list[str]:
    ref = refs.get(key)
    if ref is not None and not close(objective, ref):
        return [f"objective {objective!r} differs from the recorded reference {ref!r}"]
    return []


class Workload:
    name: str
    why: str
    # Whether the runner scales this workload's times to reference speed
    # (see run.Reference): right for interpreter-bound calls, which slow
    # down with the reference kernel when the host is contended.
    at_reference_speed = True

    def solved_cells(self, lib, seed: int) -> list[Cell]:
        """Cells that get an exact solve (and a recorded reference objective)."""
        return []

    def ops(self, lib, seed: int, workdir: str, refs: dict) -> list[Op]:
        raise NotImplementedError

    def anchors(self, lib) -> list[tuple[str, Callable[[], list[str]]]]:
        return []


@dataclass(frozen=True)
class ApiWorkload(Workload):
    """Screen calls on a pool of instances; exact solves on a prefix of it."""

    name: str
    why: str
    variant: str
    m: int
    n: int
    ks: tuple
    snrs: tuple
    gamma_exps: tuple = (0, 2)
    screen_draws: int = 1
    solve_draws: int = 0
    anchor: bool = False
    at_reference_speed: bool = True

    def _cells(self, lib, seed, draws):
        out = []
        for j in range(draws):
            ds = seed * SEED_STRIDE + j
            for k in self.ks:
                for snr in self.snrs:
                    spec = lib.SyntheticSpec(n=self.n, m=self.m, k_true=k, rho=0.5, snr=snr, seed=ds)
                    inst, _ = lib.generate(spec)
                    g0 = lib.gamma_zero(inst, k)
                    for e in self.gamma_exps:
                        g = (2.0 ** e) * g0
                        par = k if self.variant == "card" else reg_mu(inst, g, k)
                        key = f"{self.variant}/m{self.m}n{self.n}/k{k}/snr{snr:g}/g{e}/ds{ds}"
                        out.append(Cell(key, inst, self.variant, g, par))
        return out

    def cells(self, lib, seed):
        return self._cells(lib, seed, self.screen_draws)

    def solved_cells(self, lib, seed):
        return self._cells(lib, seed, self.solve_draws)

    def ops(self, lib, seed, workdir, refs):
        per_draw = len(self.ks) * len(self.snrs) * len(self.gamma_exps)
        ops = []
        for i, cell in enumerate(self.cells(lib, seed)):
            ops.append(self._screen_op(lib, cell))
            if i < per_draw * self.solve_draws:
                ops.extend(self._solve_ops(lib, cell, refs))
        return ops

    def _screen_op(self, lib, cell):
        op = Op(cell.key + "/screen", "screen", lambda: screen_pipeline(lib, cell), None)
        op.check = lambda out, last: check_screen(lib, cell, out, op)
        return op

    def _solve_ops(self, lib, cell, refs):
        spec = cell.spec(lib)
        on_cfg = lib.BnBConfig(screen_at_root=True)
        off_cfg = lib.BnBConfig(screen_at_root=False)

        def check_on(stats, last):
            fails = [] if stats.optimal else ["branch and bound stopped before proving optimality"]
            return (stats.nodes_explored, stats.root_fixed, stats.best.support), fails

        def check_off(stats, last):
            counts, fails = check_on(stats, last)
            on = last.get(cell.key + "/solve")
            if on is not None and not close(stats.best.objective, on.best.objective):
                fails.append(f"root screening on/off objectives differ: {on.best.objective!r} "
                             f"vs {stats.best.objective!r}")
            fails += check_reference(refs, cell.key, stats.best.objective)
            screened = last.get(cell.key + "/screen")
            if screened is not None:
                fails += check_fixes(screened[2].fixes, stats.best.support,
                                     int(lib.FixState.ZERO), int(lib.FixState.ONE))
            return counts, fails

        return [
            Op(cell.key + "/solve", "solve",
               lambda: lib.branch_and_bound(cell.inst, spec, on_cfg), check_on),
            Op(cell.key + "/solve_noscreen", "solve_noscreen",
               lambda: lib.branch_and_bound(cell.inst, spec, off_cfg), check_off),
        ]

    def anchors(self, lib):
        if not self.anchor:
            return []

        def anchor():
            # The m=60, n=120, k=5, gamma = 4 gamma0, seed 0 card cell
            # takes 27 nodes without root screening at the seed commit.
            inst, _ = lib.generate(lib.SyntheticSpec(n=120, m=60, k_true=5, rho=0.5, snr=6.0, seed=0))
            spec = lib.ProblemSpec.card(4.0 * lib.gamma_zero(inst, 5), 5)
            stats = lib.branch_and_bound(inst, spec, lib.BnBConfig(screen_at_root=False))
            if stats.nodes_explored != 27 or not stats.optimal:
                return [f"anchor cell explored {stats.nodes_explored} nodes, expected 27"]
            return []

        return [("anchor card m60 n120 k5 g2 ds0: 27 nodes", anchor)]


@dataclass(frozen=True)
class CliWorkload(Workload):
    """``l0screen screen`` and ``solve`` run in-process on written CSV files.

    Per dataset: ``screen --out-reduced`` on the full files, ``solve`` on
    the full files (root screening on), and ``solve --screen off
    --forced-in ...`` on the reduced files the screen call wrote.
    """

    name: str
    why: str
    m: int
    n: int
    k: int
    snr: float
    datasets: int
    gamma_exp: int = 0

    def cells(self, lib, seed):
        out = []
        for j in range(self.datasets):
            ds = seed * SEED_STRIDE + j
            spec = lib.SyntheticSpec(n=self.n, m=self.m, k_true=self.k, rho=0.5, snr=self.snr, seed=ds)
            inst, _ = lib.generate(spec)
            g = (2.0 ** self.gamma_exp) * lib.gamma_zero(inst, self.k)
            key = f"reg/m{self.m}n{self.n}/k{self.k}/snr{self.snr:g}/g{self.gamma_exp}/ds{ds}"
            out.append(Cell(key, inst, "reg", g, reg_mu(inst, g, self.k)))
        return out

    solved_cells = cells

    def ops(self, lib, seed, workdir, refs):
        ops = []
        for j, cell in enumerate(self.cells(lib, seed)):
            full = os.path.join(workdir, f"data{j}")
            lib.save_dataset(full, cell.inst, {"key": cell.key})
            ops.extend(self._ops(lib, cell, full, os.path.join(workdir, f"reduced{j}"), refs))
        return ops

    def _ops(self, lib, cell, full, reduced, refs):
        base = ["--variant", "reg", "--gamma", repr(cell.gamma), "--mu", repr(cell.par)]
        files = ["--a", os.path.join(full, "A.csv"), "--y", os.path.join(full, "y.csv")]
        fix_code = {"free": int(lib.FixState.FREE), "zero": int(lib.FixState.ZERO),
                    "one": int(lib.FixState.ONE)}
        expected = {}

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lib.cli.main(argv)
            return rc, buf.getvalue()

        def reduced_solve():
            with open(os.path.join(reduced, "meta_reduced.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
            argv = ["solve", *base, "--a", os.path.join(reduced, "A.csv"),
                    "--y", os.path.join(reduced, "y.csv"), "--screen", "off"]
            if meta["forced_in"]:
                argv += ["--forced-in", ",".join(str(i) for i in meta["forced_in"])]
            return run(argv), meta

        def in_process():
            if not expected:
                expected["screen"] = screen_pipeline(lib, cell)[2]
                expected["solve"] = lib.branch_and_bound(cell.inst, cell.spec(lib))
            return expected

        def parse(out, section):
            rc, text = out
            if rc != 0:
                raise RuntimeError(f"l0screen exited with code {rc}")
            return json.loads(text)[section]

        def check_screen_report(out, last):
            got, want = parse(out, "screen"), in_process()["screen"]
            fails = []
            for name in ("n_zero", "n_one", "n_free"):
                if got[name] != getattr(want, name):
                    fails.append(f"{name} {got[name]} differs from the in-process {getattr(want, name)}")
            if not close(got["lower_bound"], want.lower_bound):
                fails.append(f"lower bound {got['lower_bound']!r} differs from {want.lower_bound!r}")
            if [fix_code[f] for f in got["fixes"]] != [int(f) for f in want.fixes]:
                fails.append("fixes differ from the in-process screen")
            screen_op.fixed, screen_op.size = got["n_zero"] + got["n_one"], len(got["fixes"])
            return (got["n_zero"], got["n_one"]), fails

        def check_solve_report(out, last):
            got, want = parse(out, "solve"), in_process()["solve"]
            fails = [] if got["optimal"] else ["solve stopped before proving optimality"]
            if not close(got["objective"], want.best.objective):
                fails.append(f"objective {got['objective']!r} differs from the in-process "
                             f"{want.best.objective!r}")
            if tuple(got["support"]) != want.best.support or got["nodes"] != want.nodes_explored:
                fails.append("support or node count differs from the in-process solve")
            fails += check_reference(refs, cell.key, got["objective"])
            screened = last.get(cell.key + "/screen")
            if screened is not None:
                fixes = [fix_code[f] for f in parse(screened, "screen")["fixes"]]
                fails += check_fixes(fixes, got["support"], fix_code["zero"], fix_code["one"])
            return (got["nodes"], got["root_fixed"], tuple(got["support"])), fails

        def check_reduced_report(out, last):
            res, meta = out
            got, want = parse(res, "solve"), in_process()["solve"]
            fails = [] if got["optimal"] else ["reduced solve stopped before proving optimality"]
            if not close(got["objective"], want.best.objective):
                fails.append(f"reduced objective {got['objective']!r} differs from the full "
                             f"{want.best.objective!r}")
            support = {meta["kept_columns"][i] for i in got["support"]}
            forced = {meta["kept_columns"][i] for i in meta["forced_in"]}
            if not forced <= support:
                fails.append("reduced support drops a forced-in column")
            return (got["nodes"], tuple(sorted(support))), fails

        screen_op = Op(cell.key + "/screen", "screen",
                       lambda: run(["screen", *base, *files, "--out-reduced", reduced]),
                       check_screen_report)
        return [
            screen_op,
            Op(cell.key + "/solve", "solve", lambda: run(["solve", *base, *files]), check_solve_report),
            Op(cell.key + "/solve_noscreen", "solve_noscreen", reduced_solve, check_reduced_report),
        ]


WORKLOADS = {
    w.name: w
    for w in [
        ApiWorkload(
            "screen-wide",
            "relax -> round -> screen at m=500, n=5000: power iteration and APG matvecs dominate; "
            "rounding, rules and B&B are bypassed",
            variant="reg", m=500, n=5000, ks=(10,), snrs=(1, 6), screen_draws=4,
            # BLAS on 20 MB matrices slows far less than the interpreter-bound
            # reference kernel on a contended host; raw times vary less here
            at_reference_speed=False,
        ),
        ApiWorkload(
            "bnb-card",
            "card B&B on the 60x120 README grid: small nodes where Python overhead in the "
            "bisection and APG loop dominates",
            variant="card", m=60, n=120, ks=(5, 10), snrs=(6,), screen_draws=60, solve_draws=2,
            anchor=True,
        ),
        ApiWorkload(
            "bnb-reg",
            "reg B&B on the same grid: one APG solve per node, so exact-layer self time "
            "(rounding, ridge refits, heap) dominates; card-only changes bypass it",
            variant="reg", m=60, n=120, ks=(5, 10), snrs=(1, 6), screen_draws=20, solve_draws=2,
        ),
        CliWorkload(
            "cli-files",
            "l0screen screen/solve on written 200x2000 CSV files: load_csv, report "
            "validation and CLI overhead, which the API workloads bypass",
            m=200, n=2000, k=10, snr=6.0, datasets=4,
        ),
    ]
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of a workload, for the smoke test."""
    if isinstance(w, CliWorkload):
        return replace(w, m=20, n=60, k=3, datasets=1)
    return replace(w, m=20, n=40, ks=(3,), screen_draws=2, solve_draws=min(w.solve_draws, 1))
