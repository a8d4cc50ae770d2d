"""Command-line interface.

Four subcommands: ``gen`` writes a synthetic dataset, ``screen`` runs
the relax/round/fix pipeline on CSV data, ``solve`` runs an exact
solver, and ``bench`` sweeps a parameter grid and emits one CSV row per
(instance, method).  Reports go to stdout as JSON (CSV for bench).
Exit codes: 0 on success, 1 on runtime failures such as unreadable or
malformed data, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .datagen import (GENERATOR_NAME, SyntheticSpec, _write_matrix, gamma_zero, generate, load_csv,
                      save_dataset)
from .exact import BnBConfig, _enumeration, branch_and_bound, brute_force
from .heuristics import round_card, round_reg
from .problem import (FixState, InfeasibleError, Instance, InvalidInputError, ProblemSpec, Variant,
                      _check_support, _check_tol, _settle, _spec_for)
from .relax import solve_cc, solve_cr
from .report import _BENCH_METHODS, BENCH_COLUMNS, validate_run_report
from .screening import screen_card, screen_reg


def _versions():
    return {"package": __version__, "numpy": np.__version__, "python": platform.python_version()}


def _emit(report: dict):
    validate_run_report(report)
    print(json.dumps(report, indent=2, allow_nan=False))


def _parse_list(text: str, parser, flag: str, kind):
    """The comma-separated ``kind`` values of ``text``; a bad one, or none, is a usage error."""
    try:
        values = [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        parser.error(f"{flag} expects a non-empty comma-separated list of {kind.__name__} values")
    return values


def _from_flags(parser, make, **kwargs):
    """``make(**kwargs)``; its InvalidInputError or InfeasibleError is a usage error."""
    try:
        return make(**kwargs)
    except (InvalidInputError, InfeasibleError) as exc:
        parser.error(str(exc))


def _load_with_spec(args, parser):
    """The ``--a``/``--y`` instance and the spec of the flags on its n columns."""
    name, other = ("mu", "k") if args.variant == "reg" else ("k", "mu")
    value = getattr(args, name)
    if value is None:
        parser.error(f"--{name} is required for --variant {args.variant}")
    if getattr(args, other) is not None:
        parser.error(f"--{other} does not apply to --variant {args.variant}")
    inst = load_csv(args.a, args.y)
    return inst, _from_flags(parser, _spec_for, n=inst.n, gamma=args.gamma, **{name: value})


def cmd_gen(args, parser) -> int:
    spec = _from_flags(parser, SyntheticSpec, n=args.n, m=args.m, k_true=args.k_true,
                       rho=args.rho, snr=args.snr, seed=args.seed)
    inst, support = generate(spec)
    meta = {
        "n": spec.n, "m": spec.m, "k_true": spec.k_true, "rho": spec.rho,
        "snr": spec.snr, "seed": spec.seed, "generator_name": GENERATOR_NAME,
        "true_support": list(support),
    }
    save_dataset(args.out, inst, meta)
    _emit({
        "command": "gen",
        "args": {"n": args.n, "m": args.m, "k_true": args.k_true, "rho": args.rho,
                 "snr": args.snr, "out": args.out},
        "instance": {"m": inst.m, "n": inst.n, "source": "synthetic"},
        "timings_ms": {},
        "out": {"dir": args.out, "files": ["A.csv", "y.csv", "meta.json"]},
        "versions": _versions(),
        "seed": spec.seed,
    })
    return 0


def _screen_pipeline(inst: Instance, spec: ProblemSpec, tol: float, zeta_bar):
    """Relax, round (unless ``zeta_bar`` is given), screen.  Returns (report, timings)."""
    # read from this module's names at each call, so that a wrapper put on
    # them (benchmarks/tracer.py) sees the call
    if spec.variant is Variant.REG:
        relax, rounding, screen, par = solve_cr, round_reg, screen_reg, spec.mu
    else:
        relax, rounding, screen, par = solve_cc, round_card, screen_card, spec.k
    timings = {}
    t = time.perf_counter()
    rel = relax(inst, spec.gamma, par, tol)
    timings["relax"] = (time.perf_counter() - t) * 1e3

    t = time.perf_counter()
    if zeta_bar is None:
        zeta_bar = rounding(inst, spec.gamma, par, rel).objective
    timings["heuristic"] = (time.perf_counter() - t) * 1e3

    t = time.perf_counter()
    rep = screen(inst, spec.gamma, par, rel, zeta_bar)
    timings["screen"] = (time.perf_counter() - t) * 1e3
    return rep, timings


_FIX_NAMES = {int(FixState.FREE): "free", int(FixState.ZERO): "zero", int(FixState.ONE): "one"}


def _write_reduced(out_dir: str, inst: Instance, spec: ProblemSpec, rep) -> dict:
    """Write the screened-down problem: kept columns plus forced-in markers.

    Fixed-out columns are dropped; fixed-in columns stay in the matrix
    (their coefficients are still optimized) and are listed as forced,
    so the reduced files solve to the same optimum with the same gamma
    and mu/k.
    """
    keep = np.flatnonzero(rep.fixes != FixState.ZERO)
    forced_new = [int(i) for i in np.flatnonzero(rep.fixes[keep] == FixState.ONE)]
    meta = {
        "variant": spec.variant.value,
        "gamma": spec.gamma,
        "mu": spec.mu,
        "k": spec.k,
        "n_original": inst.n,
        "kept_columns": [int(i) for i in keep],
        "forced_in": forced_new,
    }
    data = {"A.csv": inst.a[:, keep], "y.csv": inst.y.reshape(-1, 1)} if keep.size else {}
    if not data:
        meta["trivial"] = True
    os.makedirs(out_dir, exist_ok=True)
    for name, arr in data.items():
        _write_matrix(os.path.join(out_dir, name), arr)
    with open(os.path.join(out_dir, "meta_reduced.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return {"dir": out_dir, "files": [*data, "meta_reduced.json"], **meta}


def cmd_screen(args, parser) -> int:
    tol = _from_flags(parser, _check_tol, tol=args.tol)
    # a report is strict JSON, which has no inf or NaN
    if args.zeta_bar is not None and not math.isfinite(args.zeta_bar):
        parser.error("--zeta-bar must be finite")
    inst, spec = _load_with_spec(args, parser)
    rep, timings = _screen_pipeline(inst, spec, tol, args.zeta_bar)
    out = None
    if args.out_reduced:
        out = _write_reduced(args.out_reduced, inst, spec, rep)
    report = {
        "command": "screen",
        "args": {"a": args.a, "y": args.y, "variant": args.variant, "gamma": args.gamma},
        "instance": {"m": inst.m, "n": inst.n, "source": args.a},
        "spec": _spec_block(spec),
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
        "screen": {
            "n_zero": rep.n_zero, "n_one": rep.n_one, "n_free": rep.n_free,
            "lower_bound": rep.lower_bound, "zeta_bar": rep.upper_bound,
            "fixes": [_FIX_NAMES[int(f)] for f in rep.fixes],
        },
        "versions": _versions(),
        "seed": None,
    }
    if out is not None:
        report["out"] = out
    _emit(report)
    return 0


def _spec_block(spec: ProblemSpec) -> dict:
    block = {"variant": spec.variant.value, "gamma": spec.gamma}
    if spec.mu is not None:
        block["mu"] = spec.mu
    if spec.k is not None:
        block["k"] = spec.k
    return block


def cmd_solve(args, parser) -> int:
    cfg = _from_flags(parser, BnBConfig, time_limit_s=args.time_limit, node_limit=args.node_limit,
                      screen_at_root=args.screen == "on")
    inst, spec = _load_with_spec(args, parser)
    fixed = np.full(inst.n, FixState.FREE, dtype=np.int8)
    if args.forced_in is not None:
        idx = _parse_list(args.forced_in, parser, "--forced-in", int)
        fixed[_from_flags(parser, _check_support, support=idx, n=inst.n)] = FixState.ONE
        fixed = _from_flags(parser, _settle, spec=spec, fixes=fixed)

    t = time.perf_counter()
    if args.method == "brute":
        inc, _ = brute_force(inst, spec, fixed=fixed)
        solve_block = {
            "objective": inc.objective, "support": list(inc.support),
            "nodes": _enumeration(spec, fixed)[1],
            "wall_time_s": time.perf_counter() - t, "optimal": True, "root_fixed": 0,
        }
    else:
        stats = branch_and_bound(inst, spec, cfg, fixed=fixed)
        inc = stats.best
        solve_block = {
            "objective": inc.objective, "support": list(inc.support),
            "nodes": stats.nodes_explored, "wall_time_s": stats.wall_time_s,
            "optimal": stats.optimal, "root_fixed": stats.root_fixed,
        }
    _emit({
        "command": "solve",
        "args": {"a": args.a, "y": args.y, "variant": args.variant,
                 "method": args.method, "screen": args.screen},
        "instance": {"m": inst.m, "n": inst.n, "source": args.a},
        "spec": _spec_block(spec),
        "timings_ms": {"solve": round((time.perf_counter() - t) * 1e3, 3)},
        "solve": solve_block,
        "versions": _versions(),
        "seed": None,
    })
    return 0


def _bench_spec(inst: Instance, k, gexp: float) -> ProblemSpec:
    """The card spec of one bench cell: ``k`` and ``gamma = 2^gexp gamma_zero``."""
    try:
        scale = 2.0 ** gexp
    except OverflowError:  # an infinite gamma fails _spec_for, as a zero one does
        scale = math.inf
    return _spec_for(inst.n, scale * gamma_zero(inst, k), k=k)


def _bench_methods_row(inst, spec: ProblemSpec, method, tol: float, bnb_cfg: BnBConfig):
    """One bench measurement; returns (fixed_count, nodes, time_s, optimal)."""
    t0 = time.perf_counter()
    if method == "screen":
        rep, _ = _screen_pipeline(inst, spec, tol, None)
        return rep.n_zero + rep.n_one, 0, time.perf_counter() - t0, rep.n_free == 0
    cfg = dataclasses.replace(bnb_cfg, screen_at_root=method == "bnb_screen")
    stats = branch_and_bound(inst, spec, cfg)
    fixed = stats.root_fixed if method == "bnb_screen" else 0
    return fixed, stats.nodes_explored, stats.wall_time_s, stats.optimal


# The generator flags of `bench --suite synthetic` and their defaults.  The
# parser defaults them to None, so that `--suite files` can reject a given one.
_SYNTHETIC_DEFAULTS = {"n": None, "m": None, "rho": 0.5, "snr_grid": "6", "seeds": 1, "seed_base": 0}


def cmd_bench(args, parser) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods expects a non-empty comma-separated list of methods")
    for m in methods:
        if m not in _BENCH_METHODS:
            parser.error(f"unknown method {m!r}")
    tol = _from_flags(parser, _check_tol, tol=args.tol)
    bnb_cfg = _from_flags(parser, BnBConfig, time_limit_s=args.time_limit, node_limit=args.node_limit)
    k_grid = _parse_list(args.k_grid, parser, "--k-grid", int)
    gamma_exps = _parse_list(args.gamma_exps, parser, "--gamma-exps", float)

    tasks = []  # (instance_id, SyntheticSpec or (Instance, ProblemSpec), k, gexp, rho_str, snr_str)
    if args.suite == "synthetic":
        for flag in ("a", "y"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} does not apply to --suite synthetic")
        for name, value in _SYNTHETIC_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
        if args.n is None or args.m is None:
            parser.error("--suite synthetic needs --n and --m")
        snr_grid = _parse_list(args.snr_grid, parser, "--snr-grid", float)
        if args.seeds < 1:
            parser.error("--seeds must be >= 1")
        for k in k_grid:
            for gexp in gamma_exps:
                for snr in snr_grid:
                    for rep in range(args.seeds):
                        seed = args.seed_base + rep
                        iid = f"syn-n{args.n}-m{args.m}-k{k}-g{gexp:g}-r{args.rho:g}-s{snr:g}-seed{seed}"
                        sspec = _from_flags(parser, SyntheticSpec, n=args.n, m=args.m, k_true=k,
                                            rho=args.rho, snr=snr, seed=seed)
                        tasks.append((iid, sspec, k, gexp, f"{args.rho:g}", f"{snr:g}"))
    else:
        for name in _SYNTHETIC_DEFAULTS:
            if getattr(args, name) is not None:
                parser.error(f"--{name.replace('_', '-')} does not apply to --suite files")
        if not args.a or not args.y:
            parser.error("--suite files needs --a and --y")
        # read before the header, so that bad data or a bad cell prints nothing
        inst = load_csv(args.a, args.y)
        base = os.path.basename(args.a)
        for k in k_grid:
            for gexp in gamma_exps:
                spec = _from_flags(parser, _bench_spec, inst=inst, k=k, gexp=gexp)
                tasks.append((f"file-{base}-k{k}-g{gexp:g}", (inst, spec), k, gexp, "", ""))

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for iid, cell, k, gexp, rho_str, snr_str in tasks:
        inst, spec = cell if isinstance(cell, tuple) else (generate(cell)[0], None)
        for method in methods:
            try:
                # a synthetic cell's spec is built here, so that a bad gamma is an error row
                spec = spec or _bench_spec(inst, k, gexp)
                fixed, nodes, secs, optimal = _bench_methods_row(inst, spec, method, tol, bnb_cfg)
                writer.writerow([
                    iid, method, k, gexp, rho_str, snr_str, fixed,
                    round(100.0 * fixed / inst.n, 3), nodes, round(secs, 4),
                    "true" if optimal else "false", "ok",
                ])
            except Exception as exc:  # keep the sweep alive; record the failure
                writer.writerow([iid, method, k, gexp, rho_str, snr_str,
                                 0, 0.0, 0, 0.0, "false", f"error:{type(exc).__name__}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l0screen",
                                     description="Safe screening for best-subset regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset (A.csv, y.csv, meta.json)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k-true", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--snr", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    for name in ("screen", "solve"):
        p = sub.add_parser(name)
        p.add_argument("--variant", choices=["reg", "card"], required=True)
        p.add_argument("--gamma", type=float, required=True)
        p.add_argument("--mu", type=float)
        p.add_argument("--k", type=int)
        p.add_argument("--a", required=True, help="matrix CSV, one row per line")
        p.add_argument("--y", required=True, help="response CSV, one value per line")
    sub.choices["screen"].add_argument("--tol", type=float, default=1e-8)
    sub.choices["screen"].add_argument("--zeta-bar", type=float, default=None,
                                       help="use this upper bound instead of the rounding heuristic")
    sub.choices["screen"].add_argument("--out-reduced", default=None,
                                       help="directory for the screened-down problem files")
    sub.choices["solve"].add_argument("--method", choices=["bnb", "brute"], default="bnb")
    sub.choices["solve"].add_argument("--screen", choices=["on", "off"], default="on")
    sub.choices["solve"].add_argument("--time-limit", type=float, default=3600.0)
    sub.choices["solve"].add_argument("--node-limit", type=int, default=1_000_000)
    sub.choices["solve"].add_argument("--forced-in", default=None,
                                      help="comma-separated 0-based columns fixed into the support")

    p = sub.add_parser("bench", help="grid sweep; one CSV row per instance and method")
    p.add_argument("--suite", choices=["synthetic", "files"], required=True)
    p.add_argument("--n", type=int, help="columns (synthetic)")
    p.add_argument("--m", type=int, help="rows (synthetic)")
    p.add_argument("--rho", type=float, help="AR(1) correlation (synthetic; default 0.5)")
    p.add_argument("--k-grid", default="10", help="comma-separated k values")
    p.add_argument("--gamma-exps", default="0", help="comma-separated exponents i for gamma = 2^i gamma0")
    p.add_argument("--snr-grid", help="comma-separated SNR values (synthetic; default 6)")
    p.add_argument("--seeds", type=int, help="instances per cell (synthetic; default 1)")
    p.add_argument("--seed-base", type=int, help="first data seed (synthetic; default 0)")
    p.add_argument("--a")
    p.add_argument("--y")
    p.add_argument("--methods", default="screen,bnb_screen")
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--node-limit", type=int, default=1_000_000)
    p.add_argument("--tol", type=float, default=1e-8)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "screen": cmd_screen, "solve": cmd_solve, "bench": cmd_bench}
    try:
        return handlers[args.command](args, parser)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
