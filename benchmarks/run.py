"""l0screen benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload bnb-card --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run sets up five times (``setup_s`` is the median), then loops
over the workload's calls, one at a time, until ``--seconds`` have
passed (the first pass always completes).  Every call is checked after
it is timed, and a failed check counts in ``failed``.  The last line of
standard output is one JSON object; the lines before it explain the run.

With ``--trace 1`` the run sets up once, with the tracer installed, and
alternates untraced and traced passes (whole passes, at least one of
each).  It reports the per-layer metrics from the traced passes and the
tracing overhead, traced minus untraced pass time.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: on a 2-core VM, one thread
# cut the run-to-run spread of screen-wide from about 17% to about 4%,
# at about twice the time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from metrics import BY_NAME, GATED, PER_LAYER, UNGATED  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N_SETUPS = 5

# Interpreter-bound code on a shared host slows by up to 1.7x for
# seconds to minutes at a time, more than the changes the benchmark must
# resolve.  So the times of workloads with ``at_reference_speed`` are
# scaled to reference speed: a fixed kernel is timed just before and just
# after each timed section, and the section's time is multiplied by
# REF_KERNEL_S over the mean of the two.  Raw times are printed too.
REF_KERNEL_S = 2.5e-3


class Reference:
    """A fixed kernel of Python arithmetic and small matrix-vector products."""

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((60, 120))
        self.times: list[float] = []

    def measure(self) -> float:
        t0 = perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        x = self.a[0]
        for _ in range(200):
            x = self.a.T @ (self.a @ x)
            x = x / np.linalg.norm(x)
        dt = perf_counter() - t0
        self.times.append(dt)
        return dt

    def timed(self, fn, scale: bool = True):
        """``(result, seconds, seconds at reference speed)`` of ``fn()``.

        With ``scale`` false the third value is the raw time as well.
        """
        before = self.measure() if scale else None
        t0 = perf_counter()
        out = fn()
        dt = perf_counter() - t0
        if not scale:
            return out, dt, dt
        return out, dt, dt * REF_KERNEL_S / (0.5 * (before + self.measure()))


def import_fresh():
    """Import l0screen from scratch, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "l0screen" or n.startswith("l0screen.")]:
        del sys.modules[name]
    lib = importlib.import_module("l0screen")
    importlib.import_module("l0screen.cli")
    return lib


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_lib,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def tail(samples):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0, len(s)
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), len(s)


class Run:
    """The state of one benchmark run."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # kind, key, seconds, seconds at reference speed, traced
        self.records: list[tuple[str, str, float, float, bool]] = []
        self.reference = Reference()
        self.scaled = workload.at_reference_speed
        self.pass_times: dict[bool, list[float]] = {False: [], True: []}
        self.first_counts: dict[str, tuple] = {}
        self.last: dict = {}
        self.tracer = None
        self.lib = self.ops = None
        self.setup_times: list[tuple[float, float]] = []  # raw, at reference speed

    def _fail(self, where: str, msgs):
        self.failed += 1
        self.failures.extend(f"{where}: {m}" for m in msgs)

    def setup(self):
        refs_path = HERE / "references.json"
        refs = json.loads(refs_path.read_text()) if refs_path.exists() else {}

        def set_up():
            lib = import_fresh()
            if self.trace:
                self.tracer = Tracer(lib)
                self.tracer.install()
            ops = self.workload.ops(lib, self.seed, str(self.workdir), refs)
            ops[0].call()
            return lib, ops

        for _ in range(1 if self.trace else N_SETUPS):
            self.ops = None  # free the previous set-up's instances first
            gc.collect()
            shutil.rmtree(self.workdir, ignore_errors=True)
            (self.lib, self.ops), dt, dt_ref = self.reference.timed(set_up, self.scaled)
            self.setup_times.append((dt, dt_ref))

    def _untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def anchors(self):
        with self._untraced():
            for name, fn in self.workload.anchors(self.lib):
                self.attempted += 1
                try:
                    msgs = fn()
                except Exception as exc:  # a crash is a failed check, not a dead run
                    msgs = [f"{type(exc).__name__}: {exc}"]
                if msgs:
                    self._fail(name, msgs)

    def execute(self, index: int, op, traced: bool) -> float:
        self.attempted += 1
        try:
            if traced:
                with self.tracer.span(f"bench.{op.kind}", index):
                    t0 = perf_counter()
                    out = op.call()
                    dt = dt_ref = perf_counter() - t0
            else:
                out, dt, dt_ref = self.reference.timed(op.call, self.scaled)
        except Exception as exc:  # keep the run going; the failure is reported
            self._fail(op.key, [f"{type(exc).__name__}: {exc}"])
            return 0.0
        self.records.append((op.kind, op.key, dt, dt_ref, traced))
        with self._untraced():
            try:
                counts, msgs = op.check(out, self.last)
            except Exception as exc:
                counts, msgs = None, [f"check raised {type(exc).__name__}: {exc}"]
        self.last[op.key] = out
        if counts is not None:
            first = self.first_counts.setdefault(op.key, counts)
            if first != counts:
                msgs = msgs + [f"counts changed between passes: {first} then {counts}"]
        if msgs:
            self._fail(op.key, msgs)
        return dt

    def passes(self):
        deadline = perf_counter() + self.seconds
        p = 0
        while True:
            traced = self.trace and p % 2 == 1
            if self.tracer is not None:
                (self.tracer.install if traced else self.tracer.uninstall)()
            busy, complete = 0.0, True
            for i, op in enumerate(self.ops):
                if not self.trace and p > 0 and perf_counter() >= deadline:
                    complete = False
                    break
                busy += self.execute(i, op, traced)
            if complete:
                self.pass_times[traced].append(busy)
            p += 1
            # traced runs stop only after a traced pass, so passes pair up
            if perf_counter() >= deadline and (not self.trace or p % 2 == 0):
                break
        if self.tracer is not None:
            self.tracer.uninstall()

    def execute_all(self):
        try:
            self.setup()
            self.anchors()
            self.passes()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.workdir.parent.rmdir()

    # ---- metrics -------------------------------------------------------

    def _times(self, kind: str, raw: bool = False) -> dict[str, list[float]]:
        """Times in ms of the untraced calls of one kind, by problem."""
        by_key: dict[str, list[float]] = {}
        for k, key, dt, dt_ref, traced in self.records:
            if k == kind and not traced:
                by_key.setdefault(key, []).append(1e3 * (dt if raw else dt_ref))
        return by_key

    def end_to_end(self) -> tuple[dict, dict]:
        """All end-to-end figures, and notes on how some were taken."""
        out, notes = {}, {}
        out["setup_s"] = statistics.median(t[1] for t in self.setup_times)
        # the ungated solve figures read 0 on a workload that makes no solves
        for kind, name, gated in (("screen", "screen_ms", True), ("solve", "solve_ms", False)):
            times = self._times(kind)
            meds = [statistics.median(v) for v in times.values()]
            out[f"{name}_p50"] = statistics.median(meds) if meds else (math.nan if gated else 0.0)
            out[f"{name}_tail"] = math.nan if gated else 0.0
            if meds:
                # a problem's median filters one-call stalls of the host; a
                # workload with under 20 problems takes its tail over calls
                what = "problems"
                if len(meds) < 20:
                    meds, what = [x for v in times.values() for x in v], "calls"
                out[f"{name}_tail"], pct, n = tail(meds)
                notes[f"{name}_tail"] = f"p{pct:.1f} over {n} {what}"
        off = self._times("solve_noscreen")
        out["solve_noscreen_ms_p50"] = statistics.median(map(statistics.median, off.values())) if off else 0.0
        screens = [op for op in self.ops if op.kind == "screen" and op.size]
        out["fixed_frac"] = (sum(op.fixed for op in screens) / sum(op.size for op in screens)
                             if screens else math.nan)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["run_s"] = statistics.median(self.pass_times[False])
        out["fail_frac"] = self.failed / max(1, self.attempted)
        notes["raw"] = "times are raw"
        if self.scaled:
            raw_meds = [statistics.median(v) for v in self._times("screen", raw=True).values()]
            raw_p50 = f"raw screen_ms_p50 {statistics.median(raw_meds):.6g} ms; " if raw_meds else ""
            notes["raw"] = (f"times are at reference speed; {raw_p50}raw set-ups "
                            f"{[round(t[0], 4) for t in self.setup_times]} s; reference kernel median "
                            f"{1e3 * statistics.median(self.reference.times):.4g} ms "
                            f"(scaled to {1e3 * REF_KERNEL_S:g} ms)")
        return out, notes

    def layer_metrics(self) -> dict:
        traced_calls = sum(1 for r in self.records if r[4])
        out = self.tracer.layer_metrics(len(self.pass_times[True]), traced_calls)
        untraced = statistics.median(self.pass_times[False])
        traced = statistics.median(self.pass_times[True])
        out["trace.overhead_s"] = traced - untraced
        out["trace.overhead_frac"] = (traced - untraced) / untraced if untraced else math.nan
        return out


def _number(v):
    return float(v) if v is not None and math.isfinite(v) else None


def report(run: Run, spans_path=None) -> dict:
    """Print the explanation lines and return the final JSON object."""
    w = run.workload
    print(f"# l0screen benchmark: workload={w.name} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(run.trace)}")
    print(f"# why: {w.why}")
    print(f"# env: {json.dumps(environment(run.seed))}")
    print("# loop: closed, one call at a time, single process")
    e2e, notes = run.end_to_end()
    kinds = {}
    for kind, *_ in run.records:
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"# calls: {json.dumps(kinds)}; complete passes untraced={len(run.pass_times[False])} "
          f"traced={len(run.pass_times[True])}")
    print(f"# {notes['raw']}")
    digest = hashlib.sha256(repr(sorted(run.first_counts.items())).encode()).hexdigest()[:16]
    print(f"# counts digest (nodes, fixes, APG iterations per call; equal across runs of one seed): "
          f"{digest}")
    for m in GATED + UNGATED:
        value = e2e.get(m.name, math.nan)
        gate = f"bound {m.bound}" if m.bound is not None else "not gated"
        extra = f"; {notes[m.name]}" if m.name in notes else ""
        print(f"# {m.name} = {value:.6g} {m.unit} (better {m.better}, {gate}{extra})")
    if run.trace:
        metrics = run.layer_metrics()
        metrics.update({m.name: e2e[m.name] for m in UNGATED})
        for m in PER_LAYER:
            if m.name not in {u.name for u in UNGATED}:
                print(f"# {m.name} = {metrics[m.name]:.6g} {m.unit} (better {m.better}; {m.doc})")
        if spans_path:
            run.tracer.dump(spans_path)
            print(f"# spans written to {spans_path}")
        names = [m.name for m in PER_LAYER]
    else:
        metrics = e2e
        names = [m.name for m in GATED]
    for msg in run.failures[:50]:
        print(f"# FAILED {msg}")
    if len(run.failures) > 50:
        print(f"# ... and {len(run.failures) - 50} more failures")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": _number(metrics[n]), "unit": BY_NAME[n].unit} for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, write every span to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    src = ROOT / "src"
    if not (src / "l0screen" / "__init__.py").is_file():
        print(f"error: no l0screen package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.execute_all()
    result = report(run, args.spans)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
