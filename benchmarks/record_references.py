"""Record the reference objectives that benchmark solves are checked against.

    python3 benchmarks/record_references.py --seeds 0-20

For every workload cell that gets an exact solve under the given run
seeds, solves it with branch and bound (root screening off) and merges
the optimal objective into ``benchmarks/references.json``.  Run it only
on a commit whose solver is trusted; the references in the file were
recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins BLAS threads and puts src/ and this directory on the path

from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-20")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.import_fresh()
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds:
        for w in WORKLOADS.values():
            for cell in w.solved_cells(lib, seed):
                if cell.key not in refs:
                    stats = lib.branch_and_bound(cell.inst, cell.spec(lib), lib.BnBConfig(screen_at_root=False))
                    if not stats.optimal:
                        raise RuntimeError(f"{cell.key}: solve did not finish")
                    refs[cell.key] = stats.best.objective
        path.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
        print(f"seed {seed}: {len(refs)} references", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
