"""Names other code reaches into the package by must keep resolving."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import l0screen
from l0screen import relax

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_l0screen_bench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracer_targets():
    return [(layer, fname) for layer, fname, _ in _load_tracer().TARGETS]


@pytest.mark.parametrize("name", l0screen.__all__)
def test_public_name_resolves(name):
    assert getattr(l0screen, name) is not None


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps each (layer, function) by attribute
    # lookup, so a rename here breaks every traced benchmark run
    missing = [f"{layer}.{fname}" for layer, fname in _tracer_targets()
               if not callable(getattr(importlib.import_module(f"l0screen.{layer}"), fname, None))]
    assert not missing


def test_benchmark_tracer_attributes_every_apg_solve():
    # relax.inner_solves_per_relax counts the inner-solve spans, so a
    # relaxation that reached _accel_prox_solve by another route would
    # read 0 there while the traced smoke test still passed; and
    # relax.apg_iter_us reads the _accel_prox_solve spans, so an inner
    # solve that returned without one would not be timed
    import l0screen.cli  # noqa: F401  the tracer patches every layer module

    inst, _ = l0screen.generate(l0screen.SyntheticSpec(n=40, m=20, k_true=3, rho=0.5, snr=6.0, seed=3))
    gamma = l0screen.gamma_zero(inst, 3)
    mu = gamma * float(np.sort(inst.aty ** 2)[-5])
    fixes = np.full(inst.n, l0screen.FixState.FREE, dtype=np.int8)
    fixes[[0, 3]] = l0screen.FixState.ONE
    tracer = _load_tracer().Tracer(l0screen)
    tracer.install()
    try:
        l0screen.solve_cr(inst, gamma, mu)
        l0screen.exact.node_relaxation(inst, l0screen.ProblemSpec.reg(gamma, mu), fixes)
        l0screen.exact.node_relaxation(inst, l0screen.ProblemSpec.card(gamma, 3), fixes)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_col]
    parent = [names[p] if p >= 0 else None for p in tracer.parent_col]
    inner = {"relax._berhu_solve", "relax._cc_bisection"}
    apg = [s for s, name in enumerate(names) if name == "relax._accel_prox_solve"]
    assert apg and all(parent[s] in inner for s in apg)
    rounds = [r for r, name in enumerate(names) if name in inner]
    assert sorted(tracer.parent_col[s] for s in apg) == rounds
    relaxations = [r for r, name in enumerate(names) if name in ("relax.solve_cr", "exact.node_relaxation")]
    recorded = [{names[s] for s, p in enumerate(tracer.parent_col) if p == r} & inner for r in relaxations]
    assert recorded == [{"relax._berhu_solve"}] * 2 + [{"relax._cc_bisection"}]


def test_readme_quickstart_prints_what_it_says(capsys):
    readme = (_ROOT / "README.md").read_text()
    block = readme.split("## Python quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    said = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert said == ["116 4 0", "(0, 1, 2, 3) 1"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == said


def test_readme_library_api_lists_every_export():
    # a new export has to be documented, and a documented name exported,
    # from the module its line names; the section's count follows them
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("## Library API\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"exports these (\d+) names", section) == [str(len(l0screen.__all__))]
    listed = []
    for line in section.splitlines():
        if line.startswith("- `"):
            module, names = line[2:].split(": ", 1)
            mod = importlib.import_module(f"l0screen.{module.strip('`')}")
            listed += [(name, mod) for name in re.findall(r"`(\w+)`", names)]
    assert sorted(name for name, _ in listed) == sorted(l0screen.__all__)
    assert all(getattr(mod, name) is getattr(l0screen, name) for name, mod in listed)


def test_readme_working_set_start_matches_the_code():
    # "How it works" names the start twice: the first round's free
    # columns, and the size that runs as one round
    readme = (_ROOT / "README.md").read_text()
    step = readme.split("1. **Relaxation.**", 1)[1].split("2. **Certificates.**", 1)[0]
    starts = re.findall(r"the (\d+) free columns with the|no more than (\d+) free columns", " ".join(step.split()))
    assert [int(a or b) for a, b in starts] == [relax._WS_START] * 2
