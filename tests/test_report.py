import copy
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0screen import BENCH_COLUMNS, validate_bench_csv, validate_run_report
from l0screen.report import RUN_REPORT_SCHEMA

_GOOD = {
    "command": "screen",
    "instance": {"m": 2, "n": 2, "source": "A.csv"},
    "spec": {"variant": "reg", "gamma": 1.0, "mu": 1.0},
    "timings_ms": {"relax": 1.0, "heuristic": 0.1, "screen": 0.1},
    "screen": {"n_zero": 1, "n_one": 1, "n_free": 0, "lower_bound": 5.51,
               "zeta_bar": 5.51, "fixes": ["one", "zero"]},
    "versions": {"package": "0.1.0", "numpy": "2.0", "python": "3.10"},
    "seed": None,
}


class TestRunReport:
    def test_schema_is_valid(self):
        # validate_run_report does not check the schema itself
        jsonschema.Draft202012Validator.check_schema(RUN_REPORT_SCHEMA)

    def test_valid_report_passes(self):
        validate_run_report(_GOOD)

    def test_relaxation_fields_are_optional(self):
        assert "converged" not in _GOOD["screen"]  # a report from before the fields
        full = copy.deepcopy(_GOOD)
        full["screen"].update(converged=False, gap=0.25, iterations=1)
        validate_run_report(full)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("command"),
            lambda r: r.pop("versions"),
            lambda r: r.update(command="explode"),
            lambda r: r["spec"].update(gamma=-1.0),
            lambda r: r["screen"].update(fixes=["one", "maybe"]),
            lambda r: r["screen"].update(fixes=["one", 0]),
            lambda r: r["screen"].update(fixes=["one", None]),
            lambda r: r["screen"].update(fixes=["one", "FREE"]),
            lambda r: r["screen"].update(fixes=["one", ""]),
            lambda r: r.update(extra_top_level=1),
            lambda r: r["timings_ms"].update(relax=-5.0),
            lambda r: r["screen"].update(converged="yes"),
            lambda r: r["screen"].update(gap="small"),
            lambda r: r["screen"].update(iterations=-1),
            lambda r: r["screen"].update(iterations=2.5),
        ],
    )
    def test_bad_reports_rejected(self, mutate):
        bad = copy.deepcopy(_GOOD)
        mutate(bad)
        with pytest.raises(Exception):
            validate_run_report(bad)

    @given(fixes=st.lists(
        st.one_of(st.sampled_from(["free", "zero", "one"]), st.text(max_size=5),
                  st.integers(), st.none(), st.booleans(), st.floats(allow_nan=False)),
        max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_fixes_verdict_matches_whole_array(self, fixes):
        report = copy.deepcopy(_GOOD)
        report["screen"]["fixes"] = fixes
        whole = jsonschema.Draft202012Validator(RUN_REPORT_SCHEMA).is_valid(report)
        try:
            validate_run_report(report)
            got = True
        except jsonschema.ValidationError:
            got = False
        assert got == whole
        assert report["screen"]["fixes"] is fixes  # the report is left as it was


class TestBenchCsv:
    def test_header_only_is_valid(self):
        validate_bench_csv(",".join(BENCH_COLUMNS) + "\n")

    def test_good_rows(self):
        text = ",".join(BENCH_COLUMNS) + "\n"
        text += "syn-1,screen,10,0.0,0.5,6,800,80.0,0,1.25,false,ok\n"
        text += "syn-1,bnb_screen,10,0.0,,,800,80.0,55,3.5,true,ok\n"
        text += "syn-2,bnb,10,0.0,0.5,6,0,0.0,0,0.0,false,error:SizeCapError\n"
        validate_bench_csv(text)

    @pytest.mark.parametrize(
        "row",
        [
            "syn,warp,10,0,0.5,6,1,1,1,1,true,ok",          # unknown method
            "syn,screen,x,0,0.5,6,1,1,1,1,true,ok",          # non-integer k
            "syn,screen,10,0,0.5,6,1,1,1,1,yes,ok",          # bad boolean
            "syn,screen,10,0,0.5,6,1,1,1,1,true,fine",       # bad status
            "syn,screen,10,0,0.5,6,1,1,1,true,ok",           # short row
            ",screen,10,0,0.5,6,1,1,1,1,true,ok",            # empty instance_id
            "syn,screen,10,x,0.5,6,1,1,1,1,true,ok",         # non-numeric gamma_exp
            "syn,screen,10,0,0.5,6,1,1,1,-1,true,ok",        # negative time_s
        ],
    )
    def test_bad_rows_rejected(self, row):
        text = ",".join(BENCH_COLUMNS) + "\n" + row + "\n"
        with pytest.raises(Exception):
            validate_bench_csv(text)

    def test_wrong_header_rejected(self):
        with pytest.raises(Exception):
            validate_bench_csv("a,b,c\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_bench_csv("")


def test_jsonschema_loads_on_first_validation():
    # the solvers never validate a report, so importing the package and
    # its CLI must not pay for jsonschema; the first validation does
    code = (
        "import sys, l0screen, l0screen.cli\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema loaded on import'\n"
        f"l0screen.validate_run_report({_GOOD!r})\n"
        "assert 'jsonschema' in sys.modules, 'jsonschema not loaded by validation'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
