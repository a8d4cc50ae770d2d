import jsonschema
import pytest

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

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("command"),
            lambda r: r.pop("versions"),
            lambda r: r.update(command="explode"),
            lambda r: r["spec"].update(gamma=-1.0),
            lambda r: r["screen"].update(fixes=["one", "maybe"]),
            lambda r: r.update(extra_top_level=1),
            lambda r: r["timings_ms"].update(relax=-5.0),
        ],
    )
    def test_bad_reports_rejected(self, mutate):
        import copy

        bad = copy.deepcopy(_GOOD)
        mutate(bad)
        with pytest.raises(Exception):
            validate_run_report(bad)


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
        ],
    )
    def test_bad_rows_rejected(self, row):
        text = ",".join(BENCH_COLUMNS) + "\n" + row + "\n"
        with pytest.raises(Exception):
            validate_bench_csv(text)

    def test_wrong_header_rejected(self):
        with pytest.raises(Exception):
            validate_bench_csv("a,b,c\n")
