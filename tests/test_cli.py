import dataclasses
import json
import math
import os

import numpy as np
import pytest

from l0screen import (Instance, SyntheticSpec, cli, datagen, relax, save_dataset, validate_bench_csv,
                      validate_run_report)
from l0screen.cli import main


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    validate_run_report(report)
    return report


@pytest.fixture
def dataset(tmp_path, capsys):
    out = str(tmp_path / "ds")
    run_json(capsys, "gen", "--n", "12", "--m", "9", "--k-true", "3",
             "--rho", "0.4", "--snr", "6", "--seed", "5", "--out", out)
    return out


class TestGen:
    def test_writes_three_files_and_meta(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        rep = run_json(capsys, "gen", "--n", "4", "--m", "3", "--k-true", "1",
                       "--rho", "0.2", "--snr", "6", "--seed", "7", "--out", out)
        assert rep["command"] == "gen"
        assert sorted(os.listdir(out)) == ["A.csv", "meta.json", "y.csv"]
        meta = json.loads(read_text(os.path.join(out, "meta.json")))
        assert meta["n"] == 4 and meta["m"] == 3 and meta["k_true"] == 1
        assert meta["rho"] == 0.2 and meta["seed"] == 7
        assert meta["generator_name"] == "numpy-pcg64"
        assert meta["true_support"] == [0]

    def test_same_flags_twice_identical_files(self, tmp_path, capsys):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["gen", "--n", "6", "--m", "5", "--k-true", "2",
                "--rho", "0.3", "--snr", "2", "--seed", "3"]
        run_json(capsys, *args, "--out", d1)
        run_json(capsys, *args, "--out", d2)
        for name in ("A.csv", "y.csv"):
            assert read_text(os.path.join(d1, name)) == read_text(os.path.join(d2, name))

    def test_k_true_larger_than_n_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--n", "4", "--m", "3", "--k-true", "5",
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--m", "0", "m must be an integer in [1, inf]"),
        ("--n", "0", "n must be an integer in [1, inf]"),
        ("--k-true", "0", "k_true must be an integer in [1, 4]"),
        ("--seed", "-1", "seed must be an integer in [0, inf]"),
    ], ids=["m-0", "n-0", "k-true-0", "seed-negative"])
    def test_bad_generator_value_is_usage_error(self, tmp_path, capsys, flag, value, message):
        # a repeated flag takes its last value
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main(["gen", "--n", "4", "--m", "3", "--k-true", "1", "--out", str(out), flag, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()


class TestScreen:
    def test_tiny_reg_fixes_everything(self, tmp_path, capsys):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        rep = run_json(capsys, "screen", "--variant", "reg", "--gamma", "1",
                       "--mu", "1", "--a", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"))
        blk = rep["screen"]
        assert (blk["n_zero"], blk["n_one"], blk["n_free"]) == (1, 1, 0)
        assert blk["fixes"] == ["one", "zero"]

    def test_full_budget_never_fixes_out(self, dataset, capsys):
        rep = run_json(capsys, "screen", "--variant", "card", "--gamma", "1",
                       "--k", "12", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv")
        assert rep["screen"]["n_zero"] == 0

    def test_explicit_zeta_bar(self, dataset, capsys):
        rep = run_json(capsys, "screen", "--variant", "card", "--gamma", "0.5",
                       "--k", "3", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv",
                       "--zeta-bar", "1e12")
        assert rep["screen"]["zeta_bar"] == 1e12
        assert rep["screen"]["n_free"] == 12  # nothing fires against a huge bound

    @pytest.mark.parametrize("zeta_bar", ["inf", "-inf", "nan"])
    def test_non_finite_zeta_bar_is_usage_error(self, dataset, capsys, zeta_bar):
        # a report is strict JSON, which cannot carry the value back
        with pytest.raises(SystemExit) as err:
            main(["screen", "--variant", "card", "--gamma", "0.5", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", f"--zeta-bar={zeta_bar}"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--zeta-bar must be finite" in captured.err

    def test_report_says_whether_the_relaxation_converged(self, dataset, capsys, monkeypatch):
        args = ["screen", "--variant", "reg", "--gamma", "1", "--mu", "0.5",
                "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv"]
        blk = run_json(capsys, *args)["screen"]
        assert blk["converged"] is True and blk["gap"] <= 1e-8 and blk["iterations"] > 1
        monkeypatch.setattr(relax, "_MAX_ITER", 1)
        blk = run_json(capsys, *args)["screen"]
        assert blk["converged"] is False and blk["gap"] > 1e-8 and blk["iterations"] == 1

    def test_report_with_a_non_finite_value_is_refused(self, dataset, capsys, monkeypatch):
        def pipeline(*args):
            rel, rep, timings = real(*args)
            return rel, dataclasses.replace(rep, lower_bound=float("-inf")), timings

        real = cli._screen_pipeline
        monkeypatch.setattr(cli, "_screen_pipeline", pipeline)
        code, out, errtxt = run_cli(capsys, "screen", "--variant", "card", "--gamma", "0.5",
                                    "--k", "3", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv")
        assert code == 1 and out == ""
        assert "JSON" in errtxt

    def test_missing_mu_is_usage_error(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["screen", "--variant", "reg", "--gamma", "1",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("params", [["--gamma", "nan", "--mu", "1"],
                                        ["--gamma", "inf", "--mu", "1"],
                                        ["--gamma", "1", "--mu", "nan"]],
                             ids=["gamma-nan", "gamma-inf", "mu-nan"])
    def test_non_finite_parameter_is_usage_error(self, dataset, capsys, params):
        with pytest.raises(SystemExit) as err:
            main(["screen", "--variant", "reg", *params,
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_bad_tol_is_usage_error(self, dataset, capsys, tol):
        with pytest.raises(SystemExit) as err:
            main(["screen", "--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", "--tol", tol])
        assert err.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, errtxt = run_cli(capsys, "screen", "--variant", "reg", "--gamma", "1",
                                  "--mu", "1", "--a", str(tmp_path / "no.csv"),
                                  "--y", str(tmp_path / "no2.csv"))
        assert code == 1
        assert errtxt.strip() != ""

    def test_malformed_csv_is_runtime_error(self, tmp_path, capsys):
        (tmp_path / "A.csv").write_text("1,0\nbroken\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        code, _, errtxt = run_cli(capsys, "screen", "--variant", "reg", "--gamma", "1",
                                  "--mu", "1", "--a", str(tmp_path / "A.csv"),
                                  "--y", str(tmp_path / "y.csv"))
        assert code == 1
        assert "line" in errtxt


    def test_overflowing_scores_are_a_runtime_error(self, tmp_path, capsys):
        # finite squared norms whose product overflows (tests/test_problem.py)
        rng = np.random.default_rng(0)
        datagen._write_matrix(str(tmp_path / "A.csv"), rng.standard_normal((8, 10)) * 1e77)
        datagen._write_matrix(str(tmp_path / "y.csv"), rng.standard_normal((8, 1)) * 1e77)
        code, out, errtxt = run_cli(capsys, "screen", "--variant", "card", "--gamma", "1e-154",
                                    "--k", "3", "--a", str(tmp_path / "A.csv"),
                                    "--y", str(tmp_path / "y.csv"))
        assert code == 1
        assert out == "" and "overflows" in errtxt


class TestSolve:
    def test_tiny_bnb_with_screening(self, tmp_path, capsys):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        rep = run_json(capsys, "solve", "--variant", "reg", "--gamma", "1",
                       "--mu", "1", "--a", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"))
        blk = rep["solve"]
        assert blk["optimal"] is True
        assert blk["nodes"] == 1
        assert blk["support"] == [0]
        assert blk["objective"] == pytest.approx(5.51, abs=1e-8)

    def test_brute_matches_bnb(self, dataset, capsys):
        common = ["--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv"]
        r1 = run_json(capsys, "solve", *common, "--method", "bnb", "--screen", "on")
        r2 = run_json(capsys, "solve", *common, "--method", "bnb", "--screen", "off")
        r3 = run_json(capsys, "solve", *common, "--method", "brute")
        assert r1["solve"]["objective"] == pytest.approx(r3["solve"]["objective"], rel=1e-9)
        assert r2["solve"]["objective"] == pytest.approx(r3["solve"]["objective"], rel=1e-9)
        assert r1["solve"]["support"] == r3["solve"]["support"]

    def test_time_limit_reports_not_optimal(self, tmp_path, capsys):
        out = str(tmp_path / "big")
        run_json(capsys, "gen", "--n", "200", "--m", "100", "--k-true", "10",
                 "--snr", "1", "--seed", "2", "--out", out)
        rep = run_json(capsys, "solve", "--variant", "card", "--gamma", "0.05",
                       "--k", "10", "--a", f"{out}/A.csv", "--y", f"{out}/y.csv",
                       "--time-limit", "0.0001", "--screen", "off")
        assert rep["solve"]["optimal"] is False
        assert rep["solve"]["objective"] > 0  # best-so-far is still reported

    def test_forced_in_is_respected(self, dataset, capsys):
        rep = run_json(capsys, "solve", "--variant", "card", "--gamma", "0.8",
                       "--k", "3", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv",
                       "--forced-in", "7")
        assert 7 in rep["solve"]["support"]

    def test_nan_time_limit_is_usage_error(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv",
                  "--time-limit", "nan"])
        assert err.value.code == 2

    # solve has no --tol, so any --tol is rejected as an unrecognized argument
    @pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "0"], ["--node-limit", "0"]],
                             ids=["tol-nan", "tol-0", "node-limit-0"])
    def test_bad_solver_flag_is_usage_error(self, dataset, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", *flags])
        assert err.value.code == 2

    def test_takes_no_tol(self, dataset, capsys):
        # B&B relaxes its nodes at the default tolerance and brute force relaxes nothing
        with pytest.raises(SystemExit) as err:
            main(["solve", "--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", "--tol", "1e-8"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("params, forced, nodes", [
        (["--variant", "reg", "--mu", "0.5"], None, 2 ** 12),
        (["--variant", "reg", "--mu", "0.5"], "7", 2 ** 11),
        (["--variant", "card", "--k", "3"], None, sum(math.comb(12, j) for j in range(4))),
        (["--variant", "card", "--k", "3"], "7", sum(math.comb(11, j) for j in range(3))),
        (["--variant", "card", "--k", "3"], "1,7,9", 1),
    ], ids=["reg", "reg-forced", "card", "card-forced", "card-forced-full"])
    def test_brute_nodes_count_the_supports_tried(self, dataset, capsys, params, forced, nodes):
        args = ["solve", *params, "--gamma", "0.8", "--a", f"{dataset}/A.csv",
                "--y", f"{dataset}/y.csv", "--method", "brute"]
        if forced:
            args += ["--forced-in", forced]
        assert run_json(capsys, *args)["solve"]["nodes"] == nodes

    def test_forced_in_out_of_range_is_usage_error(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv",
                  "--forced-in", "99"])
        assert err.value.code == 2

    @pytest.mark.parametrize("method", ["bnb", "brute"])
    def test_forced_in_beyond_the_card_budget_is_usage_error(self, dataset, capsys, method):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--variant", "card", "--gamma", "0.8", "--k", "2",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv",
                  "--forced-in", "0,1,2", "--method", method])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "3 variables fixed in but k=2" in captured.err

    def test_empty_forced_in_is_usage_error(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--variant", "card", "--gamma", "0.8", "--k", "3",
                  "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", "--forced-in", ","])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["screen", "solve"])
@pytest.mark.parametrize("k", ["13", "0"])
def test_k_outside_the_columns_is_usage_error(dataset, capsys, command, k):
    with pytest.raises(SystemExit) as err:
        main([command, "--variant", "card", "--gamma", "0.8", "--k", k,
              "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "k must be an integer in [1, 12]" in captured.err


@pytest.mark.parametrize("command", ["screen", "solve"])
@pytest.mark.parametrize("flags, stray", [(["--variant", "reg", "--mu", "0.1", "--k", "0"], "--k"),
                                          (["--variant", "reg", "--mu", "0.1", "--k", "2"], "--k"),
                                          (["--variant", "card", "--k", "2", "--mu", "nan"], "--mu"),
                                          (["--variant", "card", "--k", "2", "--mu", "0.1"], "--mu")],
                         ids=["reg-k-0", "reg-k-2", "card-mu-nan", "card-mu-0.1"])
def test_flag_of_the_other_variant_is_usage_error(dataset, capsys, command, flags, stray):
    with pytest.raises(SystemExit) as err:
        main([command, *flags, "--gamma", "1", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{stray} does not apply" in captured.err


class TestReducedRoundTrip:
    @pytest.mark.parametrize("y, files", [("3\n0.1\n", ["A.csv", "meta_reduced.json", "y.csv"]),
                                          ("0.1\n0.1\n", ["meta_reduced.json"])],
                             ids=["kept", "trivial"])
    def test_directory_holds_the_listed_files(self, tmp_path, capsys, y, files):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text(y)
        red = tmp_path / "red"
        rep = run_json(capsys, "screen", "--variant", "reg", "--gamma", "1", "--mu", "1",
                       "--a", str(tmp_path / "A.csv"), "--y", str(tmp_path / "y.csv"),
                       "--out-reduced", str(red))
        assert sorted(rep["out"]["files"]) == files
        assert sorted(os.listdir(red)) == files

    def test_reused_directory_holds_the_listed_files(self, tmp_path, capsys):
        # a kept reduction, then a trivial one into the same directory
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        red = tmp_path / "red"
        for y in ("3\n0.1\n", "0.1\n0.1\n"):
            (tmp_path / "y.csv").write_text(y)
            rep = run_json(capsys, "screen", "--variant", "reg", "--gamma", "1", "--mu", "1",
                           "--a", str(tmp_path / "A.csv"), "--y", str(tmp_path / "y.csv"),
                           "--out-reduced", str(red))
        assert rep["out"]["trivial"] is True
        assert sorted(os.listdir(red)) == rep["out"]["files"] == ["meta_reduced.json"]

    def test_reduced_problem_solves_to_same_objective(self, dataset, tmp_path, capsys):
        red = str(tmp_path / "red")
        rep = run_json(capsys, "screen", "--variant", "card", "--gamma", "0.5",
                       "--k", "3", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv",
                       "--out-reduced", red)
        full = run_json(capsys, "solve", "--variant", "card", "--gamma", "0.5",
                        "--k", "3", "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv")
        meta = json.loads(read_text(os.path.join(red, "meta_reduced.json")))
        assert meta["k"] == 3
        args = ["solve", "--variant", "card", "--gamma", "0.5", "--k", "3",
                "--a", f"{red}/A.csv", "--y", f"{red}/y.csv"]
        if meta["forced_in"]:
            args += ["--forced-in", ",".join(str(i) for i in meta["forced_in"])]
        sub = run_json(capsys, *args)
        assert sub["solve"]["objective"] == pytest.approx(
            full["solve"]["objective"], rel=1e-8)
        # reduced support maps back onto the original optimum
        kept = meta["kept_columns"]
        mapped = sorted(kept[i] for i in sub["solve"]["support"])
        assert mapped == full["solve"]["support"]


class TestRewrittenOutputs:
    """Writing into a directory used before: gen's dataset, then a screen's reduction."""

    GEN = ["gen", "--n", "40", "--m", "20", "--k-true", "3", "--rho", "0.5", "--snr", "6",
           "--seed", "1"]

    def _gen_and_screen(self, capsys, data, red):
        run_json(capsys, *self.GEN, "--out", str(data))
        return run_json(capsys, "screen", "--variant", "card", "--gamma", "0.01", "--k", "3",
                        "--a", str(data / "A.csv"), "--y", str(data / "y.csv"),
                        "--out-reduced", str(red))

    def test_no_writer_truncates_an_existing_file(self, tmp_path, capsys, monkeypatch):
        # truncating a file written moments before can wait for its writeback
        written, truncated = [], []

        def spy(file, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(str(file))
                if os.path.exists(file):
                    truncated.append(str(file))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(datagen, "open", spy, raising=False)
        monkeypatch.setattr(cli, "open", spy, raising=False)
        inst = Instance(np.eye(2), np.array([3.0, 0.1]))
        for _ in range(2):
            save_dataset(str(tmp_path / "ds"), inst, {})
            self._gen_and_screen(capsys, tmp_path / "data", tmp_path / "red")
        assert len(written) == 2 * (3 + 3 + 3)
        assert truncated == []

    def test_rerun_gives_the_same_bytes(self, tmp_path, capsys):
        data, red = tmp_path / "data", tmp_path / "red"

        def snapshot():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        rep = self._gen_and_screen(capsys, data, red)
        assert sorted(os.listdir(red)) == sorted(rep["out"]["files"])
        first = snapshot()
        self._gen_and_screen(capsys, data, red)
        assert snapshot() == first


def _envelope(*blocks):
    """The top-level keys of a report: the shared envelope around ``blocks``."""
    return ["command", "args", "instance", *blocks, "versions", "seed"]


class TestReportEnvelope:
    def test_gen(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        rep = run_json(capsys, "gen", "--n", "6", "--m", "4", "--k-true", "2",
                       "--rho", "0.3", "--snr", "2", "--seed", "9", "--out", out)
        assert list(rep) == _envelope("timings_ms", "out")
        assert rep["args"] == {"n": 6, "m": 4, "k_true": 2, "rho": 0.3, "snr": 2.0, "out": out}
        assert rep["instance"] == {"m": 4, "n": 6, "source": "synthetic"}
        assert rep["seed"] == 9
        meta = json.loads(read_text(os.path.join(out, "meta.json")))
        fields = [f.name for f in dataclasses.fields(SyntheticSpec)]
        assert list(meta) == [*fields, "generator_name", "true_support"]
        assert [meta[f] for f in fields] == [6, 4, 2, 0.3, 2.0, 9]

    @pytest.mark.parametrize("reduced", [False, True], ids=["report", "out-reduced"])
    def test_screen(self, dataset, tmp_path, capsys, reduced):
        extra = ["--out-reduced", str(tmp_path / "red")] if reduced else []
        rep = run_json(capsys, "screen", "--variant", "card", "--gamma", "0.5", "--k", "3",
                       "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", *extra)
        assert list(rep) == _envelope("spec", "timings_ms", "screen", *(["out"] if reduced else []))
        assert rep["args"] == {"a": f"{dataset}/A.csv", "y": f"{dataset}/y.csv",
                               "variant": "card", "gamma": 0.5}
        assert rep["instance"] == {"m": 9, "n": 12, "source": f"{dataset}/A.csv"}
        assert rep["spec"] == {"variant": "card", "gamma": 0.5, "k": 3}
        assert list(rep["timings_ms"]) == ["relax", "heuristic", "screen"]
        assert rep["seed"] is None

    @pytest.mark.parametrize("method", ["bnb", "brute"])
    def test_solve(self, dataset, capsys, method):
        rep = run_json(capsys, "solve", "--variant", "reg", "--gamma", "0.5", "--mu", "0.2",
                       "--a", f"{dataset}/A.csv", "--y", f"{dataset}/y.csv", "--method", method)
        assert list(rep) == _envelope("spec", "timings_ms", "solve")
        assert rep["args"] == {"a": f"{dataset}/A.csv", "y": f"{dataset}/y.csv",
                               "variant": "reg", "method": method, "screen": "on"}
        assert rep["spec"] == {"variant": "reg", "gamma": 0.5, "mu": 0.2}
        assert list(rep["timings_ms"]) == ["solve"]
        assert list(rep["solve"]) == ["objective", "support", "nodes", "wall_time_s",
                                      "optimal", "root_fixed"]
        assert rep["solve"]["optimal"] is True
        assert rep["seed"] is None


class TestBench:
    def test_row_count_and_validity(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "synthetic", "--n", "16", "--m", "12",
            "--k-grid", "3", "--gamma-exps", "0,2", "--snr-grid", "6",
            "--seeds", "2", "--methods", "screen,bnb_screen")
        assert code == 0
        validate_bench_csv(out)
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # header + gammas x seeds x methods

    def test_deterministic_rerun(self, capsys):
        args = ["bench", "--suite", "synthetic", "--n", "14", "--m", "10",
                "--k-grid", "2", "--gamma-exps", "0", "--snr-grid", "2",
                "--seeds", "2", "--methods", "screen"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)

        def strip_time(text):
            rows = [r.split(",") for r in text.strip().splitlines()]
            return [r[:9] + r[10:] for r in rows]  # drop the wall-clock column

        assert strip_time(out1) == strip_time(out2)

    def test_gamma_exponents_share_one_instance(self, capsys, monkeypatch):
        def bench_rows(gamma_exps):
            _, out, _ = run_cli(
                capsys, "bench", "--suite", "synthetic", "--n", "16", "--m", "12",
                "--k-grid", "3,4", "--gamma-exps", gamma_exps, "--snr-grid", "6",
                "--seeds", "1", "--methods", "screen,bnb")
            rows = [r.split(",") for r in out.strip().splitlines()[1:]]
            return [r[:9] + r[10:] for r in rows]  # drop the wall-clock column

        calls = []
        generate = cli.generate
        monkeypatch.setattr(cli, "generate", lambda spec: calls.append(spec) or generate(spec))
        shared = bench_rows("0,2")
        assert [spec.k_true for spec in calls] == [3, 4]
        # one exponent per run generates each instance afresh; rows go
        # k, then gamma exponent, then method
        g0, g2 = bench_rows("0"), bench_rows("2")
        assert shared == g0[:2] + g2[:2] + g0[2:] + g2[2:]

    def test_files_suite(self, dataset, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "files", "--a", f"{dataset}/A.csv",
            "--y", f"{dataset}/y.csv", "--k-grid", "2,3", "--gamma-exps", "0",
            "--methods", "screen")
        assert code == 0
        validate_bench_csv(out)
        assert len(out.strip().splitlines()) == 3

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "synthetic", "--n", "10", "--m", "8",
                  "--methods", "magic"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", ["--methods", "--k-grid", "--gamma-exps", "--snr-grid"])
    def test_empty_list_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "synthetic", "--n", "12", "--m", "10",
                  "--k-grid", "2", "--methods", "screen", flag, ","])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} expects a non-empty" in captured.err

    def test_bnb_method_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "synthetic", "--n", "12", "--m", "10",
            "--k-grid", "2", "--gamma-exps", "0", "--snr-grid", "6",
            "--seeds", "1", "--methods", "bnb,bnb_screen")
        assert code == 0
        validate_bench_csv(out)
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        by_method = {r[1]: r for r in rows}
        assert by_method["bnb"][6] == "0"  # plain bnb reports no fixing
        assert int(by_method["bnb_screen"][8]) <= int(by_method["bnb"][8])

    @pytest.mark.parametrize("flags", [["--rho", "2"], ["--snr-grid", "-1"], ["--seed-base", "-1"],
                                       ["--k-grid", "0"], ["--k-grid", "13"]],
                             ids=["rho-2", "snr-negative", "seed-base-negative", "k-0", "k-above-n"])
    def test_bad_generator_value_is_usage_error(self, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "synthetic", "--n", "12", "--m", "10",
                  "--k-grid", "2", "--methods", "screen", *flags])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag,value", [("--n", "12"), ("--m", "10"), ("--rho", "0.5"),
                                            ("--snr-grid", "6"), ("--seeds", "1"), ("--seed-base", "0")])
    def test_files_suite_rejects_synthetic_flags(self, dataset, capsys, flag, value):
        # a given flag is an error even at its synthetic default
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "files", "--a", f"{dataset}/A.csv",
                  "--y", f"{dataset}/y.csv", "--k-grid", "2", "--methods", "screen", flag, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} does not apply to --suite files" in captured.err

    @pytest.mark.parametrize("flag", ["--a", "--y"])
    def test_synthetic_suite_rejects_file_flags(self, tmp_path, capsys, flag):
        # rejected before the file is opened, so a missing one is a usage error too
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "synthetic", "--n", "12", "--m", "8", "--k-grid", "2",
                  "--methods", "screen", flag, str(tmp_path / "missing.csv")])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} does not apply to --suite synthetic" in captured.err

    def test_files_suite_rejects_k_0_before_any_output(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "files", "--a", f"{dataset}/A.csv",
                  "--y", f"{dataset}/y.csv", "--k-grid", "2,0", "--methods", "screen"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_files_suite_rejects_k_above_n_before_any_output(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "files", "--a", f"{dataset}/A.csv",
                  "--y", f"{dataset}/y.csv", "--k-grid", "2,13", "--methods", "screen"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "k must be an integer in [1, 12]" in captured.err

    def test_files_suite_rejects_bad_gamma_before_any_output(self, dataset, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "files", "--a", f"{dataset}/A.csv",
                  "--y", f"{dataset}/y.csv", "--k-grid", "2", "--gamma-exps", "0,-2000",
                  "--methods", "screen"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_files_suite_rejects_overflowing_gamma_before_any_output(self, dataset, capsys):
        # 2.0 ** 2000 overflows a float; the cell is a usage error, as a zero gamma is
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "files", "--a", f"{dataset}/A.csv",
                  "--y", f"{dataset}/y.csv", "--k-grid", "2", "--gamma-exps", "0,2000",
                  "--methods", "screen"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma must be positive and finite" in captured.err

    # gamma_zero is undefined for an all-zero matrix, so it fails before the header too
    @pytest.mark.parametrize("a_text", [None, "1,0\nbroken\n", "0,0\n0,0\n"],
                             ids=["missing", "malformed", "zero-matrix"])
    def test_files_suite_bad_data_prints_nothing(self, tmp_path, capsys, a_text):
        if a_text is not None:
            (tmp_path / "A.csv").write_text(a_text)
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        code, out, errtxt = run_cli(capsys, "bench", "--suite", "files",
                                    "--a", str(tmp_path / "A.csv"), "--y", str(tmp_path / "y.csv"),
                                    "--k-grid", "1", "--methods", "screen")
        assert code == 1
        assert out == "" and errtxt.startswith("error:")

    def test_files_suite_every_method(self, dataset, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "files", "--a", f"{dataset}/A.csv",
            "--y", f"{dataset}/y.csv", "--k-grid", "1,12", "--gamma-exps", "0,1",
            "--methods", "screen,bnb,bnb_screen")
        assert code == 0
        validate_bench_csv(out)
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert len(rows) == 2 * 2 * 3
        assert {r[-1] for r in rows} == {"ok"}

    def test_bad_synthetic_gamma_is_an_error_row(self, capsys):
        # 2 ** 2000 overflows and 2 ** -2000 is 0; the sweep goes on past both
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "synthetic", "--n", "12", "--m", "10",
            "--k-grid", "2", "--gamma-exps", "2000,-2000,0", "--snr-grid", "6",
            "--seeds", "1", "--methods", "screen")
        assert code == 0
        validate_bench_csv(out)
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert [(r[3], r[-1]) for r in rows] == [
            ("2000.0", "error:InvalidInputError"), ("-2000.0", "error:InvalidInputError"), ("0.0", "ok")]

    @pytest.mark.parametrize("argv,message", [
        (["--suite", "synthetic", "--m", "10"], "--suite synthetic needs --n and --m"),
        (["--suite", "synthetic", "--n", "12"], "--suite synthetic needs --n and --m"),
        (["--suite", "synthetic", "--n", "12", "--m", "10", "--seeds", "0"], "--seeds must be >= 1"),
        (["--suite", "files"], "--suite files needs --a and --y"),
    ], ids=["no-n", "no-m", "seeds-0", "files-no-data"])
    def test_missing_or_bad_suite_flag_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(["bench", *argv, "--k-grid", "2", "--methods", "screen"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("flags", [["--time-limit", "nan"], ["--node-limit", "0"], ["--tol", "nan"]],
                             ids=["time-limit-nan", "node-limit-0", "tol-nan"])
    def test_bad_solver_flag_is_usage_error(self, capsys, flags):
        # the flags are checked once, before any row is written
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "synthetic", "--n", "12", "--m", "10",
                  "--k-grid", "2", "--methods", "bnb", *flags])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
