import json

import numpy as np
import pytest

from l0screen import (
    CsvParseError,
    Instance,
    InvalidInputError,
    SyntheticSpec,
    gamma_zero,
    generate,
    load_csv,
    save_dataset,
)
from l0screen.datagen import GENERATOR_NAME, true_support_indices


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=5, k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=6, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=0, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=1.0, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=-0.1, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=0.5, snr=0.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=0.5, snr=1.0, seed=-1),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(**kwargs)


class TestTrueSupport:
    def test_evenly_spread(self):
        assert true_support_indices(8, 3) == (0, 4, 7)
        assert true_support_indices(10, 3) == (0, 4, 9)
        assert true_support_indices(4, 1) == (0,)
        assert true_support_indices(5, 5) == (0, 1, 2, 3, 4)


class TestGenerate:
    def test_shapes_and_support(self):
        spec = SyntheticSpec(n=12, m=9, k_true=4, rho=0.3, snr=2.0, seed=1)
        inst, sup = generate(spec)
        assert (inst.m, inst.n) == (9, 12)
        assert sup == true_support_indices(12, 4)

    def test_deterministic(self):
        spec = SyntheticSpec(n=20, m=15, k_true=5, rho=0.6, snr=3.0, seed=42)
        a1, _ = generate(spec)
        a2, _ = generate(spec)
        np.testing.assert_array_equal(a1.a, a2.a)
        np.testing.assert_array_equal(a1.y, a2.y)

    def test_seed_changes_data(self):
        s1 = SyntheticSpec(n=10, m=8, k_true=2, rho=0.5, snr=2.0, seed=0)
        s2 = SyntheticSpec(n=10, m=8, k_true=2, rho=0.5, snr=2.0, seed=1)
        assert not np.array_equal(generate(s1)[0].a, generate(s2)[0].a)

    def test_rho_zero_columns_uncorrelated(self):
        m = 4000
        spec = SyntheticSpec(n=6, m=m, k_true=2, rho=0.0, snr=1.0, seed=3)
        inst, _ = generate(spec)
        for j in range(5):
            c = np.corrcoef(inst.a[:, j], inst.a[:, j + 1])[0, 1]
            assert abs(c) < 4.0 / np.sqrt(m)

    def test_adjacent_correlation_tracks_rho(self):
        m = 4000
        rho = 0.9
        spec = SyntheticSpec(n=6, m=m, k_true=2, rho=rho, snr=1.0, seed=4)
        inst, _ = generate(spec)
        for j in range(5):
            c = np.corrcoef(inst.a[:, j], inst.a[:, j + 1])[0, 1]
            assert c == pytest.approx(rho, abs=4.0 / np.sqrt(m))

    def test_noiseless_limit_recovers_unit_coefficients(self):
        spec = SyntheticSpec(n=30, m=200, k_true=5, rho=0.4, snr=1e12, seed=5)
        inst, sup = generate(spec)
        beta, *_ = np.linalg.lstsq(inst.a[:, list(sup)], inst.y, rcond=None)
        np.testing.assert_allclose(beta, 1.0, atol=1e-3)

    def test_noise_level_matches_snr(self):
        # var(y - A beta) should be about var(A beta) / snr
        snr = 4.0
        spec = SyntheticSpec(n=10, m=20_000, k_true=3, rho=0.2, snr=snr, seed=6)
        inst, sup = generate(spec)
        signal = inst.a[:, list(sup)] @ np.ones(3)
        noise = inst.y - signal
        assert np.var(noise) == pytest.approx(np.var(signal) / snr, rel=0.05)

    def test_generator_name_pinned(self):
        assert GENERATOR_NAME == "numpy-pcg64"


class TestGammaZero:
    def test_benchmark_scale_example(self):
        a = np.full((500, 1000), 1.0 / np.sqrt(1000.0))
        inst = Instance(a, np.zeros(500) + 1.0)
        assert gamma_zero(inst, 10) == pytest.approx(0.2, abs=1e-15)

    def test_single_entry(self):
        inst = Instance(np.array([[2.0]]), np.array([1.0]))
        assert gamma_zero(inst, 1) == pytest.approx(0.25, abs=1e-15)

    def test_column_scaling_homogeneity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 9))
        y = rng.standard_normal(6)
        g1 = gamma_zero(Instance(a, y), 3)
        g2 = gamma_zero(Instance(3.0 * a, y), 3)
        assert g2 == pytest.approx(g1 / 9.0, rel=1e-12)


class TestCsvRoundTrip:
    def test_canonical_tiny(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        inst = load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        np.testing.assert_array_equal(inst.a, np.eye(2))
        np.testing.assert_array_equal(inst.y, [3.0, 0.1])

    def test_bit_exact_round_trip(self, tmp_path):
        spec = SyntheticSpec(n=17, m=11, k_true=3, rho=0.7, snr=0.5, seed=9)
        inst, _ = generate(spec)
        save_dataset(str(tmp_path), inst, {"seed": 9})
        back = load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        np.testing.assert_array_equal(back.a, inst.a)
        np.testing.assert_array_equal(back.y, inst.y)

    def test_meta_written(self, tmp_path):
        spec = SyntheticSpec(n=4, m=3, k_true=1, rho=0.2, snr=6.0, seed=7)
        inst, sup = generate(spec)
        save_dataset(str(tmp_path), inst, {"n": 4, "true_support": list(sup)})
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["n"] == 4
        assert meta["true_support"] == list(sup)


class TestCsvErrors:
    def test_header_fails_at_line_one(self, tmp_path):
        (tmp_path / "A.csv").write_text("c0,c1\n1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 1

    def test_ragged_row_reports_its_line(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 2

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0,x\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 2

    def test_non_finite_cell(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0,inf\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError):
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))

    def test_wide_response_rejected(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("3,4\n0.1,5\n")
        with pytest.raises(CsvParseError):
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))

    def test_row_count_mismatch(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n7\n")
        with pytest.raises(CsvParseError):
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))

    def test_interior_blank_line(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n\n0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 2

    def test_trailing_newline_tolerated(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0\n0,1\n\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        inst = load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert inst.m == 2

    def test_empty_file(self, tmp_path):
        (tmp_path / "A.csv").write_text("")
        (tmp_path / "y.csv").write_text("3\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 1

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "missing.csv"), str(tmp_path / "also.csv"))
