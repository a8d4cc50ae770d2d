import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from l0screen import datagen
from l0screen.datagen import GENERATOR_NAME, _read_rows, _row_sq, _write_matrix, true_support_indices

from ._oracles import CsvOracleError, generate_two_arrays, load_csv_per_cell


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
            dict(n=10.5, m=5, k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5.5, k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1.5, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=0.5, snr=1.0, seed=1.5),
            dict(n=float("inf"), m=5, k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=float("nan"), k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=0.5, snr=1.0, seed=float("nan")),
            dict(n=None, m=5, k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=None, k_true=1, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=None, rho=0.5, snr=1.0, seed=0),
            dict(n=5, m=5, k_true=1, rho=0.5, snr=1.0, seed=None),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(**kwargs)

    def test_integral_floats_stored_as_ints(self):
        spec = SyntheticSpec(n=6.0, m=5.0, k_true=2.0, rho=0.5, snr=1.0, seed=3.0)
        assert all(type(v) is int for v in (spec.n, spec.m, spec.k_true, spec.seed))
        got, want = generate(spec)[0], generate(SyntheticSpec(6, 5, 2, 0.5, 1.0, 3))[0]
        assert np.array_equal(got.a, want.a) and np.array_equal(got.y, want.y)


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


def _assert_matches_two_array_generator(spec):
    inst, sup = generate(spec)
    a, y, want_sup = generate_two_arrays(spec.n, spec.m, spec.k_true, spec.rho, spec.snr, spec.seed)
    assert sup == want_sup
    assert inst.a.tobytes() == a.tobytes()
    assert inst.y.tobytes() == y.tobytes()
    assert inst.aty.tobytes() == (np.asfortranarray(a).T @ y).tobytes()


@st.composite
def _synthetic_specs(draw):
    n = draw(st.integers(1, 40))
    return SyntheticSpec(
        n=n, m=draw(st.integers(1, 40)), k_true=draw(st.integers(1, n)),
        rho=draw(st.floats(0.0, 0.99)), snr=draw(st.floats(1e-3, 1e6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestInPlaceGeneration:
    """``generate`` builds the AR(1) block in place; every bit matches the two-array loop."""

    @settings(max_examples=200, deadline=None)
    @given(spec=_synthetic_specs())
    def test_matches_the_two_array_generator(self, spec):
        _assert_matches_two_array_generator(spec)

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n=5000, m=500, k_true=10, rho=0.5, snr=6.0, seed=3000),
        SyntheticSpec(n=120, m=60, k_true=5, rho=0.5, snr=6.0, seed=0),
        SyntheticSpec(n=1, m=1, k_true=1, rho=0.5, snr=6.0, seed=0),
        SyntheticSpec(n=30, m=1, k_true=3, rho=0.9, snr=2.0, seed=7),
    ], ids=["500x5000", "anchor-60x120", "1x1", "m1"])
    def test_fixed_shapes_match_the_two_array_generator(self, spec):
        _assert_matches_two_array_generator(spec)

    def test_peak_memory_is_two_matrices(self):
        m, n = 200, 2000
        spec = SyntheticSpec(n=n, m=m, k_true=10, rho=0.5, snr=6.0, seed=3)
        # the drawn block, the instance's column-major copy and small temporaries
        assert _peak_bytes(generate, spec) <= 2.5 * 8 * m * n


def _peak_bytes(fn, *args) -> int:
    """The tracemalloc peak of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    """CSV files are written and read one row at a time."""

    m, n = 200, 2000

    @pytest.fixture(scope="class")
    def instance(self):
        return generate(SyntheticSpec(n=self.n, m=self.m, k_true=10, rho=0.5, snr=6.0, seed=3))[0]

    def test_save_peak_is_a_fraction_of_the_matrix(self, instance, tmp_path):
        # one row's strings, not the whole matrix as Python floats
        assert _peak_bytes(save_dataset, str(tmp_path), instance, {}) <= 0.5 * 8 * self.m * self.n

    def test_load_peak_is_about_two_matrices(self, instance, tmp_path):
        save_dataset(str(tmp_path), instance, {})
        # the parsed rows and the instance's column-major copy, not the file's text
        peak = _peak_bytes(load_csv, str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert peak <= 2.5 * 8 * self.m * self.n


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

    def test_zero_matrix_raises(self):
        inst = Instance(np.zeros((4, 3)), np.ones(4))
        with pytest.raises(ZeroDivisionError, match="all-zero matrix"):
            gamma_zero(inst, 1)


def _assert_row_sq_matches_the_whole_product(inst):
    want = (inst.a * inst.a).sum(axis=1)
    assert _row_sq(inst.a).tobytes() == want.tobytes()
    assert gamma_zero(inst, 1) == inst.n / (inst.m * float(want.max()))


class TestRowNormsInBlocks:
    """``gamma_zero`` squares A a block of columns at a time, with the bits of ``(a * a).sum(axis=1)``."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 300), scale=st.floats(-100.0, 100.0),
           seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 7, 64, datagen._ROW_SQ_BLOCK]))
    def test_matches_the_whole_product(self, m, n, scale, seed, block):
        a = np.random.default_rng(seed).standard_normal((m, n)) * 10.0 ** scale
        with mock.patch.object(datagen, "_ROW_SQ_BLOCK", block):
            _assert_row_sq_matches_the_whole_product(Instance(a, np.ones(m)))

    @pytest.mark.parametrize("m,n", [(500, 5000), (200, 2000), (1, 40000)])
    def test_benchmark_shapes_match_the_whole_product(self, m, n):
        inst, _ = generate(SyntheticSpec(n=n, m=m, k_true=1, rho=0.5, snr=6.0, seed=5))
        _assert_row_sq_matches_the_whole_product(inst)

    def test_peak_is_a_fraction_of_the_matrix(self):
        m, n = 200, 2000
        inst, _ = generate(SyntheticSpec(n=n, m=m, k_true=10, rho=0.5, snr=6.0, seed=3))
        assert _peak_bytes(gamma_zero, inst, 10) <= 0.1 * 8 * m * n


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
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 2
        assert "non-finite cell 'inf'" in str(err.value)

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

    def test_first_bad_cell_in_a_line_is_reported(self, tmp_path):
        (tmp_path / "A.csv").write_text("1,0,2\n1,inf,x\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 2
        assert "non-finite cell 'inf'" in str(err.value)

    def test_bad_cell_reported_before_an_earlier_ragged_row(self, tmp_path):
        # every line is parsed before the widths are compared
        (tmp_path / "A.csv").write_text("1,0\n0\n0,x\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n7\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 3
        assert "non-numeric cell 'x'" in str(err.value)

    def test_bad_cell_deep_in_the_file(self, tmp_path):
        lines = ["1.5,-2,0.25"] * 200
        lines[149] = "1.5,?,0.25"
        (tmp_path / "A.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "y.csv").write_text("1\n" * 200)
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 150
        assert "non-numeric cell '?'" in str(err.value)


class TestCsvBytes:
    def test_extreme_values_round_trip_bit_exactly(self, tmp_path):
        # the largest magnitudes overflow Instance's norm check, so this
        # runs the CSV layer itself in both directions
        vals = np.array([[-0.0, 5e-324, 2.2250738585072014e-308],
                         [1.7976931348623157e308, -1.7976931348623157e308, -5e-324]])
        path = str(tmp_path / "A.csv")
        _write_matrix(path, vals)
        back = np.vstack(_read_rows(path))
        assert back.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (4, 1)])
    def test_thin_shapes_round_trip(self, tmp_path, m, n):
        rng = np.random.default_rng(m * 10 + n)
        inst = Instance(rng.standard_normal((m, n)), -rng.standard_normal(m))
        save_dataset(str(tmp_path), inst, {})
        back = load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert back.a.shape == (m, n)
        assert back.a.tobytes() == inst.a.tobytes()
        assert back.y.tobytes() == inst.y.tobytes()

    def test_writer_golden_bytes(self, tmp_path):
        inst = Instance(np.array([[-0.0, 0.1, 1e-300], [5e-324, 1.0, -2.5]]), np.array([0.1, -0.0]))
        save_dataset(str(tmp_path), inst, {})
        assert (tmp_path / "A.csv").read_bytes() == b"-0.0,0.1,1e-300\n5e-324,1.0,-2.5\n"
        assert (tmp_path / "y.csv").read_bytes() == b"0.1\n-0.0\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet tools write UTF-8 CSVs with a byte-order mark first
        inst = Instance(np.array([[1.0, -0.5, 2e-300], [0.1, 3.0, -4.0]]), np.array([0.25, -1.0]))
        save_dataset(str(tmp_path), inst, {})
        for name in ("A.csv", "y.csv"):
            (tmp_path / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        back = load_csv(str(tmp_path / "bom_A.csv"), str(tmp_path / "bom_y.csv"))
        assert back.a.tobytes() == inst.a.tobytes()
        assert back.y.tobytes() == inst.y.tobytes()

    def test_byte_order_mark_past_the_start_is_an_error(self, tmp_path):
        (tmp_path / "A.csv").write_bytes(b"1,0\n\xef\xbb\xbf0,1\n")
        (tmp_path / "y.csv").write_text("3\n0.1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(tmp_path / "A.csv"), str(tmp_path / "y.csv"))
        assert err.value.line == 2


class _FailsAtRow2(np.ndarray):
    """A matrix whose second row raises when the writer reaches it."""

    def __iter__(self):
        rows = iter(self.view(np.ndarray))
        yield next(rows)
        raise OSError("no space left on device")


class TestReplacedFiles:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        inst = Instance(np.arange(6.0).reshape(3, 2), np.ones(3))
        save_dataset(str(tmp_path), inst, {})
        before = (tmp_path / "A.csv").read_bytes()
        with pytest.raises(OSError, match="no space"):
            _write_matrix(str(tmp_path / "A.csv"), (inst.a + 1.0).view(_FailsAtRow2))
        assert (tmp_path / "A.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["A.csv", "meta.json", "y.csv"]

    def test_symlink_is_replaced_not_written_through(self, tmp_path):
        target = tmp_path / "elsewhere.csv"
        target.write_text("1\n")
        (tmp_path / "y.csv").symlink_to(target)
        save_dataset(str(tmp_path), Instance(np.eye(2), np.array([3.0, 0.1])), {})
        assert target.read_text() == "1\n"
        assert not (tmp_path / "y.csv").is_symlink()
        assert (tmp_path / "y.csv").read_bytes() == b"3.0\n0.1\n"


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", " 2", "１"]),
)
_CELLS = st.one_of(_GOOD_CELLS, st.sampled_from(["nan", "inf", "x", ""]))


@st.composite
def _csv_text(draw, rows, width):
    """``rows`` lines of ``width`` cells that parse or, in one file of
    four, lines of random count and width with any cells and maybe a
    blank line; over a third of the file pairs then load."""
    if draw(st.integers(0, 3)) > 0:
        lines = draw(st.lists(st.lists(_GOOD_CELLS, min_size=width, max_size=width),
                              min_size=rows, max_size=rows))
        lines = [",".join(r) for r in lines]
    else:
        widths = st.integers(1, 4).flatmap(lambda w: st.lists(_CELLS, min_size=w, max_size=w))
        lines = [",".join(r) for r in draw(st.lists(widths, min_size=1, max_size=5))]
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))
    return "\n".join(lines) + end


@st.composite
def _csv_pair(draw):
    m = draw(st.integers(1, 5))
    return draw(_csv_text(m, draw(st.integers(1, 4)))), draw(_csv_text(m, 1))


class TestCsvParity:
    @settings(max_examples=300, deadline=None)
    @given(texts=_csv_pair())
    def test_load_csv_matches_the_per_cell_loader(self, tmp_path_factory, texts):
        text_a, text_y = texts
        d = tmp_path_factory.mktemp("csv")
        path_a, path_y = str(d / "A.csv"), str(d / "y.csv")
        with open(path_a, "w", encoding="utf-8", newline="") as fh:
            fh.write(text_a)
        with open(path_y, "w", encoding="utf-8", newline="") as fh:
            fh.write(text_y)
        try:
            want = load_csv_per_cell(path_a, path_y)
        except CsvOracleError as err:
            with pytest.raises(CsvParseError) as got:
                load_csv(path_a, path_y)
            assert got.value.line == err.line
            assert str(got.value) == f"line {err.line}: {err.message}"
            return
        try:
            want = Instance(*want)
        except InvalidInputError as err:
            # finite cells whose squares overflow are Instance's to reject
            with pytest.raises(InvalidInputError) as got:
                load_csv(path_a, path_y)
            assert str(got.value) == str(err)
            return
        got = load_csv(path_a, path_y)
        assert got.a.shape == want.a.shape
        assert got.a.tobytes() == want.a.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
