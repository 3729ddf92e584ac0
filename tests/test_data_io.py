import numpy as np
import pytest

from plainbayes.data_io import Dataset, SimConfig, load_csv, save_csv, simulate_linear
from plainbayes.errors import DataError, MalformedCsv, NonNumericCell, RaggedRow


class TestSimulate:
    def test_noiseless_line(self):
        data = simulate_linear(SimConfig(alpha=1.0, beta=2.0, sigma=0.0, n=50, seed=3))
        np.testing.assert_allclose(data.columns["y"], 1.0 + 2.0 * data.columns["X"], rtol=0, atol=1e-12)

    def test_same_seed_identical(self):
        cfg = SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=42)
        a, b = simulate_linear(cfg), simulate_linear(cfg)
        np.testing.assert_array_equal(a.columns["X"], b.columns["X"])
        np.testing.assert_array_equal(a.columns["y"], b.columns["y"])

    def test_ols_recovers_slope(self):
        # OLS error bound: 3 * sigma / (sqrt(n) * sd(X)) ~= 0.16
        data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=42))
        x, y = data.columns["X"], data.columns["y"]
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - 1.8) <= 3 * 15.0 / (np.sqrt(100) * x.std())

    def test_residual_sd_converges(self):
        cfg = SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100_000, seed=7)
        data = simulate_linear(cfg)
        resid = data.columns["y"] - (2.5 + 1.8 * data.columns["X"])
        assert abs(resid.std(ddof=1) - 15.0) < 0.15

    def test_x_range(self):
        data = simulate_linear(SimConfig(alpha=0, beta=0, sigma=1, n=1000, x_low=-2, x_high=3, seed=1))
        x = data.columns["X"]
        assert x.min() >= -2 and x.max() <= 3

    def test_invalid_configs(self):
        with pytest.raises(DataError):
            SimConfig(alpha=0, beta=0, sigma=-1, n=10)
        with pytest.raises(DataError):
            SimConfig(alpha=0, beta=0, sigma=1, n=0)
        with pytest.raises(DataError):
            SimConfig(alpha=0, beta=0, sigma=1, n=10, x_low=5, x_high=5)
        with pytest.raises(DataError, match="below 2"):  # beyond Philox's keys
            SimConfig(alpha=0, beta=0, sigma=1, n=10, seed=2**128)
        assert simulate_linear(SimConfig(alpha=0, beta=0, sigma=1, n=10, seed=2**128 - 1)).n_rows == 10


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset({"a": np.zeros(3), "b": np.zeros(4)})

    def test_non_finite(self):
        with pytest.raises(DataError):
            Dataset({"a": np.array([1.0, np.nan])})

    def test_empty(self):
        with pytest.raises(DataError):
            Dataset({"a": np.array([])})

    def test_columns_read_only(self):
        data = Dataset({"a": np.array([1.0, 2.0])})
        with pytest.raises(ValueError):
            data.columns["a"][0] = 9.0


class TestCsv:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("X,y\n1,2\n3,4\n")
        data = load_csv(path)
        assert data.n_rows == 2
        np.testing.assert_array_equal(data.columns["X"], [1.0, 3.0])
        np.testing.assert_array_equal(data.columns["y"], [2.0, 4.0])

    def test_simulated_round_trip_exact(self, tmp_path):
        data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=200, seed=42))
        path = tmp_path / "sim.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        for name in data.column_names():
            np.testing.assert_array_equal(loaded.columns[name], data.columns[name])

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,y\n1,2\n3\n")
        with pytest.raises(RaggedRow) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,y\n1,2\nfoo,4\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert err.value.line == 3 and err.value.column == "X"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedCsv):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("X,y\n")
        with pytest.raises(MalformedCsv):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("X,X\n1,2\n")
        with pytest.raises(MalformedCsv):
            load_csv(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"X,y\r\n1,2\r\n3,4\r\n")
        assert load_csv(path).n_rows == 2

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet programs export "UTF-8 CSV" with a leading U+FEFF
        path = tmp_path / "bom.csv"
        path.write_bytes("X,y\r\n1,2\r\n3,4\r\n".encode("utf-8-sig"))
        data = load_csv(path)
        assert data.column_names() == ["X", "y"]
        np.testing.assert_array_equal(data.columns["X"], [1.0, 3.0])

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("X,y\n1,2\n\n3,4\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.columns["y"], [2.0, 4.0])

    def test_blank_line_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("X,y\n1,2\n\n3,z\n")
        with pytest.raises(NonNumericCell, match="line 4"):
            load_csv(path)

    @pytest.mark.parametrize("header", ["X,,y", "X, ,y", ",y"])
    def test_empty_header_name(self, tmp_path, header):
        path = tmp_path / "empty_name.csv"
        path.write_text(f"{header}\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n")
        with pytest.raises(MalformedCsv, match="^line 1: empty column name in header$"):
            load_csv(path)
