"""Parsing, preprocessing, windowing and labels."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualmixer import data as dd


def make_series(unit_id=1, length=40, n_sensors=21, seed=0):
    rng = np.random.default_rng(seed)
    return dd.RawSeries(unit_id=unit_id, sensors=rng.normal(size=(length, n_sensors)))


class TestParsing:

    def test_groups_units_and_orders_cycles(self, tmp_path):
        path = tmp_path / "train.txt"
        rows = []
        for unit in (1, 2):
            for cycle in (2, 1, 3):  # deliberately out of order
                rows.append(" ".join([str(unit), str(cycle)] +
                                     [f"{unit}.{cycle}"] * 24))
        path.write_text("\n".join(rows) + "\n")
        series = dd.parse_cmapss(str(path))
        assert [s.unit_id for s in series] == [1, 2]
        for unit, s in zip((1, 2), series):
            assert s.sensors.shape == (3, 21)
            np.testing.assert_array_equal(s.sensors[:, 0],
                                          [float(f"{unit}.{c}") for c in (1, 2, 3)])

    def test_wrong_column_count_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        good = " ".join(["1", "1"] + ["0.0"] * 24)
        path.write_text(good + "\n1 2 3\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: expected 26 columns, got 3$"):
            dd.parse_cmapss(str(path))

    def test_non_numeric_field_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(" ".join(["1", "x"] + ["0.0"] * 24) + "\n")
        with pytest.raises(ValueError, match=r"bad\.txt:1: non-numeric field$"):
            dd.parse_cmapss(str(path))

    def test_gapped_cycles_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = [" ".join(["1", str(c)] + ["0.0"] * 24) for c in (1, 3)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError,
                           match=r"bad\.txt: unit 1 cycle indices are not contiguous from 1"):
            dd.parse_cmapss(str(path))

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert dd.parse_cmapss(str(path)) == []

    def test_write_then_parse_is_exact(self, tmp_path):
        """Serialization keeps enough digits for a lossless round trip."""
        series = [make_series(1, 17, seed=1), make_series(2, 9, seed=2)]
        path = tmp_path / "round.txt"
        dd.write_cmapss(str(path), series)
        back = dd.parse_cmapss(str(path))
        for orig, re in zip(series, back):
            assert re.unit_id == orig.unit_id
            assert re.length == orig.length
            np.testing.assert_array_equal(re.sensors, orig.sensors)

    def test_failed_write_leaves_no_file_and_an_old_file_as_it_was(self, tmp_path):
        """The second unit has 14 sensor columns, not 21."""
        series = [make_series(1, 5, seed=1), make_series(2, 5, n_sensors=14, seed=2)]
        fresh, old = tmp_path / "fresh.txt", tmp_path / "old.txt"
        old.write_bytes(b"1 1 kept\n")
        for path in (fresh, old):
            with pytest.raises(ValueError, match="unit 2: need 21 sensor columns"):
                dd.write_cmapss(str(path), series)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
        assert old.read_bytes() == b"1 1 kept\n"

    def test_rul_file_round_trip(self, tmp_path):
        path = tmp_path / "RUL.txt"
        dd.write_rul(str(path), [112, 98, 69])
        assert dd.parse_rul(str(path)) == [112, 98, 69]

    def test_rul_file_rejects_extra_columns(self, tmp_path):
        path = tmp_path / "RUL.txt"
        path.write_text("5 7\n")
        with pytest.raises(ValueError, match=r"RUL\.txt:1: expected 1 column, got 2$"):
            dd.parse_rul(str(path))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999", "2.5", "-5"])
    def test_rul_value_must_be_a_count_of_cycles(self, tmp_path, value):
        path = tmp_path / "RUL.txt"
        path.write_text(f"7\n{value}\n")
        cause = rf"RUL\.txt:2: '{re.escape(value)}' is not a count of cycles"
        with pytest.raises(ValueError, match=cause):
            dd.parse_rul(str(path))

    @pytest.mark.parametrize("column,value", [
        (0, "inf"), (0, "nan"), (0, "1.5"), (1, "inf"), (1, "2.5"), (7, "nan"), (25, "-inf"),
        (2, "nan"), (4, "1e999"), (0, "-5"),
    ])
    def test_non_finite_or_fractional_field_names_the_line(self, tmp_path, column, value):
        """A unit id or cycle must be a whole number, the unit id not
        negative (it seeds the sampler), and every field finite."""
        path = tmp_path / "bad.txt"
        fields = [["1", str(c)] + ["0.5"] * 24 for c in (1, 2, 3)]
        fields[1][column] = value
        path.write_text("\n".join(" ".join(f) for f in fields) + "\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: non-finite field or negative or "
                                             "fractional unit id or cycle$"):
            dd.parse_cmapss(str(path))


# tokens that parse as numbers, as non-finite or fractional values, or not at all
tokens = st.one_of(
    st.sampled_from(["1", "2", "0", "-1", "2.5", "inf", "-inf", "nan", "1e999",
                     "1e308", "0x10", "1_0", "x", "", "\u00a0", "\x00"]),
    st.integers().map(str), st.floats().map(repr))
text_lines = st.lists(st.lists(tokens, min_size=0, max_size=27).map(" ".join), max_size=6)
parser_settings = settings(deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestParsersOnArbitraryInput:
    """Whatever the file holds, both parsers return or raise ValueError."""

    def check(self, path, blob):
        path.write_bytes(blob)
        for parse in (dd.parse_cmapss, dd.parse_rul):
            try:
                parse(str(path))
            except ValueError:
                pass

    @parser_settings
    @given(blob=st.binary(max_size=512))
    def test_arbitrary_bytes(self, tmp_path, blob):
        self.check(tmp_path / "data.txt", blob)

    @parser_settings
    @given(lines=text_lines, columns=st.integers(0, 25))
    def test_arbitrary_fields(self, tmp_path, lines, columns):
        """Random lines, plus 26-column lines with one random field among
        good ones, so the checks after the column count are reached."""
        good = ["1", "1"] + ["0.5"] * 24
        lines += [" ".join(good[:columns] + [line.split(" ")[0]] + good[columns + 1:])
                  for line in lines]
        self.check(tmp_path / "data.txt", "\n".join(lines).encode())


class TestVariableSelection:

    def test_keeps_the_14_informative_channels(self):
        series = make_series()
        out = dd.select_variables(series)
        assert out.sensors.shape == (40, 14)
        # first kept channel is sensor 2 (1-based), i.e. raw column 1
        np.testing.assert_array_equal(out.sensors[:, 0], series.sensors[:, 1])

    def test_dropped_set_is_the_complement(self):
        kept = set(dd.SELECTED_SENSORS)
        assert kept | {1, 5, 6, 10, 16, 18, 19} == set(range(1, 22))
        assert len(kept) == 14

    def test_requires_21_columns(self):
        with pytest.raises(ValueError):
            dd.select_variables(make_series(n_sensors=14))


class TestNormalization:

    def test_midpoint_and_endpoints(self):
        stats = dd.NormStats(mins=np.array([[0.0]]), maxs=np.array([[2.0]]))
        np.testing.assert_array_equal(dd.apply_minmax(np.array([[1.0]]), stats), [[0.5]])
        np.testing.assert_array_equal(dd.apply_minmax(np.array([[0.0]]), stats), [[0.0]])
        np.testing.assert_array_equal(dd.apply_minmax(np.array([[2.0]]), stats), [[1.0]])

    def test_fit_covers_all_given_arrays(self):
        a = np.array([[0.0, 5.0], [2.0, 6.0]])
        b = np.array([[-1.0, 5.5]])
        stats = dd.fit_minmax([a, b])
        np.testing.assert_array_equal(stats.mins, [[-1.0, 5.0]])
        np.testing.assert_array_equal(stats.maxs, [[2.0, 6.0]])

    def test_out_of_range_values_are_not_clipped(self):
        """Test rows beyond the training extrema leave [0, 1] untouched."""
        stats = dd.fit_minmax([np.array([[0.0], [1.0]])])
        out = dd.apply_minmax(np.array([[1.5], [-0.25]]), stats)
        np.testing.assert_array_equal(out, [[1.5], [-0.25]])

    def test_constant_variable_rejected(self):
        with pytest.raises(ValueError, match=r"^constant variables at columns \[1\]$"):
            dd.fit_minmax([np.array([[0.0, 3.0], [1.0, 3.0]])])

    def test_invert_recovers_raw_values(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(50, 4)) * 10.0
        stats = dd.fit_minmax([raw])
        back = dd.apply_minmax(raw, stats) * (stats.maxs - stats.mins) + stats.mins
        np.testing.assert_allclose(back, raw, atol=1e-12)


class TestSlidingWindow:

    def test_window_counts(self):
        assert len(dd.sliding_window(np.zeros((192, 3)), 30, 1)) == 163
        assert len(dd.sliding_window(np.zeros((30, 3)), 30, 1)) == 1

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            w = int(rng.integers(1, 20))
            length = int(rng.integers(w, 80))
            sl = int(rng.integers(1, 6))
            got = len(dd.sliding_window(np.zeros((length, 2)), w, sl))
            assert got == (length - w) // sl + 1

    def test_consecutive_windows_overlap_exactly(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(25, 3))
        wins = dd.sliding_window(values, 10, 2)
        for a, b in zip(wins, wins[1:]):
            np.testing.assert_array_equal(a[2:], b[:-2])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            dd.sliding_window(np.zeros((5, 2)), 6, 1)


class TestLabels:

    def test_saturation_and_endpoints(self):
        assert dd.piecewise_label(125) == 1.0
        assert dd.piecewise_label(300) == 1.0
        assert dd.piecewise_label(0) == 0.0
        assert dd.piecewise_label(62.5) == 0.5

    def test_negative_remaining_cycles_rejected(self):
        with pytest.raises(ValueError):
            dd.piecewise_label(-1)


class TestTrainingWindows:

    def build(self, length=40, w=30):
        series = [make_series(1, length, n_sensors=3, seed=6)]
        stats = dd.fit_minmax([s.sensors for s in series])
        return dd.build_training_windows(series, stats, w=w, sl=1)

    def test_count_labels_and_indices(self):
        samples = self.build()
        assert len(samples) == 11
        assert [s.anchor_index for s in samples] == list(range(11))
        assert samples[-1].label == 0.0
        np.testing.assert_allclose([s.label for s in samples],
                                   [r / 125 for r in range(10, -1, -1)])

    def test_labels_non_increasing_per_unit(self):
        samples = self.build(length=200, w=30)
        labels = [s.label for s in samples]
        assert all(a >= b for a, b in zip(labels, labels[1:]))
        below_knee = [l for l in labels if l < 1.0]
        assert all(a > b for a, b in zip(below_knee, below_knee[1:]))

    def test_windows_are_read_only_views_of_their_unit(self):
        """A window stores no rows of its own: it shares memory with its
        neighbour, and nothing can be written through it, nor through a
        test set's final window."""
        series = [make_series(1, 40, n_sensors=3, seed=6)]
        stats = dd.fit_minmax([s.sensors for s in series])
        windows = [s.values for s in dd.build_training_windows(series, stats, w=30, sl=1)]
        for a, b in zip(windows, windows[1:]):
            assert np.shares_memory(a, b)
        final = dd.build_test_set(series, [0], stats, w=30)[0].values
        for window in (windows[0], final):
            with pytest.raises(ValueError, match="read-only"):
                window[0, 0] = 1.0

    def test_too_short_unit_is_skipped(self):
        series = [make_series(1, 10, n_sensors=3, seed=7),
                  make_series(2, 35, n_sensors=3, seed=8)]
        stats = dd.fit_minmax([s.sensors for s in series])
        samples = dd.build_training_windows(series, stats, w=30, sl=1)
        assert {s.unit_id for s in samples} == {2}


class TestTestSet:

    def test_final_window_and_label(self):
        series = [make_series(1, 50, n_sensors=3, seed=9)]
        stats = dd.fit_minmax([s.sensors for s in series])
        samples = dd.build_test_set(series, [20], stats, w=30)
        assert len(samples) == 1
        s = samples[0]
        assert s.label == 20 / 125
        np.testing.assert_array_equal(
            s.values, dd.apply_minmax(series[0].sensors, stats)[-30:])

    def test_short_unit_left_padded_with_first_cycle(self):
        series = [make_series(1, 12, n_sensors=3, seed=10)]
        stats = dd.fit_minmax([s.sensors for s in series])
        s = dd.build_test_set(series, [5], stats, w=30)[0]
        assert s.values.shape == (30, 3)
        norm = dd.apply_minmax(series[0].sensors, stats)
        for row in s.values[:18]:
            np.testing.assert_array_equal(row, norm[0])
        np.testing.assert_array_equal(s.values[18:], norm)

    def test_rul_count_mismatch_rejected(self):
        series = [make_series(1, 50, n_sensors=3, seed=11)]
        stats = dd.fit_minmax([s.sensors for s in series])
        with pytest.raises(ValueError):
            dd.build_test_set(series, [20, 30], stats, w=30)


class TestGrouping:

    def test_groups_sorted_by_window_index(self):
        samples = [dd.WindowSample(np.zeros((2, 2)), 0.5, unit_id=u, anchor_index=i)
                   for u, i in [(2, 1), (1, 0), (2, 0), (1, 1)]]
        groups = dd.group_by_unit(samples)
        assert sorted(groups) == [1, 2]
        assert [s.anchor_index for s in groups[1]] == [0, 1]
        assert [s.anchor_index for s in groups[2]] == [0, 1]

