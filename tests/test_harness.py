import math
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cinecho import trial
from cinecho.config import DEFAULTS, lesion_from
from cinecho.errors import FormatError, PlanError
from cinecho.harness import (
    ResultRow,
    SweepSpec,
    emit_csv,
    emit_svg_plot,
    overlay_rescale,
    read_overlay_csv,
    read_rows_csv,
    run_sweep,
    sweep_points,
)
from cinecho.stacks import GEOMETRY_PRESETS, LesionSpec, StackGeometry, \
    generate_dataset
from cinecho.trial import PipelineConfig, run_trial, split_dataset

ROOT = Path(__file__).resolve().parents[1]
GEOM = StackGeometry(16, 16, 9, 10, 1.0)
LESION = LesionSpec("microcalc", 180.0, diameter_px=4.0)


def _small_config(**overrides):
    config = dict(DEFAULTS)
    config["observer.n_channels"] = 5
    config["observer.spread"] = 4.0
    config["trial.n_readers"] = 2
    config["trial.min_per_class"] = 6
    config["trial.seed"] = 9
    config.update(overrides)
    return config


def _cpus(monkeypatch, n):
    """Size the perception pool as if the process could run on n CPUs."""
    monkeypatch.setattr(trial, "_available_cpus", lambda: n)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(GEOM, 24, LESION, seed=404)


@pytest.fixture(scope="module")
def faint_dataset():
    return generate_dataset(GEOM, 24, replace(LESION, amplitude=60.0),
                            seed=404)


class TestSweepSpec:
    def test_values_coerced_to_floats(self):
        spec = SweepSpec("slice_rate", (1, 5, 10))
        assert spec.values == (1.0, 5.0, 10.0)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis must be one of"):
            SweepSpec("luminance", (1.0, 2.0))

    def test_empty_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec("ssr", ())

    def test_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec("ssr", (1.0, 3.0, 3.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec("slice_rate", (1.0, 2.0, 1.0))

    @pytest.mark.parametrize("values", [(math.nan,), (5.0, math.nan),
                                        (1.0, math.nan, 1.0)])
    def test_nan_value_is_not_a_number(self, values):
        with pytest.raises(ValueError, match=r"nan in values .* is not a "
                                             r"number"):
            SweepSpec("slice_rate", values)


class TestResultRow:
    def test_auc_out_of_range(self):
        with pytest.raises(ValueError, match="mean_auc"):
            ResultRow(1.0, 1.2, 0.0, 3, 0, "abc")

    def test_negative_stddev(self):
        with pytest.raises(ValueError, match="auc_stddev"):
            ResultRow(1.0, 0.5, -0.1, 3, 0, "abc")

    def test_non_finite_axis_or_stddev(self):
        for axis in (math.nan, math.inf):
            with pytest.raises(ValueError, match="axis value"):
                ResultRow(axis, 0.5, 0.1, 3, 0, "abc")
        with pytest.raises(ValueError, match="auc_stddev"):
            ResultRow(1.0, 0.5, math.inf, 3, 0, "abc")
        # a nan stddev means the variance was inestimable
        assert math.isnan(ResultRow(1.0, 0.5, math.nan, 3, 0, "abc")
                          .auc_stddev)


def _point(axis, value, base=PipelineConfig()):
    (point,) = sweep_points(SweepSpec(axis, (value,)), base)
    return point


class TestSweepPoints:
    def test_slice_rate_and_ssr_replace(self):
        base = PipelineConfig()
        assert _point("slice_rate", 40) == replace(base, slice_rate=40.0)
        assert _point("ssr", 14) == replace(base, ssr=14.0)

    def test_l_max_keeps_contrast_ratio(self):
        base = PipelineConfig()
        ratio = base.display.l_max / base.display.l_min
        swept = _point("l_max", 500.0)
        assert swept.display.l_max == 500.0
        assert swept.display.l_max / swept.display.l_min == pytest.approx(
            ratio, rel=1e-12)

    def test_contrast_ratio_keeps_l_max(self):
        base = PipelineConfig()
        swept = _point("contrast_ratio", 100.0)
        assert swept.display.l_max == base.display.l_max
        assert swept.display.l_min == pytest.approx(
            base.display.l_max / 100.0)


class TestOverlayRescale:
    def test_affine_map_recovered_exactly(self):
        # {0, 1} anchored onto {10, 20} is the map x -> 10x + 10
        values, tols = overlay_rescale(
            ext_axis=[1.0, 2.0, 3.0], ext_values=[0.0, 1.0, 0.4],
            ext_tolerances=[0.1, 0.2, 0.0], row_axis=[1.0, 2.0],
            row_means=[10.0, 20.0])
        np.testing.assert_allclose(values, [10.0, 20.0, 14.0], rtol=1e-12)
        np.testing.assert_allclose(tols, [1.0, 2.0, 0.0], rtol=1e-12)

    def test_matching_series_is_unchanged(self):
        values, tols = overlay_rescale(
            [1.0, 2.0, 3.0], [0.5, 0.7, 0.6], [0.01, 0.01, 0.01],
            [1.0, 2.0, 3.0], [0.5, 0.7, 0.6])
        np.testing.assert_allclose(values, [0.5, 0.7, 0.6], rtol=1e-12)
        np.testing.assert_allclose(tols, [0.01, 0.01, 0.01], rtol=1e-12)

    def test_both_sides_constant_shifts_only(self):
        values, _ = overlay_rescale([1.0, 2.0], [0.3, 0.3], [0.0, 0.0],
                                    [1.0, 2.0], [0.8, 0.8])
        np.testing.assert_allclose(values, [0.8, 0.8], rtol=1e-12)

    def test_constant_external_varying_anchor(self):
        with pytest.raises(ValueError, match="constant at the shared"):
            overlay_rescale([1.0, 2.0], [0.3, 0.3], [0.0, 0.0],
                            [1.0, 2.0], [0.5, 0.9])

    def test_too_few_shared_points(self):
        with pytest.raises(ValueError, match="two shared axis points"):
            overlay_rescale([1.0, 2.0], [0.1, 0.2], [0.0, 0.0],
                            [2.0, 3.0], [0.5, 0.6])

    def test_values_whose_squares_overflow(self):
        # the anchor's spread is about 1.4e200, and its square would be
        # 2e400; the two overlay points land on the two result values
        values, tols = overlay_rescale(
            [1.0, 5.0], [-1e200, 1e200], [1e199, 0.0], [1.0, 5.0],
            [0.75, 0.85])
        np.testing.assert_allclose(values, [0.75, 0.85], rtol=1e-12)
        np.testing.assert_allclose(tols, [0.005, 0.0], rtol=1e-12)

    def test_negative_tolerance(self):
        with pytest.raises(ValueError, match="nonnegative"):
            overlay_rescale([1.0, 2.0], [0.1, 0.2], [-0.1, 0.0],
                            [1.0, 2.0], [0.5, 0.6])


class TestCsvRoundTrip:
    def _rows(self):
        return [ResultRow(1.0, 0.5 + 1e-16, 0.01234567890123456, 3, 7,
                          "deadbeef0123"),
                ResultRow(5.0, 1.0 / 3.0, 0.0, 3, 7, "deadbeef0123")]

    def test_round_trip_is_exact(self, tmp_path):
        rows = self._rows()
        path = emit_csv(rows, tmp_path / "rows.csv")
        again = read_rows_csv(path)
        assert again == rows

    def test_blank_lines_are_skipped(self, tmp_path):
        rows = self._rows()
        path = emit_csv(rows, tmp_path / "rows.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:2] + ["", " "] + lines[2:]) + "\n",
                        encoding="utf-8")
        assert read_rows_csv(path) == rows

    def test_single_row_two_lines(self, tmp_path):
        path = emit_csv(self._rows()[:1], tmp_path / "one.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == "axis,mean_auc,auc_stddev,n_readers,seed,config_hash"

    def test_no_rows(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            emit_csv([], tmp_path / "empty.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="expected header"):
            read_rows_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("axis,mean_auc,auc_stddev,n_readers,seed,config_hash"
                        "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="empty.csv: no data rows"):
            read_rows_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("axis,mean_auc,auc_stddev,n_readers,seed,config_hash"
                        "\n1,0.5,0.1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="bad.csv:2"):
            read_rows_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("axis,mean_auc,auc_stddev,n_readers,seed,config_hash"
                        "\n1,0.5,0.1,2,9,abc\n1,0.5,0.1,two,9,abc\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="bad.csv:3: invalid literal"):
            read_rows_csv(path)

    @pytest.mark.parametrize("row, match", [
        ("inf,0.5,0.1,2,9,abc", "axis value inf"),
        ("nan,0.5,0.1,2,9,abc", "axis value nan"),
        ("1,0.5,inf,2,9,abc", "auc_stddev")])
    def test_non_finite_field(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text("axis,mean_auc,auc_stddev,n_readers,seed,config_hash"
                        f"\n1,0.5,0.1,2,9,abc\n{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"bad.csv:3: {match}"):
            read_rows_csv(path)


class TestOverlayCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("axis,value,tolerance\n1,0.72,0.01\n5,0.74,0.02\n",
                        encoding="utf-8")
        axis, values, tols = read_overlay_csv(path)
        np.testing.assert_array_equal(axis, [1.0, 5.0])
        np.testing.assert_array_equal(values, [0.72, 0.74])
        np.testing.assert_array_equal(tols, [0.01, 0.02])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
        with pytest.raises(FormatError, match="axis,value,tolerance"):
            read_overlay_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("axis,value,tolerance\n1,x,0.01\n", encoding="utf-8")
        with pytest.raises(FormatError, match="ext.csv:2: could not convert"):
            read_overlay_csv(path)

    @pytest.mark.parametrize("row", ["nan,0.7,0.01", "1,inf,0.01",
                                     "1,0.7,-inf"])
    def test_non_finite_field(self, tmp_path, row):
        path = tmp_path / "ext.csv"
        path.write_text(f"axis,value,tolerance\n5,0.7,0.01\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="ext.csv:3: value .* is not "
                                              "finite"):
            read_overlay_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("axis,value,tolerance\n", encoding="utf-8")
        with pytest.raises(FormatError, match="no data rows"):
            read_overlay_csv(path)


def _coordinates(svg_path):
    """Every x and y coordinate of the plot's elements."""
    return [float(element.get(key))
            for element in ET.parse(svg_path).getroot().iter()
            for key in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")
            if element.get(key) is not None]


class TestSvgPlot:
    def _rows(self):
        return [ResultRow(1.0, 0.70, 0.02, 3, 7, "abc"),
                ResultRow(5.0, 0.75, 0.015, 3, 7, "abc"),
                ResultRow(10.0, 0.73, float("nan"), 3, 7, "abc")]

    def test_well_formed_with_one_polyline_per_series(self, tmp_path):
        overlay = ("digitized", [1.0, 5.0], [0.71, 0.74], [0.05, 0.05])
        path = emit_svg_plot(self._rows(), [overlay], tmp_path / "p.svg",
                             axis_label="slice rate")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2
        text = path.read_text(encoding="utf-8")
        assert "slice rate" in text
        assert "digitized" in text
        assert "nan" not in text.lower()

    def test_labels_are_escaped(self, tmp_path):
        overlay = ("a < b", [1.0, 5.0], [0.71, 0.74], [0.05, 0.05])
        path = emit_svg_plot(self._rows(), [overlay], tmp_path / "p.svg",
                             axis_label="R&D <rate>")
        labels = [t.text for t in ET.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}text")]
        assert "R&D <rate>" in labels and "a < b" in labels

    def test_no_rows(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            emit_svg_plot([], [], tmp_path / "p.svg")

    @pytest.mark.parametrize("axis", [25.0, 1e17, sys.float_info.max])
    def test_one_row_plots_at_any_axis_value(self, tmp_path, axis):
        # one axis value is widened to a range that does not round away
        path = emit_svg_plot([ResultRow(axis, 0.7, 0.02, 3, 7, "abc")], [],
                             tmp_path / "p.svg")
        coordinates = _coordinates(path)
        assert len(coordinates) > 40
        assert all(math.isfinite(c) for c in coordinates)
        circle, = ET.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}circle")
        assert 64.0 <= float(circle.get("cx")) <= 640.0 - 24.0

    def test_axis_wider_than_the_largest_float(self, tmp_path):
        # the span 2e308 overflows; an overflow warning fails the test
        csv = tmp_path / "wide.csv"
        csv.write_text("axis,mean_auc,auc_stddev,n_readers,seed,config_hash"
                       "\n-1e308,0.7,0.02,3,7,abc\n1e308,0.8,0.02,3,7,abc\n",
                       encoding="utf-8")
        path = emit_svg_plot(read_rows_csv(csv), [], tmp_path / "p.svg")
        assert all(math.isfinite(c) for c in _coordinates(path))
        circles = ET.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}circle")
        assert [float(c.get("cx")) for c in circles] == [64.0, 640.0 - 24.0]


class TestRunSweep:
    def test_single_point_matches_direct_trial(self, faint_dataset):
        # every row is run_trial at its point, bit for bit: one point, two
        # points sharing one pass, and two displays with a pass each; the
        # faint lesions keep the AUCs of the points apart, so a row scored
        # on another point's responses would show
        config = _small_config()
        plan = split_dataset(faint_dataset.pairing, 2, 9, 6)
        base = PipelineConfig(n_channels=5, spread=4.0)
        for spec in (SweepSpec("slice_rate", (25.0,)),
                     SweepSpec("slice_rate", (5.0, 25.0)),
                     SweepSpec("l_max", (150.0, 300.0))):
            rows = run_sweep(faint_dataset, spec, config)
            assert [row.axis_value for row in rows] == list(spec.values)
            assert len({row.mean_auc for row in rows}) == len(rows)
            for row in rows:
                direct = run_trial(faint_dataset, plan,
                                   _point(spec.axis, row.axis_value, base))
                assert row.mean_auc == direct.mean_auc
                assert row.auc_stddev == math.sqrt(direct.variance)
                assert row.n_readers == 2
                assert row.seed == 9

    def test_deterministic_bytes(self, small_dataset, tmp_path):
        config = _small_config()
        spec = SweepSpec("slice_rate", (5.0, 25.0))
        a = emit_csv(run_sweep(small_dataset, spec, config),
                     tmp_path / "a.csv")
        b = emit_csv(run_sweep(small_dataset, spec, config),
                     tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_rows_share_the_config_fingerprint(self, small_dataset):
        config = _small_config()
        rows = run_sweep(small_dataset, SweepSpec("ssr", (4.0, 8.0)), config)
        assert len({row.config_hash for row in rows}) == 1

    def test_error_names_axis_and_value(self, small_dataset):
        # contrast ratio 0.5 puts L_min above L_max
        config = _small_config()
        with pytest.raises(RuntimeError,
                           match=r"sweep aborted at contrast_ratio = 0\.5"):
            run_sweep(small_dataset, SweepSpec("contrast_ratio", (0.5,)),
                      config)
        with pytest.raises(RuntimeError, match="sweep aborted at l_max = inf: "
                                               "l_max must be finite"):
            run_sweep(small_dataset, SweepSpec("l_max", (200.0, math.inf)),
                      config)

    def test_too_few_to_train_the_channels_fails_before_perception(
            self, small_dataset, monkeypatch):
        def perceive(*args, **kwargs):
            raise AssertionError("a stack was perceived")

        monkeypatch.setattr(trial, "apply_stcsf", perceive)
        # 24 pairs over three subsets leave 8 stacks per class in each
        with pytest.raises(PlanError, match="8 stacks per class in a "
                           "training subset cannot train 8 channels"):
            run_sweep(small_dataset, SweepSpec("slice_rate", (5.0, 25.0)),
                      _small_config(**{"observer.n_channels": 8}))

    @pytest.mark.parametrize("axis, values", [
        ("slice_rate", (5.0, 25.0)), ("ssr", (4.0, 8.0)),
        ("l_max", (500.0, 1000.0)), ("contrast_ratio", (100.0, 1000.0))])
    def test_parallel_matches_sequential(self, faint_dataset, monkeypatch,
                                         axis, values):
        # a faint lesion keeps the AUCs off 1, so differing scores show;
        # seven threads take the stacks unevenly, and switching threads
        # often tests that no stack's responses land in another's place
        spec = SweepSpec(axis, values)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = {}
            for cpus in (1, 2, 7):
                _cpus(monkeypatch, cpus)
                rows[cpus] = run_sweep(faint_dataset, spec, _small_config())
        finally:
            sys.setswitchinterval(interval)
        assert all(0.5 < row.mean_auc < 1.0 for row in rows[1])
        assert rows[2] == rows[1] and rows[7] == rows[1]

    @pytest.mark.parametrize("workers", [0, -1, 1, 2])
    def test_sweep_workers_is_ignored(self, faint_dataset, workers):
        # run first, so no freed buffer of a good sweep can stand in for
        # responses that were never computed
        spec = SweepSpec("slice_rate", (5.0, 25.0))
        rows = run_sweep(faint_dataset, spec,
                         _small_config(**{"sweep.workers": workers}))
        default = run_sweep(faint_dataset, spec, _small_config())
        # rows differ at most in the fingerprint, which covers sweep.workers
        assert [replace(row, config_hash="") for row in rows] \
            == [replace(row, config_hash="") for row in default]

    def test_more_workers_than_stacks_run_one_stack_each(self, monkeypatch):
        # 8 pairs are 16 stacks; one channel and the max combiner let
        # readers train on 2 or 3 stacks per class, and a faint lesion
        # keeps the first point's AUC off 1
        dataset = generate_dataset(GEOM, 8, replace(LESION, amplitude=40.0),
                                   seed=404)
        config = _small_config(**{"trial.min_per_class": 2,
                                  "observer.n_channels": 1,
                                  "observer.combiner": "max"})
        spec = SweepSpec("slice_rate", (5.0, 25.0))
        _cpus(monkeypatch, 1)
        one = run_sweep(dataset, spec, config)
        _cpus(monkeypatch, 19)
        rows = run_sweep(dataset, spec, config)
        assert 0.5 < one[0].mean_auc < 1.0

        def numbers(rows):
            return [(r.axis_value, r.mean_auc, r.auc_stddev) for r in rows]

        # a NaN standard deviation compares equal here
        np.testing.assert_array_equal(numbers(rows), numbers(one))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failure_in_the_pass_names_axis_and_value(self, small_dataset,
                                                      monkeypatch, cpus):
        # codes mapped onto a 1e308 cd/m2 display overflow the stack mean;
        # at ssr 1e200 a 16-pixel image spans 1.6e-199 deg, whose square
        # the sensitivity cannot divide by, and at ssr 1e-61 it spans 1.6e62
        # deg, past where tau2's power of the field size overflows; ssr 4
        # shares their pass
        _cpus(monkeypatch, cpus)
        config = _small_config()
        for spec, match in [
                (SweepSpec("l_max", (500.0, 1e308)),
                 r"sweep aborted at l_max = 1e\+308: "
                 r"ViewingConditions\.luminance"),
                (SweepSpec("ssr", (4.0, 1e200)),
                 r"sweep aborted at ssr = 1e\+200: ViewingConditions\.x0 = "),
                (SweepSpec("ssr", (1e-61, 4.0)),
                 r"sweep aborted at ssr = 1e-61: ViewingConditions\.x0 = ")]:
            with pytest.raises(RuntimeError, match=match):
                run_sweep(small_dataset, spec, config)

    def test_tau2_overflow_aborts_with_its_own_message(self):
        # a 64-pixel image at 1.1e-60 px/deg spans 5.8e61 deg, inside the
        # x0 range, but (1 + D/3.2)**5 * E of tau2 overflows at the
        # display's luminance; tau2 used to fall to 0 with a warning and
        # training then failed on a zero covariance
        dataset = generate_dataset(GEOMETRY_PRESETS["dataset_b"], 64,
                                   LESION, seed=4)
        with pytest.raises(RuntimeError,
                           match=r"sweep aborted at ssr = 1\.1e-60: "
                                 r"\(1 \+ D/3\.2\)\^5 \* E overflows at "
                                 r"field diameter D = "):
            run_sweep(dataset, SweepSpec("ssr", (1.1e-60, 4.0)),
                      dict(DEFAULTS))

    def test_small_study_finishes_without_error_bars(self, tmp_path):
        # 100 pairs at seed 0: readers trained on 25 cases per class agree
        # so little that the one-shot estimate falls below zero (-4.05e-4
        # at 25 slice/s); the sweep finishes with NaN, "inestimable"
        dataset = generate_dataset(GEOMETRY_PRESETS["dataset_b"], 100,
                                   lesion_from(DEFAULTS), seed=0)
        rows = run_sweep(dataset, SweepSpec("slice_rate", (25.0, 40.0)),
                         dict(DEFAULTS, **{"trial.seed": 0}))
        assert [math.isnan(r.auc_stddev) for r in rows] == [True, True]
        csv = emit_csv(rows, tmp_path / "sweep.csv")
        assert csv.read_text(encoding="utf-8").count(",nan,") == 2
        back = read_rows_csv(csv)
        assert [r.mean_auc for r in back] == [r.mean_auc for r in rows]
        assert all(math.isnan(r.auc_stddev) for r in back)
        svg = emit_svg_plot(back, [], tmp_path / "sweep.svg")
        lines = ET.parse(svg).getroot().findall(
            ".//{http://www.w3.org/2000/svg}line")
        assert lines and all(line.get("stroke") == "#444" for line in lines)

    def test_parallel_sweep_needs_no_main_guard(self, tmp_path):
        # a sweep, which perceives on a thread pool, is callable from a
        # plain script's top level
        script = tmp_path / "sweep_script.py"
        script.write_text(textwrap.dedent("""
            from cinecho.config import DEFAULTS, lesion_from
            from cinecho.harness import SweepSpec, run_sweep
            from cinecho.stacks import LesionSpec, StackGeometry, \\
                generate_dataset

            dataset = generate_dataset(StackGeometry(16, 16, 9, 10, 1.0), 24,
                                       LesionSpec("microcalc", 180.0,
                                                  diameter_px=4.0), seed=404)
            config = dict(DEFAULTS, **{
                "observer.n_channels": 5, "observer.spread": 4.0,
                "trial.n_readers": 2, "trial.min_per_class": 6})
            rows = run_sweep(dataset, SweepSpec("slice_rate", (5.0, 25.0)),
                             config)
            print(len(rows), "rows")
        """), encoding="utf-8")
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "2 rows\n"

    def test_explicit_plan_reused(self, small_dataset):
        config = _small_config()
        plan = split_dataset(small_dataset.pairing, 2, 9, 6)
        rows = run_sweep(small_dataset, SweepSpec("slice_rate", (25.0,)),
                         config, plan=plan)
        direct = run_sweep(small_dataset, SweepSpec("slice_rate", (25.0,)),
                           config)
        assert rows[0].mean_auc == direct[0].mean_auc
