import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from cinecho import cli, stacks
from cinecho.cli import main
from cinecho.config import load_config
from cinecho.csf import ViewingConditions, stcsf
from cinecho.errors import FormatError
from cinecho.harness import read_overlay_csv, read_rows_csv
from cinecho.stacks import LesionSpec, StackGeometry, generate_dataset, \
    read_dataset, read_stack, write_dataset

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# small but complete run: 18 pairs of dataset_b stacks, 2 readers,
# a 3-channel observer, and a strong lesion so AUC is away from chance;
# 18 pairs leave 6 per class per subset, enough for the 5-slice stage
SMALL_CONFIG = """\
generator.n_pairs = 18
generator.lesion_amplitude = 120
trial.n_readers = 2
trial.min_per_class = 4
observer.n_channels = 3
observer.spread = 4.0
sweep.values = 5, 25
"""


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "small.txt"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("dataset")
    assert main(["gen-dataset", "--config", str(config_path),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", "--config", str(config_path),
                 "--out", str(out)]) == 0
    return out


class TestGenDataset:
    def test_writes_manifest_stacks_and_config(self, dataset_dir):
        assert (dataset_dir / "manifest.csv").exists()
        assert (dataset_dir / "config.txt").exists()
        dataset = read_dataset(dataset_dir / "manifest.csv")
        assert len(dataset.stacks) == 36
        assert len(dataset.pairing) == 18

    def test_seed_override_lands_in_resolved_config(self, config_path,
                                                    tmp_path):
        assert main(["gen-dataset", "--config", str(config_path),
                     "--out", str(tmp_path), "--seed", "5"]) == 0
        text = (tmp_path / "config.txt").read_text(encoding="utf-8")
        assert "generator.seed = 5\n" in text
        assert "trial.seed = 5\n" in text


    def test_stack_id_that_leaves_out_is_refused(self, tmp_path, capsys):
        # a manifest whose lesion stack is named '../../escaped' in both its
        # row and its header reads back, but must not be written back
        source = tmp_path / "source"
        ds = generate_dataset(StackGeometry(16, 16, 9, 10, 1.0), 2,
                              LesionSpec("microcalc", 60.0), seed=3)
        manifest = write_dataset(ds, source)
        evil = "../../escaped"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            "l0,l0.u16", f"{evil},l0.u16"), encoding="utf-8")
        header = source / "l0.u16.hdr"
        header.write_text(header.read_text(encoding="utf-8").replace(
            "stack_id = l0", f"stack_id = {evil}"), encoding="utf-8")
        assert evil in {s.stack_id for s in read_dataset(manifest).stacks}
        config = tmp_path / "manifest.txt"
        config.write_text(f"trial.dataset = {manifest}\n", encoding="utf-8")
        out = tmp_path / "a" / "b" / "out"
        before = set(tmp_path.rglob("*"))
        assert main(["gen-dataset", "--config", str(config),
                     "--out", str(out)]) == 2
        assert f"error: stack_id {evil!r} does not name a file inside" \
            in capsys.readouterr().err
        # --out and its parents are made; no file is written anywhere
        new = set(tmp_path.rglob("*")) - before
        assert new == {out, out.parent, out.parent.parent}
        assert not (tmp_path / "a" / "escaped.u16").exists()

    def test_repeated_stack_id_is_refused(self, tmp_path, capsys):
        # renaming l1 to l0 in its row and header would make the second l0
        # overwrite the first on writing: 4 stacks announced, 3 files
        source = tmp_path / "source"
        ds = generate_dataset(StackGeometry(16, 16, 9, 10, 1.0), 2,
                              LesionSpec("microcalc", 60.0), seed=3)
        manifest = write_dataset(ds, source)
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            "l1,l1.u16", "l0,l1.u16"), encoding="utf-8")
        header = source / "l1.u16.hdr"
        header.write_text(header.read_text(encoding="utf-8").replace(
            "stack_id = l1", "stack_id = l0"), encoding="utf-8")
        config = tmp_path / "manifest.txt"
        config.write_text(f"trial.dataset = {manifest}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["gen-dataset", "--config", str(config),
                     "--out", str(out)]) == 2
        assert f"error: {manifest}: stack id 'l0' names two stacks" \
            in capsys.readouterr().err
        assert not out.exists()


class TestRunTrial:
    def test_in_memory_dataset(self, config_path, tmp_path, capsys):
        assert main(["run-trial", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        rows = read_rows_csv(tmp_path / "trial.csv")
        assert len(rows) == 1
        assert rows[0].axis_value == 25.0  # the default slice rate
        assert 0.5 < rows[0].mean_auc <= 1.0
        assert "mean AUC" in capsys.readouterr().out

    def test_from_manifest_matches_in_memory(self, config_path, dataset_dir,
                                             tmp_path):
        mem_out = tmp_path / "mem"
        assert main(["run-trial", "--config", str(config_path),
                     "--out", str(mem_out)]) == 0
        manifest_config = tmp_path / "manifest.txt"
        manifest_config.write_text(
            SMALL_CONFIG + f"trial.dataset = {dataset_dir / 'manifest.csv'}\n",
            encoding="utf-8")
        disk_out = tmp_path / "disk"
        assert main(["run-trial", "--config", str(manifest_config),
                     "--out", str(disk_out)]) == 0
        mem = read_rows_csv(mem_out / "trial.csv")[0]
        disk = read_rows_csv(disk_out / "trial.csv")[0]
        assert disk.mean_auc == mem.mean_auc
        assert disk.auc_stddev == mem.auc_stddev

    def test_default_trial_matches_the_reference(self, tmp_path):
        # the benchmark's recorded run_trial at the defaults, read only
        reference = json.loads(REFERENCE.read_text(
            encoding="utf-8"))["trial_default"]["12345"]
        (point,) = reference["points"]
        assert main(["run-trial", "--seed", "12345",
                     "--out", str(tmp_path)]) == 0
        (row,) = read_rows_csv(tmp_path / "trial.csv")
        assert row.config_hash == reference["config_hash"]
        assert row.axis_value == point["axis_value"]
        assert abs(row.mean_auc - point["mean_auc"]) <= 1e-9
        assert abs(row.auc_stddev ** 2 - point["variance"]) <= 1e-9

    def test_workers_give_the_same_row(self, config_path, tmp_path):
        sharded = tmp_path / "sharded.txt"
        sharded.write_text(SMALL_CONFIG + "sweep.workers = 2\n",
                           encoding="utf-8")
        rows = []
        for config in (config_path, sharded):
            out = tmp_path / config.stem
            assert main(["run-trial", "--config", str(config),
                         "--out", str(out)]) == 0
            rows.append(read_rows_csv(out / "trial.csv")[0])
        serial, parallel = rows
        assert parallel.mean_auc == serial.mean_auc
        assert parallel.auc_stddev == serial.auc_stddev


class TestSweep:
    def test_csv_svg_and_peak_line(self, sweep_dir, capsys):
        rows = read_rows_csv(sweep_dir / "sweep.csv")
        assert [r.axis_value for r in rows] == [5.0, 25.0]
        svg = (sweep_dir / "sweep.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert "slice_rate" in svg

    def test_axis_and_values_flags(self, config_path, tmp_path):
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path), "--axis", "ssr",
                     "--values", "4,8"]) == 0
        rows = read_rows_csv(tmp_path / "sweep.csv")
        assert [r.axis_value for r in rows] == [4.0, 8.0]

    def test_decreasing_values_rejected(self, config_path, tmp_path,
                                        capsys):
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path), "--values", "25,5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_values_are_named(self, config_path, tmp_path,
                                          capsys):
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path), "--values", "5,x"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --values: expected comma-separated numbers, got '5,x'")
        assert not (tmp_path / "sweep.csv").exists()


class TestCsfTable:
    def test_grid_matches_direct_evaluation(self, tmp_path):
        config = tmp_path / "csf.txt"
        config.write_text("csf.u_values = 0.5, 2, 8\n"
                          "csf.w_values = 0, 8\n", encoding="utf-8")
        assert main(["csf-table", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "csf.csv").read_text().splitlines()
        assert lines[0] == "u,w,sensitivity"
        assert len(lines) == 1 + 3 * 2
        u, w, s = (float(tok) for tok in lines[3].split(","))
        vc = ViewingConditions(luminance=20.0, x0=2.5)
        assert (u, w) == (2.0, 0.0)
        assert s == pytest.approx(float(stcsf(2.0, 0.0, vc)), rel=1e-15)

    def test_spatial_grid_is_stcsf_without_temporal_filters(self, tmp_path):
        config = tmp_path / "csf.txt"
        config.write_text("csf.temporal = false\n"
                          "csf.u_values = 0, 0.5, 2, 8, 60\n"
                          "csf.w_values = 0, 8, 40\n", encoding="utf-8")
        assert main(["csf-table", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "csf.csv").read_text().splitlines()[1:]
        table = np.array([[float(tok) for tok in line.split(",")]
                          for line in lines]).reshape(5, 3, 3)
        vc = ViewingConditions(luminance=20.0, x0=2.5)
        spatial = stcsf(table[:, 0, 0], 0.0, vc, temporal_filters=False)
        for j, w in enumerate((0.0, 8.0, 40.0)):
            assert (table[:, j, 1] == w).all()
            # 17 significant digits read back bit for bit
            assert np.array_equal(table[:, j, 2], spatial)

    def test_table_reads_no_percept_key(self, tmp_path):
        # the table depends on csf.* alone: browsing-point values that no
        # pipeline would accept leave it byte for byte the default one
        assert main(["csf-table", "--out", str(tmp_path / "default")]) == 0
        config = tmp_path / "csf.txt"
        config.write_text("percept.ssr = 0\npercept.slice_rate = nan\n",
                          encoding="utf-8")
        assert main(["csf-table", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "csf.csv").read_bytes() \
            == (tmp_path / "default" / "csf.csv").read_bytes()

    @pytest.mark.parametrize("line, message", [
        ("csf.x0 = 0", "ViewingConditions.x0 must be finite and > 0"),
        ("csf.x0 = 1e-200", "ViewingConditions.x0 = 1e-200 deg is too "
                            "extreme"),
        ("csf.luminance = -1", "ViewingConditions.luminance must be finite "
                               "and > 0")],
        ids=["x0-zero", "x0-tiny", "luminance-negative"])
    def test_bad_viewing_conditions_are_refused(self, tmp_path, capsys, line,
                                                message):
        config = tmp_path / "csf.txt"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["csf-table", "--config", str(config),
                     "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "csf.csv").exists()

    @pytest.mark.parametrize("key", ["csf.u_values", "csf.w_values"])
    def test_non_finite_grid_value_is_named(self, tmp_path, capsys, key):
        config = tmp_path / "csf.txt"
        config.write_text(f"{key} = 1,nan,inf\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["csf-table", "--config", str(config),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {key}: expected finite numbers, got (1.0, nan, inf)")
        assert not out.exists()


class TestPlot:
    def test_plot_with_overlay(self, sweep_dir, tmp_path):
        overlay = tmp_path / "external.csv"
        overlay.write_text("axis,value,tolerance\n5,0.6,0.02\n25,0.8,0.02\n",
                           encoding="utf-8")
        assert main(["plot", str(sweep_dir / "sweep.csv"),
                     "--out", str(tmp_path),
                     "--overlay", str(overlay)]) == 0
        svg = (tmp_path / "plot.svg").read_text(encoding="utf-8")
        assert "external" in svg

    def test_overlay_name_is_escaped(self, sweep_dir, tmp_path):
        overlay = tmp_path / "R&D <2011>.csv"
        overlay.write_text("axis,value,tolerance\n5,0.6,0.02\n25,0.8,0.02\n",
                           encoding="utf-8")
        assert main(["plot", str(sweep_dir / "sweep.csv"),
                     "--out", str(tmp_path),
                     "--overlay", str(overlay)]) == 0
        root = ET.parse(tmp_path / "plot.svg").getroot()
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "R&D <2011>" in labels

    def test_plot_without_overlay(self, sweep_dir, tmp_path):
        assert main(["plot", str(sweep_dir / "sweep.csv"),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "plot.svg").exists()


class TestErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["run-trial", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown key" in err

    def test_repeated_config_key(self, tmp_path, capsys):
        bad = tmp_path / "twice.txt"
        bad.write_text("trial.seed = 1\ntrial.seed = 2\n", encoding="utf-8")
        assert main(["run-trial", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "twice.txt:2: key 'trial.seed' repeats the one on line 1" in err

    @pytest.mark.parametrize("command, line, message", [
        ("gen-dataset", "generator.beta = nan",
         "beta must be nonnegative and finite, got nan"),
        ("run-trial", "display.l_max = inf", "l_max must be finite"),
        ("run-trial", "observer.spread = inf",
         "spread must be finite and positive")])
    def test_non_finite_model_value_is_named(self, config_path, tmp_path,
                                             capsys, command, line, message):
        # line replaces the small config's own value for its key, if any
        key = line.split(" = ")[0]
        kept = [text for text in config_path.read_text(
            encoding="utf-8").splitlines() if not text.startswith(key)]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        assert main([command, "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-trial", "sweep"])
    def test_model_checked_before_the_split(self, tmp_path, capsys, command):
        # one pair fails the split too, so only the order names the display
        bad = tmp_path / "one_pair.txt"
        bad.write_text("generator.n_pairs = 1\ndisplay.l_max = inf\n",
                       encoding="utf-8")
        assert main([command, "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: l_max must be finite")

    def test_negative_trial_seed_is_a_plan_error(self, config_path, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(config_path.read_text(encoding="utf-8")
                       + "trial.seed = -3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run-trial", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: trial seed must be a non-negative integer, got -3\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-trial", "sweep"])
    @pytest.mark.parametrize("line, message", [
        ("trial.n_readers = 1", "need at least two readers"),
        ("trial.seed = -3",
         "trial seed must be a non-negative integer, got -3"),
        # 18 pairs over three subsets leave 6 stacks per class in each
        ("observer.n_channels = 6", "6 stacks per class in a training "
         "subset cannot train 6 channels; need at least 7"),
        # a lesion over 9 slices: the combiner's floor, before generation
        ("generator.lesion_sigma_z = 2", "6 stacks per class in a training "
         "subset cannot train the hotelling combiner over 9 slices; need "
         "at least 10"),
        # a channel bank that overflows on the grid
        ("observer.spread = 1e-300", "spread = 1e-300 gives a channel bank "
         "that is not finite on the 64 x 64 grid")])
    def test_split_checked_before_generating(self, config_path, tmp_path,
                                             capsys, monkeypatch, command,
                                             line, message):
        def generate(*args, **kwargs):
            raise AssertionError("the dataset was generated")

        monkeypatch.setattr(cli, "generate_dataset", generate)
        key = line.split(" = ")[0]
        kept = [text for text in config_path.read_text(
            encoding="utf-8").splitlines() if not text.startswith(key)]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-trial", "sweep"])
    @pytest.mark.parametrize("spread, rank", [(1e308, 1), (0.5, 5)])
    def test_rank_deficient_bank_refused_before_generating(
            self, tmp_path, capsys, monkeypatch, command, spread, rank):
        # the default plan passes the split and training checks, so the
        # bank's rank is what refuses it
        def generate(*args, **kwargs):
            raise AssertionError("the dataset was generated")

        monkeypatch.setattr(cli, "generate_dataset", generate)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"observer.spread = {spread!r}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: spread = {spread!r} gives a channel bank of rank {rank} "
            "on the 64 x 64 grid, not 15: its channels are not "
            "independent\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, first", [("run-trial", 25.0),
                                                ("sweep", 1.0)])
    @pytest.mark.parametrize("ssr", [1e-300, 1e300])
    def test_extreme_ssr_refused_before_generating(
            self, tmp_path, capsys, monkeypatch, command, first, ssr):
        # the apparent size x0 = 64/ssr is out of double precision's
        # reach: the first point is named before the dataset is generated
        def generate(*args, **kwargs):
            raise AssertionError("the dataset was generated")

        monkeypatch.setattr(cli, "generate_dataset", generate)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"percept.ssr = {ssr!r}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: sweep aborted at slice_rate = {first}: "
            f"ViewingConditions.x0 = {64 / ssr!r} deg is too extreme for "
            "double precision\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-dataset", "run-trial", "sweep"])
    def test_overflowing_lesion_amplitude_refused_before_generating(
            self, tmp_path, capsys, monkeypatch, command):
        # every lesion would clip to the top code with no clipping warning
        # and a numpy overflow warning per pair
        def draw(*args, **kwargs):
            raise AssertionError("a background was generated")

        monkeypatch.setattr(stacks, "generate_background", draw)
        bad = tmp_path / "bad.txt"
        bad.write_text("generator.lesion_amplitude = 1e308\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: lesion amplitude 1e+308 overflows its energy on "
            "(64, 64, 32) stacks\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-dataset", "run-trial", "sweep"])
    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ([], "unknown preset 'dataset_c'")])
    def test_bad_generator_input_is_named_and_makes_no_out(
            self, tmp_path, capsys, command, argv, message):
        config = tmp_path / "bad.txt"
        config.write_text("generator.n_pairs = 2\n"
                          + ("" if argv else "generator.preset = dataset_c\n"),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(config),
                     "--out", str(out)] + argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["plot", "missing.csv"], "No such file or directory"),
        (["plot", "header_only.csv"], "header_only.csv: no data rows"),
        (["csf-table", "--config", "x0.txt"],
         "ViewingConditions.x0 must be finite and > 0")])
    def test_refused_plot_or_table_makes_no_out(self, tmp_path, capsys,
                                                monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        Path("header_only.csv").write_text(
            "axis,mean_auc,auc_stddev,n_readers,seed,config_hash\n",
            encoding="utf-8")
        Path("x0.txt").write_text("csf.x0 = -1\n", encoding="utf-8")
        assert main(argv + ["--out", "out"]) == 2
        assert message in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["run-trial"], "ssr and slice_rate must be finite and positive"),
        (["sweep"], "ssr and slice_rate must be finite and positive"),
        (["sweep", "--axis", "contrast_ratio", "--values", "0.5"],
         "sweep aborted at contrast_ratio = 0.5: "),
        (["sweep", "--values", "5,nan"],
         "nan in values (5.0, nan) is not a number"),
        (["sweep", "--values", "nan"], "nan in values (nan,) is not a number"),
        (["sweep", "--values", ""], "values must be non-empty")])
    def test_bad_model_value_generates_nothing(self, config_path, tmp_path,
                                               capsys, monkeypatch, argv,
                                               message):
        calls = []
        monkeypatch.setattr(cli, "generate_dataset",
                            lambda *args, **kwargs: calls.append(args))
        bad = tmp_path / "bad.txt"
        line = "percept.ssr = 0\n" if len(argv) == 1 else ""
        bad.write_text(config_path.read_text(encoding="utf-8") + line,
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(argv + ["--config", str(bad), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_non_finite_overlay_field(self, sweep_dir, tmp_path, capsys):
        overlay = tmp_path / "ext.csv"
        overlay.write_text("axis,value,tolerance\n5,0.7,0.05\n25,nan,0.05\n",
                           encoding="utf-8")
        assert main(["plot", str(sweep_dir / "sweep.csv"), "--overlay",
                     str(overlay), "--out", str(tmp_path)]) == 2
        assert f"error: {overlay}:3: value 'nan' is not finite" \
            in capsys.readouterr().err
        assert not (tmp_path / "plot.svg").exists()

    def test_missing_results_file(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_results_field(self, tmp_path, capsys):
        results = tmp_path / "rows.csv"
        results.write_text("axis,mean_auc,auc_stddev,n_readers,seed,"
                           "config_hash\n1,0.5,0.1,2,9,abc\n5,half,0.1,2,9,"
                           "abc\n", encoding="utf-8")
        assert main(["plot", str(results), "--out", str(tmp_path)]) == 2
        assert "rows.csv:3: could not convert string to float" \
            in capsys.readouterr().err

    def test_non_utf8_results_file_is_named(self, tmp_path, capsys):
        results = tmp_path / "latin1.csv"
        results.write_bytes(b"axis,mean_auc,auc_stddev,n_readers,seed,"
                            b"config_hash\n1,0.5,0.1,2,9,caf\xe9\n")
        assert main(["plot", str(results), "--out", str(tmp_path)]) == 2
        assert f"error: {results}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_out_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["run-trial"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--out", "x"])


# each reader of a text file, with the file it reads: (reader, name,
# argument given the written file's path)
TEXT_READERS = [
    (read_stack, "stack.u16.hdr", lambda p: p.with_suffix("")),
    (read_dataset, "manifest.csv", lambda p: p),
    (load_config, "config.txt", lambda p: p),
    (read_rows_csv, "rows.csv", lambda p: p),
    (read_overlay_csv, "overlay.csv", lambda p: p),
]


@pytest.mark.parametrize("reader, name, argument", TEXT_READERS,
                         ids=[r[0].__name__ for r in TEXT_READERS])
def test_non_utf8_text_raises_format_error_naming_the_file(
        reader, name, argument, tmp_path):
    path = tmp_path / name
    path.write_bytes(b"label = caf\xe9\n")
    with pytest.raises(FormatError) as caught:
        reader(argument(path))
    assert str(caught.value) == (f"{path}: not UTF-8 text: invalid "
                                 f"continuation byte at byte 11")


def test_importing_the_cli_or_the_benchmark_modules_loads_no_scipy():
    # fresh interpreters, since this process may hold scipy already: the
    # CLI, and the five modules perfbench/run.py imports, run on numpy
    root = REFERENCE.parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for modules in ("cinecho.cli", "cinecho, cinecho.config, "
                    "cinecho.harness, cinecho.stacks, cinecho.trial"):
        code = (f"import sys, {modules}; print(sorted(m for m in sys.modules"
                f" if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", modules


@pytest.mark.parametrize("code, value, want", [
    ("import cinecho.cli", None, "1"),
    ("import cinecho.cli", "3", "3"),
    # numpy loaded first: its BLAS has read the environment already
    ("import numpy, cinecho.cli", None, None)])
def test_the_cli_runs_blas_at_one_thread_by_default(code, value, want):
    root = REFERENCE.parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {key: text for key, text in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}; import os; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{want}\n"
