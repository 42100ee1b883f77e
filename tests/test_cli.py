import pytest

from cinecho.cli import main
from cinecho.csf import ViewingConditions, stcsf
from cinecho.harness import read_rows_csv
from cinecho.stacks import read_dataset

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
        vc = ViewingConditions(luminance=20.0, x0=2.5, ssr=7.0,
                               slice_rate=25.0)
        assert (u, w) == (2.0, 0.0)
        assert s == pytest.approx(float(stcsf(2.0, 0.0, vc)), rel=1e-15)


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

    def test_missing_out_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["run-trial"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--out", "x"])
