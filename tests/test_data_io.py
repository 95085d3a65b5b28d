import json

import numpy as np
import pytest

from actsense import (DataFormatError, SyntheticConfig, generate_synthetic,
                      load_csv, read_report, run, save_csv, write_report,
                      FoldSplit, ModelConfig)
from actsense.data_io import build_manifest, month_labels, tensor_checksum


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "home_id,appliance,month,kwh\n"


class TestLoadCsv:
    def test_aggregate_is_sum_of_appliances(self, tmp_path):
        path = _write(tmp_path, HEADER +
                      "h1,fridge,2015-01,3\n"
                      "h1,hvac,2015-01,4\n")
        tensor, manifest = load_csv(path)
        assert tensor.readings.shape == (1, 3, 1)
        assert tensor.appliance_names == ("aggregate", "fridge", "hvac")
        assert tensor.readings[0, 0, 0] == pytest.approx(7.0, abs=1e-6)
        assert manifest.home_count == 1
        assert manifest.month_range == ("2015-01", "2015-01")

    def test_empty_after_header(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(_write(tmp_path, HEADER))

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(_write(tmp_path, "a,b,c\n1,2,3\n"))

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path, HEADER + "h1,fridge,2015-01\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_csv(path)

    def test_duplicate_cell(self, tmp_path):
        path = _write(tmp_path, HEADER +
                      "h1,fridge,2015-01,3\n"
                      "h1,fridge,2015-01,4\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_csv(path)

    def test_negative_kwh(self, tmp_path):
        path = _write(tmp_path, HEADER + "h1,fridge,2015-01,-2\n")
        with pytest.raises(DataFormatError, match="negative"):
            load_csv(path)

    def test_bad_month(self, tmp_path):
        path = _write(tmp_path, HEADER + "h1,fridge,2015-13,2\n")
        with pytest.raises(DataFormatError, match="YYYY-MM"):
            load_csv(path)

    def test_reserved_label(self, tmp_path):
        path = _write(tmp_path, HEADER + "h1,aggregate,2015-01,2\n")
        with pytest.raises(DataFormatError, match="reserved"):
            load_csv(path)

    def test_missing_cells_are_never_observable(self, tmp_path):
        path = _write(tmp_path, HEADER +
                      "h1,fridge,2015-01,3\n"
                      "h1,hvac,2015-01,4\n"
                      "h1,fridge,2015-02,5\n"
                      "h2,fridge,2015-01,6\n"
                      "h2,fridge,2015-02,7\n"
                      "h2,hvac,2015-02,8\n")
        tensor, _ = load_csv(path, min_coverage=0.0)
        # hvac missing for h1/2015-02 and h2/2015-01
        assert not tensor.mask[0, 2, 1]
        assert not tensor.mask[1, 2, 0]
        assert tensor.readings[0, 2, 1] == 0.0
        # aggregate still marked observed everywhere
        assert tensor.mask[:, 0, :].all()

    def test_low_coverage_appliance_dropped(self, tmp_path):
        rows = [f"h{i},fridge,2015-0{m},1\n" for i in range(1, 4) for m in (1, 2)]
        rows.append("h1,hvac,2015-01,9\n")  # 1/6 coverage
        tensor, _ = load_csv(_write(tmp_path, HEADER + "".join(rows)),
                             min_coverage=0.8)
        assert tensor.appliance_names == ("aggregate", "fridge")

    @pytest.mark.parametrize("coverage", [1.5, -0.1, float("nan")])
    def test_coverage_outside_unit_interval_rejected_before_reading(self, tmp_path,
                                                                   coverage):
        # the file does not exist: opening it would raise OSError instead
        with pytest.raises(ValueError, match=r"min_coverage must lie in \[0, 1\]"):
            load_csv(tmp_path / "missing.csv", min_coverage=coverage)

    def test_crlf_accepted(self, tmp_path):
        text = HEADER.replace("\n", "\r\n") + "h1,fridge,2015-01,3\r\n"
        tensor, _ = load_csv(_write(tmp_path, text))
        assert tensor.readings[0, 1, 0] == 3.0


class TestCsvRoundTrip:
    def test_cell_exact(self, tmp_path):
        cfg = SyntheticConfig(num_homes=5, num_appliances=3, num_months=4,
                              true_rank=2, noise_sigma=0.07, seed=2)
        tensor, _ = generate_synthetic(cfg)
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        save_csv(tensor, p1)
        loaded1, m1 = load_csv(p1)
        save_csv(loaded1, p2)
        loaded2, m2 = load_csv(p2)
        np.testing.assert_array_equal(loaded1.readings, loaded2.readings)
        np.testing.assert_array_equal(loaded1.mask, loaded2.mask)
        assert m1.checksum == m2.checksum

    def test_breakdown_cells_survive_exactly(self, tmp_path):
        cfg = SyntheticConfig(num_homes=4, num_appliances=2, num_months=3,
                              true_rank=1, noise_sigma=0.02, seed=3)
        tensor, _ = generate_synthetic(cfg)
        path = tmp_path / "d.csv"
        save_csv(tensor, path)
        loaded, _ = load_csv(path)
        np.testing.assert_array_equal(loaded.readings[:, 1:, :],
                                      tensor.readings[:, 1:, :])


class TestGenerateSynthetic:
    def test_noiseless_matches_factor_reconstruction(self):
        cfg = SyntheticConfig(num_homes=6, num_appliances=3, num_months=12,
                              true_rank=2, noise_sigma=0.0, seed=4)
        tensor, truth = generate_synthetic(cfg)
        np.testing.assert_array_equal(tensor.readings, truth.reconstruct())

    def test_flat_season_gives_identical_months(self):
        cfg = SyntheticConfig(num_homes=4, num_appliances=2, num_months=5,
                              true_rank=2, noise_sigma=0.0, seed=5,
                              season_shape="flat")
        tensor, _ = generate_synthetic(cfg)
        for k in range(1, 5):
            np.testing.assert_allclose(tensor.readings[:, :, k],
                                       tensor.readings[:, :, 0], rtol=1e-12)

    def test_deterministic_checksum(self):
        cfg = SyntheticConfig(num_homes=4, num_appliances=2, num_months=5,
                              true_rank=2, noise_sigma=0.1, seed=6)
        t1, _ = generate_synthetic(cfg)
        t2, _ = generate_synthetic(cfg)
        assert tensor_checksum(t1) == tensor_checksum(t2)

    def test_aggregate_consistency_with_noise(self):
        cfg = SyntheticConfig(num_homes=5, num_appliances=4, num_months=6,
                              true_rank=3, noise_sigma=0.2, seed=7)
        tensor, _ = generate_synthetic(cfg)
        np.testing.assert_allclose(tensor.readings[:, 0, :],
                                   tensor.readings[:, 1:, :].sum(axis=1),
                                   atol=1e-6)
        assert (tensor.readings >= 0).all()

    def test_mean_scale(self):
        cfg = SyntheticConfig(num_homes=10, num_appliances=4, num_months=12,
                              true_rank=2, noise_sigma=0.0, seed=8)
        tensor, _ = generate_synthetic(cfg)
        assert tensor.readings[:, 1:, :].mean() == pytest.approx(100.0, rel=1e-6)

    def test_season_from_file(self, tmp_path):
        S = np.abs(np.random.default_rng(0).normal(size=(4, 2))) + 0.1
        path = tmp_path / "season.csv"
        np.savetxt(path, S, delimiter=",")
        cfg = SyntheticConfig(num_homes=3, num_appliances=2, num_months=4,
                              true_rank=2, noise_sigma=0.0, seed=9,
                              season_shape="from_file", season_file=str(path))
        tensor, truth = generate_synthetic(cfg)
        # file seasons enter up to the global scale calibration
        ratio = truth.S / S
        assert np.allclose(ratio, ratio[0, 0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_homes=0, num_appliances=1, num_months=1, true_rank=1)
        with pytest.raises(ValueError):
            SyntheticConfig(num_homes=1, num_appliances=1, num_months=1,
                            true_rank=1, season_shape="from_file")


@pytest.fixture
def small_report():
    cfg = SyntheticConfig(num_homes=6, num_appliances=2, num_months=3,
                          true_rank=1, noise_sigma=0.05, seed=11)
    tensor, _ = generate_synthetic(cfg)
    split = FoldSplit(train_homes=(0, 1, 2, 3), validation_homes=(),
                      test_homes=(4, 5))
    mc = ModelConfig(rank=1, lambda1=50.0, lambda2=50.0, lambda3=50.0,
                     max_sweeps=20)
    return tensor, split, mc


class TestReportRoundTrip:
    def test_lossless(self, small_report, tmp_path):
        tensor, split, mc = small_report
        rep = run(tensor, split, "actsense", L=1, T=3, model_config=mc, seed=1)
        path = tmp_path / "report.json"
        write_report(rep, path)
        assert read_report(path) == rep

    def test_empty_selection_run(self, small_report, tmp_path):
        tensor, split, mc = small_report
        rep = run(tensor, split, "random", L=0, T=2, model_config=mc, seed=1)
        path = tmp_path / "report.json"
        write_report(rep, path)
        loaded = read_report(path)
        assert all(s["pairs"] == [] for s in loaded.selections)

    def test_seed_changes_content(self, small_report, tmp_path):
        tensor, split, mc = small_report
        r1 = run(tensor, split, "random", L=1, T=3, model_config=mc, seed=1)
        r2 = run(tensor, split, "random", L=1, T=3, model_config=mc, seed=2)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(r1, p1)
        write_report(r2, p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_report(path)


class TestManifest:
    def test_checksum_stable_across_reload(self, tmp_path):
        cfg = SyntheticConfig(num_homes=4, num_appliances=2, num_months=3,
                              true_rank=1, noise_sigma=0.0, seed=12)
        tensor, _ = generate_synthetic(cfg)
        path = tmp_path / "d.csv"
        save_csv(tensor, path)
        _, m1 = load_csv(path)
        _, m2 = load_csv(path)
        assert m1.checksum == m2.checksum

    def test_month_labels_roll_over_years(self):
        labels = month_labels(14, start="2015-11")
        assert labels[0] == "2015-11"
        assert labels[2] == "2016-01"
        assert labels[-1] == "2016-12"
        with pytest.raises(ValueError):
            month_labels(3, start="2015-13")

    def test_build_manifest(self, tiny_tensor):
        m = build_manifest(tiny_tensor, "synthetic")
        assert m.source == "synthetic"
        assert m.home_count == 2
        assert m.month_range == ("2015-01", "2015-03")
        assert m.checksum == tensor_checksum(tiny_tensor)
