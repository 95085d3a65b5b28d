import csv
import json
import logging
import random

import numpy as np
import pytest

import csv_oracle
from actsense import data_io
from actsense import (DataFormatError, SyntheticConfig, generate_synthetic,
                      load_csv, read_report, run, save_csv, write_report,
                      EnergyTensor, FoldSplit, ModelConfig)
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


def _same_load(path, **kwargs):
    """load_csv and the record-at-a-time oracle agree on ``path``: the same
    tensor and manifest (checksum included), or the same error."""
    try:
        want = csv_oracle.load_csv(path, **kwargs)
    except (DataFormatError, csv.Error) as exc:
        with pytest.raises(type(exc)) as got:
            load_csv(path, **kwargs)
        assert str(got.value) == str(exc)
        return exc
    tensor, manifest = load_csv(path, **kwargs)
    assert manifest == want[1]
    assert tensor.appliance_names == want[0].appliance_names
    assert tensor.readings.tobytes() == want[0].readings.tobytes()
    assert np.array_equal(tensor.mask, want[0].mask)
    return tensor


def _row(home="h1", appliance="fridge", month="2015-01", kwh="3"):
    return f"{home},{appliance},{month},{kwh}\n"


_GOOD = [_row(h, a, m, str(i + 1)) for i, (h, a, m) in enumerate(
    (h, a, m) for h in ("h1", "h2") for a in ("fridge", "hvac") for m in ("2015-01", "2015-02"))]

# name -> records after the header; each one must raise the oracle's error
MALFORMED = {
    "month_then_negative": [_row(month="2015-13"), _row(kwh="-1")],
    "negative_then_month": [_row(kwh="-1"), _row(month="2015-13")],
    "blank_lines_before": ["\n", "\n", *_GOOD[:3], "\n", _row(kwh="x")],
    "blank_lines_before_duplicate": ["\n", *_GOOD[:2], "\n", "\n", *_GOOD[2:4],
                                     _row(kwh="9")],
    "unparsable_kwh": [*_GOOD[:5], _row("h3", kwh="1,5")],
    "kwh_text": [*_GOOD[:2], _row("h3", kwh="lots")],
    "nan": [*_GOOD[:4], _row("h3", kwh="nan")],
    "spaced_inf": [*_GOOD[:4], _row("h3", kwh=" inf")],
    "negative_zero_then_negative": [_row(kwh="-0.0"), _row("h2", kwh="-1e-300")],
    "reserved": [*_GOOD[:6], _row("h3", appliance=" aggregate ")],
    "three_fields": [*_GOOD[:3], "h3,fridge,2015-01\n"],
    "five_fields": [*_GOOD[:3], "h3,fridge,2015-01,3,4\n"],
    "bad_month_form": [*_GOOD[:3], _row("h3", month="2015-1")],
    "duplicate_by_whitespace": [*_GOOD[:3], _row("h1 ", kwh="9")],
    "duplicate_quoted_commas": ['"h,1",fridge,2015-01,3\n', *_GOOD[:5],
                                '" h,1","fridge",2015-01,4\n'],
    "duplicate_before_bad": [*_GOOD[:3], _row(kwh="5"), *_GOOD[3:], _row("h3", kwh="-2")],
    "bad_before_duplicate": [*_GOOD[:3], _row("h3", kwh="-2"), _row(kwh="5")],
    "duplicate_far_back": [*_GOOD, _row("h3"), _row("h3", month="2015-02"),
                           _row("h2", "hvac", "2015-02")],
    "quoted_newline_then_bad": ['"h\n1",fridge,2015-01,3\n', *_GOOD[:4],
                                _row("h3", month="15-01")],
    "bad_then_unreadable": [*_GOOD[:3], _row("h3", kwh="-2"), "x" * 200_000 + "\n"],
    "unreadable": [*_GOOD[:3], "x" * 200_000 + "\n"],
    "duplicate_then_unreadable": [*_GOOD[:3], _row(kwh="5"), "x" * 200_000 + "\n"],
}


class TestStreamedLoaderMatchesOracle:
    """Every malformed file raises the record-at-a-time oracle's error, at
    the default chunk size and at small ones that put records at every
    position relative to a chunk boundary."""

    @pytest.mark.parametrize("chunk", [data_io.CHUNK_RECORDS, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_file_raises_the_oracles_error(self, tmp_path, monkeypatch,
                                                    name, chunk):
        monkeypatch.setattr(data_io, "CHUNK_RECORDS", chunk)
        path = _write(tmp_path, HEADER + "".join(MALFORMED[name]))
        assert isinstance(_same_load(path), (DataFormatError, csv.Error))

    @pytest.mark.parametrize("chunk", [data_io.CHUNK_RECORDS, 1, 3])
    def test_every_single_fault_position(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data_io, "CHUNK_RECORDS", chunk)
        for position in range(len(_GOOD) + 1):
            for bad in (_row("h9", kwh="-3"), _row(kwh="7"), "\n"):
                rows = [*_GOOD[:position], bad, *_GOOD[position:]]
                _same_load(_write(tmp_path, HEADER + "".join(rows)))

    @pytest.mark.parametrize("chunk", [data_io.CHUNK_RECORDS, 2])
    def test_good_files_give_the_oracles_tensor(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data_io, "CHUNK_RECORDS", chunk)
        files = {
            "plain": _GOOD,
            "blank_lines_and_spaces": ["\n", *(" " + r.replace(",", " , ") for r in _GOOD),
                                       "\n"],
            "quoted_labels": [r.replace("h1", '"h,1"').replace("hvac", '"hv""ac"')
                              for r in _GOOD],
            "negative_zero_and_underscores": [_row(kwh="-0.0"), _row("h2", kwh="1_000"),
                                              _row("h3", kwh="1e-310")],
            "unsorted_labels": list(reversed(_GOOD)),
        }
        for name, rows in files.items():
            for coverage in (0.0, 0.8):
                _same_load(_write(tmp_path, HEADER + "".join(rows), f"{name}.csv"),
                           min_coverage=coverage)
        crlf = HEADER.replace("\n", "\r\n") + "".join(_GOOD).replace("\n", "\r\n")
        _same_load(_write(tmp_path, crlf, "crlf.csv"))
        sparse = [_row(f"h{i}", f"app{i % 3}", "2015-01") for i in range(10)]
        _same_load(_write(tmp_path, HEADER + "".join(sparse), "sparse.csv"),
                   min_coverage=0.3)

    @pytest.mark.parametrize("chunk", [data_io.CHUNK_RECORDS, 2])
    def test_good_files_never_take_the_slow_path(self, tmp_path, monkeypatch, chunk):
        # a clean file is read once, a chunk at a time
        def slow_path(path):
            raise AssertionError(f"{path}: a clean file was read again")
        monkeypatch.setattr(data_io, "_raise_first_fault", slow_path)
        self.test_good_files_give_the_oracles_tensor(tmp_path, monkeypatch, chunk)


class TestCalendar:
    def test_skipped_month_is_named(self, tmp_path):
        path = _write(tmp_path, HEADER + _row(month="2015-01") + _row(month="2015-03"))
        # the record-at-a-time reader closed the gap
        assert csv_oracle.load_csv(path)[1].month_range == ("2015-01", "2015-03")
        with pytest.raises(DataFormatError,
                           match=r"no rows for month 2015-02; months must be consecutive"):
            load_csv(path)

    def test_first_of_several_gaps_is_named(self, tmp_path):
        rows = [_row(month=m) for m in ("2015-11", "2016-02", "2016-05")]
        with pytest.raises(DataFormatError, match="no rows for month 2015-12"):
            load_csv(_write(tmp_path, HEADER + "".join(rows)))

    @pytest.mark.parametrize("months, lineno", [
        (("\u0662\u0660\u0661\u0665-01", "\u0662\u0660\u0661\u0665-02"), 2),
        (("2015-01", "\u0662\u0660\u0661\u0665-01"), 3),
    ], ids=["other-digits-only", "repeats-2015-01"])
    def test_year_in_other_digits_is_rejected_at_its_record(self, tmp_path, months,
                                                            lineno):
        # an Arabic-Indic 2015: a month's year is four ASCII digits
        rows = [_row(month=m) for m in months]
        exc = _same_load(_write(tmp_path, HEADER + "".join(rows)))
        assert str(exc).endswith(f":{lineno}: month {months[lineno - 2]!r} is not YYYY-MM")

    def test_months_across_a_year_end_are_consecutive(self, tmp_path):
        rows = [_row(month=m) for m in ("2016-01", "2015-12", "2016-02")]
        tensor, manifest = load_csv(_write(tmp_path, HEADER + "".join(rows)))
        assert manifest.month_range == ("2015-12", "2016-02")
        assert tensor.readings.shape == (1, 2, 3)


def test_home_month_without_rows_is_billed_zero_and_logged(tmp_path, caplog):
    rows = [_row(h, a, m) for h in ("h1", "h2") for a in ("fridge", "hvac")
            for m in ("2015-01", "2015-02", "2015-03") if (h, m) != ("h2", "2015-03")]
    with caplog.at_level(logging.INFO, logger="actsense.data_io"):
        tensor, _ = load_csv(_write(tmp_path, HEADER + "".join(rows)), min_coverage=0.0)
    assert tensor.readings[1, 0, 2] == 0.0 and tensor.mask[1, 0, 2]
    assert [r.getMessage() for r in caplog.records] == [
        "1 home-months have no reading of a kept appliance; "
        "their aggregate bill reads 0 kWh"]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="actsense.data_io"):
        load_csv(_write(tmp_path, HEADER + "".join(_GOOD), "full.csv"))
    assert caplog.records == []


class TestSaveCsvMatchesOracle:
    def _both(self, tmp_path, tensor, **kwargs):
        data_io.save_csv(tensor, tmp_path / "new.csv", **kwargs)
        csv_oracle.save_csv(tensor, tmp_path / "old.csv", **kwargs)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        return tmp_path / "new.csv"

    def test_thousand_home_world_round_trip(self, tmp_path):
        world, _ = generate_synthetic(SyntheticConfig(
            num_homes=1000, num_appliances=6, num_months=12, true_rank=2,
            noise_sigma=0.05, seed=1))
        path = self._both(tmp_path, world)
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(1).shuffle(rows)
        path.write_text(header + "".join(rows), encoding="utf-8")
        tensor = _same_load(path)
        assert tensor.readings.tobytes() == world.readings.tobytes()

    @pytest.mark.parametrize("chunk", [data_io.CHUNK_RECORDS, 5])
    def test_labels_that_need_quoting(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data_io, "CHUNK_RECORDS", chunk)
        rng = np.random.default_rng(3)
        breakdown = rng.uniform(0.0, 9.0, size=(3, 3, 2))
        readings = np.concatenate([breakdown.sum(axis=1, keepdims=True), breakdown], axis=1)
        mask = rng.random(readings.shape) < 0.7
        mask[:, 0, :] = True
        tensor = EnergyTensor(readings=readings, mask=mask,
                              appliance_names=("aggregate", "a,b", 'say "hi"', "two\nlines"),
                              aggregate_index=0)
        path = self._both(tmp_path, tensor, home_ids=["x,1", 'q"2', "n\r\n3"],
                          months=["2015-01", "2015-02"])
        _same_load(path, min_coverage=0.0)

    def test_given_home_ids_and_months(self, tmp_path, tiny_tensor):
        kwargs = {"home_ids": ["south", "north"], "months": ["2019-11", "2019-12", "2020-01"]}
        path = self._both(tmp_path, tiny_tensor, **kwargs)
        tensor = _same_load(path)
        assert tensor.readings.tobytes() == tiny_tensor.readings[[1, 0]].tobytes()

    def test_aggregate_not_first(self, tmp_path, tiny_tensor):
        order = [1, 0, 2]
        tensor = EnergyTensor(readings=tiny_tensor.readings[:, order],
                              mask=tiny_tensor.mask[:, order],
                              appliance_names=("fridge", "aggregate", "hvac"),
                              aggregate_index=1)
        self._both(tmp_path, tensor)


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


    @pytest.mark.parametrize("payload", [[1, 2], "report", None, {"config": []}],
                             ids=["list", "string", "null", "config-list"])
    def test_payload_or_config_not_an_object(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match="must be JSON objects") as exc:
            read_report(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("change", [
        {"config": {}}, {"config": {"strategy": 3}}, {"mean_rmse": "abc"},
        {"mean_rmse": [1.0, "2"]}, {"mean_rmse": [True]}, {"year_rmse": None},
        {"year_rmse": False},
    ], ids=["no-strategy", "strategy-number", "mean-text", "mean-item-text",
            "mean-item-bool", "year-null", "year-bool"])
    def test_strategy_and_rmse_types_are_checked(self, tmp_path, change):
        payload = {"config": {"strategy": "random"}, "selections": [], "rmse": {},
                   "mean_rmse": [1.0, 2], "year_rmse": 1.5, "omega_sizes": [], **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match="must be") as exc:
            read_report(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_nan_rmse_still_reads(self, small_report, tmp_path):
        tensor, split, mc = small_report
        rep = run(tensor, split, "random", L=1, T=2, model_config=mc, seed=1)
        rep.mean_rmse[0] = rep.year_rmse = float("nan")
        path = tmp_path / "report.json"
        write_report(rep, path)
        loaded = read_report(path)
        assert np.isnan(loaded.mean_rmse[0]) and np.isnan(loaded.year_rmse)
        assert loaded.mean_rmse[1:] == rep.mean_rmse[1:]


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
