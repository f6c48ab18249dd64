import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpfuse.datamodel import (Bounds, ParseError, Position, RadioMap,
                              SchemaError, SplitSpec, SynthSpec,
                              load_radio_map, save_radio_map,
                              stratified_split, synth_radio_map)
from fpfuse.evaluate import _fold_assignment

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (reference_fold_assignment, reference_radio_map_csv,  # noqa: E402
                     reference_stratified_split, reference_synth_radio_map)

FLOOR = Bounds(0.0, 0.0, 4.0, 4.0)


def write_csv(path, text):
    path.write_text(text)
    return path


def radio_map(rss, kinds=("wifi", "ble"), xy=None, rp=None, bounds=FLOOR):
    """A map of len(rss) fingerprints at (1, 1) on RP 0 unless given."""
    n = len(rss)
    return RadioMap(rss, [(1.0, 1.0)] * n if xy is None else xy,
                    [0] * n if rp is None else rp, kinds, bounds, {})


class TestTypes:
    def test_fingerprint_validation(self):
        rmap = radio_map([[-50.0, -60.0, -70.0]], ("wifi", "wifi", "ble"))
        assert rmap.d == 3 and rmap.n_samples == 1
        with pytest.raises(ValueError, match="row 1, channel 1"):
            radio_map([[-50.0, -60.0], [-50.0, np.nan]])
        with pytest.raises(ValueError, match="row 0, channel 1"):
            radio_map([[-50.0, 10.0], [-50.0, -60.0]])  # above 0 dBm
        with pytest.raises(ValueError, match=r"rss \(1, 1\), 2 kinds"):
            radio_map([[-50.0]], ("wifi", "ble"))  # one channel, two kinds
        with pytest.raises(ValueError, match="channel 1: kind 'lte'"):
            radio_map([[-50.0, -60.0]], ("wifi", "lte"))

    def test_fingerprint_immutable(self):
        rss = np.array([[-50.0, -60.0]])
        rmap = radio_map(rss)
        rss[0, 0] = -10.0  # the map holds its own copy
        assert rmap.rss[0, 0] == -50.0
        for column in (rmap.rss, rmap.xy, rmap.rp):
            with pytest.raises(ValueError):
                column[0] = 0
        copy = rmap.rss_matrix()  # accessors hand out writable copies
        copy[0, 0] = 0.0
        assert rmap.rss[0, 0] == -50.0

    @pytest.mark.parametrize("rss,kinds,xy,rp,match", [
        ([[-50.0, -np.inf]], None, None, None, "row 0, channel 1: rss -inf"),
        ([[-120.0 - 1e-6, -60.0]], None, None, None,
         "row 0, channel 0: rss .* outside plausible dBm range"),
        ([[-50.0, -60.0]] * 2, None, [(1, 1), (1, np.nan)], None,
         "row 1, position y nan is not finite"),
        ([[-50.0, -60.0]] * 2, None, [(1, 1), (4.5, 1)], None,
         r"row 1, position \(4.5, 1.0\) outside bounds"),
        ([[-50.0, -60.0]] * 2, None, [(1, 1)], None, r"xy \(1, 2\)"),
        ([[-50.0, -60.0]] * 2, None, None, [0], r"rp \(1,\)"),
        ([[-50.0, -60.0]], None, None, [0.5], "rp ids must be integers"),
        (np.empty((0, 2)), None, [], [], "N >= 1"),
        ([[-50.0, -60.0]], (), None, None, "0 kinds"),
        ([-50.0, -60.0], None, None, None, r"rss \(2,\)"),
    ])
    def test_map_rejects(self, rss, kinds, xy, rp, match):
        with pytest.raises(ValueError, match=match):
            radio_map(rss, ("wifi", "ble") if kinds is None else kinds, xy, rp)

    def test_tolerances_match_bounds_contains(self):
        # DBM_TOL and the 1e-9 of Bounds.contains still admit a value
        rmap = radio_map([[1e-10, -120.0 - 1e-10]], xy=[(4.0 + 1e-10, -1e-10)])
        assert FLOOR.contains(*rmap.xy[0]) and rmap.rss.max() > 0.0

    def test_bounds_reject_zero_area(self):
        with pytest.raises(ValueError):
            Bounds(0, 0, 0, 5)

    def test_position_finite(self):
        with pytest.raises(ValueError):
            Position(math.inf, 0.0)

    @pytest.mark.parametrize("field", ["path_loss_exp", "tx_power_dbm",
                                       "shadowing_std_dbm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_synth_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^SynthSpec.{field} must be "
                                             "finite"):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_rp", 2.5), ("n_rp", 0), ("samples_per_rp", True), ("n_wifi", 0),
        ("n_ble", 1.5), ("seed", -1), ("seed", 1.5), ("seed", True)])
    def test_synth_spec_rejects_bad_count_or_seed(self, field, value):
        # a bool is not a count or a seed
        with pytest.raises(ValueError, match=f"^SynthSpec.{field} must be an "
                                             "integer"):
            SynthSpec(**{field: value})

    def test_split_spec_ratios(self):
        with pytest.raises(ValueError):
            SplitSpec((1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.3, 0.3))


class TestCsvRoundTrip:
    HEADER = "rp_id,x,y,wifi_1,wifi_2,ble_1"

    def test_load_basic(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", self.HEADER + "\n"
                      "0,0.0,0.0,-50,-60,-70\n"
                      "0,0.0,0.0,-51,-61,-71\n"
                      "1,1.0,2.0,-55,-65,-75\n")
        rmap = load_radio_map(p)
        assert rmap.d == 3
        assert rmap.n_samples == 3
        assert rmap.meta["n_wifi"] == 2 and rmap.meta["n_ble"] == 1
        assert rmap.meta["imputed_count"] == 0

    def test_missing_cell_imputed(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", self.HEADER + "\n"
                      "0,0,0,-50,,-70\n0,0,0,-50,-60,-70\n")
        rmap = load_radio_map(p)
        assert rmap.rss_matrix()[0, 1] == -100.0
        assert rmap.meta["imputed_count"] == 1

    def test_wrong_column_count_names_line(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", self.HEADER + "\n"
                      "0,0,0,-50,-60,-70\n0,0,0,-50,-60,-70,-80\n")
        with pytest.raises(SchemaError, match="line 3"):
            load_radio_map(p)

    def test_bad_cell_names_line(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", self.HEADER + "\n0,0,0,-50,oops,-70\n")
        with pytest.raises(ParseError, match="line 2"):
            load_radio_map(p)

    @pytest.mark.parametrize("row,match", [
        ("0,0,0,-50,nan,-70", "line 4: channel 1: rss nan is not finite"),
        ("0,0,0,-50,-60,12.5", "line 4: channel 2: rss 12.5 outside"),
        ("0,0,inf,-50,-60,-70", "line 4: position y inf is not finite"),
        ("x,0,0,-50,-60,-70", "line 4: invalid literal"),
        ("99999999999999999999,0,0,-50,-60,-70", "line 4: rp_id .* int64"),
    ])
    def test_invalid_value_names_line(self, tmp_path, row, match):
        # line 3 is blank and skipped; the bad row is the file's fourth line
        p = write_csv(tmp_path / "m.csv", self.HEADER + "\n0,0,0,-50,-60,-70"
                      "\n\n" + row + "\n")
        with pytest.raises(ParseError, match=match):
            load_radio_map(p)

    def test_header_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", "rp,x,y,w1\n0,0,0,-50\n")
        with pytest.raises(SchemaError):
            load_radio_map(p)

    def test_round_trip_exact(self, tmp_path):
        rmap = synth_radio_map(SynthSpec(n_rp=4, samples_per_rp=3, seed=5))
        out = tmp_path / "round.csv"
        save_radio_map(rmap, out)
        back = load_radio_map(out, name=rmap.meta["name"])
        assert np.allclose(back.rss_matrix(), rmap.rss_matrix(), atol=1e-6)
        assert np.array_equal(back.rp_ids(), rmap.rp_ids())
        assert np.allclose(back.xy_matrix(), rmap.xy_matrix(), atol=0)

    @pytest.mark.parametrize("spec", [
        SynthSpec(n_rp=4, samples_per_rp=3, seed=5),
        SynthSpec(n_rp=3, samples_per_rp=2, n_wifi=1, n_ble=2,
                  shadowing_std_dbm=80.0, seed=8),  # clipped to -120 and 0
    ])
    def test_save_writes_the_reference_bytes(self, tmp_path, spec):
        rmap = synth_radio_map(spec)
        out = tmp_path / "m.csv"
        save_radio_map(rmap, out)
        text = out.read_bytes().decode()
        assert text == reference_radio_map_csv(
            rmap.rss, rmap.xy, rmap.rp, spec.n_wifi, spec.n_ble)
        assert "np." not in text
        back = load_radio_map(out)
        for col in ("rss", "xy", "rp"):
            assert getattr(back, col).tobytes() == getattr(rmap, col).tobytes()


class TestSynth:
    def test_propagation_hand_values(self):
        from fpfuse.datamodel import log_distance_rss
        # co-located (1 m) emitter: log10(1) = 0, RSS equals tx power
        assert log_distance_rss(1.0, -30.0, 2.0) == -30.0
        # 10 m at exponent 2: 10 * 2 * log10(10) = 20 dB of path loss
        assert log_distance_rss(10.0, -30.0, 2.0) == -50.0
        assert np.isfinite(log_distance_rss(0.0, -30.0, 2.0))

    def test_monotone_in_distance_at_zero_shadowing(self):
        spec = SynthSpec(n_rp=6, samples_per_rp=1, n_wifi=3, n_ble=1,
                         shadowing_std_dbm=0.0, seed=3, path_loss_exp=2.0)
        rmap = synth_radio_map(spec)
        rss = rmap.rss_matrix()
        xy = rmap.xy_matrix()
        anchors = np.array(rmap.meta["anchors"])
        for ch in range(rmap.d):
            dist = np.hypot(anchors[ch, 0] - xy[:, 0], anchors[ch, 1] - xy[:, 1])
            order = np.argsort(dist)
            # stronger RSS strictly closer to the emitting anchor
            assert np.all(np.diff(rss[order, ch]) < 0)

    def test_determinism(self):
        a = synth_radio_map(SynthSpec(seed=11, n_rp=3, samples_per_rp=4))
        b = synth_radio_map(SynthSpec(seed=11, n_rp=3, samples_per_rp=4))
        assert np.array_equal(a.rss_matrix(), b.rss_matrix())
        assert np.array_equal(a.xy_matrix(), b.xy_matrix())

    def test_values_clamped(self):
        rmap = synth_radio_map(SynthSpec(n_rp=3, samples_per_rp=5,
                                         shadowing_std_dbm=40.0, seed=2))
        rss = rmap.rss_matrix()
        assert rss.min() >= -120.0 and rss.max() <= 0.0


class TestSplit:
    def test_80_per_rp_at_70_15_15(self):
        rmap = synth_radio_map(SynthSpec(n_rp=3, samples_per_rp=80, seed=1))
        train, val, test = stratified_split(rmap, SplitSpec(seed=4))
        # floor(80 * 0.15) = 12 to val and test, remainder 56 to train
        for part, expect in ((train, 56), (val, 12), (test, 12)):
            counts = np.bincount(part.rp_ids(), minlength=3)
            assert np.all(counts == expect)

    def test_partition_property(self):
        rmap = synth_radio_map(SynthSpec(n_rp=4, samples_per_rp=11, seed=0))
        train, val, test = stratified_split(rmap, SplitSpec(seed=9))
        def keys(m):
            return [(rp, tuple(rss)) for rp, rss in zip(m.rp.tolist(),
                                                        m.rss.tolist())]
        merged = sorted(k for part in (train, val, test) for k in keys(part))
        assert merged == sorted(keys(rmap))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_partition_for_all_seeds(self, seed):
        rmap = synth_radio_map(SynthSpec(n_rp=2, samples_per_rp=9, seed=1))
        train, val, test = stratified_split(rmap, SplitSpec(seed=seed))
        total = train.n_samples + val.n_samples + test.n_samples
        assert total == rmap.n_samples
        assert val.n_samples >= 2 and test.n_samples >= 2

    def test_too_small_rp_named(self):
        rmap = synth_radio_map(SynthSpec(n_rp=2, samples_per_rp=2, seed=0))
        with pytest.raises(ValueError, match="RP 0"):
            stratified_split(rmap, SplitSpec(seed=0))

    def test_determinism(self):
        rmap = synth_radio_map(SynthSpec(n_rp=3, samples_per_rp=10, seed=0))
        a = stratified_split(rmap, SplitSpec(seed=3))
        b = stratified_split(rmap, SplitSpec(seed=3))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.rss_matrix(), pb.rss_matrix())

    def test_stratification_within_one_sample(self):
        rmap = synth_radio_map(SynthSpec(n_rp=3, samples_per_rp=23, seed=0))
        train, val, test = stratified_split(rmap, SplitSpec(seed=1))
        for part, ratio in ((val, 0.15), (test, 0.15)):
            for rp, count in zip(*np.unique(part.rp_ids(), return_counts=True)):
                assert abs(count - ratio * 23) < 1.0


class TestMatchesPerSampleReference:
    """Synthesis, split and fold assignment equal the per-sample loops of
    tests/oracles.py bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n_rp=st.integers(1, 12), per=st.integers(1, 25),
           n_wifi=st.integers(1, 6), n_ble=st.integers(1, 4),
           shadowing=st.sampled_from([0.0, 1.0, 3.7, 60.0]),
           seed=st.integers(0, 2**32 - 1), split_seed=st.integers(0, 2**32 - 1),
           folds=st.integers(2, 5))
    @example(n_rp=15, per=80, n_wifi=7, n_ble=3, shadowing=1.0, seed=0,
             split_seed=0, folds=5)  # the default survey
    @example(n_rp=5, per=9, n_wifi=2, n_ble=1, shadowing=200.0, seed=1,
             split_seed=2, folds=3)  # clipped at both ends
    def test_synth_split_and_folds(self, n_rp, per, n_wifi, n_ble, shadowing,
                                   seed, split_seed, folds):
        spec = SynthSpec(n_rp=n_rp, samples_per_rp=per, n_wifi=n_wifi,
                         n_ble=n_ble, shadowing_std_dbm=shadowing, seed=seed)
        rmap = synth_radio_map(spec)
        rss, xy, rp, anchors = reference_synth_radio_map(spec)
        assert rmap.rss.tobytes() == rss.tobytes()
        assert rmap.xy.tobytes() == xy.tobytes()
        assert rmap.rp.tobytes() == rp.tobytes()
        assert rmap.meta["anchors"] == anchors.tolist()
        if shadowing == 200.0:
            assert rss.min() == -120.0 and rss.max() == 0.0

        split = SplitSpec(seed=split_seed)
        try:
            expect = reference_stratified_split(rp, split.ratios, split_seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                stratified_split(rmap, split)
        else:
            for part, rows in zip(stratified_split(rmap, split), expect):
                assert part.rss.tobytes() == rss[rows].tobytes()
                assert part.xy.tobytes() == xy[rows].tobytes()
                assert part.rp.tobytes() == rp[rows].tobytes()
                assert part.bounds == rmap.bounds and part.meta == rmap.meta

        try:
            expect = reference_fold_assignment(rp, folds, split_seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _fold_assignment(rmap, folds, split_seed)
        else:
            assert np.array_equal(_fold_assignment(rmap, folds, split_seed),
                                  expect)

    def test_rp_order_of_a_loaded_survey(self):
        # RPs out of order and interleaved, as a hand-made CSV may have them
        rp = np.array([3, 1, 3, 7, 1, 1, 3, 7, 7, 1, 3, 7] * 3)
        rmap = radio_map([[-50.0, -60.0]] * rp.size, rp=rp)
        groups = rmap.rp_rows()
        assert [r for r, _ in groups] == [1, 3, 7]
        for r, rows in groups:
            assert rows.tolist() == np.flatnonzero(rp == r).tolist()
        for seed in range(5):
            parts = stratified_split(rmap, SplitSpec((0.5, 0.25, 0.25), seed))
            expect = reference_stratified_split(rp, (0.5, 0.25, 0.25), seed)
            for part, rows in zip(parts, expect):
                assert part.rp.tolist() == rp[rows].tolist()
            assert np.array_equal(_fold_assignment(rmap, 3, seed),
                                  reference_fold_assignment(rp, 3, seed))
