import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dctm.data
from dctm.data import (
    _read_feature_csv,
    MODALITIES,
    ModalityStream,
    NormStats,
    Session,
    SyntheticSpec,
    apply_norm_stats,
    batch_windows,
    compute_norm_stats,
    generate_dataset,
    generate_synthetic,
    load_session,
    load_split_sessions,
    load_splits,
    make_windows,
    normalize,
    overlap_average,
    window_starts,
    write_session,
    write_splits,
)
from dctm.errors import DataError
from dctm.metrics import magnitude_ccc
from dctm.reference import ridge_regression_ccc


def write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def write_toy_session(root, sid="s000", role="expert", T=12, label_value=None,
                      lengths=None):
    rng = np.random.default_rng(99)
    lengths = lengths or {}
    for i, m in enumerate(MODALITIES):
        Tm = lengths.get(m, T)
        rows = [[t, *np.round(rng.normal(size=2) + i, 6)] for t in range(Tm)]
        write_csv(root / sid / f"{role}.{m}.csv", ["frame", "a", "b"], rows)
    labels = [[t, 0.5 if label_value is None else label_value] for t in range(T)]
    write_csv(root / sid / f"{role}.labels.csv", ["frame", "engagement"], labels)


class TestLoadSession:
    def test_equal_lengths_full_mask(self, tmp_path):
        write_toy_session(tmp_path, T=100)
        s = load_session(tmp_path, "s000", "expert")
        assert s.num_frames == 100
        assert s.labels.shape == (100,)
        assert s.frame_mask.all()
        assert s.warnings == []

    def test_truncates_to_shortest_with_warning(self, tmp_path):
        write_toy_session(tmp_path, T=100, lengths={"pose": 98})
        s = load_session(tmp_path, "s000", "expert")
        assert s.num_frames == 98
        assert len(s.warnings) == 1 and "98" in s.warnings[0]
        assert "severe" not in s.warnings[0]  # 2% < 5%

    def test_large_mismatch_flagged_severe(self, tmp_path):
        write_toy_session(tmp_path, T=100, lengths={"voice": 50})
        s = load_session(tmp_path, "s000", "expert")
        assert "severe" in s.warnings[0]

    def test_missing_modality_file_raises(self, tmp_path):
        write_toy_session(tmp_path)
        (tmp_path / "s000" / "expert.pose.csv").unlink()
        with pytest.raises(DataError, match="pose"):
            load_session(tmp_path, "s000", "expert")

    def test_out_of_range_label_names_frame(self, tmp_path):
        write_toy_session(tmp_path, T=5, label_value=1.2)
        with pytest.raises(DataError, match="1.2.*frame 0"):
            load_session(tmp_path, "s000", "expert")

    def test_unparsable_row_names_line(self, tmp_path):
        write_toy_session(tmp_path, T=5)
        path = tmp_path / "s000" / "expert.head.csv"
        lines = path.read_text().splitlines()
        lines[3] = "2,oops,1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"head\.csv:4"):
            load_session(tmp_path, "s000", "expert")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_cell_names_line_and_column(self, tmp_path, cell):
        # empty/NaN cells are missing values; an infinity must not load
        write_toy_session(tmp_path, T=6)
        path = tmp_path / "s000" / "expert.voice.csv"
        lines = path.read_text().splitlines()
        lines[4] = f"3,0.5,{cell}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"voice\.csv:5: non-finite .* column 3 \('b'\)"):
            load_session(tmp_path, "s000", "expert")

    def test_nan_cells_mask_frames(self, tmp_path):
        write_toy_session(tmp_path, T=6)
        path = tmp_path / "s000" / "expert.voice.csv"
        lines = path.read_text().splitlines()
        lines[2] = "1,,0.25"  # empty cell -> NaN
        path.write_text("\n".join(lines) + "\n")
        s = load_session(tmp_path, "s000", "expert")
        assert not s.streams["voice"].valid_mask[1]
        assert s.frame_mask.tolist() == [True, False, True, True, True, True]

    def test_missing_labels_allowed_when_not_required(self, tmp_path):
        write_toy_session(tmp_path, T=5)
        (tmp_path / "s000" / "expert.labels.csv").unlink()
        s = load_session(tmp_path, "s000", "expert", require_labels=False)
        assert s.labels is None
        with pytest.raises(DataError, match="labels"):
            load_session(tmp_path, "s000", "expert")


def per_cell_csv_reader(path):
    """A csv-module reader calling float() on each cell: the oracle for the
    bulk parse's values."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        frames, rows = [], []
        for row in reader:
            if not row:
                continue
            frames.append(int(row[0]))
            rows.append([float(c) if c.strip() else np.nan for c in row[1:]])
    feats = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)
    return header[1:], np.asarray(frames, dtype=np.int64), feats


class TestBulkCsvIngest:
    def test_matches_per_cell_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-8, 9, size=(200, 4))
        lines = ["frame,a,b,c,d"]
        for t, row in enumerate(values):
            cells = [repr(float(row[0])), f"{row[1]:.7g}", f"{row[2]:.3e}", f" {row[3]:.17g} "]
            lines.append(f"{t}," + ",".join(cells))
        lines[3] = "2,,nan,   ,-0.0"    # empty, nan, whitespace-only cells
        lines[7] = "6,NaN,1e-320,\t,7"  # a subnormal and a tab-only cell
        lines[9] = "8,1,2,3,"           # trailing empty cell
        lines.insert(12, "")            # blank lines are skipped
        lines.insert(30, "")
        path = tmp_path / "x.csv"
        path.write_text("\n".join(lines))  # no newline after the last row
        got, want = _read_feature_csv(path), per_cell_csv_reader(path)
        assert got[0] == want[0] == ["a", "b", "c", "d"]
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2].dtype == np.float64 and got[2].shape == (200, 4)
        np.testing.assert_array_equal(got[2], want[2])  # NaNs compare equal here
        finite = np.isfinite(want[2])
        assert got[2][finite].tobytes() == want[2][finite].tobytes()
        assert np.isnan(got[2][2, :3]).all() and np.isnan(got[2][6, [0, 2]]).all()
        assert np.isnan(got[2][8, 3])

    @pytest.mark.parametrize("blank, parses", [("", 1), ("  ", 2), ("\t", 2)])
    def test_only_whitespace_cells_take_a_second_parse(self, tmp_path, monkeypatch,
                                                       blank, parses):
        # empty cells, runs of them and a trailing one fill before the first
        # parse; a whitespace-only cell fails it and takes the slower fill
        calls = []
        real = dctm.data._load_rows

        def counting(text, dtype):
            calls.append(text)
            return real(text, dtype)

        monkeypatch.setattr(dctm.data, "_load_rows", counting)
        path = tmp_path / "x.csv"
        path.write_text(f"frame,a,b,c\n0,,,\n1,1,{blank},2\n2,,,3\n3,4,5,\n")
        got, want = _read_feature_csv(path), per_cell_csv_reader(path)
        assert len(calls) == parses
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        assert np.isnan(got[2]).sum() == 7

    @given(st.text(alphabet=",\n 1.é", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_empty_cell_fill_matches_a_lookahead_regex(self, text):
        assert dctm.data._fill_empty_cells(text) == re.sub(r",(?=[,\n])", ",nan", text)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("frame,a,b\n\n")
        names, frames, feats = _read_feature_csv(path)
        assert names == ["a", "b"] and frames.shape == (0,) and feats.shape == (0, 2)

    @pytest.mark.parametrize("line, message", [
        ("2,0.5", r"x\.csv:4: expected 3 columns, got 2"),
        ("2,0.5,1,1", r"x\.csv:4: expected 3 columns, got 4"),
        ("   ", r"x\.csv:4: expected 3 columns, got 1"),
        ("2.5,0.5,1", r"x\.csv:4: unparsable row \['2\.5', '0\.5', '1'\]"),
        (",0.5,1", r"x\.csv:4: unparsable row"),
        ("2,0.5,one", r"x\.csv:4: unparsable row"),
    ])
    def test_first_bad_row_is_located(self, tmp_path, line, message):
        path = tmp_path / "x.csv"
        path.write_text(f"frame,a,b\n0,1,2\n\n{line}\n3,4,5\n4,oops,6\n")
        with pytest.raises(DataError, match=message):
            _read_feature_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("time,a\n0,1\n")
        with pytest.raises(DataError, match="header starting with 'frame'"):
            _read_feature_csv(path)


class TestNormalize:
    def make_sessions(self, rng, n=2, T=50):
        spec = SyntheticSpec(seed=7, sessions=n, frames=T, roles=("expert",))
        return generate_synthetic(spec)

    def test_train_stats_zero_mean_unit_std(self, rng):
        sessions = self.make_sessions(rng)
        normed, stats = normalize(sessions)
        feats = np.concatenate([s.streams["head"].features for s in normed])
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(feats.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_becomes_zeros(self, rng):
        sessions = self.make_sessions(rng)
        for s in sessions:
            s.streams["pose"].features[:, 0] = 3.25
        normed, _ = normalize(sessions)
        for s in normed:
            np.testing.assert_array_equal(s.streams["pose"].features[:, 0], 0.0)

    def test_round_trip_recovers_input(self, rng):
        sessions = self.make_sessions(rng)
        normed, stats = normalize(sessions)
        for s_raw, s_norm in zip(sessions, normed):
            for m in MODALITIES:
                mu, sd = stats.for_modality(m, s_raw.streams[m].feature_names)
                back = s_norm.streams[m].features * np.where(sd < 1e-8, 1.0, sd) + mu
                np.testing.assert_allclose(back, s_raw.streams[m].features, atol=1e-6)

    def test_stored_stats_reproduce_inline_pass(self, rng, tmp_path):
        # evaluation-style renormalization with saved stats must equal the
        # training-time pass bit for bit
        sessions = self.make_sessions(rng)
        normed, stats = normalize(sessions)
        stats.save(tmp_path / "norm_stats.csv")
        reloaded = NormStats.load(tmp_path / "norm_stats.csv")
        again, _ = normalize(sessions, stats=reloaded)
        for a, b in zip(normed, again):
            for m in MODALITIES:
                np.testing.assert_array_equal(a.streams[m].features,
                                              b.streams[m].features)

    def test_nan_cells_imputed_to_zero(self, rng):
        sessions = self.make_sessions(rng)
        sessions[0].streams["head"].features[3, 1] = np.nan
        sessions[0].streams["head"].valid_mask[3] = False
        normed, _ = normalize(sessions)
        assert normed[0].streams["head"].features[3, 1] == 0.0
        assert np.isfinite(normed[0].streams["head"].features).all()

    def test_stats_mismatch_raises(self, rng):
        sessions = self.make_sessions(rng)
        _, stats = normalize(sessions)
        other = SyntheticSpec(seed=1, sessions=1, frames=10,
                              dims=(3, 12, 10), roles=("expert",))
        with pytest.raises(DataError, match="head"):
            apply_norm_stats(generate_synthetic(other)[0], stats)

    def test_stats_csv_round_trip_exact(self, rng, tmp_path):
        _, stats = normalize(self.make_sessions(rng))
        stats.save(tmp_path / "ns.csv")
        loaded = NormStats.load(tmp_path / "ns.csv")
        assert loaded.names == stats.names
        np.testing.assert_array_equal(loaded.mean, stats.mean)
        np.testing.assert_array_equal(loaded.std, stats.std)

    @pytest.mark.parametrize("cells", ["nan,1.0", "0.5,inf", "0.5,-1.0", "-inf,1.0"])
    def test_stats_csv_rejects_non_finite_or_negative_std(self, tmp_path, cells):
        path = tmp_path / "ns.csv"
        path.write_text(f"name,mean,std\nhead.f0,0.0,0.0\nhead.f1,{cells}\n")
        with pytest.raises(DataError, match=r"ns\.csv:3: .*finite"):
            NormStats.load(path)


class TestWindows:
    def test_worked_example_starts(self):
        assert window_starts(100, 64, 32) == [0, 32, 36]

    def test_exact_fit_single_window(self):
        assert window_starts(64, 64, 32) == [0]

    def test_short_session_single_padded_window(self, rng):
        spec = SyntheticSpec(seed=3, sessions=1, frames=10, roles=("expert",))
        (session,) = generate_synthetic(spec)
        windows = make_windows(session, window=64, stride=32)
        assert len(windows) == 1
        w = windows[0]
        assert w.mask.sum() == 10 and (~w.mask[10:]).all()
        batch = batch_windows(windows, np.float64)
        head = batch.features["head"][0]
        assert head.shape == (8, 64)
        np.testing.assert_array_equal(head[:, :10], session.streams["head"].features.T)
        assert (head[:, 10:] == 0.0).all()
        np.testing.assert_array_equal(batch.labels[0, :10], session.labels)
        assert (batch.labels[0, 10:] == 0.0).all()

    def test_empty_session(self):
        assert window_starts(0, 64, 32) == []

    @settings(max_examples=50, deadline=None)
    @given(T=st.integers(1, 300), stride=st.integers(1, 64))
    def test_full_coverage(self, T, stride):
        W = 64
        starts = window_starts(T, W, stride)
        covered = np.zeros(T, dtype=bool)
        for s in starts:
            covered[s:s + W] = True
            assert s == 0 or s + W <= T  # only a short session may overrun
        assert covered.all()

    def test_batching_shapes_and_order(self, rng):
        spec = SyntheticSpec(seed=5, sessions=1, frames=200, roles=("expert",))
        (session,) = generate_synthetic(spec)
        windows = make_windows(session, window=64, stride=32)
        batches = [batch_windows(windows[i:i + 4]) for i in range(0, len(windows), 4)]
        assert [w.start for w in windows] == [0, 32, 64, 96, 128, 136]
        assert [len(b.labels) for b in batches] == [4, 2]
        assert batches[0].features["pose"].shape == (4, 12, 64)
        assert batches[0].features["pose"].dtype == np.float32
        # row r of batch b holds window 4b + r, cast once to float32
        for b, batch in enumerate(batches):
            for r, w in enumerate(windows[4 * b:4 * b + 4]):
                frames = slice(w.start, w.start + 64)
                for m, stream in session.streams.items():
                    want = stream.features[frames].T.astype(np.float32)
                    assert batch.features[m][r].tobytes() == want.tobytes()
                want = session.labels[frames].astype(np.float32)
                assert batch.labels[r].tobytes() == want.tobytes()
                assert (batch.mask[r] == w.mask).all()


def copied_batch(windows, dtype):
    """The gather as it was when each window held its own copy: a float64
    block per window, zero past the session's end, then one stack and cast."""
    feats = {m: [] for m in windows[0].session.streams}
    labels = []
    for w in windows:
        W = w.mask.shape[0]
        n = min(W, w.session.num_frames - w.start)
        for m, stream in w.session.streams.items():
            block = np.zeros((stream.num_features, W), dtype=np.float64)
            block[:, :n] = stream.features[w.start:w.start + n].T
            feats[m].append(block)
        lab = np.zeros(W, dtype=np.float64)
        if w.session.labels is not None:
            lab[:n] = w.session.labels[w.start:w.start + n]
        labels.append(lab)
    return ({m: np.stack(b).astype(dtype) for m, b in feats.items()},
            np.stack(labels).astype(dtype))


def nan_session(rng, sid, T, nan_frames, labeled):
    streams = {}
    for m, C in zip(MODALITIES, (2, 3, 1)):
        feats = rng.normal(size=(T, C))
        feats[[t for t in nan_frames if t < T], 0] = np.nan
        streams[m] = ModalityStream(m, feats, np.arange(T), ~np.isnan(feats).any(axis=1),
                                    [f"f{j}" for j in range(C)])
    return Session(sid, "expert", streams, rng.uniform(size=T) if labeled else None)


class TestGather:
    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 300), min_size=1, max_size=2),
           window=st.integers(1, 320), stride=st.integers(1, 400),
           batch_size=st.integers(1, 40), labeled=st.lists(st.booleans(), min_size=2,
                                                            max_size=2),
           nan_frames=st.lists(st.integers(0, 299), max_size=20),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_gathered_batches_equal_the_copy_path(self, lengths, window, stride, batch_size,
                                                  labeled, nan_frames, dtype, seed):
        """Bit for bit, for windows shorter and longer than their session,
        NaN-imputed frames, unlabeled sessions and batches that span two
        sessions (one batch of every window does whenever there are two)."""
        rng = np.random.default_rng(seed)
        raw = [nan_session(rng, f"s{i}", T, nan_frames, labeled[i])
               for i, T in enumerate(lengths)]
        sessions, _ = normalize(raw)
        windows = [w for s in sessions for w in make_windows(s, window, stride)]
        for size in (batch_size, len(windows)):
            for first in range(0, len(windows), size):
                chunk = windows[first:first + size]
                batch = batch_windows(chunk, dtype)
                feats, labels = copied_batch(chunk, dtype)
                for m in MODALITIES:
                    assert batch.features[m].dtype == dtype
                    assert batch.features[m].tobytes() == feats[m].tobytes()
                assert batch.labels.tobytes() == labels.tobytes()
                for row, w in zip(batch.mask, chunk):
                    n = min(window, w.session.num_frames - w.start)
                    assert (row[:n] == w.session.frame_mask[w.start:w.start + n]).all()
                    assert not row[n:].any()


class TestOverlapAverage:
    def test_identical_windows_pass_through(self):
        preds = [(0, np.full(4, 0.7)), (2, np.full(4, 0.7))]
        np.testing.assert_allclose(overlap_average(6, preds), 0.7)

    def test_two_window_mean(self):
        preds = [(0, np.array([0.2, 0.2])), (1, np.array([0.4, 0.4]))]
        np.testing.assert_allclose(overlap_average(3, preds), [0.2, 0.3, 0.4])

    def test_scores_past_last_frame_dropped(self):
        preds = [(0, np.array([0.2, 0.2, 9.0])), (1, np.array([0.4, 9.0, 9.0]))]
        np.testing.assert_allclose(overlap_average(2, preds), [0.2, 0.3])

    def test_uncovered_frame_raises(self):
        preds = [(0, np.array([0.2]))]
        with pytest.raises(DataError, match="frame 1"):
            overlap_average(3, preds)

    def test_full_pipeline_score_count(self, rng):
        spec = SyntheticSpec(seed=11, sessions=1, frames=100, roles=("expert",))
        (session,) = generate_synthetic(spec)
        windows = make_windows(session, window=64, stride=32)
        batch = batch_windows(windows, np.float64)
        preds = [(w.start, labels) for w, labels in zip(windows, batch.labels)]
        scores = overlap_average(100, preds)
        assert scores.shape == (100,)
        np.testing.assert_allclose(scores, session.labels, atol=1e-12)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(seed=42, sessions=2, frames=64)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for sa, sb in zip(a, b):
            assert sa.key == sb.key
            np.testing.assert_array_equal(sa.labels, sb.labels)
            for m in MODALITIES:
                np.testing.assert_array_equal(sa.streams[m].features,
                                              sb.streams[m].features)

    def test_labels_in_configured_band(self):
        spec = SyntheticSpec(seed=8, sessions=3, frames=400)
        for s in generate_synthetic(spec):
            assert s.labels.min() >= 0.05 - 1e-9
            assert s.labels.max() <= 0.95 + 1e-9

    def test_pure_noise_has_no_magnitude_signal(self):
        spec = SyntheticSpec(seed=13, sessions=1, frames=10_000,
                             snr=(0.0, 0.0, 0.0), roles=("expert",))
        (session,) = generate_synthetic(spec)
        for m in MODALITIES:
            r = magnitude_ccc(session.streams[m].features, session.labels)
            assert abs(r.ccc) < 0.05

    def test_high_snr_voice_supports_ridge_fit(self):
        spec = SyntheticSpec(seed=21, sessions=2, frames=2000,
                             snr=(0.0, 0.0, 1e6), roles=("expert",))
        train, test = generate_synthetic(spec)
        c = ridge_regression_ccc(train.streams["voice"].features, train.labels,
                                 test.streams["voice"].features, test.labels)
        assert c > 0.95

    def test_roles_share_mixing_but_not_latents(self):
        spec = SyntheticSpec(seed=2, sessions=1, frames=500)
        expert, novice = generate_synthetic(spec)
        assert np.abs(expert.labels - novice.labels).max() > 0.01


class TestDatasetRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        spec = SyntheticSpec(seed=31, sessions=2, frames=40)
        sessions = generate_synthetic(spec)
        for s in sessions:
            write_session(tmp_path, s)
        loaded = load_session(tmp_path, "s001", "novice")
        src = next(s for s in sessions if s.key == "s001/novice")
        np.testing.assert_array_equal(loaded.labels, src.labels)
        for m in MODALITIES:
            np.testing.assert_array_equal(loaded.streams[m].features,
                                          src.streams[m].features)

    def test_generate_dataset_splits(self, tmp_path):
        spec = SyntheticSpec(seed=17, sessions=5, frames=30)
        splits = generate_dataset(tmp_path, spec)
        assert splits == load_splits(tmp_path)
        assert len(splits["train"]) == 4 and len(splits["val"]) == 1
        assert set(splits["train"]) | set(splits["val"]) == {f"s{i:03d}" for i in range(5)}

    def test_generate_dataset_keeps_a_training_session(self, tmp_path):
        splits = generate_dataset(tmp_path, SyntheticSpec(seed=17, sessions=4, frames=30),
                                  val_fraction=0.95)
        assert len(splits["train"]) == 1 and len(splits["val"]) == 3

    def test_load_split_sessions_subject_filter(self, tmp_path):
        spec = SyntheticSpec(seed=17, sessions=3, frames=30)
        generate_dataset(tmp_path, spec)
        both = load_split_sessions(tmp_path, "train", subject="both")
        experts = load_split_sessions(tmp_path, "train", subject="expert")
        assert len(both) == 2 * len(experts)
        assert {s.role for s in experts} == {"expert"}
        with pytest.raises(DataError, match="subject"):
            load_split_sessions(tmp_path, "train", subject="all")

    def test_missing_splits_file(self, tmp_path):
        with pytest.raises(DataError, match="splits.json"):
            load_splits(tmp_path)
