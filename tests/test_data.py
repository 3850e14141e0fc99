"""Data loading, synthetic generators, augmentation, and fold protocols."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxgain.data as data_module

from maxgain import (
    ConfigError,
    Dataset,
    EmptySampleError,
    FoldProtocol,
    FormatError,
    ShapeError,
    augment,
    load_csv,
    load_idx,
    make_folds,
    make_rng,
    synth_blobs,
    synth_spirals,
)
from maxgain.data import write_text
from oracles import augment_oracle

AUGMENT_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   n_override=None, stem="set"):
    """Write an images/labels file pair; pixels is a (n, rows, cols) uint8 array."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    images = tmp_path / f"{stem}-images"
    labels_path = tmp_path / f"{stem}-labels"
    with open(images, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n if n_override is None else n_override,
                             rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, len(labels)))
        fh.write(bytes(labels))
    return images, labels_path


class TestLoadIdx:
    def test_pixel_mapping_and_shapes(self, tmp_path):
        pixels = np.zeros((2, 3, 4), dtype=np.uint8)
        pixels[0, 0, 0] = 255
        pixels[0, 0, 1] = 51
        imgs, labs = write_idx_pair(tmp_path, pixels, [1, 0])
        data = load_idx(imgs, labs)
        assert data.x.shape == (2, 1, 3, 4)
        assert data.x.dtype == np.float64
        assert data.x[0, 0, 0, 0] == 1.0          # 255 maps to +1
        assert data.x[0, 0, 0, 1] == pytest.approx(51 / 127.5 - 1.0)
        assert data.x[1, 0, 0, 0] == -1.0         # 0 maps to -1
        np.testing.assert_array_equal(data.y, [1, 0])
        assert data.y.dtype == np.int64
        assert data.class_count == 2

    def test_class_count_spans_to_max_label(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 7, 2])
        assert load_idx(imgs, labs).class_count == 8

    def test_bad_image_magic(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0],
                                    image_magic=0x804)
        with pytest.raises(FormatError):
            load_idx(imgs, labs)

    def test_bad_label_magic(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0],
                                    label_magic=0x803)
        with pytest.raises(FormatError):
            load_idx(imgs, labs)

    def test_truncated_pixels(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1],
                                    n_override=3)
        with pytest.raises(FormatError):
            load_idx(imgs, labs)

    def test_trailing_bytes(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        with open(imgs, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError):
            load_idx(imgs, labs)

    def test_image_label_count_mismatch(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1, 1])
        with pytest.raises(FormatError):
            load_idx(imgs, labs)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_idx(tmp_path / "none-images", tmp_path / "none-labels")

    @pytest.mark.parametrize("which, damage, message", [
        (0, lambda b: b[:10], "truncated header (wanted 16 bytes, got 10)"),
        (0, lambda b: b[:-1], "truncated pixel data (wanted 8 bytes, got 7)"),
        (0, lambda b: b + b"\x00", "trailing bytes after pixel data"),
        (1, lambda b: b[:7], "truncated header (wanted 8 bytes, got 7)"),
        (1, lambda b: b"\x00\x00\x08\x03" + b[4:], "bad magic 0x00000803, expected 0x00000801"),
        (1, lambda b: b[:-1], "truncated label data (wanted 2 bytes, got 1)"),
        (1, lambda b: b + b"\x00", "trailing bytes after label data"),
    ])
    def test_errors_name_the_file_and_the_part(self, tmp_path, which, damage, message):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        paths[which].write_bytes(damage(paths[which].read_bytes()))
        with pytest.raises(FormatError) as err:
            load_idx(*paths)
        assert str(err.value) == f"{paths[which]}: {message}"


class TestLoadCsv:
    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.x, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.y, [0, 1])

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        assert len(load_csv(path)) == 2

    def test_sparse_numeric_labels_map_to_dense_indices(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0,9\n2,0,3\n3,0,7\n4,0,3\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.y, [2, 0, 1, 0])
        assert data.class_count == 3

    def test_string_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,kind\n1,2,dog\n3,4,cat\n5,6,dog\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.y, [1, 0, 1])
        assert data.class_count == 2

    def test_labels_not_all_finite_numbers_are_strings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,nan\n5,6,nan\n7,8,inf\n9,0,1e999\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.y, [0, 3, 3, 2, 1])
        assert data.class_count == 4

    def test_label_in_first_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,10,20\n1,30,40\n")
        data = load_csv(path, label_col=0)
        np.testing.assert_array_equal(data.x, [[10.0, 20.0], [30.0, 40.0]])
        np.testing.assert_array_equal(data.y, [0, 1])

    def test_explicit_feature_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3,0\n4,5,6,1\n")
        data = load_csv(path, feature_cols=[0, 2])
        np.testing.assert_array_equal(data.x, [[1.0, 3.0], [4.0, 6.0]])

    @pytest.mark.parametrize("columns, named", [
        ({"label_col": -4}, "'label_col'"),
        ({"feature_cols": [0, 3]}, "'feature_cols'"),
        ({"label_col": 0, "feature_cols": [-3, 1]}, "column 0 is the label column"),
        ({"feature_cols": []}, "'feature_cols'.*no feature column"),
    ])
    def test_columns_must_lie_in_the_first_row_and_miss_the_label(self, tmp_path, columns, named):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n")
        with pytest.raises(ConfigError, match=named):
            load_csv(path, **columns)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,1\n")
        with pytest.raises(FormatError, match=":2:"):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,x,0\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n")
        with pytest.raises(EmptySampleError):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n\n3,4,1\n\n")
        assert len(load_csv(path)) == 2


class TestSynthetic:
    def test_spirals_shape_and_balance(self):
        data = synth_spirals(101, make_rng(0), classes=2)
        assert data.x.shape == (101, 2)
        counts = np.bincount(data.y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1
        assert data.class_count == 2

    def test_spirals_deterministic(self):
        a = synth_spirals(50, make_rng(7))
        b = synth_spirals(50, make_rng(7))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_spirals_radius_envelope(self):
        data = synth_spirals(400, make_rng(1), noise_sd=0.0)
        radii = np.linalg.norm(data.x, axis=1)
        assert radii.min() >= 0.2 - 1e-12
        assert radii.max() <= 1.0 + 1e-12

    def test_spirals_three_classes(self):
        data = synth_spirals(99, make_rng(2), classes=3)
        assert data.class_count == 3
        assert set(np.unique(data.y)) == {0, 1, 2}

    def test_spirals_validation(self):
        with pytest.raises(ConfigError):
            synth_spirals(10, make_rng(0), classes=1)
        with pytest.raises(EmptySampleError):
            synth_spirals(0, make_rng(0))

    def test_blobs_center_on_their_centers(self):
        centers = [(-5.0, 0.0), (5.0, 0.0)]
        data = synth_blobs(2000, make_rng(3), centers=centers, sd=0.5)
        for c in range(2):
            np.testing.assert_allclose(data.x[data.y == c].mean(axis=0),
                                       centers[c], atol=0.1)

    def test_blobs_validation(self):
        with pytest.raises(ConfigError):
            synth_blobs(10, make_rng(0), centers=[(0.0, 0.0)])


class FixedDraws:
    """An rng stand-in that hands augment the flip draws and offsets a test chooses."""

    def __init__(self, flips=None, offsets=None):
        self.flips, self.offsets = flips, offsets

    def random(self, n):
        return np.asarray(self.flips, dtype=float)

    def integers(self, low, high, size):
        return np.asarray(self.offsets)


class TestAugment:
    def test_flip_selected_instances(self):
        x = np.arange(8.0).reshape(2, 1, 2, 2)
        out = augment(x, FixedDraws(flips=[0.2, 0.7]), flip=True)
        np.testing.assert_array_equal(out[0, 0], [[1.0, 0.0], [3.0, 2.0]])
        np.testing.assert_array_equal(out[1], x[1])

    def test_double_flip_is_identity(self):
        x = make_rng(4).normal(size=(3, 2, 4, 5))
        draws = FixedDraws(flips=[0.1, 0.4, 0.9])
        once = augment(x, draws, flip=True)
        assert not np.array_equal(once, x)
        np.testing.assert_array_equal(augment(once, draws, flip=True), x)

    def test_pad_crop_center_offset_reproduces_input(self):
        x = make_rng(5).normal(size=(2, 1, 4, 6))
        out = augment(x, FixedDraws(offsets=[(1, 1), (1, 1)]), pad=1)
        np.testing.assert_array_equal(out, x)

    def test_pad_crop_corner_offset_shifts_with_zero_border(self):
        x = np.ones((1, 1, 3, 3))
        out = augment(x, FixedDraws(offsets=[(0, 0)]), pad=1, crop=3)
        assert out[0, 0, 0, :].sum() == 0.0  # zero border moved in
        assert out[0, 0, :, 0].sum() == 0.0
        np.testing.assert_array_equal(out[0, 0, 1:, 1:], np.ones((2, 2)))

    def test_pad_crop_too_large(self):
        with pytest.raises(ConfigError, match=r"crop 5 exceeds padded image \(3x3\)"):
            augment(np.ones((1, 1, 3, 3)), make_rng(0), crop=5)

    @AUGMENT_SETTINGS
    @given(n=st.integers(1, 4), c=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
           pad=st.integers(0, 4), flip=st.booleans(), crop_frac=st.none() | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_image_oracle(self, n, c, h, w, pad, flip, crop_frac, seed):
        crop = None if crop_frac is None else 1 + int(crop_frac * (min(h, w) + 2 * pad - 1))
        x = make_rng(seed).normal(size=(n, c, h, w))
        rng, twin = make_rng(seed + 1), make_rng(seed + 1)
        out = augment(x, rng, flip=flip, pad=pad, crop=crop)
        expected = augment_oracle(x, twin, flip=flip, pad=pad, crop=crop)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
        assert out.flags.c_contiguous
        assert rng.random() == twin.random()  # augment drew what the oracle drew

    def test_augment_noop_without_options(self):
        x = make_rng(6).normal(size=(4, 1, 3, 3))
        np.testing.assert_array_equal(augment(x, make_rng(0)), x)

    def test_augment_flip_rate(self):
        x = np.zeros((400, 1, 1, 2))
        x[:, 0, 0, 0] = 1.0  # asymmetric so flips are visible
        out = augment(x, make_rng(7), flip=True)
        flipped = np.mean(out[:, 0, 0, 1] == 1.0)
        assert abs(flipped - 0.5) < 0.07

    def test_augment_pad_keeps_size_by_default(self):
        for shape in [(6, 6), (10, 6), (6, 10)]:
            x = make_rng(8).normal(size=(5, 1) + shape)
            assert augment(x, make_rng(9), flip=True, pad=2).shape == x.shape

    def test_augment_crop_changes_size(self):
        x = make_rng(10).normal(size=(5, 1, 8, 8))
        out = augment(x, make_rng(11), pad=0, crop=6)
        # crop without padding is legal: the window just sits inside the image
        assert out.shape == (5, 1, 6, 6)
        out = augment(x, make_rng(11), pad=1, crop=6)
        assert out.shape == (5, 1, 6, 6)

    def test_augment_deterministic(self):
        x = make_rng(12).normal(size=(6, 1, 5, 5))
        a = augment(x, make_rng(13), flip=True, pad=1)
        b = augment(x, make_rng(13), flip=True, pad=1)
        np.testing.assert_array_equal(a, b)

    def test_augment_rejects_flat_batches(self):
        with pytest.raises(ShapeError):
            augment(np.ones((4, 8)), make_rng(0), flip=True)

    def test_augment_crop_exceeding_padded_size(self):
        with pytest.raises(ConfigError):
            augment(np.ones((1, 1, 4, 4)), make_rng(0), pad=1, crop=8)
        # each padded side is checked, on tall and wide images alike
        for shape, padded in [((10, 6), "12x8"), ((6, 10), "8x12")]:
            with pytest.raises(ConfigError, match=f"crop 9 exceeds padded image \\({padded}\\)"):
                augment(np.ones((1, 1) + shape), make_rng(0), pad=1, crop=9)


class TestFolds:
    def test_geometry_and_disjointness(self):
        proto = make_folds(50, 3, 10, 5, make_rng(0))
        assert proto.n_instances == 50
        assert len(proto.folds) == 3
        seen = []
        for fold in proto.folds:
            assert fold.train.shape == (10,)
            assert fold.test.shape == (5,)
            seen.extend(fold.train.tolist())
            seen.extend(fold.test.tolist())
        assert len(seen) == len(set(seen)) == 45  # pairwise disjoint, 5 unused
        assert all(0 <= i < 50 for i in seen)

    def test_dataset_argument_equals_count_argument(self):
        data = synth_blobs(40, make_rng(1), centers=[(0.0, 0.0), (1.0, 1.0)])
        a = make_folds(data, 2, 12, 8, make_rng(5))
        b = make_folds(40, 2, 12, 8, make_rng(5))
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa.train, fb.train)
            np.testing.assert_array_equal(fa.test, fb.test)

    def test_deterministic(self):
        a = make_folds(30, 2, 8, 4, make_rng(2))
        b = make_folds(30, 2, 8, 4, make_rng(2))
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa.train, fb.train)

    def test_capacity_check(self):
        with pytest.raises(ConfigError):
            make_folds(44, 3, 10, 5, make_rng(0))
        make_folds(45, 3, 10, 5, make_rng(0))  # exactly enough is fine

    def test_positive_geometry(self):
        with pytest.raises(ConfigError):
            make_folds(50, 0, 10, 5, make_rng(0))
        with pytest.raises(ConfigError):
            make_folds(50, 2, 10, 0, make_rng(0))

    def test_save_load_round_trip(self, tmp_path):
        proto = make_folds(50, 3, 10, 5, make_rng(3))
        path = tmp_path / "folds.json"
        proto.save(path)
        loaded = FoldProtocol.load(path)
        assert loaded.n_instances == 50
        for fa, fb in zip(proto.folds, loaded.folds):
            np.testing.assert_array_equal(fa.train, fb.train)
            np.testing.assert_array_equal(fa.test, fb.test)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "folds.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            FoldProtocol.load(path)

    def test_load_rejects_other_documents(self, tmp_path):
        path = tmp_path / "folds.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(FormatError):
            FoldProtocol.load(path)
        path.write_text('{"format": "maxgain-folds", "version": 2, "n_instances": 1, "folds": []}\n')
        with pytest.raises(FormatError):
            FoldProtocol.load(path)


    @pytest.mark.parametrize("doc, named", [
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10}, "folds"),
        ({"format": "maxgain-folds", "version": 1, "folds": []}, "n_instances"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10, "folds": [],
          "seed": 3}, "seed"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 1]}]}, "test"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 10], "test": [2]}]}, "index 10"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, -1], "test": [2]}]}, "index -1"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 1.5], "test": [2]}]}, "index 1.5"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 1, 2], "test": [2]}]}, "instance 2 is used twice"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 0], "test": [2]}]}, "instance 0 is used twice"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 1], "test": [2]}, {"train": [3, 4], "test": [1]}]},
         "instance 1 is used twice"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [], "test": [2]}]}, "fold 0 has an empty train list"),
        ({"format": "maxgain-folds", "version": 1, "n_instances": 10,
          "folds": [{"train": [0, 1], "test": [2]}, {"train": [3], "test": []}]},
         "fold 1 has an empty test list"),
    ])
    def test_load_rejects_malformed_protocols(self, tmp_path, doc, named):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=named):
            FoldProtocol.load(path)


class _TornFile:
    """A text file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")


class TestWriteText:
    def test_replaces_the_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        write_text(target, "new\n")
        assert target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_a_write_failing_mid_file_keeps_the_previous_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("previous contents\n")
        monkeypatch.setattr(data_module, "open", lambda path, mode: _TornFile(open(path, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_text(target, "replacement contents that never land\n")
        assert target.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestDataset:
    def test_subset_keeps_metadata(self):
        data = Dataset(np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1]), 2)
        sub = data.subset(np.array([1, 3]))
        np.testing.assert_array_equal(sub.x, [[2.0, 3.0], [6.0, 7.0]])
        np.testing.assert_array_equal(sub.y, [1, 1])
        assert sub.class_count == 2

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.ones((3, 2)), np.zeros(2, dtype=np.int64), 2)

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            Dataset(np.ones((0, 2)), np.zeros(0, dtype=np.int64), 2)
