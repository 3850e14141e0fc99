"""Datasets: IDX and CSV loading, synthetic generators, augmentation, folds,
and the number formatting and atomic text writes every output file goes
through."""

import contextlib
import csv
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptySampleError, FormatError, ShapeError
from .layers import REQUIRED, integer, of_type, one_of, parse_fields, parse_value, reals
from .tensor import DTYPE

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def write_text(path, text):
    """Write text to path through a temporary file beside it and os.replace,
    so path holds either its previous bytes or all of text, never a part."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_json(path):
    """The JSON at path; bad JSON or a key repeated in one object is a FormatError."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise FormatError(f"{path}: repeated key {key!r}")
            doc[key] = value
        return doc
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: not valid JSON ({err})") from None


def cell(value):
    """A number as file text: 17 significant digits, which parse back to the
    same float64 and print small integers as themselves; a string stays as
    it is."""
    return value if isinstance(value, str) else f"{value:.17g}"


def tsv(rows):
    """Rows of cells (numbers or strings) as tab-separated lines."""
    return "".join("\t".join(map(cell, row)) + "\n" for row in rows)


@dataclass
class Dataset:
    """A batch of instances x with integer labels y in [0, class_count)."""

    x: np.ndarray
    y: np.ndarray
    class_count: int

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise ShapeError(
                f"{self.x.shape[0]} instances but {self.y.shape[0]} labels")
        if self.x.shape[0] == 0:
            raise EmptySampleError("dataset is empty")

    def __len__(self):
        return self.x.shape[0]

    def subset(self, indices):
        return Dataset(self.x[indices], self.y[indices], self.class_count)


def _read_idx(path, magic, dims, what):
    """The `dims` header counts and the payload of one IDX file: a big-endian
    uint32 magic and counts, then exactly their product of bytes. Every
    FormatError names the file and the part that failed."""
    def exact(fh, count, part):
        buf = fh.read(count)
        if len(buf) != count:
            raise FormatError(f"{path}: truncated {part} (wanted {count} bytes, got {len(buf)})")
        return buf

    with open(path, "rb") as fh:
        found, *counts = struct.unpack(f">{dims + 1}I", exact(fh, 4 * (dims + 1), "header"))
        if found != magic:
            raise FormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
        raw = exact(fh, math.prod(counts), what)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {what}")
    return counts, raw


def load_idx(images_path, labels_path):
    """Load an image/label file pair in the classic big-endian IDX layout.

    Pixels come in as unsigned bytes and are mapped to [-1, 1] via v / 127.5 - 1.
    Output x has shape (n, 1, rows, cols).
    """
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixel data")
    (n_labels,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label data")
    if n_labels != n:
        raise FormatError(f"count mismatch: {n} images vs {n_labels} labels")
    x = np.frombuffer(pixels, dtype=np.uint8).reshape(n, 1, rows, cols).astype(DTYPE) / 127.5 - 1.0
    y = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    return Dataset(x, y, class_count=int(y.max()) + 1 if n else 0)


def _csv_column(path, width, key, c):
    """Column c of rows `width` wide as an index in [0, width); a column
    outside the row is a ConfigError naming the key that gave it."""
    if not -width <= c < width:
        raise ConfigError(f"bad {key!r} in csv dataset: {path} has {width} columns, got {c}")
    return c % width


def load_csv(path, label_col=-1, feature_cols=None):
    """Load a CSV of numeric features plus one label column.

    Columns count from 0, negative ones from the end, and must lie within the
    first row; at least one feature column is needed. A header row is skipped if its label cell does not parse as a
    number. A feature cell must be a finite number, as a config's real fields
    are. Label values are mapped to dense indices 0..K-1 in sorted order:
    numeric order when every label is a finite number, else string order.
    """
    rows = []
    labels = []
    width = None
    with open(path, newline="") as fh:
        for line_no, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            if width is None:
                width = len(rec)
                label_col = _csv_column(path, width, "label_col", label_col)
                cols = ([c for c in range(width) if c != label_col] if feature_cols is None else
                        [_csv_column(path, width, "feature_cols", c) for c in feature_cols])
                if not cols:
                    raise ConfigError(f"bad 'feature_cols' in csv dataset: no feature column in {path}")
                if label_col in cols:
                    raise ConfigError(
                        f"bad 'feature_cols' in csv dataset: column {label_col} is the label column")
                try:
                    float(rec[label_col])
                except ValueError:
                    continue  # header row
            if len(rec) != width:
                raise FormatError(f"{path}:{line_no}: expected {width} columns, got {len(rec)}")
            rows.append(parse_value(f"{path}:{line_no}", "features", reals, [rec[c] for c in cols], FormatError))
            labels.append(rec[label_col])
    if not rows:
        raise EmptySampleError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=DTYPE)

    # map labels (finite numbers if all are, else lexicographic) to dense indices
    try:
        keyed = reals(labels).tolist()
    except ValueError:
        keyed = labels
    index = {v: i for i, v in enumerate(sorted(set(keyed)))}
    y = np.asarray([index[v] for v in keyed], dtype=np.int64)
    return Dataset(x, y, class_count=len(index))


def _balanced_counts(n, classes):
    base, extra = divmod(n, classes)
    return [base + (1 if c < extra else 0) for c in range(classes)]


def synth_spirals(n, rng, classes=2, turns=1.75, noise_sd=0.15):
    """Interleaved 2-d spirals, one arm per class, radius 0.2 to 1.0.

    Class sizes are balanced to within one instance. Deterministic given rng.
    """
    if n < 1:
        raise EmptySampleError("need at least one instance")
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    xs, ys = [], []
    for c, count in enumerate(_balanced_counts(n, classes)):
        t = rng.random(count)
        r = 0.2 + 0.8 * t
        theta = 2.0 * np.pi * turns * t + 2.0 * np.pi * c / classes
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        pts += rng.normal(0.0, noise_sd, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(count, c, dtype=np.int64))
    return Dataset(np.concatenate(xs).astype(DTYPE), np.concatenate(ys), class_count=classes)


def synth_blobs(n, rng, centers, sd=1.0):
    """Isotropic gaussian blobs, one per row of centers, balanced within one."""
    try:
        centers = np.asarray(centers, dtype=DTYPE)
    except ValueError:
        raise ConfigError(f"centers must be a (K>=2, d) array of numbers, got {centers!r}") from None
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ConfigError(f"centers must be a (K>=2, d) array, got shape {centers.shape}")
    if n < 1:
        raise EmptySampleError("need at least one instance")
    k = centers.shape[0]
    xs, ys = [], []
    for c, count in enumerate(_balanced_counts(n, k)):
        xs.append(centers[c] + rng.normal(0.0, sd, size=(count, centers.shape[1])))
        ys.append(np.full(count, c, dtype=np.int64))
    return Dataset(np.concatenate(xs).astype(DTYPE), np.concatenate(ys), class_count=k)


def augment(x, rng, flip=False, pad=0, crop=None):
    """Random horizontal flips (p=0.5) and random zero-pad crops on a batch.

    The batch is zero-padded by pad on every side, the drawn instances are
    mirrored, and each instance keeps one window of its padded image: crop x
    crop, or the image's own (h, w) when crop is None. Flips draw first; the
    window's (row, col) offsets are drawn only when pad or crop is set, each
    in its own axis's range. Labels are untouched; pass the image batch only.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 4:
        raise ShapeError(f"augment expects an (N, C, H, W) batch, got shape {x.shape}")
    n, c, h, w = x.shape
    padded = (h + 2 * pad, w + 2 * pad)
    window = (h, w) if crop is None else (crop, crop)
    room = (padded[0] - window[0], padded[1] - window[1])
    if min(room) < 0:
        raise ConfigError(f"crop {crop} exceeds padded image ({padded[0]}x{padded[1]})")
    buf = np.zeros((n, c) + padded, dtype=DTYPE)
    buf[:, :, pad:pad + h, pad:pad + w] = x
    if flip:
        mirrored = rng.random(n) < 0.5
        buf[mirrored] = buf[mirrored, ..., ::-1]  # the padding is symmetric
    offsets = np.zeros((n, 2), dtype=np.int64)
    if pad or crop is not None:
        offsets = rng.integers(0, [room[0] + 1, room[1] + 1], size=(n, 2))
    windows = np.lib.stride_tricks.sliding_window_view(buf, window, axis=(2, 3))
    return windows[np.arange(n), :, offsets[:, 0], offsets[:, 1]]


@dataclass(frozen=True)
class Fold:
    train: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class FoldProtocol:
    """k disjoint folds, each split into a train and a test segment.

    One seeded permutation of all instances is cut into k consecutive blocks
    of train_size + test_size; the leading segment of each block trains, the
    trailing one tests. This is repeated evaluation on disjoint subsets, not
    cross-validation: no instance appears in more than one fold.
    """

    n_instances: int
    folds: tuple

    def save(self, path):
        doc = {
            "format": "maxgain-folds",
            "version": 1,
            "n_instances": self.n_instances,
            "folds": [{"train": f.train.tolist(), "test": f.test.tolist()} for f in self.folds],
        }
        write_text(path, json.dumps(doc) + "\n")

    @staticmethod
    def load(path):
        """The protocol saved at path. A file that is not one, an empty fold
        list, a fold with an empty train or test list, an index outside
        [0, n_instances) or an instance used twice is a FormatError."""
        doc = parse_fields(f"fold-protocol file {path}", _FOLDS_FILE, read_json(path), FormatError)
        n, folds, seen = doc["n_instances"], [], set()
        if not doc["folds"]:
            raise FormatError(f"{path}: the fold list is empty")
        for f, spec in enumerate(doc["folds"]):
            parts = parse_fields(f"fold {f} of {path}", _FOLD, spec, FormatError)
            for part, ids in parts.items():
                if not ids:
                    raise FormatError(f"{path}: fold {f} has an empty {part} list")
                for i in ids:
                    if type(i) is not int or not 0 <= i < n:
                        raise FormatError(f"{path}: fold {f} {part} index {i!r} is not in [0, {n})")
                    if i in seen:
                        raise FormatError(f"{path}: instance {i} is used twice (fold {f} {part})")
                    seen.add(i)
            folds.append(Fold(np.asarray(parts["train"], dtype=np.int64),
                              np.asarray(parts["test"], dtype=np.int64)))
        return FoldProtocol(n_instances=n, folds=tuple(folds))


# A saved FoldProtocol, and one fold of it.
_FOLDS_FILE = {"format": (one_of("maxgain-folds"), REQUIRED), "version": (one_of(1), REQUIRED),
               "n_instances": (integer, REQUIRED), "folds": (of_type(list), REQUIRED)}
_FOLD = {"train": (of_type(list), REQUIRED), "test": (of_type(list), REQUIRED)}


def make_folds(n, k, train_per_fold, test_per_fold, rng):
    """Split n instances into a k-fold protocol.

    Needs k * (train_per_fold + test_per_fold) <= n; leftover instances are
    simply unused.
    """
    k, tr, te = int(k), int(train_per_fold), int(test_per_fold)
    if k < 1 or tr < 1 or te < 1:
        raise ConfigError(f"fold geometry must be positive, got k={k} train={tr} test={te}")
    if k * (tr + te) > n:
        raise ConfigError(f"{k} folds of {tr}+{te} need {k * (tr + te)} instances, have {n}")
    perm = rng.permutation(n)
    folds = []
    for f in range(k):
        block = perm[f * (tr + te):(f + 1) * (tr + te)]
        folds.append(Fold(train=block[:tr].astype(np.int64), test=block[tr:].astype(np.int64)))
    return FoldProtocol(n_instances=n, folds=tuple(folds))
