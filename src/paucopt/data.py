"""Dataset container, CSV ingestion, synthetic generation, and stratified sampling."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for malformed inputs or contract violations in data handling."""


# Cells per block of a whole-table pass: a pass over n rows holds temporaries
# for one block at a time, so its memory does not grow with n.
BLOCK_CELLS = 1 << 15


def row_blocks(n: int, width: int):
    """Slices that cover rows 0..n-1 in order, for a pass over rows of `width`
    cells. Every block but the last has the same power-of-two number of rows,
    the most whose cells fit in BLOCK_CELLS (at least one row); the last also
    takes the rows left over, so it holds fewer than twice as many.

    Both choices keep a matrix product over the blocks bit-identical to one
    product over all rows: each row keeps its offset from a multiple of the
    BLAS kernels' unroll, and a lone last row, which numpy would send down its
    matrix-vector path, joins the block before it. (A threaded BLAS may split
    one product over all rows between its threads off that unroll: an mlp[32]
    or wider scorer then scored some rows in other last bits on 2 threads than
    on 1. The blocks gave the one-thread bits on both.)
    """
    rows = 1 << max(0, (BLOCK_CELLS // width).bit_length() - 1)
    count = max(1, n // rows)
    return (slice(k * rows, (k + 1) * rows if k < count - 1 else n) for k in range(count))


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with binary labels.

    Rows carry stable integer ids 0..n-1 (their row positions) used to
    index per-instance selection weights.
    """

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64, values in {0, 1}
    pos_ids: np.ndarray = field(init=False)
    neg_ids: np.ndarray = field(init=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels length must match feature rows")
        is_pos, is_neg = labels == 1, labels == 0
        if np.count_nonzero(is_pos) + np.count_nonzero(is_neg) != len(labels):
            raise DataError("label out of {0,1}")
        if not np.isfinite(feats).all():
            raise DataError("non-finite feature value")
        pos = np.flatnonzero(is_pos)
        neg = np.flatnonzero(is_neg)
        if len(pos) == 0 or len(neg) == 0:
            raise DataError("single-class data")
        feats.setflags(write=False)
        labels.setflags(write=False)
        pos.setflags(write=False)
        neg.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pos_ids", pos)
        object.__setattr__(self, "neg_ids", neg)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_pos(self) -> int:
        return len(self.pos_ids)

    @property
    def n_neg(self) -> int:
        return len(self.neg_ids)

    @property
    def prior_p(self) -> float:
        return self.n_pos / self.n


@dataclass(frozen=True)
class Minibatch:
    """Ids of one stratified draw: sampled without replacement within each class."""

    pos_ids: np.ndarray
    neg_ids: np.ndarray

    @property
    def size(self) -> int:
        return len(self.pos_ids) + len(self.neg_ids)


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/val/test proportions plus the shuffling seed."""

    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise DataError("split fractions must be nonnegative and sum to 1")


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a UTF-8 comma-separated file with a header row into a Dataset.

    Row order is preserved; ids are assigned 0..n-1 in file order. The file
    is parsed by np.loadtxt when it provably reads the same as the per-row
    parser _load_csv_rows; otherwise, or if that parse fails, _load_csv_rows
    reads it and raises its error naming the row and the column.
    """
    try:
        parsed = _load_csv_numpy(path, label_column)
    except ValueError:
        parsed = None
    if parsed is None:
        return _load_csv_rows(path, label_column)
    return Dataset(*parsed)


_LABELS = {"0": 0.0, "1": 1.0}


def _load_csv_numpy(path, label_column: str):
    """(features, labels) by np.loadtxt, or None where its parse could differ
    from _load_csv_rows': np.loadtxt skips blank lines and accepts non-finite
    values, so a file with a blank line or a non-finite feature is left to the
    per-row parser. Raises ValueError where np.loadtxt cannot read a cell,
    which includes every cell holding a csv quote."""
    lines = _count_lines(path)
    if lines is None or lines < 2:
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    if label_column not in header:
        return None
    label_idx = header.index(label_column)
    # An open file, not the path: given a path, np.loadtxt would unpack a .gz
    # file. A label cell must read exactly 0 or 1; a padded one such as " 0",
    # which _load_csv_rows strips, fails here and is left to it.
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        # only blank lines after the header: the row count below rejects it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(fh, delimiter=",", comments=None, skiprows=1, ndmin=2,
                           converters={label_idx: _LABELS.__getitem__})
    # a blank line that loadtxt skipped leaves the table a row short
    if table.shape != (lines - 1, len(header)):
        return None
    feats = np.delete(table, label_idx, axis=1)
    if not np.isfinite(feats).all():
        return None
    return feats, table[:, label_idx].astype(np.int64)


def _count_lines(path) -> int | None:
    """Number of lines of the file, or None where csv and np.loadtxt may split
    it apart: a CR that does not end a CRLF, or a line longer than csv's
    field size limit (csv raises on it, np.loadtxt does not)."""
    limit = csv.field_size_limit()
    lines, pos, last_lf = 0, 0, -1
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if chunk.endswith(b"\r"):          # keep a CRLF in one chunk
                chunk += fh.read(1)
            a = np.frombuffer(chunk, np.uint8)
            lf = np.flatnonzero(a == 10)
            # every CR sits right before an LF; an LF at offset 0 follows no CR
            # of this chunk, and a[0] is that LF itself
            if b"\r" in chunk and (np.count_nonzero(a == 13)
                                    != np.count_nonzero(a[np.maximum(lf - 1, 0)] == 13)):
                return None
            if np.diff(pos + lf, prepend=last_lf).max(initial=0) > limit:
                return None
            lines += len(lf)
            last_lf = pos + int(lf[-1]) if len(lf) else last_lf
            pos += len(a)
    if pos - 1 - last_lf > limit:
        return None
    return lines + (last_lf < pos - 1)


def _load_csv_rows(path, label_column: str = "label") -> Dataset:
    """load_csv one row at a time with csv.reader and float(): the parser of
    record, which names the row and the column of the first bad cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if label_column not in header:
                raise DataError(f"{path}: missing label column {label_column!r}")
            label_idx = header.index(label_column)
            feat_idx = [i for i in range(len(header)) if i != label_idx]
            rows, labels = [], []
            for r, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"{path}:{r}: expected {len(header)} fields, got {len(row)}")
                lab = row[label_idx].strip()
                if lab not in ("0", "1"):
                    raise DataError(f"{path}:{r}: label out of {{0,1}}: {lab!r}")
                try:
                    feats = [float(row[i]) for i in feat_idx]
                except ValueError:
                    bad = next(i for i in feat_idx if not _is_float(row[i]))
                    raise DataError(
                        f"{path}:{r}: unparseable value in column {header[bad]!r}: {row[bad]!r}"
                    ) from None
                if not all(np.isfinite(feats)):
                    raise DataError(f"{path}:{r}: non-finite feature value")
                rows.append(feats)
                labels.append(int(lab))
    except csv.Error as exc:
        # e.g. a cell longer than csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text, byte 0x{exc.object[exc.start]:02x} "
                        "cannot be decoded") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64))


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV (inverse of load_csv up to float formatting).

    The bytes are csv.writer's: a feature is its repr, which csv never
    quotes, and CRLF ends a row. Rows are formatted one row_blocks block of
    d + 1 cells a row at a time: besides the dataset the call holds one block's
    Python floats, text and encoded text, at most about 120 bytes a cell, so
    under 4 MB at any n and d (tracemalloc: 3.0 MB at d = 5, 1.5 MB at d = 100).
    """
    header = [f"x{j}" for j in range(ds.dim)]
    # load_csv would read the first column of that name as the labels
    if label_column in header:
        raise DataError(f"label_column must differ from the feature columns "
                        f"x0..x{ds.dim - 1}, got {label_column!r}")
    row = ",".join(["%r"] * ds.dim + ["%d"]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header + [label_column])
        for block in row_blocks(ds.n, ds.dim + 1):
            fh.write("".join([row % (*feats, label) for feats, label in
                              zip(ds.features[block].tolist(), ds.labels[block].tolist())]))


def generate_synthetic(n: int, imbalance: float, d: int = 5,
                       separation: float = 2.0, seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian blobs with means ±separation/2 on every axis.

    `imbalance` is the positive-class fraction; deterministic per seed. Both
    blobs are drawn into one (n, d) buffer, so besides the result it holds one
    n×d copy and the n-length permutation at once.
    """
    # each condition is False for NaN, so NaN fails every check
    for name, value, ok, rule in (
            ("n", n, n >= 4, "be at least 4"),
            ("imbalance", imbalance, 0.0 < imbalance < 1.0, "lie in (0,1)"),
            ("separation", separation, separation >= 0, "be nonnegative"),
            ("d", d, d >= 1, "be at least 1")):
        if not ok:
            raise DataError(f"{name} must {rule}, got {value!r}")
    n_pos = int(round(n * imbalance))
    n_pos = min(max(n_pos, 1), n - 1)
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    feats = np.empty((n, d))
    # positives first, then negatives: one draw per blob, as the stream runs
    rng.standard_normal(out=feats[:n_pos])
    rng.standard_normal(out=feats[n_pos:])
    feats[:n_pos] += half
    feats[n_pos:] -= half
    perm = rng.permutation(n)
    # row perm[i] of feats is a positive exactly when perm[i] < n_pos
    return Dataset(feats[perm], (perm < n_pos).astype(np.int64))


def stratified_sample(ds: Dataset, n_pos_b: int, n_neg_b: int,
                      rng: np.random.Generator) -> Minibatch:
    """Draw a minibatch without replacement within each class."""
    if n_pos_b < 1 or n_neg_b < 1:
        raise DataError("batch sizes must be at least 1 per class")
    if n_pos_b > ds.n_pos or n_neg_b > ds.n_neg:
        raise DataError(
            f"batch request ({n_pos_b} pos, {n_neg_b} neg) exceeds class sizes "
            f"({ds.n_pos} pos, {ds.n_neg} neg)"
        )
    pos = rng.choice(ds.pos_ids, size=n_pos_b, replace=False)
    neg = rng.choice(ds.neg_ids, size=n_neg_b, replace=False)
    return Minibatch(pos, neg)


def _allocate(count: int, fracs) -> list[int]:
    # floor allocation, remainder to the largest fractional parts,
    # ties broken by split order (train, val, test)
    floors = [int(count * f + 1e-9) for f in fracs]
    rema = [count * f - fl for f, fl in zip(fracs, floors)]
    leftover = count - sum(floors)
    order = sorted(range(len(fracs)), key=lambda i: (-rema[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified split into train/val/test with proportional per-class counts.

    Each part's ids are its per-class slices of the two shuffled classes,
    joined and sorted as arrays: besides the parts it holds those n ids and
    one part's ids at once, and no Python list of ids.
    """
    fracs = (spec.train_frac, spec.val_frac, spec.test_frac)
    rng = np.random.default_rng(spec.seed)
    buckets = [[], [], []]
    for ids in (ds.pos_ids, ds.neg_ids):
        counts = _allocate(len(ids), fracs)
        if any(c == 0 and f > 0 for c, f in zip(counts, fracs)):
            raise DataError("split too small to keep both classes in every part")
        perm = rng.permutation(ids)
        start = 0
        for k, c in enumerate(counts):
            buckets[k].append(perm[start:start + c])
            start += c
    parts = []
    for slices in buckets:
        idx = np.concatenate(slices)
        idx.sort()
        parts.append(Dataset(ds.features.take(idx, axis=0), ds.labels.take(idx)))
    return tuple(parts)
