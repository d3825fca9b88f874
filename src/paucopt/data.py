"""Dataset container, CSV ingestion, synthetic generation, and stratified sampling."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DataError(ValueError):
    """Raised for malformed inputs or contract violations in data handling."""


class SingleClassError(DataError):
    """Raised by Dataset for rows that hold one class only, or no row."""


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
    index per-instance selection weights. A class's ids are built on their
    first read and kept: a Dataset that is never sampled holds 8d + 1 bytes
    a row.
    """

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int8, values in {0, 1}
    n_pos: int = field(init=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels length must match feature rows")
        # strings and objects compare with 1 by rules that differ between
        # numpy versions: refused before any comparison
        if labels.dtype.kind not in "biuf":
            raise DataError(f"label out of {{0,1}}: labels of dtype {labels.dtype}")
        # every other value, 0.5, NaN and inf among them, is neither class
        is_pos = labels == 1
        n_pos, n_neg = np.count_nonzero(is_pos), np.count_nonzero(labels == 0)
        if n_pos + n_neg != len(labels):
            raise DataError("label out of {0,1}")
        # NaN and inf reach the extremes: no mask of a byte a cell is made
        if feats.size and not (np.isfinite(feats.min()) and np.isfinite(feats.max())):
            raise DataError("non-finite feature value")
        if n_pos == 0 or n_neg == 0:
            raise SingleClassError("single-class data")
        # one byte a label: the class mask itself, read as 0/1
        is_pos.setflags(write=False)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", is_pos.view(np.int8))
        object.__setattr__(self, "n_pos", int(n_pos))

    @cached_property
    def pos_ids(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.labels))

    @cached_property
    def neg_ids(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.labels == 0))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_neg(self) -> int:
        return self.n - self.n_pos

    @property
    def prior_p(self) -> float:
        return self.n_pos / self.n


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        # a part of no rows cannot keep both classes; NaN compares False and fails
        for name, value in zip(("train_frac", "val_frac", "test_frac"), fracs):
            if not value > 0:
                raise DataError(f"{name} must be above 0, got {float(value)!r}")
        total = float(sum(fracs))
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"split fractions must sum to 1, got {total!r}")
        if not self.seed >= 0:
            raise DataError(f"seed must be at least 0, got {self.seed!r}")


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a UTF-8 comma-separated file with a header row into a Dataset.

    Row order is preserved; ids are assigned 0..n-1 in file order. The file
    is parsed by np.loadtxt in one pass, which checks each line as it takes
    it; where the parse could differ from the per-row parser _load_csv_rows,
    or fails, _load_csv_rows reads the file and raises its error naming the
    row and the column. A table that parsed but holds one class is refused
    as it stands: the row parser would read the same rows and refuse them
    alike.
    """
    try:
        return _load_csv_numpy(path, label_column)
    except SingleClassError:
        raise
    except ValueError:
        return _load_csv_rows(path, label_column)


_LABELS = {"0": 0.0, "1": 1.0}


def _load_csv_numpy(path, label_column: str) -> Dataset:
    """The Dataset by np.loadtxt, from one pass over the file opened with
    universal newlines: they end a line at an LF, a CRLF and a lone CR, which
    is where csv.reader ends an unquoted row. Each line is checked as
    np.loadtxt takes it. Raises ValueError where np.loadtxt cannot read a
    cell, which includes every cell holding a csv quote, and where its parse
    could differ from _load_csv_rows':
    - a header holding a quote, which csv reads otherwise than split(","),
      or a NUL, which csv refuses on Python 3.10;
    - a blank line (one that isspace()), which np.loadtxt skips, and a line
      longer than csv.field_size_limit(), on which csv raises;
    - rows of another width than the header, or no data row;
    - a non-finite feature, which np.loadtxt accepts and the Dataset refuses.
    The Dataset's SingleClassError is raised as it is.
    """
    limit = csv.field_size_limit()

    def checked(fh):
        for line in fh:
            if line.isspace() or len(line) > limit:
                raise DataError(f"{path}: a blank line, or a line over csv's field size limit")
            yield line

    with open(path, encoding="utf-8") as fh:
        lines = checked(fh)
        line = next(lines, "")
        if '"' in line or "\0" in line:
            raise DataError(f"{path}: a header that csv may read otherwise")
        header = line.removesuffix("\n").split(",")
        if label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        label_idx = header.index(label_column)
        # A label cell must read exactly 0 or 1; a padded one such as " 0",
        # which _load_csv_rows strips, fails here and is left to it.
        with warnings.catch_warnings():
            # no data row: refused below, and _load_csv_rows names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                               converters={label_idx: _LABELS.__getitem__})
    if table.shape[1] != len(header) or not len(table):
        raise DataError(f"{path}: no data row, or rows of another width than the header")
    n, d = table.shape[0], table.shape[1] - 1
    # taken first: the compaction below writes over the label column
    labels = table[:, label_idx].astype(np.int8)
    # The features are compacted in place, one block of rows after the other:
    # a block's rows move to lower offsets of the buffer, which the blocks
    # before it have already read, and its copy is taken before it is written.
    for block in row_blocks(n, d + 1):
        table.reshape(-1)[block.start * d:block.stop * d] = \
            np.delete(table[block], label_idx, axis=1).ravel()
    # the buffer shrinks to the n*d features in place: no second n*d copy
    table.resize((n, d), refcheck=False)
    return Dataset(table, labels)


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
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int8))


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV (inverse of load_csv up to float formatting).

    The bytes are csv.writer's: a feature is its repr, which csv never
    quotes, and CRLF ends a row. Rows are formatted in blocks of BLOCK_CELLS / 4
    feature cells, one column at a time. Besides the dataset the call holds one
    block's Python floats, rows, text and encoded text, about 80 bytes a
    feature cell (a label is one of two constant strings), so about 1 MB at any
    n and d (tracemalloc: 1.0 MB at d = 1, 0.66 MB at d = 5, 0.63 MB at d = 100).
    """
    header = [f"x{j}" for j in range(ds.dim)]
    # load_csv would read the first column of that name as the labels
    if label_column in header:
        raise DataError(f"label_column must differ from the feature columns "
                        f"x0..x{ds.dim - 1}, got {label_column!r}")
    # a fixed number of rows: no block takes rows left over, so the held text
    # grows with neither n nor d (d is 0 for a label-only CSV's Dataset)
    rows = max(1, BLOCK_CELLS // (4 * max(1, ds.dim)))
    ends = ("0\r\n", "1\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header + [label_column])
        for start in range(0, ds.n, rows):
            feats = ds.features[start:start + rows]
            cols = [map(float.__repr__, feats[:, j].tolist()) for j in range(ds.dim)]
            cols.append([ends[label] for label in ds.labels[start:start + rows].tolist()])
            fh.write("".join(map(",".join, zip(*cols))))


def generate_synthetic(n: int, imbalance: float, d: int = 5,
                       separation: float = 2.0, seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian blobs with means ±separation/2 on every axis.

    `imbalance` is the positive-class fraction; deterministic per seed. The
    rng draws each row's class first (row i is a positive when entry i of a
    permutation of 0..n-1 is below round(n * imbalance)), then every row's
    features in row order, which are shifted in place through the class
    mask. Besides the result it holds the n-length permutation while the
    classes are drawn, and then a byte a row: the negated mask.
    """
    # each condition is False for NaN, so NaN fails every check
    for name, value, ok, rule in (
            ("n", n, n >= 4, "be at least 4"),
            ("imbalance", imbalance, 0.0 < imbalance < 1.0, "lie in (0,1)"),
            ("separation", separation, separation >= 0, "be nonnegative"),
            ("d", d, d >= 1, "be at least 1"),
            ("seed", seed, seed >= 0, "be at least 0")):
        if not ok:
            raise DataError(f"{name} must {rule}, got {value!r}")
    n_pos = int(round(n * imbalance))
    n_pos = min(max(n_pos, 1), n - 1)
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    labels = rng.permutation(n) < n_pos
    feats = rng.standard_normal((n, d))
    # through the mask: neither class's rows are copied
    np.add(feats, half, out=feats, where=labels[:, None])
    np.subtract(feats, half, out=feats, where=~labels[:, None])
    return Dataset(feats, labels)


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

    Each class's shuffled rows take the part numbers 0, 1, 2 (train, val,
    test) in runs of the part's count, in one int8 array over the rows; a
    part's ids are then the rows of its number, in id order. A class's
    numbers reach its rows through its label mask, so neither ds nor a part
    builds its class ids. Besides the parts it holds that byte a row and one
    part's ids at once.
    """
    fracs = (spec.train_frac, spec.val_frac, spec.test_frac)
    rng = np.random.default_rng(spec.seed)
    part = np.empty(ds.n, dtype=np.int8)
    for label, count in ((1, ds.n_pos), (0, ds.n_neg)):
        counts = _allocate(count, fracs)
        if any(c == 0 and f > 0 for c, f in zip(counts, fracs)):
            raise DataError("split too small to keep both classes in every part")
        # the draws of rng.permutation(ids): the class's k-th row takes runs[k]
        runs = np.empty(count, dtype=np.int8)
        runs[rng.permutation(count)] = np.repeat(np.arange(3, dtype=np.int8), counts)
        part[ds.labels == label] = runs
    del runs
    parts = []
    for k in range(3):
        idx = np.flatnonzero(part == k)
        parts.append(Dataset(ds.features.take(idx, axis=0), ds.labels.take(idx)))
    return tuple(parts)
