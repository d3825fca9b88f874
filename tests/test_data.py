import csv
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paucopt.data
from paucopt.data import (
    BLOCK_CELLS,
    DataError,
    Dataset,
    SingleClassError,
    SplitSpec,
    _allocate,
    _load_csv_numpy,
    _load_csv_rows,
    generate_synthetic,
    load_csv,
    row_blocks,
    save_csv,
    split,
    stratified_sample,
)


def write_csv(path, rows, header="x0,x1,label"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_counts_and_prior(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["1.0,2.0,1", "0.5,1.0,1", "0.1,0.2,0", "0.3,0.1,0",
                      "0.2,0.2,0"])
        ds = load_csv(f)
        assert ds.n_pos == 2
        assert ds.n_neg == 3
        assert ds.prior_p == pytest.approx(0.4)

    def test_label_out_of_range(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["1.0,2.0,2", "0.1,0.2,0"])
        with pytest.raises(DataError, match="label out of"):
            load_csv(f)

    def test_single_class_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["1.0,2.0,1", "0.1,0.2,1"])
        with pytest.raises(DataError, match="single-class"):
            load_csv(f)

    def test_unparseable_cell_reports_location(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["1.0,oops,1", "0.1,0.2,0"])
        with pytest.raises(DataError, match="x1"):
            load_csv(f)

    def test_single_class_refused_without_the_row_parser(self, tmp_path, monkeypatch):
        def row_parser(*args):
            raise AssertionError("the per-row parser read the file")

        monkeypatch.setattr(paucopt.data, "_load_csv_rows", row_parser)
        f = tmp_path / "d.csv"
        write_csv(f, ["1.0,2.0,1", "0.1,0.2,1"])
        with pytest.raises(SingleClassError, match="^single-class data$"):
            load_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(50, 0.3, 3, 1.0, seed=1)
        f = tmp_path / "d.csv"
        save_csv(ds, f)
        back = load_csv(f)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


def parse_outcome(load, path):
    """What a CSV loader makes of a file: the exact feature bits and the labels,
    or the type and message of the DataError it raised."""
    try:
        ds = load(path)
    except DataError as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tolist()


def served_by_numpy(path) -> bool:
    try:
        _load_csv_numpy(path, "label")
    except ValueError:
        return False
    return True


H = "x0,x1,label"


def crlf_across(offset):
    """A CRLF file whose CR is its byte offset - 1 and whose LF is offset."""
    row = "0.25,3e-3,0\r\n"
    text = f"{H}\r\n1.5,-2,1\r\n" + row * (offset // len(row) - 3)
    # one row of "1." + k zeros + "5,-2,1" ends at the CR
    text += "1." + "0" * (offset - 1 - len(text) - len("1.5,-2,1")) + "5,-2,1\r\n"
    assert text.endswith("\r\n") and len(text) == offset + 1
    return text + row


# name: (file text or bytes, whether _load_csv_numpy makes its Dataset;
# _load_csv_rows reads the rest)
EDGE_CASES = {
    "lf": (f"{H}\n1.5,-2,1\n0.25,3e-3,0\n", True),
    "crlf": (f"{H}\r\n1.5,-2,1\r\n0.25,3e-3,0\r\n", True),
    "no final newline": (f"{H}\n1.5,-2,1\n0.25,3e-3,0", True),
    "label first": ("label,x0\n1,1.5\n0,-0.0\n", True),
    "padded features": (f"{H}\n 1.5 ,\t-2\xa0,1\n0.25,3e-3,0\n", True),
    "bom": (f"\ufeff{H}\n1.5,-2,1\n0.25,3e-3,0\n", True),
    # one row holds one class: the Dataset refuses it, and load_csv raises
    # that refusal without the per-row parser
    "single data row": (f"{H}\n1.5,-2,1\n", False),
    "blank line in the middle": (f"{H}\n1.5,-2,1\n\n0.25,3e-3,0\n", False),
    "blank line at the end": (f"{H}\n1.5,-2,1\n0.25,3e-3,0\n\n", False),
    "blank crlf line": (f"{H}\r\n1.5,-2,1\r\n\r\n0.25,3e-3,0\r\n", False),
    "whitespace line": (f"{H}\n1.5,-2,1\n \n0.25,3e-3,0\n", False),
    "cr only": (f"{H}\r1.5,-2,1\r0.25,3e-3,0\r", True),
    "cr inside crlf": (f"{H}\r\n1.5,-2,1\r0.25,3e-3,0\r\n", True),
    "cr only with a blank line": (f"{H}\r1.5,-2,1\r\r0.25,3e-3,0\r", False),
    "crlf across the 1 MiB offset": (crlf_across(1 << 20), True),
    "blank line and a lone cr": (f"{H}\r\n\n1.5,-2,1\r0.25,3e-3,0\n", False),
    "nan": (f"{H}\nnan,-2,1\n0.25,3e-3,0\n", False),
    "inf": (f"{H}\n1.5,-Infinity,1\n0.25,3e-3,0\n", False),
    "label 1.0": (f"{H}\n1.5,-2,1.0\n0.25,3e-3,0\n", False),
    "label +1": (f"{H}\n1.5,-2,+1\n0.25,3e-3,0\n", False),
    "label padded": (f"{H}\n1.5,-2, 0\n0.25,3e-3,1\t\n", False),
    "quoted cell": (f'{H}\n"1.5",-2,1\n0.25,3e-3,"0"\n', False),
    "quoted newline": (f'{H}\n"1.5\n",-2,1\n0.25,3e-3,0\n', False),
    "quoted header": (f'"x,0\n",x1,label\n1.5,-2,1\n0.25,3e-3,0\n', False),
    # csv reads the label from the first column, split(",") from the second
    "quoted label column": ('"label",label\n1,0\n0,1\n', False),
    "hash": (f"{H}\n1.5,-2,1\n#0.25,3e-3,0\n", False),
    "underscore": (f"{H}\n1_5,-2,1\n0.25,3e-3,0\n", False),
    "non-ascii digit": (f"{H}\n\u0661,-2,1\n0.25,3e-3,0\n", False),
    "nul": (f"{H}\n1.5\x00,-2,1\n0.25,3e-3,0\n", False),
    "nul in the header": (f"x0\x00,x1,label\n1.5,-2,1\n0.25,3e-3,0\n", False),
    "ragged row": (f"{H}\n1.5,1\n0.25,3e-3,0\n", False),
    # np.loadtxt reads a table one column narrower than the header
    "every row short a field": ("label,x0\n1\n0\n", False),
    "extra field": (f"{H}\n1.5,-2,1,\n0.25,3e-3,0\n", False),
    "empty field": (f"{H}\n1.5,,1\n0.25,3e-3,0\n", False),
    "header only": (f"{H}\n", False),
    # np.loadtxt reads a (0, 1) table, the header's width
    "label column only, no rows": ("label\n", False),
    # no feature column: the finiteness check has no cell to read
    "label column only": ("label\n1\n0\n", True),
    "only blank lines": (f"{H}\n\n\n", False),
    "empty file": ("", False),
    "missing label column": ("x0,x1,y\n1.5,-2,1\n0.25,3e-3,0\n", False),
    "bom on the label column": ("\ufefflabel,x0\n1,1.5\n0,2.5\n", False),
    "field over the csv size limit": (
        f"{H}\n0.{'0' * csv.field_size_limit()}1,-2,1\n0.25,3e-3,0\n", False),
    "undecodable byte": (f"{H}\n1.5,-2,1\n".encode() + b"\xff.25,3e-3,0\n", False),
}
# The DataError message of each case whose error csv.reader or the UTF-8
# decoder raises, after the path.
DECODE_ERRORS = {
    "field over the csv size limit":
        f":2: field larger than field limit ({csv.field_size_limit()})",
    "undecodable byte": ": not UTF-8 text, byte 0xff cannot be decoded",
}


class TestLoadCsvNumpyPath:
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_matches_per_row_parser(self, tmp_path, name):
        text, numpy_reads = EDGE_CASES[name]
        f = tmp_path / "d.csv"
        if isinstance(text, bytes):
            f.write_bytes(text)
        else:
            f.write_text(text, encoding="utf-8", newline="")
        assert parse_outcome(load_csv, f) == parse_outcome(_load_csv_rows, f)
        assert served_by_numpy(f) == numpy_reads
        if name in DECODE_ERRORS:
            assert parse_outcome(load_csv, f) == (DataError, f"{f}{DECODE_ERRORS[name]}")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_features_bit_identical_to_float(self, tmp_path_factory, data):
        n, d = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 4))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n * d, max_size=n * d))
        forms = [repr, "{:.3f}".format, "{:.6e}".format, "{:.17g}".format,
                 lambda v: f" {v!r}\t"]
        cells = [data.draw(st.sampled_from(forms))(v) for v in values]
        labels = ["1", "0"] + data.draw(st.lists(st.sampled_from("01"),
                                                 min_size=n - 2, max_size=n - 2))
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        lines = [",".join([f"x{j}" for j in range(d)] + ["label"])]
        lines += [",".join(cells[i * d:(i + 1) * d] + [labels[i]]) for i in range(n)]
        f = tmp_path_factory.mktemp("csv") / "d.csv"
        f.write_text(end.join(lines) + end, encoding="utf-8", newline="")
        assert served_by_numpy(f)
        assert parse_outcome(load_csv, f) == parse_outcome(_load_csv_rows, f)


def save_csv_oracle(ds, path, label_column="label"):
    """save_csv through csv.writer, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(ds.dim)] + [label_column])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.features[i]]
                            + [int(ds.labels[i])])


class TestSaveCsv:
    @pytest.mark.parametrize("label_column", ["label", 'la,"bel"'])
    def test_bytes_match_csv_writer(self, tmp_path, label_column):
        ds = generate_synthetic(50, 0.3, 3, 1.0, seed=1)
        odd = np.array([[-0.0, 5e-324, 1e300], [1 / 3, -2.5e-8, 123456789.0]])
        ds = Dataset(np.vstack([ds.features, odd]), np.concatenate([ds.labels, [1, 0]]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, a, label_column)
        save_csv_oracle(ds, b, label_column)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_csv_writer_across_blocks(self, tmp_path):
        ds = generate_synthetic(70_000, 0.5, 1, 1.0, seed=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, a)
        save_csv_oracle(ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_peak_allocation_grows_with_neither_n_nor_d(self, tmp_path):
        def peak(n, d):
            ds = generate_synthetic(n, 0.1, d, 2.0, seed=0)
            tracemalloc.start()
            try:
                save_csv(ds, tmp_path / "d.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 2e3 x 100 spans 7 blocks; 2e4 x 100 would take ~10 s under tracemalloc
        base, more_rows, more_columns = peak(20_000, 5), peak(200_000, 5), peak(2_000, 100)
        # blocks of a fixed 65536 rows held 25.6 MB at 2e5 x 5 and 10.6 MB at 2e3 x 100
        assert more_rows <= base + 65536, (base, more_rows)
        assert more_columns <= base + 65536, (base, more_columns)


@given(st.integers(0, 200_000), st.integers(1, 1 << 16))
@settings(deadline=None)
def test_row_blocks_tile_the_rows_in_blocks_of_a_power_of_two(n, width):
    # the most rows of a power of two whose cells fit in BLOCK_CELLS, or one
    rows = max([1] + [1 << k for k in range(16) if (1 << k) * width <= BLOCK_CELLS])
    blocks = list(row_blocks(n, width))
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert [b.stop for b in blocks] == [rows * (k + 1) for k in range(len(blocks) - 1)] + [n]
    # the last block takes the rows left over, so none is shorter than the rest
    assert min(rows, n) <= n - blocks[-1].start < 2 * rows


@pytest.mark.parametrize("make,message", [
    (lambda: Dataset(np.zeros(4), np.array([0, 1, 0, 1])), "2-D"),
    (lambda: Dataset(np.zeros((4, 1)), np.array([0, 1, 0])), "labels length"),
    (lambda: Dataset(np.zeros((2, 1)), np.array([0, 2])), "label out of"),
    (lambda: Dataset(np.zeros((3, 1)), [0.5, 1.7, 1.0]), "label out of"),
    (lambda: Dataset(np.zeros((3, 1)), [np.nan, 0.0, 1.0]), "label out of"),
    (lambda: Dataset(np.zeros((3, 1)), [np.inf, 0.0, -np.inf]), "label out of"),
    (lambda: Dataset(np.zeros((2, 1)), np.array(["0", "1"])), "label out of"),
    (lambda: Dataset(np.array([[0.0], [np.nan]]), np.array([0, 1])), "non-finite"),
    (lambda: Dataset(np.array([[0.0, np.inf], [1.0, 2.0]]), np.array([0, 1])), "non-finite"),
    (lambda: Dataset(np.array([[-np.inf], [np.nan], [np.inf]]), np.array([0, 1, 0])),
     "^non-finite feature value$"),
    (lambda: SplitSpec(0.7, 0.2, 0.2), "split fractions"),
    (lambda: SplitSpec(1.2, -0.1, -0.1), "^val_frac must be above 0, got -0.1$"),
    (lambda: generate_synthetic(100, 0.5, 0, 1.0, seed=0), "d must be at least 1"),
    (lambda: generate_synthetic(100, 0.5, 2, float("nan"), seed=0),
     "^separation must be nonnegative, got nan$"),
    (lambda: stratified_sample(generate_synthetic(20, 0.5, 1, 1.0, seed=0), 0, 2,
                               np.random.default_rng(0)), "at least 1 per class"),
    (lambda: SplitSpec(0.85, 0.15, 0.0), "^test_frac must be above 0, got 0.0$"),
    (lambda: SplitSpec(0.7, float("nan"), 0.3), "^val_frac must be above 0, got nan$"),
    (lambda: SplitSpec(seed=-1), "^seed must be at least 0, got -1$"),
    (lambda: generate_synthetic(100, 0.5, 2, 1.0, seed=-1), "^seed must be at least 0, got -1$"),
], ids=["1-D", "label-length", "label-value", "label-fraction", "label-nan", "label-inf",
        "label-string", "nan-feature", "inf-feature", "mixed-non-finite-features", "split-sum",
        "split-negative", "d", "separation-nan", "sample-size", "split-zero", "split-nan",
        "split-seed", "seed"])
def test_invalid_input_raises(make, message):
    with pytest.raises(DataError, match=message):
        make()


class TestDataset:
    def test_requires_both_classes(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.array([1, 1, 1]))

    def test_prior_matches_labels(self):
        ds = generate_synthetic(100, 0.25, 2, 1.0, seed=3)
        assert ds.prior_p == ds.labels.mean()

    def test_immutable(self):
        ds = generate_synthetic(10, 0.5, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0


def built_ids(ds):
    """The names of the class ids ds holds so far."""
    return {"pos_ids", "neg_ids"} & vars(ds).keys()


class TestClassIdsOnDemand:
    def test_no_dataset_maker_builds_ids(self, tmp_path):
        ds = generate_synthetic(200, 0.3, 2, 1.0, seed=5)
        save_csv(ds, tmp_path / "d.csv")
        made = [Dataset(np.zeros((3, 1)), np.array([1, 0, 1])), ds,
                load_csv(tmp_path / "d.csv"), *split(ds, SplitSpec(seed=5))]
        assert [built_ids(x) for x in made] == [set()] * 6

    @pytest.mark.parametrize("name,label", [("pos_ids", 1), ("neg_ids", 0)])
    def test_first_read_builds_the_ids_once(self, name, label):
        ds = generate_synthetic(200, 0.3, 2, 1.0, seed=5)
        ids = getattr(ds, name)
        np.testing.assert_array_equal(ids, np.flatnonzero(ds.labels == label))
        assert ids.dtype == np.int64
        assert not ids.flags.writeable
        assert getattr(ds, name) is ids
        assert built_ids(ds) == {name}

    def test_counts_build_no_ids(self):
        ds = generate_synthetic(200, 0.3, 2, 1.0, seed=5)
        assert (ds.n_pos, ds.n_neg, ds.prior_p) == (60, 140, 0.3)
        assert built_ids(ds) == set()


class TestGenerateSynthetic:
    def test_counts(self):
        ds = generate_synthetic(1000, 0.1, 5, 2.0, seed=7)
        assert ds.n_pos == 100
        assert ds.n_neg == 900

    def test_deterministic(self):
        a = generate_synthetic(200, 0.2, 4, 1.0, seed=42)
        b = generate_synthetic(200, 0.2, 4, 1.0, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_separation_auc_near_half(self):
        # Bayes-optimal linear scorer has no signal when the blobs coincide
        ds = generate_synthetic(10000, 0.5, 3, 0.0, seed=5)
        proj = ds.features.sum(axis=1)  # the separation direction
        pos = proj[ds.pos_ids]
        neg = proj[ds.neg_ids]
        auc = (pos[:, None] > neg[None, :]).mean()
        assert abs(auc - 0.5) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("imbalance", [0.1, 0.5])
    def test_each_class_is_its_blob(self, imbalance, seed):
        # against the distribution, not a second draw of the same stream: a
        # sign or shift slip shared by the code and its stream oracle shows here
        n, d, separation = 200_000, 5, 2.0
        ds = generate_synthetic(n, imbalance, d, separation, seed=seed)
        want_pos = min(max(round(n * imbalance), 1), n - 1)
        assert (ds.n_pos, ds.n_neg) == (want_pos, n - want_pos)
        for label, center in ((1, separation / 2), (0, -separation / 2)):
            rows = ds.features[ds.labels == label]
            m = len(rows)
            # standard errors of a unit normal's sample mean and variance
            assert np.all(np.abs(rows.mean(axis=0) - center) <= 5 / np.sqrt(m))
            assert np.all(np.abs(rows.var(axis=0, ddof=1) - 1.0) <= 5 * np.sqrt(2 / (m - 1)))

    def test_degenerate_params(self):
        with pytest.raises(DataError):
            generate_synthetic(2, 0.5, 2, 1.0, seed=0)
        with pytest.raises(DataError):
            generate_synthetic(100, 0.0, 2, 1.0, seed=0)
        with pytest.raises(DataError):
            generate_synthetic(100, 0.5, 2, -1.0, seed=0)


class TestStratifiedSample:
    def test_exhaustive_draw_is_permutation(self, tiny_ds):
        rng = np.random.default_rng(0)
        mb = stratified_sample(tiny_ds, 2, 3, rng)
        assert sorted(mb.pos_ids) == list(tiny_ds.pos_ids)
        assert sorted(mb.neg_ids) == list(tiny_ds.neg_ids)

    def test_oversized_request(self, tiny_ds):
        with pytest.raises(DataError):
            stratified_sample(tiny_ds, 1, 4, np.random.default_rng(0))

    def test_deterministic_sequence(self, tiny_ds):
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            seqs.append([stratified_sample(tiny_ds, 1, 2, rng) for _ in range(5)])
        for a, b in zip(*seqs):
            np.testing.assert_array_equal(a.pos_ids, b.pos_ids)
            np.testing.assert_array_equal(a.neg_ids, b.neg_ids)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_duplicates_within_class(self, seed):
        ds = generate_synthetic(40, 0.4, 2, 1.0, seed=1)
        rng = np.random.default_rng(seed)
        mb = stratified_sample(ds, 8, 12, rng)
        assert len(set(mb.pos_ids)) == 8
        assert len(set(mb.neg_ids)) == 12
        assert set(mb.pos_ids) <= set(ds.pos_ids)
        assert set(mb.neg_ids) <= set(ds.neg_ids)


class TestSplit:
    def test_proportional_counts(self):
        labels = np.array([1] * 10 + [0] * 90)
        ds = Dataset(np.arange(100, dtype=float).reshape(-1, 1), labels)
        tr, va, te = split(ds, SplitSpec(0.7, 0.15, 0.15, seed=0))
        assert tr.n_pos == 7
        assert tr.n_neg == 63
        assert tr.n + va.n + te.n == ds.n

    def test_disjoint_union(self):
        ds = generate_synthetic(200, 0.3, 2, 1.0, seed=2)
        tr, va, te = split(ds, SplitSpec(seed=2))
        seen = np.concatenate([p.features[:, 0] for p in (tr, va, te)])
        assert len(seen) == ds.n
        assert set(np.round(seen, 12)) == set(np.round(ds.features[:, 0], 12))

    def test_single_positive_rejected(self):
        labels = np.array([1] + [0] * 20)
        ds = Dataset(np.zeros((21, 1)), labels)
        with pytest.raises(DataError):
            split(ds, SplitSpec(0.7, 0.15, 0.15, seed=0))

    def test_deterministic(self):
        ds = generate_synthetic(100, 0.3, 2, 1.0, seed=4)
        a = split(ds, SplitSpec(seed=11))
        b = split(ds, SplitSpec(seed=11))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)


def generate_synthetic_oracle(n, imbalance, d, separation, seed):
    """generate_synthetic as a loop over the rows: the classes from one
    permutation, then each row's features drawn and shifted on their own."""
    n_pos = min(max(int(round(n * imbalance)), 1), n - 1)
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    labels = [int(k < n_pos) for k in rng.permutation(n).tolist()]
    rows = [rng.standard_normal(d) + (half if label else -half) for label in labels]
    return Dataset(np.array(rows), np.array(labels, dtype=np.int64))


def split_oracle(ds, spec):
    """split with each part's ids gathered one numpy scalar at a time in a list."""
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
            buckets[k].extend(perm[start:start + c])
            start += c
    return tuple(Dataset(ds.features[idx], ds.labels[idx])
                 for idx in (np.sort(np.asarray(b, dtype=np.int64)) for b in buckets))


def bits(ds):
    """The shape, dtypes and exact bytes of a Dataset's arrays."""
    return ds.features.shape, *((a.dtype.str, a.tobytes())
                                for a in (ds.features, ds.labels, ds.pos_ids, ds.neg_ids))


def split_outcome(split_fn, ds, spec):
    """bits of each part split_fn makes, or the message of its DataError."""
    try:
        return [bits(part) for part in split_fn(ds, spec)]
    except DataError as exc:
        return str(exc)


# (n, positive fraction, d, separation); 1e-9 rounds to a single positive
ORACLE_GRID = list(itertools.product((4, 5, 2000, 70_000), (1e-9, 0.1, 0.5), (1, 5), (0.0, 2.0)))
# a fraction too small for one row of a class leaves a part empty, and both
# raise on it alike (SplitSpec refuses a fraction of 0)
SPLIT_FRACS = [(0.7, 0.15, 0.15), (0.8, 1e-12, 0.2 - 1e-12), (0.5, 0.5 - 1e-12, 1e-12),
               (1.0 - 2e-12, 1e-12, 1e-12)]


class TestDataStageMatchesOracle:
    @pytest.mark.parametrize("n,imbalance,d,separation", ORACLE_GRID)
    def test_generate_and_split_bit_identical(self, n, imbalance, d, separation):
        seed = n + d
        ds = generate_synthetic(n, imbalance, d, separation, seed=seed)
        want = generate_synthetic_oracle(n, imbalance, d, separation, seed)
        assert bits(ds) == bits(want)
        for fracs in SPLIT_FRACS:
            spec = SplitSpec(*fracs, seed=seed + 1)
            assert split_outcome(split, ds, spec) == split_outcome(split_oracle, ds, spec)


class TestDataStageMemory:
    """tracemalloc peak minus what the result retains, at 2e5 x 5."""

    N, D = 200_000, 5

    @staticmethod
    def traced(make):
        """make's result and tracemalloc's (current, peak) bytes over the call."""
        tracemalloc.start()
        try:
            made = make()
            return made, tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def transient(self, make) -> int:
        _, (current, peak) = self.traced(make)
        return peak - current

    def generate(self):
        return generate_synthetic(self.N, 0.1, self.D, 2.0, seed=0)

    def test_generate_synthetic_holds_one_copy_of_the_features(self):
        got = self.transient(self.generate)
        # the features are drawn in place and shifted through the class mask;
        # a copy of a class's rows would add up to 8 MB
        assert got <= 2 * self.N * 8 + 65536, got
        # The peak itself, on a call after the first (which also imports):
        # the result's features and, beside them, bytes a row only: the class
        # mask, its negation while the negatives are shifted, and the
        # Dataset's label masks, 3.3 bytes a row here. The permutation that
        # deals the classes is freed before the features are drawn.
        _, (_, peak) = self.traced(self.generate)
        assert peak <= self.N * self.D * 8 + 4 * self.N + 65536, peak

    def test_dataset_keeps_one_byte_a_label(self):
        self.generate()
        ds, (current, _) = self.traced(self.generate)
        # the features and an int8 label a row; an int64 label column would
        # add 1.4 MB, and class ids built with the Dataset 1.6 MB
        assert ds.labels.dtype == np.int8
        assert current <= ds.features.nbytes + self.N + 65536, current

    def test_split_holds_no_list_of_ids(self):
        ds = generate_synthetic(self.N, 0.1, self.D, 2.0, seed=0)
        parts, (_, peak) = self.traced(lambda: split(ds, SplitSpec(seed=0)))
        last = parts[-1].n
        # The parts' features and labels, a part number a row (int8), and the
        # last part's ids with its Dataset checks' temporaries: two label
        # masks; the finiteness check makes no mask. While an earlier part is
        # made, the parts after it are not yet held, and here they keep more
        # than its temporaries. Parts that built their class ids read 10.3 MB;
        # joining and sorting the shuffled ids added 1.4 MB more, and a list
        # of numpy scalars costs about 40 bytes an id.
        assert peak <= self.N * (self.D * 8 + 2) + last * (8 + 2) + 65536, peak

    def test_dataset_checks_finiteness_without_a_mask(self):
        raw = self.generate()
        feats, labels = raw.features.copy(), raw.labels.copy()
        _, (_, peak) = self.traced(lambda: Dataset(feats, labels))
        # the two label masks, a byte a row each; np.isfinite's mask would add
        # a byte a cell, 1 MB here
        assert peak <= 2 * self.N + 65536, peak

    def test_load_csv_holds_no_second_copy_of_the_features(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(generate_synthetic(self.N, 0.1, self.D, 2.0, seed=0), path)
        _, (_, peak) = self.traced(lambda: load_csv(path))
        # The parse's table, label column included, and its growth headroom:
        # np.loadtxt grows its buffer a quarter at a time, 1.57 MB past the
        # table at this n. The labels and one block's copy are taken after
        # the parse. A second n x d copy of the features would add 8 MB.
        assert peak <= self.N * ((self.D + 1) * 8 + 9), peak
