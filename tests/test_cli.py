import csv
import json

import pytest

from paucopt.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    rc = run_cli("generate", "--n", "300", "--imbalance", "0.2", "--seed", "3",
                 "--separation", "3.0", "--output", str(path))
    assert rc == 0
    return path


class TestGenerate:
    def test_counts(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli("generate", "--n", "1000", "--imbalance", "0.1",
                       "--seed", "7", "--output", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(r["label"] == "1" for r in rows) == 100

    def test_missing_n_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--imbalance", "0.1")
        assert exc.value.code == 2

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_cli("generate", "--n", "50", "--imbalance", "0.3", "--seed",
                    "1", "--output", str(p))
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate", "--n", "50", "--imbalance", "0.3", "--seed", "1",
                "--output", str(a))
        monkeypatch.setenv("PAUC_SEED", "99")
        run_cli("generate", "--n", "50", "--imbalance", "0.3", "--seed", "1",
                "--output", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestTrain:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "dataset": {"synthetic": {"n": 400, "imbalance": 0.2, "dim": 3,
                                      "separation": 3.0, "seed": 5}},
            "objective": {"metric": "OPAUC", "beta": 0.3,
                          "formulation": "surrogate"},
            "solver": {"T": 50, "batch_pos": 8, "batch_neg": 32,
                       "eval_every": 25},
            "seed": 5,
        }
        doc.update(overrides)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return path

    def test_writes_artifacts(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "trace.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert "best_iterate_val_pauc" in report
        assert "last_iterate_val_pauc" in report
        with open(out / "trace.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,eta,objective,grad_map_proxy,val_pauc,elapsed_ms"

    def test_t_zero_checkpoint_is_initialization(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out0"
        assert run_cli("train", "--config", str(cfg), "--T", "0",
                       "--out", str(out)) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["min_vars"]["a"] == 1.0
        assert doc["min_vars"]["b"] == 0.0
        assert doc["gamma"] == 0.0

    @pytest.mark.parametrize("section,entry,bad_key", [
        ("objective", {"metric_kind": "TPAUC", "alpha": 0.5, "beta": 0.3},
         "metric_kind"),
        ("solver", {"lam": 0.5, "T": 50}, "lam"),
        ("scorer", {"kind": "mlp", "hidden_layers": [16]}, "hidden_layers"),
        ("seeed", 3, "seeed"),
        ("dataset", {"synthetic": {"n": 400, "imbalance": 0.2, "dim": 3,
                                   "sepration": 3.0, "seed": 5}}, "sepration"),
        ("split", {"trian_frac": 0.7}, "trian_frac"),
    ])
    def test_unknown_key_usage_error(self, tmp_path, capsys, section, entry,
                                     bad_key):
        # an old spelling must not silently fall back to the default
        cfg = self.write_config(tmp_path, **{section: entry})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert repr(bad_key) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_formulation_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path,
                                objective={"formulation": "bogus"})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2


class TestEvaluate:
    def make_checkpoint(self, tmp_path, synth_csv):
        cfgdoc = {
            "dataset": {"csv": str(synth_csv)},
            "objective": {"metric": "OPAUC", "beta": 0.3},
            "solver": {"T": 120, "batch_pos": 8, "batch_neg": 32,
                       "warmup_epochs": 3, "eval_every": 60},
            "seed": 3,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfgdoc))
        out = tmp_path / "trained"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
        return out / "checkpoint.json"

    def test_reports_and_roc(self, tmp_path, synth_csv, capsys):
        ckpt = self.make_checkpoint(tmp_path, synth_csv)
        capsys.readouterr()  # drop the train command's report line
        out = tmp_path / "eval"
        rc = run_cli("evaluate", "--data", str(synth_csv), "--checkpoint",
                     str(ckpt), "--at", "1,1", "1,0.3", "0.5,0.5",
                     "--out", str(out))
        assert rc == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines() if l.startswith("{")]
        kinds = [l["metric_kind"] for l in lines]
        assert kinds == ["AUC", "OPAUC", "TPAUC"]
        with open(out / "roc.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 300 + 1  # n_pos + n_neg + 1 sweep points
        svg = (out / "roc.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_alpha_beta_one_equals_auc(self, tmp_path, synth_csv, capsys):
        ckpt = self.make_checkpoint(tmp_path, synth_csv)
        run_cli("evaluate", "--data", str(synth_csv), "--checkpoint",
                str(ckpt), "--at", "1,1")
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line["metric_kind"] == "AUC"
        assert 0.0 <= line["value"] <= 1.0


class TestVerifyCmd:
    def test_default_passes_exit_zero(self, tmp_path):
        out = tmp_path / "v"
        rc = run_cli("verify", "--trials", "50", "--out", str(out))
        assert rc == 0
        doc = json.loads((out / "verify.json").read_text())
        assert all(r["passed"] for r in doc)

    def test_only_filter(self, capsys):
        rc = run_cli("verify", "--trials", "20", "--only", "topk_threshold")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1

    def test_zero_trials_usage_error(self):
        assert run_cli("verify", "--trials", "0") == 2


@pytest.mark.slow
class TestBench:
    def test_csv_columns_and_ratios(self, tmp_path, capsys):
        out = tmp_path / "b"
        rc = run_cli("bench", "--batch-sizes", "64", "128", "--reps", "9",
                     "--out", str(out))
        assert rc == 0
        with open(out / "timings.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["batch_pos", "batch_neg", "median_ms", "p90_ms",
                           "kind"]
        med = {(r[4], int(r[0])): float(r[2]) for r in rows[1:]}
        assert med[("instance_wise", 64)] / med[("instance_wise", 32)] <= 2.6
        assert med[("pairwise", 64)] / med[("pairwise", 32)] >= 3.0
