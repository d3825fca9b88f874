import argparse
import collections
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import paucopt.bench
import paucopt.cli
import paucopt.verify
from paucopt.cli import _load_run_config, main
from paucopt.data import (Dataset, SplitSpec, generate_synthetic, load_csv, row_blocks,
                          save_csv, split)
from paucopt.metrics import roc_curve
from paucopt.objectives import ObjectiveConfig
from paucopt.scorer import ScorerParams, init_scorer, score_batch
from paucopt.solver import SolverConfig


def run_cli(*argv):
    return main(list(argv))


def write_checkpoint(path, dim):
    """Write to path a checkpoint of an untrained linear scorer of dim features."""
    path.write_text(json.dumps({"scorer": init_scorer("linear", dim).to_dict()}))
    return path


@pytest.fixture
def calls(monkeypatch) -> collections.Counter:
    """The number of calls, by name, that the CLI makes to the functions that
    make data, warm a scorer or train; each call still runs."""
    counts = collections.Counter()
    for module, name in ((paucopt.cli, "generate_synthetic"), (paucopt.cli, "warmup_logistic"),
                         (paucopt.cli, "train")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


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

    @pytest.mark.parametrize("label_col", ["y", "x5", "x0", "x4"])
    def test_label_col_round_trip(self, tmp_path, capsys, monkeypatch, label_col):
        # the features are x0..x4: a label spelled as one of them would be read
        # back in its place, so it is refused and nothing is written
        monkeypatch.delenv("PAUC_SEED", raising=False)
        out = tmp_path / "g.csv"
        rc = run_cli("generate", "--n", "50", "--imbalance", "0.3", "--seed", "1",
                     "--label-col", label_col, "--output", str(out))
        if label_col in ("x0", "x4"):
            assert rc == 2
            assert capsys.readouterr().err == ("error: --label-col must differ from the feature "
                                               f"columns x0..x4, got '{label_col}'\n")
            assert list(tmp_path.iterdir()) == []
            return
        assert rc == 0
        back, want = load_csv(out, label_col), generate_synthetic(50, 0.3, 5, 2.0, seed=1)
        np.testing.assert_array_equal(back.features, want.features)
        np.testing.assert_array_equal(back.labels, want.labels)

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
        # fields the command sets itself are not run-config keys
        ("solver", {"freeze_theta": True}, "freeze_theta"),
        ("objective", {"prior_p": 0.2}, "prior_p"),
        ("solver", {"seed": 4}, "seed"),
        # batch_pos and batch_neg are the batch; no key sets both
        ("solver", {"batch": 64}, "batch"),
        # fixed: every momentum decays by eta^2, and the multipliers' cap is
        # ObjectiveConfig.lagrange_cap
        ("solver", {"iota1": 1.0}, "iota1"),
        ("solver", {"iota2": 1.0}, "iota2"),
        ("objective", {"lagrange_cap": 1e9}, "lagrange_cap"),
    ])
    def test_unknown_key_usage_error(self, tmp_path, capsys, section, entry,
                                     bad_key):
        # an old spelling must not silently fall back to the default
        cfg = self.write_config(tmp_path, **{section: entry})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert repr(bad_key) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,entry,name", [
        ("solver", {"T": "50"}, "solver.T"),
        ("objective", {"beta": "0.3"}, "objective.beta"),
        ("scorer", {"kind": "mlp", "hidden": 8}, "scorer.hidden"),
        ("split", {"train_frac": "0.7"}, "split.train_frac"),
        ("dataset", {"synthetic": {"n": "300"}}, "dataset.synthetic.n"),
        ("solver", {"batch_pos": "8"}, "solver.batch_pos"),
        ("scorer", {"kind": "mlp", "hidden": [8.0]}, "scorer.hidden"),
        ("seed", "7", "seed"),
        # a bool is neither an integer nor a number
        ("solver", {"T": True}, "solver.T"),
        ("objective", {"alpha": True}, "objective.alpha"),
    ])
    def test_wrong_type_usage_error(self, tmp_path, capsys, section, entry, name):
        cfg = self.write_config(tmp_path, **{section: entry})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert f"config {name} must be" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_top_level_not_an_object_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[]")
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: config top-level must be a JSON object", err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dataset,name", [
        ({"label_col": "y"}, "dataset.label_col"),
        ({"label_col": "y", "synthetic": {"n": 400}}, "dataset.label_col"),
        ({"csv": "data.csv", "synthetic": {"n": 400}}, "dataset.synthetic"),
        # not a dataset entry: the section is the first part of name
        pytest.param({"kind": "linear", "hidden": [4]}, "scorer.hidden", id="scorer-linear"),
        pytest.param({"metric": "OPAUC", "alpha": 0.5}, "objective.alpha", id="objective-opauc"),
    ])
    def test_key_without_effect_usage_error(self, tmp_path, capsys, dataset, name):
        # label_col is read only from a CSV, synthetic only without one,
        # hidden only for an mlp and alpha only for TPAUC
        cfg = self.write_config(tmp_path, **{name.partition(".")[0]: dataset})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert f"config {name} has no effect" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("objective,name", [
        ({"metric": "OPAUC", "beta": 0.003}, "beta"),
        ({"metric": "TPAUC", "alpha": 0.01, "beta": 0.3}, "alpha")])
    def test_selecting_no_validation_instance_usage_error(self, tmp_path, capsys, calls,
                                                           objective, name):
        # the validation split holds 12 positives and 48 negatives; the
        # count is checked before --out is made and the scorer is warmed
        cfg = self.write_config(tmp_path, objective=objective)
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config objective.{name} selects no validation instance: ")
        assert not (tmp_path / "x").exists()
        assert calls["warmup_logistic"] == calls["train"] == 0

    @pytest.mark.parametrize("section,entry,name", [
        ("objective", {"omega": float("nan")}, "omega"),
        ("objective", {"kappa": float("nan")}, "kappa"),
        ("objective", {"kappa": float("inf")}, "kappa"),
        ("solver", {"lambda": float("nan")}, "lambda"),
        ("solver", {"nu": float("nan")}, "nu"),
    ])
    def test_out_of_range_value_usage_error(self, tmp_path, capsys, section, entry, name):
        # json reads NaN; a range check must reject it rather than let the
        # run stop later at a non-finite objective that names no key
        cfg = self.write_config(tmp_path, **{section: entry})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith(f"error: config {section}.{name} must be")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("n", 2, ".n must be at least 4, got 2"),
        ("n", 10, ": split too small to keep both classes in every part"),
        ("imbalance", 0, ".imbalance must lie in (0,1), got 0"),
        ("imbalance", float("nan"), ".imbalance must lie in (0,1), got nan"),
        ("dim", 0, ".dim must be at least 1, got 0"),
        ("separation", -1.5, ".separation must be nonnegative, got -1.5"),
        ("separation", float("nan"), ".separation must be nonnegative, got nan"),
    ], ids=["n", "n-split", "imbalance", "imbalance-nan", "dim", "separation",
            "separation-nan"])
    def test_synthetic_value_names_the_config_key(self, tmp_path, capsys, calls, key, value,
                                                  message):
        # generate_synthetic states the rules; the key is spelled as the config
        # spells it (dim, not d), and a rule over several keys names the section
        cfg = self.write_config(tmp_path, dataset={"synthetic": {key: value}})
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: config dataset.synthetic{message}\n"
        assert not (tmp_path / "x").exists()
        assert calls["train"] == 0

    def test_csv_too_small_to_split_names_the_file(self, tmp_path, capsys, calls):
        data = tmp_path / "small.csv"
        assert run_cli("generate", "--n", "10", "--imbalance", "0.1",
                       "--output", str(data)) == 0
        capsys.readouterr()
        cfg = self.write_config(tmp_path, dataset={"csv": str(data)})
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == (f"error: config dataset.csv {data}: split too small "
                                           "to keep both classes in every part\n")
        assert not (tmp_path / "x").exists()
        assert calls["train"] == 0

    def test_infinite_kappa_usage_error_before_making_data(self, tmp_path, capsys, calls):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"objective": {"kappa": Infinity}}')
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == "error: config objective.kappa must be finite, got inf\n"
        assert not (tmp_path / "x").exists()
        assert calls["generate_synthetic"] == calls["train"] == 0

    @pytest.mark.parametrize("section,entry,name", [
        ("solver", {"lambda": float("nan")}, "solver.lambda"),
        ("solver", {"k": float("nan")}, "solver.k"),
        ("solver", {"m": 1.0}, "solver.m"),
        ("objective", {"metric": "XPAUC"}, "config objective.metric"),
    ])
    def test_out_of_range_value_names_the_config_spelling(self, tmp_path, capsys, section,
                                                         entry, name):
        # lambda, k, m and metric are lam, k_coef, m_coef and metric_kind in
        # the dataclasses; an error names the key the config file holds
        cfg = self.write_config(tmp_path, **{section: entry})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config {name.removeprefix('config ')} must be")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fracs,message", [
        ((0, 0.5, 0.5), "train_frac must be above 0, got 0.0"),
        ((0.8, 0, 0.2), "val_frac must be above 0, got 0.0"),
        ((0.8, 0.2, 0.0), "test_frac must be above 0, got 0.0"),
        ((0.9, -0.1, 0.2), "val_frac must be above 0, got -0.1"),
    ], ids=["train", "val", "test", "negative"])
    @pytest.mark.parametrize("dataset", [
        None, {"csv": "absent.csv"}], ids=["synthetic", "missing-csv"])
    def test_split_fraction_not_above_zero_usage_error_before_reading_data(
            self, tmp_path, capsys, fracs, message, dataset):
        # an empty part would fail later as "single-class data", naming no key
        split = dict(zip(("train_frac", "val_frac", "test_frac"), fracs))
        cfg = self.write_config(tmp_path, split=split,
                                **({"dataset": dataset} if dataset else {}))
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: config split.{message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("split", "train_frac", 0), ("split", "val_frac", 0), ("split", "test_frac", 0),
        ("objective", "alpha", 0), ("objective", "beta", 0), ("objective", "kappa", 0),
        ("objective", "omega", -1),
        ("solver", "nu", -1), ("solver", "lambda", -1), ("solver", "k", 0), ("solver", "m", 1),
        ("solver", "T", -1),
        ("solver", "batch_pos", 0), ("solver", "batch_neg", 0), ("solver", "eval_every", 0),
        ("solver", "warmup_epochs", -1),
    ])
    def test_every_range_check_runs_before_the_data_is_read(self, tmp_path, capsys, section,
                                                           key, value):
        # the CSV is missing, so an error raised after reading it would name the file
        entry = {key: value, **({"metric": "TPAUC"} if key == "alpha" else {})}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"dataset": {"csv": "absent.csv"}, section: entry}))
        assert run_cli("train", "--config", str(path), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith(f"error: config {section}.{key} ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,entry,message", [
        ("split", {"train_frac": 0.8, "val_frac": 0.15, "test_frac": 0.15},
         "config split: split fractions must sum to 1, got 1.1"),
        ("solver", {"k": 3.0, "m": 10.0},
         "config solver: eta_0 = k/m^(1/3) must not exceed 1 (need m >= k^3)"),
    ])
    def test_rule_over_several_keys_names_the_section_before_the_data_is_read(
            self, tmp_path, capsys, section, entry, message):
        cfg = self.write_config(tmp_path, dataset={"csv": "absent.csv"}, **{section: entry})
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scorer,message", [
        ({"kind": "rbf"}, "config scorer.kind must be one of 'linear', 'mlp', got 'rbf'"),
        ({"kind": "mlp", "hidden": [0]},
         "config scorer.hidden widths must be at least 1, got [0]"),
        ({"kind": "mlp", "hidden": [8, 0]},
         "config scorer.hidden widths must be at least 1, got [8, 0]"),
        ({"kind": "mlp", "hidden": [-1]},
         "config scorer.hidden widths must be at least 1, got [-1]"),
    ], ids=["kind", "zero", "second-zero", "negative"])
    @pytest.mark.parametrize("dataset", [
        None, {"csv": "absent.csv"}], ids=["synthetic", "missing-csv"])
    def test_bad_scorer_usage_error_before_reading_data(self, tmp_path, capsys, scorer,
                                                        message, dataset):
        cfg = self.write_config(tmp_path, scorer=scorer,
                                **({"dataset": dataset} if dataset else {}))
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_eval_every_below_one_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, solver={"T": 5, "eval_every": 0})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2
        assert "eval_every must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_finite_objective_stops_the_run(self, tmp_path, capsys):
        # steps of 1e308 overflow the scorer weights to inf at the second
        # step, and the iterate is nan from the third on
        big = {"nu": 1e308, "lambda": 1e308, "T": 50, "batch_pos": 8,
               "batch_neg": 32, "eval_every": 25}
        cfg = self.write_config(
            tmp_path, solver=big,
            objective={"metric": "TPAUC", "alpha": 0.5, "beta": 0.3,
                       "formulation": "unbiased"})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = run_cli("train", "--config", str(cfg), "--out", str(out))
        assert rc == 2
        assert "non-finite objective at t=25" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_non_finite_proxy_stops_the_run(self, tmp_path, capsys):
        # the objective and the descent gradient stay finite, but the iterate
        # moved by nu * gradient overflows in the proxy's norm
        cfg = self.write_config(tmp_path, solver={"nu": 1e308, "T": 50, "batch_pos": 8,
                                                  "batch_neg": 32, "eval_every": 25})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = run_cli("train", "--config", str(cfg), "--out", str(out))
        assert rc == 2
        assert "non-finite grad_map_proxy at t=25" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_invalid_formulation_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path,
                                objective={"formulation": "bogus"})
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / "x")) == 2


def load_config(tmp_path, doc, seed=None, T=None):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return _load_run_config(argparse.Namespace(config=str(path), seed=seed, T=T))


class TestRunConfigSchema:
    """Configs load to the dataclasses, splits and scorer written out by hand."""

    @pytest.fixture(autouse=True)
    def no_env_seed(self, monkeypatch):
        monkeypatch.delenv("PAUC_SEED", raising=False)

    def check(self, loaded, ds, spec, sizes, scorer, obj_cfg, solver_cfg):
        *parts, got_scorer, got_obj, got_solver = loaded
        assert tuple(p.n for p in parts) == sizes
        for got, want in zip(parts, split(ds, spec)):
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)
        assert (got_scorer.kind, got_scorer.layer_dims) == (scorer.kind, scorer.layer_dims)
        np.testing.assert_array_equal(got_scorer.weights, scorer.weights)
        assert got_obj == obj_cfg
        assert got_solver == solver_cfg

    def test_empty_config(self, tmp_path):
        self.check(
            load_config(tmp_path, {}),
            generate_synthetic(2000, 0.1, 5, 4.0, 0), SplitSpec(0.7, 0.15, 0.15, 0),
            (1400, 300, 300), init_scorer("linear", 5, (8,), seed=0),
            ObjectiveConfig("OPAUC", "surrogate", alpha=1.0, beta=0.3, kappa=4.0,
                            omega=0.0),
            SolverConfig(nu=0.5, lam=0.5, k_coef=2.0, m_coef=10.0,
                         T=500, batch_pos=32, batch_neg=224, seed=0, warmup_epochs=0,
                         eval_every=50, freeze_theta=False))

    def test_readme_sample(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        assert doc == paucopt.bench.README_CONFIG     # what `paucopt bench` trains on
        self.check(
            load_config(tmp_path, doc),
            generate_synthetic(2000, 0.1, 5, 4.0, 7), SplitSpec(0.7, 0.15, 0.15, 7),
            (1400, 300, 300), init_scorer("linear", 5, seed=7),
            ObjectiveConfig("OPAUC", "unbiased", alpha=1.0, beta=0.3, kappa=4.0,
                            omega=0.1),
            SolverConfig(nu=0.5, lam=0.5, k_coef=2.0, m_coef=10.0,
                         T=300, batch_pos=32, batch_neg=224, seed=7, warmup_epochs=2,
                         eval_every=50))

    def test_every_key_non_default(self, tmp_path):
        doc = {
            "dataset": {"synthetic": {
                "n": 600, "imbalance": 0.25, "dim": 3, "separation": 3, "seed": 4}},
            "split": {"train_frac": 0.5, "val_frac": 0.3, "test_frac": 0.2, "seed": 9},
            "scorer": {"kind": "mlp", "hidden": [4, 3]},
            "objective": {"metric": "TPAUC", "formulation": "unbiased", "alpha": 0.5,
                          "beta": 0.4, "kappa": 8.0, "omega": 0.2},
            "solver": {"nu": 0.3, "lambda": 0.2, "k": 1.5, "m": 8.0,
                       "T": 40, "batch_pos": 5, "batch_neg": 20,
                       "warmup_epochs": 1, "eval_every": 10},
            "seed": 3,
        }
        self.check(
            load_config(tmp_path, doc),
            generate_synthetic(600, 0.25, 3, 3.0, 4), SplitSpec(0.5, 0.3, 0.2, 9),
            (300, 180, 120), init_scorer("mlp", 3, (4, 3), seed=3),
            ObjectiveConfig("TPAUC", "unbiased", alpha=0.5, beta=0.4, kappa=8.0,
                            omega=0.2),
            SolverConfig(nu=0.3, lam=0.2, k_coef=1.5, m_coef=8.0,
                         T=40, batch_pos=5, batch_neg=20, seed=3, warmup_epochs=1,
                         eval_every=10))

    def test_run_seed_and_mlp_default(self, tmp_path):
        # the run seed also seeds the data and the split; an mlp has one
        # hidden layer of 8 unless told otherwise
        self.check(
            load_config(tmp_path, {"scorer": {"kind": "mlp"}, "seed": 5}),
            generate_synthetic(2000, 0.1, 5, 4.0, 5), SplitSpec(0.7, 0.15, 0.15, 5),
            (1400, 300, 300), init_scorer("mlp", 5, (8,), seed=5),
            ObjectiveConfig(), SolverConfig(seed=5))

    def test_csv_and_command_values(self, tmp_path, synth_csv):
        ds = load_csv(synth_csv)
        relabelled = tmp_path / "y.csv"
        relabelled.write_text(synth_csv.read_text().replace("label", "y", 1))
        doc = {"dataset": {"csv": str(relabelled), "label_col": "y"}, "seed": 3,
               "solver": {"T": 40}}
        self.check(
            load_config(tmp_path, doc, seed=11, T=9),
            ds, SplitSpec(0.7, 0.15, 0.15, 11), (210, 45, 45),
            init_scorer("linear", ds.dim, seed=11),
            ObjectiveConfig(), SolverConfig(T=9, seed=11))

    @pytest.mark.parametrize("solver,sizes", [
        ({"batch_pos": 8, "batch_neg": 56}, (8, 56)),
        ({"batch_pos": 1, "batch_neg": 3}, (1, 3)),
        ({"batch_pos": 5}, (5, 224)),
        ({"batch_neg": 30}, (32, 30)),
    ])
    def test_batch_split(self, tmp_path, solver, sizes):
        solver_cfg = load_config(tmp_path, {"solver": solver})[-1]
        assert (solver_cfg.batch_pos, solver_cfg.batch_neg) == sizes

    @pytest.mark.parametrize("section,cls", [
        ("split", SplitSpec), ("objective", ObjectiveConfig), ("solver", SolverConfig)])
    def test_every_key_names_a_field(self, section, cls):
        # a key that no field backs would be a second way to set a field
        names = {f.name for f in dataclasses.fields(cls)}
        assert [key for key in paucopt.cli._KEY_TYPES[section]
                if paucopt.cli._SPELLINGS.get(key, key) not in names] == []


@pytest.mark.parametrize("argv,env,config,message", [
    (["generate", "--n", "50", "--imbalance", "0.3", "--seed", "-1", "--output", "x"],
     None, None, "--seed must be at least 0, got -1"),
    (["train", "--seed", "-1"], None, {}, "--seed must be at least 0, got -1"),
    (["verify", "--seed", "-1", "--out", "x"], None, None, "--seed must be at least 0, got -1"),
    (["bench", "--seed", "-1", "--out", "x"], None, None, "--seed must be at least 0, got -1"),
    (["sweep", "--seed", "-1", "--out", "x"], None, None, "--seed must be at least 0, got -1"),
    (["verify", "--out", "x"], "-4", None, "PAUC_SEED must be at least 0, got -4"),
    (["train"], "-4", {}, "PAUC_SEED must be at least 0, got -4"),
    (["train", "--seed", "3"], "abc", {}, "PAUC_SEED must be an integer, got 'abc'"),
    (["train"], None, {"seed": -2}, "config seed must be at least 0, got -2"),
    (["train"], None, {"split": {"seed": -3}}, "config split.seed must be at least 0, got -3"),
    (["train"], None, {"seed": -2, "split": {"seed": 3}}, "config seed must be at least 0, got -2"),
    (["train"], None, {"dataset": {"synthetic": {"seed": -5}}},
     "config dataset.synthetic.seed must be at least 0, got -5"),
], ids=["generate", "train", "verify", "bench", "sweep", "env-verify", "env-train",
        "env-not-integer", "config", "config-split", "config-beside-split-seed",
        "config-synthetic"])
def test_negative_seed_usage_error_names_its_source(tmp_path, capsys, monkeypatch, argv,
                                                    env, config, message):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("PAUC_SEED", raising=False)
    else:
        monkeypatch.setenv("PAUC_SEED", env)
    if config is not None:
        # a missing CSV would name the file: the seed is checked before the data is read
        (tmp_path / "run.json").write_text(
            json.dumps({"dataset": {"csv": "absent.csv"}, **config}))
        argv = [*argv, "--config", "run.json", "--out", "x"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("env,seed", [("5", None), (None, "5")], ids=["env", "flag"])
def test_config_seed_stood_in_for_is_not_read(tmp_path, monkeypatch, env, seed):
    # PAUC_SEED or --seed replaces the top-level seed, so a bad one is never read
    monkeypatch.delenv("PAUC_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("PAUC_SEED", env)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dataset": {"synthetic": {"n": 400}}, "seed": -1,
                               "solver": {"T": 0}}))
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert run_cli(*argv, *(["--seed", seed] if seed else [])) == 0


def test_negative_t_flag_is_named_as_the_flag(tmp_path, capsys):
    # --T stands in for solver.T, so a bad solver.T beside it is never read
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dataset": {"synthetic": {"n": 400}}, "solver": {"T": -1}}))
    out = tmp_path / "out"
    assert run_cli("train", "--config", str(cfg), "--out", str(out), "--T", "-1") == 2
    assert capsys.readouterr().err == "error: --T must be at least 0, got -1\n"
    assert not out.exists()
    assert run_cli("train", "--config", str(cfg), "--out", str(out), "--T", "0") == 0


# a flag value outside its range, with the error that names the flag
BAD_FLAGS = [
    (["verify", "--trials", "-3"], "--trials must be at least 1, got -3"),
    (["sweep", "--T", "-1"], "--T must be at least 0, got -1"),
    (["sweep", "--kappas", "2", "0"], "--kappas must be positive, got 0.0"),
    (["sweep", "--n", "3"], "--n must be at least 4, got 3"),
    (["sweep", "--imbalance", "1"], "--imbalance must lie in (0,1), got 1.0"),
    (["sweep", "--dim", "0"], "--dim must be at least 1, got 0"),
    (["sweep", "--separation", "-0.5"], "--separation must be nonnegative, got -0.5"),
    (["sweep", "--beta", "nan"], "--beta must lie in (0,1], got nan"),
    (["sweep", "--omega", "-0.1"], "--omega must be nonnegative, got -0.1"),
    (["generate", "--n", "0", "--imbalance", "0.1"], "--n must be at least 4, got 0"),
    (["generate", "--n", "50", "--imbalance", "0"], "--imbalance must lie in (0,1), got 0.0"),
    (["generate", "--n", "50", "--imbalance", "0.1", "--dim", "-2"],
     "--dim must be at least 1, got -2"),
    (["generate", "--n", "50", "--imbalance", "0.1", "--separation", "nan"],
     "--separation must be nonnegative, got nan"),
]


@pytest.mark.parametrize("argv,message", BAD_FLAGS,
                         ids=[argv[0] + message.split()[0] for argv, message in BAD_FLAGS])
def test_out_of_range_flag_usage_error_names_the_flag(tmp_path, capsys, monkeypatch,
                                                      argv, message):
    # each flag is checked by the dataclass or function that takes its value,
    # which the command builds or calls before it makes data or writes
    # anything, even at a default --out or --output
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PAUC_SEED", raising=False)
    out = ["--output", "x.csv"] if argv[0] == "generate" else ["--out", "x"]
    assert run_cli(*argv, *out) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--batch-sizes", "--reps", "--steps"])
def test_bench_takes_no_size_flag(tmp_path, capsys, monkeypatch, flag):
    # bench times fixed batch sizes, rounds and steps, so every BENCH file
    # compares with the others
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", flag, "5", "--out", "x")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--kappas", "2", "0"], "--kappas must be positive, got 0.0"),
    (["--kappas", "inf"], "--kappas must be finite, got inf"),
    (["--beta", "nan"], "--beta must lie in (0,1], got nan"),
    (["--T", "-1"], "--T must be at least 0, got -1"),
    (["--n", "10", "--T", "5"],
     "--n, --imbalance: split too small to keep both classes in every part"),
], ids=["kappas", "kappas-inf", "beta-nan", "T", "n-split"])
def test_bad_sweep_flag_trains_nothing(tmp_path, capsys, monkeypatch, calls, argv, message):
    # a value rule stops the sweep before it makes data; the split rule, which
    # needs the data, right after it, before the warm-up
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PAUC_SEED", raising=False)
    assert run_cli("sweep", *argv, "--out", "x") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
    assert calls["warmup_logistic"] == calls["train"] == 0
    assert calls["generate_synthetic"] == (argv[0] == "--n")


@pytest.mark.parametrize("argv", [
    ["evaluate", "--data", "{dir}", "--checkpoint", "{ckpt}"],
    ["train", "--config", "{dir}"],
    ["verify", "--trials", "1", "--only", "topk_threshold", "--out", "{file}"],
], ids=["evaluate-data-dir", "train-config-dir", "verify-out-file"])
def test_unreadable_path_usage_error_names_the_path(tmp_path, capsys, argv):
    # a directory where a file is read, or a file where a directory is made
    path = tmp_path / "file"
    path.write_text("")
    # a valid checkpoint, as evaluate reads it before the data
    ckpt = write_checkpoint(tmp_path / "checkpoint.json", 5)
    argv = [a.format(dir=tmp_path, file=path, ckpt=ckpt) for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(str(path if argv[0] == "verify" else tmp_path)) in err


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

    def test_roc_csv_bytes_match_csv_writer(self, tmp_path, synth_csv):
        ckpt = self.make_checkpoint(tmp_path, synth_csv)
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt),
                       "--out", str(out)) == 0
        ds = load_csv(synth_csv)
        scores = score_batch(ScorerParams.from_dict(
            json.loads(ckpt.read_text())["scorer"]), ds.features)
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["fpr", "tpr"])
            w.writerows(roc_curve(scores[ds.pos_ids], scores[ds.neg_ids]))
        assert (out / "roc.csv").read_bytes() == oracle.read_bytes()

    def test_roc_csv_bytes_match_csv_writer_across_blocks(self, tmp_path):
        # features on a coarse grid tie many scores
        raw = generate_synthetic(60_000, 0.1, 5, 1.0, seed=4)
        feats = np.round(raw.features)
        scorer = init_scorer("mlp", 5, (8,), seed=4)
        # Every block boundary of the roc.csv writer falls between two rows of
        # one tied threshold, by construction: row k of the curve is the point
        # past the k-th highest score, so rows b - 1 and b tie when the scores
        # ranked b - 2 and b - 1 do. The row ranked b - 2 takes the features,
        # and so the score, of the row ranked b - 1; no rank moves.
        order = np.argsort(-score_batch(scorer, feats), kind="stable")
        for b in list(row_blocks(len(feats) + 1, 2))[1:]:
            feats[order[b.start - 2]] = feats[order[b.start - 1]]
        ds = Dataset(feats, raw.labels)
        data, ckpt = tmp_path / "ties.csv", tmp_path / "checkpoint.json"
        save_csv(ds, data)
        ckpt.write_text(json.dumps({"scorer": scorer.to_dict()}))
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                       "--out", str(out)) == 0
        scores = score_batch(scorer, ds.features)
        rows = roc_curve(scores[ds.pos_ids], scores[ds.neg_ids])
        blocks = list(row_blocks(len(rows), 2))
        assert len(blocks) >= 3
        assert all(rows[b.start - 1] == rows[b.start] for b in blocks[1:])
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["fpr", "tpr"])
            w.writerows(rows)
        assert (out / "roc.csv").read_bytes() == oracle.read_bytes()

    def test_roc_csv_peak_allocation_does_not_grow_with_n(self, tmp_path):
        peaks = []
        for n in (20_000, 200_000):
            # distinct values, each formatted on its own: the most text a row can make
            fpr, tpr = np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, n + 1) ** 0.5
            with open(tmp_path / "roc.csv", "w", newline="", encoding="utf-8") as fh:
                tracemalloc.start()
                try:
                    paucopt.cli._roc_csv(fpr, tpr, fh)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # one n-length float copy at n = 2e5 would add 1.6 MB
        assert peaks[1] <= peaks[0] + 65536, peaks

    def test_out_peak_allocation_per_row(self, tmp_path, monkeypatch):
        # load_csv hands over a prebuilt Dataset, so the peak counts what
        # evaluate makes from the data, not the parse
        ckpt = write_checkpoint(tmp_path / "checkpoint.json", 5)
        peaks = {}
        for n in (20_000, 200_000):
            ds = generate_synthetic(n, 0.1, 5, 1.0, seed=5)
            monkeypatch.setattr(paucopt.cli, "load_csv", lambda *args, ds=ds: ds)
            tracemalloc.start()
            try:
                assert run_cli("evaluate", "--data", "unread.csv", "--checkpoint", str(ckpt),
                               "--out", str(tmp_path / f"eval{n}")) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # ~27 bytes a row: the sorted classes and the ROC's thresholds and two
        # float arrays, less the block temporaries that 2e4 rows already fill.
        # With class ids and roc.svg's whole-array passes it read ~73; a list
        # of (fpr, tpr) tuples would add ~110 more
        assert (peaks[200_000] - peaks[20_000]) / 180_000 < 40, peaks

    def test_out_frees_the_features_before_the_classes(self, tmp_path, monkeypatch):
        n, d = 200_000, 5
        source = generate_synthetic(n, 0.1, d, 1.0, seed=5)
        ckpt = write_checkpoint(tmp_path / "checkpoint.json", d)

        def load(*args):
            # a copy of the features that only the command holds, traced from here
            ds = Dataset(source.features.copy(), source.labels)
            tracemalloc.reset_peak()
            return ds

        monkeypatch.setattr(paucopt.cli, "load_csv", load)
        tracemalloc.start()
        try:
            assert run_cli("evaluate", "--data", "unread.csv", "--checkpoint", str(ckpt),
                           "--out", str(tmp_path / "eval")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The features and the scores while the rows are scored, with the
        # label mask and one block's temporaries; the classes, the ROC and
        # roc.svg come after the features are freed. The features beside the
        # classes would add 8 bytes a row, and the class ids 8 more.
        assert peak <= n * d * 8 + n * 8 + n + (1 << 20), peak

    def test_data_is_freed_before_the_roc(self, tmp_path, monkeypatch):
        # the sorted classes are all the ROC reads, so the loaded data, which
        # at 10^6 rows is most of what is alive, is gone by then
        ckpt = write_checkpoint(tmp_path / "checkpoint.json", 5)
        refs = []

        def load(*args):
            ds = generate_synthetic(400, 0.2, 5, 1.0, seed=5)
            refs.append(weakref.ref(ds))
            return ds

        def spy(*args, _real=paucopt.cli.roc_curve):
            assert refs[0]() is None
            return _real(*args)

        monkeypatch.setattr(paucopt.cli, "load_csv", load)
        monkeypatch.setattr(paucopt.cli, "roc_curve", spy)
        assert run_cli("evaluate", "--data", "unread.csv", "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "eval")) == 0
        assert len(refs) == 1

    @pytest.mark.parametrize("at", ["2,0.3", "0.5", "0,0.3", "0.5,1.5", "a,b", "nan,0.3",
                                    "0.5,0.3,1", "1,-0.3"])
    def test_bad_at_usage_error_before_reading_data(self, tmp_path, capsys, at):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", str(tmp_path / "absent.csv"), "--checkpoint",
                    str(tmp_path / "absent.json"), "--at", "1,0.3", at)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --at: {at!r} is not ALPHA,BETA" in err
        assert "absent" not in err

    @pytest.mark.parametrize("row", [
        pytest.param(f"0.{'0' * csv.field_size_limit()}1,-2,1\n".encode(), id="long cell"),
        pytest.param(b"\xff.25,3e-3,0\n", id="undecodable byte")])
    def test_unreadable_csv_usage_error_names_the_file(self, tmp_path, capsys, row):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"x0,x1,label\n1.5,-2,1\n" + row)
        # a valid checkpoint, as evaluate reads it before the data
        ckpt = write_checkpoint(tmp_path / "checkpoint.json", 2)
        assert run_cli("evaluate", "--data", str(data), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}")

    def test_missing_checkpoint_named_before_the_data_is_read(self, tmp_path, capsys):
        ckpt = tmp_path / "absent.json"
        assert run_cli("evaluate", "--data", str(tmp_path / "absent.csv"),
                       "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: {str(ckpt)!r}\n")

    def test_existing_file_as_out_prints_nothing(self, tmp_path, synth_csv, capsys):
        # --out is made before the first metric line is printed
        ckpt, out = write_checkpoint(tmp_path / "checkpoint.json", 5), tmp_path / "file"
        out.write_text("")
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt),
                       "--out", str(out)) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and repr(str(out)) in err

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"min_vars": {"a": 1.0}},
        {"scorer": [1.0, 2.0]},
        # a bare scorer is not a checkpoint
        {"kind": "linear", "layer_dims": [5, 1], "weights": [0.0] * 6},
    ], ids=["list", "no-scorer", "scorer-not-object", "bare-scorer"])
    def test_checkpoint_without_scorer_object_usage_error(self, tmp_path, synth_csv, capsys,
                                                          doc):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: no scorer object\n"

    @pytest.mark.parametrize("key", ["kind", "layer_dims", "weights"])
    def test_scorer_without_key_usage_error(self, tmp_path, synth_csv, capsys, key):
        scorer = {"kind": "linear", "layer_dims": [5, 1], "weights": [0.0] * 6}
        del scorer[key]
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps({"scorer": scorer}))
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: scorer object has no {key!r} key\n"

    @pytest.mark.parametrize("key,value,message", [
        ("weights", "abc", "weights must be a list of numbers, got 'abc'"),
        ("layer_dims", "x", "layer_dims must be a list of integers, got 'x'"),
        ("kind", 3, "kind must be a string, got 3"),
    ])
    def test_scorer_value_of_wrong_kind_usage_error(self, tmp_path, synth_csv, capsys,
                                                   key, value, message):
        scorer = {"kind": "linear", "layer_dims": [5, 1], "weights": [0.0] * 6, key: value}
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps({"scorer": scorer}))
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: scorer object: {message}\n"

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_weight_usage_error(self, tmp_path, synth_csv, capsys, weight):
        # Python's json reads these; a NaN weight scores every row NaN, whose
        # metrics would read 1.0
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text('{"scorer": {"kind": "linear", "layer_dims": [5, 1], '
                        f'"weights": [{weight}, 0, 0, 0, 0, 0]}}}}')
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr() == (
            "", f"error: {ckpt}: scorer object: weights must be finite\n")

    def test_input_width_mismatch_names_the_checkpoint(self, tmp_path, synth_csv, capsys):
        ckpt = write_checkpoint(tmp_path / "checkpoint.json", 3)
        assert run_cli("evaluate", "--data", str(synth_csv), "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr() == (
            "", f"error: {ckpt}: feature dimension 5 does not match scorer input 3\n")

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

    def test_zero_trials_usage_error(self, tmp_path):
        # the count is checked before --out is made
        out = tmp_path / "v"
        assert run_cli("verify", "--trials", "0", "--out", str(out)) == 2
        assert not out.exists()

    def test_unknown_only_name_usage_error_before_any_check(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_check(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setitem(paucopt.verify.ALL_CHECKS, "topk_threshold", no_check)
        out = tmp_path / "v"
        assert run_cli("verify", "--only", "topk_threshold", "bogus", "--out", str(out)) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("error: --only ") and "'bogus'" in err
        assert "known: " + ", ".join(sorted(paucopt.verify.ALL_CHECKS)) in err
        assert not out.exists()

    def test_makes_out_before_the_first_check(self, tmp_path, monkeypatch, capsys):
        # as bench does before its timings: an --out that cannot be made costs no check
        out = tmp_path / "v"
        seen = []

        def topk(**kwargs):
            seen.append(out.is_dir())
            return paucopt.verify.check_topk_threshold(**kwargs)

        monkeypatch.setitem(paucopt.verify.ALL_CHECKS, "topk_threshold", topk)
        assert run_cli("verify", "--trials", "5", "--only", "topk_threshold",
                       "--out", str(out)) == 0
        assert seen == [True]
        assert capsys.readouterr().out == (out / "verify.json").read_text()


@pytest.mark.parametrize("command,work", [("verify", "ALL_CHECKS"), ("bench", "bench_rows")])
def test_existing_file_as_out_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                      command, work):
    # verify makes --out after its flag checks and before its first check,
    # bench before its timings: an existing file, or a path below one, is
    # refused before the work
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    # each command's work lives in the module named after it; verify's is
    # every entry of its table of checks
    if command == "verify":
        for name in paucopt.verify.ALL_CHECKS:
            monkeypatch.setitem(paucopt.verify.ALL_CHECKS, name, no_work)
    else:
        monkeypatch.setattr(f"paucopt.{command}.{work}", no_work)
    taken = tmp_path / "file"
    taken.write_text("")
    for out, error in ((taken, "[Errno 17] File exists"),
                       (taken / "sub", "[Errno 20] Not a directory"),
                       (taken / "sub" / "deeper", "[Errno 20] Not a directory")):
        assert run_cli(command, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {error}: {str(out)!r}\n")
    assert taken.read_text() == ""


def test_bench_makes_out_before_the_timings(tmp_path, monkeypatch, capsys):
    # as train and sweep do: an --out that cannot be made costs no timing
    out = tmp_path / "b"
    seen = []

    def no_rows(seed):
        seen.append(out.is_dir())
        return []

    monkeypatch.setattr(paucopt.bench, "bench_rows", no_rows)
    assert run_cli("bench", "--out", str(out)) == 0
    assert seen == [True]
    assert (out / "timings.csv").read_text() == "batch_pos,batch_neg,median_ms,p90_ms,kind\n"
    assert capsys.readouterr() == ("", "")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, as strict JSON does."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


class TestSweep:
    def test_rows_per_kappa_and_unbiased(self, tmp_path, capsys):
        out = tmp_path / "s"
        rc = run_cli("sweep", "--kappas", "2", "16", "--n", "300", "--T", "40",
                     "--out", str(out))
        assert rc == 0
        rows = strict_json((out / "sweep.json").read_text())
        printed = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
        assert json.dumps(printed) == json.dumps(rows)
        assert [(r["kind"], r["kappa"]) for r in rows[:2]] == [("surrogate", 2.0),
                                                                ("surrogate", 16.0)]
        assert rows[2]["kind"] == "unbiased" and rows[2]["kappa"] is None
        for r in rows:
            assert list(r) == ["kind", "kappa", "beta_eff", "beta_dev"]
            assert 0.0 <= r["beta_eff"] <= 1.0
            assert r["beta_dev"] == abs(r["beta_eff"] - 0.3)

    def test_non_finite_value_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(paucopt.cli, "best_response",
                            lambda cfg, tau, gamma, ds: np.full(ds.n, np.nan))
        out = tmp_path / "s"
        assert run_cli("sweep", "--n", "300", "--T", "1", "--out", str(out)) == 2
        assert not (out / "sweep.json").exists()
        assert capsys.readouterr().out == ""

    def test_existing_file_as_out_trains_nothing(self, tmp_path, capsys, calls):
        # --out is made right after the split, before the warm-up and the runs
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli("sweep", "--n", "300", "--T", "5", "--out", str(out)) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and repr(str(out)) in err
        assert calls["warmup_logistic"] == calls["train"] == 0


@pytest.mark.slow
class TestBench:
    def test_csv_columns_and_ratios(self, tmp_path, capsys):
        out = tmp_path / "b"
        rc = run_cli("bench", "--out", str(out))
        assert rc == 0
        with open(out / "timings.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["batch_pos", "batch_neg", "median_ms", "p90_ms",
                           "kind"]
        med = {(r[4], int(r[0])): float(r[2]) for r in rows[1:]}
        assert med[("instance_wise", 64)] / med[("instance_wise", 32)] <= 2.6
        assert med[("pairwise", 64)] / med[("pairwise", 32)] >= 3.0

    def test_label_writes_bench_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(paucopt.bench, "TRAIN_RUNS", tuple(
            paucopt.bench._resized(config, n) for config, n
            in zip(paucopt.bench.TRAIN_RUNS, (400, 500, 600))))
        monkeypatch.setattr(paucopt.bench, "EVALUATE_ROWS", (300, 600))
        out = tmp_path / "b"
        rc = run_cli("bench", "--label", "t1", "--out", str(out))
        assert rc == 0
        doc = json.loads((out / "BENCH_t1.json").read_text())
        assert (doc["label"], doc["seed"], doc["reps"], doc["steps"]) == ("t1", 0, 15, 200)
        assert doc["versions"]["numpy"] == np.__version__
        src = Path(paucopt.cli.__file__).parent
        assert doc["src_paucopt_lines"] == sum(
            p.read_text().count("\n") for p in src.glob("*.py"))
        with open(out / "timings.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [{k: str(v) for k, v in r.items()} for r in doc["instance_vs_pairwise"]] == rows
        assert [(r["formulation"], r["n"]) for r in doc["step_sweep"]] == [
            (form, n) for n in (2_000, 200_000, 2_000_000)
            for form in ("surrogate", "unbiased")]
        assert all(0 < r["median_ms"] <= r["p90_ms"] for r in doc["step_sweep"])
        assert [(r["command"], r["rows"]) for r in doc["end_to_end"]] == [
            ("import paucopt.cli", None), ("train", 400), ("train", 500), ("train", 600),
            ("generate", 300), ("evaluate", 300), ("generate", 600), ("evaluate", 600)]
        assert all(r["seconds"] > 0 for r in doc["end_to_end"])
        assert all(r["ru_maxrss_mb"] > 0 for r in doc["end_to_end"][1:])


def test_key_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # no bad input raises a KeyError, so one is a bug and keeps its traceback
    def broken(*args):
        raise KeyError("x")

    monkeypatch.setattr(paucopt.cli, "generate_synthetic", broken)
    with pytest.raises(KeyError, match="x"):
        run_cli("generate", "--n", "50", "--imbalance", "0.1",
                "--output", str(tmp_path / "x.csv"))


def test_build_reraises_an_error_naming_no_field():
    # no field to rename and no prefix for such an error: it passes unchanged
    exc = ValueError("n_pos must be positive")

    def fn():
        raise exc

    with pytest.raises(ValueError) as info:
        paucopt.cli._build(fn, {"beta": "--beta"})
    assert info.value is exc
    assert str(info.value) == "n_pos must be positive"


def test_cli_import_loads_no_scipy():
    """numpy is the one runtime dependency; scipy serves the tests only."""
    src = Path(paucopt.cli.__file__).parent.parent
    code = "import sys, paucopt.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("code", [
    # a command imports the bench and verify modules only when it runs them
    "import sys, paucopt.cli; assert not {'paucopt.bench', 'paucopt.verify'} & set(sys.modules)",
    # the sweep runs its own rows
    "import sys, paucopt.cli; assert paucopt.cli.main(['sweep', '--n', '300', '--T', '1', "
    "'--out', sys.argv[1]]) == 0; assert 'paucopt.verify' not in sys.modules",
    # the package itself stays eager
    "import sys, paucopt; assert 'paucopt.solver' in sys.modules",
], ids=["cli", "sweep", "package"])
def test_cold_start_imports(tmp_path, code):
    src = Path(paucopt.cli.__file__).parent.parent
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "s")], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.DEVNULL)


def roc_svg_points_oracle(rows, size=400, margin=20):
    """The polyline points the SVG used to print: one per ROC row."""
    span = size - 2 * margin
    return [f"{margin + fpr * span:.2f},{margin + (1.0 - tpr) * span:.2f}"
            for fpr, tpr in rows]


def roc_svg_one_pass(rows, size=400, margin=20):
    """The whole SVG written in one pass over the rows: each point by
    f"{v:.2f}", and a point that prints as the one before it left out."""
    every = roc_svg_points_oracle(rows, size, margin)
    points = " ".join(p for i, p in enumerate(every) if i == 0 or p != every[i - 1])
    span = size - 2 * margin
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">\n'
        f'  <rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="black"/>\n'
        f'  <line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{margin}" stroke="gray" stroke-dasharray="4"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="crimson" '
        f'stroke-width="1.5"/>\n'
        f"</svg>\n"
    )


class TestRocSvg:
    @staticmethod
    def points(svg):
        return re.search(r'<polyline points="([^"]*)"', svg).group(1).split(" ")

    def check(self, rows):
        old = roc_svg_points_oracle(rows)
        want = [p for i, p in enumerate(old) if i == 0 or p != old[i - 1]]
        assert self.points(paucopt.cli._roc_svg(*np.array(rows).T)) == want

    def test_tied_scores(self):
        rng = np.random.default_rng(0)
        scores = np.round(rng.standard_normal(5000), 1)
        self.check(roc_curve(scores[:700] + 0.5, scores[700:]))

    def test_coordinates_on_rounding_boundaries(self):
        # x = 20 + fpr * 360 at, or one ulp beside, values halfway between
        # hundredths: 20.055 is stored a little below the half and prints
        # 20.05, but 20.055 * 100 rounds to 2005.5, which rint takes to 2006
        halves = [20.055, 20.075, 21.005, 100.005, 379.995, 200.125]
        x = np.array([np.nextafter(h, d) for h in halves for d in (-np.inf, 0, np.inf)]
                     + halves)
        fpr = np.sort((x - 20.0) / 360.0)
        rows = [(0.0, 0.0)] + [(f, t) for f in fpr.tolist() for t in (f, f + 1e-14)]
        self.check(rows)

    def test_one_point_per_row_when_none_repeat(self):
        rows = [(i / 10, i / 10) for i in range(11)]
        assert len(self.points(paucopt.cli._roc_svg(*np.array(rows).T))) == 11

    def test_coordinates_where_the_integer_part_gains_a_digit(self):
        # x, then y, at 99.995 px and 3 ulps of the share either side, and at
        # 100 px: the printed coordinate goes from 99.99 to 100.00
        def around(share):
            return [share + k * np.spacing(share) for k in range(-3, 4)]
        fpr = sorted(around(79.995 / 360.0) + [80.0 / 360.0])
        tpr = sorted(around(1.0 - 79.995 / 360.0) + [1.0 - 80.0 / 360.0])
        rows = [(0.0, 0.0)] + [(f, 0.5) for f in fpr] + [(0.75, t) for t in tpr]
        self.check(rows)
        points = self.points(paucopt.cli._roc_svg(*np.array(rows).T))
        assert {"99.99,200.00", "100.00,200.00", "290.00,100.00", "290.00,99.99"} <= set(points)

    def test_coordinates_at_the_ends(self):
        rows = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        self.check(rows)
        assert self.points(paucopt.cli._roc_svg(*np.array(rows).T)) == [
            "20.00,380.00", "20.00,20.00", "380.00,20.00"]

    def test_bytes_match_one_pass_writer_across_blocks(self):
        # scores on a coarse grid: long runs of tied thresholds repeat one
        # point, and every block boundary falls inside such a run
        rng = np.random.default_rng(6)
        scores = np.round(rng.standard_normal(60_000), 1)
        rows = roc_curve(np.sort(scores[:6_000] + 0.3), np.sort(scores[6_000:]))
        blocks = list(row_blocks(len(rows), 2))
        assert len(blocks) >= 3
        assert all(rows[b.start - 1] == rows[b.start] for b in blocks[1:])
        assert paucopt.cli._roc_svg(*np.array(rows).T) == roc_svg_one_pass(rows)
        # and on 40 001 distinct rows, the last block's first unlike the one before
        rows = list(zip(np.linspace(0.0, 1.0, 40_001).tolist(),
                        (np.linspace(0.0, 1.0, 40_001) ** 0.5).tolist()))
        assert paucopt.cli._roc_svg(*np.array(rows).T) == roc_svg_one_pass(rows)

    def test_peak_allocation_does_not_grow_with_n(self):
        # one curve of 1001 points, each repeated: the same points are printed
        # at every n, so only what a pass holds per row could grow
        base = np.linspace(0.0, 1.0, 1001)
        peaks = []
        for n in (20_000, 200_000):
            fpr, tpr = (np.repeat(v, n // 1000 + 1)[:n + 1] for v in (base, base ** 0.5))
            tracemalloc.start()
            try:
                paucopt.cli._roc_svg(fpr, tpr)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one n-length float pass at n = 2e5 would add 1.6 MB
        assert peaks[1] <= peaks[0] + (1 << 20), peaks


# scores on a coarse grid, so ties are common, and NaN, which ranks below every score
_GRID_SCORES = st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, float("nan")]),
                        min_size=1, max_size=60)


@given(_GRID_SCORES, _GRID_SCORES)
@example([0.5], [0.5])
@example([float("nan")], [0.0, 1.0])
@settings(max_examples=200, deadline=None)
def test_roc_csv_bytes_match_csv_writer_on_tied_scores(pos, neg):
    rows = roc_curve(np.array(pos), np.array(neg))
    oracle = io.StringIO(newline="")
    w = csv.writer(oracle)
    w.writerow(["fpr", "tpr"])
    w.writerows(rows)
    written = io.StringIO(newline="")
    paucopt.cli._roc_csv(*np.array(rows).T, written)
    assert written.getvalue() == oracle.getvalue()
