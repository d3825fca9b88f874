import resource
import subprocess
from pathlib import Path

import numpy as np
import pytest

import paucopt.bench
from paucopt.bench import end_to_end


def test_failing_command_names_itself_and_its_error(monkeypatch):
    # the command runs in a child interpreter; its exit code and stderr come back
    monkeypatch.setattr(paucopt.bench, "TRAIN_RUNS", ())
    monkeypatch.setattr(paucopt.bench, "EVALUATE_ROWS", (3,))
    with pytest.raises(RuntimeError,
                       match="^paucopt generate exited 2: error: --n must be at least 4, got 3$"):
        end_to_end(seed=0)


def test_peak_is_the_command_s_own(monkeypatch):
    # Linux hands a parent's ru_maxrss to its child across exec, so a row must
    # not read below this process's peak only because the command's is lower
    monkeypatch.setattr(paucopt.bench, "TRAIN_RUNS", ())
    monkeypatch.setattr(paucopt.bench, "EVALUATE_ROWS", (300,))
    np.ones(16_000_000)     # 128 MB written, then freed
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = end_to_end(seed=0)
    assert all(0 < row["ru_maxrss_mb"] < parent_mb - 100 for row in rows[1:]), (parent_mb, rows)


def test_timed_children_read_bytecode_from_one_prefix(monkeypatch):
    # A tree with __pycache__ and one without read alike: every child reads
    # and writes bytecode under the run's own prefix, whatever
    # PYTHONDONTWRITEBYTECODE says, and an untimed first command compiles all
    # that a timed one imports.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(paucopt.bench, "TRAIN_RUNS", (paucopt.bench.README_CONFIG,))
    monkeypatch.setattr(paucopt.bench, "EVALUATE_ROWS", (300,))
    envs, compiled = [], []

    def run(argv, env, **kwargs):
        envs.append(env)
        done = real_run(argv, env=env, **kwargs)
        compiled.append(sorted(Path(env["PYTHONPYCACHEPREFIX"]).rglob("*.pyc")))
        return done

    real_run = subprocess.run
    monkeypatch.setattr(paucopt.bench.subprocess, "run", run)
    rows = end_to_end(seed=0)
    assert [row["command"] for row in rows[1:]] == ["train", "generate", "evaluate"]
    assert len(envs) == 4
    assert all("PYTHONDONTWRITEBYTECODE" not in env for env in envs)
    assert len({env["PYTHONPYCACHEPREFIX"] for env in envs}) == 1
    assert any(path.name.startswith("cli.") for path in compiled[0])
    assert compiled[1:] == compiled[:1] * 3
