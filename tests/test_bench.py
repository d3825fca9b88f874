import resource

import numpy as np
import pytest

import paucopt.bench
from paucopt.bench import bench_rows, end_to_end, step_sweep


@pytest.mark.parametrize("call,message", [
    (lambda: bench_rows((64,), reps=0), "^reps must be at least 1, got 0$"),
    (lambda: bench_rows((64, 1)), "^batch_sizes must be at least 2, got 1$"),
    (lambda: step_sweep(steps=0), "^steps must be at least 1, got 0$"),
], ids=["reps", "batch-sizes", "steps"])
def test_count_below_its_least_value_rejected(call, message):
    # with no rep or step nothing is timed, and a batch of 1 has no row for
    # one of its two classes
    with pytest.raises(ValueError, match=message):
        call()


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
