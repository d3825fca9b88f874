import pytest

from paucopt.bench import bench_rows, step_sweep


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
