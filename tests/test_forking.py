"""``forking.forked``: when it forks (one usable CPU per busy process), and how
a child's value, error or death comes back to ``join``."""

import os
import select
import signal
import time

import numpy as np
import pytest

from assouad_lab import cli, forking
from assouad_lab.errors import InvalidParameterError
from assouad_lab.estimators import SpectrumEstimate
from assouad_lab.families import FamilySpec, sample_family

from conftest import two_cpus


@two_cpus
def test_a_process_forks_no_second_child_while_one_runs(forks):
    def child():
        return forking.can_overlap()  # a child runs its own work inline

    assert forking.can_overlap()
    with forking.forked(child, "test") as join:
        assert not forking.can_overlap()  # the child holds the second CPU
        with forking.forked(lambda: 1, "inner") as inner:  # so this runs inline
            assert inner() == 1
        assert join() is False
    assert forking.can_overlap() and len(forks) == 1


@two_cpus
def test_a_large_array_comes_back_whole(forks):
    big = np.random.default_rng(0).normal(size=(1 << 17, 3))  # 3 MB, many pipe buffers
    with forking.forked(lambda: big[1:], "test") as join:
        back = join()
    assert len(forks) == 1
    assert back.shape == (len(big) - 1, 3) and np.array_equal(back.view(np.int64),
                                                              big[1:].view(np.int64))


class Die:
    """Pickling it kills the process that pickles it."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


@two_cpus
@pytest.mark.parametrize("where", ["inside-the-array", "after-the-array"])
def test_a_child_killed_while_it_streams_its_result_raises_child_process_error(forks, where):
    big = np.ones(1 << 20)  # 8 MB: the child blocks on a full pipe until join reads
    ready_r, ready_w = os.pipe()

    def child():
        os.write(ready_w, b"x")
        return big if where == "inside-the-array" else (big, Die())

    with forking.forked(child, "stream") as join:
        assert select.select([ready_r], [], [], 60)[0] and os.read(ready_r, 1) == b"x"
        if where == "inside-the-array":
            time.sleep(0.2)  # the child is now writing the array's bytes
            os.kill(forks[0], signal.SIGKILL)
        with pytest.raises(ChildProcessError) as info:  # not a pickle error, nor a partial value
            join()
    os.close(ready_r)
    os.close(ready_w)
    assert str(info.value) == "the forked stream process ended with code -9"
    assert forking.can_overlap()  # reaped


@two_cpus
def test_a_childs_exception_comes_back_as_itself(forks):
    def child():
        raise InvalidParameterError("bad input")

    with forking.forked(child, "test") as join:
        with pytest.raises(InvalidParameterError, match="^bad input$"):
            join()
    assert len(forks) == 1


@two_cpus
def test_verify_source_estimate_comes_back_as_inline(forks):
    ps = sample_family(FamilySpec(kind="poly_spiral", a=1.0, x_max=100.0,
                                  target_resolution=1e-3))
    grid = [0.1, 0.3, 0.5]
    inline, _ = cli._estimate_curve(ps, grid, 50)
    with forking.forked(lambda: cli._estimate_curve(ps, grid, 50), "estimate") as join:
        spec, seconds = join()
    assert len(forks) == 1
    assert type(spec) is SpectrumEstimate and spec.to_json() == inline.to_json()
    assert isinstance(seconds, float) and seconds > 0
