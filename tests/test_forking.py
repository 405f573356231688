"""When ``forking.forked`` forks: one usable CPU per busy process."""

from assouad_lab import forking

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
