"""A run that conftest's worker process makes equals the same run made in this
process, bit for bit: criterion 9 reads its oracle4 reference that way."""

from reference import CHILD_RUNS, reference_run


def arrays(traj) -> list:
    """The data, then every recorded (u, v, A1, A2), in level order."""
    return [traj.data.u0, traj.data.v0, *(a for rec in traj.snapshots.values() for a in rec)]


def test_child_run_equals_an_in_process_run(small_oracle_future):
    here = reference_run(**CHILD_RUNS["small_oracle_future"])
    child = small_oracle_future.result()
    assert (child.params, child.grid) == (here.params, here.grid)
    assert child.max_fp_iterations == here.max_fp_iterations > 1
    assert list(child.snapshots) == list(here.snapshots) == [128, 256]
    assert [(a.dtype, a.tobytes()) for a in arrays(child)] == [
        (a.dtype, a.tobytes()) for a in arrays(here)]
