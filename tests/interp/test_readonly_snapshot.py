"""A read-only ``ArrayStore`` snapshot survives the runs that start
from it: ``execute`` copies it into a fresh store per run."""

import numpy as np
import pytest

from repro.interp.executor import ArrayStore, execute
from repro.kernels import simplified_cholesky


class TestReadOnlySnapshot:
    """The loop-order search runs every variant from one shared,
    read-only initial-state snapshot."""

    def test_base_snapshot_not_mutated(self):
        """The shared initial-state snapshot must survive a search
        untouched — execute() copies it into a fresh store per variant."""
        program = simplified_cholesky()
        store = ArrayStore(program, {"N": 8})
        base = store.snapshot()
        frozen = {k: v.copy() for k, v in base.items()}
        for arr in base.values():
            arr.setflags(write=False)
        out, _ = execute(program, {"N": 8}, arrays=base)
        for name in base:
            np.testing.assert_array_equal(base[name], frozen[name])
        # the run itself must have written *somewhere* (to its own copy)
        assert any(
            not np.array_equal(out.arrays[n], base[n]) for n in base
        )

    def test_readonly_base_rejects_writes(self):
        program = simplified_cholesky()
        base = ArrayStore(program, {"N": 8}).snapshot()
        for arr in base.values():
            arr.setflags(write=False)
        name = next(iter(base))
        with pytest.raises(ValueError):
            base[name][(0,) * base[name].ndim] = 1.0
