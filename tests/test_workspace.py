"""Workspace reuse and ``out=`` kernels — bitwise-identity guarantees.

The hot-path optimization (reusable buffers through the derivative
kernels, flux assembly, and RK steppers) is only admissible because it
changes *allocation*, never *arithmetic*: every ``out=`` variant must
produce bit-for-bit the same floats as its allocating twin, and the
solver (pooled stage buffers, in-place RK) must reproduce the trajectory
of the fresh-allocating oracle in ``field_oracles.py`` exactly.
"""

import numpy as np
import pytest

from repro.kernels import Workspace, derivative_matrix, grad_workspace
from repro.kernels import derivatives as dk
from repro.solver.rk import step_ssprk3

from . import field_oracles, kernel_oracles as oracle

VARIANTS = ("basic", "fused", "einsum")
DIRECTIONS = ("r", "s", "t")


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(1234)
    n = 7
    return rng.standard_normal((9, n, n, n)), derivative_matrix(n)


# -- Workspace semantics --------------------------------------------------

class TestWorkspace:
    def test_buffer_reused_for_same_key(self):
        w = Workspace()
        a = w.buffer((4, 3), key="a")
        b = w.buffer((4, 3), key="a")
        assert a is b
        assert len(w) == 1

    def test_distinct_keys_never_alias(self):
        w = Workspace()
        a = w.buffer((4, 3), key="a")
        b = w.buffer((4, 3), key="b")
        assert not np.shares_memory(a, b)

    def test_shape_change_allocates_fresh(self):
        w = Workspace()
        a = w.buffer((4, 3), key="a")
        b = w.buffer((5, 3), key="a")
        assert a.shape != b.shape

    def test_zeros_is_zeroed_on_every_call(self):
        w = Workspace()
        z = w.zeros((3,), key="z")
        z[:] = 7.0
        assert np.all(w.zeros((3,), key="z") == 0.0)

    def test_clear_drops_buffers(self):
        w = Workspace()
        w.buffer((4,), key="a")
        assert w.nbytes > 0
        w.clear()
        assert len(w) == 0 and w.nbytes == 0

    def test_a_hit_is_found_however_the_key_is_spelled(self):
        """The raw (key, shape, dtype) is looked up first; a list shape, a
        dtype class or numpy ints miss it, are normalised and land on the
        same buffer: one entry, never an alias."""
        w = Workspace()
        a = w.buffer((4, 3), np.dtype(np.float64), key="a")
        assert w.buffer((4, 3), key="a") is a
        assert w.buffer([4, 3], np.float64, key="a") is a
        assert w.buffer((np.int64(4), np.int32(3)), "f8", key="a") is a
        assert w.like(a, key="a") is a and w.zeros([4, 3], key="a") is a
        assert len(w) == 1 and w.nbytes == a.nbytes
        assert w.buffer((4, 3), np.float32, key="a") is not a
        assert len(w) == 2

    def test_like_matches_template(self):
        w = Workspace()
        t = np.empty((2, 3, 3, 3))
        assert w.like(t, "x").shape == t.shape


# -- out= kernels bitwise vs allocating -----------------------------------

class TestDerivativeOut:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_out_bitwise_identical(self, batch, variant, direction):
        u, dmat = batch
        ref = oracle.derivative(u, dmat, direction, variant)
        out = np.full_like(u, np.nan)  # stale garbage must be overwritten
        res = dk.derivative(u, dmat, direction, variant=variant, out=out)
        assert res is out
        assert np.array_equal(ref, res)

    def test_grad_workspace_bitwise(self, batch):
        u, dmat = batch
        work = Workspace()
        ref = oracle.grad(u, dmat)
        res = dk.grad(u, dmat, out=grad_workspace(work, u))
        for a, b in zip(ref, res):
            assert np.array_equal(a, b)
        # Second call reuses the same buffers and still matches.
        res2 = dk.grad(u, dmat, out=grad_workspace(work, u))
        for a, b in zip(ref, res2):
            assert np.array_equal(a, b)

    def test_out_aliasing_input_rejected(self, batch):
        u, dmat = batch
        with pytest.raises(ValueError, match="alias"):
            dk.dudr(u, dmat, out=u)

    def test_out_bad_shape_rejected(self, batch):
        u, dmat = batch
        with pytest.raises(ValueError):
            dk.dudr(u, dmat, out=np.empty((1,) + u.shape[1:]))


# -- RK stepper: in-place pipeline bitwise vs the textbook formulas -------

class TestSteppersWorkspace:
    def test_work_path_bitwise(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((4, 5, 5, 5))

        def rhs(v):
            return np.sin(v) - 0.1 * v

        plain = field_oracles.step_ssprk3(u, rhs, dt=1e-3)
        work = Workspace()
        with_ws = step_ssprk3(u, rhs, dt=1e-3, work=work)
        assert np.array_equal(plain, with_ws)
        # The result must not live inside the workspace (state outlives
        # the step; a later stage would clobber it otherwise).
        for buf in (work.buffer(u.shape, key=k)
                    for k in ("rk:t", "rk:u1", "rk:u2")):
            assert not np.shares_memory(with_ws, buf)


# -- full solver: pooled vs fresh-allocating oracle, bitwise --------------

class TestSolverWorkspace:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_sod_bitwise_with_and_without_workspace(
        self, overlap, monkeypatch
    ):
        from repro.mpi import Runtime
        from repro.perfmodel.machine import MachineModel
        from repro.solver import riemann

        def run():
            setup = riemann.sod_problem(2, n=5, nelx=8, gs_method="pairwise")

            def main(comm):
                solver, state = setup(comm)
                solver.config.overlap = overlap
                return solver.run(state, 4).u

            rt = Runtime(
                nranks=2, machine=MachineModel.preset("compton")
            )
            return rt.run(main)

        pooled = run()
        monkeypatch.setattr(
            riemann, "CMTSolver", field_oracles.PerFieldCMTSolver
        )
        monkeypatch.setattr(
            riemann, "ShockFilter", field_oracles.PerComponentShockFilter
        )
        for a, b in zip(pooled, run()):
            assert np.array_equal(a, b)
