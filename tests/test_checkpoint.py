"""Checkpoint / restart of distributed solver state."""

import json
import shutil

import numpy as np
import pytest

from repro.mesh import BoxMesh, Partition
from repro.mpi import MPIError, Runtime
from repro.solver import (
    CheckpointError,
    CMTSolver,
    IdealGas,
    SolverConfig,
    from_primitives,
    uniform_state,
)
from repro.solver.checkpoint import (
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)

MESH = BoxMesh(shape=(4, 2, 2), n=4)
PART = Partition(MESH, proc_shape=(2, 1, 1))


def make_state(rank, eos=None):
    rng = np.random.default_rng(100 + rank)
    rho = 1.0 + 0.05 * rng.random((PART.nel_local,) + (MESH.n,) * 3)
    vel = 0.1 * rng.standard_normal((3,) + rho.shape)
    p = 1.0 + 0.05 * rng.random(rho.shape)
    return from_primitives(rho, vel, p, eos=eos)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        def main(comm):
            st = make_state(comm.rank)
            save_checkpoint(tmp_path, comm, PART, st, step=7, time=0.35)
            back, info = load_checkpoint(tmp_path, comm, PART)
            return (
                float(np.max(np.abs(back.u - st.u))),
                info.step,
                info.time,
                type(back.eos).__name__,
            )

        res = Runtime(nranks=2).run(main)
        for err, step, time, eos_name in res:
            assert err == 0.0
            assert step == 7 and time == 0.35
            assert eos_name == "IdealGas"

    @pytest.mark.parametrize("gamma,r_gas", [
        (1.4, 287.0), (5.0 / 3.0, 1.0), (4.0, 8.314),
    ])
    def test_ideal_eos_round_trips(self, tmp_path, gamma, r_gas):
        eos = IdealGas(gamma=gamma, r_gas=r_gas)

        def main(comm):
            st = make_state(comm.rank, eos=eos)
            save_checkpoint(tmp_path, comm, PART, st)
            back, _ = load_checkpoint(tmp_path, comm, PART)
            return back.eos, bool(np.array_equal(back.u, st.u))

        res = Runtime(nranks=2).run(main)
        assert all(e == eos and same for e, same in res)

    def test_manifest_contents(self, tmp_path):
        def main(comm):
            save_checkpoint(tmp_path, comm, PART, make_state(comm.rank),
                            step=3)

        Runtime(nranks=2).run(main)
        info = read_manifest(tmp_path)
        assert info.mesh_shape == (4, 2, 2)
        assert info.n == 4
        assert info.proc_shape == (2, 1, 1)
        assert info.nranks == 2
        assert info.step == 3


class TestValidation:
    def _write(self, tmp_path):
        def main(comm):
            save_checkpoint(tmp_path, comm, PART, make_state(comm.rank))

        Runtime(nranks=2).run(main)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)

    def test_rank_count_mismatch(self, tmp_path):
        self._write(tmp_path)
        part4 = Partition(MESH, proc_shape=(2, 2, 1))

        def main(comm):
            load_checkpoint(tmp_path, comm, part4)

        with pytest.raises(Exception, match="ranks"):
            Runtime(nranks=4).run(main)

    def test_mesh_mismatch(self, tmp_path):
        self._write(tmp_path)
        other = Partition(BoxMesh(shape=(4, 2, 2), n=5),
                          proc_shape=(2, 1, 1))

        def main(comm):
            load_checkpoint(tmp_path, comm, other)

        with pytest.raises(Exception, match="mesh"):
            Runtime(nranks=2).run(main)


class TestCrashSafety:
    """The hardened load path: every torn-checkpoint shape fails loudly.

    ``load_checkpoint`` runs inside a 2-rank job, so the offending
    rank's :class:`CheckpointError` surfaces wrapped in the runtime's
    :class:`MPIError` with the original message in the traceback text.
    """

    STEP, TIME = 4, 0.2

    def _write(self, tmp_path):
        def main(comm):
            save_checkpoint(tmp_path, comm, PART, make_state(comm.rank),
                            step=self.STEP, time=self.TIME)

        Runtime(nranks=2).run(main)

    def _load(self, tmp_path):
        def main(comm):
            load_checkpoint(tmp_path, comm, PART)

        Runtime(nranks=2).run(main)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        """The directory holds exactly the rank files and the manifest
        (whatever the temp files were called)."""
        self._write(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "state.00000.npz", "state.00001.npz",
        ]

    def test_manifest_records_commit_vtime(self, tmp_path):
        self._write(tmp_path)
        # Rank 0's clock at manifest commit: past the barriers and the
        # modelled checkpoint write, so strictly positive.
        assert read_manifest(tmp_path).vtime > 0.0

    def test_missing_rank_file_named(self, tmp_path):
        self._write(tmp_path)
        (tmp_path / "state.00001.npz").unlink()
        with pytest.raises(MPIError, match=r"state\.00001\.npz is missing"):
            self._load(tmp_path)

    def test_corrupt_rank_file_named(self, tmp_path):
        self._write(tmp_path)
        (tmp_path / "state.00001.npz").write_bytes(b"not a zipfile")
        with pytest.raises(MPIError, match=r"state\.00001\.npz is unreadable"):
            self._load(tmp_path)

    def test_rank_file_missing_array(self, tmp_path):
        self._write(tmp_path)
        path = tmp_path / "state.00001.npz"
        with open(path, "wb") as fh:       # valid npz, wrong contents
            np.savez_compressed(fh, u=np.zeros(3))
        with pytest.raises(MPIError, match="missing array"):
            self._load(tmp_path)

    def test_stale_rank_file_detected(self, tmp_path):
        self._write(tmp_path)
        path = tmp_path / "state.00001.npz"
        with np.load(path) as data:
            u = np.array(data["u"])
        with open(path, "wb") as fh:       # right shape, older step
            np.savez_compressed(fh, u=u, rank=1, step=self.STEP - 1,
                                time=self.TIME)
        with pytest.raises(MPIError, match="stale"):
            self._load(tmp_path)

    def test_misplaced_rank_file_detected(self, tmp_path):
        self._write(tmp_path)
        shutil.copy(tmp_path / "state.00000.npz",
                    tmp_path / "state.00001.npz")
        with pytest.raises(MPIError, match="belongs to rank 0"):
            self._load(tmp_path)

    @pytest.mark.parametrize("corrupt", [
        lambda text, m: text[: len(text) // 2],
        lambda text, m: json.dumps([m]),
        lambda text, m: json.dumps({k: v for k, v in m.items()
                                    if k != "step"}),
        lambda text, m: json.dumps({**m, "step": "4"}),
        lambda text, m: json.dumps({**m, "mesh_shape": 4}),
        # What an older writer stored for a stiffened-gas EOS.
        lambda text, m: json.dumps({**m, "eos": {
            "kind": "stiffened", "gamma": 4.0, "p_inf": 1.25,
            "r_gas": 287.0,
        }}),
        lambda text, m: "",
        lambda text, m: "null",
        lambda text, m: json.dumps({**m, "format_version": -1}),
        *(
            (lambda key: lambda text, m: json.dumps(
                {k: v for k, v in m.items() if k != key}
            ))(key)
            for key in ("time", "nranks", "mesh_shape", "n", "proc_shape",
                        "eos")
        ),
        lambda text, m: json.dumps({**m, "time": [0.2]}),
        lambda text, m: json.dumps({**m, "nranks": 2.0}),
        lambda text, m: json.dumps({**m, "n": "4"}),
        lambda text, m: json.dumps({**m, "proc_shape": {"x": 2}}),
        lambda text, m: json.dumps({**m, "eos": ["ideal", 1.4]}),
        lambda text, m: json.dumps({**m, "eos": {**m["eos"], "kind": "vdw"}}),
        lambda text, m: json.dumps({**m, "eos": {"kind": "ideal"}}),
        lambda text, m: json.dumps({**m, "eos": {**m["eos"], "gamma": 1.0}}),
    ], ids=["truncated", "list", "missing-step", "string-step",
            "int-mesh-shape", "stiffened-eos", "empty", "null",
            "wrong-format-version", "missing-time", "missing-nranks",
            "missing-mesh-shape", "missing-n", "missing-proc-shape",
            "missing-eos", "list-time", "float-nranks", "string-n",
            "object-proc-shape", "list-eos", "unknown-eos-kind",
            "eos-missing-gamma", "eos-gamma-one"])
    def test_corrupt_manifest_named(self, tmp_path, corrupt):
        self._write(tmp_path)
        path = tmp_path / "manifest.json"
        text = path.read_text()
        path.write_text(corrupt(text, json.loads(text)))
        with pytest.raises(CheckpointError) as err:
            read_manifest(tmp_path)
        assert f"checkpoint manifest {path} is corrupt" in str(err.value)

    def test_checkpoint_error_is_a_runtime_error(self):
        # Callers catching RuntimeError keep working.
        assert issubclass(CheckpointError, RuntimeError)


class TestRestartContinuity:
    def test_restart_continues_bitwise(self, tmp_path):
        """Run 6 steps straight vs 3 + checkpoint + restart + 3."""

        def straight(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            st = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.0, 0.0))
            st.u[0] += 1e-3 * np.sin(
                np.arange(st.u[0].size)
            ).reshape(st.u[0].shape)
            st = solver.run(st, nsteps=6, dt=1e-3)
            return st.u

        def restarted(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            st = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.0, 0.0))
            st.u[0] += 1e-3 * np.sin(
                np.arange(st.u[0].size)
            ).reshape(st.u[0].shape)
            st = solver.run(st, nsteps=3, dt=1e-3)
            save_checkpoint(tmp_path, comm, PART, st, step=3)
            st2, info = load_checkpoint(tmp_path, comm, PART)
            solver2 = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            st2 = solver2.run(st2, nsteps=3, dt=1e-3)
            return st2.u

        u_straight = Runtime(nranks=2).run(straight)
        u_restart = Runtime(nranks=2).run(restarted)
        for a, b in zip(u_straight, u_restart):
            np.testing.assert_array_equal(a, b)


class TestJobIdNamespacing:
    def test_manifest_records_job_id(self, tmp_path):
        def main(comm):
            save_checkpoint(tmp_path, comm, PART, make_state(comm.rank),
                            step=3, job_id="jobA")
            return read_manifest(tmp_path).job_id

        assert Runtime(nranks=2).run(main) == ["jobA", "jobA"]

    def test_mismatched_job_id_rejected(self, tmp_path):
        def main(comm):
            save_checkpoint(tmp_path, comm, PART, make_state(comm.rank),
                            job_id="jobA")
            return 0

        Runtime(nranks=2).run(main)
        with pytest.raises(CheckpointError, match="belongs to job"):
            read_manifest(tmp_path, expect_job_id="jobB")

        def try_load(comm):
            load_checkpoint(tmp_path, comm, PART, expect_job_id="jobB")

        with pytest.raises(MPIError):
            Runtime(nranks=2).run(try_load)

    def test_matching_and_legacy_manifests_accepted(self, tmp_path):
        def main(comm):
            save_checkpoint(tmp_path, comm, PART, make_state(comm.rank),
                            job_id="jobA")
            return 0

        Runtime(nranks=2).run(main)
        assert read_manifest(tmp_path, expect_job_id="jobA").job_id == "jobA"

        # Legacy manifest (no job_id recorded): any expectation passes.
        legacy = tmp_path / "legacy"

        def save_legacy(comm):
            save_checkpoint(legacy, comm, PART, make_state(comm.rank))
            return 0

        Runtime(nranks=2).run(save_legacy)
        info = read_manifest(legacy, expect_job_id="whatever")
        assert info.job_id is None

    def test_namespace_helper_isolates_jobs(self, tmp_path):
        from repro.solver import checkpoint_namespace

        a = checkpoint_namespace(tmp_path, "jobA")
        b = checkpoint_namespace(tmp_path, "jobB")
        assert a != b and a.parent == b.parent == tmp_path

    def test_concurrent_campaigns_share_base_dir(self, tmp_path):
        """Two run_with_recovery campaigns with different job ids must
        not adopt each other's checkpoints under one base directory."""
        import numpy as np

        from repro.solver import sod_problem
        from repro.solver import run_with_recovery

        setup = sod_problem(2, n=4, nelx=8, gs_method="pairwise")
        states_a, _ = run_with_recovery(
            setup, nranks=2, nsteps=4, checkpoint_every=2,
            checkpoint_dir=tmp_path, job_id="jobA",
        )
        states_b, _ = run_with_recovery(
            setup, nranks=2, nsteps=4, checkpoint_every=2,
            checkpoint_dir=tmp_path, job_id="jobB",
        )
        assert (tmp_path / "job-jobA").is_dir()
        assert (tmp_path / "job-jobB").is_dir()
        for a, b in zip(states_a, states_b):
            assert np.array_equal(a.u, b.u)
