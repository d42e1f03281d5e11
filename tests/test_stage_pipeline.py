"""One pass per RK stage of ``CMTSolver``, held to the allocating forms.

The stage senses once, extracts only the planes the numerical flux
reads, adds ghost states in place and runs the Lax-Friedrichs/SAT chain
through its own buffers; ``tests/field_oracles.py`` keeps what it
replaced — a sensor and a modal round trip per component, full-size
ghost increments, ``full2face`` of every directional flux, the
``take_along_axis`` wavespeed, the one-line fluxes.  Every float, clock
reading, profile row and message must be the oracle's.
"""

import hashlib

import numpy as np
import pytest

from repro.kernels.gll import gll_points
from repro.lb import RebalancePolicy
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import (
    CMTSolver,
    IdealGas,
    ShockFilter,
    SolverConfig,
    ViscousModel,
    from_primitives,
    full2face_multi,
    run_with_recovery,
)
from repro.solver import numflux, riemann, shock
from repro.solver.boundary import BoundaryHandler, BoundarySpec
from repro.solver.surface import normal_flux_trace

from . import field_oracles as oracle
from .test_field_batching import _observables
from .test_gs_plan import same_bits

# A NaN would make every comparison below vacuous.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ORDERS = (4, 5, 6, 7, 8)
COUNTS = (1, 3, 8)
EOS = IdealGas()

LEFT = (1.0, 0.0, 0.0, 0.0, 2.5)
RIGHT = (0.125, 0.0, 0.0, 0.0, 0.25)


def spec(kind, state):
    return BoundarySpec(kind, state=state if kind == "dirichlet" else None)


def x_table(kind0, kind1):
    return {0: spec(kind0, LEFT), 1: spec(kind1, RIGHT)}


def x_channel(nelx, n, nranks=1, ny=1):
    """A box that ends in x and is periodic in y and z."""
    mesh = BoxMesh(
        (nelx, ny, 1), n=n, periodic=(False, True, True),
        lengths=(1.0, 0.25 * ny, 0.25),
    )
    return Partition(mesh, proc_shape=(nranks, 1, 1))


def random_state(shape, seed):
    """A physically admissible (5, ...) conserved state."""
    rng = np.random.default_rng(seed)
    rho = 0.5 + rng.random(shape)
    vel = 0.4 * rng.standard_normal((3,) + shape)
    vel[1, ..., 0] = 0.0  # exact zeros: their sign must survive too
    return from_primitives(rho, vel, 0.5 + rng.random(shape), eos=EOS).u


# -- (a) the shock filter ----------------------------------------------------


def filter_state(n, nel, troubled, seed):
    """A state whose density is smooth except on the ``troubled`` elements,
    roughened over the whole ramp of the filter."""
    rng = np.random.default_rng(seed)
    x = np.asarray(gll_points(n))  # linear on the element: modes 0 and 1
    rho = 1.0 + 0.05 * np.broadcast_to(x[:, None, None], (nel, n, n, n))
    amp = 10.0 ** rng.uniform(-2.3, -0.3, nel)
    rough = amp[:, None, None, None] * rng.standard_normal((nel, n, n, n))
    rho = rho + np.where(troubled[:, None, None, None], rough, 0.0)
    vel = 0.2 * rng.standard_normal((3, nel, n, n, n))
    return from_primitives(rho, vel, 1.0 + 0.0 * rho, eos=EOS).u


class TestShockFilterSensesOnce:
    @pytest.mark.parametrize("share", ["none", "some", "all"])
    @pytest.mark.parametrize("nel", COUNTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_state_equals_the_per_component_filter(self, n, nel, share):
        troubled = {
            "none": np.zeros(nel, bool),
            "some": np.arange(nel) % 2 == 0,
            "all": np.ones(nel, bool),
        }[share]
        u = filter_state(n, nel, troubled, seed=n * 31 + nel)
        kw = dict(n=n, threshold=-6.0, ramp=2.0)
        before = u.copy()
        got = ShockFilter(**kw).apply_state(u)
        filt = oracle.PerComponentShockFilter(**kw)
        theta = filt.strength(shock.smoothness_sensor(u[0]))
        assert np.array_equal(theta > 0, troubled)
        assert same_bits(got, filt.apply_state(u))
        assert same_bits(u, before) and not np.shares_memory(got, u)
        assert got.flags.c_contiguous
        # Untouched elements keep their bits.
        assert same_bits(got[:, ~troubled], u[:, ~troubled])

    def test_a_strided_state(self):
        u = filter_state(6, 6, np.arange(6) % 3 == 0, seed=5)[:, ::2]
        assert not u.flags.c_contiguous
        got = ShockFilter(n=6, threshold=-6.0).apply_state(u)
        want = oracle.PerComponentShockFilter(n=6, threshold=-6.0)
        assert same_bits(got, want.apply_state(u))

    def test_one_sensor_and_three_transforms_per_state(self, monkeypatch):
        calls = []
        for name in ("smoothness_sensor", "nodal_to_modal", "modal_to_nodal"):
            fn = getattr(shock, name)
            monkeypatch.setattr(
                shock, name,
                lambda u, _fn=fn, _name=name: (calls.append(_name), _fn(u))[1],
            )
        u = filter_state(5, 8, np.arange(8) < 3, seed=1)
        ShockFilter(n=5, threshold=-6.0).apply_state(u)
        assert calls.count("smoothness_sensor") == 1
        # (the sensor's transform and the filter's)
        assert calls.count("nodal_to_modal") == 2
        assert calls.count("modal_to_nodal") == 1
        del calls[:]
        oracle.PerComponentShockFilter(n=5, threshold=-6.0).apply_state(u)
        assert len(calls) == 5 + 10 + 5

    def test_wrong_order_is_rejected(self):
        with pytest.raises(ValueError, match="built for N=5"):
            ShockFilter(n=5).apply_state(np.ones((5, 2, 6, 6, 6)))


# -- (b) (d) traces, wavespeed, numerical flux -------------------------------


class TestStagePieces:
    @pytest.mark.parametrize("nel", COUNTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_normal_flux_trace_is_the_planes_full2face_kept(self, n, nel):
        fx, fy, fz = (random_state((nel, n, n, n), s) for s in (1, 2, 3))
        want = np.empty((5, nel, 6, n, n))
        want[:, :, 0:2] = full2face_multi(fx)[:, :, 0:2]
        want[:, :, 2:4] = full2face_multi(fy)[:, :, 2:4]
        want[:, :, 4:6] = full2face_multi(fz)[:, :, 4:6]
        got = np.full_like(want, np.nan)
        normal_flux_trace(fx, fy, fz, got)
        assert same_bits(got, want)
        # A subset writes its own elements and nothing else.
        some = np.arange(nel)[::2]
        got = np.zeros_like(want)
        normal_flux_trace(fx, fy, fz, got, some)
        assert same_bits(got[:, some], want[:, some])
        got[:, some] = 0.0
        assert not got.any()

    @pytest.mark.parametrize("nel", COUNTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_wavespeed_by_face_pairs(self, n, nel):
        part = x_channel(nel, n)
        uf = random_state((nel, 6, n, n), seed=n + nel)

        def main(comm):
            solver = CMTSolver(comm, part, config=SolverConfig(
                boundaries=x_table("outflow", "outflow")
            ))
            out = np.full(uf.shape[1:], np.nan)
            return solver._face_wavespeed(uf), solver._face_wavespeed(
                uf, out=out
            ) is out, out

        fresh, is_out, out = Runtime(nranks=1).run(main)[0]
        want = oracle.face_wavespeed(EOS, uf)
        assert is_out and same_bits(fresh, want) and same_bits(out, want)

    def test_numerical_flux_in_the_stage_buffers(self):
        shape = (5, 3, 6, 4, 4)
        um, up, fm, fp = (random_state(shape[1:], s) for s in range(4))
        lam = np.random.default_rng(9).standard_normal((1,) + shape[1:])
        want = oracle.lax_friedrichs(um, up, fm, fp, lam)
        fn = numflux.lax_friedrichs
        assert same_bits(fn(um, up, fm, fp, lam), want)
        # As the solver calls it: f* lands in f_plus, scratch is u_plus.
        out, work = fp.copy(), up.copy()
        got = fn(um, work, fm, out, lam, out=out, work=work)
        assert got is out and same_bits(got, want)


# -- (c) ghost states --------------------------------------------------------

KIND_PAIRS = [
    ("outflow", "outflow"), ("wall", "wall"), ("dirichlet", "dirichlet"),
    ("dirichlet", "outflow"), ("wall", "dirichlet"),
]


def check_ghosts(part, table, seeds=(0, 1, 2)):
    """In-place ghost addition vs the increment form, on every rank, over
    several stages of one handler (the Dirichlet constants are reused)."""
    n = part.mesh.n

    def main(comm):
        handler = BoundaryHandler(part, comm.rank, table)
        nel = handler.mask.shape[0]
        for seed in seeds:
            uf = random_state((nel, 6, n, n), seed)
            ff = random_state((nel, 6, n, n), seed + 50)
            lam = oracle.face_wavespeed(EOS, uf)
            # What the exchange leaves on unshared ids: the local trace.
            usum, fsum, lam_max = uf.copy(), ff.copy(), lam.copy()
            usum[:, :, 2:] *= 2.0  # ... and a neighbour's share elsewhere
            du, df, dlam = oracle.ghost_trace_increments(
                handler, uf, lam, EOS
            )
            want = usum + du, fsum + df, lam_max + dlam
            keep = uf.copy(), lam.copy()
            handler.add_ghost_traces(uf, lam, usum, fsum, lam_max, EOS)
            for g, w in zip((usum, fsum, lam_max), want):
                # == and not bits: ``x + 0.0`` lost the sign of a -0.0 the
                # in-place form keeps (the next operation, sum - mine,
                # gives +0.0 from either: the solver tests hold the bits).
                assert np.array_equal(g, w)
                on = handler.mask[:, :, None, None]
                assert same_bits(np.where(on, g, 0.0), np.where(on, w, 0.0))
            assert same_bits(uf, keep[0]) and same_bits(lam, keep[1])
        return int(handler.mask.sum()), len(handler._dirichlet)

    return Runtime(nranks=part.nranks).run(main)


class TestGhostsInPlace:
    @pytest.mark.parametrize("kinds", KIND_PAIRS, ids="-".join)
    @pytest.mark.parametrize("nel", COUNTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_both_ends_on_one_rank(self, n, nel, kinds):
        (faces, cached), = check_ghosts(x_channel(nel, n), x_table(*kinds))
        assert faces == 2 and cached == kinds.count("dirichlet")

    @pytest.mark.parametrize("kinds", KIND_PAIRS, ids="-".join)
    def test_one_end_per_rank(self, kinds):
        res = check_ghosts(x_channel(8, 5, nranks=2, ny=2), x_table(*kinds))
        assert [faces for faces, _ in res] == [2, 2]
        assert [c for _, c in res] == [int(k == "dirichlet") for k in kinds]

    def test_walls_on_two_axes(self):
        mesh = BoxMesh((2, 3, 1), n=5, periodic=(False, False, True))
        table = {f: BoundarySpec("wall") for f in range(4)}
        (faces, cached), = check_ghosts(Partition(mesh, (1, 1, 1)), table)
        assert faces == 2 * 3 + 2 * 2 and cached == 0


# -- the whole stage ---------------------------------------------------------


def sod_like(part, rank):
    """A milder Sod: the blended jump (small enough that a fully filtered
    N=4 element stays admissible), plus a transverse ripple so that no
    momentum component is identically zero."""
    mesh = part.mesh
    x, y, z = np.stack(
        [mesh.element_nodes(ec) for ec in part.local_elements(rank)], axis=1
    )
    width = 0.25 / mesh.shape[0]  # resolved enough to stay admissible
    blend = 0.5 * (1.0 + np.tanh((x - 0.5) / width))
    rho = 1.0 + (0.5 - 1.0) * blend
    p = 1.0 + (0.4 - 1.0) * blend
    ripple = 0.05 * np.sin(2.0 * np.pi * (y + z) / 0.25)
    vel = np.stack([0.1 + ripple, ripple, -ripple])
    return from_primitives(rho, vel, p, eos=EOS)


def run_stage(cls, filter_cls, part, table, nsteps=2, **config):
    n = part.mesh.n

    def main(comm):
        solver = cls(comm, part, config=SolverConfig(
            gs_method="pairwise", boundaries=table,
            shock_filter=filter_cls(n=n, threshold=-6.0, ramp=2.0),
            **config,
        ))
        state = sod_like(part, comm.rank)
        rhs = solver.rhs(state.u)
        for _ in range(nsteps):
            state = solver.step(state, 1e-4)
        return rhs, state.u, _observables(comm)

    rt = Runtime(nranks=part.nranks, trace_messages=True)
    return rt.run(main), rt.trace.events()


def assert_same_stage(part, table, **config):
    got, got_trace = run_stage(CMTSolver, ShockFilter, part, table, **config)
    want, want_trace = run_stage(
        oracle.PerFieldCMTSolver, oracle.PerComponentShockFilter, part, table,
        **config,
    )
    for rank, (g, w) in enumerate(zip(got, want, strict=True)):
        assert same_bits(g[0], w[0]), f"rank {rank} rhs"
        assert same_bits(g[1], w[1]), f"rank {rank} state"
        assert g[2] == w[2], f"rank {rank} clocks/profile rows"
    assert got_trace == want_trace


class TestStageMatchesTheAllocatingForms:
    @pytest.mark.parametrize("kinds", KIND_PAIRS, ids="-".join)
    @pytest.mark.parametrize("nel", COUNTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_one_rank(self, n, nel, kinds):
        assert_same_stage(x_channel(nel, n), x_table(*kinds))

    @pytest.mark.parametrize("viscous", [False, True])
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("n", ORDERS)
    def test_two_ranks_every_schedule(self, n, overlap, dealias, viscous):
        assert_same_stage(
            x_channel(8, n, nranks=2, ny=2), x_table("dirichlet", "wall"),
            overlap=overlap, dealias=dealias,
            viscosity=ViscousModel(mu=1e-3) if viscous else None,
        )

    @pytest.mark.parametrize("overlap", [False, True])
    def test_two_ranks_open_and_walled(self, overlap):
        assert_same_stage(
            x_channel(8, 5, nranks=2), x_table("outflow", "dirichlet"),
            overlap=overlap,
        )
        assert_same_stage(
            x_channel(8, 5, nranks=2), x_table("wall", "wall"),
            overlap=overlap,
        )

    def test_the_filter_fires_on_some_elements_only(self):
        part = x_channel(8, 5)
        theta = ShockFilter(n=5, threshold=-6.0).strength(
            shock.smoothness_sensor(sod_like(part, 0).u[0])
        )
        assert 0 < np.count_nonzero(theta) < 8

    @pytest.mark.parametrize("overlap", [False, True])
    def test_across_a_rebalance(self, overlap):
        """Migration changes how many boundary faces a rank holds: the new
        layout must not be served the old layout's ghost constants."""
        part = x_channel(8, 5, nranks=4, ny=2)
        policy = RebalancePolicy(mode="every", every=3, min_interval=0)

        def run(cls, filter_cls):
            def main(comm):
                solver = cls(comm, part, config=SolverConfig(
                    gs_method="pairwise",
                    boundaries=x_table("dirichlet", "dirichlet"),
                    shock_filter=filter_cls(n=5, threshold=-6.0),
                    compute_imbalance=0.4, lb=policy, overlap=overlap,
                ))
                first = solver.boundary
                final = solver.run(sod_like(part, comm.rank), 8, dt=1e-4)
                return (
                    solver.local_element_ids(), final.u, _observables(comm),
                    solver.lb.rebalances, solver.boundary is not first,
                )

            return Runtime(nranks=4).run(main)

        got = run(CMTSolver, ShockFilter)
        want = run(oracle.PerFieldCMTSolver, oracle.PerComponentShockFilter)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g[0], w[0]) and same_bits(g[1], w[1])
            assert g[2] == w[2]
            assert g[3] >= 1 and g[4]
        assert sorted(len(g[0]) for g in got) != [4, 4, 4, 4]

    def test_apply_assignment_drops_the_ghost_constants(self):
        part = x_channel(8, 5, nranks=2)

        def main(comm):
            from repro.lb import ElementAssignment

            solver = CMTSolver(comm, part, config=SolverConfig(
                gs_method="pairwise",
                boundaries=x_table("dirichlet", "dirichlet"),
            ))
            solver.step(sod_like(part, comm.rank), 1e-4)
            old = solver.boundary
            solver.apply_assignment(ElementAssignment.from_partition(part))
            return len(old._dirichlet), (
                solver.boundary is not old and not solver.boundary._dirichlet
            )

        assert Runtime(nranks=2).run(main) == [(1, True), (1, True)]


class TestSodEndToEnd:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_twelve_steps_with_the_oracles_patched_in(
        self, nranks, monkeypatch
    ):
        def campaign():
            setup = riemann.sod_problem(
                nranks, n=5, nelx=8, gs_method="pairwise"
            )
            states, report = run_with_recovery(
                setup, nranks=nranks, nsteps=12, dt=2e-4
            )
            digest = hashlib.sha256()
            for st in states:
                digest.update(st.u.tobytes())
            return digest.hexdigest(), report.total_virtual_seconds.hex()

        got = campaign()
        monkeypatch.setattr(riemann, "CMTSolver", oracle.PerFieldCMTSolver)
        monkeypatch.setattr(
            riemann, "ShockFilter", oracle.PerComponentShockFilter
        )
        assert got == campaign()
