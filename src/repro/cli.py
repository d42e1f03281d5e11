"""Command-line mini-app runner: ``python -m repro.cli <command>``.

Mirrors how the Fortran CMT-bone/Nekbone are driven (a parameter deck
plus ``mpiexec -n P``): one process simulates all ranks.

Commands
--------
``cmtbone``
    Run the CMT-bone mini-app, print the gs auto-tune table, the
    gprof-style compute profile, and the mpiP-style MPI report.
``nekbone``
    Run the Nekbone comparator (CG solve) and print its profile.
``fig7``
    Reproduce the paper's Fig. 7 exchange-method comparison.
``vscale``
    Virtual scale-out study: execute a small rank sample, model
    10^4-10^5 ranks analytically, and gate on modeled-vs-executed
    agreement (see docs/virtual-scale.md).
``sod``
    Run a small Sod shock-tube campaign on the real DG solver, with
    optional fault injection (``--fault-spec``), checkpointing, and
    crash recovery; ``--verify`` proves the recovered fields bitwise
    identical to a fault-free run.
``machines``
    List the available machine-model presets.

Examples
--------
::

    python -m repro.cli cmtbone --ranks 8 -N 10 --local 2,2,2 --steps 10
    python -m repro.cli nekbone --ranks 8 --iterations 50
    python -m repro.cli fig7 --ranks 64 --machine compton
    python -m repro.cli vscale --ranks 65536 --sample 32 --mtbf 5000
    python -m repro.cli sod --ranks 2 --steps 12 --checkpoint-every 3 \
        --fault-spec "crash:rank=1,step=5" --verify
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence

from .analysis import full_report, mpi_fraction_report
from .core import (
    CMTBone,
    CMTBoneConfig,
    Nekbone,
    NekboneConfig,
    cmtbone_profile_report,
    fig7_table,
    nekbone_profile_report,
    run_nekbone,
)
from .gs import timing_table
from .kir.library import CLI_VARIANTS
from .mpi import Runtime
from .perfmodel import MachineModel


def _int_at_least(lo: int):
    """argparse type: an int ``>= lo``, rejected with a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" wording
    return parse


def _float_at_least(lo: float, strict: bool = False):
    """argparse type: a float ``>= lo`` (``> lo`` if ``strict``); NaN is
    rejected too."""
    bound = f"{'>' if strict else '>='} {lo:g}"

    def parse(text: str) -> float:
        value = float(text)
        if not (value > lo if strict else value >= lo):
            raise argparse.ArgumentTypeError(
                f"must be {bound}, got {value}"
            )
        return value

    parse.__name__ = "float"  # argparse's "invalid float value" wording
    return parse


#: ``repro.bench.schema.GROUPS``, spelled out so that building the
#: parser does not import the benchmark runner.
_BENCH_GROUPS = ("kernels", "solver", "comms", "service", "vscale")


def _coord(text: str):
    parts = [int(p) for p in text.split(",")]
    if len(parts) not in (1, 3) or min(parts) < 1:
        raise argparse.ArgumentTypeError(
            f"expected N or X,Y,Z of positive ints, got {text!r}"
        )
    return parts[0] if len(parts) == 1 else tuple(parts)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", type=_int_at_least(1), default=8,
                   help="simulated MPI ranks (default 8)")
    p.add_argument("-N", "--points", type=_int_at_least(2), default=10,
                   help="GLL points per direction (default 10)")
    p.add_argument("--local", type=_coord, default=(2, 2, 2),
                   help="elements per rank, X,Y,Z or total (default 2,2,2)")
    p.add_argument("--proc", type=_coord, default=None,
                   help="processor grid X,Y,Z (default: auto-factor)")
    p.add_argument("--machine", default="compton",
                   choices=MachineModel.available_presets(),
                   help="machine-model preset (default compton)")
    p.add_argument("--gs-method", default=None,
                   choices=["pairwise", "crystal", "allreduce"],
                   help="exchange method (default: auto-tune)")
    p.add_argument("--proxy", action="store_true",
                   help="skip real array math; model compute time only")
    _add_backend(p)


def _add_backend(p: argparse.ArgumentParser) -> None:
    from .mpi import available_backends

    p.add_argument("--backend", default="threads",
                   choices=available_backends(),
                   help="execution backend: threads (default), procs "
                        "(one OS process per rank; escapes the GIL), or "
                        "sockets (processes over TCP/Unix sockets; see "
                        "the launch subcommand and docs/backends.md)")


def _add_lb_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lb", default="off",
                   choices=["off", "auto", "every", "manual"],
                   help="dynamic load balancing: off, auto (threshold "
                        "trigger), every (fixed cadence), or manual "
                        "(monitor only; see docs/load-balancing.md)")
    p.add_argument("--lb-threshold", type=_float_at_least(1), default=1.10,
                   help="max/mean cost-imbalance trigger for --lb auto "
                        "(default 1.10)")
    p.add_argument("--lb-every", type=int, default=0,
                   help="rebalance cadence in steps for --lb every")


def _lb_policy(args):
    """The RebalancePolicy the --lb* flags describe, or None for off."""
    if args.lb == "off":
        return None
    from .lb import RebalancePolicy

    return RebalancePolicy(
        mode=args.lb,
        threshold=args.lb_threshold,
        every=args.lb_every,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CMT-bone mini-app reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cmt = sub.add_parser("cmtbone", help="run the CMT-bone mini-app")
    _add_common(p_cmt)
    p_cmt.add_argument("--steps", type=_int_at_least(0), default=10,
                       help="timesteps (default 10)")
    p_cmt.add_argument("--imbalance", type=_float_at_least(0), default=0.0,
                       help="compute-load jitter fraction (default 0)")
    p_cmt.add_argument("--pack", action="store_true",
                       help="use gs_op_many packed exchanges")
    p_cmt.add_argument("--overlap", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="split-phase schedule: overlap the gs "
                            "exchange with the update compute")
    p_cmt.add_argument("--kernel-variant", "--variant", dest="variant",
                       default="fused", choices=CLI_VARIANTS,
                       help="derivative-kernel loop form (default "
                            "fused = batched GEMM; basic = per-plane "
                            "loops; einsum = cross-check; auto = the "
                            "schedule autotuned per host, see "
                            "docs/kernel-ir.md)")
    p_cmt.add_argument("--gantt", action="store_true",
                       help="render a per-rank execution timeline")
    _add_lb_flags(p_cmt)

    p_nek = sub.add_parser("nekbone", help="run the Nekbone comparator")
    _add_common(p_nek)
    p_nek.add_argument("--iterations", type=_int_at_least(0), default=50,
                       help="CG iteration budget (default 50)")

    p_f7 = sub.add_parser("fig7", help="exchange-method comparison table")
    _add_common(p_f7)

    p_vs = sub.add_parser(
        "vscale",
        help="virtual scale-out study: model 10^4-10^5 ranks from a "
             "small executed sample (see docs/virtual-scale.md)",
    )
    p_vs.add_argument("--ranks", type=int, default=65536,
                      help="virtual rank count to model (default 65536)")
    p_vs.add_argument("--sample", type=int, default=16,
                      help="ranks to actually execute for the "
                           "modeled-vs-executed agreement gate "
                           "(default 16)")
    p_vs.add_argument("-N", "--points", type=_int_at_least(2), default=8,
                      help="GLL points per direction (default 8)")
    p_vs.add_argument("--local", type=_coord, default=(3, 3, 2),
                      help="elements per rank, X,Y,Z or total "
                           "(default 3,3,2)")
    p_vs.add_argument("--proc", type=_coord, default=None,
                      help="processor grid for the virtual job "
                           "(default: auto-factor)")
    p_vs.add_argument("--machine", default="compton",
                      choices=MachineModel.available_presets(),
                      help="machine-model preset (default compton)")
    p_vs.add_argument("--steps", type=_int_at_least(0), default=2,
                      help="timesteps (default 2)")
    p_vs.add_argument("--gs-method", action="append", dest="methods",
                      choices=["pairwise", "crystal", "allreduce"],
                      help="exchange method to model (repeatable; "
                           "default: all three)")
    p_vs.add_argument("--overlap", action=argparse.BooleanOptionalAction,
                      default=False,
                      help="model the split-phase overlapped schedule")
    p_vs.add_argument("--imbalance", type=_float_at_least(0), default=0.0,
                      help="compute-load jitter fraction (default 0)")
    p_vs.add_argument("--proxy", action="store_true",
                      help="proxy compute in the executed sample "
                           "(skip real array math)")
    p_vs.add_argument("--no-execute", action="store_true",
                      help="model only: skip the executed sample and "
                           "the agreement gate")
    p_vs.add_argument("--tolerance", type=float, default=None,
                      help="override the per-method agreement "
                           "tolerance (default: per-method, see "
                           "docs/virtual-scale.md)")
    p_vs.add_argument("--mtbf", type=_float_at_least(0, strict=True),
                      default=None,
                      help="per-rank MTBF in hours: extrapolate "
                           "Young/Daly checkpoint economics at the "
                           "virtual scale")
    p_vs.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON document "
                           "instead of the text report")
    _add_backend(p_vs)

    p_val = sub.add_parser(
        "validate",
        help="mini-app vs parent-application validation study",
    )
    _add_common(p_val)
    p_val.add_argument("--steps", type=_int_at_least(0), default=4,
                       help="timesteps for both apps (default 4)")
    p_val.add_argument("--calibrated", action="store_true",
                       help="use the exchange_fields=11 calibration")
    p_val.add_argument("--overlap", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="overlapped split-phase schedule in both "
                            "the mini-app and the parent solver")

    p_k = sub.add_parser(
        "kernels", help="Fig. 5/6 derivative-kernel counter tables"
    )
    p_k.add_argument("-N", "--points", type=_int_at_least(2), default=5,
                     help="GLL points per direction (paper: 5)")
    p_k.add_argument("--elements", type=_int_at_least(1), default=1563,
                     help="element count (paper: 1563)")
    p_k.add_argument("--steps", type=_int_at_least(0), default=1000,
                     help="timesteps (paper: 1000)")

    p_sod = sub.add_parser(
        "sod",
        help="Sod shock tube with fault injection + crash recovery",
    )
    p_sod.add_argument("--ranks", type=_int_at_least(1), default=2,
                       help="simulated MPI ranks (default 2)")
    p_sod.add_argument("-N", "--points", type=_int_at_least(2), default=6,
                       help="GLL points per direction (default 6)")
    p_sod.add_argument("--elements", type=_int_at_least(1), default=16,
                       help="elements along the tube (default 16; must "
                            "divide by --ranks)")
    p_sod.add_argument("--steps", type=_int_at_least(0), default=12,
                       help="timesteps (default 12)")
    p_sod.add_argument("--dt", type=float, default=2e-4,
                       help="fixed timestep, s (default 2e-4; fixed so "
                            "recovered runs are bitwise comparable)")
    p_sod.add_argument("--machine", default="compton",
                       choices=MachineModel.available_presets(),
                       help="machine-model preset (default compton)")
    p_sod.add_argument("--gs-method", default="pairwise",
                       choices=["pairwise", "crystal", "allreduce"],
                       help="exchange method (default pairwise)")
    p_sod.add_argument("--fault-spec", default=None,
                       help="fault plan, e.g. 'crash:rank=1,step=5;"
                            "drop:p=0.01' (see docs/fault-injection.md)")
    p_sod.add_argument("--fault-seed", type=int, default=0,
                       help="seed for probabilistic fault decisions")
    p_sod.add_argument("--checkpoint-every", type=_int_at_least(0),
                       default=0,
                       help="write a checkpoint every N steps (0 = off)")
    p_sod.add_argument("--checkpoint-dir", default=None,
                       help="checkpoint base directory (default: a tempdir);"
                            " checkpoints live in a job-<id> subdirectory")
    p_sod.add_argument("--job-id", default=None,
                       help="job identity for checkpoint namespacing "
                            "(default: a generated unique id)")
    p_sod.add_argument("--gantt", action="store_true",
                       help="render the campaign recovery timeline")
    p_sod.add_argument("--verify", action="store_true",
                       help="also run fault-free and require bitwise-"
                            "identical final fields (exit 1 otherwise)")
    p_sod.add_argument("--imbalance", type=_float_at_least(0), default=0.0,
                       help="compute-load jitter fraction (default 0)")
    p_sod.add_argument("--kernel-variant", dest="kernel_variant",
                       default="fused", choices=CLI_VARIANTS,
                       help="derivative-kernel variant (default fused)")
    _add_backend(p_sod)
    _add_lb_flags(p_sod)

    p_bench = sub.add_parser(
        "bench",
        help="performance benchmark runner with baseline comparison",
    )
    p_bench.add_argument(
        "--group", action="append", dest="groups",
        choices=list(_BENCH_GROUPS),
        help="restrict to a scenario group (repeatable; default all)",
    )
    p_bench.add_argument(
        "--fast", action="store_true",
        help="fast scenarios only (the PR perf-gate tier)",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=None,
        help="override every scenario's repeat count",
    )
    p_bench.add_argument(
        "--out", default=".",
        help="directory for the BENCH_*.json results (default: cwd)",
    )
    p_bench.add_argument(
        "--compare", metavar="BASELINE_DIR", default=None,
        help="diff the run against committed baselines; exit 1 on "
             "any virtual or count metric regression beyond tolerance "
             "(wall metrics are reported, never gated)",
    )
    p_bench.add_argument(
        "--update-baselines", action="store_true",
        help="write this run's results into the baseline directory "
             "(--compare dir if given, else benchmarks/baselines)",
    )
    p_bench.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit",
    )
    p_bench.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just deviations",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the job service over a spool directory",
    )
    p_srv.add_argument("--spool", required=True,
                       help="spool directory (queue/ and results/ live "
                            "under it)")
    p_srv.add_argument("--workers", type=_int_at_least(1), default=2,
                       help="persistent pool workers (default 2)")
    p_srv.add_argument("--quota", type=_int_at_least(1), default=None,
                       help="max running jobs per submitter "
                            "(default unlimited)")
    p_srv.add_argument("--batch-max", type=_int_at_least(1), default=4,
                       help="max small jobs per worker dispatch "
                            "(default 4)")
    p_srv.add_argument("--poll", type=float, default=0.2,
                       help="spool poll interval seconds (default 0.2)")
    p_srv.add_argument("--drain", action="store_true",
                       help="exit once the spool is empty and all "
                            "accepted jobs finished")
    p_srv.add_argument("--artifact-dir", default=None,
                       help="disk-spill directory for the setup-artifact "
                            "cache; warm hits survive service restarts "
                            "(default: in-memory only)")

    p_sub = sub.add_parser(
        "submit",
        help="submit one job to a running service's spool",
    )
    p_sub.add_argument("--spool", required=True,
                       help="spool directory of the target service")
    p_sub.add_argument("--kind", choices=["cmtbone", "sod"],
                       default="cmtbone", help="job kind")
    p_sub.add_argument("--name", default="", help="display name")
    p_sub.add_argument("--submitter", default="anon",
                       help="submitter identity for quota accounting")
    p_sub.add_argument("--priority", type=int, default=0,
                       help="higher dispatches first (default 0)")
    p_sub.add_argument("--ranks", type=int, default=2,
                       help="simulated MPI ranks (default 2)")
    p_sub.add_argument("--machine", default="compton",
                       help="machine-model preset (default compton)")
    p_sub.add_argument("--params", default=None,
                       help='kind-specific params as JSON, e.g. '
                            '\'{"n": 5, "nel": 8, "nsteps": 4}\'')
    p_sub.add_argument("--timeout-seconds", type=float, default=0.0,
                       help="per-attempt execution budget; overrunning "
                            "attempts are killed (default 0 = unlimited)")
    p_sub.add_argument("--max-retries", type=int, default=0,
                       help="re-admissions allowed after a timeout or "
                            "worker death (default 0)")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the result arrives and print it")
    p_sub.add_argument("--timeout", type=float, default=300.0,
                       help="--wait timeout seconds (default 300)")

    p_camp = sub.add_parser(
        "campaign",
        help="run a batch of jobs through an in-process service",
    )
    p_camp.add_argument("--jobs", default=None,
                        help="JSON file with a list of job spec objects")
    p_camp.add_argument("--count", type=_int_at_least(1), default=None,
                        help="instead of --jobs: run COUNT copies of one "
                             "spec built from the flags below")
    p_camp.add_argument("--matrix", default=None,
                        help="instead of --jobs/--count: JSON file with "
                             "a scenario matrix (axes crossed into one "
                             "cell per combination; comparative report "
                             "with a winner per row — see "
                             "docs/service.md)")
    p_camp.add_argument("--kind", choices=["cmtbone", "sod"],
                        default="cmtbone")
    p_camp.add_argument("--ranks", type=int, default=2)
    p_camp.add_argument("--machine", default="compton")
    p_camp.add_argument("--params", default=None,
                        help="kind-specific params as JSON")
    p_camp.add_argument("--workers", type=_int_at_least(1), default=2,
                        help="persistent pool workers (default 2)")
    p_camp.add_argument("--quota", type=_int_at_least(1), default=None)
    p_camp.add_argument("--batch-max", type=_int_at_least(1), default=4)
    p_camp.add_argument("--artifact-dir", default=None,
                        help="disk-spill directory for the setup-"
                             "artifact cache (default: in-memory only)")
    p_camp.add_argument("--json", dest="json_out", default=None,
                        help="also write the full per-job results here")

    p_launch = sub.add_parser(
        "launch",
        help="run a subcommand across hosts from a hostfile "
             "(sockets backend)",
        description="Expand an mpirun-style hostfile into a per-rank "
                    "host layout and run another repro subcommand on "
                    "the sockets backend: local hosts fork agents, "
                    "remote hosts are reached over ssh, and "
                    "--loopback fakes the multi-host layout on this "
                    "machine for testing.  Example: "
                    "repro launch --hostfile hosts.txt -- "
                    "sod --ranks 4 --verify",
    )
    p_launch.add_argument("--hostfile", required=True,
                          help="hostfile: one 'host [slots=N]' per line")
    p_launch.add_argument("--loopback", action="store_true",
                          help="treat every host as local (forked, with "
                               "REPRO_HOST_ID set to the host label) — "
                               "multi-'host' testing on one machine")
    p_launch.add_argument("--family", default="tcp",
                          choices=["tcp", "unix"],
                          help="socket family (default tcp)")
    p_launch.add_argument("--agent-python", default="python3",
                          help="python executable for remote agents "
                               "(default python3)")
    p_launch.add_argument("--hb-timeout", type=float, default=10.0,
                          help="declare a silent rank dead after this "
                               "many seconds (default 10)")
    p_launch.add_argument("--bind-host", default=None,
                          help="interface the driver's listeners bind "
                               "(default: loopback for all-local "
                               "layouts, 0.0.0.0 when the hostfile "
                               "has remote hosts)")
    p_launch.add_argument("--advertise-host", default=None,
                          help="address agents are told to dial back "
                               "(default: this machine's hostname "
                               "when remote hosts are present)")
    p_launch.add_argument("rest", nargs=argparse.REMAINDER,
                          metavar="-- subcommand ...",
                          help="the repro subcommand to run, e.g. "
                               "'-- sod --ranks 4 --verify'")

    sub.add_parser("machines", help="list machine presets")
    return parser


def cmd_cmtbone(args) -> int:
    config = CMTBoneConfig(
        n=args.points,
        local_shape=args.local,
        proc_shape=args.proc,
        nsteps=args.steps,
        kernel_variant=args.variant,
        gs_method=args.gs_method,
        work_mode="proxy" if args.proxy else "real",
        compute_imbalance=args.imbalance,
        pack_fields=args.pack,
        overlap=args.overlap,
        lb_mode=args.lb,
        lb_threshold=args.lb_threshold,
        lb_every=args.lb_every,
    )
    if args.lb != "off":
        # The ranks' load balancer, imported before they are forked.
        from . import lb  # noqa: F401
    runtime = Runtime(
        nranks=args.ranks, machine=MachineModel.preset(args.machine),
        backend=args.backend,
    )

    def app_main(comm):
        # A timeline is thousands of intervals per rank: ship it back
        # (in each exit record, on procs and sockets) only to draw it.
        app = CMTBone(comm, config)
        return app.run(), app.profiler.intervals if args.gantt else None

    pairs = runtime.run(app_main)
    results = [r for r, _t in pairs]
    timelines = [t for _r, t in pairs]
    r0 = results[0]
    print(config.build_partition(args.ranks).describe())
    if r0.autotune:
        print("\n" + timing_table(r0.autotune, "gs auto-tune:"))
    print(f"\nchosen gs method: {r0.chosen_method}")
    # pack_fields has no split-phase form and takes precedence over overlap.
    overlapping = config.overlap and not config.pack_fields
    if config.overlap and config.pack_fields:
        schedule = "blocking (--pack overrides --overlap)"
    elif overlapping:
        schedule = "overlapped (split-phase)"
    else:
        schedule = "blocking"
    print(f"exchange schedule: {schedule}")
    if overlapping:
        hidden = max(r.vtime_hidden_comm for r in results)
        print(f"hidden communication (max over ranks): {hidden:.3e} s")
    print("\n=== compute profile (merged over ranks) ===")
    print(cmtbone_profile_report(results))
    print("\n=== MPI profile ===")
    print(full_report(runtime.job_profile(), top_n=12))
    if args.lb != "off":
        from .analysis import lb_report

        print("\n=== load balancing ===")
        if r0.lb_summary:
            print(r0.lb_summary)
        print(f"rebalances: {r0.lb_rebalances}  "
              f"final elements on rank 0: {r0.final_nel}")
        print(lb_report(runtime.job_profile()))
    if args.gantt:
        from .analysis import merge_timelines, render_gantt

        print("\n=== execution timeline ===")
        print(render_gantt(merge_timelines(timelines), width=68))
    return 0


def cmd_nekbone(args) -> int:
    config = NekboneConfig(
        n=args.points,
        local_shape=args.local,
        proc_shape=args.proc,
        cg_iterations=args.iterations,
        gs_method=args.gs_method,
        work_mode="proxy" if args.proxy else "real",
    )
    runtime = Runtime(
        nranks=args.ranks, machine=MachineModel.preset(args.machine),
        backend=args.backend,
    )
    results = runtime.run(run_nekbone, args=(config,))
    r0 = results[0]
    print(f"CG iterations: {r0.iterations}")
    if r0.residual_history:
        print(f"residual: {r0.residual_history[0]:.3e} -> "
              f"{r0.residual_history[-1]:.3e}")
    if r0.solution_error is not None:
        print(f"solution max error: {r0.solution_error:.3e}")
    if r0.autotune:
        print("\n" + timing_table(r0.autotune, "gs auto-tune:"))
    print(f"chosen gs method: {r0.chosen_method}")
    print("\n=== compute profile (merged over ranks) ===")
    print(nekbone_profile_report(results))
    print("\n=== MPI time per rank ===")
    print(mpi_fraction_report(runtime.job_profile()))
    return 0


def cmd_fig7(args) -> int:
    cmt_cfg = CMTBoneConfig(
        n=args.points, local_shape=args.local, proc_shape=args.proc,
        work_mode="proxy", nsteps=0,
    )
    nek_cfg = NekboneConfig(
        n=args.points, local_shape=args.local, proc_shape=args.proc,
        work_mode="proxy", cg_iterations=0,
    )

    def main(comm):
        cmt = CMTBone(comm, cmt_cfg)
        nek = Nekbone(comm, nek_cfg)
        return cmt.autotune, nek.autotune

    runtime = Runtime(
        nranks=args.ranks, machine=MachineModel.preset(args.machine),
        backend=args.backend,
    )
    cmt_t, nek_t = runtime.run(main)[0]
    print(cmt_cfg.build_partition(args.ranks).describe())
    print()
    print(fig7_table(cmt_t, nek_t,
                     methods=("pairwise", "crystal", "allreduce")))
    return 0


def cmd_vscale(args) -> int:
    from .vscale import GS_METHODS, VirtualScaleEngine, VscaleError

    methods = tuple(args.methods) if args.methods else GS_METHODS
    config = CMTBoneConfig(
        n=args.points,
        local_shape=args.local,
        proc_shape=args.proc,
        nsteps=args.steps,
        work_mode="proxy" if args.proxy else "real",
        compute_imbalance=args.imbalance,
        overlap=args.overlap,
    )
    try:
        engine = VirtualScaleEngine(
            config,
            nranks=args.ranks,
            machine=MachineModel.preset(args.machine),
            sample=args.sample,
            backend=args.backend,
        )
    except VscaleError as exc:
        print(f"vscale: {exc}", file=sys.stderr)
        return 2

    agreements = []
    if not args.no_execute:
        agreements = [
            engine.validate(m, tolerance=args.tolerance) for m in methods
        ]

    if args.json:
        import json as _json

        doc: dict = {
            "nranks": engine.nranks,
            "sample": engine.sample_nranks,
            "machine": engine.machine.name,
            "methods": {},
        }
        for m in methods:
            t = engine.model(m)
            doc["methods"][m] = {
                "step_seconds": t.step_seconds,
                "mpi_pct_mean": float(t.mpi_fraction_pct.mean()),
                "mpi_pct_max": float(t.mpi_fraction_pct.max()),
                "messages": int(t.messages),
                "wire_bytes": int(t.wire_bytes),
                "model_wall_seconds": t.model_wall_seconds,
            }
        doc["fastest"] = engine.best_method(methods)[0]
        if agreements:
            doc["agreement"] = {
                a.method: {
                    "ok": a.ok,
                    "rel_err": a.rel_err,
                    "hidden_err": a.hidden_err,
                    "tolerance": a.tolerance,
                    "schedule_mismatch": a.schedule_mismatch,
                }
                for a in agreements
            }
        if args.mtbf:
            fx = engine.extrapolate_faults(
                doc["fastest"], rank_mtbf_hours=args.mtbf
            )
            doc["faults"] = {
                "rank_mtbf_hours": fx.rank_mtbf_hours,
                "job_mtbf_seconds": fx.job_mtbf_seconds,
                "checkpoint_seconds": fx.checkpoint_seconds,
                "interval_seconds": fx.interval_seconds,
                "interval_steps": fx.interval_steps,
                "overhead_fraction": fx.overhead_fraction,
                "effective_step_seconds": fx.effective_step_seconds,
            }
        print(_json.dumps(doc, indent=2))
    else:
        # Agreements above are cached, so report() re-validates for free.
        print(
            engine.report(
                methods,
                validate=not args.no_execute,
                rank_mtbf_hours=args.mtbf,
            )
        )

    failed = [a for a in agreements if not a.ok]
    if failed:
        for a in failed:
            print(f"vscale: agreement FAILED: {a.describe()}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    from .validation import (
        cmtbone_signature,
        score,
        solver_signature,
        validation_report,
    )

    config = CMTBoneConfig(
        n=args.points,
        local_shape=args.local,
        proc_shape=args.proc,
        nsteps=args.steps,
        gs_method=args.gs_method or "pairwise",
        work_mode="proxy" if args.proxy else "real",
        monitor_every=1,
        exchange_fields=11 if args.calibrated else None,
        overlap=args.overlap,
    )
    machine = MachineModel.preset(args.machine)
    mini = cmtbone_signature(config, args.ranks, machine=machine,
                             backend=args.backend)
    parent = solver_signature(config, args.ranks, machine=machine,
                              backend=args.backend)
    s = score(mini, parent)
    label = "calibrated" if args.calibrated else "uncalibrated"
    print(f"=== mini-app validation ({label}, {args.ranks} ranks, "
          f"N={args.points}) ===\n")
    print(validation_report(mini, parent, s))
    return 0


def cmd_kernels(args) -> int:
    from .analysis import render_table
    from .kernels import kernel_cost, speedup

    machine = MachineModel.preset("opteron6378")
    rows = []
    for variant in ("fused", "basic"):
        for d in ("t", "r", "s"):
            c = kernel_cost(d, variant, args.points, args.elements,
                            steps=args.steps, machine=machine)
            rows.append((f"dud{d}", variant, c.seconds,
                         c.instructions, c.cycles))
    print(f"Derivative-kernel counters (N={args.points}, "
          f"Nel={args.elements}, {args.steps} steps, Opteron 6378 "
          "model)\n")
    print(render_table(
        ["kernel", "variant", "model s", "instructions", "cycles"],
        rows, floatfmt="{:.4g}",
    ))
    print("\nloop-fusion speedups (basic/fused):")
    for d in ("t", "r", "s"):
        print(f"  dud{d}: "
              f"{speedup(d, args.points, args.elements, machine=machine):.2f}x")
    print("paper (Figs. 5-6): dudt 2.31x, dudr 1.03x, duds ~1.0x")
    return 0


def cmd_sod(args) -> int:
    import shutil
    import tempfile

    from .faults import FaultPlan
    from .solver.driver import check_dt

    if args.elements % args.ranks:
        print(f"--elements {args.elements} must divide by "
              f"--ranks {args.ranks}", file=sys.stderr)
        return 2
    # ``run_with_recovery`` and ``Runtime`` apply the dt and fault-rank
    # rules too; they are asked here first so that a bad value exits 2
    # with one line, before the plan and the set-up print anything.
    try:
        check_dt(args.dt)
    except ValueError as exc:
        print(f"--dt: {exc}", file=sys.stderr)
        return 2
    plan = None
    if args.fault_spec:
        try:
            plan = FaultPlan.parse(args.fault_spec, seed=args.fault_seed)
            plan.check_ranks(args.ranks)
        except ValueError as exc:
            print(f"--fault-spec: {exc}", file=sys.stderr)
            return 2
        print(plan.describe())
    ckpt_dir = args.checkpoint_dir
    if args.checkpoint_every and ckpt_dir is None:
        ckpt_dir = tempfile.mkdtemp(prefix="repro-sod-ckpt-")
        print(f"checkpoint dir: {ckpt_dir}")
    try:
        return _run_sod(args, plan, ckpt_dir)
    finally:
        if ckpt_dir is not None and args.checkpoint_dir is None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)


def _run_sod(args, plan, ckpt_dir) -> int:
    """The Sod campaign of :func:`cmd_sod`, checkpointing into
    ``ckpt_dir``; returns the exit status."""
    import numpy as np

    from .analysis import fault_report, render_gantt
    from .solver import run_with_recovery, sod_problem

    machine = MachineModel.preset(args.machine)
    setup = sod_problem(args.ranks, args.points, args.elements,
                        args.gs_method, imbalance=args.imbalance,
                        lb_policy=_lb_policy(args),
                        kernel_variant=args.kernel_variant)

    results, report = run_with_recovery(
        setup,
        nranks=args.ranks,
        nsteps=args.steps,
        dt=args.dt,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=ckpt_dir,
        fault_plan=plan,
        machine=machine,
        backend=args.backend,
        job_id=args.job_id,
    )
    print()
    print(report.summary())
    if report.attempt_profiles:
        print()
        print(fault_report(report.campaign_profile()))
        if args.lb != "off":
            from .analysis import lb_report

            print()
            print(lb_report(report.campaign_profile()))
    if args.gantt:
        print("\n=== campaign timeline ===")
        print(render_gantt(report.gantt_intervals, width=68))

    if args.verify:
        clean, _ = run_with_recovery(
            setup, nranks=args.ranks, nsteps=args.steps, dt=args.dt,
            machine=machine, backend=args.backend,
        )
        for r, (a, b) in enumerate(zip(clean, results)):
            if not np.array_equal(a.u, b.u):
                print(f"\nVERIFY FAILED: rank {r} final fields differ "
                      "from the fault-free run", file=sys.stderr)
                return 1
        print("\nVERIFY OK: final fields bitwise identical to the "
              "fault-free run")
    return 0


def cmd_bench(args) -> int:
    from pathlib import Path

    from .bench import (
        RunOptions,
        compare_dirs,
        run_suites,
        select_scenarios,
        write_suites,
    )
    from .bench.schema import GROUPS

    groups = tuple(args.groups) if args.groups else GROUPS

    if args.list:
        for s in select_scenarios(groups, fast_only=args.fast):
            tier = "fast" if s.fast else "slow"
            params = " ".join(f"{k}={v}" for k, v in s.params.items())
            print(f"{s.id:<28s} [{tier}] x{s.repeats}  {params}")
        return 0

    opts = RunOptions(
        groups=groups,
        fast_only=args.fast,
        repeats=args.repeats,
        progress=lambda msg: print(msg, flush=True),
    )
    suites = run_suites(opts)
    paths = write_suites(suites, args.out)
    for p in paths:
        print(f"wrote {p}")

    status = 0
    if args.compare is not None:
        report = compare_dirs(suites, args.compare, groups=groups)
        print(report.render(verbose=args.verbose))
        if not report.ok:
            print("PERF GATE: FAIL")
            status = 1
        else:
            print("PERF GATE: PASS")

    if args.update_baselines:
        baseline_dir = Path(
            args.compare if args.compare is not None
            else "benchmarks/baselines"
        )
        for p in write_suites(suites, baseline_dir):
            print(f"updated baseline {p}")

    return status


def _spool_dirs(spool):
    """(queue_dir, results_dir) under the spool root, created."""
    import pathlib

    root = pathlib.Path(spool)
    queue = root / "queue"
    results = root / "results"
    queue.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    return queue, results


def _write_json_atomic(path, doc) -> None:
    import json

    from .store import atomic_write

    atomic_write(
        str(path), "w",
        lambda fh: fh.write(json.dumps(doc, indent=2, sort_keys=True)),
    )


def cmd_serve(args) -> int:
    import json

    from .service import JobSpec, Service

    queue_dir, results_dir = _spool_dirs(args.spool)
    accepted = 0
    finished = 0
    try:
        with Service(
            nworkers=args.workers, quota=args.quota,
            batch_max=args.batch_max, artifact_dir=args.artifact_dir,
        ) as svc:
            print(f"serving spool {args.spool} with {args.workers} "
                  f"workers (pids {svc.pool.worker_pids()})", flush=True)
            while True:
                for path in sorted(queue_dir.glob("*.json")):
                    try:
                        spec = JobSpec.from_json(
                            json.loads(path.read_text())
                        )
                    except (ValueError, KeyError) as exc:
                        print(f"rejecting {path.name}: {exc}",
                              file=sys.stderr, flush=True)
                        path.unlink()
                        continue
                    path.unlink()  # claimed
                    svc.submit(spec)
                    accepted += 1
                    print(f"accepted {spec.job_id} ({spec.kind} "
                          f"{spec.name or '-'})", flush=True)
                for result in svc.step(args.poll):
                    _write_json_atomic(
                        results_dir / f"{result.job_id}.json",
                        result.to_json(),
                    )
                    finished += 1
                    print(f"finished {result.job_id}: {result.status} "
                          f"({result.exec_seconds:.3f}s on pid "
                          f"{result.worker_pid})", flush=True)
                if (args.drain and finished == accepted
                        and not list(queue_dir.glob("*.json"))):
                    break
    except KeyboardInterrupt:
        return 130
    print(f"drained: {finished}/{accepted} jobs", flush=True)
    return 0


def cmd_submit(args) -> int:
    import json
    import time as _time

    from .service import JobSpec

    queue_dir, results_dir = _spool_dirs(args.spool)
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        print(f"--params: {exc}", file=sys.stderr)
        return 2
    spec = JobSpec(
        kind=args.kind, name=args.name, submitter=args.submitter,
        priority=args.priority, nranks=args.ranks,
        machine=args.machine, timeout_seconds=args.timeout_seconds,
        max_retries=args.max_retries, params=params,
    )
    _write_json_atomic(queue_dir / f"{spec.job_id}.json", spec.to_json())
    print(spec.job_id)
    if not args.wait:
        return 0
    result_path = results_dir / f"{spec.job_id}.json"
    deadline = _time.monotonic() + args.timeout
    while not result_path.exists():
        if _time.monotonic() > deadline:
            print(f"timed out waiting for {spec.job_id}",
                  file=sys.stderr)
            return 1
        _time.sleep(0.1)
    doc = json.loads(result_path.read_text())
    print(f"{doc['status']}: vtime {doc['vtime_total']:.6g}s "
          f"digest {doc['digest']} (worker pid {doc['worker_pid']})")
    if doc.get("error"):
        print(doc["error"], file=sys.stderr)
    return 0 if doc["status"] == "done" else 1


def cmd_campaign(args) -> int:
    import json
    import pathlib

    from .service import JobSpec, run_campaign

    sources = [s for s in (args.jobs, args.count, args.matrix)
               if s is not None]
    if len(sources) != 1:
        print("campaign needs exactly one of --jobs, --count, "
              "or --matrix", file=sys.stderr)
        return 2
    if args.matrix is not None:
        return _campaign_matrix(args)
    if args.jobs is not None:
        with open(args.jobs) as fh:
            docs = json.load(fh)
        if not isinstance(docs, list):
            print("--jobs file must hold a JSON list of job specs",
                  file=sys.stderr)
            return 2
        specs = [JobSpec.from_json(d) for d in docs]
    else:
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            print(f"--params: {exc}", file=sys.stderr)
            return 2
        specs = [
            JobSpec(kind=args.kind, name=f"{args.kind}-{i}",
                    nranks=args.ranks, machine=args.machine,
                    params=dict(params))
            for i in range(args.count)
        ]
    report = run_campaign(
        specs, nworkers=args.workers, quota=args.quota,
        batch_max=args.batch_max, artifact_dir=args.artifact_dir,
    )
    print(report.summary())
    if args.json_out:
        _write_json_atomic(
            pathlib.Path(args.json_out),
            {
                "wall_seconds": report.wall_seconds,
                "jobs_per_second": report.jobs_per_second,
                "p50_seconds": report.p50,
                "p99_seconds": report.p99,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "cache_disk_hits": report.cache_disk_hits,
                "retries": report.retries,
                "queue": report.queue_stats,
                "results": [r.to_json() for r in report.results],
            },
        )
        print(f"wrote {args.json_out}")
    return 1 if report.failed else 0


def _campaign_matrix(args) -> int:
    import json
    import pathlib

    from .service.matrix import MatrixSpec, run_matrix

    with open(args.matrix) as fh:
        doc = json.load(fh)
    try:
        matrix = MatrixSpec.from_doc(doc)
    except (ValueError, TypeError) as exc:
        print(f"--matrix {args.matrix}: {exc}", file=sys.stderr)
        return 2
    report = run_matrix(
        matrix, nworkers=args.workers, quota=args.quota,
        batch_max=args.batch_max, artifact_dir=args.artifact_dir,
    )
    print(report.summary())
    if args.json_out:
        _write_json_atomic(pathlib.Path(args.json_out), report.to_json())
        print(f"wrote {args.json_out}")
    return 1 if report.failed else 0


def cmd_machines(_args) -> int:
    for name in MachineModel.available_presets():
        m = MachineModel.preset(name)
        print(f"{name:<14s} cpu={m.cpu.ghz / 1e9:.1f}GHz "
              f"peak={m.cpu.peak_flops / 1e9:.0f}GF/s  "
              f"net[{m.network.describe()}]")
    return 0


def cmd_launch(args) -> int:
    from .net import (
        SocketBackend,
        rank_layout,
        read_hostfile,
        total_slots,
    )

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("launch: missing subcommand "
              "(e.g. launch --hostfile hosts.txt -- sod --ranks 4)",
              file=sys.stderr)
        return 2
    if rest[0] == "launch":
        print("launch: cannot nest launch inside launch",
              file=sys.stderr)
        return 2
    inner = _parse_args(rest)
    if not hasattr(inner, "backend") or not hasattr(inner, "ranks"):
        print(f"launch: subcommand {rest[0]!r} does not take "
              "--backend/--ranks and cannot be launched across hosts",
              file=sys.stderr)
        return 2
    entries = read_hostfile(args.hostfile)
    hosts = rank_layout(entries, inner.ranks)
    slots = total_slots(entries)
    if slots < inner.ranks:
        print(f"launch: oversubscribing — {inner.ranks} ranks on "
              f"{slots} slots (layout wraps around)", file=sys.stderr)
    by_host: dict = {}
    for r, h in enumerate(hosts):
        by_host.setdefault(h, []).append(r)
    layout = "  ".join(
        f"{h}:{','.join(map(str, rs))}" for h, rs in by_host.items()
    )
    print(f"launch: {inner.ranks} ranks over {len(by_host)} host(s)  "
          f"[{layout}]")
    inner.backend = SocketBackend(
        family=args.family,
        hosts=hosts,
        loopback=args.loopback,
        hb_timeout=args.hb_timeout,
        python=args.agent_python,
        bind_host=args.bind_host,
        advertise_host=args.advertise_host,
    )
    if inner.command in _DRAWING:
        import numpy.random  # noqa: F401
    return _COMMANDS[inner.command](inner)


_COMMANDS = {
    "cmtbone": cmd_cmtbone,
    "nekbone": cmd_nekbone,
    "fig7": cmd_fig7,
    "vscale": cmd_vscale,
    "validate": cmd_validate,
    "kernels": cmd_kernels,
    "sod": cmd_sod,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "campaign": cmd_campaign,
    "machines": cmd_machines,
    "launch": cmd_launch,
}


def _parse_args(argv: Optional[Sequence[str]]):
    """Parse ``argv``; the rules that span two flags end in a usage
    error, as a bad value of one flag does."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "lb", "off") == "every" and args.lb_every < 1:
        parser.error(f"argument --lb-every: --lb every needs a cadence "
                     f">= 1, got {args.lb_every}")
    return args


#: Commands whose ranks draw random numbers (the synthetic fields, the
#: gs auto-tune's trial data): ``numpy.random`` is imported before any
#: rank is forked, and by no other command.
_DRAWING = frozenset(
    ("cmtbone", "nekbone", "fig7", "vscale", "validate", "bench")
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    if args.command in _DRAWING:
        import numpy.random  # noqa: F401
    # Everything the command runs is imported by now: move that heap out
    # of the collector's reach, once per process, so no collection and
    # no interpreter exit walks it again (nor the ranks and workers
    # forked from it).
    if not gc.get_freeze_count():
        gc.freeze()
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
