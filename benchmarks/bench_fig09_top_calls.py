"""Fig. 9 — time spent in the twenty most expensive MPI calls.

Paper: "From this plot we see that a large amount of time is spent in
MPI_Wait for synchronization.  It demonstrates the need for better
load balancing in the application."

Reproduction: the shared Fig. 8-10 run's top-20 callsite table.
Checked claims: MPI_Wait is the single most expensive operation; the
wait time is attached to the gather-scatter exchange call site; and
the nearest-neighbour exchange (isend/wait at ``gs_op_``) outweighs
the collectives.
"""


from repro.analysis import top_calls_report, wait_dominance


def test_fig09_top_mpi_calls(report, mpip_run):
    runtime, results, config = mpip_run
    profile = runtime.job_profile()

    report(
        "Fig. 9 — top 20 MPI call sites "
        f"(P={profile.nranks}, {config.nsteps} steps x "
        f"{config.rk_stages} RK stages)\n"
        + top_calls_report(profile, 20)
    )

    # Claim 1: MPI_Wait dominates total MPI time.
    op, share = wait_dominance(profile)
    assert op == "MPI_Wait"
    assert share > 0.30

    # Claim 2: the top single call site is the wait inside gs_op_.
    top = profile.top_sites(1)[0]
    assert top.op == "MPI_Wait"
    assert "gs_op" in top.site

    # Claim 3: point-to-point exchange time exceeds collective time
    # (nearest-neighbour updates are the dominant communication).
    by_op = profile.by_op()
    p2p = sum(by_op.get(k, 0.0)
              for k in ("MPI_Wait", "MPI_Isend", "MPI_Send", "MPI_Recv"))
    coll = sum(by_op.get(k, 0.0)
               for k in ("MPI_Allreduce", "MPI_Barrier", "MPI_Alltoall",
                         "MPI_Bcast"))
    assert p2p > coll
