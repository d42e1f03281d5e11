"""Fig. 8 — per-rank percentage of execution time spent in MPI.

Paper: an mpiP plot of "% time spent in MPI calls across all MPI
processes" showing substantial rank-to-rank variation — the load-
imbalance observation that motivates the MPI_Wait discussion.

Reproduction: a 64-rank CMT-bone run (proxy work, 20% compute-load
jitter — see DESIGN.md's substitution notes) profiled by the built-in
mpiP-style layer.  Checked claims: every rank spends a nonzero but
minority share of time in MPI, and the spread across ranks is real
(max noticeably above min).
"""


from repro.analysis import mpi_fraction_report, summarize_fractions


def test_fig08_mpi_fraction_per_rank(report, mpip_run):
    runtime, results, config = mpip_run
    profile = runtime.job_profile()

    report(
        "Fig. 8 — % time in MPI per rank "
        f"(P={profile.nranks}, N={config.n}, "
        f"{config.nel_local} el/rank, imbalance={config.compute_imbalance})\n"
        + mpi_fraction_report(profile)
    )

    mean, mn, mx, imb = summarize_fractions(profile)
    fractions = profile.mpi_fractions()

    # Claim 1: every rank spends some, but not most, time in MPI.
    assert all(0.0 < f < 0.6 for f in fractions)
    # Claim 2: visible rank-to-rank variation (the Fig. 8 point).
    assert mx > 1.15 * mn
    assert imb > 1.05
    # Claim 3: the mean sits in a plausible band for a compute-heavy
    # mini-app on a healthy network (paper's bars: roughly 10-40%).
    assert 2.0 < mean < 50.0
