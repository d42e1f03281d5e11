"""Fig. 10 — total and average message sizes of frequent MPI calls.

Paper: mpiP's message-size view of the same run — many face-exchange
messages of moderate (surface-proportional) size dominating the
traffic, with setup/collective messages contributing fewer, different-
sized transfers.

Reproduction: the shared run's per-callsite byte statistics.  Checked
claims: the most *frequent* sized call is the gs face exchange; its
average message size matches the analytic surface estimate (shared
face points x 8 bytes / neighbours); and total exchanged volume
dwarfs the setup traffic.
"""


from repro.analysis import message_size_report


def test_fig10_message_sizes(report, mpip_run):
    runtime, results, config = mpip_run
    profile = runtime.job_profile()

    report(
        "Fig. 10 — message sizes of the most frequently called MPI "
        f"calls (P={profile.nranks})\n"
        + message_size_report(profile, 15)
    )

    rows = profile.message_size_rows(50)
    by_site = {}
    for r in rows:
        key = (r.op, r.site)
        by_site[key] = r

    # Claim 1: the most frequent sized call is the gs_op_ exchange.
    assert "gs_op" in rows[0].site

    # Claim 2: its average size matches the analytic surface estimate.
    # Each rank ships its condensed shared face values to 6 neighbours:
    # per-message bytes = shared-with-neighbour points x 8.
    lx, ly, lz = config.local_shape
    n = config.n
    per_face_points = {
        "x": ly * lz * n * n,
        "y": lx * lz * n * n,
        "z": lx * ly * n * n,
    }
    expected_sizes = {v * 8 for v in per_face_points.values()}
    sends = by_site.get(("MPI_Isend", "gs_op_"))
    assert sends is not None
    assert min(expected_sizes) <= sends.bytes_avg <= max(expected_sizes)

    # Claim 3: steady-state exchange volume dwarfs one-time setup.
    setup_bytes = sum(
        r.bytes_total for r in rows if "gs_setup" in r.site
    )
    exchange_bytes = sum(
        r.bytes_total for r in rows if r.site == "gs_op_"
    )
    assert exchange_bytes > 3 * setup_bytes
