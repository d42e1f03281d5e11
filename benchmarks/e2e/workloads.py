"""The six end-to-end workloads: argv, generated inputs, output checks.

Every workload is a command line for the public entry
``repro.cli.main(argv)``.  The seed reaches the program only through
generated inputs: the shuffled campaign jobs file, the rank the Sod
crash hits, and ``--fault-seed``.  The four ``cmtbone`` command lines
take no random input at all.

The amount of work is the same for every seed (the driver compares runs
made with different seeds, so a seed that changed the number of replayed
steps or the job mix would show up as noise): the Sod crash always hits
at step ``SOD_CRASH_STEP`` and only the crashing rank varies; the
campaign always holds the same 140 jobs and only their order,
priorities and submitters vary.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

#: Exchange workloads share one problem: 2x2x2 elements of N=5 per rank.
_XCHG = ("-N", "5", "--local", "2,2,2")

SOD_STEPS = 50
SOD_RANKS = 4
#: Checkpoints land every 10 steps, so a crash here replays 7 steps.
SOD_CRASH_STEP = 37

CAMPAIGN_CMTBONE_JOBS = 105
CAMPAIGN_SOD_JOBS = 35
CAMPAIGN_N = (5, 6, 7, 8)
#: ``None`` asks the job for the three-way gs auto-tune.
CAMPAIGN_GS = ("pairwise", "crystal", None)
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "cmtbone" | "sod" | "campaign": selects argv builder and check.
    kind: str
    #: Work units of the full child (timesteps, or jobs for campaigns).
    units: int
    #: argv shared by the full and the set-up child (cmtbone kinds).
    base: Tuple[str, ...] = ()
    #: Children may use every CPU of the harness (default: one CPU).
    all_cpus: bool = False
    #: Its stdout must equal that of the same job on thread ranks.
    cross_backend: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "kernel_n16",
        "one rank, N=16: grad, full2face and the update dominate and "
        "there is no peer, so kernel changes show and exchange changes "
        "do not",
        "cmtbone", 50,
        base=("cmtbone", "--ranks", "1", "-N", "16", "--local", "4,4,4"),
    ),
    Workload(
        "xchg_threads",
        "eight thread ranks, tiny elements, gs auto-tune: condense/"
        "scatter, pairwise exchange, mailbox matching and lock hand-off "
        "dominate; a kernel change should not move it",
        "cmtbone", 110,
        base=("cmtbone", "--ranks", "8") + _XCHG,
    ),
    Workload(
        "xchg_procs",
        "the same gs/mpi code over forked ranks and the shared-memory "
        "ring (pickle, ShmRing, semaphores), so a transport change that "
        "helps threads and costs procs shows",
        "cmtbone", 320,
        base=("cmtbone", "--ranks", "2") + _XCHG + ("--backend", "procs"),
        cross_backend=True,
    ),
    Workload(
        "xchg_sockets",
        "the same job over repro.net (rendezvous, framed wire, "
        "heartbeats); output must equal the thread backend's byte for "
        "byte",
        "cmtbone", 320,
        base=("cmtbone", "--ranks", "2") + _XCHG + ("--backend", "sockets"),
        cross_backend=True,
    ),
    Workload(
        "sod_campaign",
        "the physics solver (flux, RK, dealias) with load-balancer "
        "migration, checkpoint writes, one injected crash, a restart "
        "and the fault-free verification run",
        "sod", SOD_STEPS,
    ),
    Workload(
        "service_campaign",
        "140 small jobs through queue, batching, fork-pool pipes and "
        "the memory and disk artifact cache on two workers; per-job "
        "compute is tiny",
        "campaign", CAMPAIGN_CMTBONE_JOBS + CAMPAIGN_SOD_JOBS,
        all_cpus=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# -- generated inputs --------------------------------------------------


def campaign_jobs(seed: int) -> List[dict]:
    """The service campaign's job specs: fixed mix, seeded order."""
    rng = random.Random(seed)
    keys = [(n, gs) for n in CAMPAIGN_N for gs in CAMPAIGN_GS]
    jobs = []
    for i in range(CAMPAIGN_CMTBONE_JOBS):
        n, gs = keys[i % len(keys)]
        jobs.append({
            "kind": "cmtbone", "name": f"cmt-{i:03d}",
            "params": {"n": n, "nel": 8, "nsteps": 6, "gs_method": gs},
        })
    for i in range(CAMPAIGN_SOD_JOBS):
        jobs.append({
            "kind": "sod", "name": f"sod-{i:03d}",
            "params": {"n": 5, "nelx": 8, "nsteps": 4},
        })
    for job in jobs:
        job["job_id"] = job["name"]
        job["nranks"] = 2
        job["priority"] = rng.randrange(3)
        job["submitter"] = rng.choice(("ana", "ben", "cy"))
    rng.shuffle(jobs)
    return jobs


#: The set-up child's campaign: pool spin-up, one cold job, teardown.
SETUP_JOB = {
    "kind": "cmtbone", "name": "setup-000", "job_id": "setup-000",
    "nranks": 2,
    "params": {"n": 5, "nel": 8, "nsteps": 6, "gs_method": "pairwise"},
}


def build_argv(w: Workload, seed: int, cdir: Path, setup: bool
               ) -> List[str]:
    """argv of one child; ``cdir`` is the child's private directory."""
    if w.kind == "cmtbone":
        return [*w.base, "--steps", "0" if setup else str(w.units)]
    if w.kind == "sod":
        return [
            "sod", "--ranks", str(SOD_RANKS), "--elements", "32",
            "--steps", "0" if setup else str(SOD_STEPS),
            "--imbalance", "0.4", "--lb", "auto",
            "--lb-threshold", "1.05", "--checkpoint-every", "10",
            "--checkpoint-dir", str(cdir / "ckpt"),
            "--fault-spec",
            f"crash:rank={1 + seed % (SOD_RANKS - 1)},"
            f"step={SOD_CRASH_STEP}",
            "--fault-seed", str(seed), "--verify",
        ]
    jobs = [SETUP_JOB] if setup else campaign_jobs(seed)
    (cdir / "jobs.json").write_text(json.dumps(jobs))
    return [
        "campaign", "--jobs", str(cdir / "jobs.json"),
        "--workers", str(CAMPAIGN_WORKERS),
        "--artifact-dir", str(cdir / "artifacts"),
        "--json", str(cdir / "report.json"),
    ]


# -- output checks -----------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def check_output(w: Workload, stdout: bytes, cdir: Path, setup: bool
                 ) -> Tuple[str, Optional[str]]:
    """``(signature, error)`` of a child that exited 0.

    The signature must repeat in every round of a workload (and, for
    ``cross_backend`` workloads, equal the thread-rank reference); no
    reference value is committed, so rewording a report does not
    require editing the benchmark.
    """
    if w.kind == "cmtbone":
        # Virtual times and counts only: byte-identical across runs.
        return _digest(stdout), None
    text = stdout.decode("utf-8", "replace")
    if w.kind == "sod":
        restarts = re.search(r"\((\d+) restarts?\)", text)
        want = 0 if setup else 1
        if "VERIFY OK" not in text:
            return "", "no VERIFY OK line"
        if restarts is None or int(restarts.group(1)) != want:
            return "", f"expected {want} restart(s) in the report"
        return "verified", None
    try:
        results = json.loads((cdir / "report.json").read_text())["results"]
    except (OSError, ValueError, KeyError) as exc:
        return "", f"campaign report unreadable: {exc}"
    want = 1 if setup else w.units
    not_done = [r["name"] for r in results if r["status"] != "done"]
    if len(results) != want or not_done:
        return "", (f"{len(results)}/{want} results, "
                    f"{len(not_done)} not done {not_done[:3]}")
    rows = sorted((r["name"], r["digest"], r["vtime_total"])
                  for r in results)
    return _digest(json.dumps(rows).encode()), None
