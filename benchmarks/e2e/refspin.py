"""Host reference spin: an in-situ probe of how fast the host runs *now*.

The harness keeps one of these on every CPU its children use.  Every
``PERIOD_S`` the probe runs one fixed chunk of pure-Python work (about
0.15 ms, so under 1 % of the CPU) and records the chunk's *thread CPU
time*: waiting for the CPU behind the measured child does not count, a
slower CPU does.  The mean chunk cost inside a window, over what the
chunk costs on the quiet development host (``NOMINAL_CHUNK_S``), is the
factor by which the host ran slower during that window.

The chunk is pure Python on purpose.  Measured against numpy chunks
(64x64 matmuls, passes over 0.4 MB and over 2 MB) as the divisor for 25
``kernel_n16`` and 25 ``xchg_threads`` children, the Python loop left a
quartile distance of 2.2 % and 2.6 % of the median; every divisor with
a numpy part left 3-12 %, because a memory-bound chunk's own cost moves
with the cache state and not only with the host's speed.

Protocol: one line ``<t0> <t1>`` on stdin (``time.perf_counter``
seconds, CLOCK_MONOTONIC, shared with the harness) is answered by one
JSON line ``{"n", "mean_s"}`` for the chunks that ended inside the
window.  EOF on stdin ends the probe.
"""

import json
import select
import sys
import time

PERIOD_S = 0.02
#: Mean cost of one chunk beside a busy child on the development host in
#: a quiet phase.  It only fixes the scale of the normalised times (so
#: that they read as seconds on that host); comparisons between runs do
#: not depend on it.
NOMINAL_CHUNK_S = 140e-6


def main() -> None:
    ends, costs = [], []
    while True:
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            line = sys.stdin.readline()
            if not line:
                return
            t0, t1 = map(float, line.split())
            window = [c for t, c in zip(ends, costs) if t0 <= t <= t1]
            print(json.dumps({
                "n": len(window),
                "mean_s": sum(window) / len(window) if window else 0.0,
            }), flush=True)
        begin = time.thread_time()
        acc = 0
        for i in range(2000):
            acc = (acc + i * i) & 0xFFFF
        costs.append(time.thread_time() - begin)
        ends.append(time.perf_counter())


if __name__ == "__main__":
    main()
