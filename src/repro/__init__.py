"""repro — a from-scratch reproduction of CMT-bone (CLUSTER 2015).

Kumar et al., *CMT-bone: A Mini-App for Compressible Multiphase
Turbulence Simulation Software*, IEEE CLUSTER 2015.

The package rebuilds the mini-app and every substrate it stands on:

* :mod:`repro.mpi` — a simulated MPI (thread-per-rank SPMD runtime with
  deterministic virtual time from a LogGP-style network model),
* :mod:`repro.perfmodel` — machine/network/topology cost models with
  presets for the paper's platforms,
* :mod:`repro.kernels` — GLL operators, the O(N^4) derivative kernel in
  basic/fused variants, dealiasing, and PAPI-style analytic counters,
* :mod:`repro.mesh` — box meshes, 3-D processor grids, and the C0/DG
  global numberings,
* :mod:`repro.gs` — the gather-scatter library with pairwise, crystal-
  router, and allreduce exchanges plus setup-time auto-tuning,
* :mod:`repro.solver` — the conceptual CMT-nek: a parallel DG
  compressible Euler solver,
* :mod:`repro.core` — the CMT-bone mini-app and its Nekbone comparator,
* :mod:`repro.analysis` — gprof- and mpiP-style report generation.

Quick start::

    from repro.mpi import Runtime
    from repro.core import CMTBoneConfig, run_cmtbone

    cfg = CMTBoneConfig(n=8, local_shape=(2, 2, 2), nsteps=5)
    rt = Runtime(nranks=8)
    results = rt.run(run_cmtbone, args=(cfg,))
    print(rt.job_profile().top_sites(10))
"""

import sys
from importlib import import_module

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "gs",
    "kernels",
    "mesh",
    "mpi",
    "perfmodel",
    "solver",
]


def _lazy_exports(package, exports):
    """``(__all__, __getattr__)`` for a package that imports each public
    name's submodule when the name is first read (PEP 562).

    ``exports`` maps a submodule to the space-separated names it defines.
    """
    home = {
        name: module
        for module, names in exports.items()
        for name in names.split()
    }

    def __getattr__(name):
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(home), __getattr__
