"""Smoke tests: every example script must run clean end to end.

The cheap scripts run at full size; the longer ones are executed with
their module-level knobs (STEPS / ...) patched down so
the whole module stays under a few seconds.  Each test executes the
example in a fresh namespace via runpy-style loading, so import-time
breakage is caught too.
"""

import importlib.util
import pathlib
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_module(name):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


class TestExamplesSmoke:
    def test_examples_inventory(self):
        names = sorted(p.stem for p in EXAMPLES.glob("*.py"))
        assert names == [
            "acoustic_pulse",
            "kernel_tuning",
            "quickstart",
            "scaling_study",
            "shock_capturing",
            "sod_shock_tube",
            "taylor_green",
        ]

    def test_quickstart(self, capsys):
        mod = load_module("quickstart")
        mod.main()
        out = capsys.readouterr().out
        assert "chosen exchange method" in out
        assert "hot spot: ax_" in out
        assert "execution timeline" in out

    def test_kernel_tuning(self, capsys):
        mod = load_module("kernel_tuning")
        mod.wall_study(n=6, nel=16)
        mod.modelled_study()
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "paper" in out

    def test_acoustic_pulse_short(self, capsys):
        mod = load_module("acoustic_pulse")
        mod.STEPS = 20
        from repro.mpi import Runtime

        Runtime(nranks=mod.PART.nranks).run(mod.main)
        out = capsys.readouterr().out
        assert "conservation check" in out

    def test_shock_capturing_short(self, capsys):
        mod = load_module("shock_capturing")
        mod.STEPS = 60
        from repro.mpi import Runtime

        Runtime(nranks=mod.PART.nranks).run(mod.main)
        out = capsys.readouterr().out
        assert "steepening wave" in out

    def test_scaling_study_weak_only(self, capsys):
        mod = load_module("scaling_study")
        # Patch the sweep to its two cheapest points.
        t, m1, m2, imb = mod.run_once(8, __import__(
            "repro.perfmodel", fromlist=["MachineModel"]
        ).MachineModel.preset("compton"), nsteps=2)
        assert t > 0
        assert 0 <= m1 <= 100


    def test_taylor_green_short(self, capsys):
        mod = load_module("taylor_green")
        mod.STEPS = 60
        from repro.mpi import Runtime

        Runtime(nranks=mod.PART.nranks).run(mod.main)
        out = capsys.readouterr().out
        assert "Taylor-Green vortex" in out
