"""The PAPI-style analytic counter model (Figs. 5/6 calibration)."""

import pytest

from repro.kernels import derivatives
from repro.kernels.counters import (
    ir_counts,
    kernel_cost,
    roofline_seconds,
    speedup,
    working_set_bytes,
)
from repro.kir import SCHEDULES, VARIANT_SCHEDULE
from repro.perfmodel import MachineModel

#: The paper's operating point for Figs. 5/6.
PAPER_N, PAPER_NEL, PAPER_STEPS = 5, 1563, 1000


class TestCalibration:
    """Modelled counters at the paper's setup match Figs. 5/6."""

    @pytest.mark.parametrize(
        "direction,variant,paper_inst",
        [
            ("t", "fused", 1.159e9),
            ("r", "fused", 2.402e9),
            ("s", "fused", 2.595e9),
            ("t", "basic", 3.220e9),
            ("r", "basic", 2.429e9),
        ],
    )
    def test_instruction_counts(self, direction, variant, paper_inst):
        c = kernel_cost(direction, variant, PAPER_N, PAPER_NEL,
                        steps=PAPER_STEPS)
        assert c.instructions == pytest.approx(paper_inst, rel=0.01)

    @pytest.mark.parametrize(
        "direction,variant,paper_cycles",
        [
            ("t", "fused", 0.762e9),
            ("r", "fused", 1.355e9),
            ("s", "fused", 1.468e9),
            ("t", "basic", 1.695e9),
            ("r", "basic", 1.394e9),
        ],
    )
    def test_cycle_counts(self, direction, variant, paper_cycles):
        c = kernel_cost(direction, variant, PAPER_N, PAPER_NEL,
                        steps=PAPER_STEPS)
        assert c.cycles == pytest.approx(paper_cycles, rel=0.02)

    def test_speedups_match_paper(self):
        """dudt 2.31x, dudr 1.03x, duds ~1.0x (Section V)."""
        s_t = speedup("t", PAPER_N, PAPER_NEL)
        s_r = speedup("r", PAPER_N, PAPER_NEL)
        s_s = speedup("s", PAPER_N, PAPER_NEL)
        assert 2.0 < s_t < 2.5
        assert 0.95 < s_r < 1.12
        assert s_s == pytest.approx(1.0, abs=0.02)
        assert s_t > s_r > s_s - 0.05  # ordering claim


class TestScaling:
    def test_cost_scales_with_n4(self):
        c5 = kernel_cost("t", "fused", 5, 100)
        c10 = kernel_cost("t", "fused", 10, 100)
        assert c10.flops / c5.flops == pytest.approx(16.0)

    def test_cost_scales_linearly_with_nel(self):
        c1 = kernel_cost("t", "fused", 8, 50)
        c2 = kernel_cost("t", "fused", 8, 100)
        assert c2.seconds == pytest.approx(2 * c1.seconds)

    def test_steps_multiply(self):
        c1 = kernel_cost("r", "basic", 6, 10, steps=1)
        c9 = kernel_cost("r", "basic", 6, 10, steps=9)
        assert c9.instructions == pytest.approx(9 * c1.instructions)

    def test_l1_penalty_kicks_in_for_large_n(self):
        """duds pays an extra CPI penalty once the element spills L1."""
        machine = MachineModel.preset("opteron6378")
        # 48 KB L1: working set 8(2N^3+N^2) crosses it near N=13.
        assert working_set_bytes(13) < machine.cpu.l1_dcache
        assert working_set_bytes(15) > machine.cpu.l1_dcache
        small = kernel_cost("s", "fused", 13, 100, machine=machine)
        big = kernel_cost("s", "fused", 15, 100, machine=machine)
        cpi_small = small.cycles / small.instructions
        cpi_big = big.cycles / big.instructions
        assert cpi_big > cpi_small

    def test_dudt_unit_stride_no_l1_penalty(self):
        machine = MachineModel.preset("opteron6378")
        big = kernel_cost("t", "fused", 20, 10, machine=machine)
        small = kernel_cost("t", "fused", 5, 10, machine=machine)
        assert big.cycles / big.instructions == pytest.approx(
            small.cycles / small.instructions
        )


class TestInterface:
    def test_row(self):
        label, secs, inst, cyc = kernel_cost("t", "fused", 5, 10).row()
        assert label == "dudt"
        assert secs > 0 and inst > 0 and cyc > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_cost("x", "fused", 5, 10)
        with pytest.raises(ValueError):
            kernel_cost("t", "blah", 5, 10)

    def test_einsum_fallback_coefficients(self):
        c = kernel_cost("t", "einsum", 5, 10)
        assert c.instructions > 0 and c.cycles > 0

    def test_roofline_seconds_sums_directions(self):
        m = MachineModel.preset("compton")
        total = roofline_seconds(6, 20, m)
        parts = sum(
            kernel_cost(d, "fused", 6, 20, machine=m).seconds for d in "rst"
        )
        assert total == pytest.approx(parts)


class TestIRPricing:
    """Every variant is priced from the contraction IR itself."""

    @pytest.mark.parametrize("direction", ["r", "s", "t"])
    @pytest.mark.parametrize("n", range(5, 26))
    def test_ir_counts_match_hand_formulas(self, direction, n):
        """IR-derived flops/bytes == 2N^4 nel / 16N^3 nel for every N."""
        nel = 17
        fl, mb = ir_counts(direction, n, nel)
        assert fl == derivatives.flops(n, nel)
        assert mb == derivatives.mem_bytes(n, nel)

    @pytest.mark.parametrize("direction", ["r", "s", "t"])
    @pytest.mark.parametrize("n", [5, 13, 25])
    @pytest.mark.parametrize(
        "variant", ["basic", "fused", "einsum"]
    )
    def test_variant_counts_equal_hand_formulas(self, direction, n, variant):
        """Structural counts are the closed forms for every variant
        (the microarchitectural coefficients differ by schedule)."""
        cost = kernel_cost(direction, variant, n, 9)
        assert cost.flops == derivatives.flops(n, 9)
        assert cost.mem_bytes == derivatives.mem_bytes(n, 9)

    @pytest.mark.parametrize(
        "variant", sorted({*VARIANT_SCHEDULE, *SCHEDULES})
    )
    def test_every_resolvable_name_priced(self, variant):
        c = kernel_cost("s", variant, 10, 12)
        assert c.flops == derivatives.flops(10, 12)
        assert c.instructions > 0 and c.cycles > 0 and c.seconds > 0

    def test_generated_prices_as_fused_class(self):
        """'generated'/'auto' deliberately price as the default GEMM
        schedule so virtual metrics stay host-independent."""
        for d in "rst":
            fused = kernel_cost(d, "fused", 8, 20)
            for v in ("generated", "auto", "gemm"):
                gen = kernel_cost(d, v, 8, 20)
                assert gen.seconds == fused.seconds
                assert gen.instructions == fused.instructions

    def test_plane_schedule_prices_as_basic(self):
        basic = kernel_cost("t", "basic", 8, 20)
        plane = kernel_cost("t", "plane", 8, 20)
        assert plane.seconds == basic.seconds

    def test_unknown_variant_and_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            kernel_cost("s", "tbatch", 8, 20)
        with pytest.raises(ValueError, match="unknown direction"):
            kernel_cost("x", "fused", 8, 20)
