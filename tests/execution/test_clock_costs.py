"""Tests for the virtual clock and cost model."""

import math
from dataclasses import fields

import pytest

from repro.errors import CapiError, ExecutionError
from repro.execution.clock import CYCLES_PER_SECOND, VirtualClock
from repro.execution.costs import CostModel


class TestClock:
    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(50)
        assert clock.cycles == 150
        assert clock.now() == 150

    def test_seconds_conversion(self):
        clock = VirtualClock()
        clock.advance(CYCLES_PER_SECOND)
        assert clock.seconds == pytest.approx(1.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ExecutionError, match="negative -1"):
            VirtualClock().advance(-1)


class TestCostModel:
    def test_handler_costs_ordered(self):
        """Score-P events cost more than TALP events (call-path tree vs
        region counters) — the relation behind Table II's full rows."""
        cm = CostModel()
        assert cm.handler_cost("scorep") > cm.handler_cost("talp")
        assert cm.handler_cost("talp") > cm.handler_cost("none")

    def test_unknown_tool_rejected(self):
        with pytest.raises(CapiError, match="unknown tool"):
            CostModel().handler_cost("vtune")

    def test_nop_sled_near_zero(self):
        """xray inactive ≈ vanilla requires NOP sleds to cost ~nothing
        relative to a patched dispatch."""
        cm = CostModel()
        assert cm.nop_sled < cm.patched_dispatch / 10

    def test_tool_init_ordering(self):
        """Score-P's startup is heavier than TALP's (paper Tinit)."""
        cm = CostModel()
        assert cm.scorep_init_base > cm.talp_init_base

    @pytest.mark.parametrize("price", [f.name for f in fields(CostModel)])
    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_bad_price_rejected(self, price, value):
        with pytest.raises(CapiError, match=f"price {price}="):
            CostModel(**{price: value})

    def test_frozen(self):
        cm = CostModel()
        with pytest.raises(AttributeError):
            cm.nop_sled = 5.0  # type: ignore[misc]
