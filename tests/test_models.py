"""Analytical models: Equations 1/2, goodput bounds, memory, tables."""

import pytest

from repro.models.headers import table5_rows, table6_rows
from repro.models.memory import (
    PAPER_RIOT,
    PAPER_TINYOS,
    buffer_memory,
    modelled_passive_bytes,
    modelled_tcb_bytes,
    tcplp_memory_riot,
    tcplp_memory_tinyos,
)
from repro.models.platforms import PLATFORMS, phy_profile
from repro.models.throughput import (
    lln_model_goodput,
    mathis_goodput,
    multihop_bound,
    single_hop_ceiling,
)


class TestThroughputModels:
    def test_single_hop_ceiling_is_about_82_kbps(self):
        # §6.4: 462 B per 5-frame segment over 41 ms + ~4.1/2 ms of ACK
        assert single_hop_ceiling() == pytest.approx(82_000, rel=0.08)

    def test_multihop_bound_thirds(self):
        b = 82_000.0
        assert multihop_bound(b, 1) == b
        assert multihop_bound(b, 2) == b / 2
        assert multihop_bound(b, 3) == pytest.approx(b / 3)
        # beyond three hops, pipelining holds the bound at B/3 (§7.2)
        assert multihop_bound(b, 4) == pytest.approx(b / 3)
        assert multihop_bound(b, 10) == pytest.approx(b / 3)

    def test_eq2_window_limited_when_lossless(self):
        # with p = 0, Equation 2 reduces to w * MSS / RTT
        b = lln_model_goodput(448, rtt=0.2, p=0.0, w=4)
        assert b == pytest.approx(4 * 448 * 8 / 0.2)

    def test_eq2_robust_to_small_loss(self):
        # §8: the 1/w term dominates for small p — 1% loss costs little
        clean = lln_model_goodput(448, 0.2, 0.0, 4)
        lossy = lln_model_goodput(448, 0.2, 0.01, 4)
        assert lossy > 0.9 * clean

    def test_eq1_overpredicts_in_lln_regime(self):
        # §8: Mathis, unaware of the tiny window, predicts hundreds of
        # kb/s for the single-hop experiment
        p, rtt = 0.01, 0.2
        eq1 = mathis_goodput(448, rtt, p)
        eq2 = lln_model_goodput(448, rtt, p, 4)
        assert eq1 > 2 * eq2
        assert eq1 > 200_000

    def test_eq2_more_sensitive_at_high_loss(self):
        lo = lln_model_goodput(448, 0.2, 0.01, 4)
        hi = lln_model_goodput(448, 0.2, 0.10, 4)
        assert hi < lo / 1.5

    def test_model_input_validation(self):
        with pytest.raises(ValueError):
            mathis_goodput(448, 0.2, 0.0)
        with pytest.raises(ValueError):
            lln_model_goodput(448, 0.0, 0.1, 4)
        with pytest.raises(ValueError):
            lln_model_goodput(448, 0.2, 0.1, 0)
        with pytest.raises(ValueError):
            multihop_bound(1000, 0)


class TestMemoryModel:
    def test_modelled_tcb_in_paper_band(self):
        # Tables 3/4: protocol state of an active socket is 364-488 B
        assert 300 <= modelled_tcb_bytes() <= 520

    def test_passive_socket_is_tiny(self):
        # §4.1: passive sockets hold an order of magnitude less state
        assert modelled_passive_bytes() <= 20
        assert modelled_passive_bytes() * 10 < modelled_tcb_bytes()

    def test_paper_reference_tables(self):
        t3 = tcplp_memory_tinyos()
        assert t3.ram_active_protocol == 488
        assert t3.rom_protocol == 21352
        t4 = tcplp_memory_riot()
        assert t4.ram_active_protocol == 364

    def test_active_state_fraction_of_ram(self):
        # §4.2: < 2% of the Cortex-M0+'s 32 KiB, < 1% of the M4's 64 KiB
        assert PAPER_RIOT.fraction_of_ram(32 * 1024) < 0.02
        assert PAPER_TINYOS.fraction_of_ram(64 * 1024) < 0.01

    def test_buffer_memory_dominates(self):
        buffers = buffer_memory(mss=448, window_segments=4)
        assert buffers["total"] > 4 * modelled_tcb_bytes()

    def test_bitmap_cheaper_than_second_buffer(self):
        with_bitmap = buffer_memory(448, 4, reassembly_bitmap=True)
        naive = buffer_memory(448, 4, reassembly_bitmap=False)
        assert with_bitmap["total"] < naive["total"]
        assert with_bitmap["reassembly_bitmap"] == (448 * 4 + 7) // 8


class TestStaticTables:
    def test_table5_802154_frame_time(self):
        rows = {r.name: r for r in table5_rows()}
        lln = rows["IEEE 802.15.4"]
        assert lln.tx_time == pytest.approx(4.1e-3, rel=0.02)
        # orders of magnitude apart from ethernet-class links
        assert rows["Gigabit Ethernet"].tx_time < 20e-6

    def test_table6_totals_match_paper(self):
        rows = {r.protocol: r for r in table6_rows()}
        total = rows["Total"]
        # paper: first frame 50-107 B; later frames 28-35 B.  Our frag
        # headers are the RFC 4944 4/5 B (the paper's 5-12 B row also
        # counts a mesh header), so the first-frame band is 49-99.
        assert 45 <= total.first_frame_min <= 55
        assert 95 <= total.first_frame_max <= 110
        assert total.other_frames_min == 28
        assert rows["IPv6"].first_frame_min == 2
        assert rows["IPv6"].first_frame_max == 28
        assert rows["TCP"].first_frame_max == 44

    def test_platform_profiles(self):
        assert PLATFORMS["hamilton"].spi_overhead_factor == 2.0
        telosb = phy_profile("telosb")
        hamilton = phy_profile("hamilton")
        assert telosb.frame_tx_time(127) > 2 * hamilton.frame_tx_time(127)
