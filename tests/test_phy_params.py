"""PHY timing constants must match the paper's measured anchors."""

import pytest

from repro.phy.params import PhyParams


@pytest.fixture
def phy():
    return PhyParams()


def test_full_frame_air_time_is_about_4_1_ms(phy):
    # Paper Table 5: a 127 B 802.15.4 frame takes 4.1 ms on air.
    air = phy.air_time(127)
    assert air == pytest.approx(4.1e-3, rel=0.05)


def test_effective_frame_time_is_about_8_2_ms(phy):
    # Paper §6.4: SPI overhead doubles the effective transmit time.
    assert phy.frame_tx_time(127) == pytest.approx(8.2e-3, rel=0.05)


def test_air_time_scales_linearly(phy):
    assert phy.air_time(60) < phy.air_time(120)
    # doubling payload doesn't double time (preamble is constant)
    assert phy.air_time(120) < 2 * phy.air_time(60)


def test_ack_air_time_is_small(phy):
    assert phy.air_time(phy.ack_frame_bytes) < 0.5e-3


def test_unit_backoff_is_20_symbols(phy):
    assert phy.unit_backoff == pytest.approx(20 * phy.symbol_time)
