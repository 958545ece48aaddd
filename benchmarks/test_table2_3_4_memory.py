"""Tables 2-4: platform resources and TCPlp's memory footprint."""

from conftest import print_table

from repro.core.params import TcpParams
from repro.models.memory import (
    buffer_memory,
    modelled_passive_bytes,
    modelled_tcb_bytes,
    tcplp_memory_riot,
    tcplp_memory_tinyos,
)
from repro.models.platforms import PLATFORMS


def test_table2_platforms():
    rows = [
        [p.name, f"{p.cpu_bits}-bit, {p.clock_mhz:.0f} MHz",
         f"{p.rom_bytes // 1024} KiB" if p.rom_bytes else "SD Card",
         f"{p.ram_bytes // 1024} KiB" if p.ram_bytes < 2**20
         else f"{p.ram_bytes // 2**20} MB"]
        for p in PLATFORMS.values()
    ]
    print_table("Table 2: platform comparison",
                ["Platform", "CPU", "ROM", "RAM"], rows)
    assert PLATFORMS["hamilton"].ram_bytes == 32 * 1024


def test_table3_4_memory_footprint():
    t3, t4 = tcplp_memory_tinyos(), tcplp_memory_riot()
    modelled = modelled_tcb_bytes()
    passive = modelled_passive_bytes()
    buffers = buffer_memory(TcpParams().mss, 4)
    print_table(
        "Tables 3-4: TCPlp memory usage (paper-measured vs modelled)",
        ["Quantity", "TinyOS (T3)", "RIOT (T4)", "our model"],
        [
            ["ROM, protocol", t3.rom_protocol, t4.rom_protocol, "-"],
            ["RAM, active socket (protocol)", t3.ram_active_protocol,
             t4.ram_active_protocol, modelled],
            ["RAM, passive socket (protocol)", t3.ram_passive_protocol,
             t4.ram_passive_protocol, passive],
            ["RAM, active total (incl. support)", t3.ram_active_total,
             t4.ram_active_total, "-"],
        ],
    )
    print_table(
        "Data buffers (§4.3), 4-segment windows",
        ["Component", "bytes"],
        [[k, v] for k, v in buffers.items()],
    )
    # the modelled TCB lands between the two measured ports
    assert 0.75 * t4.ram_active_protocol <= modelled <= 1.1 * t3.ram_active_protocol
    # §4.2: active state is ~1-2% of a 32 KiB Cortex-M0+
    assert t4.fraction_of_ram(32 * 1024) < 0.02
