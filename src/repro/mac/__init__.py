"""IEEE 802.15.4 MAC layer.

TCPlp's key MAC-layer finding (§7.1) is that adding a random delay,
uniform in ``[0, d]``, between software link-layer retries defuses
hidden-terminal collisions at a tiny throughput cost; the sweep over
``d`` is Figure 6.  This package implements:

* :mod:`repro.mac.frame` — data/ACK/data-request frame formats with an
  exact 23-byte data header (Table 6) and a byte codec;
* :mod:`repro.mac.link` — software unslotted CSMA-CA (the deaf-listening
  workaround of §4), link retries with the ``d`` delay, link ACKs,
  duplicate suppression, and the indirect (sleepy-child) queue;
* :mod:`repro.mac.poll` — the Thread listen-after-send sleepy end
  device: data-request polling, pending bit, fast-poll while a
  transport ACK is outstanding (§9.2), and the adaptive sleep interval
  of Appendix C.2 (``PollParams.adaptive``).
"""

from repro.mac.frame import Frame, FrameKind, decode_frame
from repro.mac.link import MacLayer, MacParams
from repro.mac.poll import PollParams, SleepyEndDevice

__all__ = [
    "Frame",
    "FrameKind",
    "decode_frame",
    "MacLayer",
    "MacParams",
    "SleepyEndDevice",
    "PollParams",
]
