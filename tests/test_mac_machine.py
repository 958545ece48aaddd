"""Stateful adversarial testing of the MAC (ROADMAP item 1(b)).

A ``hypothesis`` :class:`RuleBasedStateMachine` drives the link layer of
a four-node line built by ``experiments.topology.build_chain``: routers
0, 1 and 2, where 0 cannot hear 2 and 1 cannot hear 3, and node 3, a
sleepy leaf attached to router 2 with ``Node.make_sleepy``.  Its poller
is fixed-interval, adaptive (Appendix C.2) or holds uplink while it
listens (C.1): one machine each.  Queues are short, so that a few sends
overflow them.  Upper layers are bypassed: the machine calls
``MacLayer.send`` with bytes payloads and records each MAC's
``on_receive`` and every ``on_done``.  docs/robustness.md §6 is the
overview.

Rules: send from any node to any other or to broadcast, from the
parent to its sleepy child (parked on the indirect queue) or to the
router it cannot hear, or flood a queue; a data request, or a poll
from the child; fast poll on and off; ``Node.crash()`` now, in the
middle of an SPI load or between a reception and its link ACK, then
``Node.reboot()`` after a span as short as a fraction of the load or
of the ACK turnaround; block, unblock or force a link; the retry delay
``d``; advance time.

Oracles after every rule and, while time advances, at every simulated
instant: ``verify.probes.probe_mac`` and ``probe_kernel``; no radio has
two live frames in ``Medium._active``; a radio's load and transmit
flags match the load and the frame it really has pending; the current
op of each MAC owns exactly one pending continuation (a ``_cca`` or
``_retry_fire`` event, a radio load that hands it to ``_backoff``, its
frame on the air, or the armed ACK timer) and a queued or parked op owns none; a MAC
that is not held never sits on queued frames with nothing in flight;
each ``EnergyLedger`` state total sums to the elapsed time; ``on_done``
runs at most once per frame, synchronously ``False`` for a refused one,
and never for a frame a crash wiped.

Liveness, after the last step: links unblock and every node reboots.
Within ``LIVENESS_BOUND`` every accepted frame must have had its
``on_done``, or have been wiped by a counted crash, every MAC must be
idle with no parked frame, and the sleepy radio must sleep.

The kill list under ``tests/mutants/`` is shared with the TCP machine:
each patch names its module in its ``--- a/`` header, and this machine
claims the patches for the MAC, the radio and the poller.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.net.node as node_module
from repro.experiments.topology import build_chain
from repro.mac.frame import BROADCAST
from repro.mac.poll import PollParams
from repro.phy.energy import RadioState
from repro.verify.probes import probe_kernel, probe_mac
from tests.conftest import MACHINE_EXAMPLES
from tests.test_tcp_machine import load_mutant, mutants_for

if settings.get_current_profile_name() == "machine-deep":
    MACHINE_SETTINGS = settings()  # the loaded profile decides
else:
    # three pollers share one machine's budget
    MACHINE_SETTINGS = settings(
        max_examples=MACHINE_EXAMPLES // 2, derandomize=True, database=None,
        deadline=None, suppress_health_check=[HealthCheck.too_slow],
    )

ROUTERS = (0, 1, 2)
PARENT, CHILD = 2, 3
NODES = ROUTERS + (CHILD,)
NODE = st.sampled_from(NODES)
#: one-hop neighbours in the line; 0-2 and 1-3 are hidden pairs
LINKS = ((0, 1), (1, 2), (2, 3))
COUNT = st.integers(1, 3)
SIZE = st.sampled_from([5, 40, 100])
#: queues short enough that a few sends overflow them
TX_QUEUE, PARKED = 8, 6
#: sim seconds the network gets to settle after the last step: a full
#: queue of frames that all fail takes about 8 x 7 attempts x 0.1 s
LIVENESS_BOUND = 60.0
#: the MAC's own events that carry an op on: a CSMA step and the end of
#: a retry wait (a radio load, the frame's end of air and its ACK timer
#: are the other continuations an op can own)
_STEPS = ("_cca", "_retry_fire")
#: modules the machine's network is built from, by the path a mutant
#: patch names: the node module's name for each class it instantiates
CLAIMED = {
    "src/repro/phy/radio.py": "Radio",
    "src/repro/mac/link.py": "MacLayer",
    "src/repro/mac/poll.py": "SleepyEndDevice",
}


def _fn_name(fn):
    return getattr(fn, "__name__", None)


class MacMachine(RuleBasedStateMachine):
    """Four nodes' MACs, their radios and the sleepy leaf's poller."""

    #: the leaf polls often enough for the liveness bound, and a short
    #: listen window makes a failed poll time out soon
    poll_params = PollParams(poll_interval=1.0, listen_window=0.02)

    @initialize(seed=st.integers(0, 3))
    def start(self, seed):
        net = build_chain(3, seed=seed, with_cloud=False)
        net.nodes[CHILD].make_sleepy(net.nodes[PARENT], self.poll_params)
        for node in net.nodes.values():
            node.mac.params.tx_queue_limit = TX_QUEUE
            node.mac.params.indirect_queue_limit = PARKED
        self.net = net
        self.sim = net.sim
        self.medium = net.medium
        self.nodes = net.nodes
        self.sleepy = net.nodes[CHILD].sleepy
        #: frame token -> (src, dst); tokens are the bytes payloads
        self.sent = {}
        self.accepted = set()
        self.done = {}
        self.wiped = set()
        self.crashes = 0
        self.down = set()
        self.blocked = set()
        self.tokens = 0
        self.last_now = 0.0
        for nid, node in self.nodes.items():
            node.mac.on_receive = functools.partial(self._received, nid)

    # -- recorders ----------------------------------------------------
    def _received(self, nid, payload, src, frame):
        token = int(payload)
        assert self.sent[token][0] == src, (
            f"node {nid} got frame {token} from {src}, sent by "
            f"{self.sent[token][0]}")
        assert self.sent[token][1] in (nid, BROADCAST), (
            f"node {nid} got frame {token} addressed to {self.sent[token][1]}")

    def _on_done(self, token, success):
        assert token not in self.wiped, (
            f"frame {token} completed ({success}) after a crash wiped it")
        self.done.setdefault(token, []).append(success)
        assert len(self.done[token]) == 1, (
            f"frame {token}: on_done ran {self.done[token]}")

    # -- rules --------------------------------------------------------
    def _send(self, src, dst, size):
        self.tokens += 1
        token = self.tokens
        self.sent[token] = (src, dst)
        ok = self.nodes[src].mac.send(b"%d" % token, size, dst,
                                      functools.partial(self._on_done, token))
        if ok:
            self.accepted.add(token)
        else:
            assert self.done.get(token) == [False], (
                f"refused frame {token}: on_done ran {self.done.get(token)}")

    @rule(src=NODE, dst=st.sampled_from(NODES + (BROADCAST,)), size=SIZE,
          count=COUNT)
    def send(self, src, dst, size, count):
        for _ in range(count):
            self._send(src, dst if dst != src else BROADCAST, size)

    @rule(src=NODE, dst=st.sampled_from(NODES + (BROADCAST,)))
    def flood(self, src, dst):
        """More frames than a queue holds (parked ones, from the parent
        to its child)."""
        for _ in range(TX_QUEUE + 2):
            self._send(src, dst if dst != src else BROADCAST, 5)

    @rule(size=SIZE, count=COUNT)
    def send_to_child(self, size, count):
        """Frames the parent parks until its sleepy child polls."""
        for _ in range(count):
            self._send(PARENT, CHILD, size)

    @rule(size=SIZE, count=COUNT)
    def send_to_hidden(self, size, count):
        """The parent sends to the router it cannot hear: every attempt
        runs into an ACK timeout, so its frames spend their time in
        backoff and retry waits, where a poll can preempt them."""
        for _ in range(count):
            self._send(PARENT, 0, size)

    @rule()
    def poll(self):
        """The child polls its parent now, besides its poll timer."""
        self.nodes[CHILD].mac.send_data_request(PARENT)

    @rule(src=NODE, dst=st.sampled_from(ROUTERS))
    def data_request(self, src, dst):
        if src != dst:
            self.nodes[src].mac.send_data_request(dst)

    @precondition(lambda self: CHILD not in self.down)
    @rule(on=st.booleans())
    def fast_poll(self, on):
        self.sleepy.set_fast_poll(on)

    @rule(nid=NODE, when=st.sampled_from(["now", "mid_load", "before_ack"]),
          span=st.sampled_from([0.0001, 0.0005, 0.002, 0.01, 0.3, 2.0]))
    def crash(self, nid, when, span):
        """Power-fail ``nid`` and reboot it ``span`` later: from an ACK
        turnaround's fraction to seconds."""
        node = self.nodes[nid]
        if when == "mid_load":
            self._run_until(lambda: node.radio._load_busy, 2.0)
        elif when == "before_ack":
            self._run_until(lambda: self._ack_pending(node.mac), 2.0)
        if nid in self.down:
            return
        mac = node.mac
        ops = [mac._current] + list(mac._queue)
        ops += [op for q in mac._indirect.values() for op in q]
        self.wiped.update(int(op.frame.payload) for op in ops
                          if op is not None and op.frame.payload is not None)
        self.crashes += 1
        self.down.add(nid)
        node.crash()
        self.sim.schedule(span, self._reboot, nid)

    def _reboot(self, nid):
        if nid in self.down:
            self.down.discard(nid)
            self.nodes[nid].reboot()

    @rule(link=st.sampled_from(LINKS + ((0, 2), (1, 3))),
          how=st.sampled_from(["block", "unblock", "force"]))
    def link(self, link, how):
        a, b = link
        if how == "block":
            self.medium.block_link(a, b)
            self.blocked.add(link)
        elif how == "unblock":
            self.medium.unblock_link(a, b)
            self.blocked.discard(link)
        else:
            self.medium.force_link(a, b)

    @rule(nid=NODE, d=st.sampled_from([0.0, 0.005, 0.04, 0.1]))
    def retry_delay(self, nid, d):
        self.nodes[nid].mac.params.retry_delay = d

    @rule(dt=st.sampled_from([0.0002, 0.001, 0.004, 0.02, 0.1, 0.5, 2.0]))
    def advance(self, dt):
        self._run_until(lambda: False, dt)

    # -- stepping -----------------------------------------------------
    def _run_until(self, cond, span):
        """Run one simulated instant at a time, checking every oracle,
        until ``cond()`` or ``span`` seconds have passed."""
        sim = self.sim
        until = sim.now + span
        while not cond():
            nxt = sim.peek_time()
            if nxt is None or nxt > until:
                sim.run(until=until)
                return
            sim.run(until=nxt)
            self._oracles()

    def _ack_pending(self, mac):
        return any(len(e) == 4 and _fn_name(e[2]) == "_ack_fire"
                   and e[2].__self__ is mac for e in self.sim._queue)

    # -- oracles ------------------------------------------------------
    def _owned(self):
        """op -> pending continuations; radio -> live loads and frames."""
        owned, loads, on_air = Counter(), Counter(), Counter()
        for entry in self.sim._queue:
            if len(entry) == 4:
                fn, args = entry[2], entry[3]
                name = _fn_name(fn)
                if name in _STEPS:
                    owned[args[0]] += 1
                elif name == "_finish_load":
                    radio = fn.__self__
                    epoch, done, done_args = args
                    if epoch == radio._power_epoch:
                        loads[radio] += 1
                        if _fn_name(done) == "_backoff":
                            owned[done_args[0]] += 1
            else:
                ev = entry[2]
                if not ev.cancelled and _fn_name(ev.fn) == "_ack_timeout":
                    owned[ev.args[0]] += 1
        for tx in self.medium._active:
            if tx.on_done is not None:  # a crash truncated it otherwise
                on_air[tx.sender] += 1
                if _fn_name(tx.on_done) == "_tx_done":
                    owned[tx.args[0]] += 1
        return owned, loads, on_air

    def _oracles(self):
        problems = probe_kernel(self.sim, self.last_now)
        self.last_now = self.sim.now
        owned, loads, on_air = self._owned()
        for nid, node in self.nodes.items():
            mac, radio = node.mac, node.radio
            problems += [f"node {nid}: {p}" for p in probe_mac(mac)]
            if on_air[radio] > 1:
                problems.append(
                    f"node {nid}: {on_air[radio]} frames on the air")
            if radio._tx_busy != (on_air[radio] > 0):
                problems.append(f"node {nid}: _tx_busy={radio._tx_busy} with "
                                f"{on_air[radio]} frames on the air")
            if radio._load_busy != (loads[radio] > 0) or loads[radio] > 1:
                problems.append(f"node {nid}: _load_busy={radio._load_busy} "
                                f"with {loads[radio]} loads pending")
            cur = mac._current
            if cur is not None and owned[cur] != 1:
                problems.append(f"node {nid}: current op to {cur.frame.dst} "
                                f"owns {owned[cur]} continuations")
            waiting = list(mac._queue)
            waiting += [op for q in mac._indirect.values() for op in q]
            for op in waiting:
                if owned[op]:
                    problems.append(f"node {nid}: waiting op to {op.frame.dst}"
                                    f" owns {owned[op]} continuations")
            if mac._queue and cur is None and not mac.paused:
                problems.append(f"node {nid}: {len(mac._queue)} frames queued,"
                                f" MAC not held, nothing in flight")
            ledger = radio.energy
            total = sum(ledger._settled().values())
            if abs(total - ledger.elapsed()) > 1e-9:
                problems.append(f"node {nid}: energy states sum to {total}, "
                                f"elapsed {ledger.elapsed()}")
        assert not problems, f"t={self.sim.now}: {problems}"

    @invariant()
    def oracles(self):
        self._oracles()

    # -- liveness -----------------------------------------------------
    def _quiet(self):
        return (all(t in self.done or t in self.wiped for t in self.accepted)
                and all(node.mac._current is None and not node.mac._queue
                        and not any(node.mac._indirect.values())
                        for node in self.nodes.values())
                and self.nodes[CHILD].radio.energy.state is RadioState.SLEEP)

    def teardown(self):
        for a, b in self.blocked:
            self.medium.unblock_link(a, b)
        for nid in sorted(self.down):
            self._reboot(nid)
        start = self.sim.now
        self._run_until(self._quiet, LIVENESS_BOUND)
        lost = sorted(t for t in self.accepted
                      if t not in self.done and t not in self.wiped)
        busy = {nid: (node.mac._current is not None, len(node.mac._queue),
                      sum(map(len, node.mac._indirect.values())))
                for nid, node in self.nodes.items()}
        assert self._quiet(), (
            f"not settled {self.sim.now - start:.1f} s after the last step: "
            f"frames without on_done {lost} (sent {self.tokens}, "
            f"{self.crashes} crashes), (current, queued, parked) {busy}, "
            f"sleepy radio {self.nodes[CHILD].radio.energy.state}")


class AdaptiveMacMachine(MacMachine):
    """Appendix C.2's adaptive interval; its listen window is short
    enough that a poll can time out before the next one."""

    poll_params = PollParams(adaptive=True, smin=0.05, smax=1.0,
                             listen_window=0.01)


class HeldUplinkMacMachine(MacMachine):
    """Appendix C.1: no uplink while the leaf listens."""

    poll_params = PollParams(poll_interval=1.0, listen_window=0.05,
                             hold_uplink_while_listening=True)


TestMacMachine = MacMachine.TestCase
TestAdaptiveMacMachine = AdaptiveMacMachine.TestCase
TestHeldUplinkMacMachine = HeldUplinkMacMachine.TestCase
TestMacMachine.settings = TestAdaptiveMacMachine.settings = MACHINE_SETTINGS
TestHeldUplinkMacMachine.settings = MACHINE_SETTINGS


# ----------------------------------------------------------------------
# kill list: the tests/mutants/*.patch files aimed at a module this
# machine builds its network from; one of its pollers must find each
# ----------------------------------------------------------------------
def _survives(machine):
    try:
        run_state_machine_as_test(machine, settings=settings(
            MACHINE_SETTINGS, phases=[Phase.generate], print_blob=False))
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("patch", mutants_for(*CLAIMED), ids=lambda p: p.stem)
def test_machine_kills_mutant(patch, monkeypatch):
    target, mutant = load_mutant(patch)
    name = CLAIMED[target]
    monkeypatch.setattr(node_module, name, getattr(mutant, name))
    machines = (MacMachine, AdaptiveMacMachine, HeldUplinkMacMachine)
    assert not all(_survives(machine) for machine in machines)
