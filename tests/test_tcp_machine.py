"""Stateful adversarial testing of the TCP engine (ROADMAP item 1(a)).

A ``hypothesis`` :class:`RuleBasedStateMachine` drives two
:class:`TcpConnection` endpoints one event at a time.  They are joined
by an adversarial pipe built on ``test_tcp_edge_cases._Wire``: each
side's fake network holds the segments it emitted, and the machine
decides what happens to them.  docs/robustness.md §5 is the overview.

Pipe rules: deliver in order or flush until quiet; drop, reorder or
duplicate one segment; hold segments while time passes (delay); forge
an RST, a stale ACK or a stray SYN from the peer's 4-tuple.  A side
whose connection is gone answers with an RST, as ``TcpStack`` does for
a port with no socket; a side that has not opened yet is a listener.

App rules, in any state: ``send``, ``recv`` (all or part),
``close()`` or ``abort()``, a reader that stalls (zero window) and
resumes, a bulk app that refills its buffer from ``on_send_space``,
simultaneous open, and advancing time.  ISS sits a few segments short
of 2**32 and the timestamp clock 0, 1 or 1000 ms short of its wrap.
Each example switches some pipe and app features off (swarm testing).

Oracles after every step: ``verify.probes._probe_tcp_connection``;
each side's delivered bytes are a prefix of what the peer sent; an
app's ``close()`` is never lost (RFC 793 §3.9, also in SYN_RECEIVED);
a sender that waits owns a timer; an open send window carries no
persist backoff; an ACK that moves ``snd_una`` with a sane timestamp
echo takes an RTT sample (§9.4: timestamps make every ACK a sample);
an ACK that answers a delivered duplicate echoes that duplicate's
timestamp or a later one (RFC 7323 §4.3), else the peer's next sample
spans every backoff since the original transmission.

Liveness, after the last step: the pipe turns clean and the apps close;
a stalled reader stays stalled for two ``persist_min``, then both read.
Each connection must then close or reach TIME_WAIT within
``verify.postrun``'s recovery bound, the streams must match unless an
error was declared, and after TIME_WAIT ``_check_no_armed_tcp_timers``
must hold.

The machine runs over TCPlp and the uIP, BLIP and GNRC profiles of
Table 1, each twice: as shipped, and with header prediction's host fast
path off (every segment through ``TcpConnection._full_input``).  Tier-1
runs each derandomized on a fixed example budget;
``--hypothesis-profile=machine-deep`` (``tests/conftest.py``) runs
20x the examples from a fresh seed.
"""

from __future__ import annotations

import functools
import inspect
import types
from pathlib import Path

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

import repro.core.connection as connection_module
from repro.core.segment import FLAG_ACK, FLAG_RST, FLAG_SYN, Segment
from repro.core.seqnum import seq_add, seq_le
from repro.core.simplified import (
    blip_params,
    gnrc_params,
    tcplp_params,
    uip_params,
)
from repro.verify.postrun import (
    check_all,
    _check_no_armed_tcp_timers,
    _check_recovery_bound,
    _check_stream_integrity,
)
from repro.verify.probes import _probe_tcp_connection
from tests.conftest import MACHINE_EXAMPLES
from tests.test_tcp_edge_cases import _From, _Wire

WRAP = 1 << 32
MASK = WRAP - 1
#: the recover-or-fail horizon every postrun check uses by default
RECOVERY_BOUND = inspect.signature(check_all).parameters[
    "recovery_bound"].default
if settings.get_current_profile_name() == "machine-deep":
    MACHINE_SETTINGS = settings()  # the loaded profile decides
else:
    MACHINE_SETTINGS = settings(
        max_examples=MACHINE_EXAMPLES, derandomize=True, database=None,
        deadline=None, suppress_health_check=[HealthCheck.too_slow],
    )

SIDES = st.sampled_from("ab")
PICK = st.integers(0, 7)
#: rule groups an example may leave out (swarm testing): a run without
#: drops or aborts gets deep into a connection before anything kills it
FEATURES = ("mangle", "forge", "stall", "bulk", "shut")
#: the features the simplest example has: hypothesis starts there
ON_BY_DEFAULT = ("stall", "bulk", "shut")
#: a bulk app stops refilling after this many send buffers
BULK_BUFFERS = 8


def _uses(feature):
    return precondition(lambda self: feature in self.features)


def _payload(offset: int, size: int) -> bytes:
    """Stream bytes ``offset .. offset+size``: a period-251 ramp, so a
    byte delivered at the wrong offset shows."""
    return bytes((offset + i) % 251 for i in range(size))


def _reset_for(seg: Segment) -> Segment:
    """What a stack with no socket answers (``TcpStack._on_packet``)."""
    return Segment(
        src_port=seg.dst_port, dst_port=seg.src_port,
        seq=seg.ack if seg.ack_flag else 0,
        ack=(seg.seq + seg.seg_len) & MASK, flags=FLAG_RST | FLAG_ACK,
    )


class _App:
    """One side's application: what it sent, read, and asked for."""

    def __init__(self, conn, opened: bool):
        self.conn = conn
        self.opened = opened
        self.sent = bytearray()
        self.received = bytearray()
        self.reading = True
        self.closed = False
        self.aborted = False
        self.errors = []
        conn.on_error = self.errors.append


class TcpMachine(RuleBasedStateMachine):
    """Two endpoints, an adversarial pipe and the apps on top."""

    params_factory = staticmethod(tcplp_params)
    #: the module the endpoints come from (a mutant under tests/mutants)
    module = connection_module

    def __init__(self):
        super().__init__()
        params = self.params_factory()
        params.time_wait = 1.0
        self.params = params
        self.S = self.module.TcpState
        self.wire = _Wire(
            params=params,
            iss=(WRAP - 3 * params.mss, WRAP - 2 * params.mss - 7),
            ts_clock=self._ts_clock, conn_cls=self.module.TcpConnection)
        self.sim = self.wire.sim
        self.apps = {"a": _App(self.wire.a, opened=True),
                     "b": _App(self.wire.b, opened=False)}
        self.handshake_forged = False
        self.ts_lag = 0
        self.features = set(FEATURES)
        #: after the last step, once the apps read all they are sent
        self.settling = False

    @initialize(features=st.fixed_dictionaries(
        {name: st.sampled_from([True, False]) if name in ON_BY_DEFAULT
         else st.booleans() for name in FEATURES}),
        ts_lag=st.sampled_from([0, 1, 1000]),
        simultaneous=st.sampled_from([True, False]))
    def start(self, features, ts_lag, simultaneous):
        self.features = {name for name, on in features.items() if on}
        self.ts_lag = ts_lag
        for side, app in self.apps.items():
            app.reading = "stall" not in self.features  # reads late
            if "bulk" in self.features:
                app.conn.on_send_space = functools.partial(self._top_up, side)
        self.wire.a.connect()
        if simultaneous:
            self.simultaneous_open()

    def _ts_clock(self, now: float) -> int:
        """Milliseconds that reach the 2**32 wrap ``ts_lag`` ms in."""
        return (int(now * 1000) - self.ts_lag) & MASK

    # -- the pipe -----------------------------------------------------
    def _pending(self, side):
        return self.apps[side].conn.network.sent

    def _peer(self, side):
        return "b" if side == "a" else "a"

    def _deliver(self, side, seg):
        """Hand ``seg`` (sent by ``side``) to the peer, checking the
        timestamp-RTT oracle on the way."""
        app = self.apps[self._peer(side)]
        conn = app.conn
        src = _From(self.apps[side].conn.local_id)
        if not app.opened:
            if seg.syn and not seg.ack_flag and not seg.rst:
                app.opened = True
                conn.accept_syn(seg, src)
            elif not seg.rst:
                conn.network.sent.append(_reset_for(seg))
            return
        if conn.state is self.S.CLOSED:
            if not seg.rst:
                conn.network.sent.append(_reset_for(seg))
            return
        before = conn.state, conn.snd_una, conn.rtt.samples
        opts = seg.options
        answered = len(conn.network.sent)
        duplicate = (
            conn.state not in (self.S.SYN_SENT, self.S.TIME_WAIT)
            and conn.ts_enabled and opts.has_timestamps
            and not (seg.syn or seg.rst) and seg.seg_len > 0
            and seq_le(seq_add(seg.seq, seg.seg_len), conn.rcv_nxt))
        conn.on_segment(seg, src)
        if duplicate:
            for answer in conn.network.sent[answered:]:
                if answer.ack_flag and answer.options.has_timestamps:
                    assert ((answer.options.ts_ecr - opts.ts_val)
                            & MASK) < 1 << 31, (
                        f"duplicate {seg!r} answered with the stale echo "
                        f"{answer.options.ts_ecr}")
        if (before[0] is not self.S.SYN_SENT and conn.snd_una != before[1]
                and conn.ts_enabled and conn.params.rtt_estimation
                and opts.has_timestamps
                and ((conn._now_ts() - opts.ts_ecr) & MASK) < 1 << 28):
            assert conn.rtt.samples > before[2], (
                f"ACK {seg!r} moved snd_una with echo {opts.ts_ecr} "
                f"but took no RTT sample")
        if self.settling:
            self._read(app)

    @precondition(lambda self: self._pending("a") or self._pending("b"))
    @rule(side=SIDES, count=st.integers(1, 4))
    def deliver(self, side, count):
        for _ in range(count):
            if self._pending(side):
                self._deliver(side, self._pending(side).pop(0))

    @rule()
    def flush(self):
        """A clean pipe until both sides fall quiet."""
        self._drain()

    @_uses("mangle")
    @rule(side=SIDES, index=PICK,
          how=st.sampled_from(["drop", "reorder", "duplicate"]))
    def mangle(self, side, index, how):
        """Drop one segment, deliver it ahead of the others, or deliver
        a copy and keep the original queued."""
        pending = self._pending(side)
        if not pending:
            return
        seg = pending[index % len(pending)]
        if how != "duplicate":
            pending.remove(seg)
        if how != "drop":
            self._deliver(side, seg)

    @_uses("forge")
    @rule(side=SIDES, kind=st.sampled_from(["rst", "stale_ack", "syn"]),
          offset=st.sampled_from([0, 1, 1000, 70000]))
    def forge(self, side, kind, offset):
        """A segment ``side``'s peer never sent arrives at ``side``."""
        conn = self.apps[side].conn
        seq = seq_add(conn.rcv_nxt, offset)
        if kind == "rst":
            seg = Segment(conn.peer_port, conn.local_port, seq, flags=FLAG_RST)
        elif kind == "stale_ack":
            seg = Segment(conn.peer_port, conn.local_port, conn.rcv_nxt,
                          ack=(conn.snd_una - offset - 1) & MASK,
                          flags=FLAG_ACK, window=conn.snd_wnd)
        else:
            if not self.apps[side].opened or conn.state is self.S.SYN_SENT:
                # An old duplicate SYN at a handshake is recoverable
                # (RFC 793 figure 10); a second one at the other end
                # leaves both in SYN_RECEIVED with a wrong peer ISN
                # until max_syn_retries, which TCP cannot do better.
                if self.handshake_forged:
                    return
                self.handshake_forged = True
            seg = Segment(conn.peer_port, conn.local_port, seq, flags=FLAG_SYN,
                          window=1000)
        self._deliver(self._peer(side), seg)

    # -- the apps -----------------------------------------------------
    def _live(self, side):
        app = self.apps[side]
        return app.opened and not app.closed and not app.aborted

    def _read(self, app, max_bytes=None):
        app.received += app.conn.recv(max_bytes)

    @rule(side=SIDES, size=st.sampled_from([1, 100, 500, 1500, 4000]))
    def send(self, side, size):
        self._write(side, size)

    def _top_up(self, side):
        """A bulk app refills its send buffer whenever an ACK frees it."""
        limit = BULK_BUFFERS * self.params.send_buffer
        if len(self.apps[side].sent) < limit:
            self._write(side, limit)

    def _write(self, side, size):
        app = self.apps[side]
        if not self._live(side):
            return
        data = _payload(len(app.sent), size)
        try:
            app.sent += data[:app.conn.send(data)]
        except RuntimeError:
            assert app.conn.state in (
                self.S.CLOSED, self.S.CLOSING, self.S.LAST_ACK,
                self.S.TIME_WAIT), f"send() raised in {app.conn.state}"

    @rule(side=SIDES, max_bytes=st.sampled_from([None, 1, 100]))
    def recv(self, side, max_bytes):
        app = self.apps[side]
        if app.opened and app.reading:
            self._read(app, max_bytes)

    @_uses("stall")
    @rule(side=SIDES)
    def toggle_reading(self, side):
        app = self.apps[side]
        app.reading = not app.reading

    def _close(self, app):
        if app.conn.state is self.S.SYN_SENT:
            # RFC 793 §3.9: the connection and its queued data go
            app.errors.append("close() in SYN_SENT")
        app.closed = True
        app.conn.close()

    @_uses("shut")
    @rule(side=SIDES, abort=st.booleans())
    def shut(self, side, abort):
        """The app calls close(), or abort()."""
        app = self.apps[side]
        if abort and app.opened and not app.aborted:
            app.aborted = True
            app.conn.abort()
        elif not abort and self._live(side):
            self._close(app)

    @precondition(lambda self: not self.apps["b"].opened)
    @rule()
    def simultaneous_open(self):
        self.apps["b"].opened = True
        self.wire.b.connect()

    @rule(dt=st.sampled_from([None, 1.0, 0.001, 0.1, 0.5, 2.0, 5.0]))
    def advance(self, dt):
        """Let ``dt`` seconds pass (None: up to the next timer)."""
        if dt is None:
            nxt = self.sim.peek_time()
            self.sim.run(until=self.sim.now if nxt is None else nxt)
        else:
            self.sim.run(until=self.sim.now + dt)

    # -- oracles ------------------------------------------------------
    @invariant()
    def probes_hold(self):
        for side, app in self.apps.items():
            if app.opened:
                problems = _probe_tcp_connection(app.conn)
                assert not problems, f"{side}: {problems}"

    @invariant()
    def streams_are_prefixes(self):
        for side, app in self.apps.items():
            sent = self.apps[self._peer(side)].sent
            assert sent.startswith(app.received), (
                f"{side} read {len(app.received)} bytes that are not a "
                f"prefix of the {len(sent)} its peer sent")

    @invariant()
    def close_is_not_lost(self):
        for side, app in self.apps.items():
            if app.closed and not app.aborted:
                assert app.conn.state not in (
                    self.S.ESTABLISHED, self.S.CLOSE_WAIT), (
                    f"{side} still {app.conn.state} after close()")

    @invariant()
    def a_waiting_sender_owns_a_timer(self):
        """Unacknowledged data has a retransmission timer, and data held
        back by a closed window a persist timer: no sender waits on a
        peer that may never speak again."""
        for side, app in self.apps.items():
            conn = app.conn
            if conn.state not in conn._CAN_OUTPUT:
                continue
            if conn._flight_size() > 0:
                assert conn.rexmt_timer.armed, f"{side}: {conn.state}"
            elif conn.snd_wnd == 0 and conn._unsent_bytes() > 0:
                assert conn.persist_timer.armed, (
                    f"{side}: {conn.state} holds {conn._unsent_bytes()} "
                    f"bytes behind a zero window with no persist timer")

    @invariant()
    def persist_backoff_ends_with_episode(self):
        for side, app in self.apps.items():
            conn = app.conn
            if conn.snd_wnd > 0:
                assert conn._persist_shift == 0, (
                    f"{side}: open window {conn.snd_wnd} carries persist "
                    f"backoff {conn._persist_shift}")

    def _step_oracles(self):
        self.probes_hold()
        self.streams_are_prefixes()
        self.close_is_not_lost()
        self.a_waiting_sender_owns_a_timer()
        self.persist_backoff_ends_with_episode()

    # -- liveness -----------------------------------------------------
    def _drain(self):
        while self._pending("a") or self._pending("b"):
            for side in "ab":
                while self._pending(side):
                    self._deliver(side, self._pending(side).pop(0))

    def _gone(self, side):
        app = self.apps[side]
        return not app.opened or app.conn.state is self.S.CLOSED

    def _settled(self, done=("CLOSED", "TIME_WAIT")):
        """Each side is ``done``, or in FIN_WAIT_2 with its peer gone: a
        reset the pipe lost leaves it waiting for a FIN that never
        comes.  After close() the app may still read (half-close), so
        nothing times FIN_WAIT_2 out, and it sends nothing that could
        draw a new reset."""
        return all(
            self._gone(side) or app.conn.state.name in done
            or (app.conn.state is self.S.FIN_WAIT_2
                and self._gone(self._peer(side)))
            for side, app in self.apps.items())

    def _close_apps(self):
        for side, app in self.apps.items():
            if self._live(side) and app.conn.state is not self.S.SYN_SENT:
                self._close(app)

    def _run_clean(self, until):
        """A clean pipe until ``until``: deliver everything, close each
        app once its handshake is over, check, fire the next timer.
        Returns when both connections first settled."""
        done_at = None
        while self.sim.now < until:
            self._close_apps()  # mid-handshake too: SYN_RECEIVED
            self._drain()
            self._close_apps()  # and once it is over
            self._drain()
            self._step_oracles()
            if done_at is None and self._settled():
                done_at = self.sim.now
            nxt = self.sim.peek_time()
            self.sim.run(until=until if nxt is None else min(nxt, until))
        self._drain()
        return done_at

    def teardown(self):
        # The pipe stops misbehaving and the apps close; a stalled reader
        # stays stalled for a moment (its peer probes), then all read.
        self._run_clean(self.sim.now + 2 * self.params.persist_min)
        start = self.sim.now
        self.settling = True
        for app in self.apps.values():
            app.reading = True
            if app.opened:
                self._read(app)
        done_at = self._run_clean(
            start + RECOVERY_BOUND + 2 * self.params.time_wait)
        errors = [e for app in self.apps.values() for e in app.errors]
        errors += ["aborted" for app in self.apps.values() if app.aborted]
        problems = _check_recovery_bound(done_at, start, RECOVERY_BOUND)
        for side, app in self.apps.items():
            peer = self.apps[self._peer(side)]
            problems += _check_stream_integrity(
                bytes(peer.sent), bytes(app.received), errors, label=side)
        problems += _check_no_armed_tcp_timers(self.sim)
        if not self._settled(done=("CLOSED",)):
            problems.append("TIME_WAIT never expired")
        states = {side: app.conn.state.name for side, app in self.apps.items()}
        assert not problems, f"{problems}; end states {states}"


class UipMachine(TcpMachine):
    params_factory = staticmethod(uip_params)


class BlipMachine(TcpMachine):
    params_factory = staticmethod(blip_params)


class GnrcMachine(TcpMachine):
    params_factory = staticmethod(gnrc_params)


TestTcplpMachine = TcpMachine.TestCase
TestUipMachine = UipMachine.TestCase
TestBlipMachine = BlipMachine.TestCase
TestGnrcMachine = GnrcMachine.TestCase
TestTcplpMachine.settings = TestUipMachine.settings = MACHINE_SETTINGS
TestBlipMachine.settings = TestGnrcMachine.settings = MACHINE_SETTINGS


class _FullInputConnection(connection_module.TcpConnection):
    """Every segment through ``_full_input``: header prediction's host
    fast path off, as ``tests/test_fastcore_equivalence.py`` runs it."""

    __slots__ = ()
    on_segment = connection_module.TcpConnection._full_input


#: the four machines again, over the full input path
FULL_INPUT = types.SimpleNamespace(TcpState=connection_module.TcpState,
                                   TcpConnection=_FullInputConnection)
TestTcplpFullInputMachine = type(
    "TcplpFullInputMachine", (TcpMachine,), {"module": FULL_INPUT}).TestCase
TestUipFullInputMachine = type(
    "UipFullInputMachine", (UipMachine,), {"module": FULL_INPUT}).TestCase
TestBlipFullInputMachine = type(
    "BlipFullInputMachine", (BlipMachine,), {"module": FULL_INPUT}).TestCase
TestGnrcFullInputMachine = type(
    "GnrcFullInputMachine", (GnrcMachine,), {"module": FULL_INPUT}).TestCase
TestTcplpFullInputMachine.settings = MACHINE_SETTINGS
TestUipFullInputMachine.settings = MACHINE_SETTINGS
TestBlipFullInputMachine.settings = MACHINE_SETTINGS
TestGnrcFullInputMachine.settings = MACHINE_SETTINGS


# ----------------------------------------------------------------------
# kill list: each tests/mutants/*.patch re-introduces a bug that once
# shipped; the machine that claims its module must find it within its
# tier-1 budget.  The MAC machine (test_mac_machine.py) shares this
# harness.
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
MUTANTS = sorted((Path(__file__).parent / "mutants").glob("*.patch"))


def _target(patch: str) -> str:
    """The repo-relative path a patch's ``--- a/`` header names."""
    header = next(line for line in patch.splitlines()
                  if line.startswith("--- a/"))
    return header[len("--- a/"):].strip()


def mutants_for(*targets: str):
    """The kill-list patches aimed at one of ``targets``."""
    return [p for p in MUTANTS if _target(p.read_text()) in targets]


def _apply(patch: str, source: str) -> str:
    """Apply a one-hunk, one-line unified diff to ``source``; its
    context must match exactly once."""
    before, after = [], []
    hunk = patch.split("\n@@", 1)[1].splitlines()[1:]
    assert sum(line.startswith("-") for line in hunk) == 1, "one-line patch"
    for line in hunk:
        if line[:1] in (" ", "-"):
            before.append(line[1:])
        if line[:1] in (" ", "+"):
            after.append(line[1:])
    old, new = "\n".join(before) + "\n", "\n".join(after) + "\n"
    assert source.count(old) == 1, "the patch context no longer matches"
    return source.replace(old, new)


def load_mutant(path: Path):
    """``(target, module)``: the patched copy of the module ``path``
    names, executed as a fresh module beside the real one."""
    patch = path.read_text()
    target = _target(patch)
    source = _apply(patch, (REPO_ROOT / target).read_text())
    mutant = types.ModuleType(f"mutant_{path.stem}")
    exec(compile(source, str(path), "exec"), mutant.__dict__)
    return target, mutant


@pytest.mark.parametrize("patch", mutants_for("src/repro/core/connection.py"),
                         ids=lambda p: p.stem)
def test_machine_kills_mutant(patch):
    _, mutant = load_mutant(patch)
    machine = type("MutantMachine", (TcpMachine,), {"module": mutant})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=settings(
            MACHINE_SETTINGS, phases=[Phase.generate], print_blob=False))
