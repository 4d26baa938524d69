"""Stateful invariant machines (Hypothesis ``RuleBasedStateMachine``).

Three rule-based machines drive real components against executable
models of their contracts, letting Hypothesis search *sequences* of
operations no directed test would write:

* :class:`ChannelMachine` — a :func:`~repro.connections.Buffer` against
  a transparent-box mirror of its documented cycle semantics (one
  push/pop per cycle, one-cycle handshake plus ``extra_latency``
  transit, stall gating);
* :class:`RouterMachine` — a :class:`~repro.noc.WHVCRouter` mesh node
  under random packet injection: XY routing correctness, per-packet
  flit order, wormhole contiguity per (output, VC), and loss-free
  delivery once drained;
* :class:`CacheMachine` — a :class:`~repro.sweep.cache.ResultCache`
  (plus a second handle on the same directory) against a stored-value
  model: a lookup never returns a *wrong* value, entry counts respect
  ``max_entries``, corrupt entries are dropped and counted, and the
  cross-process stats merge is monotone.

Run them via ``<Machine>.TestCase`` (pytest collects these in
``tests/verify/test_machines.py``) or ``repro verify``'s stateful
phase.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from ..connections import Buffer
from ..kernel import Simulator
from ..noc import Port, WHVCRouter, make_packet, xy_route
from ..sweep.cache import ResultCache
from ..sweep.point import SweepPoint

__all__ = ["ChannelMachine", "RouterMachine", "CacheMachine"]


class ChannelMachine(RuleBasedStateMachine):
    """A Buffer channel vs an executable model of its cycle contract."""

    @initialize(capacity=st.integers(1, 3), extra_latency=st.integers(0, 1))
    def build(self, capacity, extra_latency):
        self.sim = Simulator()
        self.clk = self.sim.add_clock("clk", period=10)
        self.chan = Buffer(self.sim, self.clk, capacity=capacity,
                           extra_latency=extra_latency, name="dut")
        self.capacity = capacity
        self.extra_latency = extra_latency
        # model state mirrors FastChannel._tick/do_push/do_pop exactly
        self.queue: list = []
        self.transit: list = []
        self.occ_start = 0
        self.pushed = False
        self.popped = False
        self.stall_probability = 0.0
        self.stalled = False
        self.next_msg = 0
        self.sim.run_cycles(self.clk, 1)  # align: first tick has run
        self._model_tick()

    def _model_tick(self):
        cycles = self.clk.cycles
        while self.transit and self.transit[0][0] <= cycles:
            self.queue.append(self.transit.pop(0)[1])
        self.occ_start = len(self.queue) + len(self.transit)
        self.pushed = False
        self.popped = False
        # only the deterministic stall probabilities are drawn (0 or 1),
        # so the RNG in the real channel cannot diverge from the model
        self.stalled = self.stall_probability >= 1.0

    @rule()
    def tick(self):
        self.sim.run_cycles(self.clk, 1)
        self._model_tick()

    @rule()
    def push(self):
        msg = self.next_msg
        self.next_msg += 1
        expect = (not self.pushed
                  and self.occ_start + 1 <= self.capacity)
        assert self.chan.do_push(msg) == expect
        if expect:
            self.pushed = True
            self.transit.append(
                (self.clk.cycles + 1 + self.extra_latency, msg))
            self.occ_start += 1

    @rule()
    def pop(self):
        expect = (not self.popped and not self.stalled
                  and bool(self.queue))
        ok, value = self.chan.do_pop()
        assert ok == expect
        if expect:
            self.popped = True
            assert value == self.queue.pop(0)

    @rule()
    def peek(self):
        expect = (not self.stalled and bool(self.queue))
        ok, value = self.chan.peek()
        assert ok == expect
        if expect:
            assert value == self.queue[0]

    @rule(probability=st.sampled_from((0.0, 1.0)))
    def set_stall(self, probability):
        self.chan.set_stall(probability, seed=0)
        self.stall_probability = probability
        if probability == 0.0:
            self.stalled = False  # set_stall(0) resets immediately

    @invariant()
    def mirrors_agree(self):
        if not hasattr(self, "chan"):
            return  # before initialize
        assert tuple(self.chan._queue) == tuple(self.queue)
        assert tuple(self.chan._transit) == tuple(self.transit)
        assert self.chan._occ_start == self.occ_start
        assert self.chan._pushed == self.pushed
        assert self.chan._popped == self.popped
        assert self.chan._stalled == self.stalled
        assert len(self.queue) + len(self.transit) <= self.capacity


class RouterMachine(RuleBasedStateMachine):
    """WHVC mesh-node arbitration under random packet injection.

    The machine plays node 0 of a 2x2 mesh, injecting packets on the
    three connected inputs and draining the three connected outputs.
    """

    MESH_WIDTH = 2
    IN_PORTS = (Port.LOCAL, Port.NORTH, Port.EAST)
    OUT_PORTS = (Port.LOCAL, Port.NORTH, Port.EAST)

    @initialize(n_vcs=st.integers(1, 2), vc_depth=st.integers(1, 3))
    def build(self, n_vcs, vc_depth):
        self.sim = Simulator()
        self.clk = self.sim.add_clock("clk", period=10)
        self.n_vcs = n_vcs
        self.router = WHVCRouter(self.sim, self.clk, node=0,
                                 mesh_width=self.MESH_WIDTH,
                                 n_vcs=n_vcs, vc_depth=vc_depth)
        self.in_chans = {}
        self.out_chans = {}
        for port in self.IN_PORTS:
            chan = Buffer(self.sim, self.clk, capacity=2,
                          name=f"link_in{int(port)}")
            self.router.ins[port].bind(chan)
            self.in_chans[port] = chan
        for port in self.OUT_PORTS:
            chan = Buffer(self.sim, self.clk, capacity=2,
                          name=f"link_out{int(port)}")
            self.router.outs[port].bind(chan)
            self.out_chans[port] = chan
        self.pending = {port: [] for port in self.IN_PORTS}
        self.sent: dict = {}      # packet_id -> flit count
        self.delivered: dict = {}  # packet_id -> [flit, ...]
        self.out_log = {port: [] for port in self.OUT_PORTS}
        self.next_packet = 0

    @rule(src=st.sampled_from(IN_PORTS), dest=st.integers(0, 3),
          vc=st.integers(0, 1), length=st.integers(1, 3),
          data=st.data())
    def send_packet(self, src, dest, vc, length, data):
        pid = self.next_packet
        self.next_packet += 1
        flits = make_packet(src=int(src), dest=dest, vc=vc % self.n_vcs,
                            packet_id=pid,
                            payloads=list(range(length)))
        self.pending[src].extend(flits)
        self.sent[pid] = length

    @rule(cycles=st.integers(1, 4))
    def step(self, cycles):
        for _ in range(cycles):
            self.sim.run_cycles(self.clk, 1)
            for port, chan in self.in_chans.items():
                queue = self.pending[port]
                if queue and chan.do_push(queue[0]):
                    queue.pop(0)
            self._drain_outputs()

    def _drain_outputs(self):
        for port, chan in self.out_chans.items():
            ok, flit = chan.do_pop()
            if ok:
                self.out_log[port].append(flit)
                self.delivered.setdefault(flit.packet_id, []).append(flit)

    @invariant()
    def routing_and_order_hold(self):
        if not hasattr(self, "router"):
            return
        for port, flits in self.out_log.items():
            for flit in flits:
                assert xy_route(0, flit.dest, self.MESH_WIDTH) == port, (
                    f"flit for node {flit.dest} left via {port!r}")
            # Wormhole contiguity: within one (output, VC) stream,
            # packets never interleave — a head locks the output for
            # its VC until the tail passes.
            for vc in range(self.n_vcs):
                current = None
                for flit in flits:
                    if flit.vc != vc:
                        continue
                    if current is None:
                        assert flit.is_head
                        current = flit.packet_id
                    else:
                        assert flit.packet_id == current, (
                            f"packets {current} and {flit.packet_id} "
                            f"interleaved on {port!r}/vc{vc}")
                    if flit.is_tail:
                        current = None
        for pid, flits in self.delivered.items():
            assert [f.seq for f in flits] == list(range(len(flits))), (
                f"packet {pid} flits out of order")

    def teardown(self):
        # Loss-free delivery: with the testbench feeding and draining,
        # every injected flit must eventually leave the right output.
        if not hasattr(self, "router"):
            return
        outstanding = sum(self.sent.values()) - sum(
            len(f) for f in self.delivered.values())
        budget = 40 * (outstanding + sum(
            len(q) for q in self.pending.values())) + 60
        for _ in range(budget):
            if (not any(self.pending.values())
                    and all(len(self.delivered.get(pid, [])) == n
                            for pid, n in self.sent.items())):
                break
            self.sim.run_cycles(self.clk, 1)
            for port, chan in self.in_chans.items():
                queue = self.pending[port]
                if queue and chan.do_push(queue[0]):
                    queue.pop(0)
            self._drain_outputs()
        self.routing_and_order_hold()
        for pid, n in self.sent.items():
            got = self.delivered.get(pid, [])
            assert len(got) == n, (
                f"packet {pid}: {len(got)}/{n} flits delivered")
            assert got[0].is_head and got[-1].is_tail
        super().teardown()


class CacheMachine(RuleBasedStateMachine):
    """ResultCache semantics under put/get/evict/corrupt/stats-merge."""

    @initialize(max_entries=st.integers(2, 5))
    def build(self, max_entries):
        self.root = tempfile.mkdtemp(prefix="repro-verify-cache-")
        self.max_entries = max_entries
        self.cache = ResultCache(root=self.root, max_entries=max_entries,
                                 version="v", rev="r")
        # A second handle on the same directory: the concurrent-sweep
        # shape the cross-process stats merge exists for.
        self.other = ResultCache(root=self.root, max_entries=max_entries,
                                 version="v", rev="r")
        self.stored: dict = {}   # key index -> last value written
        self.merged_floor: dict = {}

    def _point(self, idx):
        return SweepPoint(experiment="verify_probe",
                          params={"idx": idx}, seed=idx)

    @rule(idx=st.integers(0, 7), value=st.integers(0, 999),
          handle=st.booleans())
    def put(self, idx, value, handle):
        cache = self.cache if handle else self.other
        cache.put(self._point(idx), {"v": value}, cost=0.0)
        self.stored[idx] = value

    @rule(idx=st.integers(0, 7), handle=st.booleans())
    def get(self, idx, handle):
        cache = self.cache if handle else self.other
        before = cache.stats.lookups
        value = cache.get(self._point(idx))
        assert cache.stats.lookups == before + 1
        if value is not None:
            # Never a wrong value: evictions may forget, never corrupt.
            assert idx in self.stored
            assert value == {"v": self.stored[idx]}
        elif idx not in self.stored:
            pass  # a true miss
        # else: evicted (or corrupted-and-dropped) — a legal miss

    @precondition(lambda self: getattr(self, "stored", None))
    @rule()
    def corrupt_one_entry(self):
        entries = [p for _, _, p in self.cache._entries()]
        if not entries:
            return
        path = entries[0]
        path.write_text("{ truncated garbage")
        idx = None  # find which stored point this file belongs to
        for candidate in list(self.stored):
            if self.cache._path(self.cache.key_for(
                    self._point(candidate))) == path:
                idx = candidate
                break
        before = self.cache.stats.corrupt_dropped
        value = self.cache.get(self._point(idx)) if idx is not None \
            else None
        if idx is not None:
            assert value is None
            assert self.cache.stats.corrupt_dropped == before + 1
            assert not path.exists()
            del self.stored[idx]

    @rule(handle=st.booleans())
    def flush_stats(self, handle):
        cache = self.cache if handle else self.other
        merged = cache.flush_stats()
        for name, floor in self.merged_floor.items():
            assert merged.get(name, 0) >= floor, (
                f"persistent counter {name} went backwards")
        self.merged_floor = {k: v for k, v in merged.items()}

    @invariant()
    def within_limits(self):
        if not hasattr(self, "cache"):
            return
        assert len(self.cache) <= self.max_entries
        for cache in (self.cache, self.other):
            stats = cache.stats
            assert stats.hits >= 0 and stats.misses >= 0
            assert stats.lookups == stats.hits + stats.misses

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)
        super().teardown()
