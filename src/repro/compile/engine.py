"""The compiled dispatch engine: a flat, allocation-free scheduler loop.

Where the threaded kernel re-derives the schedule every timestep — heap
peeks, wakeup-bucket dict churn, a generator resume for every polling
thread, a ``_tick`` call for every channel — this engine executes the
static node schedule produced by :func:`repro.design.lower.lower` with
three elisions, each individually proven equivalent:

1. **Parked threads.**  A thread that yields its :class:`~repro.kernel.
   Gate` keeps its scheduling *slot* but is not resumed until the gate
   opens (a message handler calls ``gate.open()``, or the engine opens
   it when a watched channel's tick leaves data visible).  Under the
   threaded kernel ``yield gate`` is a plain one-posedge wait, so the
   only difference is *which* iterations of an idle polling loop run —
   iterations that by construction observe nothing and do nothing.
2. **Idle channels.**  A channel core whose tick is a pure no-op (empty
   queue and transit, no stall RNG to advance, no fault hook) stops
   being ticked; the first ``do_push``/``set_stall`` reactivates it and
   re-credits ``stats.cycles`` for the skipped span, whose occupancy
   contribution is exactly zero.
3. **No per-cycle rescheduling.**  Pollers stay in a flat order list
   (slot position = threaded resume order); a posedge is four integer
   updates instead of heap traffic.

Everything the elisions cannot prove equivalent **detaches**: the engine
files every live thread back into the clock's wakeup bucket in slot
order (preserving the threaded resume order), reactivates every skipped
channel, and hands the very same run back to the threaded loop.  Detach
triggers are cheap per-cycle guards: a stopped or paused clock, a timed
event in the heap, a channel/method/thread registered mid-run.

Resume-order equivalence (the byte-identity argument, spelled out in
``docs/COMPILED_BACKEND.md``): the threaded kernel wakes a cycle's
bucket in subscription-chronological order.  Sleepers (``yield n``,
n > 1) subscribed on an earlier cycle than any poller's implicit
re-subscription, so due sleepers *prepend* to the order list; pollers
keep their slots (re-subscription in resume order is order-preserving);
event-woken threads resume in a later delta and re-subscribe after
every poller, so they *append*.
"""

from __future__ import annotations

from bisect import bisect_left

from ..kernel.backend import record_run
from ..kernel.simulator import (DeltaOverflow, Event, Gate, SimulationError,
                                TimeBudgetExceeded, _TIME_BUDGET, _monotonic)

__all__ = ["CompiledEngine"]

#: _scan_idx value outside the order scan: any unpark inserts "ahead".
_NOT_SCANNING = 1 << 60


class CompiledEngine:
    """Flat dispatch loop bound to one simulator and its single clock.

    Construct via :func:`repro.compile.try_attach`, never directly: the
    capability check (:mod:`repro.compile.capability`) must pass first.
    """

    __slots__ = ("sim", "clock", "schedule", "_live", "_live_keys",
                 "_parked_map", "_key_lo", "_key_hi", "_scan_idx",
                 "_ticks", "_active", "_active_keys", "_tick_index",
                 "_cb_count", "_thread_count")

    def __init__(self, sim, schedule):
        from ..connections.channel import FastChannel

        self.sim = sim
        self.clock = schedule.clock
        self.schedule = schedule
        #: Dispatch slots: ``[key, thread, generator, state]`` where
        #: state is None (polls every cycle) or a Gate.  ``_live`` holds
        #: only runnable pollers, sorted by slot key (prepends take
        #: decreasing keys, appends increasing ones, so key order IS the
        #: threaded resume order).  An entry whose gate stays closed is
        #: *removed* from the scan and registered on the gate; the
        #: gate's ``open()`` bisect-inserts it back at its key — parked
        #: threads cost nothing per cycle, not even a skip test.  Starts
        #: empty: threads flow in from the wakeup buckets, which is what
        #: makes attach valid at any run boundary.
        self._live: list = []
        self._live_keys: list = []
        self._parked_map: dict = {}
        self._key_lo = 0
        self._key_hi = 0
        self._scan_idx = _NOT_SCANNING
        # Tick nodes in registration order: (channel, None) for managed
        # FastChannel cores, (None, fn) for callbacks that must run
        # every cycle.  Rebuilt from clock._callbacks (not the schedule)
        # so engine and clock can never disagree about order.
        ticks = []
        for cb in self.clock._callbacks:
            owner = getattr(cb, "__self__", None)
            if isinstance(owner, FastChannel) and cb.__name__ == "_tick":
                ticks.append((owner, None))
                owner._compiled = self
            else:
                ticks.append((None, cb))
        self._ticks = ticks
        # The per-cycle loop walks only the *active* subsequence of the
        # tick list: a skipped channel costs nothing until reactivated.
        # Deactivation deletes in place and reactivation bisect-inserts
        # by registration index, so active ticks always run in exact
        # registration order — unmanaged callbacks observe the same
        # channel states they would under the threaded kernel.
        self._active = [(idx, ch, fn) for idx, (ch, fn) in enumerate(ticks)
                        if ch is None or ch._skip_from is None]
        self._active_keys = [idx for idx, _ch, _fn in self._active]
        self._tick_index = {id(ch): idx for idx, (ch, _fn) in enumerate(ticks)
                            if ch is not None}
        self._cb_count = len(self.clock._callbacks)
        self._thread_count = len(sim._threads)

    # ------------------------------------------------------------------
    # channel hooks (called from FastChannel.do_push / set_stall)
    # ------------------------------------------------------------------
    def _channel_pushed(self, ch) -> None:
        """Reactivate a skipped channel the moment state re-enters it."""
        skip_from = ch._skip_from
        if skip_from is not None:
            ch._skip_from = None
            # Every skipped tick would have added one cycle of zero
            # occupancy: re-credit the cycle count, occupancy_sum += 0.
            ch.stats.cycles += self.clock.cycles - skip_from
            idx = self._tick_index[id(ch)]
            pos = bisect_left(self._active_keys, idx)
            self._active_keys.insert(pos, idx)
            self._active.insert(pos, (idx, ch, None))

    _channel_touched = _channel_pushed

    # ------------------------------------------------------------------
    # gate hook (called from Gate.open when parked threads wait there)
    # ------------------------------------------------------------------
    def _unpark(self, entries) -> None:
        """Re-insert parked entries at their slot keys.

        Mid-scan semantics mirror the threaded kernel exactly: a thread
        whose slot lies *behind* the scan cursor polled earlier this
        cycle (before the opener ran) and so resumes next cycle — the
        cursor bump keeps it un-scanned; a slot *ahead* of the cursor is
        reached later this same cycle, just as the threaded bucket would
        reach the still-subscribed poller after the opener.
        """
        live = self._live
        keys = self._live_keys
        parked_map = self._parked_map
        for entry in entries:
            del parked_map[id(entry)]
            key = entry[0]
            pos = bisect_left(keys, key)
            keys.insert(pos, key)
            live.insert(pos, entry)
            if pos <= self._scan_idx:
                self._scan_idx += 1

    # ------------------------------------------------------------------
    # detach: hand the simulation back to the threaded kernel
    # ------------------------------------------------------------------
    def detach(self, reason: str) -> None:
        """Restore exact threaded-kernel state and record the fallback.

        Live order-list threads are re-filed into the next cycle's
        wakeup bucket *in slot order*: sleepers already in that bucket
        subscribed chronologically earlier, so bucket order — hence
        resume order — matches an uninterrupted threaded run.
        """
        sim = self.sim
        clock = self.clock
        subscribe = clock._subscribe
        entries = self._live + list(self._parked_map.values())
        entries.sort(key=lambda e: e[0])
        for entry in entries:
            state = entry[3]
            if state is not None:
                state._waiters = None  # the gate's parked registration
            if not entry[1].done:
                subscribe(entry[1])
        self._live = []
        self._live_keys = []
        self._parked_map.clear()
        for ch, _fn in self._ticks:
            if ch is not None:
                skip_from = ch._skip_from
                if skip_from is not None:
                    ch._skip_from = None
                    ch.stats.cycles += clock.cycles - skip_from
                ch._compiled = None
        sim._engine = None
        sim._backend_fallback = reason
        record_run("threaded", reason)

    def _settle(self) -> None:
        """Re-credit skipped cycles on still-idle channels at a run
        boundary, so ``stats.cycles`` (hence ``mean_occupancy`` and
        link utilization) reads byte-identical to the threaded kernel
        whenever the simulation is observable."""
        cycles = self.clock.cycles
        for ch, _fn in self._ticks:
            if ch is not None:
                skip_from = ch._skip_from
                if skip_from is not None and skip_from != cycles:
                    ch.stats.cycles += cycles - skip_from
                    ch._skip_from = cycles

    # ------------------------------------------------------------------
    # thread dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, thread, emit) -> None:
        """Resume a thread entering the live list (due sleeper or
        event-woken); ``emit`` places its new slot (prepend vs append)
        and assigns the slot key (the 0 here is a placeholder)."""
        sim = self.sim
        gen = thread.gen
        try:
            request = next(gen)
        except StopIteration:
            thread.done = True
            sim._thread_finished(thread)
            return
        if request is None:
            emit([0, thread, gen, None])
            return
        kind = type(request)
        if kind is Gate:
            emit([0, thread, gen, request])
            return
        if kind is int:
            if request == 1:
                emit([0, thread, gen, None])
                return
            if request <= 0:
                raise SimulationError(
                    f"thread {thread.name!r} yielded non-positive wait "
                    f"{request}")
            self.clock._subscribe(thread, request)
            return
        if isinstance(request, Event):
            request._subscribe(thread)
            return
        if isinstance(request, int):  # bool/IntEnum yields
            if int(request) == 1:
                emit([0, thread, gen, None])
            else:
                self.clock._subscribe(thread, int(request))
            return
        raise SimulationError(
            f"thread {thread.name!r} yielded unsupported value {request!r}")

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    def run(self, until, max_steps, stop_clock, stop_cycles):
        """Execute timesteps until a stop condition or a detach trigger.

        Returns ``(True, steps)`` when the run completed under the
        engine, ``(False, steps)`` after a detach — the caller's
        threaded loop then continues the same run with the remaining
        step budget.
        """
        sim = self.sim
        clock = self.clock
        # Observability may attach between runs; it needs the threaded
        # kernel's instrumented delta loop.
        if sim.telemetry is not None or sim.trace is not None \
                or sim.watchdog is not None:
            self.detach("observability attached between runs")
            return (False, 0)

        live = self._live
        keys = self._live_keys
        parked_map = self._parked_map
        active = self._active
        active_keys = self._active_keys
        queue = sim._queue
        wakeups = clock._wakeups
        callbacks = clock._callbacks
        threads = sim._threads
        cb_count = self._cb_count
        thread_count = self._thread_count
        dirty = sim._dirty_signals
        budget = _TIME_BUDGET  # stable list identity; usually empty
        steps = 0

        while True:
            if budget and _monotonic() >= budget[-1]:
                raise TimeBudgetExceeded(
                    f"simulation at t={sim.now} exceeded its wall-clock "
                    f"budget (see repro.kernel.time_budget)"
                )
            next_edge = clock.next_edge
            if until is not None and next_edge > until:
                sim.now = until
                self._settle()
                record_run("compiled")
                return (True, steps)
            # Detach guards: constructs the schedule does not cover.
            if (queue or clock._stopped
                    or clock._pause_until > next_edge
                    or len(callbacks) != cb_count
                    or sim._method_count
                    or len(threads) != thread_count):
                if queue:
                    reason = "timed event scheduled in the heap"
                elif clock._stopped:
                    reason = f"clock {clock.name!r} stopped"
                elif clock._pause_until > next_edge:
                    reason = f"clock {clock.name!r} paused"
                elif len(callbacks) != cb_count:
                    reason = "per-edge callback registered mid-run"
                elif sim._method_count:
                    reason = "combinational method registered mid-run"
                else:
                    reason = "thread registered mid-run"
                self.detach(reason)
                return (False, steps)

            # -- phase 1: the clock edge (four updates, no heap traffic)
            sim.now = next_edge
            clock.cycles = cycles = clock.cycles + 1
            clock.next_edge = next_edge + clock.period
            clock._seq = next(sim._seq)

            # -- phase 2: channel ticks; only the active subsequence runs
            # (a channel that goes idle here drops out of the walk until
            # a push/set_stall re-inserts it at its registration slot)
            i = 0
            while i < len(active):
                ch = active[i][1]
                if ch is not None:
                    ch._tick(clock)
                    if ch._queue:
                        if not ch._stalled:
                            gates = ch._wake_gates
                            if gates is not None:
                                for gate in gates:
                                    gate._open = True
                                    waiters = gate._waiters
                                    if waiters is not None:
                                        gate._waiters = None
                                        self._unpark(waiters[1])
                        i += 1
                    elif (not ch._transit
                          and ch._stall_probability == 0.0
                          and ch._faults is None):
                        ch._skip_from = cycles
                        del active[i]
                        del active_keys[i]
                    else:
                        i += 1
                else:
                    active[i][2](clock)
                    i += 1

            # -- phase 3a: due sleepers resume first (chronologically the
            # earliest subscribers in this cycle's threaded bucket).
            # Their new slots are *prepended* — but only after the live
            # scan below, so this cycle resumes them exactly once.
            front = None
            if wakeups:
                waiters = wakeups.pop(cycles, None)
                if waiters is not None:
                    if clock._next_wakeup == cycles:
                        clock._next_wakeup = (min(wakeups) if wakeups
                                              else None)
                    if waiters:
                        front = []
                        emit = front.append
                        for thread in waiters:
                            if not thread.done:
                                self._dispatch(thread, emit)

            # -- phase 3b: the live scan (slot-key order = resume order).
            # ``self._scan_idx`` is the cursor; resumed code may open a
            # gate, and ``_unpark`` bumps the cursor when it inserts a
            # slot at or behind it — so the cursor is re-read after every
            # ``next()`` and every removal happens at the re-read index.
            self._scan_idx = 0
            while True:
                k = self._scan_idx
                if k >= len(live):
                    break
                entry = live[k]
                state = entry[3]
                if state is not None:
                    if not state._open:
                        # Park: drop out of the scan entirely until the
                        # gate's open() re-inserts the slot at its key.
                        del live[k]
                        del keys[k]
                        waiters = state._waiters
                        if waiters is None:
                            state._waiters = (self, [entry])
                        else:
                            waiters[1].append(entry)
                        parked_map[id(entry)] = entry
                        continue        # cursor now points at the next slot
                    state._open = False
                try:
                    request = next(entry[2])
                except StopIteration:
                    thread = entry[1]
                    thread.done = True
                    sim._thread_finished(thread)
                    k = self._scan_idx
                    del live[k]
                    del keys[k]
                    continue
                if request is None:
                    entry[3] = None
                    self._scan_idx += 1
                    continue
                kind = type(request)
                if kind is Gate:
                    entry[3] = request
                    self._scan_idx += 1
                    continue
                if kind is int:
                    if request == 1:
                        entry[3] = None
                        self._scan_idx += 1
                        continue
                    if request <= 0:
                        self._scan_idx = _NOT_SCANNING
                        raise SimulationError(
                            f"thread {entry[1].name!r} yielded non-positive "
                            f"wait {request}")
                    k = self._scan_idx
                    del live[k]
                    del keys[k]
                    clock._subscribe(entry[1], request)
                    continue
                if isinstance(request, Event):
                    k = self._scan_idx
                    del live[k]
                    del keys[k]
                    request._subscribe(entry[1])
                    continue
                if isinstance(request, int):  # bool/IntEnum yields
                    if int(request) == 1:
                        entry[3] = None
                        self._scan_idx += 1
                        continue
                    k = self._scan_idx
                    del live[k]
                    del keys[k]
                    clock._subscribe(entry[1], int(request))
                    continue
                self._scan_idx = _NOT_SCANNING
                raise SimulationError(
                    f"thread {entry[1].name!r} yielded unsupported value "
                    f"{request!r}")
            self._scan_idx = _NOT_SCANNING

            if front:
                key_lo = self._key_lo - len(front)
                self._key_lo = key_lo
                new_keys = []
                for entry in front:
                    entry[0] = key_lo
                    new_keys.append(key_lo)
                    key_lo += 1
                keys[0:0] = new_keys
                live[0:0] = front

            # -- phase 4: extra deltas (event notifications made threads
            # runnable; they re-enter at the END of the live list —
            # threaded re-subscription in a later delta lands after
            # every poller)
            if sim._runnable or dirty:
                deltas = 1
                max_deltas = sim.MAX_DELTAS_PER_STEP

                def emit(entry):
                    key = self._key_hi + 1
                    self._key_hi = key
                    entry[0] = key
                    keys.append(key)
                    live.append(entry)

                while sim._runnable or dirty:
                    if dirty:
                        # Update phase (no methods exist: commit only).
                        for sig in dirty:
                            sig._dirty = False
                            nxt = sig._next
                            if nxt != sig._value:
                                sig._value = nxt
                        dirty.clear()
                    runnable = sim._runnable
                    if runnable:
                        deltas += 1
                        if deltas > max_deltas:
                            raise DeltaOverflow(
                                f"timestep at t={sim.now} did not converge "
                                f"after {max_deltas} delta cycles")
                        sim._runnable = []
                        sim._runnable_set.clear()
                        for proc in runnable:
                            if not proc.done:
                                self._dispatch(proc, emit)

            steps += 1
            if max_steps is not None and steps >= max_steps:
                self._settle()
                record_run("compiled")
                return (True, steps)
            if stop_clock is not None and stop_clock.cycles >= stop_cycles:
                self._settle()
                record_run("compiled")
                return (True, steps)
