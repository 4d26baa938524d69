"""Seeded deterministic fault-injection plans.

A :class:`FaultPlan` is a declarative list of fault directives bound to
dotted design paths, applied to a built simulator just before it runs::

    plan = FaultPlan(seed=7)
    plan.drop("chip.link", probability=0.05)
    plan.clock_jitter("tx", amplitude=2, every=13)
    applied = plan.apply(sim)
    sim.run(until=...)
    applied.counters()   # {"chip.link": {"drops": 3, ...}, ...}

Fault classes (the menu the campaign runner draws from):

* **drop** — a push is accepted by the handshake but the message is
  lost, the classic faulty-wire model for an LI channel.
* **duplicate** — a push enqueues the message twice (a replayed
  handshake beat).
* **corrupt** — the payload is transformed at push time; the default
  corrupter flips one random bit of an int (or of a
  :class:`~repro.connections.packet.Flit` payload), the single-bit
  model XOR checksums are guaranteed to detect.
* **stall burst** — a bounded window of random backpressure through the
  channel's :meth:`set_stall` verification hook.
* **clock jitter / drift** — period wobble or cumulative skew on a
  named clock, exercising GALS crossings under realistic clock trees.

Everything is derived from the plan seed through named
``random.Random`` streams (string seeding is deterministic and
independent of ``PYTHONHASHSEED``), and each directive freezes its own
sub-seed at creation time — so removing one directive during shrinking
never changes the behaviour of the survivors.

Zero-cost when off: channels carry ``_faults = None`` and pay one
attribute load per push; clock/stall faults are ordinary kernel threads
that exist only while a plan is applied.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..connections.packet import Flit
from ..design.hierarchy import design_path

__all__ = ["FaultDirective", "FaultPlan", "AppliedFaults", "ChannelFaults",
           "default_corrupter"]

#: Fault kinds that attach to a channel's push path.
_CHANNEL_KINDS = ("drop", "duplicate", "corrupt", "stall_burst")
#: Fault kinds that attach to a clock.
_CLOCK_KINDS = ("clock_jitter", "clock_drift")


@dataclass(frozen=True)
class FaultDirective:
    """One fault, bound to one target, with its own frozen sub-seed."""

    kind: str
    target: str                       # dotted channel path or clock name
    seed: int                         # private seed for this directive
    args: Tuple[Tuple[str, Any], ...]  # sorted (name, value) pairs

    def arg(self, name: str) -> Any:
        for key, value in self.args:
            if key == name:
                return value
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target,
                "seed": self.seed, "args": dict(self.args)}


def default_corrupter(payload: Any, rng: random.Random) -> Any:
    """Flip one random bit of an int payload (single-bit upset model).

    :class:`Flit` payloads are corrupted in place of their ``payload``
    field so the flit keeps routing correctly — the corruption must be
    caught by the end-to-end checksum, not by a router crash.  Non-int
    payloads are returned unchanged (harnesses with richer message types
    pass a custom corrupter).
    """
    if isinstance(payload, Flit):
        flipped = default_corrupter(payload.payload, rng)
        import dataclasses
        return dataclasses.replace(payload, payload=flipped)
    if isinstance(payload, bool) or not isinstance(payload, int):
        return payload
    bit = rng.randrange(max(payload.bit_length(), 8))
    return payload ^ (1 << bit)


class ChannelFaults:
    """Per-channel fault state installed as ``chan._faults``.

    ``on_push(msg)`` returns ``(action, msg)`` with action ``0`` =
    deliver normally, ``1`` = drop, ``2`` = duplicate.  Corruption is
    applied first (a corrupted message can still be dropped), and a
    corruption is only counted when the payload actually changed —
    otherwise a no-op corrupter would inflate the detected-fault budget
    the campaign classifier trusts.
    """

    __slots__ = ("channel", "_drop_p", "_dup_p", "_corrupt_p",
                 "_drop_rng", "_dup_rng", "_corrupt_rng", "_corrupter",
                 "drops", "duplicates", "corruptions")

    def __init__(self, channel):
        self.channel = channel
        self._drop_p = 0.0
        self._dup_p = 0.0
        self._corrupt_p = 0.0
        self._drop_rng: Optional[random.Random] = None
        self._dup_rng: Optional[random.Random] = None
        self._corrupt_rng: Optional[random.Random] = None
        self._corrupter: Callable = default_corrupter
        self.drops = 0
        self.duplicates = 0
        self.corruptions = 0

    def on_push(self, msg: Any) -> Tuple[int, Any]:
        if self._corrupt_p > 0.0 and self._corrupt_rng.random() < self._corrupt_p:
            mutated = self._corrupter(msg, self._corrupt_rng)
            if mutated is not msg and mutated != msg:
                self.corruptions += 1
                msg = mutated
        if self._drop_p > 0.0 and self._drop_rng.random() < self._drop_p:
            self.drops += 1
            return 1, msg
        if self._dup_p > 0.0 and self._dup_rng.random() < self._dup_p:
            self.duplicates += 1
            return 2, msg
        return 0, msg

    def counters(self) -> dict:
        return {"drops": self.drops, "duplicates": self.duplicates,
                "corruptions": self.corruptions}


class AppliedFaults:
    """Handle returned by :meth:`FaultPlan.apply`.

    Maps dotted channel paths to their :class:`ChannelFaults` so the
    campaign classifier can compare observed message loss against the
    injected-fault budget.
    """

    def __init__(self, plan: "FaultPlan", channels: Dict[str, ChannelFaults],
                 clock_targets: List[str]):
        self.plan = plan
        self.channels = channels
        self.clock_targets = clock_targets

    def lossy_events(self) -> int:
        """Injected events that may legitimately change what arrives."""
        return sum(f.drops + f.duplicates + f.corruptions
                   for f in self.channels.values())

    def counters(self) -> dict:
        return {path: f.counters() for path, f in sorted(self.channels.items())}


class FaultPlan:
    """A seeded, shrinkable schedule of fault directives."""

    def __init__(self, seed: int = 0,
                 directives: Optional[List[FaultDirective]] = None,
                 corrupters: Optional[Dict[str, Callable]] = None):
        self.seed = seed
        self.directives: List[FaultDirective] = list(directives or ())
        #: Per-target corrupter overrides (harness-specific payloads).
        self.corrupters: Dict[str, Callable] = dict(corrupters or ())
        self._rng = random.Random(f"faultplan:{seed}")

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def _add(self, kind: str, target: str, **args) -> "FaultPlan":
        directive = FaultDirective(
            kind=kind, target=target,
            seed=self._rng.randrange(2 ** 32),
            args=tuple(sorted(args.items())))
        self.directives.append(directive)
        return self

    def drop(self, target: str, *, probability: float) -> "FaultPlan":
        """Lose each pushed message with the given probability."""
        _check_probability(probability)
        return self._add("drop", target, probability=probability)

    def duplicate(self, target: str, *, probability: float) -> "FaultPlan":
        """Enqueue each pushed message twice with the given probability."""
        _check_probability(probability)
        return self._add("duplicate", target, probability=probability)

    def corrupt(self, target: str, *, probability: float,
                corrupter: Optional[Callable] = None) -> "FaultPlan":
        """Transform each pushed payload with the given probability."""
        _check_probability(probability)
        if corrupter is not None:
            self.corrupters[target] = corrupter
        return self._add("corrupt", target, probability=probability)

    def stall_burst(self, target: str, *, start: int, length: int,
                    probability: float = 0.5) -> "FaultPlan":
        """Random backpressure on the target for ``length`` cycles
        beginning ``start`` cycles in (via the ``set_stall`` hook)."""
        _check_probability(probability)
        if start < 0 or length < 1:
            raise ValueError(
                f"stall burst needs start >= 0 and length >= 1, "
                f"got start={start}, length={length}")
        return self._add("stall_burst", target, start=start, length=length,
                         probability=probability)

    def clock_jitter(self, clock_name: str, *, amplitude: int,
                     every: int = 1) -> "FaultPlan":
        """Random period wobble of up to ±``amplitude`` ticks, re-drawn
        every ``every`` cycles (cycle-to-cycle jitter)."""
        if amplitude < 1 or every < 1:
            raise ValueError("amplitude and every must be >= 1")
        return self._add("clock_jitter", clock_name, amplitude=amplitude,
                         every=every)

    def clock_drift(self, clock_name: str, *, rate: int,
                    every: int = 64) -> "FaultPlan":
        """Cumulative skew: the period shifts by ``rate`` ticks every
        ``every`` cycles, bounded to [nominal/2, nominal*2]."""
        if rate == 0 or every < 1:
            raise ValueError("rate must be nonzero and every >= 1")
        return self._add("clock_drift", clock_name, rate=rate, every=every)

    # ------------------------------------------------------------------
    # introspection / serialization
    # ------------------------------------------------------------------
    def describe(self) -> List[dict]:
        """JSON-able directive list (campaign records embed this)."""
        return [d.to_dict() for d in self.directives]

    def without(self, index: int) -> "FaultPlan":
        """Copy of this plan minus one directive (shrinking step).

        Sub-seeds were frozen at creation, so the surviving directives
        behave identically in the smaller plan.
        """
        directives = [d for i, d in enumerate(self.directives) if i != index]
        return FaultPlan(self.seed, directives=directives,
                         corrupters=dict(self.corrupters))

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, sim) -> AppliedFaults:
        """Install every directive on the built design in ``sim``.

        Channel targets are resolved by dotted design path (unique plain
        names also match); clock targets by clock name.  Injector
        threads (stall bursts, jitter, drift) are registered in
        ``sim._fault_helper_threads`` so the watchdog's deadlock census
        ignores them.
        """
        channels: Dict[str, ChannelFaults] = {}
        clock_targets: List[str] = []
        helpers = getattr(sim, "_fault_helper_threads", None)
        if helpers is None:
            helpers = sim._fault_helper_threads = set()
        for directive in self.directives:
            if directive.kind in _CLOCK_KINDS:
                clock = _resolve_clock(sim, directive.target)
                gen = (_jitter_run(clock, directive)
                       if directive.kind == "clock_jitter"
                       else _drift_run(clock, directive))
                thread = sim.add_thread(
                    gen, clock,
                    name=f"fault.{directive.kind}.{clock.name}")
                helpers.add(id(thread))
                clock_targets.append(directive.target)
                continue
            chan, path = _resolve_channel(sim, directive.target)
            if directive.kind == "stall_burst":
                clock = getattr(chan, "clock", None) or _any_clock(sim)
                thread = sim.add_thread(
                    _stall_burst_run(chan, directive), clock,
                    name=f"fault.stall.{path}")
                helpers.add(id(thread))
                continue
            host = _fault_host(chan, path)
            faults = channels.get(path)
            if faults is None:
                faults = host._faults
                if faults is None:
                    faults = host._faults = ChannelFaults(host)
                channels[path] = faults
            p = directive.arg("probability")
            rng = random.Random(f"fault:{directive.kind}:{directive.seed}")
            if directive.kind == "drop":
                faults._drop_p = p
                faults._drop_rng = rng
            elif directive.kind == "duplicate":
                faults._dup_p = p
                faults._dup_rng = rng
            else:  # corrupt
                faults._corrupt_p = p
                faults._corrupt_rng = rng
                if directive.target in self.corrupters:
                    faults._corrupter = self.corrupters[directive.target]
        return AppliedFaults(self, channels, clock_targets)


def _check_probability(probability: float) -> None:
    if not 0.0 < probability <= 1.0:
        raise ValueError(
            f"fault probability must be in (0,1], got {probability}")


def _resolve_channel(sim, target: str):
    """Find a channel by dotted path (or unique plain name)."""
    design = getattr(sim, "design", None)
    if design is None:
        raise ValueError("fault plans need a simulator with a design "
                         "hierarchy (sim.design)")
    by_name = []
    for inst in design.root.walk():
        for chan in inst.channels:
            path = design_path(chan)
            if path == target:
                return chan, path
            if getattr(chan, "name", None) == target:
                by_name.append((chan, path))
    if len(by_name) == 1:
        return by_name[0]
    if by_name:
        paths = ", ".join(sorted(p for _, p in by_name))
        raise ValueError(f"fault target {target!r} is ambiguous: {paths}")
    raise ValueError(f"fault target {target!r} matches no channel in the "
                     f"design hierarchy")


def _fault_host(chan, path: str):
    """Where the ChannelFaults hook lives: the channel itself, or the
    facade-designated host (e.g. a GalsLink's tx-side buffer)."""
    if hasattr(chan, "_faults"):
        return chan
    host = getattr(chan, "fault_host", None)
    if host is not None and hasattr(host, "_faults"):
        return host
    raise ValueError(f"channel {path!r} ({type(chan).__name__}) does not "
                     f"support push-fault injection")


def _resolve_clock(sim, name: str):
    for clock in sim._clocks:
        if clock.name == name:
            return clock
    known = ", ".join(sorted(c.name for c in sim._clocks))
    raise ValueError(f"fault target clock {name!r} not found "
                     f"(clocks: {known})")


def _any_clock(sim):
    if not sim._clocks:
        raise ValueError("simulator has no clocks to schedule a fault on")
    return sim._clocks[0]


# ----------------------------------------------------------------------
# injector threads
# ----------------------------------------------------------------------
def _stall_burst_run(chan, directive: FaultDirective) -> Generator:
    """Finite injector: stall window [start, start+length), then a full
    reset through ``set_stall(0.0)``."""
    start = directive.arg("start")
    if start:
        yield start
    chan.set_stall(directive.arg("probability"), seed=directive.seed)
    yield directive.arg("length")
    chan.set_stall(0.0)


def _jitter_run(clock, directive: FaultDirective) -> Generator:
    """Infinite injector: re-draw the period in [nominal - A, nominal + A]
    every ``every`` cycles."""
    nominal = clock.period
    amplitude = directive.arg("amplitude")
    every = directive.arg("every")
    rng = random.Random(f"fault:clock_jitter:{directive.seed}")
    while True:
        clock.set_period(max(1, nominal + rng.randint(-amplitude, amplitude)))
        yield every


def _drift_run(clock, directive: FaultDirective) -> Generator:
    """Infinite injector: cumulative period skew, bounded to
    [nominal/2, nominal*2] so the sim cannot run away."""
    nominal = clock.period
    rate = directive.arg("rate")
    every = directive.arg("every")
    lo, hi = max(1, nominal // 2), nominal * 2
    period = nominal
    while True:
        yield every
        period = min(hi, max(lo, period + rate))
        clock.set_period(period)
