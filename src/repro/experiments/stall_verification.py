"""Section 4 verification claim: stall injection finds corner cases.

"Leveraging the advantages of LI design, we add an option to inject
random stalls into any channel ... Such testing assists in quickly
covering complex corner case scenarios that otherwise would require
significant dedicated test development effort."

The experiment plants a classic latency-insensitivity bug — a forwarding
unit that drops a message after repeated backpressure (a missing skid
buffer) — and measures how quickly randomized stall campaigns expose it.
Without stalls the consumer is always ready, backpressure never happens,
and the buggy design passes every test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..connections import Buffer, In, Out
from ..design.hierarchy import component_scope
from ..kernel import Simulator
from .. import registry
from ..sweep.point import SweepPoint

__all__ = ["LeakyForwarder", "build_stall_testbench", "stall_campaign",
           "CampaignResult", "format_campaign", "sweep_space",
           "run_sweep_point", "campaigns_from_sweep", "summarize_sweep"]

#: Defaults shared by the serial campaign and the sweep space, so both
#: enumerate exactly the same (probability, seed) grid.
DEFAULT_PROBABILITIES = (0.0, 0.1, 0.3, 0.5)
DEFAULT_TRIALS = 10
DEFAULT_BASE_SEED = 100


class LeakyForwarder:
    """A forwarding unit with a seeded backpressure bug.

    With ``bug=True`` the unit drops the in-flight message after two
    consecutive failed pushes — exactly the kind of timing-interaction
    defect that only appears when the downstream stalls.
    """

    def __init__(self, sim, clock, *, bug: bool = True, name: str = "fwd"):
        self.bug = bug
        with component_scope(sim, name, kind="LeakyForwarder", obj=self,
                             clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.in_port: In = In(name="in")
            self.out_port: Out = Out(name="out")
            self.forwarded = 0
            self.dropped = 0
            sim.add_thread(self._run(), clock, name="ctl")

    def _run(self) -> Generator:
        while True:
            msg = yield from self.in_port.pop()
            fails = 0
            dropped = False
            while not self.out_port.push_nb(msg):
                fails += 1
                if self.bug and fails >= 2:
                    self.dropped += 1  # the bug: message silently lost
                    dropped = True
                    break
                yield
            if not dropped:
                self.forwarded += 1
            yield


@dataclass(frozen=True)
class CampaignResult:
    stall_probability: float
    trials: int
    detections: int
    first_detection_trial: int  # -1 if never detected

    @property
    def detection_rate(self) -> float:
        return self.detections / self.trials


def build_stall_testbench(stall_probability: float = 0.3, seed: int = 100, *,
                          n_msgs: int = 60, bug: bool = True):
    """Construct (without running) one stall-injection trial.

    Returns ``(sim, received)``: run the simulator, then compare
    ``received`` against ``list(range(n_msgs))`` to detect the bug.
    """
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    up = Buffer(sim, clk, capacity=2, name="up")
    down = Buffer(sim, clk, capacity=2, name="down")
    if stall_probability > 0:
        down.set_stall(stall_probability, seed=seed)
    dut = LeakyForwarder(sim, clk, bug=bug)
    dut.in_port.bind(up)
    dut.out_port.bind(down)
    received: List[int] = []

    def producer(src):
        for i in range(n_msgs):
            yield from src.push(i)

    def consumer(dst):
        # Fixed test length: LI-correct designs deliver everything.
        for _ in range(n_msgs * 40):
            ok, msg = dst.pop_nb()
            if ok:
                received.append(msg)
            yield

    with component_scope(sim, "src", kind="StreamSource", clock=clk):
        sim.add_thread(producer(Out(up, name="out")), clk, name="ctl")
    with component_scope(sim, "snk", kind="StreamSink", clock=clk):
        sim.add_thread(consumer(In(down, name="in")), clk, name="ctl")
    return sim, received


def _one_trial(stall_probability: float, seed: int, *, n_msgs: int = 60,
               bug: bool = True) -> bool:
    """Returns True if the trial *detected* the bug (output mismatch)."""
    sim, received = build_stall_testbench(stall_probability, seed,
                                          n_msgs=n_msgs, bug=bug)
    sim.run(until=n_msgs * 1200)
    return received != list(range(n_msgs))


def stall_campaign(stall_probability: float, *, trials: int = 20,
                   bug: bool = True, base_seed: int = 100) -> CampaignResult:
    """Run randomized trials at one stall probability."""
    detections = 0
    first = -1
    for t in range(trials):
        if _one_trial(stall_probability, base_seed + t, bug=bug):
            detections += 1
            if first < 0:
                first = t + 1
    return CampaignResult(stall_probability, trials, detections, first)


# ----------------------------------------------------------------------
# sweep integration (repro.sweep): one point per (probability, trial)
# ----------------------------------------------------------------------
def sweep_space(*, probabilities=DEFAULT_PROBABILITIES,
                trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_BASE_SEED,
                n_msgs: int = 60, bug: bool = True) -> List[SweepPoint]:
    """Enumerate the stall campaign as independent seeded trials.

    ``seed`` is the campaign base seed; trial ``t`` runs with
    ``seed + t`` at every probability — the exact grid
    :func:`stall_campaign` walks serially.
    """
    return [
        SweepPoint("stall_verification",
                   {"stall_probability": p, "trial": t,
                    "n_msgs": n_msgs, "bug": bug},
                   seed=seed + t)
        for p in probabilities
        for t in range(trials)
    ]


def run_sweep_point(params: dict, seed: int) -> dict:
    """Execute one trial; the sweep registry's point runner."""
    detected = _one_trial(params["stall_probability"], seed,
                          n_msgs=params["n_msgs"], bug=params["bug"])
    return {"stall_probability": params["stall_probability"],
            "trial": params["trial"], "seed": seed, "detected": detected}


def campaigns_from_sweep(results: List[dict]) -> List[CampaignResult]:
    """Fold per-trial sweep records back into per-probability campaigns.

    Records may arrive in any order; trials are re-sorted so the
    ``first_detection_trial`` statistic matches a serial campaign.
    """
    by_p: dict = {}
    for rec in results:
        by_p.setdefault(rec["stall_probability"], []).append(rec)
    campaigns = []
    for p in sorted(by_p):
        trials = sorted(by_p[p], key=lambda r: r["trial"])
        detections = sum(1 for r in trials if r["detected"])
        first = next((r["trial"] + 1 for r in trials if r["detected"]), -1)
        campaigns.append(CampaignResult(p, len(trials), detections, first))
    return campaigns


def summarize_sweep(results: List[dict]) -> str:
    return format_campaign(campaigns_from_sweep(results))


def format_campaign(results: List[CampaignResult]) -> str:
    lines = ["Stall-injection bug hunting (seeded backpressure-drop bug)",
             f"{'stall p':>8} {'trials':>7} {'detections':>11} "
             f"{'first hit':>10}"]
    for r in results:
        first = str(r.first_detection_trial) if r.first_detection_trial > 0 \
            else "never"
        lines.append(f"{r.stall_probability:>8.2f} {r.trials:>7} "
                     f"{r.detections:>11} {first:>10}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# registry spec (see repro.registry / docs/REGISTRY.md)
# ----------------------------------------------------------------------
def _cli_runner(params: dict, seed) -> List[CampaignResult]:
    base_seed = seed if seed is not None else DEFAULT_BASE_SEED
    return [stall_campaign(p, trials=10, base_seed=base_seed)
            for p in DEFAULT_PROBABILITIES]


def _cli_design():
    """One stall-injection trial around the LeakyForwarder DUT."""
    sim, _received = build_stall_testbench(0.3, 100)
    return sim


registry.register(registry.ExperimentSpec(
    name="stalls",
    summary="4: stall-injection bug hunting",
    runner=_cli_runner,
    formatter=format_campaign,
    design=_cli_design,
    sweep=registry.SweepSpec(
        name="stall_verification",
        help="randomized stall-injection trials "
             "(4 probabilities x 10 seeds)",
        space=sweep_space,
        runner=run_sweep_point,
        summarize=summarize_sweep,
    ),
    compiled=True,
    order=70,
))
