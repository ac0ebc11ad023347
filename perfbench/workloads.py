"""The three workloads: how each sets up, runs one deployment, and checks it.

``paper-cold`` and ``paper-warm-durable`` are one paper-scale deployment
(960 images, 40 cycles x 10 images, full-size committee) with the retrain
and persistence settings spelled out below.  ``serve-surge`` is the
``repro.serve`` load generator's surge: 12 fast-scale events over one
metered fair-share crowd sized at half their demand, plus the imagery
burst, stepped until the service drains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path
from typing import Any

import numpy as np

#: Explicit configs; everything not named keeps the paper's default.
PAPER_CONFIGS = {
    "paper-cold": dict(mic_warm_start=False, guards_enabled=True,
                       cache_enabled=True),
    "paper-warm-durable": dict(mic_warm_start=True, guards_enabled=True,
                               cache_enabled=True),
}
SERVE_EVENTS = 12
#: Set-ups per run for serve-surge (cheap at fast scale).  A paper-scale
#: set-up trains the full committee, so paper workloads set up once.
SERVE_SETUPS = 3


@dataclasses.dataclass
class Deployed:
    """What one timed deployment (or one service drain) produced."""

    cycle_s: list[float]
    wall_s: float
    digest: str
    y_true: np.ndarray
    y_pred: np.ndarray
    cost_usd: float
    delays: list[float]
    posts: int
    dropped: int
    fallbacks: int
    retries: int
    cycles: int
    events: int
    quarantined: int
    requested: int
    shed: int
    deferred: int
    cache: dict[str, int]
    systems: list[Any]
    failures: list[str]


def outcome_digest(outcomes) -> str:
    """sha256 over every outcome's y_true / y_pred / scores, in order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(np.ascontiguousarray(outcome.y_true(), np.int64).tobytes())
        digest.update(np.ascontiguousarray(outcome.y_pred(), np.int64).tobytes())
        digest.update(
            np.ascontiguousarray(outcome.scores(), np.float64).tobytes()
        )
    return digest.hexdigest()


def _books(ledger, label: str) -> list[str]:
    gap = ledger.total_charged - ledger.total_refunded - ledger.spent
    if abs(gap) > 1e-6:
        return [f"{label}: charged - refunded != spent (gap {gap:.6f} cents)"]
    return []


def _tally(outcomes) -> dict[str, Any]:
    delays, posts, dropped, fallbacks, retries = [], 0, 0, 0, 0
    for outcome in outcomes:
        for cycle in outcome.cycles:
            if cycle.query_indices.size:
                delays.append(cycle.crowd_delay)
            posts += int(cycle.query_indices.size)
            dropped += cycle.resilience.dropped_queries
            fallbacks += cycle.resilience.fallbacks
            retries += cycle.resilience.retries
    return dict(
        y_true=np.concatenate([o.y_true() for o in outcomes]),
        y_pred=np.concatenate([o.y_pred() for o in outcomes]),
        delays=delays,
        posts=posts + dropped + fallbacks,
        dropped=dropped,
        fallbacks=fallbacks,
        retries=retries,
        cycles=sum(len(o.cycles) for o in outcomes),
    )


class Timed:
    """The timed region: wall seconds, and the traced phase when tracing."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.started = self.ended = 0.0

    def __enter__(self) -> "Timed":
        if self.recorder is not None:
            self.recorder.begin_phase("run")
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.ended = time.perf_counter()
        if self.recorder is not None:
            self.recorder.end_phase()

    @property
    def seconds(self) -> float:
        return self.ended - self.started


class PaperWorkload:
    """One paper-scale deployment per timed run."""

    setups = 1

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.durable = name == "paper-warm-durable"
        self.workdir = workdir
        self.overrides = PAPER_CONFIGS[name]
        self.setup = None
        self._next = None

    def set_up(self) -> None:
        from repro.eval.runner import build_crowdlearn, prepare

        self.setup = self._next = None  # never hold two worlds (peak_rss_mb)
        setup = prepare(seed=self.seed)
        config = dataclasses.replace(setup.config, **self.overrides)
        self.setup = setup
        self._next = build_crowdlearn(setup, config=config)

    def deploy(self, clock, recorder=None) -> Deployed:
        from repro.eval.journal import CycleJournal
        from repro.eval.persistence import load_checkpoint
        from repro.eval.runner import build_crowdlearn

        setup = self.setup
        system = self._next
        if system is None:
            config = dataclasses.replace(setup.config, **self.overrides)
            system = build_crowdlearn(setup, config=config)
        self._next = None
        stream = setup.make_stream("crowdlearn")
        checkpoint = journal = None
        if self.durable:
            self.workdir.mkdir(parents=True, exist_ok=True)
            checkpoint = self.workdir / "deployment.ckpt"
            journal = CycleJournal.create(
                self.workdir / "cycle.journal", fsync="always"
            )
        clock.reset()
        try:
            with Timed(recorder) as timed:
                outcome = system.run(
                    stream, checkpoint_path=checkpoint, checkpoint_every=1,
                    journal=journal,
                )
        finally:
            if journal is not None:
                journal.close()
        failures = _books(system.ledger, self.name)
        if len(outcome.cycles) != len(stream):
            failures.append(
                f"{len(outcome.cycles)} of {len(stream)} cycles completed"
            )
        if checkpoint is not None:
            _, _, saved, next_cycle = load_checkpoint(checkpoint)
            if next_cycle != len(stream) or (
                outcome_digest([saved]) != outcome_digest([outcome])
            ):
                failures.append("final checkpoint does not hold the run")
            if journal.records_written == 0:
                failures.append("journal recorded nothing")
        tally = _tally([outcome])
        cycle_s = clock.cycle_seconds(timed.ended)
        if len(cycle_s) != len(outcome.cycles):
            failures.append("cycle clock missed cycles")
        return Deployed(
            cycle_s=cycle_s,
            wall_s=timed.seconds,
            digest=outcome_digest([outcome]),
            cost_usd=system.ledger.spent / 100.0,
            events=1,
            quarantined=0,
            requested=tally["posts"],
            shed=0,
            deferred=0,
            cache=system.cache.stats() if system.cache is not None else {},
            systems=[system],
            failures=failures,
            **tally,
        )


class ServeWorkload:
    """One drain of the surge fleet per timed run."""

    setups = SERVE_SETUPS

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.setup = None
        self._next = None

    def set_up(self) -> None:
        from repro.eval.runner import prepare
        from repro.serve.loadgen import build_service

        self.setup = self._next = None  # never hold two fleets (peak_rss_mb)
        self.setup = prepare(seed=self.seed, fast=True)
        self._next = build_service(self.setup, n_events=SERVE_EVENTS)

    def deploy(self, clock, recorder=None) -> Deployed:
        from repro.serve.loadgen import build_service, drive

        service = self._next
        if service is None:
            service = build_service(self.setup, n_events=SERVE_EVENTS)
        self._next = None
        clock.reset()
        try:
            with Timed(recorder) as timed:
                drive(service)
        finally:
            service.close()
        deployments = list(service.registry.all())
        outcomes = [d.outcome for d in deployments]
        failures: list[str] = []
        # A quarantined event is the health ladder's designed response to
        # failing ticks (guard rollbacks count as failures): it is counted
        # as a failed event in completed_frac, not as a wrong output.
        quarantined = service.quarantined_events()
        undrained = [d.event_id for d in deployments
                     if not d.done and d.event_id not in quarantined]
        if undrained:
            failures.append(f"events neither drained nor quarantined: {undrained}")
        cycles = sum(len(o.cycles) for o in outcomes)
        if not service.ticks == cycles == len(clock.ticks):
            failures.append(
                f"ticks {service.ticks} / timed {len(clock.ticks)} / "
                f"cycles {cycles} disagree"
            )
        for d in deployments:
            failures += _books(d.system.ledger, d.event_id)
            if not service.pool.ledger(d.event_id).conserved():
                failures.append(f"{d.event_id}: pool ledger not conserved")
        if not service.pool.conserved():
            failures.append("pool conservation violated")
        totals = service.pool.totals()
        cache = service.cache.stats() if service.cache is not None else {}
        return Deployed(
            cycle_s=list(clock.ticks),
            wall_s=timed.seconds,
            digest=service.combined_digest(),
            cost_usd=sum(d.system.ledger.spent for d in deployments) / 100.0,
            events=len(deployments),
            quarantined=len(quarantined),
            requested=int(totals["requested"]),
            shed=int(totals["shed"]),
            deferred=int(totals["deferred"]),
            cache=cache,
            systems=[d.system for d in deployments],
            failures=failures,
            **_tally(outcomes),
        )


def make(name: str, seed: int, workdir: Path):
    if name == "serve-surge":
        return ServeWorkload(name, seed, workdir)
    return PaperWorkload(name, seed, workdir)
