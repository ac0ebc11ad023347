"""Where the benchmark times the program: one table of public entry points.

:func:`install_spans` wraps each entry point in a span named after the
layer metric it feeds (``<name>_s`` is the span's inclusive total and
``<name>_n`` its count).  :class:`CycleClock` is the only probe the
untraced run keeps: it takes one timestamp per sensing cycle or service
tick, which is what ``cycle_p50_s`` and ``cycle_tail_s`` need.
"""

from __future__ import annotations

import os
import time
from typing import Any

from spans import Patches, SpanRecorder, spanned


class Observed:
    """Quantities the span wrappers read from calls' arguments and results."""

    def __init__(self) -> None:
        self.epochs = 0
        self.checkpoint_bytes = 0


def _layer_classes() -> list[type]:
    from repro.nn.layers import Layer

    found: list[type] = []
    pending = list(Layer.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: cls.__name__)


def _forward_name(cls_name: str):
    train = f"nn.{cls_name}.forward_train"
    infer = f"nn.{cls_name}.forward_infer"

    def name(args: tuple, kwargs: dict) -> str:
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return train if training else infer

    return name


def install_spans(patches: Patches, recorder: SpanRecorder,
                  observed: Observed) -> None:
    """Wrap every probed entry point of the program in a span."""
    import repro.eval.persistence as persistence
    import repro.eval.runner as runner
    from repro.core.committee import Committee
    from repro.core.cqc import CrowdQualityControl
    from repro.core.guards import ModelGuard, SnapshotRing
    from repro.core.ipd import IncentivePolicyDesigner
    from repro.core.mic import MachineIntelligenceCalibrator
    from repro.core.qss import QuerySetSelector
    from repro.core.system import CrowdLearnSystem
    from repro.crowd.platform import CrowdsourcingPlatform
    from repro.eval.journal import CycleJournal
    from repro.nn.trainer import Trainer
    from repro.serve.deployment import Deployment
    from repro.serve.pool import SharedCrowdPool
    from repro.serve.service import CrowdLearnService
    from repro.vision.gradcam import GradCAM

    def count_epochs(args: tuple, kwargs: dict, history: Any) -> None:
        observed.epochs += history.epochs

    def checkpoint_size(args: tuple, kwargs: dict, path: Any) -> None:
        observed.checkpoint_bytes += os.path.getsize(path)

    table: list[tuple[Any, str, str, Any]] = [
        (runner, "build_dataset", "setup.dataset", None),
        (Committee, "fit", "setup.committee_fit", None),
        (runner, "run_pilot_study", "setup.pilot", None),
        (CrowdLearnService, "submit_event", "serve.submit", None),
        (CrowdLearnService, "step", "serve.step", None),
        (Deployment, "run_next_cycle", "serve.cycle", None),
        (SharedCrowdPool, "admit", "serve.admit", None),
        (CrowdLearnSystem, "run_cycle", "system.cycle", None),
        (Committee, "expert_votes", "committee.votes", None),
        (Committee, "retrain", "committee.retrain", None),
        (QuerySetSelector, "select", "qss.select", None),
        (IncentivePolicyDesigner, "price_query", "ipd.price", None),
        (CrowdsourcingPlatform, "post_query", "crowd.post", None),
        (CrowdQualityControl, "truthful_labels", "cqc.labels", None),
        (CrowdQualityControl, "label_distributions", "cqc.labels", None),
        (MachineIntelligenceCalibrator, "update_weights", "mic.reweight", None),
        (MachineIntelligenceCalibrator, "retrain_experts", "mic.retrain", None),
        (ModelGuard, "guarded_retrain", "guards.retrain", None),
        (ModelGuard, "holdout_accuracy", "guards.holdout", None),
        (SnapshotRing, "push", "guards.snapshot", None),
        (SnapshotRing, "restore_latest", "guards.rollback", None),
        (Trainer, "fit", "nn.fit", count_epochs),
        (GradCAM, "heatmaps", "ddm.gradcam", None),
        (GradCAM, "heatmap_mass", "ddm.gradcam", None),
        (GradCAM, "heatmap_masses", "ddm.gradcam", None),
        (persistence, "save_checkpoint", "persist.checkpoint", checkpoint_size),
        (CycleJournal, "append", "journal.append", None),
        (CycleJournal, "rotate", "journal.rotate", None),
    ]
    for cls in _layer_classes():
        own = vars(cls)
        if "forward" in own:
            table.append((cls, "forward", _forward_name(cls.__name__), None))
        if "backward" in own:
            table.append((cls, "backward", f"nn.{cls.__name__}.backward", None))
    for owner, attr, name, after in table:
        patches.replace(
            owner, attr,
            lambda fn, name=name, after=after: spanned(recorder, fn, name, after),
        )


class CycleClock:
    """Wall time of each sensing cycle, taken from outside the loop.

    For a standalone deployment a cycle runs from one ``run_cycle`` call
    to the next (so a cycle's checkpoint and journal rotation count
    toward it) and the last one ends when ``run`` returns.  For the
    service, a cycle is one ``step`` that ran a tick.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ticks: list[float] = []

    def reset(self) -> None:
        self.starts.clear()
        self.ticks.clear()

    def install(self, patches: Patches) -> None:
        from repro.core.system import CrowdLearnSystem
        from repro.serve.service import CrowdLearnService

        starts, ticks = self.starts, self.ticks
        clock = time.perf_counter

        def run_cycle(fn):
            def wrapper(*args, **kwargs):
                starts.append(clock())
                return fn(*args, **kwargs)
            return wrapper

        def step(fn):
            def wrapper(*args, **kwargs):
                started = clock()
                event_id = fn(*args, **kwargs)
                if event_id is not None:
                    ticks.append(clock() - started)
                return event_id
            return wrapper

        patches.replace(CrowdLearnSystem, "run_cycle", run_cycle)
        patches.replace(CrowdLearnService, "step", step)

    def cycle_seconds(self, run_end: float) -> list[float]:
        """Per-cycle wall seconds of the standalone run that ended at ``run_end``."""
        bounds = self.starts + [run_end]
        return [b - a for a, b in zip(bounds, bounds[1:])]
