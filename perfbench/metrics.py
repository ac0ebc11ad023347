"""Every metric the benchmark reports, in one table.

``BENCHMARK.json`` lists the same names, units and directions; ``run.py``
refuses to run when the two drift apart.  Each per-layer metric names the
module it measures and the end-to-end metric it should move, on which
workload (``metric@workload``) — written down before any optimisation
claims to move it.
"""

from __future__ import annotations

from typing import NamedTuple

#: The workloads BENCHMARK.json lists, which every measured run covers.
WORKLOADS = ("paper-warm-durable", "serve-surge")
#: Runnable by hand, left out of BENCHMARK.json: a paper-scale run costs
#: 45-60 s (25-35 s of it the committee fit in set-up), and three
#: workloads' worth of runs does not fit the time allowed for one round of
#: measurement.  Its layers (nn, core.guards, core.mic, models) also
#: dominate serve-surge, whose every tick is a cold guarded refit.
BY_HAND = ("paper-cold",)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    module: str
    moves: tuple[str, ...]


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "prepare + system build (paper), or prepare + service build "
             "with event submission (serve); median of the run's set-ups"),
    EndToEnd("cycles_per_s", "1/s", "higher", 0.25,
             "sensing cycles (serve: service ticks) per second of timed run"),
    EndToEnd("cycle_p50_s", "s", "lower", 0.25,
             "median wall time per sensing cycle (serve: per tick)"),
    EndToEnd("cycle_tail_s", "s", "lower", 0.25,
             "highest ladder percentile with >= 10 cycles beyond it, per "
             "deployment; median over the run's deployments"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident set size of the benchmark process"),
    EndToEnd("macro_f1", "ratio", "higher", 0.25,
             "macro-F1 of final labels over every cycle (serve: every event)"),
    EndToEnd("crowd_cost_usd", "USD", "lower", 0.25,
             "crowd spend of one deployment (serve: the whole fleet)"),
    EndToEnd("crowd_delay_s", "s", "lower", 0.25,
             "mean virtual crowd delay over cycles that queried the crowd"),
    EndToEnd("admitted_frac", "ratio", "higher", 0.15,
             "1 - shed_frac: crowd queries admitted / queries requested"),
    EndToEnd("completed_frac", "ratio", "higher", 0.05,
             "1 - failed_frac: posts, cycles and events that did not fail / "
             "attempted"),
)

_ALL = ("paper-cold", "paper-warm-durable", "serve-surge")
_WARM = ("paper-warm-durable",)
_PAPER = ("paper-cold", "paper-warm-durable")
_SERVE = ("serve-surge",)


def _moves(metric: str, workloads: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{metric}@{w}" for w in workloads)


def _layer(name, unit, better, module, *moves) -> PerLayer:
    return PerLayer(name, unit, better, module,
                    tuple(m for group in moves for m in group))


#: Layer classes whose forward/backward passes are listed one by one: the
#: ones the committee's CNN experts and BoVW head are built from.  Every
#: layer class is timed; a class no listed workload runs (the fused conv
#: kernels, off by default) would only ever report 0 and shows up in the
#: report's ``unlisted_spans`` instead.
NN_LAYERS = ("Conv2D", "ReLU", "MaxPool2D", "Flatten", "Dense", "Dropout")

#: Top-level ``CrowdLearnSystem`` attributes whose pickled size is reported.
SYSTEM_PARTS = ("committee", "guards", "platform", "mic", "replay_pool",
                "cqc", "ipd", "qss", "ledger", "cache", "scheduler",
                "telemetry", "rng", "config", "resilience", "journal",
                "event_id", "cycle_query_cap", "_straggler_queries")

#: Module each span-name prefix belongs to (for self-time attribution).
MODULES = {
    "setup.": "eval.runner",
    "system.": "core.system",
    "nn.": "nn",
    "ddm.": "models",
    "guards.": "core.guards",
    "mic.": "core.mic",
    "committee.": "core.committee",
    "qss.": "core.qss",
    "ipd.": "core.ipd",
    "crowd.": "crowd",
    "cqc.": "core.cqc",
    "persist.": "eval.persistence",
    "journal.": "eval.journal",
    "serve.": "serve",
}
SELF_MODULES = tuple(m for m in dict.fromkeys(MODULES.values())
                     if m != "eval.runner")

_SETUP = _moves("setup_s", _ALL)
_NN = _moves("cycles_per_s", ("paper-cold", "serve-surge", "paper-warm-durable"))

PER_LAYER = (
    # eval.runner: the set-up that setup_s times.
    _layer("setup.dataset_s", "s", "lower", "eval.runner", _SETUP),
    _layer("setup.committee_fit_s", "s", "lower", "eval.runner", _SETUP),
    _layer("setup.pilot_s", "s", "lower", "eval.runner", _SETUP),
    # nn: trainer and per-layer passes.
    _layer("nn.fit_s", "s", "lower", "nn", _NN),
    _layer("nn.epochs_n", "count", "lower", "nn", _NN),
    *(
        _layer(f"nn.{cls}.{kind}_s", "s", "lower", "nn", _NN)
        for cls in NN_LAYERS
        for kind in ("forward_infer", "forward_train", "backward")
    ),
    # models / vision.gradcam.
    _layer("ddm.gradcam_s", "s", "lower", "models", _NN),
    _layer("ddm.gradcam_n", "count", "lower", "models", _NN),
    # core.guards.
    *(
        _layer(name, unit, better, "core.guards",
               _moves("cycles_per_s", _PAPER + _SERVE))
        for name, unit, better in (
            ("guards.retrain_s", "s", "lower"),
            ("guards.holdout_s", "s", "lower"),
            ("guards.holdout_n", "count", "lower"),
            ("guards.snapshot_s", "s", "lower"),
            ("guards.rollbacks_n", "count", "lower"),
            ("guards.retrain_fit_ratio", "ratio", "lower"),
        )
    ),
    # core.mic.
    _layer("mic.retrain_s", "s", "lower", "core.mic",
           _moves("cycle_tail_s", _WARM)),
    _layer("mic.reweight_s", "s", "lower", "core.mic",
           _moves("cycle_tail_s", _WARM)),
    _layer("mic.warm_retrains_n", "count", "higher", "core.mic",
           _moves("cycle_tail_s", _WARM)),
    _layer("mic.full_refits_n", "count", "lower", "core.mic",
           _moves("cycle_tail_s", _WARM)),
    # core.committee / core.cache.
    _layer("committee.votes_s", "s", "lower", "core.committee",
           _moves("cycle_p50_s", _SERVE)),
    _layer("committee.retrain_s", "s", "lower", "core.committee",
           _moves("cycles_per_s", _PAPER + _SERVE)),
    _layer("cache.prediction_hit_ratio", "ratio", "higher", "core.cache",
           _moves("cycle_p50_s", _SERVE)),
    _layer("cache.prediction_hits_n", "count", "higher", "core.cache",
           _moves("cycle_p50_s", _SERVE)),
    _layer("cache.prediction_lookups_n", "count", "lower", "core.cache",
           _moves("cycle_p50_s", _SERVE)),
    _layer("cache.feature_hit_ratio", "ratio", "higher", "core.cache",
           _moves("cycle_p50_s", _SERVE)),
    _layer("cache.feature_hits_n", "count", "higher", "core.cache",
           _moves("cycle_p50_s", _SERVE)),
    _layer("cache.feature_lookups_n", "count", "lower", "core.cache",
           _moves("cycle_p50_s", _SERVE)),
    # The crowd-facing stages.
    _layer("qss.select_s", "s", "lower", "core.qss",
           _moves("cycles_per_s", _SERVE)),
    _layer("ipd.price_s", "s", "lower", "core.ipd",
           _moves("cycles_per_s", _SERVE)),
    _layer("crowd.post_s", "s", "lower", "crowd",
           _moves("cycles_per_s", _SERVE)),
    _layer("crowd.posts_n", "count", "lower", "crowd",
           _moves("cycles_per_s", _SERVE)),
    _layer("crowd.retries_n", "count", "lower", "crowd",
           _moves("cycles_per_s", _SERVE)),
    _layer("cqc.labels_s", "s", "lower", "core.cqc",
           _moves("cycles_per_s", _SERVE)),
    # eval.persistence.
    *(
        _layer(name, unit, "lower", "eval.persistence",
               _moves("cycles_per_s", _WARM), _moves("cycle_p50_s", _WARM))
        for name, unit in (
            ("persist.checkpoint_s", "s"),
            ("persist.checkpoint_n", "count"),
            ("persist.checkpoint_mb", "MB"),
            *((f"persist.part.{attr}_mb", "MB") for attr in SYSTEM_PARTS),
        )
    ),
    # eval.journal.
    _layer("journal.append_s", "s", "lower", "eval.journal",
           _moves("cycles_per_s", _WARM)),
    _layer("journal.records_n", "count", "lower", "eval.journal",
           _moves("cycles_per_s", _WARM)),
    _layer("journal.rotate_s", "s", "lower", "eval.journal",
           _moves("cycles_per_s", _WARM)),
    # serve.
    *(
        _layer(name, unit, "lower", "serve", _moves("cycles_per_s", _SERVE))
        for name, unit in (
            ("serve.step_s", "s"),
            ("serve.cycle_s", "s"),
            ("serve.overhead_s", "s"),
            ("serve.admit_s", "s"),
            ("serve.deferred_n", "count"),
            ("serve.quarantined_n", "count"),
        )
    ),
    _layer("serve.submit_s", "s", "lower", "serve",
           _moves("setup_s", _SERVE)),
    # Ratios behind admitted_frac and completed_frac, with their bases.
    _layer("shed_frac", "ratio", "lower", "serve",
           _moves("admitted_frac", _SERVE)),
    _layer("shed_n", "count", "lower", "serve",
           _moves("admitted_frac", _SERVE)),
    _layer("requested_n", "count", "higher", "serve",
           _moves("admitted_frac", _SERVE)),
    _layer("failed_frac", "ratio", "lower", "core.resilience",
           _moves("completed_frac", _ALL)),
    _layer("failed_n", "count", "lower", "core.resilience",
           _moves("completed_frac", _ALL)),
    _layer("attempted_n", "count", "higher", "core.resilience",
           _moves("completed_frac", _ALL)),
    # Attribution of the traced run's wall time.
    *(
        _layer(f"self.{module}_s", "s", "lower", module,
               _moves("cycles_per_s", _ALL))
        for module in SELF_MODULES
    ),
    _layer("unattributed_s", "s", "lower", "perfbench",
           _moves("cycles_per_s", _ALL)),
    _layer("traced_wall_s", "s", "lower", "perfbench",
           _moves("cycles_per_s", _ALL)),
    _layer("tracing_overhead_s", "s", "lower", "perfbench", ()),
)
