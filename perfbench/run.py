#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-surge --seed 0 --seconds 5 --trace 0

``--trace 0`` sets up (several times where that is cheap), then runs whole
deployments until ``--seconds`` of them have been timed, and reports the
end-to-end metrics.  ``--trace 1`` sets up once with spans on, runs one
deployment without spans and one with, checks both produce the same
outcome digest, and reports the per-layer metrics.  Every run checks its
outputs.  Human-readable lines come first; the last line of standard
output is the JSON result.  A full report (and, when tracing, every span)
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS libraries read these once, at import.  One thread: on a small
#: shared machine the program's small matrix products gain nothing from a
#: second BLAS thread, and two spinning threads make timings swing with
#: whatever else runs beside them.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

#: Percentiles cycle_tail_s may report; the highest one that leaves at
#: least TAIL_BEYOND samples above it is used.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from metrics import BY_HAND, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + BY_HAND)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_manifest() -> None:
    """Fail loudly if BENCHMARK.json and metrics.py name different metrics."""
    from metrics import END_TO_END, PER_LAYER, WORKLOADS

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    manifest = json.loads(path.read_text())
    pairs = (
        ("workloads", [w["name"] for w in manifest["workloads"]],
         list(WORKLOADS)),
        ("end_to_end",
         [(m["name"], m["unit"], m["better"], m["bound"])
          for m in manifest["end_to_end"]],
         [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]),
        ("per_layer",
         [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]],
         [(m.name, m.unit, m.better) for m in PER_LAYER]),
    )
    for key, listed, defined in pairs:
        if listed != defined:
            raise SystemExit(
                f"perfbench: BENCHMARK.json {key} differ from perfbench/metrics.py"
            )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the median when there are too few)."""
    import numpy as np

    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.percentile(values, 50.0))


def _failed(d) -> tuple[int, int]:
    """``(failed, attempted)`` over posts, cycles and events."""
    return (d.dropped + d.fallbacks + d.quarantined,
            d.posts + d.cycles + d.events)


def _end_to_end(setup_s: list[float], runs) -> tuple[dict, dict]:
    from repro.metrics import macro_f1

    first = runs[0]
    all_cycles = [s for r in runs for s in r.cycle_s]
    tails = [tail(r.cycle_s) for r in runs]
    failed, attempted = _failed(first)
    values = {
        "setup_s": statistics.median(setup_s),
        "cycles_per_s": sum(r.cycles for r in runs) / sum(r.wall_s for r in runs),
        "cycle_p50_s": statistics.median(all_cycles),
        "cycle_tail_s": statistics.median(v for _, v in tails),
        "peak_rss_mb": _peak_rss_mb(),
        "macro_f1": float(macro_f1(first.y_true, first.y_pred)),
        "crowd_cost_usd": first.cost_usd,
        "crowd_delay_s": statistics.mean(first.delays),
        "admitted_frac": 1.0 - first.shed / first.requested,
        "completed_frac": 1.0 - failed / attempted,
    }
    detail = {
        "setup_samples_s": setup_s,
        "deployments": len(runs),
        "deployment_wall_s": [r.wall_s for r in runs],
        "cycle_s": [r.cycle_s for r in runs],
        "cycle_tail": [
            {"percentile": pct, "value_s": v, "samples": len(r.cycle_s)}
            for (pct, v), r in zip(tails, runs)
        ],
        "shed_frac": {"value": first.shed / first.requested,
                      "shed": first.shed, "requested": first.requested},
        "failed_frac": {"value": failed / attempted, "failed": failed,
                        "attempted": attempted, "dropped": first.dropped,
                        "fallbacks": first.fallbacks,
                        "quarantined": first.quarantined},
        "crowd_delay_cycles": len(first.delays),
        "digest": first.digest,
    }
    return values, detail


def _part_sizes(systems) -> dict[str, float]:
    """Pickled MB of each top-level system attribute, summed over systems."""
    import pickle

    sizes: dict[str, float] = {}
    for system in systems:
        for attr, value in vars(system).items():
            size = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            sizes[attr] = sizes.get(attr, 0.0) + size / 1e6
    return sizes


def _per_layer(recorder, observed, untraced, traced) -> tuple[dict, dict, list]:
    from metrics import MODULES, PER_LAYER, SYSTEM_PARTS

    run = recorder.aggregate("run")
    setup = recorder.aggregate("setup")
    values: dict[str, float] = {}
    for name, stats in run.items():
        values[f"{name}_s"] = stats["total_s"]
        values[f"{name}_n"] = stats["n"]
    for name, stats in setup.items():
        if name.startswith("setup.") or name == "serve.submit":
            values[f"{name}_s"] = stats["total_s"]

    def get(name: str) -> float:
        return values.get(name, 0)

    ratios = {}

    def ratio(name: str, num: float, den: float) -> None:
        values[name] = num / den if den else 0.0
        ratios[name] = {"value": values[name], "numerator": num,
                        "denominator": den}

    ratio("guards.retrain_fit_ratio", get("guards.retrain_s"),
          get("committee.retrain_s"))
    values["guards.rollbacks_n"] = get("guards.rollback_n")
    values["nn.epochs_n"] = observed.epochs
    stats = [s.mic.retrain_stats() for s in traced.systems]
    values["mic.warm_retrains_n"] = sum(s["warm_retrains"] for s in stats)
    values["mic.full_refits_n"] = sum(s["full_refits"] for s in stats)
    for store in ("prediction", "feature"):
        hits = traced.cache.get(f"{store}_hits", 0)
        lookups = hits + traced.cache.get(f"{store}_misses", 0)
        values[f"cache.{store}_hits_n"] = hits
        values[f"cache.{store}_lookups_n"] = lookups
        ratio(f"cache.{store}_hit_ratio", hits, lookups)
    values["crowd.posts_n"] = get("crowd.post_n")
    values["crowd.retries_n"] = traced.retries
    checkpoints = get("persist.checkpoint_n")
    ratio("persist.checkpoint_mb", observed.checkpoint_bytes / 1e6, checkpoints)
    parts = _part_sizes(traced.systems)
    for attr, size in parts.items():
        values[f"persist.part.{attr}_mb"] = size
    values["journal.records_n"] = get("journal.append_n")
    values["serve.overhead_s"] = get("serve.step_s") - get("serve.cycle_s")
    values["serve.deferred_n"] = traced.deferred
    values["serve.quarantined_n"] = traced.quarantined
    values["shed_n"] = traced.shed
    values["requested_n"] = traced.requested
    ratio("shed_frac", traced.shed, traced.requested)
    failed, attempted = _failed(traced)
    values["failed_n"] = failed
    values["attempted_n"] = attempted
    ratio("failed_frac", failed, attempted)

    self_by_module: dict[str, float] = {}
    for name, stats in run.items():
        module = next(m for p, m in MODULES.items() if name.startswith(p))
        self_by_module[module] = self_by_module.get(module, 0.0) + stats["self_s"]
    for module, seconds in self_by_module.items():
        values[f"self.{module}_s"] = seconds
    unattributed = traced.wall_s - recorder.top_level_seconds("run")
    values["unattributed_s"] = unattributed
    values["traced_wall_s"] = traced.wall_s
    values["tracing_overhead_s"] = traced.wall_s - untraced.wall_s

    attributed = sum(self_by_module.values())
    detail = {
        "spans": len(recorder),
        "ratios": ratios,
        "untraced_wall_s": untraced.wall_s,
        "attribution": {
            "wall_s": traced.wall_s,
            "self_s_by_module": self_by_module,
            "unattributed_s": unattributed,
            "sum_s": attributed + unattributed,
        },
        "spans_run": run,
        "spans_setup": setup,
        "parts_mb": parts,
        "unlisted_parts": sorted(set(parts) - set(SYSTEM_PARTS)),
        "unlisted_spans": sorted(
            {f"{n}_s" for n in run} - {m.name for m in PER_LAYER}
        ),
        "layer_map": {
            m.name: {"module": m.module, "moves": list(m.moves)}
            for m in PER_LAYER
        },
    }
    failures = []
    if abs(attributed + unattributed - traced.wall_s) > 1e-6 * traced.wall_s:
        failures.append("self times + unattributed_s != traced wall time")
    return values, detail, failures


def _untraced(workload, clock, seconds: float):
    setup_s = []
    for _ in range(workload.setups):
        gc.collect()
        started = time.perf_counter()
        workload.set_up()
        setup_s.append(time.perf_counter() - started)
    runs = []
    while not runs or sum(r.wall_s for r in runs) < seconds:
        gc.collect()
        run = workload.deploy(clock)
        run.systems = []
        runs.append(run)
    values, detail = _end_to_end(setup_s, runs)
    failures = [f for r in runs for f in r.failures]
    if len({r.digest for r in runs}) != 1:
        failures.append("repeated deployments disagree on the outcome digest")
    counts = [_failed(r) for r in runs]
    return values, detail, failures, counts


def _traced(workload, clock, spans_path: Path):
    from probes import Observed, install_spans
    from spans import Patches, SpanRecorder

    recorder = SpanRecorder()
    with Patches() as patches:
        install_spans(patches, recorder, Observed())
        recorder.begin_phase("setup")
        workload.set_up()
        recorder.end_phase()
    gc.collect()
    untraced = workload.deploy(clock)
    untraced.systems = []
    gc.collect()
    observed = Observed()
    with Patches() as patches:
        install_spans(patches, recorder, observed)
        traced = workload.deploy(clock, recorder)
    values, detail, failures = _per_layer(recorder, observed, untraced, traced)
    detail["spans_file"] = str(recorder.write(spans_path).relative_to(ROOT))
    failures += untraced.failures + traced.failures
    if traced.digest != untraced.digest:
        failures.append("traced and untraced runs disagree on the outcome digest")
    detail["digest"] = untraced.digest
    return values, detail, failures, [_failed(untraced), _failed(traced)]


def _render(metrics: dict) -> list[str]:
    return [f"{name:<36} {m['value']:>16.6g} {m['unit']}"
            for name, m in metrics.items()]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source under src/repro; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse(argv)
    _check_manifest()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2

    from metrics import END_TO_END, PER_LAYER
    from probes import CycleClock
    from spans import Patches
    from workloads import make

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    workload = make(args.workload, args.seed, workdir)
    clock = CycleClock()
    try:
        with Patches() as patches:
            clock.install(patches)
            if args.trace:
                values, detail, failures, counts = _traced(
                    workload, clock, OUT / f"{tag}.spans.npz")
                listed = PER_LAYER
            else:
                values, detail, failures, counts = _untraced(
                    workload, clock, args.seconds)
                listed = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m.name: {"value": values.get(m.name, 0), "unit": m.unit}
               for m in listed}
    result = {
        "correct": not failures,
        "attempted": sum(a for _, a in counts),
        "failed": sum(f for f, _ in counts),
        "metrics": metrics,
    }
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failures": failures, "detail": detail, "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {tag}: report in {report_path.relative_to(ROOT)}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("\n".join(_render(metrics)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
