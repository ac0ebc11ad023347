"""System-level tests for the learning-loop guardrails.

Covers the deployment-shaped guarantees from the guards work:

- a *lenient but enabled* policy (thresholds no real run can cross) is
  byte-identical to a guards-disabled run, so the guarded code path itself
  is side-effect-free;
- a checkpointed deployment with hardened guards under adversarial label
  faults resumes bit-for-bit, guard memory included;
- a checkpoint of a guarded deployment carries no backward caches and no
  spent rollback snapshots;
- the paired guard-chaos experiment shows guards-on holding up at least as
  well as guards-off with interventions actually on record.
"""

import numpy as np
import pytest

from repro.core.guards import GuardPolicy, ModelGuard, SnapshotRing
from repro.core.system import CrowdLearnSystem, RunOutcome
from repro.crowd.faults import FaultInjector
from repro.eval.experiments import adversarial_label_plan, run_guard_chaos
from repro.eval.persistence import load_checkpoint, save_checkpoint
from repro.eval.runner import build_crowdlearn, prepare
from repro.nn.layers import Layer


def lenient_policy() -> GuardPolicy:
    """Every mechanism on, every threshold impossible to cross.

    Accuracies live in [0, 1] and disagreement rates in [0, 1], so none of
    these bounds can trigger; the run must match a disabled-guards run
    byte for byte.
    """
    return GuardPolicy(
        regression_tolerance=1.0,
        quarantine_threshold=0.0,
        readmit_threshold=0.0,
        drift_min_disagreement=1.0,
        max_update_ratio=1e9,
    )


def assert_runs_equal(a: RunOutcome, b: RunOutcome, guards: bool = True):
    assert len(a.cycles) == len(b.cycles)
    for ca, cb in zip(a.cycles, b.cycles):
        assert ca.cycle_index == cb.cycle_index
        np.testing.assert_array_equal(ca.true_labels, cb.true_labels)
        np.testing.assert_array_equal(ca.final_labels, cb.final_labels)
        np.testing.assert_array_equal(ca.final_scores, cb.final_scores)
        np.testing.assert_array_equal(ca.query_indices, cb.query_indices)
        np.testing.assert_array_equal(
            ca.incentives_cents, cb.incentives_cents
        )
        assert ca.crowd_delay == cb.crowd_delay
        assert ca.cost_cents == cb.cost_cents
        np.testing.assert_array_equal(ca.expert_weights, cb.expert_weights)
        if guards:
            assert ca.guards == cb.guards


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=0, fast=True)


class TestGuardParity:
    def test_lenient_enabled_matches_disabled(self, setup):
        """The guarded code path is inert when no guard ever intervenes.

        Stream, platform and system seeds are shared by name, so the only
        difference between the two runs is whether ``run_cycle`` goes
        through the guard plumbing at all.
        """
        outcomes = {}
        for name, policy in (
            ("lenient", lenient_policy()),
            ("disabled", GuardPolicy.disabled()),
        ):
            system = build_crowdlearn(
                setup, platform_name="guard-parity", guards=policy
            )
            outcomes[name] = system.run(setup.make_stream("guard-parity"))
        totals = outcomes["lenient"].guard_totals()
        assert not totals.any()  # snapshots only, no interventions
        assert totals.snapshots > 0  # ...but the guarded path really ran
        assert_runs_equal(
            outcomes["lenient"], outcomes["disabled"], guards=False
        )


class TestGuardedCheckpointResume:
    def build(self, setup) -> CrowdLearnSystem:
        injector = FaultInjector(
            adversarial_label_plan(),
            rng=setup.seeds.get("guard-resume-faults"),
        )
        return build_crowdlearn(
            setup,
            faults=injector,
            platform_name="guard-resume",
            guards=GuardPolicy.hardened(),
        )

    def test_resume_with_guards_matches_uninterrupted(self, setup, tmp_path):
        """Crash mid-run with live guard state, resume -> identical outcome.

        The hostile plan makes the hardened guards actually intervene, so
        the checkpoint must round-trip quarantine state, accuracy EWMAs and
        the drift history, not just the committee and RNGs.
        """
        uninterrupted = self.build(setup).run(
            setup.make_stream("guard-resume")
        )
        assert uninterrupted.guard_totals().any()

        path = tmp_path / "guarded.ckpt"
        system = self.build(setup)
        stream = setup.make_stream("guard-resume")
        outcome = RunOutcome()
        k = 3  # crash after three completed cycles
        for t in range(k):
            outcome.append(system.run_cycle(stream.cycle(t)))
        save_checkpoint(path, system, stream, outcome, k)

        resumed = CrowdLearnSystem.resume_from_checkpoint(path)
        assert_runs_equal(resumed, uninterrupted)


def reachable_objects(root):
    """Every container and ``repro`` object reachable from ``root``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            yield obj
            stack.extend(getattr(obj, "__dict__", {}).values())


class TestCheckpointHoldsOnlyLiveState:
    def test_no_backward_caches_or_spent_snapshots(self, setup, tmp_path):
        """A checkpoint carries neither minibatch caches nor old snapshots.

        Both are rebuilt before they are next read: a training forward
        repopulates the caches, and a retrain snapshots before it trains.
        """
        system = build_crowdlearn(
            setup, platform_name="live-state", guards=GuardPolicy()
        )
        stream = setup.make_stream("live-state")
        outcome = RunOutcome()
        for t in range(3):
            outcome.append(system.run_cycle(stream.cycle(t)))
        path = save_checkpoint(tmp_path / "live.ckpt", system, stream, outcome, 3)

        restored, _, outcome, next_cycle = load_checkpoint(path)
        assert next_cycle == 3
        assert [c.guards.snapshots for c in outcome.cycles] == [3, 3, 3]
        objects = list(reachable_objects(restored))
        layers = [obj for obj in objects if isinstance(obj, Layer)]
        guards = [obj for obj in objects if isinstance(obj, ModelGuard)]
        rings = [obj for obj in objects if isinstance(obj, SnapshotRing)]
        assert layers and guards and len(rings) == 3
        for layer in layers:
            for key in Layer.BACKWARD_CACHES:
                assert getattr(layer, key, None) is None, (layer, key)
        assert all(len(ring) == 0 for ring in rings)


class TestGuardChaos:
    @pytest.fixture(scope="class")
    def data(self, setup):
        return run_guard_chaos(setup)

    def test_arms_and_completion(self, data, setup):
        assert data.arms == ("guards-on", "guards-off")
        for arm in data.arms:
            assert data.cycles_completed[arm] == setup.config.n_cycles
            assert 0.0 <= data.f1[arm] <= 1.0
            assert data.fault_events[arm] > 0

    def test_guards_hold_up_under_hostile_labels(self, data):
        """The acceptance bar: guards-on final-half F1 >= guards-off, with
        at least one rollback or quarantine actually recorded."""
        assert data.final_f1["guards-on"] >= data.final_f1["guards-off"]
        assert data.guards["rollbacks"] + data.guards["quarantines"] >= 1

    def test_interventions_bridge_to_telemetry(self, data):
        assert data.telemetry  # guards-on arm ran with a live registry
        for name, value in data.guards.items():
            assert data.telemetry[name] == value

    def test_render_mentions_everything(self, data):
        text = data.render()
        assert "Guard chaos" in text
        assert "guards-on" in text
        assert "guards-off" in text
        assert "final_half_f1" in text
        assert "Guard interventions" in text
