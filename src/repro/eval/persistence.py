"""Persistence for experiment results and deployment state.

Long benchmark runs deserve durable, diffable artifacts.  This module
serializes :class:`~repro.eval.baselines.SchemeResult` collections (the
output of :func:`~repro.eval.runner.run_all_schemes`) and per-cycle
:class:`~repro.core.system.CycleOutcome` records to plain JSON and back,
so runs can be archived, compared across seeds, or post-processed without
re-running anything.

It also provides *deployment checkpoints*: a binary snapshot of a live
:class:`~repro.core.system.CrowdLearnSystem` mid-run (committee parameters,
bandit posteriors, ledger, every RNG state, completed outcomes), written
atomically after each sensing cycle so a crashed deployment resumes from the
last completed cycle and reproduces the uninterrupted run bit-for-bit.
Checkpoints use :mod:`pickle` — they capture live numpy generator state,
which JSON cannot represent faithfully — and are therefore a same-version
crash-recovery format, not an archival one; use the JSON helpers for
archival.

A checkpoint carries only live state.  It deliberately omits what is
rebuilt before it is next read: every ``nn`` layer's backward caches and
scratch buffers (see :meth:`repro.nn.layers.Layer.__getstate__`), the
guard's rollback snapshots (emptied once each retrain's rollback decision
is made) and prediction-cache entries.

Images are checkpointed by reference.  Every
:class:`~repro.data.dataset.DisasterImage` the state reaches (the stream,
the golden replay pool, the MIC replay buffer) is frozen for the whole
deployment, so it is written once to an *image store* next to the
checkpoint (``<checkpoint>.images-<sha256 prefix>``) and each checkpoint's
pickle holds only keys into it.  A checkpoint is therefore two files that
must be copied together.  At paper scale the checkpoint file is about
5.7 MB and the store about 24 MB, written once per deployment; inlining
the images would make every checkpoint about 29 MB.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.guards import GuardCounters
from repro.core.resilience import ResilienceCounters
from repro.data.dataset import DisasterImage
from repro.eval.baselines import SchemeResult
from repro.utils.clock import TemporalContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports eval)
    from repro.core.system import CrowdLearnSystem, CycleOutcome, RunOutcome
    from repro.data.stream import SensingCycleStream

__all__ = ["scheme_result_to_dict", "scheme_result_from_dict",
           "save_results", "load_results",
           "cycle_outcome_to_dict", "cycle_outcome_from_dict",
           "run_outcome_to_dict", "run_outcome_from_dict",
           "run_outcome_digest",
           "CheckpointIntegrityError",
           "save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1
# Version 2 wraps the pickled deployment state in an envelope carrying its
# SHA-256 digest, so a truncated or bit-flipped checkpoint fails loudly at
# load time instead of resuming a silently corrupted deployment.
# Version 3 adds the state's byte length, so truncation is distinguishable
# from bit corruption (length vs sha256) in the load error.
# Version 4 moves every DisasterImage out of the state into a separate
# image store the envelope names (with its length and SHA-256).
# Version 5 drops the fused conv layer classes, which a version 4 state
# may pickle; rejecting it by version keeps that an integrity error.
_CHECKPOINT_VERSION = 5


class CheckpointIntegrityError(ValueError):
    """A checkpoint failed to load, with the failing check identified.

    ``check`` names the first integrity check that failed: ``"format"``
    (unreadable pickle / not a snapshot envelope), ``"version"`` (written
    by an incompatible code version), ``"length"`` (state truncated or
    padded), ``"sha256"`` (state bytes corrupted in place), or
    ``"images"`` (the image store is missing, truncated or corrupted).  Subclasses
    :class:`ValueError` so existing ``except ValueError`` callers and
    tests keep working; ``repro run --resume`` maps it to a distinct
    nonzero exit code.
    """

    def __init__(self, message: str, check: str):
        super().__init__(message)
        self.check = check


def scheme_result_to_dict(result: SchemeResult) -> dict:
    """A JSON-safe dict capturing one scheme's full result."""
    return {
        "name": result.name,
        "y_true": result.y_true.tolist(),
        "y_pred": result.y_pred.tolist(),
        "scores": result.scores.tolist(),
        "crowd_delays": list(result.crowd_delays),
        "crowd_delay_contexts": [c.value for c in result.crowd_delay_contexts],
        "cost_cents": result.cost_cents,
    }


def scheme_result_from_dict(data: dict) -> SchemeResult:
    """Inverse of :func:`scheme_result_to_dict`."""
    try:
        return SchemeResult(
            name=data["name"],
            y_true=np.asarray(data["y_true"], dtype=np.int64),
            y_pred=np.asarray(data["y_pred"], dtype=np.int64),
            scores=np.asarray(data["scores"], dtype=np.float64),
            crowd_delays=[float(d) for d in data["crowd_delays"]],
            crowd_delay_contexts=[
                TemporalContext(c) for c in data["crowd_delay_contexts"]
            ],
            cost_cents=float(data["cost_cents"]),
        )
    except KeyError as missing:
        raise ValueError(f"result dict is missing field {missing}") from None


def save_results(
    results: dict[str, SchemeResult],
    path: str | Path,
    metadata: dict | None = None,
) -> Path:
    """Persist a scheme-name → result mapping to JSON.

    ``metadata`` (seed, config summary, timestamps...) is stored verbatim
    under the ``"metadata"`` key.
    """
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "metadata": metadata or {},
        "results": {
            name: scheme_result_to_dict(result)
            for name, result in results.items()
        },
    }
    # Temp file + rename: a crash mid-write can never leave a truncated
    # JSON file where a previous good result set used to be.
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return path


def load_results(path: str | Path) -> tuple[dict[str, SchemeResult], dict]:
    """Load (results, metadata) previously written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    results = {
        name: scheme_result_from_dict(data)
        for name, data in payload["results"].items()
    }
    return results, payload.get("metadata", {})


def cycle_outcome_to_dict(outcome: "CycleOutcome") -> dict:
    """A JSON-safe dict capturing one sensing cycle's full outcome."""
    return {
        "cycle_index": outcome.cycle_index,
        "context": outcome.context.value,
        "true_labels": outcome.true_labels.tolist(),
        "final_labels": outcome.final_labels.tolist(),
        "final_scores": outcome.final_scores.tolist(),
        "query_indices": outcome.query_indices.tolist(),
        "incentives_cents": outcome.incentives_cents.tolist(),
        "crowd_delay": outcome.crowd_delay,
        "cost_cents": outcome.cost_cents,
        "expert_weights": outcome.expert_weights.tolist(),
        "resilience": outcome.resilience.as_dict(),
        "guards": outcome.guards.as_dict(),
    }


def cycle_outcome_from_dict(data: dict) -> "CycleOutcome":
    """Inverse of :func:`cycle_outcome_to_dict`."""
    from repro.core.system import CycleOutcome

    try:
        return CycleOutcome(
            cycle_index=int(data["cycle_index"]),
            context=TemporalContext(data["context"]),
            true_labels=np.asarray(data["true_labels"], dtype=np.int64),
            final_labels=np.asarray(data["final_labels"], dtype=np.int64),
            final_scores=np.asarray(data["final_scores"], dtype=np.float64),
            query_indices=np.asarray(data["query_indices"], dtype=np.int64),
            incentives_cents=np.asarray(
                data["incentives_cents"], dtype=np.float64
            ),
            crowd_delay=float(data["crowd_delay"]),
            cost_cents=float(data["cost_cents"]),
            expert_weights=np.asarray(data["expert_weights"], dtype=np.float64),
            resilience=ResilienceCounters.from_dict(data.get("resilience", {})),
            guards=GuardCounters.from_dict(data.get("guards", {})),
        )
    except KeyError as missing:
        raise ValueError(f"cycle dict is missing field {missing}") from None


def run_outcome_to_dict(outcome: "RunOutcome") -> dict:
    """A JSON-safe dict capturing a whole deployment's outcomes."""
    return {
        "format_version": _FORMAT_VERSION,
        "cycles": [cycle_outcome_to_dict(c) for c in outcome.cycles],
    }


def run_outcome_from_dict(data: dict) -> "RunOutcome":
    """Inverse of :func:`run_outcome_to_dict`."""
    from repro.core.system import RunOutcome

    return RunOutcome(
        cycles=[cycle_outcome_from_dict(c) for c in data.get("cycles", [])]
    )


def run_outcome_digest(outcome: "RunOutcome") -> str:
    """SHA-256 over a run's canonical JSON form.

    Two runs are byte-identical in every label, score, spend, counter and
    delay iff their digests match — the primitive behind the
    scheduler-off parity guarantee (a disabled scheduler must reproduce
    the synchronous loop exactly) and the CI parity smoke job.
    """
    payload = json.dumps(run_outcome_to_dict(outcome), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class _ImageStore:
    """In-memory handle on the image store a checkpoint refers to.

    ``images`` are the stored images in key order and ``keys`` maps each
    one's ``id`` to its key.  Identity is a sound key: the handle holds a
    reference to every image, and images are frozen.
    """

    def __init__(self, path: Path, sha256: str, length: int,
                 images: list[DisasterImage]) -> None:
        self.path = path
        self.sha256 = sha256
        self.length = length
        self.images = images
        self.keys = {id(image): key for key, image in enumerate(images)}
        #: Whether stores of older checkpoints at the same path are gone.
        self.swept = False


class _UnstoredImage(Exception):
    """The state reaches an image the current store does not hold."""


class _StatePickler(pickle.Pickler):
    """Pickles every :class:`DisasterImage` as its key into an image store.

    With ``images`` given, an image without a key is appended to it and
    keyed; without, such an image raises :class:`_UnstoredImage`.
    """

    def __init__(self, file, keys: dict[int, int],
                 images: list[DisasterImage] | None = None) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.keys = keys
        self.images = images

    def persistent_id(self, obj):
        if type(obj) is not DisasterImage:
            return None
        key = self.keys.get(id(obj))
        if key is None:
            if self.images is None:
                raise _UnstoredImage
            key = self.keys[id(obj)] = len(self.images)
            self.images.append(obj)
        return key


class _StateUnpickler(pickle.Unpickler):
    """Resolves the image keys :class:`_StatePickler` wrote."""

    def __init__(self, file, images: list[DisasterImage]) -> None:
        super().__init__(file)
        self.images = images

    def persistent_load(self, key):
        return self.images[key]


def _dump_state(payload: dict, keys: dict[int, int],
                images: list[DisasterImage] | None = None) -> bytes:
    buffer = io.BytesIO()
    _StatePickler(buffer, keys, images).dump(payload)
    return buffer.getvalue()


def _store_path(path: Path, sha256: str) -> Path:
    return path.with_name(f"{path.name}.images-{sha256[:16]}")


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(path: Path, write) -> None:
    """``write(handle)`` to a temp file, fsync it, rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _write_image_store(path: Path, images: list[DisasterImage]) -> _ImageStore:
    blob = pickle.dumps(images, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    store_path = _store_path(path, digest)
    _write_atomic(store_path, lambda handle: handle.write(blob))
    # The store's rename must be durable before a checkpoint names it.
    _fsync_dir(path.parent)
    return _ImageStore(store_path, digest, len(blob), images)


def _sweep_image_stores(path: Path, keep: _ImageStore) -> None:
    """Delete every other store beside ``path`` (older checkpoints' ones).

    Called only once the checkpoint naming ``keep`` is in place; the
    directory is synced first so that rename is durable before any store
    an older checkpoint names disappears.
    """
    _fsync_dir(path.parent)
    prefix = path.name + ".images-"
    for entry in path.parent.iterdir():
        if entry.name.startswith(prefix) and entry.name != keep.path.name:
            entry.unlink(missing_ok=True)
    keep.swept = True


def save_checkpoint(
    path: str | Path,
    system: "CrowdLearnSystem",
    stream: "SensingCycleStream",
    outcome: "RunOutcome",
    next_cycle: int,
) -> Path:
    """Atomically snapshot a live deployment after a completed cycle.

    The snapshot contains everything a resumed run needs to be
    deterministic: the system (with all RNG states, bandit posteriors,
    committee parameters, guard state and the ledger), the stream, the
    outcomes of the ``next_cycle`` completed cycles, and the resume index.
    The write goes through a temporary file + rename, so a crash
    mid-checkpoint leaves the previous checkpoint intact, and the pickled
    state is wrapped in an envelope carrying its SHA-256 digest, which
    :func:`load_checkpoint` verifies before unpickling anything.

    Images are pickled by reference into an image store beside ``path``
    (see the module docstring).  The store is written, atomically, only
    when the state reaches an image the system's current store does not
    hold — once per deployment, and not again after a resume.  Stores an
    older checkpoint names are deleted only after the new checkpoint is
    in place, so a crash at any instant leaves the previous checkpoint
    loadable.

    A telemetry pipeline attached to the system (see
    :mod:`repro.telemetry`) is pickled along with it, so a resumed run
    keeps its spans, metrics and events; its JSON-safe
    :meth:`~repro.telemetry.runtime.Telemetry.snapshot` is additionally
    stored under the envelope's ``"telemetry"`` key so operators can
    inspect a checkpoint without unpickling the deployment state.
    """
    if next_cycle < 0:
        raise ValueError(f"next_cycle must be >= 0, got {next_cycle}")
    path = Path(path)
    telemetry = system.telemetry
    scheduler = system.scheduler
    payload = {
        "next_cycle": int(next_cycle),
        "system": system,
        "stream": stream,
        "outcome": outcome,
    }
    store = system.image_store
    state = None
    if (
        store is not None
        and store.path == _store_path(path, store.sha256)
        and store.path.exists()
    ):
        try:
            state = _dump_state(payload, store.keys)
        except _UnstoredImage:
            pass
    if state is None:
        # No usable store, or the state reaches an image it lacks: key
        # every image afresh, so the new store holds exactly the images
        # this state reaches.
        keys: dict[int, int] = {}
        images: list[DisasterImage] = []
        state = _dump_state(payload, keys, images)
        store = _write_image_store(path, images) if images else None
    envelope = {
        "checkpoint_version": _CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(state).hexdigest(),
        "length": len(state),
        "state": state,
        "images": None if store is None else {
            "name": store.path.name,
            "length": store.length,
            "sha256": store.sha256,
        },
        # Advisory inspection copy; the digest covers only the restorable
        # state, so a telemetry-only diff never invalidates a checkpoint.
        "telemetry": None if telemetry is None else telemetry.snapshot(),
        # Advisory too: the scheduler's live event heap travels inside the
        # pickled system (pending straggler arrivals survive a resume);
        # this JSON summary lets operators see how many responses are in
        # flight without unpickling anything.
        "scheduler": None if scheduler is None else scheduler.snapshot(),
    }
    # Streamed: the pickler writes the large ``state`` bytes straight to
    # the file instead of building a second in-memory copy first.
    _write_atomic(
        path,
        lambda handle: pickle.dump(
            envelope, handle, protocol=pickle.HIGHEST_PROTOCOL
        ),
    )
    system.image_store = store
    if store is not None and not store.swept:
        _sweep_image_stores(path, store)
    return path


def _load_image_store(path: Path, entry) -> _ImageStore | None:
    """Read and verify the image store a checkpoint's envelope names."""
    if entry is None:
        return None
    if not isinstance(entry, dict):
        entry = {}
    name = entry.get("name")
    recorded = entry.get("sha256")
    length = entry.get("length")
    if (
        not isinstance(name, str)
        or Path(name).name != name
        or not isinstance(recorded, str)
        or not isinstance(length, int)
    ):
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: not a snapshot", check="format"
        )
    store_path = path.with_name(name)

    def failed(found: str) -> CheckpointIntegrityError:
        return CheckpointIntegrityError(
            f"checkpoint {path} failed its integrity check (images): "
            f"{found}.  A checkpoint and its image store {name} must be "
            "copied together; resume from an older checkpoint or restart "
            "the deployment.",
            check="images",
        )

    try:
        blob = store_path.read_bytes()
    except FileNotFoundError:
        raise failed("the image store is missing") from None
    if len(blob) != length:
        raise failed(f"recorded {length} store bytes, found {len(blob)}")
    computed = hashlib.sha256(blob).hexdigest()
    if computed != recorded:
        raise failed(
            f"store sha256 recorded {recorded[:12]}..., computed "
            f"{computed[:12]}..."
        )
    return _ImageStore(store_path, recorded, length, pickle.loads(blob))


def load_checkpoint(
    path: str | Path,
) -> tuple["CrowdLearnSystem", "SensingCycleStream", "RunOutcome", int]:
    """Load ``(system, stream, outcome, next_cycle)`` from a checkpoint.

    The deployment state's byte length and SHA-256 digest, and those of
    its image store, are verified before anything is unpickled; a
    mismatch means a file was corrupted after it was written (bad disk,
    interrupted copy, manual edit) and raises a
    :class:`CheckpointIntegrityError` whose ``check`` attribute names the
    failing check — ``format``, ``version``, ``length``, ``sha256`` or
    ``images`` — so the operator (and the ``repro run --resume`` exit
    path) can tell truncation from bit rot from a version skew.  The
    loaded system keeps a handle on the store, so its next checkpoint
    refers to the same store instead of rewriting it.
    """
    path = Path(path)
    try:
        envelope = pickle.loads(path.read_bytes())
    except (pickle.UnpicklingError, EOFError) as exc:
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: {exc}", check="format"
        ) from exc
    if not isinstance(envelope, dict):
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: not a snapshot", check="format"
        )
    version = envelope.get("checkpoint_version")
    if version != _CHECKPOINT_VERSION:
        raise CheckpointIntegrityError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {_CHECKPOINT_VERSION})",
            check="version",
        )
    state = envelope.get("state")
    recorded = envelope.get("sha256")
    length = envelope.get("length")
    if (
        not isinstance(state, bytes)
        or not isinstance(recorded, str)
        or not isinstance(length, int)
    ):
        raise CheckpointIntegrityError(
            f"corrupt checkpoint file {path}: not a snapshot", check="format"
        )
    if len(state) != length:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed its integrity check (length): "
            f"recorded {length} state bytes, found {len(state)}.  The "
            "snapshot was truncated or padded after it was written; resume "
            "from an older checkpoint or restart the deployment.",
            check="length",
        )
    computed = hashlib.sha256(state).hexdigest()
    if computed != recorded:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed its integrity check (sha256): "
            f"recorded {recorded[:12]}..., computed {computed[:12]}....  The "
            "file was corrupted after it was written; resume from an older "
            "checkpoint or restart the deployment from scratch.",
            check="sha256",
        )
    store = _load_image_store(path, envelope.get("images"))
    images = [] if store is None else store.images
    payload = _StateUnpickler(io.BytesIO(state), images).load()
    system = payload["system"]
    system.image_store = store
    return (
        system,
        payload["stream"],
        payload["outcome"],
        int(payload["next_cycle"]),
    )
