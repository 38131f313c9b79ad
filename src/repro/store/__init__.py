"""``repro.store`` — the on-media layout layer behind the ``repro.api`` sessions.

Three parts, mirroring the tentpole it implements:

* :mod:`repro.store.manifest` — the versioned, self-describing **manifest
  v3** (format version, embedded :class:`~repro.api.ArchiveConfig`,
  per-segment content hashes, and the ``generation``/``parent`` append
  lineage) plus the v1/v2 deprecation shims;
* :mod:`repro.store.backends` — pluggable **storage backends**
  (``directory`` / ``container`` / ``memory``), registered in
  :data:`repro.registry.stores`, each exposing a streaming
  :class:`~repro.store.backends.ArchiveSink` (creatable fresh or reopened
  for append) and a random-access
  :class:`~repro.store.backends.ArchiveSource` that always serves the
  *superseding* (newest valid) manifest;
* :mod:`repro.store.target` — the unified **target-URI grammar**
  (``dir:`` / ``file:`` / ``mem:`` / ``http(s):`` / ``vol:``), parsed by
  :func:`parse_target` into a typed :class:`TargetSpec` that every opener
  below routes through;
* :mod:`repro.store.volumes` — **sharded volume sets**: frames striped
  across K data volumes plus M cross-shard Reed-Solomon parity volumes,
  surviving the loss of any M whole members;
* the helpers below — backend resolution (:func:`open_sink` /
  :func:`open_append_sink` / :func:`open_source`, with :func:`detect_store`
  sniffing the layout of an existing target), :func:`manifest_digest` (the
  parent-pinning hash of the append lineage) and :func:`load_archive` for
  materialising a full :class:`~repro.core.archive.MicrOlonysArchive` from
  any source.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.archive import ArchiveManifest, MicrOlonysArchive
from repro.errors import StoreError
from repro.store.backends import (
    BOOTSTRAP_NAME,
    CONTAINER_MAGIC,
    MANIFEST_NAME,
    ArchiveSink,
    ArchiveSource,
    ContainerBackend,
    ContainerScan,
    DirectoryBackend,
    MemoryBackend,
    StorageBackend,
    frame_record_name,
    repair_container,
    scan_container,
)
from repro.store.manifest import (
    MANIFEST_FORMAT_VERSION,
    manifest_generation_of,
    manifest_record_name,
    upgrade_manifest_fields,
)
from repro.store.prefetch import FramePrefetcher
from repro.store.target import TargetSpec, VolumeSetSpec, parse_target
from repro.store.volumes import VolumeSetBackend

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "ArchiveSink",
    "FramePrefetcher",
    "ArchiveSource",
    "StorageBackend",
    "DirectoryBackend",
    "ContainerBackend",
    "MemoryBackend",
    "VolumeSetBackend",
    "ContainerScan",
    "TargetSpec",
    "VolumeSetSpec",
    "parse_target",
    "detect_store",
    "open_sink",
    "open_append_sink",
    "open_source",
    "frame_record_name",
    "load_archive",
    "manifest_digest",
    "manifest_generation_of",
    "manifest_record_name",
    "repair_container",
    "scan_container",
    "upgrade_manifest_fields",
]


def detect_store(target: "str | Path") -> str:
    """Sniff which backend an *existing* target belongs to.

    Explicit URI schemes decide directly (``mem:``/``dir:``/``file:``/
    ``vol:``); for bare targets, directories are ``directory`` archives and
    regular files are ``container`` archives.
    """
    if isinstance(target, str):
        for prefix, store in (
            ("vol:", "volumes"),
            ("mem:", "memory"),
            ("dir:", "directory"),
            ("file:", "container"),
        ):
            if target.startswith(prefix):
                return store
    path = Path(target)
    if path.is_dir():
        return "directory"
    if path.is_file():
        return "container"
    raise StoreError(
        f"{target} does not exist; pass store=... explicitly to create it"
    )


def _backend(store: str) -> StorageBackend:
    from repro import registry  # lazy: registry imports this package

    return registry.get_store(store)


def _local_spec(
    target: "str | Path | TargetSpec",
    store: str | None,
    default_store: str | None,
) -> TargetSpec:
    """Parse a target for a *local* opener, rejecting remote URLs."""
    spec = parse_target(target, store=store, default_store=default_store)
    if spec.is_remote:
        raise StoreError(
            f"remote target {spec.target!r} cannot be opened as a local "
            "archive; use the repro.server client paths (e.g. `repro inspect`)"
        )
    return spec


def open_sink(target: "str | Path | TargetSpec", store: str | None = None) -> ArchiveSink:
    """Open ``target`` for writing with the backend its spelling names.

    Every spelling routes through :func:`parse_target`; a new bare path with
    no ``store=`` falls back to the ``directory`` backend.
    """
    spec = _local_spec(target, store, default_store="directory")
    assert spec.store is not None  # default_store guarantees it
    return _backend(spec.store).create(spec.target)


def open_append_sink(
    target: "str | Path | TargetSpec", store: str | None = None
) -> ArchiveSink:
    """Reopen an *existing* archive target for an incremental append session.

    Unlike :func:`open_sink` the target must already exist, so a bare path's
    backend comes from the on-disk layout, never a default.
    """
    spec = _local_spec(target, store, default_store=None)
    if spec.store is None:
        raise StoreError(
            f"{spec.target} does not exist; pass store=... explicitly to create it"
        )
    return _backend(spec.store).append(spec.target)


def open_source(
    target: "str | Path | TargetSpec", store: str | None = None
) -> ArchiveSource:
    """Open an existing archive target for reading (layout auto-detected)."""
    spec = _local_spec(target, store, default_store=None)
    if spec.store is None:
        raise StoreError(
            f"{spec.target} does not exist; pass store=... explicitly to create it"
        )
    return _backend(spec.store).open(spec.target)


def manifest_digest(manifest: ArchiveManifest) -> str:
    """The SHA-256 hex digest pinning ``manifest`` in the append lineage.

    Hashed over the canonical (sorted-keys) JSON serialisation, so the
    digest survives storage round-trips and v1/v2 shim upgrades alike: a
    generation's ``parent`` field must equal this digest of the manifest it
    supersedes.
    """
    return hashlib.sha256(manifest.to_json().encode("utf-8")).hexdigest()


def load_archive(source: "ArchiveSource | str | Path", store: str | None = None) -> MicrOlonysArchive:
    """Materialise a full in-memory archive artefact from any source.

    This reads *every* frame the superseding manifest describes — it is the
    compatibility path for whole-archive restoration; partial restore goes
    through the source directly.
    """
    opened = not isinstance(source, ArchiveSource)
    if opened:
        source = open_source(source, store)
    try:
        manifest = source.manifest()
        return MicrOlonysArchive(
            manifest=manifest,
            data_emblem_images=source.get_frames("data", 0, manifest.data_emblem_count),
            system_emblem_images=source.get_frames(
                "system", 0, manifest.system_emblem_count
            ),
            bootstrap_text=source.get_text(BOOTSTRAP_NAME),
        )
    finally:
        if opened:
            source.close()
