"""Session-based streaming I/O over the archival pipeline.

:func:`open_archive` returns an :class:`ArchiveWriter` — a context manager
that accepts payload chunks of any size via :meth:`~ArchiveWriter.write` and
encodes them *while they arrive*: a background thread drives the streaming
pipeline over a bounded queue, so segments encode (optionally in parallel)
concurrently with the caller producing data, and per-segment progress
callbacks fire as emblem batches complete.  :func:`open_restore` is the
reading half, and :func:`run_end_to_end` runs all seven steps of Figure 2a —
including step 7's channel ``record``/``scan``, which no previous entry
point covered — in one call.
"""

from __future__ import annotations

import bisect
import dataclasses
import queue
import threading
from types import TracebackType
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.api.config import ArchiveConfig
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord
from repro.core.restorer import RestorationResult, RestoreEngine, VerifyReport
from repro.errors import ArchiveError, RestorationError, StoreError
from repro.pipeline.pipeline import (
    ArchivePipeline,
    EncodedSegment,
    build_system_artifacts,
)
from repro.store import (
    BOOTSTRAP_NAME,
    ArchiveSource,
    FramePrefetcher,
    TargetSpec,
    load_archive,
    manifest_digest,
    open_append_sink,
    open_sink,
    open_source,
    parse_target,
)

__all__ = [
    "ArchiveWriter",
    "ArchiveReader",
    "EndToEndResult",
    "SegmentCacheLike",
    "open_archive",
    "open_restore",
    "run_end_to_end",
]

#: Sentinel closing the writer's chunk queue.
_EOF = object()


class SegmentCacheLike(Protocol):
    """What :class:`ArchiveReader` needs from a shared decoded-segment cache.

    Keys are the manifest-v3 per-segment SHA-256 hex digests — *content*
    addresses, so an appended generation or a re-uploaded archive can never
    serve stale bytes through a matching key: different payload bytes hash
    to a different key.  Implementations must be safe for concurrent calls
    from multiple threads (:class:`repro.server.SegmentCache`, shared across
    request handlers, is the canonical one).
    """

    def get(self, key: str) -> bytes | None:
        """The cached payload for ``key``, or ``None`` on a miss."""
        ...  # pragma: no cover - protocol

    def put(self, key: str, data: bytes) -> None:
        """Admit ``data`` under ``key`` (the cache may decline or evict)."""
        ...  # pragma: no cover - protocol


class ArchiveWriter:
    """A streaming archival session (returned by :func:`open_archive`).

    Usage::

        with open_archive(config) as writer:
            for chunk in source:
                writer.write(chunk)
        archive = writer.archive        # or the return value of close()

    Chunks are re-segmented by the pipeline's segmenter, so ``write`` calls
    need not align with segment boundaries.  Encoding runs on a background
    thread while the caller keeps writing; at most a bounded window of
    chunks and in-flight segments exist at once.  ``progress`` (if given) is
    called with each completed :class:`~repro.core.archive.SegmentRecord`,
    from the encoder thread.

    With a ``target`` the session also *persists* the archive through a
    :mod:`repro.store` backend: emblem frames stream onto the target as each
    batch completes, and ``close()`` writes the system emblems, the
    Bootstrap, the session config and the v3 manifest alongside them —
    ``collect`` then defaults to ``False``, so huge archives stay
    memory-bounded on the way to disk.

    With an ``append_base`` manifest (see ``open_archive(append=True)``)
    the session *extends* an existing target instead of creating one: frame
    numbering, segment indices and payload offsets resume where the base
    manifest left off, the whole-archive CRC-32 chains through the appended
    bytes, and ``close()`` writes a superseding manifest one generation up
    whose ``parent`` digest pins the base — the new manifest's segment list
    is cumulative, so readers address the whole multi-generation payload
    exactly as if it had been archived in one session.
    """

    def __init__(
        self,
        config: ArchiveConfig,
        *,
        payload_kind: str | None = None,
        progress: Callable[[SegmentRecord], None] | None = None,
        on_batch: Callable[[EncodedSegment], None] | None = None,
        collect: bool | None = None,
        target: "str | Path | None" = None,
        store: str | None = None,
        append_base: ArchiveManifest | None = None,
    ):
        self.config = config
        self.payload_kind = payload_kind if payload_kind is not None else config.payload_kind
        self.progress = progress
        self.on_batch = on_batch
        self.target = target
        self._store = store
        #: The parsed target spec every store operation of this session
        #: routes through — one :func:`repro.store.parse_target` call per
        #: session; ``vol:`` geometry defaults
        #: (``config.volume_parity``/``volume_stripe``) apply only when
        #: *creating* a volume set (an appended set's geometry is read back
        #: from the medium instead).
        self._spec: TargetSpec | None = None
        if target is not None:
            self._spec = parse_target(
                target,
                store=store if store is not None else config.store,
                default_store=None if append_base is not None else "directory",
            )
            if append_base is None:
                self._spec = self._spec.with_volume_defaults(
                    config.volume_parity, config.volume_stripe
                )
        #: With ``collect=False`` emblem images are dropped after the
        #: callbacks (and any store sink) run — the bounded-memory mode; the
        #: closed archive then carries the manifest, system emblems and
        #: Bootstrap but an empty data-image list.  Defaults to ``False``
        #: when a ``target`` persists the frames, ``True`` otherwise.
        self.collect = collect if collect is not None else target is None
        self._base = append_base
        if append_base is not None:
            if target is None:
                raise ArchiveError("an append session needs a store target to extend")
            if not append_base.segments:
                raise ArchiveError(
                    "this archive has no segment records (pre-pipeline layout); "
                    "it cannot be appended to — re-archive it first"
                )
            assert self._spec is not None
            self._sink = open_append_sink(self._spec)
        else:
            self._sink = open_sink(self._spec) if self._spec is not None else None
        #: Rebasing offsets: an append session resumes the frame, segment and
        #: byte numbering of the superseded manifest, so the new manifest's
        #: cumulative segment list stays monotone across generations.
        self._base_frames = append_base.data_emblem_count if append_base else 0
        self._base_segments = len(append_base.segments) if append_base else 0
        self._base_bytes = append_base.archive_bytes if append_base else 0
        self._frames_written = self._base_frames
        self.archive: MicrOlonysArchive | None = None
        self._profile = config.media_profile()
        self._pipeline = ArchivePipeline(
            profile=self._profile,
            dbcoder_profile=config.resolve_codec(),
            outer_code=config.outer_code,
            segment_size=config.segment_size,
            executor=config.executor,
        )
        self._queue: "queue.Queue[bytes | object]" = queue.Queue(maxsize=8)
        self._records: list[SegmentRecord] = []
        self._images: list[np.ndarray] = []
        # The encoder thread stores a failure here; the caller's thread
        # consumes (reads *and clears*) it — that pair must be atomic or two
        # racing callers could both observe, or both miss, the error.
        self._state_lock = threading.Lock()
        self._error: BaseException | None = None  # lint: guarded-by(_state_lock)
        # zlib.crc32 chains: crc32(a + b) == crc32(b, crc32(a)), so seeding
        # with the base manifest's CRC makes the appended manifest's
        # archive_crc32 exactly the CRC of the concatenated payload.
        self._crc = append_base.archive_crc32 if append_base else 0
        self._length = self._base_bytes
        self._closed = False
        self._thread = threading.Thread(
            target=self._encode_loop, name="repro-archive-writer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    def _chunks(self) -> Iterator[bytes]:
        while True:
            chunk = self._queue.get()
            if not isinstance(chunk, bytes):  # the _EOF sentinel
                return
            yield chunk

    def _rebase(self, record: SegmentRecord) -> SegmentRecord:
        """Renumber a pipeline-local record into the archive-wide sequence."""
        if self._base is None:
            return record
        return dataclasses.replace(
            record,
            index=record.index + self._base_segments,
            offset=record.offset + self._base_bytes,
            emblem_start=record.emblem_start + self._base_frames,
        )

    def _encode_loop(self) -> None:
        try:
            for batch in self._pipeline.iter_encode(self._chunks()):
                batch.record = self._rebase(batch.record)
                self._records.append(batch.record)
                if self._sink is not None:
                    # One batched call per segment: the container sink turns
                    # this into a single coalesced write instead of one
                    # stream write per frame.
                    self._sink.put_frames("data", self._frames_written, batch.images)
                    self._frames_written += len(batch.images)
                if self.collect:
                    self._images.extend(batch.images)
                if self.on_batch is not None:
                    self.on_batch(batch)
                if self.progress is not None:
                    self.progress(batch.record)
        except BaseException as exc:  # surfaced on the caller's thread
            with self._state_lock:
                self._error = exc
            # Unblock a writer stuck on a full queue, then discard the rest.
            while True:
                try:
                    if self._queue.get_nowait() is _EOF:
                        break
                except queue.Empty:
                    break

    def _check_error(self) -> None:
        with self._state_lock:
            error, self._error = self._error, None
        if error is not None:
            self._closed = True
            if self._sink is not None:
                self._sink.abort()
            raise error

    # ------------------------------------------------------------------ #
    def write(self, chunk: bytes) -> None:
        """Feed payload bytes into the archive (any chunk size)."""
        if self._closed:
            raise ArchiveError("this archive session is closed")
        self._check_error()
        chunk = bytes(chunk)
        if not chunk:
            return
        self._crc = zlib.crc32(chunk, self._crc) & 0xFFFFFFFF
        self._length += len(chunk)
        while True:
            try:
                self._queue.put(chunk, timeout=0.1)
                return
            except queue.Full:
                self._check_error()

    def close(self) -> MicrOlonysArchive:
        """Finish encoding and assemble the archive artefact (idempotent)."""
        if self._closed:
            if self.archive is None:
                raise ArchiveError("this archive session failed; nothing to return")
            return self.archive
        self._closed = True
        self._queue.put(_EOF)
        self._thread.join()
        with self._state_lock:
            error, self._error = self._error, None
        if error is not None:
            if self._sink is not None:
                self._sink.abort()
            raise error
        base = self._base
        if base is None:
            system_images, bootstrap_text = build_system_artifacts(
                self._profile, outer_code=self.config.outer_code
            )
            system_count = len(system_images)
        else:
            # The target already carries the system emblems and Bootstrap of
            # generation 0; re-deriving them here would be wasted work and —
            # worse — could stamp a count that disagrees with what is
            # physically on the medium, so the superseding manifest inherits
            # the base's count verbatim.
            system_images = []
            bootstrap_text = ""
            system_count = base.system_emblem_count
        segments = (base.segments if base else ()) + tuple(self._records)
        manifest = ArchiveManifest(
            profile_name=self._profile.name,
            dbcoder_profile=self._pipeline.codec.manifest_name,
            archive_bytes=self._length,
            archive_crc32=self._crc,
            data_emblem_count=sum(record.emblem_count for record in segments),
            system_emblem_count=system_count,
            payload_kind=self.payload_kind,
            segment_size=self.config.segment_size,
            segments=segments,
            config=self.config.to_dict(),
            generation=base.generation + 1 if base else 0,
            parent=manifest_digest(base) if base else None,
        )
        if self._sink is not None:
            if base is None:
                self._sink.put_frames("system", 0, system_images)
                self._sink.put_text(BOOTSTRAP_NAME, bootstrap_text)
                self._sink.put_text("config.json", self.config.to_json() + "\n")
            self._sink.put_manifest(manifest)
            self._sink.close()
        if base is not None:
            # Reflect the medium's Bootstrap in the returned artefact (the
            # sink is closed, so the superseding layout is fully readable).
            with open_source(self._spec) as source:
                bootstrap_text = source.get_text(BOOTSTRAP_NAME)
        self.archive = MicrOlonysArchive(
            manifest=manifest,
            data_emblem_images=self._images,
            system_emblem_images=system_images,
            bootstrap_text=bootstrap_text,
        )
        return self.archive

    def abort(self) -> None:
        """Drop the session without assembling an archive.

        An append session rolls its target back to the pre-append state
        (no half-written generation is ever finalised onto the medium).
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(_EOF)
        self._thread.join()
        with self._state_lock:
            self._error = None
        if self._sink is not None:
            self._sink.abort()

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class ArchiveReader:
    """A restoration session (returned by :func:`open_restore`).

    Wraps :class:`~repro.core.restorer.RestoreEngine` with the config-driven
    profile/executor resolution of the facade; ``read()`` restores straight
    from the archive artefact, ``read_via_channel()`` re-runs the simulated
    record/scan cycle first.

    When the session was opened over a :mod:`repro.store` target (a saved
    directory, a container file, or a ``mem:`` key), the reader is
    **random-access**: :meth:`restore_segment` and :meth:`read_range` use
    the manifest to locate, fetch, decode and hash-verify only the segments
    covering the request — no other frame is read from the medium, and
    multi-segment requests decode in parallel through the configured
    executor.  ``on_segment`` (if given) is called with each
    :class:`~repro.core.archive.SegmentRecord` a partial restore decodes,
    and :attr:`segments_decoded` / :attr:`frames_decoded` tally the work
    done across the session's partial reads.
    """

    def __init__(
        self,
        archive: MicrOlonysArchive | None,
        config: ArchiveConfig,
        *,
        source: ArchiveSource | None = None,
        on_segment: Callable[[SegmentRecord], None] | None = None,
        via_channel: bool = False,
        segment_cache: SegmentCacheLike | None = None,
    ):
        if archive is None and source is None:
            raise ArchiveError("an ArchiveReader needs an archive artefact or a store source")
        self._archive = archive
        self._source = source
        self._manifest = archive.manifest if archive is not None else None
        self.config = config
        self.on_segment = on_segment
        #: When true, :meth:`read` routes through the simulated record/scan
        #: cycle (the streaming channel path) instead of reading the
        #: artefact's pristine rasters directly.
        self.via_channel = via_channel
        #: Shared decoded-segment cache consulted by partial restores; keys
        #: are per-segment SHA-256 digests, so it may be shared across
        #: readers, archives and (server) request threads.
        self.segment_cache = segment_cache
        #: Partial-restore work counters (full ``read()`` reports its own
        #: statistics through the returned :class:`RestorationResult`).
        #: ``segments_cached`` counts covering segments served from
        #: ``segment_cache`` without touching the medium; the ``on_segment``
        #: hook fires only for segments actually decoded.
        self.segments_decoded = 0
        self.frames_decoded = 0
        self.segments_cached = 0
        #: Full reads, partial reads and verify all decode through this
        #: engine's one pipeline and executor, so repeated ``read_range``
        #: calls don't respawn an executor (pool) each time; :meth:`close`
        #: releases it.
        self._engine = RestoreEngine(
            profile=config.media_profile(),
            decode_mode=config.decode_mode,
            executor=config.executor,
            decode_parallelism=config.decode_parallelism,
        )

    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> ArchiveManifest:
        """The archive manifest (loaded without touching any frame)."""
        if self._manifest is None:
            self._manifest = self._source.manifest()
        return self._manifest

    @property
    def archive(self) -> MicrOlonysArchive:
        """The full archive artefact (materialises every frame on demand)."""
        if self._archive is None:
            self._archive = load_archive(self._source)
            self._manifest = self._archive.manifest
        return self._archive

    def _frames(self, record: SegmentRecord) -> list[np.ndarray]:
        """The data frames of one segment, from the source or the artefact."""
        if self._archive is not None:
            end = record.emblem_start + record.emblem_count
            frames = self._archive.data_emblem_images[record.emblem_start:end]
            if len(frames) != record.emblem_count:
                raise StoreError(
                    f"segment {record.index} expects {record.emblem_count} frames "
                    f"at {record.emblem_start}; the artefact holds {len(frames)}"
                )
            return list(frames)
        return self._source.get_frames("data", record.emblem_start, record.emblem_count)

    # ------------------------------------------------------------------ #
    def read(self) -> RestorationResult:
        """Restore the whole payload from the archive artefact.

        Sessions opened with ``via_channel=True`` re-run the simulated
        record/scan cycle (the streaming per-batch channel path) first.
        """
        if self.via_channel:
            return self.read_via_channel()
        return self._engine.restore(self.archive)

    def read_via_channel(self, seed: int | None = None) -> RestorationResult:
        """Record on the configured medium, scan back, then restore.

        The channel simulation *streams*: each segment's frames are
        recorded, scanned (per-frame seeded) and decoded as one job through
        the configured executor, so step 7 parallelises and overlaps with
        decoding instead of staging a whole-archive record/scan pass.
        """
        if seed is None:
            seed = self.config.scan_seed
        return self._engine.restore_via_channel(
            self.archive, seed=seed, distortion=self.config.distortion
        )

    def read_from_scans(
        self,
        data_images: list[np.ndarray],
        system_images: "list[np.ndarray] | None" = None,
        bootstrap_text: str | None = None,
        payload_kind: str = "sql",
        manifest: ArchiveManifest | None = None,
    ) -> RestorationResult:
        """Restore from externally produced scans (engine pass-through)."""
        return self._engine.restore_from_scans(
            data_images,
            system_images=system_images,
            bootstrap_text=bootstrap_text,
            payload_kind=payload_kind,
            manifest=manifest,
        )

    def payload(self) -> bytes:
        """Convenience: the restored payload bytes."""
        return self.read().payload

    # ------------------------------------------------------------------ #
    # Random-access restore
    # ------------------------------------------------------------------ #
    def _decode_records(self, records: list[SegmentRecord]) -> list[bytes]:
        """Decode exactly ``records`` (in order), verifying every hash.

        With ``config.readahead`` > 0 and a store-backed session, up to that
        many segments' frames are prefetched from the backend on background
        threads while earlier segments decode — backend I/O overlaps MOCoder
        decode instead of serialising in front of it.

        With a :attr:`segment_cache`, segments whose SHA-256 digest is
        cached are served straight from memory (their frames are never
        fetched, their emblems never decoded); only the misses go through
        the pipeline, and their decoded — hash-verified — payloads are
        admitted to the cache on the way out.
        """
        cache = self.segment_cache
        parts_by_position: "list[bytes | None]" = [None] * len(records)
        misses: list[SegmentRecord] = []
        miss_positions: list[int] = []
        for position, record in enumerate(records):
            cached = (
                cache.get(record.sha256)
                if cache is not None and record.sha256 is not None
                else None
            )
            if cached is not None and len(cached) == record.length:
                parts_by_position[position] = cached
                self.segments_cached += 1
            else:
                misses.append(record)
                miss_positions.append(position)
        if misses:
            for job, payload in enumerate(self._decode_uncached(misses)):
                record = misses[job]
                parts_by_position[miss_positions[job]] = payload
                if cache is not None and record.sha256 is not None:
                    cache.put(record.sha256, payload)
        parts: list[bytes] = []
        for position, part in enumerate(parts_by_position):
            if part is None:  # a decode yielded short — never expected
                raise RestorationError(
                    f"segment {records[position].index} produced no payload"
                )
            parts.append(part)
        return parts

    def _decode_uncached(self, records: list[SegmentRecord]) -> Iterator[bytes]:
        """Pipeline-decode ``records`` (cache misses), yielding payloads in order."""
        pipeline = self._engine.pipeline
        prefetcher = None
        frames_for = self._frames
        if self.config.readahead > 0 and self._archive is None:
            prefetcher = FramePrefetcher(self._frames, records, self.config.readahead)
            frames_for = prefetcher.frames_for
        try:
            for decoded in pipeline.iter_decode_selected(self.manifest, records, frames_for):
                self.segments_decoded += 1
                self.frames_decoded += decoded.record.emblem_count
                if self.on_segment is not None:
                    self.on_segment(decoded.record)
                yield decoded.payload
        finally:
            if prefetcher is not None:
                prefetcher.close()

    def restore_segment(self, index: int) -> bytes:
        """Decode and verify segment ``index`` alone, returning its bytes.

        Only that segment's frames are fetched and decoded; damage anywhere
        else on the medium is irrelevant to this call.
        """
        segments = self.manifest.segments
        if not segments:
            # Pre-pipeline (v1 one-shot) manifest: the whole payload is the
            # only addressable unit.
            if index != 0:
                raise ArchiveError(
                    f"this archive has no segment records; only segment 0 "
                    f"(the whole payload) exists, got {index}"
                )
            return self.read().payload
        if not 0 <= index < len(segments):
            raise ArchiveError(
                f"segment index {index} out of range (archive has {len(segments)} segments)"
            )
        return self._decode_records([segments[index]])[0]

    def read_range(self, offset: int, length: int) -> bytes:
        """Restore exactly ``payload[offset:offset + length]``.

        The manifest's logical byte ranges select the covering segments;
        only their frames are fetched and decoded (in parallel, through the
        configured executor), each verified against its archived CRC-32 and
        SHA-256 before the requested slice is cut out.  Out-of-range
        requests clamp exactly like Python byte slicing.
        """
        if offset < 0 or length < 0:
            raise ValueError("read_range offset and length must be non-negative")
        total = self.manifest.archive_bytes
        end = min(offset + length, total)
        if offset >= end:
            return b""
        segments = self.manifest.segments
        if not segments:
            return self.read().payload[offset:end]
        # Segments are contiguous and sorted by offset: bisect for the first
        # segment ending past `offset`, then take segments until `end`.
        starts = [record.offset for record in segments]
        first = bisect.bisect_right(starts, offset) - 1
        covering: list[SegmentRecord] = []
        for record in segments[max(first, 0):]:
            if record.offset >= end:
                break
            if record.end > offset:
                covering.append(record)
        parts = self._decode_records(covering)
        window = b"".join(parts)
        base = covering[0].offset
        return window[offset - base:end - base]

    # ------------------------------------------------------------------ #
    def verify(self, *, deep: bool = True) -> VerifyReport:
        """Integrity-check the archive on its store target (fsck).

        Walks every manifest generation (lineage, segment monotonicity),
        checks that every frame the superseding manifest references is
        present and parseable, reports superseded and orphaned records, and
        with ``deep=True`` (the default) re-decodes each segment
        independently to re-check its CRC-32/SHA-256 content hashes —
        without ever assembling the full payload.  See
        :meth:`~repro.core.restorer.RestoreEngine.verify`.
        """
        if self._source is None:
            raise ArchiveError(
                "verify needs a store-backed session (a saved directory, "
                "a container file, or a mem: target)"
            )
        return self._engine.verify(self._source, deep=deep)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the store source and the decode executor (idempotent)."""
        self._engine.close()
        if self._source is not None:
            self._source.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Facade entry points
# --------------------------------------------------------------------------- #
def _resolve_config(
    config: ArchiveConfig | None, overrides: dict[str, object]
) -> ArchiveConfig:
    """Default config + keyword overrides, validated once."""
    config = config if config is not None else ArchiveConfig()
    return config.replace(**overrides) if overrides else config


def _resolve_append(
    target: "str | Path | TargetSpec",
    store: str | None,
    config: ArchiveConfig | None,
    overrides: dict[str, object],
) -> "tuple[ArchiveConfig, ArchiveManifest]":
    """The session config and superseding base manifest of an append.

    Without an explicit ``config`` the target describes itself, exactly as
    in :func:`open_restore`; either way the resolved config must name the
    same media profile, codec and outer-code choice the archive was written
    with — an appended generation has to decode under the stack the
    superseded generations already committed to the medium.
    """
    from repro import registry  # lazy: registry imports repro.store

    with open_source(target, store) as source:
        base = source.manifest()
    if config is None:
        if base.config is not None:
            config = ArchiveConfig.from_dict(base.config)
        else:
            config = ArchiveConfig(
                media=base.profile_name,
                codec=base.dbcoder_profile,
                payload_kind=base.payload_kind,
                segment_size=base.segment_size,
            )
    if overrides:
        config = config.replace(**overrides)
    if config.media != registry.media.resolve_name(base.profile_name):
        raise ArchiveError(
            f"cannot append with media {config.media!r} to an archive written "
            f"on {base.profile_name!r}; the emblem geometry must match"
        )
    if config.codec != registry.codecs.resolve_name(base.dbcoder_profile):
        raise ArchiveError(
            f"cannot append with codec {config.codec!r} to an archive written "
            f"with {base.dbcoder_profile!r}"
        )
    if base.config is not None and bool(base.config.get("outer_code", True)) != config.outer_code:
        raise ArchiveError(
            "cannot append with a different outer_code setting than the "
            "archive was written with"
        )
    return config, base


def open_archive(
    config: ArchiveConfig | None = None,
    *,
    payload_kind: str | None = None,
    progress: Callable[[SegmentRecord], None] | None = None,
    on_batch: Callable[[EncodedSegment], None] | None = None,
    collect: bool | None = None,
    target: "str | Path | None" = None,
    store: str | None = None,
    append: bool = False,
    **overrides: object,
) -> ArchiveWriter:
    """Open a streaming archival session.

    ``config`` defaults to ``ArchiveConfig()``; keyword ``overrides`` are
    applied on top (``open_archive(media="paper", codec="dense")``).
    ``progress`` receives each completed
    :class:`~repro.core.archive.SegmentRecord`; ``on_batch`` additionally
    receives the emblem images (an :class:`~repro.pipeline.EncodedSegment`),
    so a recorder-facing consumer can persist frames as they are emitted.
    Both callbacks run on the encoder thread.  ``collect=False`` drops each
    batch's images after the callbacks — peak memory then stays bounded by
    the executor window regardless of payload size.

    ``target`` persists the archive through a :mod:`repro.store` backend
    (``store`` names it explicitly: ``"directory"``, ``"container"``,
    ``"memory"``; otherwise ``config.store`` or the target's shape decides):
    frames stream onto the target as they encode and ``collect`` defaults to
    ``False``, so ``open_archive(..., target="backup.ule", store="container")``
    writes an arbitrarily large archive in bounded memory.

    ``append=True`` *extends* an existing target instead of creating one —
    true incremental backup: the session resumes frame numbering and
    payload offsets from the target's superseding manifest, streams the new
    payload through the same pipeline, and closes by writing a manifest one
    generation up (``parent``-pinned to the old one) whose cumulative
    segment list makes :meth:`ArchiveReader.read_range` /
    :meth:`~ArchiveReader.restore_segment` work transparently across the
    generation boundary.  When no ``config`` is given the target describes
    itself, exactly as in :func:`open_restore`; the media profile, codec and
    outer-code choice must match the archive being extended.
    """
    if append:
        if target is None:
            raise ArchiveError("open_archive(append=True) needs a target to extend")
        # Parse once up front so the base-manifest read and the writer share
        # one spec.
        spec = parse_target(target, store=store)
        config, base = _resolve_append(spec, None, config, overrides)
        if payload_kind is None:
            payload_kind = base.payload_kind
        return ArchiveWriter(
            config, payload_kind=payload_kind, progress=progress, on_batch=on_batch,
            collect=collect, target=spec, store=None, append_base=base,
        )
    config = _resolve_config(config, overrides)
    return ArchiveWriter(
        config, payload_kind=payload_kind, progress=progress, on_batch=on_batch,
        collect=collect, target=target, store=store,
    )


def open_restore(
    source: "MicrOlonysArchive | ArchiveSource | str | Path | TargetSpec",
    config: ArchiveConfig | None = None,
    *,
    store: str | None = None,
    on_segment: Callable[[SegmentRecord], None] | None = None,
    via_channel: bool = False,
    segment_cache: SegmentCacheLike | None = None,
    **overrides: object,
) -> ArchiveReader:
    """Open a restoration session over an archive artefact or store target.

    ``segment_cache`` (any :class:`SegmentCacheLike`, e.g.
    :class:`repro.server.SegmentCache`) lets partial restores serve covering
    segments whose SHA-256 digest is already cached without fetching or
    decoding anything; decoded misses are admitted on the way out.  Because
    keys are content digests, one cache is safely shared across readers,
    archives and generations.

    ``via_channel=True`` makes :meth:`ArchiveReader.read` re-run the
    simulated record/scan cycle first, through the streaming per-batch
    channel path (equivalent to calling
    :meth:`~ArchiveReader.read_via_channel` explicitly).

    ``source`` may be an in-memory :class:`~repro.core.archive.
    MicrOlonysArchive`, an open :class:`~repro.store.ArchiveSource`, or a
    path/key to a saved archive — a directory, a single-file container, or a
    ``mem:`` target (``store`` forces the backend; otherwise the layout is
    sniffed).  Store-backed sessions open *cold*: only the manifest is read
    up front, so :meth:`ArchiveReader.read_range` /
    :meth:`~ArchiveReader.restore_segment` fetch and decode just the
    segments they need.

    When no ``config`` is given, the archive describes itself: a v2
    manifest's embedded config is used verbatim, a v1 manifest supplies the
    media profile and codec — exactly the paper's self-description
    discipline; ``overrides`` then adjust individual fields
    (``open_restore(path, decode_mode="dynarisc")``).
    """
    archive: MicrOlonysArchive | None = None
    archive_source: ArchiveSource | None = None
    if isinstance(source, MicrOlonysArchive):
        archive = source
        manifest = archive.manifest
    elif isinstance(source, ArchiveSource):
        archive_source = source
        manifest = archive_source.manifest()
    else:
        archive_source = open_source(source, store)
        manifest = archive_source.manifest()
    if config is None:
        if manifest.config is not None:
            config = ArchiveConfig.from_dict(manifest.config)
        else:
            config = ArchiveConfig(
                media=manifest.profile_name,
                codec=manifest.dbcoder_profile,
                payload_kind=manifest.payload_kind,
                segment_size=manifest.segment_size,
            )
    if overrides:
        config = config.replace(**overrides)
    reader = ArchiveReader(
        archive, config, source=archive_source, on_segment=on_segment,
        via_channel=via_channel, segment_cache=segment_cache,
    )
    reader._manifest = manifest
    return reader


@dataclass
class EndToEndResult:
    """Everything produced by one :func:`run_end_to_end` run."""

    config: ArchiveConfig
    archive: MicrOlonysArchive
    restoration: RestorationResult
    frames_recorded: int
    channel_name: str
    notes: list[str] = field(default_factory=list)

    @property
    def payload(self) -> bytes:
        """The restored payload bytes."""
        return self.restoration.payload

    @property
    def ok(self) -> bool:
        """True when restoration completed (it is bit-exact by construction)."""
        return self.restoration.bit_exact


def run_end_to_end(
    config: ArchiveConfig | None = None,
    payload: bytes = b"",
    *,
    payload_kind: str | None = None,
    progress: Callable[[SegmentRecord], None] | None = None,
    **overrides: object,
) -> EndToEndResult:
    """All seven steps of Figure 2a plus restoration, in one call.

    Archives ``payload`` with the configured codec and media profile,
    **records** the emblems onto the configured channel and **scans** them
    back (step 7 — the simulated analog hop every other entry point leaves
    out), then restores from the degraded scans and integrity-checks the
    result.  Raises :class:`~repro.errors.RestorationError` (or a media
    error) if the chain is not bit-exact; on success the returned
    :class:`EndToEndResult` carries the archive, the scan statistics and the
    restored payload.
    """
    config = _resolve_config(config, overrides)
    with open_archive(config, payload_kind=payload_kind, progress=progress) as writer:
        writer.write(payload)
    archive = writer.archive

    # Step 7 + restoration: the analog hop now *streams* — each segment's
    # frames are recorded onto the configured medium, scanned back (with
    # batching-invariant per-frame seeding) and decoded as one job through
    # the configured executor, instead of staging whole-archive record and
    # scan passes.
    with open_restore(archive, config) as reader:
        restoration = reader.read_via_channel(seed=config.scan_seed)
    if restoration.payload != payload:
        raise RestorationError(
            "end-to-end restoration returned different bytes than were archived"
        )
    manifest = archive.manifest
    return EndToEndResult(
        config=config,
        archive=archive,
        restoration=restoration,
        frames_recorded=manifest.data_emblem_count + manifest.system_emblem_count,
        channel_name=config.channel().name,
        notes=list(restoration.notes),
    )
