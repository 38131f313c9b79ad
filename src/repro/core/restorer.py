"""The Micr'Olonys restoration flow (Figure 2b).

Six steps, as a future user would perform them:

1. scan the medium; OCR the Bootstrap text and image-preprocess the emblems —
   here the scanned images arrive from a :class:`~repro.media.channel.
   MediaChannel` and the Bootstrap text from :class:`~repro.bootstrap.ocr.
   SimulatedOCR`;
2. implement the VeRisc emulator from the Bootstrap pseudocode (the
   portability benchmark exercises independent implementations; the library
   ships the reference one);
3. instantiate the archived DynaRisc emulator and the MOCoder decoder;
4. decode the *system emblems* to obtain the DBCoder decoder;
5. decode the *data emblems* with MOCoder, then run the DBCoder decoder on
   the result to obtain the SQL text archive;
6. load the archive into a present-day DBMS (:func:`repro.dbms.db_load`).

``decode_mode`` selects how faithfully step 5 is executed: ``"python"`` uses
the reference decoders, ``"dynarisc"`` runs the archived DBCoder decoder
under the DynaRisc emulator, and ``"nested"`` runs it inside the full
VeRisc-hosted nested emulator — the complete ULE chain.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (store builds on core)
    from repro.store import ArchiveSource

import numpy as np

from repro.errors import RestorationError
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord
from repro.core.profiles import MediaProfile, TEST_PROFILE
from repro.bootstrap.document import BootstrapDocument
from repro.dbcoder.dbcoder import DBCoder, Profile
from repro.dbcoder.formats import unpack_container
from repro.dbms.database import Database
from repro.dbms.dump import db_load
from repro.dynarisc.emulator import DynaRiscEmulator
from repro.mocoder.mocoder import DecodeReport
from repro.nested import NestedDynaRiscMachine
from repro.pipeline.executors import get_executor
from repro.pipeline.pipeline import (
    ChannelSpec,
    RestorePipeline,
    _simulate_channel,
    _verify_segment_payload,
    check_archive_totals,
    merge_reports,
    resolve_decode_executor,
)
from repro.util.crc import crc32_of

#: Valid values for ``decode_mode``.
DECODE_MODES = ("python", "dynarisc", "nested")


@dataclass
class GenerationInfo:
    """One manifest generation found on a store target during verify."""

    generation: int
    record_name: str
    #: ``"active"`` (the superseding manifest), ``"superseded"`` (a valid
    #: older generation kept for lineage/fallback) or ``"damaged"``.
    status: str
    segments: int = 0
    archive_bytes: int = 0
    digest: str | None = None
    parent: str | None = None

    def to_dict(self) -> dict[str, object]:
        return dict(self.__dict__)


@dataclass
class VerifyReport:
    """What :meth:`RestoreEngine.verify` found on one archive target.

    ``errors`` are integrity violations (a missing/corrupt frame, a failed
    segment hash, a broken lineage); ``warnings`` are survivable oddities;
    ``orphaned`` lists records the superseding manifest does not reference
    (typically the complete frames of a torn append) and ``superseded`` the
    older generations' manifest records, which are *expected* residents of
    an appendable archive.
    """

    deep: bool = True
    generations: list[GenerationInfo] = field(default_factory=list)
    segments_checked: int = 0
    frames_checked: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    orphaned: list[str] = field(default_factory=list)
    superseded: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no integrity violation was found."""
        return not self.errors

    @property
    def active_generation(self) -> int | None:
        """The superseding manifest's generation, when one was readable."""
        for info in self.generations:
            if info.status == "active":
                return info.generation
        return None

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "deep": self.deep,
            "active_generation": self.active_generation,
            "generations": [info.to_dict() for info in self.generations],
            "segments_checked": self.segments_checked,
            "frames_checked": self.frames_checked,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "orphaned": list(self.orphaned),
            "superseded": list(self.superseded),
        }


@dataclass
class RestorationResult:
    """Everything recovered from a scanned archive."""

    payload: bytes
    database: Database | None
    archive_text: str | None
    data_report: DecodeReport
    system_report: DecodeReport | None
    decode_mode: str
    emulator_steps: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def bit_exact(self) -> bool:
        """True when every integrity check passed (always true on success)."""
        return True


class RestoreEngine:
    """Restore databases from scanned emblem images and the Bootstrap text.

    This is the engine behind :func:`repro.api.open_restore` and
    :func:`repro.api.run_end_to_end`.  Every decode it runs — the system
    emblems, full restores of one-shot and segmented archives, the emulated
    modes and :meth:`verify` — goes through one
    :class:`~repro.pipeline.RestorePipeline` over one executor, both built
    here once; :meth:`close` releases the executor's workers.

    Parameters
    ----------
    profile:
        Media profile whose emblem spec the scans were produced with.
    decode_mode:
        ``"python"`` / ``"dynarisc"`` / ``"nested"``; see the module docs.
    executor:
        Pipeline executor the decode jobs map through — each segment's
        MOCoder decoding is independent, so ``"process"`` decodes segments
        in parallel.
    decode_parallelism:
        Sub-segment parallelism: each segment's (or a one-shot archive's)
        emblem-image decoding is split into up to this many contiguous
        chunks mapped through ``executor``, so a single huge segment no
        longer serialises restore.  ``1`` keeps one job per segment.  Chunks
        never shrink below ``repro.pipeline.pipeline.MIN_DECODE_CHUNK``
        images: the per-image decode is itself batch-vectorised, so
        splitting a small stream costs more in executor round-trips than it
        overlaps, and such streams stay one job.
    """

    def __init__(
        self,
        profile: MediaProfile = TEST_PROFILE,
        decode_mode: str = "python",
        executor: str = "serial",
        decode_parallelism: int = 1,
    ):
        if decode_mode not in DECODE_MODES:
            raise ValueError(f"decode_mode must be one of {DECODE_MODES}")
        self.profile = profile
        self.decode_mode = decode_mode
        self.executor = executor
        self.decode_parallelism = max(1, int(decode_parallelism))
        #: One executor *instance* for every decode: it stays open across
        #: calls (pools spawn their workers on first use) until :meth:`close`.
        self._executor = get_executor(
            resolve_decode_executor(executor, self.decode_parallelism)
        )
        self.pipeline = RestorePipeline(
            profile, executor=self._executor, decode_parallelism=self.decode_parallelism
        )

    def close(self) -> None:
        """Release the executor's workers (idempotent; reusable afterwards)."""
        self._executor.close()

    # ------------------------------------------------------------------ #
    def restore(self, archive: MicrOlonysArchive) -> RestorationResult:
        """Restore directly from an archive artefact (no scanner in between)."""
        return self.restore_from_scans(
            data_images=archive.data_emblem_images,
            system_images=archive.system_emblem_images,
            bootstrap_text=archive.bootstrap_text,
            payload_kind=archive.manifest.payload_kind,
            manifest=archive.manifest,
        )

    def restore_via_channel(
        self,
        archive: MicrOlonysArchive,
        seed: int | None = None,
        distortion: str | None = None,
    ) -> RestorationResult:
        """Record the archive on the profile's medium, scan it back, restore.

        Step 7 runs the same way encode streams: each segment's frames are
        recorded, scanned (with batching-invariant per-frame seeding) and
        decoded as one executor job, so channel simulation overlaps decoding
        and parallelises with the configured executor.  ``distortion``
        optionally names a registered distortion profile override for the
        simulated scanner.
        """
        channel_spec = self._channel_spec(seed, distortion)
        if channel_spec is None:
            # A profile whose channel cannot be faithfully rebuilt by name
            # inside executor workers (unregistered, or customised beyond
            # what ``distortion`` names): one whole-frame record/scan pass.
            channel = self.profile.channel()
            data_scans = channel.roundtrip(archive.data_emblem_images, seed=seed)
            system_scans = channel.roundtrip(archive.system_emblem_images, seed=seed)
            return self.restore_from_scans(
                data_images=data_scans,
                system_images=system_scans,
                bootstrap_text=archive.bootstrap_text,
                payload_kind=archive.manifest.payload_kind,
                manifest=archive.manifest,
            )
        return self._restore(
            data_images=archive.data_emblem_images,
            system_images=archive.system_emblem_images,
            bootstrap_text=archive.bootstrap_text,
            payload_kind=archive.manifest.payload_kind,
            manifest=archive.manifest,
            channel=channel_spec,
        )

    def _channel_spec(self, seed: int | None, distortion: str | None) -> ChannelSpec | None:
        """A picklable spec for this engine's channel, or ``None`` when the
        profile cannot be faithfully rebuilt by name inside workers.

        That is the case when the profile is not registered at all, or when
        it carries a customised channel factory (e.g. a distortion override
        baked in by ``ArchiveConfig.media_profile()``) that ``distortion``
        does not name — streaming with the registry's default channel would
        silently simulate a different medium, so those fall back to the
        whole-frame pass, which uses ``profile.channel()`` directly.
        """
        from repro import registry  # local import: registry registers the built-ins

        try:
            registered = registry.get_media(self.profile.name)
        except KeyError:
            return None
        if distortion is None and registered.channel_factory is not self.profile.channel_factory:
            return None
        return ChannelSpec(media=registered.name, distortion=distortion, seed=seed)

    # ------------------------------------------------------------------ #
    def restore_from_scans(
        self,
        data_images: list[np.ndarray],
        system_images: list[np.ndarray] | None = None,
        bootstrap_text: str | None = None,
        payload_kind: str = "sql",
        manifest: ArchiveManifest | None = None,
    ) -> RestorationResult:
        """Run restoration steps 1-6 on scanned images.

        With a ``manifest`` that has segment records, step 5 runs per
        segment (independently, optionally in parallel via the configured
        ``executor``) and checks each against its record.  Without one (a v1
        manifest, or ``manifest=None``) the scans given decode as a single
        stream; emblem headers are self-describing, so scans may be missing
        or out of order.  A one-segment archive takes every scan given, too.

        Raises
        ------
        RestorationError
            If the recovered stream fails any of its integrity checks.
        """
        return self._restore(
            data_images, system_images, bootstrap_text, payload_kind, manifest, None
        )

    def _restore(
        self,
        data_images: list[np.ndarray],
        system_images: list[np.ndarray] | None,
        bootstrap_text: str | None,
        payload_kind: str,
        manifest: ArchiveManifest | None,
        channel: ChannelSpec | None,
    ) -> RestorationResult:
        """Steps 1-6, optionally simulating the analog hop along the way.

        With a :class:`~repro.pipeline.ChannelSpec`, the incoming images are
        the *recorded-side* rasters: the system stream is recorded/scanned
        here (lane 1 of the per-frame seed space) and the data stream is
        recorded/scanned per batch inside the decode jobs (lane 0).
        """
        notes: list[str] = []

        # Steps 2-3: the Bootstrap provides the emulator and MOCoder decoder.
        if bootstrap_text is not None:
            bootstrap = BootstrapDocument.parse(bootstrap_text)
            notes.append(
                f"bootstrap verified: {len(bootstrap.sections)} sections, "
                f"{bootstrap.letter_count} letters, ~{bootstrap.page_count} pages"
            )

        if channel is not None and system_images:
            # The system stream is one short whole stream; simulate its hop
            # inline — through the same ChannelSpec-built channel as the
            # data jobs — on a seed lane disjoint from every data frame's.
            system_images = _simulate_channel(system_images, channel, 0, lane=1)

        # Step 4: recover the archived DBCoder decoder from the system
        # emblems, through the same pipeline as the data stream.
        system_report = None
        decoder_code: bytes | None = None
        if system_images:
            decoder_code, system_report = self.pipeline.decode_stream(system_images)
            notes.append(
                f"system emblems decoded: {system_report.emblems_decoded} of "
                f"{system_report.emblems_seen} scans, "
                f"{system_report.rs_corrections} symbol corrections"
            )

        # Step 5: recover the payload.
        payload, data_report, emulator_steps = self._restore_payload(
            manifest, data_images, decoder_code, notes, channel
        )

        # Step 6: load the SQL archive into a present-day database.
        database = None
        archive_text = None
        if payload_kind == "sql":
            archive_text = payload.decode("utf-8")
            database = db_load(archive_text)

        return RestorationResult(
            payload=payload,
            database=database,
            archive_text=archive_text,
            data_report=data_report,
            system_report=system_report,
            decode_mode=self.decode_mode,
            emulator_steps=emulator_steps,
            notes=notes,
        )

    # ------------------------------------------------------------------ #
    def _restore_payload(
        self,
        manifest: ArchiveManifest | None,
        data_images: list[np.ndarray],
        decoder_code: bytes | None,
        notes: list[str],
        channel: ChannelSpec | None,
    ) -> tuple[bytes, DecodeReport, int]:
        """Step 5 through the restore pipeline.

        Segments decode independently and check against their manifest
        records; without segment records the scans decode as one stream.
        In python mode the pipeline finishes each segment inside its job;
        the emulated modes (and record-less streams) take the pipeline's
        DBCoder containers and decode them here.  With a ``channel``, each
        job records/scans its frames through the simulated medium first.
        """
        codec_name = manifest.dbcoder_profile if manifest is not None else None
        emulate = self.decode_mode != "python" and decoder_code is not None
        if self.decode_mode != "python":
            if codec_name is not None:
                from repro import registry

                if not registry.get_codec(codec_name).is_builtin:
                    raise RestorationError(
                        f"codec {codec_name!r} is user-registered; the archived "
                        "DynaRisc decoder only handles the PORTABLE profile — "
                        "restore with decode_mode='python'"
                    )
            if decoder_code is None:
                notes.append(
                    "no system emblems were provided; fell back to the reference decoder"
                )
        pipeline = self.pipeline
        if channel is not None:
            pipeline = RestorePipeline(
                self.profile,
                executor=self._executor,
                channel=channel,
                decode_parallelism=self.decode_parallelism,
            )
            notes.append(
                f"channel simulated per batch over {channel.media} "
                f"(streaming record/scan, seed={channel.seed})"
            )

        if manifest is not None and manifest.segments and not emulate:
            payload, report, records = pipeline.restore_payload(manifest, data_images)
            notes.append(
                f"{len(records)} segments decoded independently "
                f"(executor: {self.executor})"
            )
            return payload, report, 0

        decoded: "Iterable[tuple[SegmentRecord | None, bytes, DecodeReport]]"
        if manifest is not None and manifest.segments:
            decoded = pipeline.iter_decode_containers(manifest, data_images)
        else:
            container, report = pipeline.decode_stream(data_images)
            decoded = [(None, container, report)]
        parts: list[bytes] = []
        reports: list[DecodeReport] = []
        emulator_steps = 0
        for record, container, report in decoded:
            part, steps = self._decode_container(
                container, decoder_code if emulate else None, codec_name
            )
            if record is not None:
                _verify_segment_payload(record, part)
            emulator_steps += steps
            parts.append(part)
            reports.append(report)
        payload = b"".join(parts)
        if manifest is not None:
            check_archive_totals(manifest, payload)
        if emulate:
            segments = f"{len(reports)} segment" + ("s" if len(reports) != 1 else "")
            notes.append(
                f"{segments} decoded under the {self.decode_mode} emulator "
                f"({emulator_steps} emulated steps)"
            )
        return payload, merge_reports(reports), emulator_steps

    def _decode_container(
        self, container: bytes, decoder_code: bytes | None, codec_name: str | None
    ) -> tuple[bytes, int]:
        """Step 5b: one DBCoder container -> payload bytes (+ emulated steps).

        ``decoder_code`` runs the archived decoder under the selected
        emulator; without it the reference decoder (or the manifest's
        user-registered codec) decodes.  Checked against the container's
        own length/CRC either way.
        """
        if codec_name is not None and decoder_code is None:
            from repro import registry

            codec = registry.get_codec(codec_name)
            if not codec.is_builtin:
                # User codecs own their container; decode verifies length/CRC.
                return codec.decode(container), 0
        header, payload_stream = unpack_container(container)
        try:
            profile = Profile(header.profile_id)
        except ValueError as exc:
            raise RestorationError(
                f"container names DBCoder profile id {header.profile_id}, which is "
                "not a built-in profile; archives made with a user-registered codec "
                "must be restored with their manifest (which names the codec)"
            ) from exc
        steps = 0
        if decoder_code is None:
            payload = DBCoder.decompress_payload(payload_stream, profile)
        else:
            self._require_portable(profile)
            payload, steps = self._run_archived_decoder(decoder_code, payload_stream)
        if len(payload) != header.original_length or crc32_of(payload) != header.original_crc32:
            raise RestorationError(
                "restored stream does not match the archived length/CRC; "
                "the restoration is not bit-for-bit"
            )
        return payload, steps

    # ------------------------------------------------------------------ #
    # fsck: multi-generation archive verification
    # ------------------------------------------------------------------ #
    def verify(self, source: "ArchiveSource", *, deep: bool = True) -> VerifyReport:
        """Integrity-check an archive on its store target (fsck).

        Walks **every manifest generation** on the target: each one must
        parse, carry the generation its record name claims, pin its parent's
        digest, and extend its parent's segment list; the superseding
        (newest valid) manifest must additionally be internally monotone —
        contiguous segment indices, byte offsets and frame runs summing to
        its archive totals.  Records the superseding manifest does not
        reference are reported as ``orphaned`` (the footprint of a torn
        append), older manifests as ``superseded``.

        With ``deep=True`` (the default) every segment is then re-decoded
        *independently* — fetched, MOCoder-decoded and re-checked against
        its manifest CRC-32/SHA-256 through the engine's executor — and the
        system-emblem stream is decoded too, all without ever assembling the
        full payload or loading a database; ``deep=False`` stops at reading
        and parsing every referenced frame raster.

        Sharded volume sets (:mod:`repro.store.volumes`) additionally get a
        **cross-shard parity audit**: unavailable member volumes are
        reported as errors, and with ``deep=True`` every shard and parity
        record is re-hashed and each stripe's parity recomputed from its
        data shards.

        Verification never raises on damage — every finding lands in the
        returned :class:`VerifyReport` (``report.ok`` summarises) — only on
        a target that is not an archive at all.
        """
        from repro.errors import ReproError
        from repro.store import (  # lazy: store builds on core
            BOOTSTRAP_NAME,
            frame_record_name,
            manifest_digest,
            manifest_generation_of,
        )

        report = VerifyReport(deep=deep)
        names = source.names()

        # --- every generation's manifest: parse + lineage ---------------- #
        manifests: dict[int, tuple[str, ArchiveManifest]] = {}
        candidates = sorted(
            (generation, name)
            for name in names
            if (generation := manifest_generation_of(name)) is not None
        )
        for generation, name in candidates:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", DeprecationWarning)
                    manifest = ArchiveManifest.from_json(source.get_text(name))
                for entry in caught:
                    report.warnings.append(f"{name}: {entry.message}")
            except (ReproError, ValueError) as exc:
                report.errors.append(f"{name}: unreadable manifest: {exc}")
                report.generations.append(GenerationInfo(generation, name, "damaged"))
                continue
            if manifest.generation != generation:
                report.errors.append(
                    f"{name}: record name claims generation {generation} but the "
                    f"manifest says {manifest.generation}"
                )
            manifests[generation] = (name, manifest)
        if not manifests:
            report.errors.append("no readable manifest on the target")
            return report
        active_generation = max(manifests)
        for generation in sorted(manifests):
            name, manifest = manifests[generation]
            status = "active" if generation == active_generation else "superseded"
            report.generations.append(
                GenerationInfo(
                    generation=generation,
                    record_name=name,
                    status=status,
                    segments=len(manifest.segments),
                    archive_bytes=manifest.archive_bytes,
                    digest=manifest_digest(manifest),
                    parent=manifest.parent,
                )
            )
            if status == "superseded":
                report.superseded.append(name)
            if generation == 0:
                if manifest.parent is not None:
                    report.errors.append(
                        f"{name}: generation 0 must not carry a parent digest"
                    )
                continue
            parent_entry = manifests.get(generation - 1)
            if parent_entry is None:
                report.errors.append(
                    f"{name}: parent generation {generation - 1} manifest is "
                    "missing or unreadable"
                )
                continue
            parent_name, parent_manifest = parent_entry
            if manifest.parent != manifest_digest(parent_manifest):
                report.errors.append(
                    f"{name}: parent digest does not match {parent_name}"
                )
            if manifest.segments[: len(parent_manifest.segments)] != parent_manifest.segments:
                report.errors.append(
                    f"{name}: segment list does not extend {parent_name}'s"
                )

        # --- the superseding manifest must be internally monotone --------- #
        active_name, active = manifests[active_generation]
        offset = frame = 0
        for position, record in enumerate(active.segments):
            if record.index != position:
                report.errors.append(
                    f"{active_name}: segment {position} carries index {record.index}"
                )
            if record.offset != offset or record.emblem_start != frame:
                report.errors.append(
                    f"{active_name}: segment {record.index} breaks byte/frame "
                    "contiguity"
                )
            offset += record.length
            frame += record.emblem_count
        if active.segments and (
            active.archive_bytes != offset or active.data_emblem_count != frame
        ):
            report.errors.append(
                f"{active_name}: segment totals ({offset} bytes, {frame} frames) "
                f"do not match the manifest's archive totals "
                f"({active.archive_bytes} bytes, {active.data_emblem_count} frames)"
            )

        # --- orphaned records: present but unreferenced ------------------- #
        expected = {name for _, name in candidates}
        expected.update({BOOTSTRAP_NAME, "config.json"})
        expected.update(
            frame_record_name("data", index) for index in range(active.data_emblem_count)
        )
        expected.update(
            frame_record_name("system", index)
            for index in range(active.system_emblem_count)
        )
        # Orphans (present but unreferenced — the footprint of a torn
        # append) are reported once, through this dedicated field.
        report.orphaned = sorted(set(names) - expected)
        try:
            source.get_text(BOOTSTRAP_NAME)
        except ReproError as exc:
            report.errors.append(f"{BOOTSTRAP_NAME}: {exc}")

        # --- cross-shard parity audit (sharded volume sets) --------------- #
        # A volume-set source exposes parity_audit(); single-volume sources
        # don't, and skip it.  Missing member volumes are *errors* even
        # though degraded reads still succeed: the archive is damaged and
        # has lost (some of) its erasure margin.
        parity_audit = getattr(source, "parity_audit", None)
        if parity_audit is not None:
            try:
                audit_errors, audit_warnings = parity_audit(deep=deep)
            except ReproError as exc:
                report.errors.append(f"volume parity audit: {exc}")
            else:
                report.errors.extend(f"volume set: {entry}" for entry in audit_errors)
                report.warnings.extend(f"volume set: {entry}" for entry in audit_warnings)

        # --- frames: presence/parse (shallow) or full re-decode (deep) ---- #
        if not deep:
            for kind, count in (
                ("data", active.data_emblem_count),
                ("system", active.system_emblem_count),
            ):
                for index in range(count):
                    try:
                        source.get_frame(kind, index)
                        report.frames_checked += 1
                    except ReproError as exc:
                        report.errors.append(f"{kind} frame {index}: {exc}")
            return report

        def frames_for(record: SegmentRecord) -> list[np.ndarray]:
            return source.get_frames("data", record.emblem_start, record.emblem_count)

        for record in active.segments:
            try:
                for _ in self.pipeline.iter_decode_selected(active, [record], frames_for):
                    pass
                report.segments_checked += 1
                report.frames_checked += record.emblem_count
            except ReproError as exc:
                report.errors.append(f"segment {record.index}: {exc}")
        if active.system_emblem_count:
            try:
                system_images = source.get_frames("system", 0, active.system_emblem_count)
                self.pipeline.decode_stream(system_images)
                report.frames_checked += active.system_emblem_count
            except ReproError as exc:
                report.errors.append(f"system emblems: {exc}")
        return report

    def _require_portable(self, profile: Profile) -> None:
        if profile != Profile.PORTABLE:
            raise RestorationError(
                f"the archived DynaRisc decoder handles the PORTABLE profile; "
                f"this archive used {profile.name}"
            )

    # ------------------------------------------------------------------ #
    def _run_archived_decoder(self, decoder_code: bytes, stream: bytes) -> tuple[bytes, int]:
        """Execute the recovered DBCoder decoder under the selected emulator."""
        if self.decode_mode == "dynarisc":
            emulator = DynaRiscEmulator(decoder_code, input_data=stream, step_limit=2_000_000_000)
            payload = emulator.run(0)
            return payload, emulator.steps
        nested = NestedDynaRiscMachine(decoder_code, input_data=stream, entry=0,
                                       step_limit=2_000_000_000)
        payload = nested.run()
        return payload, nested.steps
