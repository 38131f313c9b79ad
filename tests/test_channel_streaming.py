"""Channel-streaming and sub-segment decode equivalence (PR 4 tentpole).

The streaming restore path changes *how* step 7 and step 5 execute — channel
simulation per batch through the executor, per-image decode split into
chunks — but must never change *what* is restored.  These tests pin that
contract:

* :meth:`~repro.media.channel.MediaChannel.scan_frames` is batching- and
  order-invariant (a hypothesis property over split points and seeds),
* the streaming per-batch record/scan path restores bit-identically to a
  whole-frame ``channel.roundtrip`` pass across media × executors,
* ``decode_parallelism`` > 1 restores bit-identically to the serial decode,
  for segmented and one-shot (single huge segment) archives alike — for the
  *system-emblem* stream too, which decodes through the same chunked path,
* ``readahead`` prefetching returns the same bytes as lazy fetching.

Archives are built through the shared ``make_payload`` / ``build_archive``
factory fixtures in ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ArchiveConfig, open_archive, open_restore, run_end_to_end
from repro.core.restorer import RestoreEngine
from repro.media.distortions import OFFICE_SCAN
from repro.media.paper import PaperChannel
from repro.store import FramePrefetcher, MemoryBackend


# --------------------------------------------------------------------------- #
# scan_frames: the per-frame seeding contract
# --------------------------------------------------------------------------- #
class TestScanFramesInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        split=st.integers(min_value=0, max_value=6),
        lane=st.integers(min_value=0, max_value=2),
    )
    def test_batch_split_invariance(self, seed: int, split: int, lane: int) -> None:
        """Scanning in one call == scanning in any two-batch split."""
        channel = PaperChannel(distortion=OFFICE_SCAN.scaled(0.5))
        rng = np.random.default_rng(99)
        frames = [
            rng.integers(0, 256, size=(40, 40), dtype=np.uint8) for _ in range(6)
        ]
        whole = channel.scan_frames(frames, seed=seed, lane=lane).images
        head = channel.scan_frames(frames[:split], seed=seed, start_index=0, lane=lane).images
        tail = channel.scan_frames(
            frames[split:], seed=seed, start_index=split, lane=lane
        ).images
        for expected, got in zip(whole, head + tail):
            np.testing.assert_array_equal(expected, got)

    def test_lanes_are_disjoint_streams(self) -> None:
        channel = PaperChannel(distortion=OFFICE_SCAN)
        frame = np.full((40, 40), 200, dtype=np.uint8)
        lane0 = channel.scan_frames([frame], seed=7, lane=0).images[0]
        lane1 = channel.scan_frames([frame], seed=7, lane=1).images[0]
        assert not np.array_equal(lane0, lane1)

    def test_whole_frame_scan_unchanged(self) -> None:
        """The legacy scan() still threads one RNG across all frames."""
        channel = PaperChannel(distortion=OFFICE_SCAN)
        rng = np.random.default_rng(3)
        frames = [rng.integers(0, 256, size=(40, 40), dtype=np.uint8) for _ in range(3)]
        again = PaperChannel(distortion=OFFICE_SCAN)
        for a, b in zip(channel.scan(frames, seed=5).images, again.scan(frames, seed=5).images):
            np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------- #
# Streaming record/scan == whole-frame record/scan (restored bytes)
# --------------------------------------------------------------------------- #
class TestStreamingChannelEquivalence:
    @pytest.mark.parametrize("media", ["test", "dna"])
    @pytest.mark.parametrize("executor", ["serial", "thread:2"])
    def test_streaming_matches_whole_frame(self, media: str, executor: str,
                                           make_payload, build_archive) -> None:
        payload = make_payload(4000)
        config = ArchiveConfig(
            media=media, codec="portable", segment_size=1024,
            executor=executor, scan_seed=13,
        )
        archive = build_archive(config, payload)
        engine = RestoreEngine(config.media_profile(), executor=executor)
        streamed = engine.restore_via_channel(archive, seed=13)
        # The whole-frame pass: one RNG threaded across every frame.
        channel = config.media_profile().channel()
        whole = open_restore(archive, config).read_from_scans(
            channel.roundtrip(archive.data_emblem_images, seed=13),
            system_images=channel.roundtrip(archive.system_emblem_images, seed=13),
            payload_kind=archive.manifest.payload_kind,
            manifest=archive.manifest,
        )
        assert streamed.payload == whole.payload == payload
        assert any("per batch" in note for note in streamed.notes)

    @pytest.mark.parametrize("seed", [0, 7, 20210104])
    def test_streaming_is_executor_invariant(self, seed: int, make_payload,
                                             build_archive) -> None:
        """Per-frame seeding makes the streamed restore executor-independent."""
        payload = make_payload(3000, seed=seed + 1)
        config = ArchiveConfig(media="test", segment_size=512, scan_seed=seed)
        archive = build_archive(config, payload)
        results = [
            RestoreEngine(config.media_profile(), executor=executor)
            .restore_via_channel(archive, seed=seed)
            for executor in ("serial", "thread:2", "process:2")
        ]
        assert all(result.payload == payload for result in results)

    def test_run_end_to_end_streams_the_channel(self, make_payload) -> None:
        payload = make_payload(2500)
        result = run_end_to_end(
            ArchiveConfig(media="test", segment_size=512, scan_seed=21), payload
        )
        assert result.ok and result.payload == payload
        assert any("per batch" in note for note in result.notes)
        assert result.frames_recorded == (
            result.archive.manifest.data_emblem_count
            + result.archive.manifest.system_emblem_count
        )

    def test_open_restore_via_channel_session(self, make_payload, build_archive) -> None:
        payload = make_payload(2000)
        config = ArchiveConfig(media="test", segment_size=512, scan_seed=3)
        archive = build_archive(config, payload)
        with open_restore(archive, config, via_channel=True) as reader:
            assert reader.read().payload == payload

    def test_distortion_override_streams_when_named(self, make_payload,
                                                    build_archive) -> None:
        """A named distortion override rides the ChannelSpec into the jobs."""
        payload = make_payload(2500)
        config = ArchiveConfig(
            media="test", segment_size=512, distortion="pristine", scan_seed=9
        )
        archive = build_archive(config, payload)
        result = open_restore(archive, config).read_via_channel(seed=9)
        assert result.payload == payload
        assert any("per batch" in note for note in result.notes)

    def test_unnamed_channel_customisation_falls_back_whole_frame(
            self, make_payload, build_archive) -> None:
        """A profile whose channel can't be rebuilt by name must not stream
        with the registry default — it degrades to the whole-frame pass."""
        config = ArchiveConfig(media="test", segment_size=512, scan_seed=9)
        overridden = config.replace(distortion="pristine").media_profile()
        engine = RestoreEngine(overridden)
        # The override is baked into the factory but not named to the engine:
        assert engine._channel_spec(seed=9, distortion=None) is None
        # Named, it streams; unregistered profiles also fall back.
        assert engine._channel_spec(seed=9, distortion="pristine") is not None
        payload = make_payload(1500)
        archive = build_archive(config, payload)
        result = engine.restore_via_channel(archive, seed=9)
        assert result.payload == payload
        assert not any("per batch" in note for note in result.notes)


# --------------------------------------------------------------------------- #
# decode_parallelism: chunked sub-segment decode == serial decode
# --------------------------------------------------------------------------- #
class TestDecodeParallelism:
    @pytest.mark.parametrize("executor", ["serial", "thread:3"])
    def test_one_shot_archive_matches_serial(self, executor: str, make_payload,
                                             build_archive) -> None:
        """A single huge segment decodes chunk-parallel to the same bytes."""
        payload = make_payload(9000)
        config = ArchiveConfig(media="test", segment_size=None)
        archive = build_archive(config, payload)
        assert len(archive.manifest.segments) == 1
        serial = RestoreEngine(config.media_profile()).restore(archive)
        chunked = RestoreEngine(
            config.media_profile(), executor=executor, decode_parallelism=3
        ).restore(archive)
        assert chunked.payload == serial.payload == payload
        assert chunked.data_report.emblems_decoded == serial.data_report.emblems_decoded
        assert chunked.data_report.emblems_seen == serial.data_report.emblems_seen

    def test_segmented_archive_matches_serial(self, make_payload, build_archive) -> None:
        payload = make_payload(8000)
        config = ArchiveConfig(media="test", segment_size=2048)
        archive = build_archive(config, payload)
        serial = open_restore(archive, config).read()
        parallel = open_restore(
            archive, config, executor="thread:2", decode_parallelism=2
        ).read()
        assert parallel.payload == serial.payload == payload

    def test_system_emblem_stream_chunked_matches_serial(self, make_payload,
                                                         build_archive) -> None:
        """The system-emblem stream decodes through the same chunked path.

        The ROADMAP follow-up: ``decode_parallelism`` now applies to step
        4's system stream as well, so its RS-heavy per-image decoding maps
        through the executor — and must stay byte-identical to the serial
        decode, statistics included.  ``decode_mode="dynarisc"`` forces the
        decoded system stream to actually *run* as the archived decoder, so
        a corrupted chunked decode cannot slip through unnoticed.
        """
        payload = make_payload(3000)
        config = ArchiveConfig(media="test", segment_size=1024)
        archive = build_archive(config, payload)
        serial = RestoreEngine(config.media_profile(), decode_mode="dynarisc").restore(archive)
        chunked = RestoreEngine(
            config.media_profile(), decode_mode="dynarisc",
            executor="thread:3", decode_parallelism=3,
        ).restore(archive)
        assert chunked.payload == serial.payload == payload
        assert serial.system_report is not None and chunked.system_report is not None
        assert chunked.system_report.emblems_seen == serial.system_report.emblems_seen
        assert chunked.system_report.emblems_decoded == serial.system_report.emblems_decoded
        assert chunked.system_report.rs_corrections == serial.system_report.rs_corrections
        assert chunked.emulator_steps == serial.emulator_steps > 0

    def test_streaming_channel_with_decode_parallelism(self, make_payload,
                                                       build_archive) -> None:
        """Both tentpole halves composed: per-batch channel + chunked decode."""
        payload = make_payload(6000)
        config = ArchiveConfig(
            media="test", segment_size=1500, executor="thread:2",
            decode_parallelism=2, scan_seed=17,
        )
        archive = build_archive(config, payload)
        result = open_restore(archive, config).read_via_channel(seed=17)
        assert result.payload == payload

    def test_serial_executor_upgrades_for_chunked_decode(self, make_payload,
                                                         build_archive) -> None:
        """decode_parallelism > 1 over the default serial executor must not
        be a silent no-op: chunk decoding upgrades to a thread pool."""
        from repro.pipeline import RestorePipeline, resolve_decode_executor

        assert resolve_decode_executor("serial", 4) == "thread:4"
        assert resolve_decode_executor("serial", 1) == "serial"
        assert resolve_decode_executor("process:2", 4) == "process:2"
        pipeline = RestorePipeline(decode_parallelism=3)
        assert pipeline.executor == "thread:3"
        payload = make_payload(5000)
        config = ArchiveConfig(media="test", segment_size=None)
        archive = build_archive(config, payload)
        upgraded = RestoreEngine(config.media_profile(), decode_parallelism=3)
        assert upgraded.restore(archive).payload == payload

    def test_config_validates_parallelism(self) -> None:
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ArchiveConfig(decode_parallelism=0)
        with pytest.raises(ConfigError):
            ArchiveConfig(readahead=-1)
        config = ArchiveConfig(decode_parallelism=4, readahead=2)
        assert ArchiveConfig.from_json(config.to_json()) == config


# --------------------------------------------------------------------------- #
# readahead: prefetched partial restore == lazy partial restore
# --------------------------------------------------------------------------- #
class TestReadahead:
    def test_read_range_matches_lazy(self, make_payload) -> None:
        payload = make_payload(16000)
        config = ArchiveConfig(media="test", codec="store", segment_size=2048)
        target = "mem:readahead-equivalence"
        try:
            with open_archive(config, target=target) as writer:
                writer.write(payload)
            with open_restore(target) as lazy, open_restore(target, readahead=3) as eager:
                for offset, length in ((0, 100), (3000, 5000), (15000, 4000)):
                    expected = payload[offset:offset + length]
                    assert lazy.read_range(offset, length) == expected
                    assert eager.read_range(offset, length) == expected
            with open_restore(target, readahead=2, decode_parallelism=2,
                              executor="thread:2") as reader:
                assert reader.read_range(1000, 9000) == payload[1000:10000]
        finally:
            MemoryBackend.discard(target)

    def test_prefetcher_orders_and_falls_back(self) -> None:
        fetched: list[int] = []

        def fetch(record: int) -> str:
            fetched.append(record)
            return f"frames-{record}"

        with FramePrefetcher(fetch, [1, 2, 3], depth=2) as prefetcher:
            assert prefetcher.frames_for(1) == "frames-1"
            # Out-of-order request: served directly, not from the pipeline.
            assert prefetcher.frames_for(3) == "frames-3"
        assert set(fetched) >= {1, 2, 3}

    def test_prefetcher_rejects_bad_depth(self) -> None:
        with pytest.raises(ValueError):
            FramePrefetcher(lambda record: record, [], depth=0)
