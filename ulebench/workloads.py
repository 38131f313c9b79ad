"""The four seeded workloads, driven through the program's public surface.

Every workload is one closed loop: a single caller issues an op, waits for
its reply, checks it against the generated payload and only then issues the
next.  Op ``sequence`` numbers come from the seed alone, so a given seed and
op count replay the same inputs in the same order; ``--seconds`` only decides
how far along that sequence a run gets.

Each workload knows two op kinds, ``read`` and ``write``:

================  ==================================  =============================
workload          read op                             write op
================  ==================================  =============================
paper-batch       full restore of the set-up archive   archive into a fresh container
degraded-volumes  4 KiB ``read_range``, 2 of 6 lost    one segment into a fresh
                                                       ``vol:k=4,m=2`` set (1 in 3)
service-mix       4 KiB ranged ``GET`` (Zipf/newest)   4 KiB ``POST .../append``
                                                       (1 in 10)
emulated-restore  full ``decode_mode="dynarisc"``      archive into a fresh container
                  restore                              (3 in 4)
================  ==================================  =============================
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import itertools
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracing import TRACE_QUERY, load_spans

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

KIB = 1024


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    payload_bytes: int


def tpch_payload(size: int, seed: int) -> bytes:
    """A TPC-H SQL dump of about ``size`` bytes (the benchmark's own input)."""
    from repro.dbms.tpch import tpch_archive_of_size

    _, dump = tpch_archive_of_size(max(size, 10_000), seed=seed)
    return dump.encode("utf-8")


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def manifest_matches(target: str, payload: bytes) -> bool:
    """The written archive describes exactly ``payload`` (length and CRC-32)."""
    from repro.api import open_restore

    with open_restore(target) as reader:
        manifest = reader.manifest
    return manifest.archive_bytes == len(payload) and (
        manifest.archive_crc32 == zlib.crc32(payload))


class Workload:
    """Set-up, op sequence and final checks of one workload."""

    name = ""
    why = ""
    setup_repeats = 3
    #: The op kinds, repeated for the whole run.  It starts with a write and
    #: a read, which are the untimed warm-up ops.
    pattern: tuple[str, ...] = ("write", "read")

    def __init__(self, seed: int, workdir: Path, scale: float, traced: bool):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.traced = traced
        self.rng_digest = hashlib.sha256()
        self.emulator_steps = 0
        self.last_written: Path | None = None
        self._fresh = itertools.count()

    def size(self, nominal: int) -> int:
        return max(10_000, int(nominal * self.scale))

    def rng(self, label: str) -> Any:
        """An independent seeded stream per workload and purpose."""
        from repro.util.rng import deterministic_rng

        return deterministic_rng((self.seed, zlib.crc32(f"{self.name}/{label}".encode())))

    def fresh_path(self, stem: str) -> Path:
        return self.workdir / f"{stem}-{next(self._fresh)}"

    def replace_written(self, path: Path) -> Path:
        """Delete the previous write op's target; ``path`` becomes the last one."""
        previous = self.last_written
        if previous is not None:
            if previous.is_dir():
                shutil.rmtree(previous)
            else:
                previous.unlink(missing_ok=True)
        self.last_written = path
        return path

    def note_input(self, *values: object) -> None:
        """Fold a generated input into the digest the repeatability check reads."""
        self.rng_digest.update(repr(values).encode())

    # Subclasses implement these.
    def prepare(self) -> None:
        """Generate the inputs (untimed, excluded from ``setup_s``)."""

    def setup(self) -> None:
        raise NotImplementedError

    def undo_setup(self) -> None:
        raise NotImplementedError

    def kind(self, sequence: int) -> str:
        return self.pattern[sequence % len(self.pattern)]

    def op(self, sequence: int, traced: bool = False) -> Op:
        """Op ``sequence`` of the seeded stream (``traced`` marks it for tracing)."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def footprint(self) -> tuple[int, int, int]:
        """(bytes on the store, data + system frames, payload bytes) at set-up."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """This process's high-water RSS: the program runs in-process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cache_counters(self) -> dict[str, int]:
        return {}

    def program_spans(self) -> list[list[Any]]:
        """Spans recorded in another process (the traced server)."""
        return []

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
class PaperBatch(Workload):
    name = "paper-batch"
    why = "the paper's TPC-H-to-paper run: pixel stages, raw-raster store I/O, Bootstrap, LZSS, db_load"

    def config(self) -> Any:
        from repro.api import ArchiveConfig

        return ArchiveConfig(
            media="paper", codec="portable", segment_size=128 * KIB,
            executor="thread:2", decode_parallelism=2, payload_kind="sql",
        )

    def prepare(self) -> None:
        self.payload = tpch_payload(self.size(400_000), self.seed)
        self.note_input(hashlib.sha256(self.payload).hexdigest())
        self.target = self.workdir / "setup.ule"

    def write(self, target: Path) -> None:
        from repro.api import open_archive

        with open_archive(self.config(), target=f"file:{target}") as writer:
            writer.write(self.payload)

    def setup(self) -> None:
        self.write(self.target)

    def undo_setup(self) -> None:
        self.target.unlink()

    def footprint(self) -> tuple[int, int, int]:
        return archive_footprint(f"file:{self.target}", self.target, len(self.payload))

    def op(self, sequence: int, traced: bool = False) -> Op:
        if self.kind(sequence) == "write":
            target = self.replace_written(self.fresh_path("archive").with_suffix(".ule"))
            return Op("write", lambda: self.write(target),
                      lambda _: manifest_matches(f"file:{target}", self.payload),
                      len(self.payload))
        return Op("read", lambda: restore(f"file:{self.target}"),
                  lambda result: result.payload == self.payload, len(self.payload))

    def finish(self) -> list[str]:
        written = self.last_written
        if written is not None and restore(f"file:{written}").payload != self.payload:
            return [f"{written.name}: full restore of the last archive differs"]
        return []


def restore(target: str, **overrides: object) -> Any:
    from repro.api import open_restore

    with open_restore(target, **overrides) as reader:
        return reader.read()


def archive_footprint(target: str, path: Path, payload_bytes: int) -> tuple[int, int, int]:
    from repro.api import open_restore

    with open_restore(target) as reader:
        manifest = reader.manifest
    frames = manifest.data_emblem_count + manifest.system_emblem_count
    return tree_bytes(path), frames, payload_bytes


# --------------------------------------------------------------------------- #
class DegradedVolumes(Workload):
    name = "degraded-volumes"
    why = "4 KiB reads through a k=4,m=2 volume set with 2 members lost: stripe repair and GF(256)"
    members = 6
    lost = (0, 1)
    pattern = ("write", "read", "read")

    def config(self) -> Any:
        from repro.api import ArchiveConfig

        return ArchiveConfig(media="test", codec="portable", segment_size=16 * KIB,
                             payload_kind="sql")

    def prepare(self) -> None:
        self.payload = tpch_payload(self.size(300_000), self.seed)
        self.note_input(hashlib.sha256(self.payload).hexdigest())
        self.root = self.workdir / "set"
        self.offsets = self.rng("offsets")
        self.slices = self.rng("slices")
        self.reader: Any = None

    def uri(self, root: Path) -> str:
        members = ",".join(str(root / f"vol{index}") for index in range(self.members))
        return f"vol:k=4,m=2:{members}"

    def setup(self) -> None:
        from repro.api import open_archive, open_restore

        with open_archive(self.config(), target=self.uri(self.root)) as writer:
            writer.write(self.payload)
        self.stored = tree_bytes(self.root)
        for index in self.lost:
            shutil.rmtree(self.root / f"vol{index}")
        self.reader = open_restore(self.uri(self.root))

    def undo_setup(self) -> None:
        self.reader.close()
        shutil.rmtree(self.root)

    def footprint(self) -> tuple[int, int, int]:
        manifest = self.reader.manifest
        frames = manifest.data_emblem_count + manifest.system_emblem_count
        return self.stored, frames, len(self.payload)

    def op(self, sequence: int, traced: bool = False) -> Op:
        if self.kind(sequence) == "write":
            span = min(16 * KIB, len(self.payload) // 2)
            start = int(self.slices.integers(0, len(self.payload) - span))
            self.note_input("write", start)
            part = self.payload[start:start + span]
            root = self.replace_written(self.fresh_path("fresh-set"))

            def write() -> None:
                from repro.api import open_archive

                # A slice cuts SQL rows apart, so it is archived as binary.
                config = self.config().replace(payload_kind="binary")
                with open_archive(config, target=self.uri(root)) as writer:
                    writer.write(part)

            self.last_part = part
            return Op("write", write, lambda _: manifest_matches(self.uri(root), part),
                      len(part))
        offset = int(self.offsets.integers(0, len(self.payload) - 4 * KIB))
        self.note_input("read", offset)
        expected = self.payload[offset:offset + 4 * KIB]
        return Op("read", lambda: self.reader.read_range(offset, 4 * KIB),
                  lambda data: data == expected, 4 * KIB)

    def finish(self) -> list[str]:
        written = self.last_written
        if written is not None and restore(self.uri(written)).payload != self.last_part:
            return ["full restore of the last fresh volume set differs"]
        return []

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()


# --------------------------------------------------------------------------- #
class ServiceMix(Workload):
    name = "service-mix"
    why = "one keep-alive HTTP client: Zipf ranged GETs over data 12x the segment cache, 1 in 10 a 4 KiB append"
    static_archives = 4
    segment = 16 * KIB
    zipf_exponent = 1.1
    newest_share = 0.1
    pattern = ("write",) + ("read",) * 9

    def prepare(self) -> None:
        # Each static dump is cut at the last row that fits whole segments,
        # so every static segment is full and a miss costs about the same.
        self.statics = []
        for index in range(self.static_archives):
            dump = tpch_payload(self.size(200_000), self.seed * 100 + index)
            whole = len(dump) // self.segment * self.segment
            self.statics.append(dump[:dump.rindex(b"\n", 0, whole) + 1] if whole else dump)
        appendix = tpch_payload(self.size(60_000), self.seed * 100 + 99)
        self.grow_initial = appendix[:16 * KIB]
        self.append_source = appendix[16 * KIB:]
        self.note_input([hashlib.sha256(p).hexdigest() for p in self.statics],
                        hashlib.sha256(appendix).hexdigest())
        static_bytes = sum(len(p) for p in self.statics)
        self.cache_bytes = static_bytes // 12
        # Static segments, hottest first: a seeded shuffle decides which
        # segment each Zipf rank lands on.
        self.hot = [
            (archive, start)
            for archive, payload in enumerate(self.statics)
            for start in range(0, len(payload), self.segment)
        ]
        self.hot = [self.hot[i] for i in self.rng("hot").permutation(len(self.hot))]
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(len(self.hot))]
        self.cumulative = list(itertools.accumulate(weights))
        self.requests = self.rng("requests")
        self.server: subprocess.Popen[bytes] | None = None
        self.connection: http.client.HTTPConnection | None = None
        self.spans_path = self.workdir / "server-spans.json"

    def setup(self) -> None:
        from repro.api import ArchiveConfig, open_archive

        self.root = self.workdir / "repository"
        self.root.mkdir()
        config = ArchiveConfig(media="test", codec="portable", segment_size=self.segment)
        for index, payload in enumerate(self.statics):
            with open_archive(config.replace(payload_kind="sql"),
                              target=f"file:{self.root / f'static{index}.ule'}") as writer:
                writer.write(payload)
        with open_archive(config, target=f"file:{self.root / 'grow.ule'}") as writer:
            writer.write(self.grow_initial)
        self.grown = bytearray(self.grow_initial)
        self.appends = 0
        self.start_server()

    def start_server(self) -> None:
        port_file = self.workdir / "port"
        port_file.unlink(missing_ok=True)
        serve = ["serve", "--root", str(self.root), "--port", "0",
                 "--port-file", str(port_file), "--cache-bytes", str(self.cache_bytes)]
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       "--spans", str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        # Fixed glibc allocator settings: with per-thread arenas and the
        # dynamic mmap threshold, the server's peak RSS and its decode
        # latency depended on allocation history (which pool thread served a
        # request, whether a large buffer was mmapped) and flipped between
        # two levels from run to run.
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), MALLOC_ARENA_MAX="1",
                   MALLOC_MMAP_THRESHOLD_=str(64 << 20), MALLOC_TRIM_THRESHOLD_=str(256 << 20))
        self.log = (self.workdir / "server.log").open("wb")
        self.server = subprocess.Popen(command, env=env, stdout=self.log,
                                       stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.server.poll() is not None or time.monotonic() > deadline:
                self.log.flush()
                log = (self.workdir / "server.log").read_text(errors="replace")
                raise RuntimeError(f"the archive server did not start:\n{log[-2000:]}")
            time.sleep(0.005)
        port = int(port_file.read_text())
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def stop_server(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
            self.log.close()

    def undo_setup(self) -> None:
        self.stop_server()
        shutil.rmtree(self.root)

    def footprint(self) -> tuple[int, int, int]:
        from repro.api import open_restore

        frames = 0
        payload = 0
        for path in sorted(self.root.glob("*.ule")):
            with open_restore(f"file:{path}") as reader:
                manifest = reader.manifest
            frames += manifest.data_emblem_count + manifest.system_emblem_count
            payload += manifest.archive_bytes
        return tree_bytes(self.root), frames, payload

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict[str, str] | None = None) -> tuple[int, bytes]:
        assert self.connection is not None
        self.connection.request(method, path, body=body, headers=headers or {})
        response = self.connection.getresponse()
        return response.status, response.read()

    def get_range(self, path: str, offset: int) -> tuple[int, bytes]:
        return self.request("GET", f"/archives/{path}",
                            headers={"Range": f"bytes={offset}-{offset + 4 * KIB - 1}"})

    def op(self, sequence: int, traced: bool = False) -> Op:
        query = f"?{TRACE_QUERY}=1" if traced else ""
        if self.kind(sequence) == "write":
            start = (self.appends * 4 * KIB) % (len(self.append_source) - 4 * KIB)
            chunk = self.append_source[start:start + 4 * KIB]
            self.appends += 1
            self.grown += chunk
            expected_length = len(self.grown)
            self.note_input("append", start)

            def check(reply: tuple[int, bytes]) -> bool:
                status, body = reply
                return status == 200 and json.loads(body)["payload_bytes"] == expected_length

            return Op("write", lambda: self.request(
                "POST", "/archives/grow/append" + query, body=chunk), check, len(chunk))
        if self.requests.random() < self.newest_share:
            name, offset = "grow", len(self.grown) - 4 * KIB
            expected = bytes(self.grown[offset:])
        else:
            rank = bisect.bisect_left(self.cumulative,
                                      self.requests.random() * self.cumulative[-1])
            archive, start = self.hot[min(rank, len(self.hot) - 1)]
            payload = self.statics[archive]
            end = min(start + self.segment, len(payload))
            offset = int(self.requests.integers(start, max(start + 1, end - 4 * KIB)))
            offset = min(offset, len(payload) - 4 * KIB)
            name, expected = f"static{archive}", payload[offset:offset + 4 * KIB]
        self.note_input("read", name, offset)
        return Op("read", lambda: self.get_range(name + "/data" + query, offset),
                  lambda reply: reply[0] == 206 and reply[1] == expected, 4 * KIB)

    def finish(self) -> list[str]:
        problems = []
        status, body = self.request("GET", "/archives/grow/data")
        if status != 200 or body != bytes(self.grown):
            problems.append(f"grown archive reads back wrong (HTTP {status}, "
                            f"{len(body)} of {len(self.grown)} bytes)")
        status, body = self.request("GET", "/archives/grow/verify")
        if status != 200 or not json.loads(body).get("ok"):
            problems.append(f"GET /archives/grow/verify failed (HTTP {status})")
        return problems

    def cache_counters(self) -> dict[str, int]:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered HTTP {status}")
        stats = json.loads(body)["repository"]["segment_cache"]
        return {key: int(stats[key]) for key in ("hits", "misses", "evictions")}

    def peak_rss_mb(self) -> float:
        """The server process's high-water RSS (``VmHWM``), read while it runs."""
        assert self.server is not None
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def program_spans(self) -> list[list[Any]]:
        self.stop_server()
        return load_spans(self.spans_path)

    def close(self) -> None:
        self.stop_server()


# --------------------------------------------------------------------------- #
class EmulatedRestore(Workload):
    name = "emulated-restore"
    why = "restores run the archived LZSS decoder under the DynaRisc emulator"
    setup_repeats = 5
    # A write takes ~30 ms and an emulated restore ~1.4 s: three writes per
    # restore give the write median ~45 samples a run instead of ~16.
    pattern = ("write", "read", "write", "write")

    def config(self) -> Any:
        from repro.api import ArchiveConfig

        return ArchiveConfig(media="test", codec="portable", segment_size=4 * KIB,
                             payload_kind="sql")

    def prepare(self) -> None:
        self.payload = tpch_payload(self.size(12_000), self.seed)
        self.note_input(hashlib.sha256(self.payload).hexdigest())
        self.target = self.workdir / "setup.ule"

    def write(self, target: Path) -> None:
        from repro.api import open_archive

        with open_archive(self.config(), target=f"file:{target}") as writer:
            writer.write(self.payload)

    def setup(self) -> None:
        self.write(self.target)

    def undo_setup(self) -> None:
        self.target.unlink()

    def footprint(self) -> tuple[int, int, int]:
        return archive_footprint(f"file:{self.target}", self.target, len(self.payload))

    def op(self, sequence: int, traced: bool = False) -> Op:
        if self.kind(sequence) == "write":
            target = self.replace_written(self.fresh_path("archive").with_suffix(".ule"))
            return Op("write", lambda: self.write(target),
                      lambda _: manifest_matches(f"file:{target}", self.payload),
                      len(self.payload))

        def check_restore(result: Any) -> bool:
            self.emulator_steps += result.emulator_steps
            return result.payload == self.payload and result.emulator_steps > 0

        return Op("read", lambda: restore(f"file:{self.target}", decode_mode="dynarisc"),
                  check_restore, len(self.payload))

    def finish(self) -> list[str]:
        written = self.last_written
        if written is not None and restore(
                f"file:{written}", decode_mode="dynarisc").payload != self.payload:
            return [f"{written.name}: emulated restore of the last archive differs"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperBatch, DegradedVolumes, ServiceMix, EmulatedRestore)
}
