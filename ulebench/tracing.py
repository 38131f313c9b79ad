"""In-memory span tracing around the public entry points of each layer.

The benchmark never edits the program: :meth:`Tracer.install` replaces
selected functions and methods of ``repro`` with thin wrappers that record a
span (name, start, end, parent span, op id, attributes) around the original
call and restore the originals in :meth:`Tracer.uninstall`.  Spans stay in
memory and are written out once, when the run ends (:meth:`Tracer.dump`).

Times come from ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, one
clock for every process on the machine — so spans recorded inside the
traced server child line up with the client's op windows.

The span name's first component is the layer: ``dbcoder``, ``mocoder``,
``pipeline``, ``store``, ``volumes``, ``server``, ``bootstrap``, ``dbms``,
``dynarisc``.  :func:`layer_metrics` turns spans into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

LAYERS = (
    "dbcoder", "mocoder", "pipeline", "store", "volumes",
    "server", "bootstrap", "dbms", "dynarisc",
)

#: Every per-layer metric: name -> (unit, which direction is better).
#: ``BENCHMARK.json``'s ``per_layer`` list mirrors this table.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "dbcoder.encode_mb_per_s": ("MB/s", "higher"),
    "dbcoder.decode_mb_per_s": ("MB/s", "higher"),
    "dbcoder.compressed_bytes_per_payload_byte": ("B/B", "lower"),
    "mocoder.encode_mpx_per_s": ("Mpx/s", "higher"),
    "mocoder.decode_mpx_per_s": ("Mpx/s", "higher"),
    "mocoder.decode_busy_share": ("ratio", "lower"),
    "mocoder.system_decode_s": ("s", "lower"),
    "mocoder.frames_decoded_per_read": ("frames", "lower"),
    "mocoder.rs_corrections": ("count", "lower"),
    "mocoder.outer_reconstructions_per_read": ("count", "lower"),
    "mocoder.outer_reconstruct_mb_per_s": ("MB/s", "higher"),
    "pipeline.encode_wait_s": ("s", "lower"),
    "pipeline.decode_wait_s": ("s", "lower"),
    "pipeline.segments_decoded_per_read": ("count", "lower"),
    "store.write_mb_per_s": ("MB/s", "higher"),
    "store.bytes_written_per_payload_byte": ("B/B", "lower"),
    "store.read_mb_per_s": ("MB/s", "higher"),
    "store.bytes_read_per_payload_byte": ("B/B", "lower"),
    "store.manifest_write_ms": ("ms", "lower"),
    "volumes.get_frames_busy_share": ("ratio", "lower"),
    "volumes.repairs_per_read": ("count", "lower"),
    "volumes.repair_useful_ratio": ("ratio", "higher"),
    "server.repository_read_ms_p50": ("ms", "lower"),
    "server.http_overhead_ms_p50": ("ms", "lower"),
    "server.append_commit_ms_p50": ("ms", "lower"),
    "server.reader_opens": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "bootstrap.build_s": ("s", "lower"),
    "bootstrap.parse_s": ("s", "lower"),
    "dbms.load_mb_per_s": ("MB/s", "higher"),
    "dynarisc.steps_per_s": ("1/s", "higher"),
    "dynarisc.steps_per_payload_byte": ("steps/B", "lower"),
    "dynarisc.busy_share": ("ratio", "lower"),
    **{f"{layer}.self_ms_per_op": ("ms", "lower") for layer in LAYERS},
    "trace.read_overhead_share": ("ratio", "lower"),
    "trace.write_overhead_share": ("ratio", "lower"),
}

#: Query parameter that marks a request to the traced server for tracing.
TRACE_QUERY = "bench-trace"

# Span record layout (plain lists keep tracing cheap).
NAME, START, END, PARENT, OP, ATTRS = range(6)

_SINK_METHODS = ("put_frame", "put_frames", "put_bytes", "put_text", "put_manifest")
_SOURCE_METHODS = ("get_frame", "get_frames", "get_bytes", "get_text")


class Tracer:
    """Collects spans; wraps and unwraps the program's layer entry points."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Id of the op the benchmark loop is timing, stamped on every span.
        self.op: int | None = None
        #: Index of that op's root span: the parent of spans opened on a
        #: thread with no span of its own (executor and fetch-pool workers).
        self.op_span: int | None = None
        #: Wrappers record only while this is set; the benchmark loop turns it on
        #: for every other op of each kind, so traced and untraced ops
        #: interleave and their difference is the tracing overhead.
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict[str, Any] | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.op_span
        record = [name, time.perf_counter(), None, parent, self.op, attrs]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def annotate(self, index: int, **attrs: Any) -> None:
        record = self.spans[index]
        if record[ATTRS] is None:
            record[ATTRS] = {}
        for key, value in attrs.items():
            record[ATTRS][key] = record[ATTRS].get(key, 0) + value

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self.op_span = None
        self.op_span = self.begin(f"op.{kind}")

    def end_op(self) -> None:
        if self.op_span is not None:
            self.end(self.op_span)
        self.op = None
        self.op_span = None

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[..., None] | None = None,
        *,
        before: Callable[..., dict[str, Any]] | None = None,
        guard: str | None = None,
    ) -> None:
        """Record a ``name`` span around ``owner.attr``.

        ``before(args)`` may return attributes to open the span with and
        ``after(tracer, span, args, kwargs, result)`` may annotate it with
        counts.  Calls made while a span of the same ``guard`` group is
        open on this thread run unrecorded, so a backend method that calls
        its own siblings (``put_frames`` looping ``put_frame``) counts once.
        """
        raw = owner.__dict__.get(attr)
        if raw is None:
            return
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            if guard is not None:
                depth = getattr(tracer._local, guard, 0)
                if depth:
                    return function(*args, **kwargs)
                setattr(tracer._local, guard, 1)
            span = tracer.begin(name, before(args) if before is not None else None)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span)
                if guard is not None:
                    setattr(tracer._local, guard, 0)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(function, "__name__", attr)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        self._patch(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_iterator(self, owner: Any, attr: str, name: str) -> None:
        """Count the items a generator method yields (one span per item)."""
        function = owner.__dict__.get(attr)
        if function is None:
            return
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            if not tracer.enabled:
                return function(*args, **kwargs)
            return tracer._count_items(function(*args, **kwargs), name)

        wrapper.__name__ = function.__name__
        self._patch(owner, attr, wrapper)

    def _count_items(self, iterator: Iterator[Any], name: str) -> Iterator[Any]:
        try:
            for item in iterator:
                span = self.begin(name)
                self.end(span)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def wrap_map_ordered(self, owner: Any) -> None:
        """Time how long the consumer of ``map_ordered`` waits per result."""
        function = owner.__dict__.get("map_ordered")
        if function is None:
            return
        tracer = self

        def wrapper(executor: Any, job: Any, items: Any) -> Iterator[Any]:
            if not tracer.enabled:
                return function(executor, job, items)
            kind = "encode" if "encode" in getattr(job, "__name__", "") else "decode"
            return tracer._timed_results(function(executor, job, items), kind)

        wrapper.__name__ = "map_ordered"
        self._patch(owner, "map_ordered", wrapper)

    def _timed_results(self, iterator: Iterator[Any], kind: str) -> Iterator[Any]:
        try:
            while True:
                span = self.begin(f"pipeline.{kind}_wait")
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(span)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def install(self, *, server: bool = False) -> None:
        """Wrap the entry points of every layer (``server`` adds the service)."""
        import repro.api.session as session
        import repro.core.restorer as restorer
        import repro.pipeline.pipeline as pipeline
        import repro.store.backends as backends
        import repro.store.volumes as volumes
        from repro import registry
        from repro.bootstrap.document import BootstrapDocument
        from repro.dynarisc.emulator import DynaRiscEmulator
        from repro.mocoder.emblem import EmblemKind
        from repro.mocoder.mocoder import EncodedStream, MOCoder
        from repro.mocoder.outer_code import OuterCode
        from repro.pipeline import executors

        self.wrap(registry.Codec, "encode", "dbcoder.encode", _codec_encoded)
        self.wrap(registry.Codec, "decode", "dbcoder.decode", _codec_decoded)

        self.wrap(MOCoder, "encode", "mocoder.encode")
        self.wrap(EncodedStream, "images_array", "mocoder.render", _rendered)
        self.wrap(MOCoder, "decode", "mocoder.decode", _stream_decoded)
        system = int(EmblemKind.SYSTEM)
        self.wrap(MOCoder, "decode_images", "mocoder.decode_images",
                  lambda t, s, a, k, r: _images_decoded(t, s, a, k, r, system),
                  before=lambda args: {"rs_before": args[2].rs_corrections})
        self.wrap(OuterCode, "reconstruct_group", "mocoder.reconstruct_group",
                  _group_reconstructed)

        for executor in (executors.SerialExecutor, executors._PoolExecutor):
            self.wrap_map_ordered(executor)
        for method in ("iter_decode", "iter_decode_selected", "iter_decode_containers"):
            self.wrap_iterator(pipeline.RestorePipeline, method, "pipeline.segment_decoded")

        for base, methods in ((backends.ArchiveSink, _SINK_METHODS),
                              (backends.ArchiveSource, _SOURCE_METHODS)):
            for cls in _subclasses(base):
                layer = "volumes" if cls.__module__ == volumes.__name__ else "store"
                for method in methods:
                    self.wrap(cls, method, f"{layer}.{method}", _store_bytes,
                              guard=f"{layer}_depth")

        for module in (session, pipeline):
            self.wrap(module, "build_system_artifacts", "bootstrap.build")
        self.wrap(BootstrapDocument, "parse", "bootstrap.parse")
        self.wrap(restorer, "db_load", "dbms.load", _loaded)
        self.wrap(DynaRiscEmulator, "run", "dynarisc.run", _emulated)

        if server:
            import repro.server.app as app
            import repro.server.repository as repository

            self._trace_requests_by_query(app)
            self.wrap(repository.ArchiveRepository, "read_range", "server.read_range")
            self.wrap(repository.WriteSession, "commit", "server.commit")
            self.wrap(repository, "open_restore", "server.open_reader")

    def _trace_requests_by_query(self, app: Any) -> None:
        """Trace exactly the requests whose query carries ``bench-trace=1``.

        The benchmark's client is one closed loop on one connection, so the
        flag set when a request is read holds until that request's reply.
        """
        original = app.__dict__["read_request"]
        tracer = self

        async def read_request(*args: Any, **kwargs: Any) -> Any:
            request = await original(*args, **kwargs)
            if request is not None:
                tracer.enabled = request.query.get(TRACE_QUERY) == "1"
            return request

        self._patch(app, "read_request", read_request)


def _subclasses(base: type) -> list[type]:
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


# ---------------------------------------------------------------------- #
# Span annotators: (tracer, span, args, kwargs, result) -> None
# ---------------------------------------------------------------------- #
def _codec_encoded(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    tracer.annotate(span, bytes_in=len(args[1]), bytes_out=len(result))


def _codec_decoded(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    tracer.annotate(span, bytes_out=len(result))


def _rendered(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    tracer.annotate(span, pixels=int(result.size))


def _stream_decoded(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    images = args[1]
    tracer.annotate(span, pixels=sum(int(image.size) for image in images))


def _images_decoded(
    tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any, system: int
) -> None:
    images = args[1]
    report = args[2]
    tracer.annotate(span, frames=len(images), pixels=sum(int(i.size) for i in images),
                    rs_corrections=report.rs_corrections - tracer.spans[span][ATTRS]["rs_before"])
    if any(int(emblem.header.kind) == system for emblem in result.values()):
        parent = tracer.spans[span][PARENT]
        if parent is not None and tracer.spans[parent][NAME] == "mocoder.decode":
            tracer.annotate(parent, system=1)


def _group_reconstructed(
    tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any
) -> None:
    outer = args[0]
    shards = args[1]
    missing = sum(1 for shard in shards[: outer.data_shards] if shard is None)
    if not missing:
        return
    # A strided sample of each surviving shard tells stripes apart without
    # hashing whole frames inside the timed op.
    present = tuple(bytes(shard[::251]) for shard in shards if shard is not None)
    tracer.annotate(span, repairs=1, bytes_out=sum(len(part) for part in result))
    tracer.spans[span][ATTRS]["stripe"] = hash(present)


def _store_bytes(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    name = tracer.spans[span][NAME]
    method = name.split(".", 1)[1]
    if method == "put_frame":
        size = int(args[3].nbytes)
    elif method == "put_frames":
        images = args[3]
        size = sum(int(image.nbytes) for image in images) if isinstance(
            images, (list, tuple)) else int(getattr(images, "nbytes", 0))
    elif method in ("put_bytes", "put_text"):
        size = len(args[2])
    elif method == "put_manifest":
        size = 0
    elif method == "get_frame":
        size = int(result.nbytes)
    elif method == "get_frames":
        size = sum(int(image.nbytes) for image in result)
    else:
        size = len(result)
    tracer.annotate(span, bytes=size)


def _loaded(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    tracer.annotate(span, bytes=len(args[0]))


def _emulated(tracer: Tracer, span: int, args: Any, kwargs: Any, result: Any) -> None:
    tracer.annotate(span, steps=int(args[0].steps))


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def self_times(spans: list[list[Any]]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None and record[END] is not None:
            children.setdefault(parent, []).append((record[START], record[END]))
    result: dict[int, float] = {}
    for index, record in enumerate(spans):
        if record[END] is None:
            continue
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[index] = (end - start) - covered
    return result


def _sum(spans: list[list[Any]], name: str, key: str | None = None) -> float:
    if key is None:
        return sum(r[END] - r[START] for r in spans if r[NAME] == name)
    return sum((r[ATTRS] or {}).get(key, 0) for r in spans if r[NAME] == name)


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[list[Any]],
    *,
    window: tuple[float, float],
    ops: dict[str, Any],
    cache: dict[str, int],
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``spans`` are every span of the run (client and server), ``window`` the
    timed interval (spans starting outside it, i.e. warm-up and final checks,
    are dropped), ``ops`` what the loop timed: ``wall_s`` (summed op wall
    time), ``reads``, ``read_payload_bytes``, ``write_payload_bytes``,
    ``read_windows`` (client read intervals, for the HTTP overhead) and
    ``emulator_steps``; ``cache`` the segment-cache counter deltas.
    """
    lo, hi = window
    kept = [r for r in spans if r[END] is not None and lo <= r[START] <= hi]
    index_map = {id(r): i for i, r in enumerate(kept)}
    original_index = {i: r for i, r in enumerate(spans)}
    # Re-point parents into the filtered list (a parent outside the window
    # drops the link; the child then counts as a root).
    remapped: list[list[Any]] = []
    for record in kept:
        parent = record[PARENT]
        parent_record = original_index.get(parent) if parent is not None else None
        new_parent = index_map.get(id(parent_record)) if parent_record is not None else None
        remapped.append([record[NAME], record[START], record[END], new_parent,
                         record[OP], record[ATTRS]])
    kept = remapped

    wall = ops["wall_s"]
    reads = ops["reads"]
    writes = ops["writes"]
    read_bytes = ops["read_payload_bytes"]
    write_bytes = ops["write_payload_bytes"]
    metrics: dict[str, float] = {}

    encode_in = _sum(kept, "dbcoder.encode", "bytes_in")
    metrics["dbcoder.encode_mb_per_s"] = _rate(encode_in / 1e6, _sum(kept, "dbcoder.encode"))
    metrics["dbcoder.decode_mb_per_s"] = _rate(
        _sum(kept, "dbcoder.decode", "bytes_out") / 1e6, _sum(kept, "dbcoder.decode"))
    metrics["dbcoder.compressed_bytes_per_payload_byte"] = _rate(
        _sum(kept, "dbcoder.encode", "bytes_out"), encode_in)

    metrics["mocoder.encode_mpx_per_s"] = _rate(
        _sum(kept, "mocoder.render", "pixels") / 1e6,
        _sum(kept, "mocoder.encode") + _sum(kept, "mocoder.render"))
    metrics["mocoder.decode_mpx_per_s"] = _rate(
        _sum(kept, "mocoder.decode_images", "pixels") / 1e6,
        _sum(kept, "mocoder.decode_images"))
    metrics["mocoder.decode_busy_share"] = _rate(_sum(kept, "mocoder.decode_images"), wall)
    metrics["mocoder.system_decode_s"] = _rate(sum(
        r[END] - r[START] for r in kept
        if r[NAME] == "mocoder.decode" and (r[ATTRS] or {}).get("system")
    ), reads)
    metrics["mocoder.frames_decoded_per_read"] = _rate(
        _sum(kept, "mocoder.decode_images", "frames"), reads)
    metrics["mocoder.rs_corrections"] = float(
        _sum(kept, "mocoder.decode_images", "rs_corrections"))
    repairs = [r for r in kept if r[NAME] == "mocoder.reconstruct_group"
               and (r[ATTRS] or {}).get("repairs")]
    metrics["mocoder.outer_reconstructions_per_read"] = _rate(len(repairs), reads)
    metrics["mocoder.outer_reconstruct_mb_per_s"] = _rate(
        sum(r[ATTRS]["bytes_out"] for r in repairs) / 1e6,
        sum(r[END] - r[START] for r in repairs))

    metrics["pipeline.encode_wait_s"] = _rate(_sum(kept, "pipeline.encode_wait"), writes)
    metrics["pipeline.decode_wait_s"] = _rate(_sum(kept, "pipeline.decode_wait"), reads)
    metrics["pipeline.segments_decoded_per_read"] = _rate(
        sum(1 for r in kept if r[NAME] == "pipeline.segment_decoded"), reads)

    written = sum((r[ATTRS] or {}).get("bytes", 0) for r in kept
                  if r[NAME].startswith("store.put"))
    read = sum((r[ATTRS] or {}).get("bytes", 0) for r in kept
               if r[NAME].startswith("store.get"))
    write_time = sum(r[END] - r[START] for r in kept if r[NAME].startswith("store.put"))
    read_time = sum(r[END] - r[START] for r in kept if r[NAME].startswith("store.get"))
    metrics["store.write_mb_per_s"] = _rate(written / 1e6, write_time)
    metrics["store.bytes_written_per_payload_byte"] = _rate(written, write_bytes)
    metrics["store.read_mb_per_s"] = _rate(read / 1e6, read_time)
    metrics["store.bytes_read_per_payload_byte"] = _rate(read, read_bytes)
    manifest_writes = [
        r[END] - r[START] for r in kept
        if r[NAME].endswith(".put_manifest")
        and (r[PARENT] is None or not kept[r[PARENT]][NAME].endswith(".put_manifest"))
    ]
    metrics["store.manifest_write_ms"] = _median_ms(manifest_writes)

    volume_reads = [i for i, r in enumerate(kept) if r[NAME] == "volumes.get_frames"]
    metrics["volumes.get_frames_busy_share"] = _rate(
        sum(kept[i][END] - kept[i][START] for i in volume_reads), wall)
    volume_repairs = [r for r in repairs if _inside(kept, r, "volumes.")]
    metrics["volumes.repairs_per_read"] = _rate(len(volume_repairs), reads)
    metrics["volumes.repair_useful_ratio"] = _rate(
        len({r[ATTRS]["stripe"] for r in volume_repairs}), len(volume_repairs))

    repository_reads = sorted(
        (r[START], r[END]) for r in kept if r[NAME] == "server.read_range")
    metrics["server.repository_read_ms_p50"] = _median_ms(
        [end - start for start, end in repository_reads])
    metrics["server.http_overhead_ms_p50"] = _median_ms(
        _http_overheads(ops.get("read_windows", []), repository_reads))
    metrics["server.append_commit_ms_p50"] = _median_ms(
        [r[END] - r[START] for r in kept if r[NAME] == "server.commit"])
    metrics["server.reader_opens"] = float(
        sum(1 for r in kept if r[NAME] == "server.open_reader"))

    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["cache.hit_ratio"] = _rate(cache.get("hits", 0), lookups)
    metrics["cache.misses"] = float(cache.get("misses", 0))
    metrics["cache.evictions"] = float(cache.get("evictions", 0))

    metrics["bootstrap.build_s"] = _rate(_sum(kept, "bootstrap.build"), writes)
    metrics["bootstrap.parse_s"] = _rate(_sum(kept, "bootstrap.parse"), reads)
    metrics["dbms.load_mb_per_s"] = _rate(
        _sum(kept, "dbms.load", "bytes") / 1e6, _sum(kept, "dbms.load"))

    steps = _sum(kept, "dynarisc.run", "steps")
    emulated = _sum(kept, "dynarisc.run")
    metrics["dynarisc.steps_per_s"] = _rate(steps, emulated)
    metrics["dynarisc.steps_per_payload_byte"] = _rate(steps, read_bytes)
    metrics["dynarisc.busy_share"] = _rate(emulated, wall)

    own = self_times(kept)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for index, seconds in own.items():
        layer = kept[index][NAME].split(".", 1)[0]
        if layer in per_layer:
            per_layer[layer] += seconds
    for layer, seconds in per_layer.items():
        metrics[f"{layer}.self_ms_per_op"] = _rate(seconds * 1000.0, ops["ops"])
    return metrics


def _inside(spans: list[list[Any]], record: list[Any], prefix: str) -> bool:
    parent = record[PARENT]
    while parent is not None:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def _http_overheads(
    client: list[tuple[float, float]], server: list[tuple[float, float]]
) -> list[float]:
    """Client latency minus the repository time inside each client read."""
    overheads: list[float] = []
    position = 0
    for start, end in sorted(client):
        while position < len(server) and server[position][0] < start:
            position += 1
        if position < len(server) and server[position][1] <= end:
            s_start, s_end = server[position]
            overheads.append((end - start) - (s_end - s_start))
            position += 1
    return overheads


def load_spans(path: Path) -> list[list[Any]]:
    return json.loads(path.read_text()) if path.exists() else []
