"""The unified public facade of the ULE / Micr'Olonys reproduction.

This package is the canonical way in and out of the system:

* :class:`ArchiveConfig` — one JSON-round-trippable dataclass naming every
  pluggable choice (media channel, codec, executor, distortion, segment
  size, decode mode) through :mod:`repro.registry`;
* :func:`open_archive` / :func:`open_restore` — session-based streaming I/O
  over the pipeline (context managers, chunked ``write``, progress
  callbacks), persisting to / reading from any :mod:`repro.store` backend
  (``target=``/``store=``), with random-access
  :meth:`~repro.api.session.ArchiveReader.read_range` /
  :meth:`~repro.api.session.ArchiveReader.restore_segment` partial restore;
* :func:`run_end_to_end` — all seven steps of Figure 2a, including the
  channel ``record``/``scan`` hop, in a single call;
* ``python -m repro`` (:mod:`repro.api.cli`) — ``archive`` / ``restore`` /
  ``inspect`` / ``profiles`` subcommands built on the same facade.
"""

from repro.api.config import ArchiveConfig
from repro.api.session import (
    ArchiveReader,
    ArchiveWriter,
    EndToEndResult,
    SegmentCacheLike,
    open_archive,
    open_restore,
    run_end_to_end,
)

__all__ = [
    "ArchiveConfig",
    "ArchiveReader",
    "ArchiveWriter",
    "EndToEndResult",
    "SegmentCacheLike",
    "open_archive",
    "open_restore",
    "run_end_to_end",
]
