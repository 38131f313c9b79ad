"""Micr'Olonys: the end-to-end ULE archival system.

This package ties the substrates together into the two flows of Figure 2:

* the archival steps — dump the database, compress it with DBCoder, lay it
  out as data emblems with MOCoder, archive the DBCoder decoder as system
  emblems, and render the Bootstrap document holding the DynaRisc emulator
  and the MOCoder decoder as letter pages — run through
  :func:`repro.api.open_archive` over :class:`repro.pipeline.ArchivePipeline`
  and produce a :class:`~repro.core.archive.MicrOlonysArchive`;
* :class:`~repro.core.restorer.RestoreEngine` — the six restoration steps,
  up to and including loading the recovered SQL archive into the miniature
  DBMS; optionally the database-layout decoding runs inside the emulated
  DynaRisc processor (or the full nested VeRisc stack), exactly as a future
  user would run it.  :func:`repro.api.open_restore` is its facade.
"""

from repro.core.profiles import (
    MediaProfile,
    PAPER_PROFILE,
    MICROFILM_PROFILE,
    MICROFILM_DENSE_PROFILE,
    CINEMA_PROFILE,
    TEST_PROFILE,
    DNA_PROFILE,
    get_profile,
    PROFILES,
)
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord
from repro.core.restorer import (
    GenerationInfo,
    RestorationResult,
    RestoreEngine,
    VerifyReport,
)

__all__ = [
    "RestoreEngine",
    "VerifyReport",
    "GenerationInfo",
    "SegmentRecord",
    "MediaProfile",
    "PAPER_PROFILE",
    "MICROFILM_PROFILE",
    "MICROFILM_DENSE_PROFILE",
    "CINEMA_PROFILE",
    "TEST_PROFILE",
    "DNA_PROFILE",
    "PROFILES",
    "get_profile",
    "ArchiveManifest",
    "MicrOlonysArchive",
    "RestorationResult",
]
