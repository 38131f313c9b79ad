"""Unified target-URI addressing: one front door for every archive target.

Target spellings had sprawled across the API surface — bare filesystem
paths (backend sniffed by shape), ``mem:<name>`` strings, an explicit
``--store``/``store=`` override, and ``http(s)://`` URLs accepted only by
``inspect``.  A sharded volume set (:mod:`repro.store.volumes`) has no
legacy spelling at all.  This module gives every spelling one grammar and
one parser, :func:`parse_target`, which returns a typed :class:`TargetSpec`:

``dir:/path/to/archive``
    A ``directory`` backend archive (one PGM file per frame).
``file:/path/to/archive.ule``
    A ``container`` backend archive (single indexed record file).
``mem:name``
    An in-process ``memory`` backend archive.
``http://host:port/archives/name`` / ``https://...``
    A remote archive served by :mod:`repro.server` (read-only client paths).
``vol:k=4,m=2,stripe=1:/mnt/a,/mnt/b,...``
    A sharded **volume set**: K data + M parity member volumes, each member
    itself a ``dir:``/``file:``/``mem:`` target (scheme optional — bare
    members are sniffed by shape).  ``k``/``m``/``stripe`` may be omitted
    and fall back to the session's :class:`~repro.api.ArchiveConfig`
    defaults.

Bare paths keep working: a scheme-less string, like a
:class:`pathlib.Path`, is a filesystem path whose backend (directory or
container) is inferred from the target's shape.  Unknown schemes raise the
registry-style did-you-mean :class:`~repro.errors.UnknownNameError`.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import StoreError, UnknownNameError

__all__ = [
    "TargetSpec",
    "VolumeSetSpec",
    "parse_target",
    "parse_member",
]

#: Schemes the target grammar understands.
KNOWN_SCHEMES = ("dir", "file", "mem", "http", "https", "vol")

#: scheme -> storage-backend registry name (remote schemes have no backend).
_SCHEME_STORES = {
    "dir": "directory",
    "file": "container",
    "mem": "memory",
    "vol": "volumes",
}

#: storage-backend registry name -> canonical scheme.
_STORE_SCHEMES = {store: scheme for scheme, store in _SCHEME_STORES.items()}

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")

#: Keys legal in a ``vol:`` options segment.
_VOL_OPTIONS = ("k", "m", "stripe")


@dataclass(frozen=True)
class VolumeSetSpec:
    """The parsed geometry of one ``vol:`` target.

    ``data``/``parity``/``stripe`` stay ``None`` when the URI omitted them;
    :meth:`resolved` fills the gaps from session defaults and validates the
    final shape.
    """

    #: Member volume targets, in shard order: data volumes first, then
    #: parity volumes.  Each is a ``dir:``/``file:``/``mem:`` target or a
    #: bare path (sniffed by :func:`parse_member`).
    members: tuple[str, ...]
    #: K — number of data volumes (``None``: derive from ``parity``).
    data: int | None = None
    #: M — number of parity volumes (``None``: session default).
    parity: int | None = None
    #: Frames per shard within one stripe (``None``: session default).
    stripe: int | None = None

    def resolved(self, default_parity: int = 1, default_stripe: int = 1) -> "VolumeSetSpec":
        """A fully-specified copy, with defaults applied and shape-checked."""
        total = len(self.members)
        parity = self.parity
        data = self.data
        if parity is None and data is None:
            parity = default_parity
        if parity is None:
            assert data is not None
            parity = total - data
        if data is None:
            data = total - parity
        stripe = self.stripe if self.stripe is not None else default_stripe
        if data + parity != total:
            raise StoreError(
                f"volume set lists {total} members but k={data} + m={parity} "
                f"= {data + parity}; the counts must match the member list"
            )
        if data < 1 or parity < 1:
            raise StoreError(
                f"a volume set needs at least 1 data and 1 parity volume, "
                f"got k={data}, m={parity}"
            )
        if total > 255:
            raise StoreError(
                f"a volume set cannot exceed 255 volumes (GF(256) erasure "
                f"coding), got {total}"
            )
        if stripe < 1:
            raise StoreError(f"volume stripe depth must be >= 1, got {stripe}")
        return VolumeSetSpec(self.members, data, parity, stripe)

    def uri(self) -> str:
        """The canonical ``vol:`` spelling of this spec."""
        options = [
            f"{key}={value}"
            for key, value in (("k", self.data), ("m", self.parity), ("stripe", self.stripe))
            if value is not None
        ]
        head = f"{','.join(options)}:" if options else ""
        return f"vol:{head}{','.join(self.members)}"


@dataclass(frozen=True)
class TargetSpec:
    """One parsed archive target: where it lives and which backend owns it."""

    #: Canonical scheme: one of :data:`KNOWN_SCHEMES`, or ``"path"`` for a
    #: scheme-less filesystem target.
    scheme: str
    #: Storage-backend registry name (``directory``/``container``/``memory``/
    #: ``volumes``); ``None`` for remote (``http(s)``) targets and for
    #: not-yet-existing bare paths whose backend could not be inferred.
    store: str | None
    #: The backend-native target (a filesystem path, a ``mem:`` key, a
    #: canonical ``vol:`` URI, or a full URL for remote targets).
    target: str
    #: Parsed volume-set geometry, for ``vol:`` targets only.
    volumes: VolumeSetSpec | None = None

    @property
    def is_remote(self) -> bool:
        """True for ``http(s)`` targets (served by :mod:`repro.server`)."""
        return self.scheme in ("http", "https")

    def uri(self) -> str:
        """A canonical URI spelling of this target."""
        if self.is_remote:
            return self.target
        if self.volumes is not None:
            return self.volumes.uri()
        if self.scheme == "mem":
            return self.target if self.target.startswith("mem:") else f"mem:{self.target}"
        if self.store is not None and self.store in _STORE_SCHEMES:
            return f"{_STORE_SCHEMES[self.store]}:{self.target}"
        return self.target

    def with_volume_defaults(self, parity: int, stripe: int) -> "TargetSpec":
        """A copy whose volume geometry is resolved against session defaults
        (no-op for non-volume targets)."""
        if self.volumes is None:
            return self
        resolved = self.volumes.resolved(default_parity=parity, default_stripe=stripe)
        return replace(self, volumes=resolved, target=resolved.uri())


def _canonical_store(name: str) -> str:
    from repro import registry  # lazy: registry imports repro.store

    return registry.stores.resolve_name(name)


def _unknown_scheme(scheme: str) -> UnknownNameError:
    choices = list(KNOWN_SCHEMES)
    close = difflib.get_close_matches(scheme.lower(), choices, n=1, cutoff=0.5)
    return UnknownNameError("target scheme", scheme, choices, close[0] if close else None)


def _infer_path_store(path: Path) -> str | None:
    """Backend of an existing filesystem target, ``None`` when absent."""
    if path.is_dir():
        return "directory"
    if path.is_file():
        return "container"
    return None


def _check_store_override(spec: TargetSpec, store: str | None, raw: object) -> TargetSpec:
    """Apply an explicit ``store=`` override, rejecting contradictions."""
    if store is None:
        return spec
    if spec.is_remote:
        raise StoreError(
            f"remote target {spec.target!r} is served over HTTP; it has no "
            f"local storage backend (store={store!r} was passed)"
        )
    canonical = _canonical_store(store)
    if spec.store is not None and spec.store != canonical:
        raise StoreError(
            f"target {raw!r} names the {spec.store!r} backend but "
            f"store={store!r} was passed; drop one of the two spellings"
        )
    return replace(spec, store=canonical)


def _parse_volume_options(text: str) -> dict[str, int]:
    options: dict[str, int] = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in _VOL_OPTIONS:
            raise StoreError(
                f"unknown volume-set option {key!r} (valid options: "
                f"{', '.join(_VOL_OPTIONS)})"
            )
        try:
            options[key] = int(value)
        except ValueError:
            raise StoreError(
                f"volume-set option {key!r} must be an integer, got {value!r}"
            ) from None
    return options


def _parse_volume_spec(rest: str) -> VolumeSetSpec:
    """Parse the text after ``vol:`` into a :class:`VolumeSetSpec`."""
    head, colon, tail = rest.partition(":")
    if colon and head and all("=" in part for part in head.split(",")):
        options = _parse_volume_options(head)
        member_text = tail
    else:
        options = {}
        member_text = rest
    members = tuple(part.strip() for part in member_text.split(",") if part.strip())
    if len(members) < 2:
        raise StoreError(
            f"a volume set needs at least 2 member volumes, got "
            f"{len(members)} in {'vol:' + rest!r}"
        )
    for member in members:
        match = _SCHEME_RE.match(member)
        if match and match.group(1).lower() in ("vol", "http", "https"):
            raise StoreError(
                f"volume-set member {member!r} uses the {match.group(1)!r} "
                "scheme; members must be local dir:/file:/mem: targets"
            )
    spec = VolumeSetSpec(
        members=members,
        data=options.get("k"),
        parity=options.get("m"),
        stripe=options.get("stripe"),
    )
    if spec.data is not None and spec.parity is not None:
        spec.resolved()  # validate the fully-specified shape eagerly
    return spec


def parse_member(raw: str) -> tuple[str, str]:
    """Resolve one volume-set member to ``(backend name, backend target)``.

    Members with an explicit ``dir:``/``file:``/``mem:`` scheme use it; bare
    members are sniffed silently by shape (existing directory/file, else a
    ``.ule`` suffix means container, anything else a directory to create).
    """
    match = _SCHEME_RE.match(raw)
    if match:
        scheme = match.group(1).lower()
        if scheme == "mem":
            return "memory", raw
        if scheme in ("dir", "file"):
            return _SCHEME_STORES[scheme], raw[match.end():]
        raise _unknown_scheme(match.group(1))
    path = Path(raw)
    inferred = _infer_path_store(path)
    if inferred is not None:
        return inferred, raw
    return ("container" if raw.endswith(".ule") else "directory"), raw


def parse_target(
    raw: "str | Path | TargetSpec",
    *,
    store: str | None = None,
    default_store: str | None = None,
) -> TargetSpec:
    """Parse any archive-target spelling into a :class:`TargetSpec`.

    Parameters
    ----------
    raw:
        A target URI string (see the module docs for the grammar), a bare
        path string or :class:`~pathlib.Path` (a filesystem target whose
        backend is inferred from its shape), or an already-parsed
        :class:`TargetSpec` (passed through).
    store:
        Optional explicit backend name (the legacy ``store=``/``--store``
        override).  Suppresses bare-path inference; contradicting an
        explicit URI scheme raises :class:`~repro.errors.StoreError`.
    default_store:
        Backend assumed for a not-yet-existing bare path when nothing else
        decides (``open_sink`` passes ``"directory"``); ``None`` leaves
        ``TargetSpec.store`` unset for the caller to reject.

    Raises
    ------
    UnknownNameError
        On an unrecognised URI scheme (with a did-you-mean suggestion).
    StoreError
        On a malformed ``vol:`` spec or a contradictory ``store=`` override.
    """
    if isinstance(raw, TargetSpec):
        return _check_store_override(raw, store, raw)
    if isinstance(raw, Path):
        inferred = store or _infer_path_store(raw) or default_store
        spec = TargetSpec(scheme="path", store=None, target=str(raw))
        return _check_store_override(
            spec if inferred is None else replace(spec, store=_canonical_store(inferred)),
            store,
            raw,
        )
    text = str(raw)
    match = _SCHEME_RE.match(text)
    if match:
        scheme = match.group(1).lower()
        rest = text[match.end():]
        if scheme in ("http", "https"):
            return _check_store_override(
                TargetSpec(scheme=scheme, store=None, target=text), store, raw
            )
        if scheme == "mem":
            return _check_store_override(
                TargetSpec(scheme="mem", store="memory", target=text), store, raw
            )
        if scheme in ("dir", "file"):
            return _check_store_override(
                TargetSpec(scheme=scheme, store=_SCHEME_STORES[scheme], target=rest),
                store,
                raw,
            )
        if scheme == "vol":
            volumes = _parse_volume_spec(rest)
            return _check_store_override(
                TargetSpec(
                    scheme="vol", store="volumes", target=volumes.uri(), volumes=volumes
                ),
                store,
                raw,
            )
        raise _unknown_scheme(match.group(1))
    # Scheme-less string: a bare filesystem path.
    if store is not None:
        canonical = _canonical_store(store)
        scheme = _STORE_SCHEMES.get(canonical, "path")
        if canonical == "volumes":
            raise StoreError(
                f"store={store!r} needs a vol: target URI naming the member "
                f"volumes, got the bare path {text!r}"
            )
        return TargetSpec(scheme=scheme, store=canonical, target=text)
    path = Path(text)
    inferred = _infer_path_store(path) or default_store
    return TargetSpec(
        scheme="path",
        store=None if inferred is None else _canonical_store(inferred),
        target=text,
    )
