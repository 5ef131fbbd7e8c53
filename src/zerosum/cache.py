"""On-disk result cache for expensive searches.

The cache is purely an optimization: deleting the cache directory (or
pointing ZS_CACHE_DIR somewhere empty) never changes any computed value,
only how long the computation takes. Records that fail validation on
load are ignored rather than trusted.

Two stores live here: a JSON record store for search results keyed by
small tuples of strings, and a binary store for minimal zero-sum divisor
lists of a fixed sequence (magic ``ZSAT``), used to skip atom
re-enumeration when a witness is verified repeatedly.
"""

import hashlib
import json
import os
import struct
import tempfile

from .gf2 import SweepRecord
from .groups import Group, element_at, element_index, format_group
from .sequences import Sequence

_MAGIC = b"ZSAT"
_VERSION = 1

ENV_VAR = "ZS_CACHE_DIR"


def cache_dir() -> str:
    """Resolve the cache root: $ZS_CACHE_DIR, else ~/.cache/zerosum."""
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "zerosum")


def _key_digest(parts) -> str:
    joined = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(joined.encode()).hexdigest()[:24]


def _record_path(kind: str, parts) -> str:
    return os.path.join(cache_dir(), kind, _key_digest(parts) + ".json")


def _write_atomic(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def get_record(kind: str, parts) -> "dict | None":
    """Load a JSON record, or None if absent or unreadable."""
    path = _record_path(kind, parts)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    return data


def put_record(kind: str, parts, payload: dict) -> None:
    path = _record_path(kind, parts)
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    try:
        _write_atomic(path, body)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Partition sweep records


def load_sweep(r: int, complement_size: int, pieces: int) -> "SweepRecord | None":
    """Load a stored sweep record; digests are re-derived, never trusted."""
    data = get_record("sweeps", ("sweep", r, complement_size, pieces))
    if data is None:
        return None
    try:
        rec = SweepRecord(
            r=int(data["r"]),
            complement_size=int(data["complement_size"]),
            pieces=int(data["pieces"]),
            instances=int(data["instances"]),
            failures=int(data["failures"]),
        )
    except (KeyError, TypeError, ValueError):
        return None
    if (rec.r, rec.complement_size, rec.pieces) != (r, complement_size, pieces):
        return None
    if data.get("digest") != rec.digest:
        return None
    return rec


def store_sweep(rec: SweepRecord) -> None:
    put_record(
        "sweeps",
        ("sweep", rec.r, rec.complement_size, rec.pieces),
        {
            "r": rec.r,
            "complement_size": rec.complement_size,
            "pieces": rec.pieces,
            "instances": rec.instances,
            "failures": rec.failures,
            "digest": rec.digest,
        },
    )


# ---------------------------------------------------------------------------
# Binary atom lists


def _atoms_path(G: Group, S: Sequence, cap: "int | None") -> str:
    key = ("atoms", format_group(G), tuple(sorted(S.counts().items())), cap)
    return os.path.join(cache_dir(), "atoms", _key_digest(key) + ".bin")


def store_atoms(G: Group, S: Sequence, cap: "int | None", atoms) -> None:
    """Persist minimal zero-sum divisors of S (length-capped by cap)."""
    atoms = list(atoms)
    literal = format_group(G).encode("utf-8")
    chunks = [_MAGIC, struct.pack("<BH", _VERSION, len(literal)), literal]
    chunks.append(struct.pack("<iI", -1 if cap is None else cap, len(atoms)))
    for atom in atoms:
        items = sorted(
            (element_index(G, g), mult) for g, mult in atom.counts().items()
        )
        chunks.append(struct.pack("<H", len(items)))
        for index, mult in items:
            chunks.append(struct.pack("<II", index, mult))
    try:
        _write_atomic(_atoms_path(G, S, cap), b"".join(chunks))
    except OSError:
        pass


def load_atoms(G: Group, S: Sequence, cap: "int | None"):
    """Load a stored atom list, or None if absent or malformed."""
    try:
        with open(_atoms_path(G, S, cap), "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    try:
        return _parse_atoms(G, cap, blob)
    except (struct.error, ValueError, IndexError):
        return None


def _parse_atoms(G: Group, cap: "int | None", blob: bytes):
    if blob[:4] != _MAGIC:
        raise ValueError("bad magic")
    version, literal_len = struct.unpack_from("<BH", blob, 4)
    if version != _VERSION:
        raise ValueError("unknown version")
    offset = 7
    literal = blob[offset : offset + literal_len].decode("utf-8")
    if literal != format_group(G):
        raise ValueError("group mismatch")
    offset += literal_len
    stored_cap, count = struct.unpack_from("<iI", blob, offset)
    if stored_cap != (-1 if cap is None else cap):
        raise ValueError("cap mismatch")
    offset += 8
    atoms = []
    for _ in range(count):
        (n_items,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        counts = {}
        for _ in range(n_items):
            index, mult = struct.unpack_from("<II", blob, offset)
            offset += 8
            counts[element_at(G, index)] = mult
        atoms.append(Sequence.from_counts(G, counts))
    if offset != len(blob):
        raise ValueError("trailing bytes")
    return atoms
