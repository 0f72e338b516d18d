"""Disk caching of group tables and character tables, with one integrity rule.

Every cache file has one layout:

    {"key": ..., "length": L, "sha256": D}\\n      one-line JSON header
    <metadata JSON>\\n<packed arrays>             the body: L bytes, digest D

The metadata line lists each packed array as [name, dtype, shape], in the
order the arrays follow it.  The digest covers every byte after the header
line, metadata included.

The rule: a file is used only when its key, its length and its digest all
match and its body decodes.  Anything else (a truncated, bit-flipped, foreign,
empty or pre-digest file) is rebuilt and overwritten, with one
`cache: rebuilding <file>: <reason>` line on stderr; a missing file is
rebuilt silently.  Writes go through a temp file and rename, so readers never
observe partial files.

A group table file holds the array `elems`, a character table file the
arrays `class_of` and `rows`, and nothing derived from them.  A file that
passes the rule is still checked as it is read, by GroupTable, class_data and
CharTable: their AssertionError is a fault, not a rebuild.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .chartab import CharTable, character_table, class_data
from .groups import GroupSpec, GroupTable, enumerate_group
from .regular import monic_types

CACHE_ENV = "WHITTAKER_CACHE_DIR"
FORMAT_VERSION = 1
_FILES = {"group": "tables/{}.grp", "chartab": "chartab/{}.ct"}


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "whittaker"


def atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _path(key: str, cache_dir: Path) -> Path:
    """`<kind dir>/<slug of the spec>_<hash of the key>.<kind suffix>`."""
    kind, _, spec_key = key.split("/", 2)
    slug = "".join(c if c.isalnum() else "_" for c in spec_key)
    name = f"{slug}_{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    return Path(cache_dir) / _FILES[kind].format(name)


def _write(key: str, cache_dir: Path, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    meta = {**meta, "arrays": [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]}
    body = b"".join([json.dumps(meta, sort_keys=True).encode(), b"\n",
                     *(a.tobytes() for a in arrays.values())])
    header = {"key": key, "length": len(body), "sha256": hashlib.sha256(body).hexdigest()}
    path = _path(key, cache_dir)
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    return path


def _read(key: str, cache_dir: Path) -> tuple[dict, dict[str, np.ndarray]] | None:
    """(metadata, read-only arrays in their stored dtypes) of the file for
    `key`, or None when the file is missing or breaks the integrity rule."""
    path = _path(key, cache_dir)
    if not path.exists():
        return None
    raw = path.read_bytes()
    start = raw.find(b"\n") + 1
    body = memoryview(raw)[start:]
    try:
        header = json.loads(raw[:start])
        if header.get("key") != key:
            reason = f"foreign key {header.get('key')!r}"
        elif "sha256" not in header:
            reason = "no sha256 in header"
        elif header.get("length") != len(body):
            reason = f"body is {len(body)} bytes, header says {header.get('length')}"
        elif header["sha256"] != hashlib.sha256(body).hexdigest():
            reason = "sha256 mismatch"
        else:
            split = raw.index(b"\n", start) + 1
            meta = json.loads(raw[start:split])
            arrays, offset = {}, split
            for name, dtype, shape in meta["arrays"]:
                count = int(np.prod(shape))
                arrays[name] = np.frombuffer(raw, dtype, count, offset).reshape(shape)
                offset += arrays[name].nbytes
            if offset != len(raw):
                raise ValueError(f"{len(raw) - offset} bytes after the arrays")
            return meta, arrays
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"undecodable: {exc}"
    print(f"cache: rebuilding {path}: {reason}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# group tables


def group_cache_key(spec: GroupSpec) -> str:
    return f"group/v{FORMAT_VERSION}/{spec.key()}"


def save_group_table(table: GroupTable, cache_dir: Path) -> Path:
    dtype = np.uint8 if table.ring.size <= 256 else np.uint16
    return _write(group_cache_key(table.spec), cache_dir, {},
                  {"elems": table.elems.astype(dtype)})


def load_group_table(spec: GroupSpec, cache_dir: Path) -> GroupTable | None:
    got = _read(group_cache_key(spec), cache_dir)
    if got is None:
        return None
    return GroupTable(spec, got[1]["elems"].astype(np.int64))


def cached_group_table(spec: GroupSpec, cache_dir: Path | None, cap: int) -> GroupTable:
    if cache_dir is not None:
        got = load_group_table(spec, cache_dir)
        if got is not None:
            return got
    table = enumerate_group(spec, cap)
    if cache_dir is not None:
        save_group_table(table, cache_dir)
    return table


# ---------------------------------------------------------------------------
# character tables


def chartab_cache_key(spec: GroupSpec) -> str:
    return f"chartab/v{FORMAT_VERSION}/{spec.key()}"


def _narrow(a: np.ndarray) -> np.ndarray:
    """`a` in the narrowest signed integer dtype that holds its min and max."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
    return a.astype(dtype)


def save_char_table(ct: CharTable, cache_dir: Path) -> Path:
    """The class numbering and the values, nothing else: the class data, the
    exponent, the Dixon prime and the degrees are derived from them on load.
    Both are stored narrow (int8 while k <= 128 and every multiplicity fits),
    and the loader casts every stored dtype to int64."""
    return _write(chartab_cache_key(ct.table.spec), cache_dir, {},
                  {"class_of": _narrow(ct.cd.class_of), "rows": _narrow(ct.rows)})


def load_char_table(table: GroupTable, cache_dir: Path) -> CharTable | None:
    """Metadata keys other than `arrays` (e, r and degrees in older files)
    are ignored."""
    got = _read(chartab_cache_key(table.spec), cache_dir)
    if got is None:
        return None
    ct = CharTable(class_data(table, got[1]["class_of"].astype(np.int64)),
                   got[1]["rows"].astype(np.int64))
    ct.loaded = True
    return ct


def cached_char_table(table: GroupTable, cache_dir: Path | None, cap: int) -> CharTable:
    if cache_dir is not None:
        got = load_char_table(table, cache_dir)
        if got is not None:
            return got
    ct = character_table(table, cap)
    if cache_dir is not None:
        save_char_table(ct, cache_dir)
    return ct


def cached_irreducibles(q: int, cap: int):
    """Warms `regular.monic_types(q, cap)` for the regular classification.

    Kept only because the benchmark's layer tracer binds this name: the next
    benchmark change should delete it together with its call in `cli._chartab`.
    """
    return monic_types(q, cap)
