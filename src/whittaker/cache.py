"""Disk caching with atomic writes and version-stamped keys.

Artifacts are stored as a one-line JSON header followed by packed binary
payload blocks described by the header.  A cached file is used only when
its header key and format version match exactly; anything else is
silently rebuilt.  Writes go through a temp file and rename, so readers
never observe partial files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .groups import GroupSpec, GroupTable

CACHE_ENV = "WHITTAKER_CACHE_DIR"
GROUP_FORMAT_VERSION = 1
CHARTAB_FORMAT_VERSION = 1
SIEVE_FORMAT_VERSION = 1


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


def _key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _slug(key: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in key)


# ---------------------------------------------------------------------------
# group tables


def group_cache_key(spec: GroupSpec) -> str:
    return f"group/v{GROUP_FORMAT_VERSION}/{spec.key()}"


def group_cache_path(spec: GroupSpec, cache_dir: Path) -> Path:
    key = group_cache_key(spec)
    return Path(cache_dir) / "tables" / f"{_slug(spec.key())}_{_key_hash(key)}.grp"


def save_group_table(table: GroupTable, cache_dir: Path) -> Path:
    spec = table.spec
    dtype = "uint8" if table.ring.size <= 256 else "uint16"
    header = {
        "key": group_cache_key(spec),
        "count": len(table),
        "n": table.n,
        "dtype": dtype,
    }
    payload = np.ascontiguousarray(table.elems, dtype=dtype).tobytes()
    path = group_cache_path(spec, cache_dir)
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    return path


def load_group_table(spec: GroupSpec, cache_dir: Path) -> GroupTable | None:
    path = group_cache_path(spec, cache_dir)
    if not path.exists():
        return None
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    if header.get("key") != group_cache_key(spec):
        return None
    elems = np.frombuffer(raw[nl + 1:], dtype=header["dtype"]).astype(np.int64)
    elems = elems.reshape(header["count"], header["n"], header["n"])
    return GroupTable(spec, elems)


def cached_group_table(spec: GroupSpec, cache_dir: Path | None, cap: int) -> GroupTable:
    from .groups import enumerate_group

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
    return f"chartab/v{CHARTAB_FORMAT_VERSION}/{spec.key()}"


def chartab_cache_path(spec: GroupSpec, cache_dir: Path) -> Path:
    key = chartab_cache_key(spec)
    return Path(cache_dir) / "chartab" / f"{_slug(spec.key())}_{_key_hash(key)}.ct"


def save_char_table(ct, cache_dir: Path) -> Path:
    from .chartab import CharTable

    assert isinstance(ct, CharTable)
    cd = ct.cd
    header = {
        "key": chartab_cache_key(ct.table.spec),
        "k": cd.k,
        "e": ct.e,
        "r": ct.r,
        "reps": cd.reps.tolist(),
        "sizes": cd.sizes.tolist(),
        "inverse_perm": cd.inverse_perm.tolist(),
        "orders": cd.orders.tolist(),
        "degrees": ct.degrees.tolist(),
    }
    payload = cd.class_of.astype("int64").tobytes() + ct.rows.astype("int64").tobytes()
    path = chartab_cache_path(ct.table.spec, cache_dir)
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    return path


def load_char_table(table: GroupTable, cache_dir: Path):
    from .chartab import CharTable, ClassData

    path = chartab_cache_path(table.spec, cache_dir)
    if not path.exists():
        return None
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    if header.get("key") != chartab_cache_key(table.spec):
        return None
    k, e = header["k"], header["e"]
    n_elems = len(table)
    blob = raw[nl + 1:]
    class_of = np.frombuffer(blob[: 8 * n_elems], dtype=np.int64).copy()
    rows = np.frombuffer(blob[8 * n_elems:], dtype=np.int64).reshape(k, k, e).copy()
    cd = ClassData(
        table,
        class_of,
        np.array(header["reps"], dtype=np.int64),
        np.array(header["sizes"], dtype=np.int64),
        np.array(header["inverse_perm"], dtype=np.int64),
        np.array(header["orders"], dtype=np.int64),
    )
    ct = CharTable(cd, e, header["r"], np.array(header["degrees"], dtype=np.int64), rows)
    ct.loaded = True
    return ct


def cached_char_table(table: GroupTable, cache_dir: Path | None, cap: int):
    from .chartab import character_table, conjugacy_classes

    if cache_dir is not None:
        got = load_char_table(table, cache_dir)
        if got is not None:
            return got
    ct = character_table(conjugacy_classes(table), cap)
    if cache_dir is not None:
        save_char_table(ct, cache_dir)
    return ct


# ---------------------------------------------------------------------------
# irreducible sieve


def sieve_cache_path(q: int, cap: int, cache_dir: Path) -> Path:
    key = f"sieve/v{SIEVE_FORMAT_VERSION}/q{q}/cap{cap}"
    return Path(cache_dir) / "sieve" / f"irr_q{q}_cap{cap}_{_key_hash(key)}.json"


def cached_irreducibles(q: int, cap: int, cache_dir: Path | None):
    """Disk read-through for the monic irreducible sieve, keyed by (q, cap).

    A disk hit is installed into the in-process sieve memo so downstream
    factorization reuses it.
    """
    from .linalg import _SIEVE_MEMO, Poly, monic_irreducibles

    if cache_dir is not None:
        path = sieve_cache_path(q, cap, cache_dir)
        if path.exists() and (q, cap) not in _SIEVE_MEMO:
            data = json.loads(path.read_text())
            sieve = tuple(
                tuple(Poly(q, coeffs) for coeffs in level) for level in data
            )
            _SIEVE_MEMO[(q, cap)] = sieve
            return sieve
    sieve = monic_irreducibles(q, cap)
    if cache_dir is not None:
        data = [[list(p.coeffs) for p in level] for level in sieve]
        path = sieve_cache_path(q, cap, cache_dir)
        if not path.exists():
            atomic_write_bytes(path, json.dumps(data).encode())
    return sieve
