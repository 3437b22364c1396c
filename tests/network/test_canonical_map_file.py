"""Tests for the committed NPN canonical-map file.

The contract: the package ships the 65,536-entry map that the closure
derivation produces, transforms included, in the exact bytes the writer
emits; a truncated, wrong-version, out-of-range or inconsistent file is
rejected with ``ValueError`` (never served, never silently re-derived);
and every data file of the package is declared as package data, so an
installed copy finds it.
"""

import ast
import fnmatch
import gc
import struct
import zlib
from pathlib import Path

import pytest

from repro.network import npn
from repro.network.npn import (
    CANONICAL_MAP_PATH,
    load_canonical_map,
    write_canonical_map,
)

_SRC = Path(npn.__file__).resolve().parents[2]
_HEADER = struct.Struct("<4sH")


@pytest.fixture()
def payload():
    """The committed file's decompressed bytes, for tests to damage."""
    return bytearray(zlib.decompress(CANONICAL_MAP_PATH.read_bytes()))


def _load_damaged(tmp_path, raw: bytes):
    path = tmp_path / "npn_canonical.bin"
    path.write_bytes(raw)
    return load_canonical_map(path)


def _transform_offset(table: int) -> int:
    return _HEADER.size + 2 * npn.NUM_NPN_CLASSES + (1 << 16) + 2 * table


def test_committed_file_is_the_derived_map(tmp_path):
    """The oracle: a fresh derivation equals the loaded map entry for
    entry, transforms included, and re-encodes to the committed bytes."""
    derived = npn._derive_canonical_map()
    canon, _ = load_canonical_map()
    assert list(canon) == derived
    path = tmp_path / "npn_canonical.bin"
    write_canonical_map(path, derived)
    assert path.read_bytes() == CANONICAL_MAP_PATH.read_bytes()


def test_loaded_transforms_are_interned():
    """The map shares the group's 768 transform objects instead of holding
    65,536 copies."""
    canon, _ = load_canonical_map()
    assert len({id(transform) for _, transform in canon}) <= 768


def test_loaded_map_adds_few_tracked_objects():
    """The map is flat index sequences, not 65,536 ``(rep, transform)``
    pairs, so holding it adds almost nothing to every full garbage
    collection.  The first load interns the 768 transforms, which the
    rest of the module shares; the measured load adds the map alone."""
    load_canonical_map()
    gc.collect()
    before = len(gc.get_objects())
    canon, _ = load_canonical_map()
    gc.collect()
    assert len(gc.get_objects()) - before < 1000
    assert canon[0xFFFF] == npn.npn_canonical(0xFFFF)


def test_truncated_file_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, CANONICAL_MAP_PATH.read_bytes()[:-100])


def test_checksum_failure_is_rejected(tmp_path):
    raw = bytearray(CANONICAL_MAP_PATH.read_bytes())
    raw[-1] ^= 0xFF  # the last byte of zlib's Adler-32 trailer
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, bytes(raw))


def test_bad_version_is_rejected(tmp_path, payload):
    magic, version = _HEADER.unpack_from(payload)
    _HEADER.pack_into(payload, 0, magic, version + 1)
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, zlib.compress(bytes(payload)))


def test_wrong_length_is_rejected(tmp_path, payload):
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, zlib.compress(bytes(payload[:-2])))


def test_out_of_range_transform_index_is_rejected(tmp_path, payload):
    struct.pack_into("<H", payload, _transform_offset(0x1234), 768)
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, zlib.compress(bytes(payload)))


def test_out_of_range_class_index_is_rejected(tmp_path, payload):
    payload[_HEADER.size + 2 * npn.NUM_NPN_CLASSES + 0x1234] = npn.NUM_NPN_CLASSES
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, zlib.compress(bytes(payload)))


def test_unsorted_representatives_are_rejected(tmp_path, payload):
    first, second = struct.unpack_from("<2H", payload, _HEADER.size)
    struct.pack_into("<2H", payload, _HEADER.size, second, first)
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, zlib.compress(bytes(payload)))


def test_representative_not_self_mapped_is_rejected(tmp_path, payload):
    rep = npn.npn_representatives()[100]
    struct.pack_into("<H", payload, _transform_offset(rep), 1)  # a non-identity transform
    with pytest.raises(ValueError, match="npn_canonical.bin"):
        _load_damaged(tmp_path, zlib.compress(bytes(payload)))


def test_every_data_file_is_package_data():
    """Every non-Python file under ``src/repro`` is declared in
    ``setup.py``'s ``package_data``; an undeclared one would be missing
    from an installed copy and fail the first load there."""
    tree = ast.parse((_SRC.parent / "setup.py").read_text(encoding="utf-8"))
    package_data = next(
        ast.literal_eval(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "package_data"
    )
    package_root = _SRC / "repro"
    data_files = [
        path
        for path in package_root.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    ]
    assert data_files
    for path in data_files:
        package = ".".join(path.parent.relative_to(_SRC).parts)
        patterns = package_data.get(package, [])
        assert any(fnmatch.fnmatch(path.name, pattern) for pattern in patterns), (
            f"{path.relative_to(_SRC)} is not in setup.py package_data[{package!r}]"
        )
