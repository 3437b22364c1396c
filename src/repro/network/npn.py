"""NPN canonicalization of ≤4-input functions and the rewriting database.

Boolean rewriting replaces the cone over an enumerated cut
(:mod:`repro.network.cuts`) with a precomputed structure implementing the
same function.  Storing one structure per *function* would need 2^16
entries; storing one per *NPN class* — functions equal up to input
Negation, input Permutation and output Negation — needs only 222.  This
module provides the three pieces:

* the transform algebra: :class:`NpnTransform` (input permutation, input
  complementation mask, output complementation) with ``apply`` / ``invert``
  / ``compose``, all operating on 16-bit truth tables in the 4-variable
  space (smaller functions are first padded with :func:`extend_table`);
* :func:`npn_canonical`: the canonical representative of a table plus the
  recorded transform mapping the table onto it, read from the full
  65,536-entry map.  The map ships with the package as
  ``npn_canonical.bin`` (one class index and one transform-group index
  per table) and is loaded once per process; the loader checks the
  file's checksum, lengths, index ranges and that every representative
  maps to itself, and raises ``ValueError`` otherwise;
* the structure database: for every canonical class, a **top-k list** of
  MIG and AIG implementations (:class:`DbEntry`) forming the Pareto front
  on (size, depth) — list head is size-optimal-first, list tail is the
  shallowest known structure — so area-oriented rewriting takes ``[0]``
  and depth-oriented rewriting (``max_level_growth < 0``) scans for the
  shallowest admissible entry.

The database ships with the package as ``structure_db.json`` (both
kinds, one file) and is loaded once per process.  Every loaded entry is
validated before it is trusted — its program is replayed over the
projection tables and must reproduce the class function, each class list
must be a strict Pareto front, and each kind must cover all 222 classes —
so a damaged file raises ``ValueError`` instead of serving wrong logic.
Nothing is derived at run time.  ``benchmarks/regen_structure_db.py``
writes both files offline: the canonical map from a closure over the
transform group's generators, the database from the derivation code at
the end of this module, whose fast tier derives candidates by
Shannon/XOR decomposition with structural hashing, polished by the
repository's size *and* depth optimizers; an optional exact tier
(:mod:`repro.synth.exact`, via ``derive_structures_parallel(exact=True)``)
adds SAT-proven size/depth-optimal programs where the conflict budget
allows.  Nothing changes the database after it is loaded: its content
digest (:func:`structure_db_digest`, a SHA-256 over the file's bytes) is
fixed for the life of the process.

Truth-table convention: bit ``m`` of a table is the function value when
input ``i`` carries bit ``i`` of the minterm index ``m``.
``apply_transform(f, t)`` returns ``g`` with ``g(x) = f(y) ^ t.output_neg``
where ``y[t.perm[j]] = x[j] ^ t.input_neg[j]`` — i.e. the transform
describes how the argument's inputs are wired onto ``f``'s inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
import zlib
from collections.abc import Sequence
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.signal import CONST_FALSE, CONST_NODE, CONST_TRUE, negate_if

__all__ = [
    "NpnTransform",
    "IDENTITY_TRANSFORM",
    "NUM_NPN_CLASSES",
    "PROJECTIONS",
    "apply_transform",
    "invert_transform",
    "compose_transforms",
    "extend_table",
    "npn_canonical",
    "npn_representatives",
    "CANONICAL_MAP_PATH",
    "load_canonical_map",
    "write_canonical_map",
    "canonical_map_digest",
    "DbEntry",
    "entry_truth_table",
    "get_structures",
    "structure_db_digest",
    "derive_structures_parallel",
    "replay_structure",
    "STRUCTURE_DB_PATH",
    "load_structure_db",
    "write_structure_db",
]

#: Number of NPN equivalence classes of functions of at most 4 variables.
NUM_NPN_CLASSES = 222

_FULL = 0xFFFF

#: Projection table of variable ``i`` in the 4-variable space.
PROJECTIONS = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)
_VAR = PROJECTIONS


class NpnTransform(NamedTuple):
    """An element of the NPN transform group on 4-variable functions."""

    perm: Tuple[int, int, int, int]
    input_neg: int
    output_neg: bool


IDENTITY_TRANSFORM = NpnTransform((0, 1, 2, 3), 0, False)

# Transforms are interned: the group has only 768 elements, and the
# canonical map references one per table, so sharing instances keeps the
# 65,536-entry map small.
_TRANSFORM_CACHE: Dict[Tuple[Tuple[int, ...], int, bool], NpnTransform] = {}


def _intern(perm: Tuple[int, ...], input_neg: int, output_neg: bool) -> NpnTransform:
    key = (perm, input_neg, output_neg)
    cached = _TRANSFORM_CACHE.get(key)
    if cached is None:
        cached = NpnTransform(perm, input_neg, output_neg)
        _TRANSFORM_CACHE[key] = cached
    return cached


def apply_transform(table: int, transform: NpnTransform) -> int:
    """Apply ``transform`` to a 16-bit table (the semantic definition)."""
    perm = transform.perm
    neg = transform.input_neg
    out = 0
    for m2 in range(16):
        m = 0
        for j in range(4):
            if ((m2 >> j) & 1) ^ ((neg >> j) & 1):
                m |= 1 << perm[j]
        if (table >> m) & 1:
            out |= 1 << m2
    return out ^ (_FULL if transform.output_neg else 0)


@lru_cache(maxsize=None)  # the group has 768 elements; the cache is bounded
def invert_transform(transform: NpnTransform) -> NpnTransform:
    """The group inverse: ``apply(apply(f, t), invert(t)) == f``."""
    perm = transform.perm
    iperm = [0, 0, 0, 0]
    for j, p in enumerate(perm):
        iperm[p] = j
    neg = 0
    for i in range(4):
        neg |= ((transform.input_neg >> iperm[i]) & 1) << i
    return _intern(tuple(iperm), neg, transform.output_neg)


def compose_transforms(first: NpnTransform, second: NpnTransform) -> NpnTransform:
    """The transform equivalent to applying ``first`` then ``second``."""
    p1, n1, o1 = first
    p2, n2, o2 = second
    perm = tuple(p1[p2[j]] for j in range(4))
    neg = 0
    for j in range(4):
        neg |= (((n2 >> j) & 1) ^ ((n1 >> p2[j]) & 1)) << j
    return _intern(perm, neg, o1 ^ o2)


def extend_table(table: int, num_vars: int) -> int:
    """Pad a table over ``num_vars`` variables into the 4-variable space."""
    width = 1 << num_vars
    for _ in range(4 - num_vars):
        table |= table << width
        width <<= 1
    return table


# --------------------------------------------------------------------- #
# Canonical map (committed package data)
# --------------------------------------------------------------------- #
#: The committed canonical map (package data, written offline by
#: ``benchmarks/regen_structure_db.py``).
CANONICAL_MAP_PATH = Path(__file__).with_name("npn_canonical.bin")

#: Bumped when the canonical-map file layout changes (other versions are
#: rejected).
_MAP_FORMAT_VERSION = 1

_NUM_TABLES = 1 << 16
_MAP_HEADER = struct.pack("<4sH", b"NPNC", _MAP_FORMAT_VERSION)  # magic, version
_MAP_REPS = struct.Struct(f"<{NUM_NPN_CLASSES}H")
_MAP_TRANSFORMS = struct.Struct(f"<{_NUM_TABLES}H")
_MAP_SIZE = len(_MAP_HEADER) + _MAP_REPS.size + _NUM_TABLES + _MAP_TRANSFORMS.size
_PERMUTATIONS = tuple(itertools.permutations(range(4)))


def _transform_group() -> List[NpnTransform]:
    """All 768 transforms in file order.

    ``index = (output_neg * 16 + input_neg) * 24 + rank(perm)``, with
    ``rank`` the position in ``itertools.permutations(range(4))``.
    """
    return [
        _intern(perm, input_neg, output_neg)
        for output_neg in (False, True)
        for input_neg in range(16)
        for perm in _PERMUTATIONS
    ]


class CanonicalMap(Sequence):
    """The 65,536-entry canonical map, stored as flat index sequences.

    ``canon[table]`` is ``(canonical table, transform table→canonical)``.
    The map keeps the 222 sorted representatives, one class index per
    table (``bytes``), one transform-group index per table (a tuple of
    ints) and the 768-element transform group: a handful of objects for
    the garbage collector to track, where 65,536 pairs would make every
    full collection walk them all.
    """

    __slots__ = ("reps", "classes", "transforms", "group")

    def __init__(self, reps, classes, transforms, group) -> None:
        self.reps = reps
        self.classes = classes
        self.transforms = transforms
        self.group = group

    def __len__(self) -> int:
        return _NUM_TABLES

    def __getitem__(self, table: int) -> Tuple[int, NpnTransform]:
        return self.reps[self.classes[table]], self.group[self.transforms[table]]


def write_canonical_map(path, canon: Sequence) -> None:
    """Write a 65,536-entry canonical map in the layout the loader reads.

    A zlib stream of: the header, the sorted representatives (uint16),
    one class index per table (uint8) and one transform-group index per
    table (uint16), all little-endian.  The bytes are a deterministic
    function of the map.
    """
    reps = sorted({rep for rep, _ in canon})
    if len(canon) != _NUM_TABLES or len(reps) != NUM_NPN_CLASSES:
        raise ValueError("not a complete canonical map")
    class_of = {rep: index for index, rep in enumerate(reps)}
    index_of = {transform: index for index, transform in enumerate(_transform_group())}
    payload = b"".join([
        _MAP_HEADER,
        _MAP_REPS.pack(*reps),
        bytes(class_of[rep] for rep, _ in canon),
        _MAP_TRANSFORMS.pack(*(index_of[transform] for _, transform in canon)),
    ])
    Path(path).write_bytes(zlib.compress(payload, 9))


def load_canonical_map(path=CANONICAL_MAP_PATH) -> Tuple[CanonicalMap, str]:
    """Read and check a file written by :func:`write_canonical_map`.

    Returns the map and a digest of its contents.  A failed checksum, a
    wrong version or length, an out-of-range index, representatives that
    are not 222 strictly increasing tables, or a representative that does
    not map to itself under the identity raises ``ValueError``.  Every
    table's transform is checked by the tests, not here: an
    ``apply_transform`` sweep would cost more than deriving the map.
    """
    try:
        raw = zlib.decompress(Path(path).read_bytes())
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt canonical map ({exc})") from exc
    if raw[:len(_MAP_HEADER)] != _MAP_HEADER:
        raise ValueError(f"{path}: not a v{_MAP_FORMAT_VERSION} canonical map")
    if len(raw) != _MAP_SIZE:
        raise ValueError(f"{path}: canonical map has {len(raw)} bytes, expected {_MAP_SIZE}")
    offset = len(_MAP_HEADER)
    reps = _MAP_REPS.unpack_from(raw, offset)
    offset += _MAP_REPS.size
    classes = raw[offset:offset + _NUM_TABLES]
    transforms = _MAP_TRANSFORMS.unpack_from(raw, offset + _NUM_TABLES)
    if any(a >= b for a, b in zip(reps, reps[1:])):
        raise ValueError(f"{path}: representatives are not strictly increasing")
    group = _transform_group()
    if max(classes) >= NUM_NPN_CLASSES or max(transforms) >= len(group):
        raise ValueError(f"{path}: class or transform index out of range")
    canon = CanonicalMap(reps, classes, transforms, group)
    for rep in reps:
        if canon[rep] != (rep, IDENTITY_TRANSFORM):
            raise ValueError(f"{path}: representative {rep:#06x} does not map to itself")
    return canon, hashlib.sha256(raw).hexdigest()


#: ``(map, digest)`` of the committed file, loaded on first use.
_CANON: Optional[Tuple[CanonicalMap, str]] = None


def _loaded_canonical_map() -> Tuple[CanonicalMap, str]:
    global _CANON
    if _CANON is None:
        _CANON = load_canonical_map(CANONICAL_MAP_PATH)
    return _CANON


def _canonical_map() -> CanonicalMap:
    """``table -> (canonical table, transform table→canonical)`` for all 2^16."""
    return _loaded_canonical_map()[0]


def canonical_map_digest() -> str:
    """Content digest of the loaded canonical map (equal in every process)."""
    return _loaded_canonical_map()[1]


def _generators():
    """The transform group's generators as (fast-op, NpnTransform) pairs.

    Each fast op is the O(1) mask-and-shift equivalent of applying the
    paired transform with :func:`apply_transform`; the agreement of the
    two implementations is checked by ``tests/network/test_npn.py``.
    """
    gens = []
    for i in range(4):
        hi = _VAR[i]
        lo = hi ^ _FULL
        shift = 1 << i
        gens.append(
            (
                lambda t, hi=hi, lo=lo, shift=shift: ((t & lo) << shift)
                | ((t & hi) >> shift),
                _intern((0, 1, 2, 3), 1 << i, False),
            )
        )
    for i, j in ((0, 1), (1, 2), (2, 3)):
        m10 = _VAR[i] & (_VAR[j] ^ _FULL)
        m01 = (_VAR[i] ^ _FULL) & _VAR[j]
        keep = _FULL ^ m10 ^ m01
        d = (1 << j) - (1 << i)
        perm = [0, 1, 2, 3]
        perm[i], perm[j] = j, i
        gens.append(
            (
                lambda t, keep=keep, m10=m10, m01=m01, d=d: (t & keep)
                | ((t >> d) & m10)
                | ((t << d) & m01),
                _intern(tuple(perm), 0, False),
            )
        )
    gens.append((lambda t: t ^ _FULL, _intern((0, 1, 2, 3), 0, True)))
    return gens


def _derive_canonical_map() -> List[Tuple[int, NpnTransform]]:
    """Derive the canonical map from first principles (offline only).

    A closure over the transform group's generators: each orbit's
    smallest table is its representative, and every member records
    the transform onto it.  ``benchmarks/regen_structure_db.py`` writes
    the result to :data:`CANONICAL_MAP_PATH`; the tests use it as the
    oracle of the committed file.
    """
    canon: List[Optional[Tuple[int, NpnTransform]]] = [None] * _NUM_TABLES
    gens = _generators()
    for seed in range(_NUM_TABLES):
        if canon[seed] is not None:
            continue
        # Closure of the orbit; each member records its transform from seed.
        orbit: Dict[int, NpnTransform] = {seed: IDENTITY_TRANSFORM}
        stack = [seed]
        while stack:
            t = stack.pop()
            from_seed = orbit[t]
            for fast, gen in gens:
                t2 = fast(t)
                if t2 not in orbit:
                    orbit[t2] = compose_transforms(from_seed, gen)
                    stack.append(t2)
        rep = min(orbit)
        to_rep = orbit[rep]
        for t, from_seed in orbit.items():
            # seed = apply(t, invert(from_seed)); rep = apply(seed, to_rep).
            canon[t] = (rep, compose_transforms(invert_transform(from_seed), to_rep))
    return canon


def npn_canonical(table: int) -> Tuple[int, NpnTransform]:
    """Canonical NPN representative of a 16-bit table plus the transform.

    The transform ``t`` satisfies ``apply_transform(table, t) == canonical``.
    """
    return _canonical_map()[table & _FULL]


def npn_representatives() -> List[int]:
    """The sorted canonical representatives (exactly 222 of them)."""
    return list(_canonical_map().reps)


# --------------------------------------------------------------------- #
# Structure database
# --------------------------------------------------------------------- #
class DbEntry(NamedTuple):
    """A replayable implementation of one canonical function.

    ``ops`` is a gate program over abstract operand literals encoded as
    ``(ref << 1) | complement`` with ``ref`` 0 = constant 0, 1–4 = the four
    canonical inputs, ``5 + i`` = the output of ``ops[i]``.  ``output`` is
    the literal of the function's result; ``size``/``depth`` are the gate
    count and logic depth of the structure (inputs at depth 0).
    """

    ops: Tuple[Tuple[int, ...], ...]
    output: int
    size: int
    depth: int


#: ``{(kind, canonical table): front}``: one Pareto front per class and kind.
_Fronts = Dict[Tuple[str, int], Tuple[DbEntry, ...]]


#: Bumped when the serialised layout changes (other versions are rejected).
#: v2: entry lists per class (top-k Pareto fronts) instead of one entry.
_DB_FORMAT_VERSION = 2

#: Gate arity per database kind (loaded entries must match).
_KIND_ARITY = {"mig": 3, "aig": 2}

#: The committed structure database (package data, written offline by
#: ``benchmarks/regen_structure_db.py``).
STRUCTURE_DB_PATH = Path(__file__).with_name("structure_db.json")


def entry_truth_table(entry: DbEntry) -> int:
    """Evaluate a :class:`DbEntry` program over the projection tables.

    The pure-table counterpart of :func:`replay_structure`: 2-fanin ops
    are ANDs, 3-fanin ops majorities.  Used to validate loaded and
    synthesized entries semantically before trusting them.
    """
    tables: List[int] = [0, *PROJECTIONS]
    for op in entry.ops:
        operands = [tables[lit >> 1] ^ (_FULL if lit & 1 else 0) for lit in op]
        if len(operands) == 2:
            tables.append(operands[0] & operands[1])
        elif len(operands) == 3:
            a, b, c = operands
            tables.append((a & b) | (a & c) | (b & c))
        else:
            raise ValueError(f"unsupported op arity {len(operands)}")
    return (tables[entry.output >> 1] ^ (_FULL if entry.output & 1 else 0)) & _FULL


def _entry_depth(entry: DbEntry) -> int:
    """Structural depth of an entry's program (inputs/constants at 0)."""
    depths: List[int] = []
    for op in entry.ops:
        level = 0
        for lit in op:
            ref = lit >> 1
            if ref >= 5:
                level = max(level, depths[ref - 5])
        depths.append(level + 1)
    ref = entry.output >> 1
    return depths[ref - 5] if ref >= 5 else 0


def _validate_entry(kind: str, table: int, entry: DbEntry) -> bool:
    """Full semantic validation of one entry against its class function."""
    if entry.size != len(entry.ops):
        return False
    arity = _KIND_ARITY.get(kind)
    if arity is not None and any(len(op) != arity for op in entry.ops):
        return False
    try:
        if entry_truth_table(entry) != table:
            return False
        if entry.depth != _entry_depth(entry):
            return False
    except (IndexError, ValueError):
        return False
    return True


def _pareto_front(entries) -> Tuple[DbEntry, ...]:
    """The strict Pareto front on (size, depth), sorted by ascending size.

    Along the result, sizes strictly increase and depths strictly
    decrease: an entry survives only if it is strictly shallower than
    every smaller entry, so ``[0]`` is the (size, depth)-lexicographic
    best and ``[-1]`` the shallowest known structure.
    """
    front: List[DbEntry] = []
    for entry in sorted(set(entries), key=lambda e: (e.size, e.depth, e.ops, e.output)):
        if front and entry.depth >= front[-1].depth:
            continue
        front.append(entry)
    return tuple(front)


def write_structure_db(path, fronts: _Fronts) -> None:
    """Write ``{(kind, table): front}`` in the layout :func:`load_structure_db` reads.

    One class per line, kinds and classes in sorted order: the file is a
    deterministic function of its contents, and a data change diffs per
    class.
    """
    blocks = []
    for kind in sorted({kind for kind, _ in fronts}):
        rows = ",\n".join(
            f'  "{table}": {json.dumps([entry._asdict() for entry in fronts[(kind, table)]])}'
            for table in sorted(table for k, table in fronts if k == kind)
        )
        blocks.append(f' "{kind}": {{\n{rows}\n }}')
    body = ",\n".join([f' "version": {_DB_FORMAT_VERSION}', *blocks])
    Path(path).write_text(f"{{\n{body}\n}}\n", encoding="utf-8")


def load_structure_db(path=STRUCTURE_DB_PATH) -> Tuple[_Fronts, str]:
    """Read and validate a file written by :func:`write_structure_db`.

    Returns ``{(kind, table): front}`` and the SHA-256 of the file's
    bytes.  Each kind must cover exactly the 222 canonical
    representatives, each class list must be a strict Pareto front, and
    each entry must match the kind's gate arity and replay to its class
    function with consistent size/depth metadata.  Anything else raises
    ``ValueError``.
    """
    data = Path(path).read_bytes()
    payload = json.loads(data.decode("utf-8"))
    if not isinstance(payload, dict) or payload.get("version") != _DB_FORMAT_VERSION:
        raise ValueError(f"{path}: not a v{_DB_FORMAT_VERSION} structure database")
    expected = {str(rep) for rep in npn_representatives()}
    fronts: _Fronts = {}
    for kind in _KIND_ARITY:
        classes = payload.get(kind)
        if not isinstance(classes, dict) or set(classes) != expected:
            raise ValueError(
                f"{path}: {kind} keys are not the {NUM_NPN_CLASSES} canonical representatives"
            )
        for key, raw_list in classes.items():
            table = int(key)
            try:
                front = tuple(
                    DbEntry(
                        tuple(tuple(int(lit) for lit in op) for op in raw["ops"]),
                        int(raw["output"]),
                        int(raw["size"]),
                        int(raw["depth"]),
                    )
                    for raw in raw_list
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}: {kind} class {key}: malformed entry") from exc
            if (
                not front
                or front != _pareto_front(front)
                or not all(_validate_entry(kind, table, entry) for entry in front)
            ):
                raise ValueError(
                    f"{path}: {kind} class {key}: not a Pareto front of valid entries"
                )
            fronts[(kind, table)] = front
    return fronts, hashlib.sha256(data).hexdigest()


#: ``(fronts, digest)`` of the committed file, loaded on first use and
#: never changed afterwards.  Each front is the class's Pareto front on
#: (size, depth), sorted by ascending size: ``[0]`` is the size-best
#: entry, ``[-1]`` the shallowest.  Sizes strictly increase and depths
#: strictly decrease along a front, so every entry is the unique best
#: answer for some trade-off.
_DB: Optional[Tuple[_Fronts, str]] = None


def _loaded_structure_db() -> Tuple[_Fronts, str]:
    global _DB
    if _DB is None:
        _DB = load_structure_db(STRUCTURE_DB_PATH)
    return _DB


def structure_db_digest() -> str:
    """Content digest of the loaded structure database (equal in every process)."""
    return _loaded_structure_db()[1]


def get_structures(kind: str, canonical_table: int) -> Tuple[DbEntry, ...]:
    """Top-k ``kind`` ("mig" or "aig") structures for a canonical class.

    Returns the class's Pareto front on (size, depth): ``[0]`` is the
    size-best entry (what area-oriented rewriting wants), ``[-1]`` the
    shallowest (what depth-oriented rewriting scans towards).  The first
    lookup of a process loads the committed database.  An unknown kind or
    a non-canonical table raises ``ValueError``.
    """
    front = (_DB or _loaded_structure_db())[0].get((kind, canonical_table))
    if front is None:
        raise ValueError(f"no {kind!r} structures for table {canonical_table:#06x}")
    return front


def _warm_canonical() -> None:
    """Pool warm-up of the parallel derivation: load the canonical map only.

    The default pool warm-up also loads the committed structure database,
    which a derivation does not read.
    """
    _canonical_map()


#: Canonical classes per derivation shard.
_SHARD_CLASSES = 16

#: Exact tier: conflict budget per search, and the extra gates a depth
#: search may spend beyond the shallowest fast-tier entry.
_EXACT_BUDGET = 2_000
_EXACT_SIZE_SLACK = 2


def _derive_shard(task) -> List[Tuple[str, int, Tuple[DbEntry, ...]]]:
    """Worker task: derive the entry lists of one ``(kind, tables, exact)`` shard.

    Every worker derives from first principles, never reading the
    database.  Derivation is a pure function of the task, so shard
    composition cannot change any entry.
    """
    kind, tables, exact = task
    results = []
    for table in tables:
        front = _derive_structures(kind, table)
        if exact:
            front = _exact_enrich(kind, table, front, _EXACT_BUDGET, _EXACT_SIZE_SLACK)
        results.append((kind, table, front))
    return results


def derive_structures_parallel(
    workers: Optional[int] = None, exact: bool = False
) -> Tuple[_Fronts, Dict[str, object]]:
    """Derive the structure database sharded across worker processes.

    The 222 canonical classes of both kinds are split into shards of 16
    classes (sharded deterministically by canonical-class order); each
    worker derives its shard from first principles.  Entries are
    **structurally identical to a serial derivation** (asserted by
    ``tests/parallel/test_parallel.py``).  No file is touched; pass the
    fronts to :func:`write_structure_db` to ship them.

    With ``exact=True`` each shard additionally runs the SAT-based
    exact-synthesis enrichment tier (:mod:`repro.synth.exact`) with a
    budget of 2,000 conflicts per search, adding size- and depth-optimal
    entries where the budget suffices (UNKNOWN searches keep the
    decomposition entries, so enrichment never loses structures).

    Returns ``(fronts, stats)``: ``{(kind, table): front}`` and a stats
    dict (classes, kinds, entries, workers, shards, wall-clock).  With
    ``workers=1`` the same shard tasks run in-process — useful as the
    determinism baseline.
    """
    from ..parallel.executor import parallel_map

    reps = npn_representatives()
    tasks = [
        (kind, tuple(reps[start:start + _SHARD_CLASSES]), exact)
        for kind in _KIND_ARITY
        for start in range(0, len(reps), _SHARD_CLASSES)
    ]
    report = parallel_map(
        _derive_shard,
        tasks,
        workers=workers,
        labels=[f"{task[0]}[{task[1][0]:#06x}..]" for task in tasks],
        warmup=_warm_canonical,
    )
    fronts = {
        (kind, table): front
        for shard_result in report.results
        for kind, table, front in shard_result
    }
    return fronts, {
        "classes": len(reps),
        "kinds": list(_KIND_ARITY),
        "entries": sum(len(front) for front in fronts.values()),
        "workers": report.workers,
        "shards": report.num_shards,
        "parallel": report.parallel,
        "wall_s": round(report.wall_s, 3),
    }


def replay_structure(net, entry: DbEntry, inputs) -> int:
    """Instantiate ``entry`` in ``net`` over four input signals.

    Goes through the subclass builder (``_build_gate``), so structural
    hashing and the trivial simplifications apply and already-present
    subgraphs are reused rather than duplicated.
    """
    signals = [CONST_FALSE, *inputs]
    for op in entry.ops:
        fanins = tuple(signals[lit >> 1] ^ (lit & 1) for lit in op)
        signals.append(net._build_gate(fanins))
    return signals[entry.output >> 1] ^ (entry.output & 1)


def _cofactors(table: int, var: int) -> Tuple[int, int]:
    """Negative and positive cofactor, both padded over the full space."""
    shift = 1 << var
    hi = table & _VAR[var]
    lo = table & (_VAR[var] ^ _FULL)
    return lo | (lo << shift), hi | (hi >> shift)


def _support_size(table: int) -> int:
    count = 0
    for i in range(4):
        c0, c1 = _cofactors(table, i)
        if c0 != c1:
            count += 1
    return count


def _literal_majority(tab: int) -> Optional[Tuple[int, int, int]]:
    """Detect ``tab == M(±x_i, ±x_j, ±x_k)``; returns the three literals.

    Literals are encoded as ``(variable << 1) | complement``.  A majority
    of literals is the one shape Shannon decomposition can never recover
    as a single MIG node, so it is matched explicitly.
    """
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                for polarity in range(8):
                    a = _VAR[i] ^ (_FULL if polarity & 1 else 0)
                    b = _VAR[j] ^ (_FULL if polarity & 2 else 0)
                    c = _VAR[k] ^ (_FULL if polarity & 4 else 0)
                    if tab == (a & b) | (a & c) | (b & c):
                        return (
                            (i << 1) | (polarity & 1),
                            (j << 1) | ((polarity >> 1) & 1),
                            (k << 1) | ((polarity >> 2) & 1),
                        )
    return None


def _synthesize_into(net, table: int, variables) -> int:
    """Build ``table`` in ``net`` by Shannon/XOR/majority decomposition.

    Intermediate functions are memoized and every gate goes through the
    network's hashing builder, so shared sub-functions materialise once.
    A network exposing ``maj`` (the MIG) additionally gets majority-shaped
    decompositions: an explicit majority-of-literals match and the unate
    Shannon form ``f = M(x, f_x, f_x')`` (valid whenever one cofactor
    implies the other), which is what makes the database structures
    majority-native rather than transliterated AND/OR trees.
    """
    memo: Dict[int, int] = {}
    maj = getattr(net, "maj", None)

    def synth(tab: int) -> int:
        if tab == 0:
            return CONST_FALSE
        if tab == _FULL:
            return CONST_TRUE
        for i in range(4):
            if tab == _VAR[i]:
                return variables[i]
            if tab == _VAR[i] ^ _FULL:
                return variables[i] ^ 1
        cached = memo.get(tab)
        if cached is not None:
            return cached
        cached = memo.get(tab ^ _FULL)
        if cached is not None:
            return cached ^ 1
        if maj is not None:
            literals = _literal_majority(tab)
            if literals is not None:
                result = maj(*(variables[lit >> 1] ^ (lit & 1) for lit in literals))
                memo[tab] = result
                return result
        best = None
        for i in range(4):
            c0, c1 = _cofactors(tab, i)
            if c0 == c1:
                continue
            # Prefer an XOR split (both cofactors collapse into one cone),
            # then the split yielding the simplest pair of cofactors.
            score = (0 if c1 == c0 ^ _FULL else 1, _support_size(c0) + _support_size(c1))
            if best is None or score < best[0]:
                best = (score, i, c0, c1)
        _, i, c0, c1 = best
        x = variables[i]
        if c0 == 0:
            result = net.and_(x, synth(c1))
        elif c1 == 0:
            result = net.and_(x ^ 1, synth(c0))
        elif c0 == _FULL:
            result = net.or_(x ^ 1, synth(c1))
        elif c1 == _FULL:
            result = net.or_(x, synth(c0))
        elif c1 == c0 ^ _FULL:
            result = net.xor_(x, synth(c0))
        elif c0 & (c1 ^ _FULL) == 0:
            # f_x' implies f_x: f = x·f_x + f_x' — a single majority node
            # on a MIG, an AND+OR pair elsewhere.
            if maj is not None:
                result = maj(x, synth(c1), synth(c0))
            else:
                result = net.or_(net.and_(x, synth(c1)), synth(c0))
        elif c1 & (c0 ^ _FULL) == 0:
            # f_x implies f_x': the mirrored unate form on x'.
            if maj is not None:
                result = maj(x ^ 1, synth(c0), synth(c1))
            else:
                result = net.or_(net.and_(x ^ 1, synth(c0)), synth(c1))
        else:
            result = net.mux_(x, synth(c1), synth(c0))
        memo[tab] = result
        return result

    return synth(table)


def _candidate_entries(kind: str, table: int) -> List[DbEntry]:
    """Fast-tier candidate structures for one ``(kind, table)``.

    Direct and complemented decompositions, each in a size-oriented and a
    depth-oriented polish (MIG: ``optimize_size`` then ``optimize_depth``;
    AIG: raw then ``balance``) — deterministic pure functions of the
    arguments, which is what keeps serial and parallel derivation
    structurally identical.
    """
    candidates: List[DbEntry] = []
    for output_neg in (False, True):
        target = table ^ (_FULL if output_neg else 0)
        if kind == "mig":
            from ..core.depth_opt import optimize_depth
            from ..core.mig import Mig
            from ..core.size_opt import optimize_size

            net = Mig()
            variables = [net.add_pi(f"v{i}") for i in range(4)]
            net.add_po(_synthesize_into(net, target, variables), "f")
            optimize_size(net, effort=1)
            candidates.append(_extract_program(net, output_neg))
            optimize_depth(net, effort=1)
            candidates.append(_extract_program(net, output_neg))
        elif kind == "aig":
            from ..aig.aig import Aig
            from ..aig.balance import balance

            net = Aig()
            variables = [net.add_pi(f"v{i}") for i in range(4)]
            net.add_po(_synthesize_into(net, target, variables), "f")
            candidates.append(_extract_program(net, output_neg))
            candidates.append(_extract_program(balance(net), output_neg))
        else:
            raise ValueError(f"unknown database kind {kind!r}")
    return candidates


def _derive_structures(kind: str, table: int) -> Tuple[DbEntry, ...]:
    """Derive a class's top-k list: the fast-tier candidates' Pareto front."""
    return _pareto_front(_candidate_entries(kind, table))


def _exact_enrich(
    kind: str,
    table: int,
    front: Tuple[DbEntry, ...],
    budget: int,
    size_slack: int,
) -> Tuple[DbEntry, ...]:
    """Exact-tier enrichment of one class's front (budget-bounded).

    Runs SAT-based exact synthesis *below* the fast tier's bounds only: a
    size search capped at ``front[0].size - 1`` and a depth search capped
    at ``front[-1].depth - 1`` (allowing ``size_slack`` extra gates).  An
    UNSAT outcome proves the fast-tier entry optimal, an UNKNOWN (budget
    exhausted) keeps it untouched — enrichment can only improve fronts.
    """
    from ..synth.exact import SAT as SYNTH_SAT
    from ..synth.exact import synthesize_depth_optimal, synthesize_exact

    extra: List[DbEntry] = []
    best = front[0]
    if best.size > 1:
        result = synthesize_exact(
            table, kind, max_gates=best.size - 1, budget=budget
        )
        if result.status == SYNTH_SAT:
            extra.append(result.entry)
    shallowest = front[-1] if not extra else _pareto_front(list(front) + extra)[-1]
    if shallowest.depth > 1:
        result = synthesize_depth_optimal(
            table,
            kind,
            max_gates=shallowest.size + size_slack,
            budget=budget,
            max_depth=shallowest.depth - 1,
        )
        if result.status == SYNTH_SAT:
            extra.append(result.entry)
    if not extra:
        return front
    return _pareto_front(list(front) + extra)


def _extract_program(net, output_neg: bool) -> DbEntry:
    """Serialise the PO cone of a 4-input network into a :class:`DbEntry`."""
    ref_of: Dict[int, int] = {CONST_NODE: 0}
    for index, pi in enumerate(net.pi_nodes()):
        ref_of[pi] = 1 + index
    depth_of: Dict[int, int] = {}
    ops: List[Tuple[int, ...]] = []
    for node in net._topology():
        fanins = net._fanins[node]
        ops.append(tuple((ref_of[f >> 1] << 1) | (f & 1) for f in fanins))
        ref_of[node] = 5 + len(ops) - 1
        depth_of[node] = 1 + max(depth_of.get(f >> 1, 0) for f in fanins)
    (po,) = net.po_signals()
    output = (ref_of[po >> 1] << 1) | ((po & 1) ^ output_neg)
    return DbEntry(tuple(ops), output, len(ops), depth_of.get(po >> 1, 0))
