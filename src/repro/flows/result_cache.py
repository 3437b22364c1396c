"""Content-addressed result cache of :func:`repro.flows.batch.optimize_many`.

One JSON file per entry under ``cache_dir``, kept by three rules:

1. **Content-hash keys** — an entry's key is a SHA-256 over everything
   that shaped it: the input's node-id-independent
   :func:`~repro.parallel.corpus.canonical_fingerprint`, the resolved
   flow and options (defaults filled in), the package sources, the NPN
   canonical map and the NPN structure database.  A change in any of
   them starts a fresh entry instead of serving a stale one.
2. **Atomic writes** — an entry lands via temp file + ``os.replace``, so
   readers and concurrent writers only ever see complete files; an OS
   error (say, a read-only directory) skips the write, never the result.
3. **A torn file is a miss** — a missing, unparsable, foreign or
   inconsistent entry is a cache miss, never an error or a wrong result.
   Networks are stored as JSON that preserves node ids, so a hit is
   bit-identical to re-running; decoding rebuilds the kernel bookkeeping,
   runs nothing from the file, and must pass ``check_integrity`` and the
   structural-fingerprint replay.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..parallel.corpus import canonical_fingerprint, structural_fingerprint
from .mighty import mighty_optimize

#: Part of every key and checked on load; bump when the entry layout changes.
CACHE_FORMAT_VERSION = 2


def canonical_flow_config(flow: str, options: Optional[Dict] = None) -> str:
    """Canonical JSON of a flow and its options, ``mighty`` defaults filled
    in (an omitted option and its explicit default are one computation).
    ``depth_effort`` and ``reshape_rules`` reach no pass of the Boolean
    ``mighty`` flow, so they are left out of the key when
    ``boolean_rewrite`` is on."""
    options = dict(options or {})
    if flow == "mighty":
        bound = inspect.signature(mighty_optimize).bind_partial(**options)
        bound.apply_defaults()
        options = dict(bound.arguments)
        if options["boolean_rewrite"]:
            del options["depth_effort"], options["reshape_rules"]
    try:
        return json.dumps({"flow": flow, "options": options}, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"flow options must be JSON-encodable: {exc}") from exc


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``.py`` file of the ``repro`` package: each relative
    path and the file's bytes, in sorted path order (a file that vanished
    meanwhile hashes as a marker)."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        digest.update(rel.encode())
        try:
            digest.update((root / rel).read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()


def result_cache_key(network, flow: str, options: Optional[Dict] = None) -> str:
    """The content address of one (circuit, flow, options) computation:
    a SHA-256 over the ``repr`` of each ingredient, in order."""
    from ..network.npn import canonical_map_digest, structure_db_digest

    # The map's transforms decide which structure mig_rewrite replays.
    digest = hashlib.sha256()
    for part in (
        CACHE_FORMAT_VERSION,
        canonical_fingerprint(network),
        canonical_flow_config(flow, options),
        code_fingerprint(),
        canonical_map_digest(),
        structure_db_digest(),
    ):
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def encode_network(net) -> dict:
    """JSON form preserving node ids: live gates in level (topological)
    order; slots of dead nodes decode as dead gaps."""
    fanins, dead, level = net._fanins, net._dead, net.level_snapshot()
    live = [n for n in range(1, len(fanins)) if fanins[n] is not None and not dead[n]]
    live.sort(key=lambda n: (level[n], n))
    return {
        "kind": type(net).__name__,
        "name": net.name,
        "num_nodes": len(fanins),
        "pis": [[node, name] for node, name in zip(net._pis, net._pi_names)],
        "gates": [[node, list(fanins[node])] for node in live],
        "pos": [[signal, name] for signal, name in zip(net._pos, net._po_names)],
    }


def decode_network(data: dict):
    """Rebuild :func:`encode_network` output; raises on malformed input."""
    from ..aig.aig import Aig
    from ..core.mig import Mig

    cls, arity = {"Mig": (Mig, 3), "Aig": (Aig, 2)}[data["kind"]]
    net = cls()
    net.name = str(data["name"])
    for _ in range(1, int(data["num_nodes"])):
        net._allocate_node(None)
        net._dead[-1] = True  # a gap until a PI or gate claims the slot
    dead = net._dead

    def claim(node) -> int:
        node = int(node)
        if not 0 < node < len(dead) or not dead[node]:
            raise ValueError(f"node {node} out of range or claimed twice")
        dead[node] = False
        return node

    for node, name in data["pis"]:
        net._pis.append(claim(node))
        net._pi_names.append(str(name))
    for node, fanins in data["gates"]:
        fanins = tuple(int(f) for f in fanins)
        if (
            len(fanins) != arity
            or len({f >> 1 for f in fanins}) != arity
            or any(f < 0 or dead[f >> 1] for f in fanins)
        ):
            raise ValueError(f"gate {node}: bad fanins {fanins}")
        node = claim(node)
        net._fanins[node] = fanins
        net._strash[net._gate_key(fanins)] = node
        net._num_gates += 1
        for f in fanins:
            net._ref[f >> 1] += 1
            net._fanout_add(f >> 1, node)
        net._level[node] = 1 + max(net._level[f >> 1] for f in fanins)
    for signal, name in data["pos"]:
        net.add_po(int(signal), str(name))
    net.check_integrity()
    return net


def cache_get(cache_dir, key: str) -> Optional[Tuple[object, Tuple[int, int]]]:
    """``(network, (initial_size, initial_depth))`` stored under ``key``, or
    ``None``: a missing, torn, stale or inconsistent entry is a miss."""
    try:
        entry = json.loads((Path(cache_dir) / f"{key}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    if entry.get("version") != CACHE_FORMAT_VERSION:
        return None
    try:
        network = decode_network(entry["network"])
        initial = (int(entry["initial_size"]), int(entry["initial_depth"]))
        valid = structural_fingerprint(network) == entry["result_fingerprint"]
    except (AssertionError, IndexError, KeyError, TypeError, ValueError):
        return None  # malformed or inconsistent: a miss
    return (network, initial) if valid else None


def cache_put(cache_dir, key: str, item) -> bool:
    """Atomically store one optimized :class:`~repro.flows.batch.BatchItem`.

    Writes a temp file in ``cache_dir`` and renames it into place with
    ``os.replace``.  Returns ``False`` instead of raising on an OS error.
    """
    entry = {
        "version": CACHE_FORMAT_VERSION,
        "key": key,
        "network": encode_network(item.network),
        "initial_size": item.initial_size,
        "initial_depth": item.initial_depth,
        "result_fingerprint": structural_fingerprint(item.network),
    }
    path = Path(cache_dir) / f"{key}.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True
