"""Tests for the committed NPN structure-database file.

The contract: the package ships one validated file covering every
canonical class of both kinds; a corrupt, semantically wrong, wrong-arity
or non-canonical file is rejected with ``ValueError`` (never served, never
silently re-derived); the committed fronts are no worse than what the
current derivation finds; and using the database writes nothing to the
user's home.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network import npn
from repro.network.npn import (
    STRUCTURE_DB_PATH,
    get_structure,
    get_structures,
    load_structure_db,
    npn_representatives,
    write_structure_db,
)

#: A small spread of classes for the re-derivation check (the full 222x2
#: derivation belongs to ``benchmarks/regen_structure_db.py``); the slice
#: step hits constants, literals and multi-gate classes alike.
_SAMPLE = npn_representatives()[::11]


@pytest.fixture()
def payload():
    """The committed file's JSON, for tests to damage."""
    return json.loads(STRUCTURE_DB_PATH.read_text(encoding="utf-8"))


def _load_damaged(tmp_path, payload):
    path = tmp_path / "structure_db.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_structure_db(path)


def _multi_gate_class(payload, kind):
    return next(key for key, front in payload[kind].items() if front[0]["ops"])


def test_committed_file_covers_every_class_with_valid_entries():
    fronts = load_structure_db()
    reps = npn_representatives()
    for kind in ("mig", "aig"):
        assert sorted(table for k, table in fronts if k == kind) == reps
    for (kind, table), front in fronts.items():
        assert all(npn._validate_entry(kind, table, entry) for entry in front)


def test_writer_reproduces_the_committed_bytes(tmp_path):
    path = tmp_path / "structure_db.json"
    write_structure_db(path, load_structure_db())
    assert path.read_bytes() == STRUCTURE_DB_PATH.read_bytes()


def test_corrupt_file_is_rejected(tmp_path):
    path = tmp_path / "structure_db.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_structure_db(path)


def test_semantically_wrong_entry_is_rejected(tmp_path, payload):
    # Flip the output polarity of a class's first entry: the program no
    # longer computes the class function.
    payload["mig"][_multi_gate_class(payload, "mig")][0]["output"] ^= 1
    with pytest.raises(ValueError):
        _load_damaged(tmp_path, payload)


def test_wrong_arity_entry_is_rejected(tmp_path, payload):
    """A table-valid MAJ program in the AIG section must not be trusted —
    the AND builders would crash on 3-fanin ops mid-sweep."""
    key = _multi_gate_class(payload, "mig")
    assert any(len(op) == 3 for op in payload["mig"][key][0]["ops"])
    payload["aig"][key] = payload["mig"][key][:1]
    with pytest.raises(ValueError):
        _load_damaged(tmp_path, payload)


def test_non_canonical_key_is_rejected(tmp_path, payload):
    # The canonical map would never look the key up, and trusting it would
    # poison lookups that bypass canonicalization.
    payload["mig"]["12345"] = [{"ops": [], "output": 2, "size": 0, "depth": 0}]
    with pytest.raises(ValueError):
        _load_damaged(tmp_path, payload)


def test_incomplete_file_is_rejected(tmp_path, payload):
    del payload["aig"][_multi_gate_class(payload, "aig")]
    with pytest.raises(ValueError):
        _load_damaged(tmp_path, payload)


@pytest.mark.parametrize("kind", ["mig", "aig"])
def test_committed_fronts_dominate_a_fresh_derivation(kind):
    """Valid and no larger: every structure the current derivation finds is
    matched by a committed entry no larger and no deeper.  Equality is not
    required, so an optimizer change cannot fail this by finding the same
    or worse structures."""
    for rep in _SAMPLE:
        committed = get_structures(kind, rep)
        for derived in npn._derive_structures(kind, rep):
            assert any(
                entry.size <= derived.size and entry.depth <= derived.depth
                for entry in committed
            ), f"{kind} {rep:#06x}: derived {derived.size}/{derived.depth} beats the file"


def test_entry_truth_table_matches_replay():
    """The pure-table evaluator agrees with an actual network replay."""
    from repro.core.mig import Mig
    from repro.network.npn import replay_structure

    for table in _SAMPLE[:8]:
        entry = get_structure("mig", table)
        mig = Mig()
        inputs = [mig.add_pi(f"v{i}") for i in range(4)]
        mig.add_po(replay_structure(mig, entry, inputs), "f")
        assert mig.truth_tables()[0] == table


def test_optimizing_writes_nothing_to_home(tmp_path):
    """Regression: loading the database used to derive it and persist the
    result under ``~/.cache``, so every cold run wrote into the user's home."""
    home = tmp_path / "home"
    home.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_NPN_")}
    env["HOME"] = str(home)
    env["PYTHONPATH"] = str(Path(npn.__file__).resolve().parents[2])
    script = (
        "from repro.bench_circuits import build_benchmark\n"
        "from repro.core.mig import Mig\n"
        "from repro.flows.mighty import mighty_optimize\n"
        "from repro.parallel.executor import warm_worker\n"
        "warm_worker()\n"
        "mighty_optimize(build_benchmark('my_adder', Mig))\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, check=True)
    assert list(home.iterdir()) == []
