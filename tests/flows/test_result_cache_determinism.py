"""Cached-vs-uncached determinism battery of ``optimize_many(cache_dir=)``.

The contract under test (see :mod:`repro.flows.result_cache`): routing a
corpus through the result cache returns networks **bit-identical**
(node ids, fanins, primary outputs, hence structural fingerprints) to
``optimize_many(cache_dir=None)`` at any worker count, and a cached
resubmission returns those same bits without any optimization pass
running.  Entries that are torn, corrupt, computed by other code or
against another structure database, or that would run code on load,
are misses.
"""

import base64
import json
import pickle

import pytest

from repro.aig.aig import Aig
from repro.core.generation import rebuild_shuffled
from repro.flows import optimize_many
from repro.flows import result_cache
from repro.network import npn
from repro.parallel.corpus import structural_fingerprint

WORKER_COUNTS = (1, 2, 4)


def _corpus(forge):
    """A small mixed MIG/AIG corpus with uneven sizes (exercises LPT)."""
    return [
        forge(kind="mig", gate_mix="aoig", seed=11, num_gates=30, num_pis=5),
        forge(kind="aig", gate_mix="aoig", seed=12, num_gates=35, num_pis=5),
        forge(kind="mig", gate_mix="mixed", seed=13, num_gates=22, num_pis=4),
        forge(kind="aig", gate_mix="mixed", seed=14, num_gates=27, num_pis=6),
    ]


def _assert_items_bit_identical(items, reference_items):
    assert len(items) == len(reference_items)
    for item, reference in zip(items, reference_items):
        assert structural_fingerprint(item.network) == structural_fingerprint(
            reference.network
        ), item.name
        assert item.initial_size == reference.initial_size
        assert item.final_size == reference.final_size
        assert item.initial_depth == reference.initial_depth
        assert item.final_depth == reference.final_depth


def _cached(report):
    return [item.flow.endswith("+cached") for item in report.items]


def _boom(*args, **kwargs):
    raise AssertionError("optimizer invoked on the cached path")


class TestCachedDeterminism:
    def test_bit_identical_to_uncached_at_every_worker_count(
        self, tmp_path, network_forge
    ):
        corpus = _corpus(network_forge)
        direct = optimize_many(corpus, workers=1)
        for workers in WORKER_COUNTS:
            cache_dir = tmp_path / f"w{workers}"
            first = optimize_many(corpus, workers=workers, cache_dir=cache_dir)
            _assert_items_bit_identical(first.items, direct.items)
            assert not any(_cached(first))  # fresh cache: everything ran
            again = optimize_many(corpus, workers=workers, cache_dir=cache_dir)
            _assert_items_bit_identical(again.items, direct.items)
            assert all(_cached(again))

    def test_cached_resubmission_runs_no_pass(
        self, tmp_path, network_forge, monkeypatch
    ):
        corpus = _corpus(network_forge)
        direct = optimize_many(corpus, workers=1)
        optimize_many(corpus, workers=2, cache_dir=tmp_path)
        # Any further optimization pass is a contract violation.
        monkeypatch.setattr("repro.flows.mighty.mighty_optimize", _boom)
        monkeypatch.setattr("repro.aig.resyn.resyn2", _boom)
        again = optimize_many(corpus, workers=1, cache_dir=tmp_path)
        _assert_items_bit_identical(again.items, direct.items)
        assert all(_cached(again))
        assert all(item.runtime_s == 0 for item in again.items)
        assert all(not item.pass_metrics for item in again.items)
        assert [item.index for item in again.items] == list(range(len(corpus)))

    def test_shuffled_rebuilds_hit_the_cache(self, tmp_path, network_forge):
        """Same structure under fresh node ids resolves from the cache —
        bit-identical to the *original* run, ids and all."""
        corpus = _corpus(network_forge)
        first = optimize_many(corpus, workers=2, cache_dir=tmp_path)
        shuffled = [rebuild_shuffled(net, seed=31 + i) for i, net in enumerate(corpus)]
        again = optimize_many(shuffled, workers=2, cache_dir=tmp_path)
        assert all(_cached(again))
        _assert_items_bit_identical(again.items, first.items)

    def test_mixed_corpus_with_flow_options(self, tmp_path, network_forge):
        """MIG items get the options, AIG items under "auto" get none."""
        corpus = _corpus(network_forge)
        direct = optimize_many(corpus, workers=1, rounds=1)
        first = optimize_many(corpus, workers=2, cache_dir=tmp_path, rounds=1)
        again = optimize_many(corpus, workers=2, cache_dir=tmp_path, rounds=1)
        _assert_items_bit_identical(first.items, direct.items)
        _assert_items_bit_identical(again.items, direct.items)
        assert all(_cached(again))
        assert [item.flow for item in again.items] == [
            "mighty+cached", "resyn2+cached", "mighty+cached", "resyn2+cached",
        ]

    def test_torn_and_corrupt_entries_are_misses(self, tmp_path, network_forge):
        corpus = _corpus(network_forge)[:2]
        direct = optimize_many(corpus, workers=1)
        optimize_many(corpus, workers=1, cache_dir=tmp_path)
        torn, corrupt = sorted(tmp_path.glob("*.json"))
        torn.write_text(torn.read_text()[:40])
        entry = json.loads(corrupt.read_text())
        entry["network"]["pos"][0][0] ^= 1  # a complemented output
        corrupt.write_text(json.dumps(entry))
        assert result_cache.cache_get(tmp_path, torn.stem) is None
        assert result_cache.cache_get(tmp_path, corrupt.stem) is None
        again = optimize_many(corpus, workers=1, cache_dir=tmp_path)
        assert not any(_cached(again))
        _assert_items_bit_identical(again.items, direct.items)
        assert all(_cached(optimize_many(corpus, workers=1, cache_dir=tmp_path)))

    def test_unwritable_cache_dir_skips_the_write(self, tmp_path, network_forge):
        """An OS error on write costs the entry, never the result."""
        corpus = _corpus(network_forge)[:2]
        direct = optimize_many(corpus, workers=1)
        blocked = tmp_path / "file"
        blocked.write_text("")  # a file where the cache directory should be
        item = direct.items[0]
        assert result_cache.cache_put(blocked, "key", item) is False
        assert result_cache.cache_get(blocked, "key") is None
        report = optimize_many(corpus, workers=1, cache_dir=blocked)
        assert not any(_cached(report))
        _assert_items_bit_identical(report.items, direct.items)
        assert blocked.read_text() == ""

    def test_failed_items_raise_and_are_not_cached(
        self, tmp_path, network_forge, monkeypatch
    ):
        """The batch API never silently drops a corpus item."""
        corpus = _corpus(network_forge)[:1]
        # The in-process job fails inside the flow, after every up-front check.
        monkeypatch.setattr("repro.flows.mighty.mighty_optimize", _boom)
        with pytest.raises(RuntimeError, match="failed"):
            optimize_many(corpus, workers=1, flow="mighty", cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.json"))


class TestKeyedComputation:
    def test_entries_keyed_on_resolved_flow_and_forwarded_options(
        self, tmp_path, network_forge
    ):
        """Each entry sits under the key of what actually ran: the resolved
        flow and the options forwarded to it (none for AIG items under
        "auto")."""
        corpus = _corpus(network_forge)
        optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        expected = {
            result_cache.result_cache_key(net, "resyn2", {})
            if isinstance(net, Aig)
            else result_cache.result_cache_key(net, "mighty", {"rounds": 1})
            for net in corpus
        }
        assert {path.stem for path in tmp_path.glob("*.json")} == expected

    def test_auto_and_explicit_flow_share_entries(self, tmp_path, network_forge):
        """"auto" resolves per item before keying, so naming the same flow
        explicitly is the same computation and hits the same entries."""
        corpus = _corpus(network_forge)
        optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        migs = [net for net in corpus if not isinstance(net, Aig)]
        aigs = [net for net in corpus if isinstance(net, Aig)]
        mig_report = optimize_many(
            migs, workers=1, flow="mighty", cache_dir=tmp_path, rounds=1
        )
        aig_report = optimize_many(aigs, workers=1, flow="resyn2", cache_dir=tmp_path)
        assert all(_cached(mig_report)) and all(_cached(aig_report))

    def test_partial_hits_run_only_the_misses(self, tmp_path, network_forge):
        corpus = _corpus(network_forge)
        direct = optimize_many(corpus, workers=1)
        optimize_many(corpus[::2], workers=1, cache_dir=tmp_path)
        report = optimize_many(corpus, workers=2, cache_dir=tmp_path)
        assert _cached(report) == [True, False, True, False]
        assert len(report.execution.tasks) == 2  # only the misses ran
        assert [item.index for item in report.items] == list(range(len(corpus)))
        _assert_items_bit_identical(report.items, direct.items)
        assert all(_cached(optimize_many(corpus, workers=1, cache_dir=tmp_path)))

    def test_no_cache_dir_computes_no_key(self, network_forge, monkeypatch):
        """``cache_dir=None`` never touches the cache, not even to key."""

        def _no_cache(*args, **kwargs):
            raise AssertionError("result cache used without a cache_dir")

        for name in ("result_cache_key", "cache_get", "cache_put"):
            monkeypatch.setattr(result_cache, name, _no_cache)
        report = optimize_many(_corpus(network_forge)[:2], workers=1)
        assert not any(_cached(report))


class _CreatesMarker:
    """Unpickling this object creates the file ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestLoadRunsNoCode:
    def test_pickled_network_payload_is_a_miss(self, tmp_path, network_forge):
        """Regression: entries used to hold base64 pickles, so a planted
        entry ran arbitrary code on lookup."""
        net = network_forge(kind="mig", seed=3, num_gates=20)
        marker = tmp_path / "marker"
        key = result_cache.result_cache_key(net, "mighty")
        payload = base64.b64encode(pickle.dumps(_CreatesMarker(str(marker))))
        entry = {
            "version": result_cache.CACHE_FORMAT_VERSION,
            "key": key,
            "network": payload.decode("ascii"),
            "initial_size": net.num_gates,
            "initial_depth": net.depth(),
            "final_size": net.num_gates,
            "final_depth": net.depth(),
            "result_fingerprint": structural_fingerprint(net),
        }
        (tmp_path / f"{key}.json").write_text(json.dumps(entry))
        assert result_cache.cache_get(tmp_path, key) is None
        report = optimize_many([net], workers=1, cache_dir=tmp_path)
        assert not any(_cached(report))
        assert not marker.exists()

    @pytest.mark.parametrize("kind", ("mig", "aig"))
    def test_encoding_round_trips_node_ids(self, network_forge, kind):
        net = network_forge(kind=kind, gate_mix="mixed", seed=7, num_gates=40)
        optimized = optimize_many([net], workers=1, rounds=1).items[0].network
        decoded = result_cache.decode_network(
            json.loads(json.dumps(result_cache.encode_network(optimized)))
        )
        assert type(decoded) is type(optimized)
        assert decoded.num_nodes == optimized.num_nodes
        assert structural_fingerprint(decoded) == structural_fingerprint(optimized)
        assert decoded.num_gates == optimized.num_gates
        assert decoded.depth() == optimized.depth()

    def test_decoder_rejects_a_gate_repeating_a_fanin_node(self, network_forge):
        """The kernel lists each parent once per fanin node, which holds
        only for gates over distinct nodes (the builders fold repeats)."""
        net = network_forge(kind="mig", gate_mix="mixed", seed=7, num_gates=40)
        data = result_cache.encode_network(net)
        node, (a, b, c) = data["gates"][-1]
        data["gates"][-1] = [node, [a, a ^ 1, c]]
        with pytest.raises(ValueError):
            result_cache.decode_network(data)


class TestStaleEntries:
    def test_code_change_retires_entries(self, tmp_path, network_forge, monkeypatch):
        """Regression: the key used to omit the optimizer code, so an entry
        computed by other code was served."""
        corpus = _corpus(network_forge)[:2]
        optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        again = optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        assert all(_cached(again))
        monkeypatch.setattr(result_cache, "code_fingerprint", lambda: "edited")
        again = optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        assert not any(_cached(again))

    def test_structure_db_change_retires_entries(
        self, tmp_path, network_forge, monkeypatch
    ):
        """Regression: the key used to omit the structure database, so an
        entry computed against another database was served."""
        corpus = _corpus(network_forge)[:2]
        optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        again = optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        assert all(_cached(again))
        monkeypatch.setattr(npn, "structure_db_digest", lambda: "regenerated")
        again = optimize_many(corpus, workers=1, cache_dir=tmp_path, rounds=1)
        assert not any(_cached(again))
