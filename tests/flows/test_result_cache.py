"""Property battery for the result-cache key contract.

The contract (see :mod:`repro.flows.result_cache`): the content address
``result_cache_key(network, flow, options)`` must be *stable* across
node renamings — structurally identical networks built in different
orders hit the same entry — and *sound* across everything else: network
kind, PI arity, PI/PO names and order, complement bits, gate structure
and sharing, and every flow option must separate keys.  A collision
here would silently serve one circuit's optimization result for a
different circuit, so the fuzz lanes are deliberately adversarial.
"""

import pytest

from repro.aig.aig import Aig
from repro.core import RESHAPE_RULES, Mig
from repro.core.generation import rebuild_shuffled
from repro.parallel.corpus import canonical_fingerprint, structural_fingerprint
from repro.flows import mighty_optimize
from repro.flows.result_cache import canonical_flow_config, result_cache_key
from repro.verify import check_equivalence

KINDS = ("mig", "aig")


# --------------------------------------------------------------------- #
# Stability: same structure, different ids -> same key
# --------------------------------------------------------------------- #
class TestCanonicalStability:
    def test_shuffled_rebuild_hits_same_key(self, network_forge):
        """Node ids / construction order never split the cache."""
        ids_differed = 0
        for kind in KINDS:
            for mix in ("aoig", "mixed"):
                for seed in range(4):
                    net = network_forge(
                        kind=kind, gate_mix=mix, seed=seed + 1, num_gates=40
                    )
                    shuffled = rebuild_shuffled(net, seed=seed + 101)
                    assert canonical_fingerprint(shuffled) == canonical_fingerprint(
                        net
                    ), (kind, mix, seed)
                    assert result_cache_key(shuffled, "mighty") == result_cache_key(
                        net, "mighty"
                    )
                    if structural_fingerprint(shuffled) != structural_fingerprint(net):
                        ids_differed += 1
        # The property is vacuous if every rebuild kept the original ids.
        assert ids_differed >= 8

    def test_rebuilt_networks_stay_equivalent(self, network_forge):
        """The rebuild helper itself must not change logic."""
        for kind in KINDS:
            net = network_forge(kind=kind, gate_mix="mixed", seed=5, num_gates=35)
            shuffled = rebuild_shuffled(net, seed=77)
            assert check_equivalence(net, shuffled).equivalent

    def test_fingerprint_is_deterministic(self, network_forge):
        net = network_forge(kind="mig", seed=3, num_gates=30)
        assert canonical_fingerprint(net) == canonical_fingerprint(net)
        assert result_cache_key(net, "mighty", {"rounds": 1}) == result_cache_key(
            net, "mighty", {"rounds": 1}
        )


# --------------------------------------------------------------------- #
# Soundness: anything semantically different -> different key
# --------------------------------------------------------------------- #
def _passthrough(cls, num_pis: int):
    net = cls()
    sigs = [net.add_pi(f"x{i}") for i in range(num_pis)]
    net.add_po(sigs[0], "y0")
    return net


class TestKeySoundness:
    def test_network_kind_never_collides(self):
        """A MIG and an AIG with identical shape must key apart."""
        mig = _passthrough(Mig, 3)
        aig = _passthrough(Aig, 3)
        assert canonical_fingerprint(mig) != canonical_fingerprint(aig)
        assert result_cache_key(mig, "mighty") != result_cache_key(aig, "mighty")

    def test_pi_arity_covered_even_when_unreferenced(self):
        """An extra dangling PI is a different interface, so a new key."""
        assert canonical_fingerprint(_passthrough(Mig, 3)) != canonical_fingerprint(
            _passthrough(Mig, 4)
        )

    def test_pi_and_po_names_covered(self):
        a = _passthrough(Mig, 3)
        b = Mig()
        sigs = [b.add_pi(f"z{i}") for i in range(3)]
        b.add_po(sigs[0], "y0")
        assert canonical_fingerprint(a) != canonical_fingerprint(b)
        c = Mig()
        sigs = [c.add_pi(f"x{i}") for i in range(3)]
        c.add_po(sigs[0], "renamed")
        assert canonical_fingerprint(a) != canonical_fingerprint(c)

    def test_po_order_and_polarity_covered(self):
        def build(order_swap: bool, negate_first: bool):
            net = Mig()
            a, b, c = (net.add_pi(n) for n in "abc")
            t = net.maj(a, b, c)
            first = net.not_(t) if negate_first else t
            pos = [(first, "y0"), (a, "y1")]
            if order_swap:
                pos = [(pos[1][0], "y0"), (pos[0][0], "y1")]
            for sig, name in pos:
                net.add_po(sig, name)
            return net

        base = build(False, False)
        assert canonical_fingerprint(base) != canonical_fingerprint(build(True, False))
        assert canonical_fingerprint(base) != canonical_fingerprint(build(False, True))

    def test_sharing_pattern_covered(self):
        """A shared cone and a structurally different cone key apart."""

        def with_sharing():
            net = Mig()
            a, b, c, d = (net.add_pi(n) for n in "abcd")
            t = net.maj(a, b, c)
            net.add_po(net.maj(t, c, d), "y0")
            net.add_po(net.maj(t, a, d), "y1")
            return net

        def without_sharing():
            net = Mig()
            a, b, c, d = (net.add_pi(n) for n in "abcd")
            net.add_po(net.maj(net.maj(a, b, c), c, d), "y0")
            net.add_po(net.maj(net.maj(a, b, d), a, d), "y1")
            return net

        assert canonical_fingerprint(with_sharing()) != canonical_fingerprint(
            without_sharing()
        )

    def test_flow_and_options_never_collide(self, network_forge):
        net = network_forge(kind="mig", seed=2, num_gates=25)
        keys = {
            result_cache_key(net, "mighty"),
            result_cache_key(net, "mighty", {"rounds": 1}),
            result_cache_key(net, "mighty", {"rounds": 1, "boolean_rewrite": False}),
            result_cache_key(net, "mighty", {"depth_effort": 1, "boolean_rewrite": False}),
            result_cache_key(net, "mighty", {"boolean_rewrite": False}),
            result_cache_key(net, "resyn2"),
        }
        assert len(keys) == 6

    def test_collision_fuzz_across_corpus(self, network_forge):
        """Distinct structures across a varied corpus never share a key."""
        nets = []
        for kind in KINDS:
            for seed in range(5):
                nets.append(
                    network_forge(
                        kind=kind,
                        gate_mix=("aoig", "maj", "mixed")[seed % 3],
                        num_pis=4 + seed % 3,
                        num_gates=15 + 7 * seed,
                        seed=seed + 1,
                    )
                )
        by_key = {}
        for net in nets:
            for options in (None, {"rounds": 1}):
                key = result_cache_key(net, "mighty", options)
                if key in by_key:
                    other_net, other_options = by_key[key]
                    assert other_options == options
                    assert canonical_fingerprint(other_net) == canonical_fingerprint(
                        net
                    ), "cache-key collision between distinct structures"
                by_key[key] = (net, options)
        assert len(by_key) == len(nets) * 2


# --------------------------------------------------------------------- #
# Flow-config canonicalization
# --------------------------------------------------------------------- #
class TestFlowConfig:
    def test_dict_order_is_normalized(self):
        assert canonical_flow_config(
            "mighty", {"rounds": 2, "depth_effort": 1}
        ) == canonical_flow_config("mighty", {"depth_effort": 1, "rounds": 2})

    def test_value_and_flow_sensitivity(self):
        assert canonical_flow_config("mighty", {"rounds": 1}) != canonical_flow_config(
            "mighty", {"rounds": 2}
        )
        assert canonical_flow_config("mighty") != canonical_flow_config("resyn2")

    def test_depth_effort_keys_only_the_algebraic_flow(self):
        """Regression: ``depth_effort`` reaches no pass of the Boolean flow,
        so keying it there split one computation across several keys."""

        def config(effort, boolean_rewrite):
            options = {"depth_effort": effort, "boolean_rewrite": boolean_rewrite}
            return canonical_flow_config("mighty", options)

        assert config(1, True) == config(2, True)
        assert config(1, False) != config(2, False)

    def test_reshape_rules_keys_only_the_algebraic_flow(self):
        """Regression: ``reshape_rules`` reaches no pass of the Boolean
        flow, so keying it there split one computation across keys."""

        def config(rules, boolean_rewrite):
            options = {"reshape_rules": rules, "boolean_rewrite": boolean_rewrite}
            return canonical_flow_config("mighty", options)

        subset = ["Ω.A", "Ω.A-reshape"]
        assert config(subset, True) == config(list(RESHAPE_RULES), True)
        assert config(subset, False) != config(list(RESHAPE_RULES), False)

    def test_non_json_options_rejected(self):
        with pytest.raises(ValueError):
            canonical_flow_config(
                "mighty", {"reshape_rules": object(), "boolean_rewrite": False}
            )

    def test_unknown_mighty_option_rejected(self):
        """Regression: ``pi_probabilities`` was accepted and ignored by
        ``mighty_optimize``, so passing it split one computation across
        two cache keys."""
        with pytest.raises(TypeError):
            canonical_flow_config("mighty", {"pi_probabilities": {"a": 0.9}})

    def test_defaults_are_resolved(self, network_forge):
        """Regression: an omitted option and its explicit default are one
        computation and share a key; a non-default value never does."""
        net = network_forge(kind="mig", seed=2, num_gates=25)
        defaults = {
            "rounds": 2,
            "depth_effort": 2,
            "reshape_rules": list(RESHAPE_RULES),
            "boolean_rewrite": True,
        }
        assert result_cache_key(net, "mighty", {}) == result_cache_key(
            net, "mighty", defaults
        )
        assert result_cache_key(net, "mighty", {}) != result_cache_key(
            net, "mighty", {"boolean_rewrite": False}
        )
        algebraic = {"boolean_rewrite": False}
        assert result_cache_key(net, "mighty", algebraic) != result_cache_key(
            net, "mighty", {**algebraic, "reshape_rules": ["Ω.A", "Ω.A-reshape"]}
        )

    @pytest.mark.parametrize(
        "options",
        [
            {"rounds": 0},
            {"depth_effort": 0, "boolean_rewrite": False},
            {"rounds": -3, "depth_effort": 1},
            {"reshape_rules": ["Ω.Z"]},
            {"reshape_rules": ["Ω.Z"], "boolean_rewrite": False},
        ],
    )
    def test_no_run_below_one_round_or_cycle(
        self, network_forge, tmp_path, monkeypatch, options
    ):
        """Regression: ``rounds`` and ``depth_effort`` below 1 were clamped
        to 1 at run time but keyed raw, so one computation had several
        cache keys.  They are rejected, before any work and any key
        (``depth_effort`` only in the algebraic flow, the one it reaches).
        An unknown rule name is rejected the same way in both flows: the
        Boolean round runs no reshape, so only this check catches it there."""
        import repro.flows.batch as batch

        def no_work(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(batch, "parallel_map", no_work)
        net = network_forge(kind="mig", seed=3, num_gates=20)
        with pytest.raises(ValueError):
            mighty_optimize(net.copy(), **options)
        for cache_dir in (None, tmp_path):
            with pytest.raises(ValueError):
                batch.optimize_many(
                    [net], workers=1, flow="mighty", cache_dir=cache_dir, **options
                )
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# Package data: the NPN files shape results, so they shape keys
# --------------------------------------------------------------------- #
class TestNpnData:
    def test_canonical_map_change_changes_key(self, network_forge, monkeypatch, tmp_path):
        """Regression: the key hashed the sources and the structure DB but
        not the canonical map, whose transforms decide which structure
        ``mig_rewrite`` replays.  A map differing in one (still valid)
        transform must start fresh entries."""
        from repro.network import npn

        net = network_forge(kind="mig", seed=4, num_gates=30)
        before = result_cache_key(net, "mighty")
        canon = list(npn._canonical_map())
        group = npn._transform_group()
        for table, (rep, transform) in enumerate(canon):
            other = next(
                (t for t in group if t != transform and npn.apply_transform(table, t) == rep),
                None,
            )
            if other is not None and rep != table:
                break
        canon[table] = (rep, other)
        path = tmp_path / "npn_canonical.bin"
        npn.write_canonical_map(path, canon)
        monkeypatch.setattr(npn, "CANONICAL_MAP_PATH", path)
        monkeypatch.setattr(npn, "_CANON", None)
        assert npn.npn_canonical(table) == (rep, other)
        assert result_cache_key(net, "mighty") != before
