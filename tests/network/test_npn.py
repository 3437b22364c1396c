"""Tests for NPN canonicalization and the rewriting structure database."""

import random

import pytest

from repro.aig.aig import Aig
from repro.core import Mig
from repro.network.npn import (
    IDENTITY_TRANSFORM,
    NUM_NPN_CLASSES,
    NpnTransform,
    apply_transform,
    compose_transforms,
    extend_table,
    get_structures,
    invert_transform,
    npn_canonical,
    npn_representatives,
    replay_structure,
)

_FULL = 0xFFFF


def _random_transform(rng):
    perm = list(range(4))
    rng.shuffle(perm)
    return NpnTransform(tuple(perm), rng.randrange(16), bool(rng.randrange(2)))


class TestTransformAlgebra:
    def test_identity(self):
        for table in (0x0000, 0x1234, 0xCAFE, _FULL):
            assert apply_transform(table, IDENTITY_TRANSFORM) == table

    def test_invert_roundtrips(self):
        rng = random.Random(7)
        for _ in range(200):
            table = rng.randrange(1 << 16)
            transform = _random_transform(rng)
            transformed = apply_transform(table, transform)
            assert apply_transform(transformed, invert_transform(transform)) == table

    def test_compose_equals_sequential_application(self):
        rng = random.Random(8)
        for _ in range(200):
            table = rng.randrange(1 << 16)
            first = _random_transform(rng)
            second = _random_transform(rng)
            assert apply_transform(
                apply_transform(table, first), second
            ) == apply_transform(table, compose_transforms(first, second))

    def test_extend_table_pads_upper_variables(self):
        assert extend_table(0b10, 1) == 0xAAAA
        assert extend_table(0b0110, 2) == 0x6666
        assert extend_table(0b1000, 2) == 0x8888


class TestCanonicalization:
    def test_exactly_222_classes_over_all_functions(self):
        """All 65,536 4-variable functions collapse to 222 NPN classes."""
        representatives = {npn_canonical(table)[0] for table in range(1 << 16)}
        assert len(representatives) == NUM_NPN_CLASSES
        assert representatives == set(npn_representatives())

    def test_every_recorded_transform_roundtrips(self):
        """``apply(table, transform) == canonical`` for all 65,536 tables."""
        for table in range(1 << 16):
            canonical, transform = npn_canonical(table)
            assert apply_transform(table, transform) == canonical
            assert apply_transform(canonical, invert_transform(transform)) == table

    def test_canonical_is_orbit_minimum(self):
        rng = random.Random(9)
        for _ in range(50):
            table = rng.randrange(1 << 16)
            canonical, _ = npn_canonical(table)
            assert canonical <= table
            for _ in range(20):
                other = apply_transform(table, _random_transform(rng))
                assert npn_canonical(other)[0] == canonical
                assert canonical <= other

    def test_known_class_members(self):
        # Constants form one class, projections another, XOR4 its own.
        assert npn_canonical(0)[0] == npn_canonical(_FULL)[0] == 0
        proj = npn_canonical(0xAAAA)[0]
        assert all(npn_canonical(v)[0] == proj for v in (0xCCCC, 0xF0F0, 0xFF00))
        xor2 = 0xAAAA ^ 0xCCCC
        assert npn_canonical(xor2)[0] == npn_canonical(xor2 ^ _FULL)[0]


class TestStructureDatabase:
    @pytest.mark.parametrize("kind,cls", [("mig", Mig), ("aig", Aig)])
    def test_every_class_has_a_correct_structure(self, kind, cls):
        """Replaying the database entry reproduces the canonical function."""
        for representative in npn_representatives():
            entry = get_structures(kind, representative)[0]
            net = cls()
            variables = [net.add_pi(f"v{i}") for i in range(4)]
            net.add_po(replay_structure(net, entry, variables), "f")
            (table,) = net.truth_tables()
            assert table == representative, (kind, hex(representative))
            assert net.num_gates <= entry.size
            assert net.depth() <= entry.depth

    def test_degenerate_entries_have_no_gates(self):
        for kind in ("mig", "aig"):
            assert get_structures(kind, 0)[0].size == 0  # constant
            proj = npn_canonical(0xAAAA)[0]
            assert get_structures(kind, proj)[0].size == 0  # single literal

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            get_structures("xmg", 0x1234)
