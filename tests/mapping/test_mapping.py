"""Tests for the standard-cell library, the mapper and the estimation."""

import gc
import weakref

import pytest

from repro.aig.aig import Aig
from repro.bench_circuits import build_benchmark
from repro.core import Mig, random_aoig_mig, random_mig
from repro.mapping import default_library, map_aig, map_mig, map_network, nand_nor_library
from repro.network import mig_to_aig
from repro.verify import assert_equivalent, check_equivalence


class TestLibrary:
    def test_default_library_contents(self):
        library = default_library()
        for name in ("INV", "NAND2", "NOR2", "XOR2", "XNOR2", "MAJ3", "MIN3"):
            assert name in library
        assert library.has_majority_cells
        assert not nand_nor_library().has_majority_cells

    def test_cell_evaluation(self):
        library = default_library()
        mask = 0b1111
        assert library["NAND2"].evaluate([0b1100, 0b1010], mask) == 0b0111
        assert library["XOR2"].evaluate([0b1100, 0b1010], mask) == 0b0110
        assert library["MAJ3"].evaluate([0b1100, 0b1010, 0b1111], mask) == 0b1110
        assert library["MIN3"].evaluate([0b1100, 0b1010, 0b1111], mask) == 0b0001

    def test_unknown_cell_rejected(self):
        library = default_library()
        netlist = map_mig(random_mig(4, 5, num_pos=1, seed=1), library)
        with pytest.raises(ValueError):
            netlist.add_cell("NAND17", "out", ["a"])


class TestMappingCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mig_mapping_preserves_function(self, seed):
        mig = random_mig(7, 40, num_pos=5, seed=seed)
        netlist = map_mig(mig)
        assert_equivalent(mig, netlist)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_aig_mapping_preserves_function(self, seed):
        aig = mig_to_aig(random_aoig_mig(7, 40, num_pos=4, seed=seed))
        netlist = map_aig(aig)
        assert_equivalent(aig, netlist)

    def test_xor_pattern_uses_xor_cells(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.xor_(a, b), "f")
        netlist = map_mig(mig)
        histogram = netlist.cell_histogram()
        assert histogram.get("XOR2", 0) + histogram.get("XNOR2", 0) == 1
        assert_equivalent(mig, netlist)

    def test_xor_match_absorbs_interior_cells(self):
        # Regression: the seed mapper emitted the matched cone's interior
        # AND/OR cells before the XOR match and left them dangling.
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.xor_(a, b), "f")
        netlist = map_mig(mig)
        assert netlist.num_cells == 1
        assert netlist.instances[0].cell in ("XOR2", "XNOR2")

    def test_aig_majority_cone_matches_majority_cell(self):
        # Cut + NPN matching recognises the 4-node AND/OR majority cone in
        # an AIG and maps it onto a single MAJ3/MIN3 cell — something the
        # hand-written XOR-only pattern matcher could never do.
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        aig.add_po(aig.maj_(a, b, c), "m")
        netlist = map_aig(aig)
        histogram = netlist.cell_histogram()
        assert histogram.get("MAJ3", 0) + histogram.get("MIN3", 0) == 1
        assert "AND2" not in histogram and "OR2" not in histogram
        assert_equivalent(aig, netlist)

    def test_shared_interior_blocks_absorption(self):
        # A cone whose interior drives other logic must not be absorbed.
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        x = mig.xor_(a, b)
        # Re-use the OR(a, b) interior node of the XOR cone elsewhere.
        mig.add_po(x, "f")
        mig.add_po(mig.or_(a, b), "g")
        netlist = map_mig(mig)
        assert_equivalent(mig, netlist)

    def test_majority_node_uses_majority_cell(self):
        mig = Mig()
        a, b, c = (mig.add_pi(n) for n in "abc")
        mig.add_po(mig.maj(a, b, c), "m")
        netlist = map_mig(mig)
        histogram = netlist.cell_histogram()
        assert histogram.get("MAJ3", 0) + histogram.get("MIN3", 0) == 1

    def test_mapping_without_majority_cells(self):
        mig = build_benchmark("alu4", Mig)
        netlist = map_mig(mig, nand_nor_library())
        assert "MAJ3" not in netlist.cell_histogram()
        assert check_equivalence(mig, netlist).equivalent

    def test_map_network_dispatch(self):
        mig = random_mig(5, 10, num_pos=2, seed=9)
        aig = mig_to_aig(mig)
        assert map_network(mig).num_cells > 0
        assert map_network(aig).num_cells > 0
        with pytest.raises(TypeError):
            map_network("not a network")

    def test_benchmark_mapping_roundtrip(self):
        mig = build_benchmark("my_adder", Mig)
        netlist = map_mig(mig)
        assert check_equivalence(mig, netlist, num_random_vectors=512).equivalent

    @pytest.mark.parametrize("kind", [Mig, Aig])
    def test_mapping_leaves_no_cut_state(self, kind):
        """Regression: the mapper attached a ``(3, 6)`` cut manager to the
        network it mapped and never detached it, so every mapped network
        kept a manager↔network cycle that only the cyclic GC could free."""
        net = build_benchmark("alu4", kind)
        map_network(net)
        assert not net.__dict__.get("_cut_managers")
        assert not net._mutation_listeners
        ref = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert ref() is None
        finally:
            gc.enable()


class TestEstimation:
    def test_area_delay_power_positive(self):
        mig = build_benchmark("alu4", Mig)
        netlist = map_mig(mig)
        assert netlist.area() > 0
        assert netlist.delay() > 0
        assert netlist.power() > 0

    def test_delay_scales_with_depth(self):
        shallow = Mig()
        a, b = shallow.add_pi("a"), shallow.add_pi("b")
        shallow.add_po(shallow.and_(a, b), "f")
        deep = Mig()
        pis = [deep.add_pi(f"x{i}") for i in range(8)]
        chain = pis[0]
        for p in pis[1:]:
            chain = deep.and_(chain, p)
        deep.add_po(chain, "f")
        assert map_mig(deep).delay() > map_mig(shallow).delay()

    def test_power_depends_on_input_probabilities(self):
        mig = build_benchmark("count", Mig)
        netlist = map_mig(mig)
        active = netlist.power({name: 0.5 for name in netlist.pi_names})
        quiet = netlist.power({name: 0.999 for name in netlist.pi_names})
        assert quiet < active

    def test_cell_histogram_counts_all_instances(self):
        mig = build_benchmark("misex3", Mig)
        netlist = map_mig(mig)
        assert sum(netlist.cell_histogram().values()) == netlist.num_cells
