"""Tests for the structural Verilog reader / writers."""

import pytest

from repro.bench_circuits import benchmark_names, build_benchmark
from repro.core import Mig, random_aoig_mig, random_mig
from repro.flows import mighty_optimize
from repro.io import read_verilog, write_mig_verilog, write_netlist_verilog
from repro.mapping import map_mig
from repro.verify import check_equivalence


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mig_verilog_roundtrip(self, seed):
        mig = random_mig(7, 35, num_pos=4, seed=seed)
        text = write_mig_verilog(mig)
        parsed = read_verilog(text)
        assert parsed.pi_names() == mig.pi_names()
        assert parsed.po_names() == mig.po_names()
        assert check_equivalence(mig, parsed).equivalent

    def test_benchmark_roundtrip(self):
        mig = build_benchmark("alu4", Mig)
        parsed = read_verilog(write_mig_verilog(mig))
        assert check_equivalence(mig, parsed).equivalent

    @pytest.mark.parametrize("name", benchmark_names())
    def test_bench_suite_roundtrip_property(self, name):
        """write → read → equivalent, for every circuit of the suite."""
        mig = build_benchmark(name, Mig)
        parsed = read_verilog(write_mig_verilog(mig))
        assert parsed.pi_names() == mig.pi_names()
        assert parsed.po_names() == mig.po_names()
        result = check_equivalence(mig, parsed, num_random_vectors=256)
        assert result.equivalent, (
            f"{name}: round-trip not equivalent "
            f"(output {result.failing_output}, cex {result.counterexample})"
        )

    def test_optimized_network_roundtrip(self):
        """Polarity-normalized (complement-heavy) structures survive too."""
        mig = build_benchmark("count", Mig)
        mighty_optimize(mig, rounds=1)
        parsed = read_verilog(write_mig_verilog(mig))
        assert check_equivalence(mig, parsed, num_random_vectors=512).equivalent

    def test_constants_and_inverters(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.not_(mig.and_(a, mig.constant(True))), "f")
        mig.add_po(mig.or_(b, mig.constant(False)), "g")
        parsed = read_verilog(write_mig_verilog(mig))
        assert check_equivalence(mig, parsed).equivalent


class TestReader:
    def test_reads_handwritten_module(self):
        text = """
        module adder1 (a, b, cin, s, cout);
          input a, b, cin;
          output s, cout;
          wire axb;
          assign axb = a ^ b;
          assign s = axb ^ cin;
          assign cout = (a & b) | (axb & cin);
        endmodule
        """
        mig = read_verilog(text)
        assert mig.pi_names() == ["a", "b", "cin"]
        assert mig.po_names() == ["s", "cout"]
        tts = mig.truth_tables()
        for i in range(8):
            a, b, c = i & 1, (i >> 1) & 1, (i >> 2) & 1
            assert ((tts[0] >> i) & 1) == ((a + b + c) & 1)
            assert ((tts[1] >> i) & 1) == (1 if a + b + c >= 2 else 0)

    @pytest.mark.parametrize(
        "expression",
        [
            "a ^ b & c | d",
            "~a ^ ~b",
            "a | b ^ c & d | ~c",
            "a ^ b ^ c",
            "~(a | b) ^ c & d",
            "a & ~b & c ^ d",
            "a ^ b | c",
            "~a & b ^ c",
        ],
    )
    def test_operator_precedence_matches_verilog(self, expression):
        """``~`` > ``&`` > ``^`` > ``|``, like Verilog (and Python bitwise)."""
        text = (
            "module m (a, b, c, d, y); input a, b, c, d; output y; "
            f"assign y = {expression}; endmodule"
        )
        (table,) = read_verilog(text).truth_tables()
        for minterm in range(16):
            env = {
                "a": minterm & 1,
                "b": (minterm >> 1) & 1,
                "c": (minterm >> 2) & 1,
                "d": (minterm >> 3) & 1,
            }
            expected = eval(expression, {"__builtins__": {}}, env) & 1
            assert ((table >> minterm) & 1) == expected, (expression, minterm)

    def test_rejects_undefined_net(self):
        text = "module m (a, y); input a; output y; assign y = a & ghost; endmodule"
        with pytest.raises(ValueError):
            read_verilog(text)

    def test_rejects_missing_module(self):
        with pytest.raises(ValueError):
            read_verilog("assign y = a;")

    def test_rejects_unassigned_output(self):
        text = "module m (a, y); input a; output y; endmodule"
        with pytest.raises(ValueError):
            read_verilog(text)


class TestNetlistWriter:
    def test_netlist_verilog_mentions_cells(self):
        mig = random_aoig_mig(6, 20, num_pos=3, seed=4)
        netlist = map_mig(mig)
        text = write_netlist_verilog(netlist)
        assert "module" in text and "endmodule" in text
        histogram = netlist.cell_histogram()
        for cell in histogram:
            assert cell in text
