"""Associative balancing (:func:`repro.core.balance.balance_mig`)."""

from repro.core import Mig, negate
from repro.core.balance import balance_mig
from repro.verify import assert_equivalent


def test_balance_mig_handles_chain_deeper_than_recursion_limit():
    # 1346 levels: more than the interpreter's default recursion limit.
    mig = Mig()
    pis = [mig.add_pi(name) for name in "abcd"]
    signal = pis[0]
    for i in range(1346):
        signal = mig.maj(signal, pis[1 + i % 3], negate(pis[1 + (i + 1) % 3]))
    mig.add_po(signal, "f")
    balanced = balance_mig(mig)
    balanced.check_integrity()
    assert balanced.num_gates <= mig.num_gates
    assert balanced.depth() <= mig.depth()
    assert_equivalent(balanced, mig)
