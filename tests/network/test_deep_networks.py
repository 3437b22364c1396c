"""Kernel operations on networks deeper than Python's recursion limit."""

from repro.core import Mig, negate

#: Logic levels of the test chain; more than the interpreter's default
#: recursion limit of 1000.
CHAIN_DEPTH = 1346


def deep_chain(depth=CHAIN_DEPTH):
    """A Mig whose only gates form one chain of ``depth`` majority nodes."""
    mig = Mig()
    pis = [mig.add_pi(name) for name in "abcd"]
    signal = pis[0]
    for i in range(depth):
        signal = mig.maj(signal, pis[1 + i % 3], negate(pis[1 + (i + 1) % 3]))
    return mig, signal, pis


def test_chain_has_requested_depth():
    mig, signal, _ = deep_chain()
    mig.add_po(signal, "f")
    assert mig.depth() == CHAIN_DEPTH
    assert mig.num_gates == CHAIN_DEPTH


def test_cleanup_reclaims_deep_unreferenced_chain():
    mig, _, _ = deep_chain()
    assert mig.cleanup() == 1  # one root; its cone cascades
    assert mig.num_gates == 0
    assert not list(mig.gates())
    mig.check_integrity()


def test_set_po_orphaning_deep_chain_reclaims_it():
    mig, signal, pis = deep_chain()
    mig.add_po(signal, "f")
    mig.set_po(0, pis[0])
    assert mig.num_gates == 0
    assert mig.depth() == 0
    mig.check_integrity()
