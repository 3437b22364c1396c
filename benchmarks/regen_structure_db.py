#!/usr/bin/env python3
"""Regenerate the committed NPN data files from first principles.

Derives the 65,536-entry canonical map by a closure over the NPN
transform group and rewrites ``src/repro/network/npn_canonical.bin``;
then derives the MIG and AIG Pareto fronts of all 222 NPN classes and
rewrites ``src/repro/network/structure_db.json``.  Every process loads
both files as package data.  Without ``--exact`` the database is the
fast (decomposition) tier; ``--exact`` adds the budget-bounded SAT tier.
Review a data diff like a code change: it shifts ``mig_rewrite`` results
and every result-cache key.

    PYTHONPATH=src python benchmarks/regen_structure_db.py [--exact] [--workers N]
"""

import argparse
import sys

from repro.network.npn import (
    CANONICAL_MAP_PATH,
    STRUCTURE_DB_PATH,
    _derive_canonical_map,
    derive_structures_parallel,
    write_canonical_map,
    write_structure_db,
)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact", action="store_true", help="add the exact-synthesis tier")
    parser.add_argument("--workers", type=int, default=None, help="derivation processes")
    args = parser.parse_args(argv)
    write_canonical_map(CANONICAL_MAP_PATH, _derive_canonical_map())
    print(f"{CANONICAL_MAP_PATH}: {CANONICAL_MAP_PATH.stat().st_size} bytes")
    fronts, stats = derive_structures_parallel(workers=args.workers, exact=args.exact)
    write_structure_db(STRUCTURE_DB_PATH, fronts)
    print(f"{STRUCTURE_DB_PATH}: {stats['entries']} entries, {stats['classes']} classes "
          f"x {len(stats['kinds'])} kinds, {stats['wall_s']}s on {stats['workers']} workers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
