#!/usr/bin/env python3
"""Census of dominions across the built-in monoid corpus.

For every table and every submonoid, reports whether the submonoid is closed
(its own dominion), and cross-tabulates against the inverse-monoid test:
inverse submonoids must always be closed, the converse can fail.
"""
import sys
from collections import Counter

from asphere.actions import all_submonoids, dominion, is_inverse_monoid
from asphere.fixtures import monoid_corpus


def main():
    tally = Counter()
    witnesses = []
    for name, m in monoid_corpus().items():
        for u in all_submonoids(m):
            dom = dominion(u)
            closed = dom == u.elements
            inverse = is_inverse_monoid(u)
            tally[(inverse, closed)] += 1
            if closed and not inverse and len(witnesses) < 5:
                witnesses.append((name, sorted(u.elements)))
            if inverse and not closed:
                print(f"VIOLATION: inverse submonoid not closed in {name}", file=sys.stderr)
                return 1
    print(f"{'inverse':>8} {'closed':>7} {'count':>6}")
    for (inverse, closed), count in sorted(tally.items()):
        print(f"{str(inverse):>8} {str(closed):>7} {count:>6}")
    if witnesses:
        print("\nclosed but not inverse (first few):")
        for name, elems in witnesses:
            print(f"  {name}: {elems}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
