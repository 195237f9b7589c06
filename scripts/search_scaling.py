#!/usr/bin/env python3
"""How does the trivialization search scale with scramble depth?

Scrambles identity sequences with k moves, then searches with depth limit 2k
and a fixed node budget, reporting recovery rate and certificate lengths per
k.  Useful for picking budgets before a long run.
"""
import argparse
import random
import statistics
import sys

from asphere.fixtures import PRESENTATION_FILES, load_fixtures
from asphere.partial import EXHAUSTED
from asphere.peiffer import scramble, search_trivialization, verify_certificate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=50, help="scrambles per depth")
    ap.add_argument("--max-k", type=int, default=8)
    ap.add_argument("--budget", type=int, default=50_000)
    ap.add_argument("--presentation", default="klein", choices=PRESENTATION_FILES)
    args = ap.parse_args()

    gp = load_fixtures().presentations[args.presentation]
    rng = random.Random(args.seed)
    print(f"presentation {gp.name}, {args.trials} trials per k, budget {args.budget}")
    print(f"{'k':>3} {'found':>6} {'rate':>6} {'len(min/med/max)':>18}")
    for k in range(1, args.max_k + 1):
        lengths = []
        found = 0
        for _ in range(args.trials):
            d, _ = scramble(gp, seed=rng.randrange(1 << 30), k=k)
            cert = search_trivialization(d, node_budget=args.budget, depth_limit=2 * k)
            if cert is EXHAUSTED:
                continue
            if not verify_certificate(d, cert):
                print(f"k={k}: a certificate does not replay", file=sys.stderr)
                return 1
            found += 1
            lengths.append(len(cert.moves))
        if lengths:
            spread = f"{min(lengths)}/{int(statistics.median(lengths))}/{max(lengths)}"
        else:
            spread = "-"
        print(f"{k:>3} {found:>6} {found / args.trials:>6.0%} {spread:>18}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
