#!/usr/bin/env python3
"""End-to-end classification experiment.

Enumerates the 1-factorization classes of K6/K8/K10 once, then classifies
generalized hyperfocused arcs of size up to 10 at the requested field
orders, printing a compact human-readable account of each run.
"""

import argparse
import sys
import time

from hyperarcs.classify import MAX_K, classify_ghf
from hyperarcs.gf2 import FieldError, field_make
from hyperarcs.onefact import FactorizationError, enumerate_factorizations


def parse_orders(ap: argparse.ArgumentParser, text: str) -> list:
    """The field of every order in the comma list; a bad token ends the run
    through ap.error before any work starts."""
    specs = []
    for tok in text.split(","):
        try:
            q = int(tok)
        except ValueError:
            ap.error(f"--orders: {tok!r} is not an integer")
        r = q.bit_length() - 1
        if q < 2 or q != 1 << r:
            ap.error(f"--orders: q = {q} is not a power of two above 1")
        try:
            specs.append(field_make(r))
        except FieldError as exc:
            ap.error(f"--orders: {exc}")
    return specs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", default="8,16", help="comma list of field orders q")
    ap.add_argument("--max-k", type=int, default=10)
    ap.add_argument("--budget", type=int, default=None,
                    help="embedding search node budget per class")
    args = ap.parse_args()
    if args.max_k > MAX_K:
        ap.error(f"--max-k above {MAX_K} is not supported")
    specs = parse_orders(ap, args.orders)

    t0 = time.time()
    catalogs = {}
    for n in range(3, args.max_k // 2 + 1):
        catalogs[n] = enumerate_factorizations(n)
        print(f"K{2*n}: {len(catalogs[n])} classes "
              f"({time.time()-t0:.1f}s elapsed)")

    for spec in specs:
        t = time.time()
        try:
            rep = classify_ghf(spec, max_k=args.max_k, embed_budget=args.budget,
                               catalogs=catalogs)
        except FactorizationError as exc:
            print(f"error: q = {spec.q}: {exc}", file=sys.stderr)
            return 2
        print(f"\nq = {spec.q} ({time.time()-t:.1f}s, "
              f"{'exhaustive' if rep.exhaustive else 'budgeted'})")
        searched = [row for row in rep.rows if row.searched]
        forced = sum(1 for row in rep.rows if row.contains_all)
        print(f"  forced-linear classes: {forced}")
        for row in searched:
            print(f"  searched k={row.k} class #{row.index}: "
                  f"{row.embeddings} embeddings, "
                  f"{row.nonlinear_embeddings} with non-collinear foci")
        if rep.nonlinear_forms:
            ks = ", ".join(str(k) for k in rep.nonlinear_ks)
            print(f"  non-linear instances at k = {ks}: "
                  f"{len(rep.nonlinear_forms)} projective class(es)")
            print(f"  matches the doubled-quadrangle arc: {rep.matches_example()}")
        else:
            print("  no non-linear minimum blocking sets exist at this order")
    return 0


if __name__ == "__main__":
    sys.exit(main())
