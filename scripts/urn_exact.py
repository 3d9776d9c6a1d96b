#!/usr/bin/env python3
"""Exact reference values for Grace's thrashing term (paper section 7.3).

Evaluates the epoch sum of `mmjoin_model::grace::thrash_replacements`
in exact rational arithmetic (stdlib `fractions` only), with the same
epochs and the same two exits: the loop stops once the survival mass
drops below the double `1e-12`, or closes the sum with the remaining
survival once p reaches 1. The urn occupancy distribution is carried as
integer counts -- `counts[e]` of the `K^n` equally likely ways `n`
objects land in `K` buckets leave exactly `e` buckets empty -- so no
probability is ever rounded.

Usage:
    scripts/urn_exact.py                      # the points grace::tests pins
    scripts/urn_exact.py RI_I K D MEM_PAGES [PAGE_SIZE R_SIZE]

Each output line is `RI_I K D MEM_PAGES VALUE`, VALUE being the exact
result rounded once to the nearest double.
"""

import math
import sys
from fractions import Fraction

# (|R_(i,i)|, K, D, M/B pages), all with 4 KiB pages and 128 B objects.
PINNED = [
    (6400, 57, 4, 48),  # Fig. 5c's 1.5 % memory point
    (25600, 17, 2, 32),
    (25600, 128, 1, 128),
    (25600, 64, 4, 64),
    (6400, 43, 4, 64),  # Fig. 5c's 2 % memory point
    (25600, 16, 4, 8),
    (25600, 11, 4, 32),  # p reaches exactly 1 next to the 1e-12 cut-off
    (25600, 24, 2, 32),  # doubles round p to 1 one epoch before the cut-off
]

MAX_EPOCHS = 200_000
SURVIVAL_CUTOFF = Fraction(1e-12)


def thrash_replacements(ri_i, k, d, mem_pages, page_size=4096, r_size=128):
    """Expected premature replacements, as an exact Fraction."""
    if k == 0 or ri_i <= 0:
        return Fraction(0)
    fill_rate = Fraction(d - 1, max(page_size // r_size, 1))
    mem = Fraction(mem_pages)
    q = Fraction(k - 1, k)

    counts = [0] * k + [1]  # n = 0 objects: all K buckets empty
    n = 0
    total = Fraction(0)
    survival = Fraction(1)
    for epoch in range(MAX_EPOCHS):
        alpha = k if epoch == 0 else 1
        end = k + epoch  # objects hashed by the epoch's end
        y = survival * (1 - q**alpha)
        threshold = k - (mem - end * fill_rate - d)
        if threshold < 0:
            p = Fraction(0)
        elif threshold >= k:
            p = Fraction(1)
        else:
            while n < end:
                # One more object: a bucket that was empty stays so with
                # probability (K - e)/K, one of e + 1 empties fills.
                counts = [
                    counts[e] * (k - e) + (counts[e + 1] * (e + 1) if e < k else 0)
                    for e in range(k + 1)
                ]
                n += 1
            p = Fraction(sum(counts[: math.floor(threshold) + 1]), k**n)
        total += p * y
        survival *= q**alpha
        if survival < SURVIVAL_CUTOFF:
            break
        if p >= 1:
            total += survival
            break
    return ri_i * min(total, Fraction(1))


def main(argv):
    if not argv:
        points = PINNED
    elif len(argv) in (4, 6):
        points = [tuple(int(a) for a in argv)]
    else:
        sys.exit(__doc__)
    for point in points:
        value = thrash_replacements(*point)
        print(*point[:4], repr(float(value)))


if __name__ == "__main__":
    main(sys.argv[1:])
