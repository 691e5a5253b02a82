"""Seeded inputs: isomorphic relabellings, permutation solutions, random words.

Every expected answer the benchmark checks (graded dimensions, relation
membership, orbit-census identities, the phi invariant) is invariant under
relabelling X, so the seed changes the inputs the program sees but never
the answer it must give.
"""

from __future__ import annotations

import random

from ybnichols import nichols
from ybnichols.ybe import SetSolution


def rng_for(workload: str, seed: int, variant: int) -> random.Random:
    """One independent, reproducible stream per (workload, seed, variant)."""
    return random.Random(f"{workload}/{seed}/{variant}")


def random_permutation(rng: random.Random, m: int) -> tuple:
    perm = list(range(m))
    rng.shuffle(perm)
    return tuple(perm)


def relabel_solution(s: SetSolution, pi) -> SetSolution:
    """The solution transported along the bijection pi of X:
    r'(pi i, pi j) = (pi a, pi b) where r(i, j) = (a, b)."""
    m = s.size
    table = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            a, b = s.r(i, j)
            table[pi[i]][pi[j]] = (pi[a], pi[b])
    return SetSolution(table)


def relabel_system(cs, pi):
    """Transport a coefficient system along pi and re-validate it, so the
    program receives the table only through its own validation path."""
    m = cs.size
    R = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            R[pi[i]][pi[j]] = cs.R[i][j]
    return nichols.validate_coefficients(relabel_solution(cs.solution, pi), R)


def relabel_terms(terms, pi) -> list:
    """A formal sum of (coefficient, word) pairs with every letter mapped."""
    return [(coeff, tuple(pi[letter] for letter in word)) for coeff, word in terms]


def permutation_solution(rng: random.Random, m: int) -> SetSolution:
    """r(i, j) = (f^-1(j), f(i)) for a random permutation f: involutive and
    non-degenerate, so the orbit-census identities apply."""
    return SetSolution.permutation(random_permutation(rng, m))


def random_word(rng: random.Random, m: int, lengths: tuple) -> tuple:
    """A word over X = {0, ..., m-1} with a length drawn from [low, high]."""
    low, high = lengths
    return tuple(rng.randrange(m) for _ in range(rng.randint(low, high)))
