"""Set-theoretic Yang-Baxter solutions on X = {0, ..., m-1}.

A solution is a total lookup table for r(i, j) = (sigma_i(j), tau_j(i)).
This module verifies the braid identity, non-degeneracy and involutivity,
derives the diagonal permutation, searches for decompositions, and computes
the cyclic-orbit invariant of r acting on X x X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np


class NotInvolutive(ValueError):
    """Operation requires an involutive solution."""


class NotNondegenerate(ValueError):
    """Operation requires a non-degenerate solution."""


class NotYangBaxter(ValueError):
    """Operation requires a table that satisfies the braid equation."""


class TooLarge(ValueError):
    """Input exceeds the configured exhaustive-search bound."""


class SetSolution:
    """The pair (X, r) with X = {0, ..., m-1} and r a total map on X x X.

    ``table[i][j] == (sigma_i(j), tau_j(i))``.  Instances are immutable and
    hashable; nothing here assumes r is a Yang-Baxter solution -- use
    :func:`verify_solution` for that.
    """

    __slots__ = ("size", "table")

    def __init__(self, table) -> None:
        table = tuple(tuple((int(a), int(b)) for a, b in row) for row in table)
        m = len(table)
        if m < 1:
            raise ValueError("empty solution table")
        for row in table:
            if len(row) != m:
                raise ValueError("solution table must be square")
            for a, b in row:
                if not (0 <= a < m and 0 <= b < m):
                    raise ValueError(f"table entry ({a},{b}) out of range for size {m}")
        object.__setattr__(self, "size", m)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("SetSolution is immutable")

    # -- constructors

    @classmethod
    def from_maps(cls, sigma_rows, tau_rows) -> "SetSolution":
        """Build from one-line permutations sigma_i and tau_j."""
        m = len(sigma_rows)
        return cls(
            [[(sigma_rows[i][j], tau_rows[j][i]) for j in range(m)] for i in range(m)]
        )

    @classmethod
    def flip(cls, m: int) -> "SetSolution":
        return cls([[(j, i) for j in range(m)] for i in range(m)])

    @classmethod
    def permutation(cls, f) -> "SetSolution":
        """The permutation solution r(i, j) = (f^-1(j), f(i))."""
        f = tuple(f)
        m = len(f)
        if sorted(f) != list(range(m)):
            raise ValueError("f is not a permutation")
        finv = [0] * m
        for i, x in enumerate(f):
            finv[x] = i
        return cls([[(finv[j], f[i]) for j in range(m)] for i in range(m)])

    @classmethod
    def cyclic_shift(cls, m: int, step: int = 1) -> "SetSolution":
        """The Z_m solution r(i, j) = (j - step, i + step)."""
        return cls([[((j - step) % m, (i + step) % m) for j in range(m)] for i in range(m)])

    # -- accessors

    def r(self, i: int, j: int) -> tuple[int, int]:
        return self.table[i][j]

    def sigma(self, i: int, j: int) -> int:
        return self.table[i][j][0]

    def tau(self, j: int, i: int) -> int:
        return self.table[i][j][1]

    def sigma_map(self, i: int) -> tuple[int, ...]:
        return tuple(self.table[i][j][0] for j in range(self.size))

    def tau_map(self, j: int) -> tuple[int, ...]:
        return tuple(self.table[i][j][1] for i in range(self.size))

    # -- dunder plumbing

    def __eq__(self, other):
        if not isinstance(other, SetSolution):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"SetSolution(size={self.size})"

    # -- serialization ({"size": m, "r": [[[k, l], ...], ...]})

    def to_json(self) -> dict:
        return {"size": self.size, "r": [[list(e) for e in row] for row in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "SetSolution":
        """Read {"size": m, "r": table}; the size and every letter must be
        JSON integers (not bools, not floats), else ValueError names it."""
        if not isinstance(data, dict) or "size" not in data or "r" not in data:
            raise ValueError('solution JSON needs keys "size" and "r"')
        m = _json_int(data["size"], "size")
        rows = data["r"]
        if len(rows) != m:
            raise ValueError(f"expected {m} rows, got {len(rows)}")
        table = []
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("non-square solution table")
            pairs = []
            for j, e in enumerate(row):
                if not isinstance(e, (list, tuple)) or len(e) != 2:
                    raise ValueError(f"entry r[{i}][{j}] = {e!r} is not a pair of letters")
                pairs.append(tuple(_json_int(v, f"entry r[{i}][{j}] = {e!r}") for v in e))
            table.append(pairs)
        return cls(table)


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but JSON true is no letter
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what}: {value!r} is not an integer")
    return value


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three solution checks, with witnesses for failures."""

    is_ybe: bool
    is_nondegenerate: bool
    is_involutive: bool
    ybe_failures: tuple = ()
    nondegeneracy_failures: tuple = ()
    involutivity_failures: tuple = ()

    @property
    def valid(self) -> bool:
        """A usable solution: braid identity plus non-degeneracy.

        Involutivity is reported but not required; the catalog contains
        non-involutive examples whose braidings are perfectly good.
        """
        return self.is_ybe and self.is_nondegenerate


def braid_walk(s: SetSolution):
    """Both sides of r12 r23 r12 = r23 r12 r23 on the triples (a, b, c) of X^3.

    Returns (lhs, rhs); each side is (pairs, image): the three pairs
    (left, right) the side applies r to, in order, and the triple it ends
    at.  Entries are index arrays that broadcast to shape (m, m, m).
    """
    m = s.size
    table = np.array(s.table, dtype=np.min_scalar_type(m - 1))
    sig, tau = table[..., 0], table[..., 1]
    x = np.arange(m)
    a, b, c = x[:, None, None], x[:, None], x  # broadcast to the m^3 triples
    a1, b1 = sig[a, b], tau[a, b]
    b2, c2 = sig[b1, c], tau[b1, c]
    lhs = ((a, b), (b1, c), (a1, b2)), (sig[a1, b2], tau[a1, b2], c2)
    b1, c1 = sig[b, c], tau[b, c]
    a2, b2 = sig[a, b1], tau[a, b1]
    rhs = ((b, c), (a, b1), (b2, c1)), (a2, sig[b2, c1], tau[b2, c1])
    return lhs, rhs


def verify_solution(s: SetSolution, threads: int = 1) -> VerificationReport:
    """Check the braid identity on all triples, non-degeneracy, involutivity.

    One vectorized pass over the table; witnesses come in lexicographic
    order as tuples of Python ints.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    m = s.size
    (_, lhs), (_, rhs) = braid_walk(s)
    bad = (lhs[0] != rhs[0]) | (lhs[1] != rhs[1]) | (lhs[2] != rhs[2])
    sides = [side[bad].tolist() for side in lhs + rhs]
    ybe_failures = [
        (tuple(t), tuple(w[:3]), tuple(w[3:]))
        for t, *w in zip(np.argwhere(bad).tolist(), *sides)
    ]
    table = np.array(s.table, dtype=np.min_scalar_type(m - 1))
    sig, tau = table[..., 0], table[..., 1]
    x = np.arange(m)
    # sigma_i is row i of sig, tau_j is column j of tau
    sig_bad = (np.sort(sig, axis=1) != x).any(axis=1)
    tau_bad = (np.sort(tau, axis=0) != x[:, None]).any(axis=0)
    nondeg_failures = [
        (name, i)
        for i in range(m)
        for name, failed in (("sigma", sig_bad), ("tau", tau_bad))
        if failed[i]
    ]
    back = (sig[sig, tau] != x[:, None]) | (tau[sig, tau] != x)
    invol_failures = list(map(tuple, np.argwhere(back).tolist()))
    return VerificationReport(
        is_ybe=not ybe_failures,
        is_nondegenerate=not nondeg_failures,
        is_involutive=not invol_failures,
        ybe_failures=tuple(ybe_failures),
        nondegeneracy_failures=tuple(nondeg_failures),
        involutivity_failures=tuple(invol_failures),
    )


class Diagonal:
    """The diagonal permutation D(i) = tau_i^-1(i) of an involutive solution.

    Fixed pairs of r are exactly {(D(i), i)}; D^-1(i) = sigma_i^-1(i)."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward) -> None:
        forward = tuple(forward)
        backward = [0] * len(forward)
        for i, x in enumerate(forward):
            backward[x] = i
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", tuple(backward))

    def __setattr__(self, name, value):
        raise AttributeError("Diagonal is immutable")

    def __call__(self, i: int) -> int:
        return self.forward[i]

    def inverse(self, i: int) -> int:
        return self.backward[i]

    def power(self, i: int, k: int) -> int:
        """D^k(i) for any integer k."""
        if k >= 0:
            for _ in range(k):
                i = self.forward[i]
        else:
            for _ in range(-k):
                i = self.backward[i]
        return i

    def __eq__(self, other):
        if not isinstance(other, Diagonal):
            return NotImplemented
        return self.forward == other.forward

    def __hash__(self):
        return hash(self.forward)

    def __repr__(self):
        return f"Diagonal({list(self.forward)})"


#: How many solutions each solution-keyed cache (``diagonal`` here, the
#: views and reports of ``orbits``) keeps.  A census or theorem pass uses a
#: few dozen at most; a fixed size keeps a long run's memory flat.
SOLUTION_CACHE_SIZE = 64


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def diagonal(s: SetSolution) -> Diagonal:
    """Compute D; requires a non-degenerate involutive solution."""
    report = verify_solution(s)
    if not report.is_nondegenerate:
        raise NotNondegenerate("diagonal needs a non-degenerate solution")
    if not report.is_involutive:
        raise NotInvolutive("diagonal needs an involutive solution")
    m = s.size
    forward = []
    for i in range(m):
        tau_i = s.tau_map(i)
        forward.append(tau_i.index(i))
    diag = Diagonal(forward)
    for i in range(m):
        d = diag(i)
        if s.r(d, i) != (d, i):
            raise AssertionError("diagonal characterization failed (not a YBE solution?)")
        if s.sigma_map(i).index(i) != diag.inverse(i):
            raise AssertionError("diagonal inverse characterization failed")
    return diag


def decompose(s: SetSolution, bound: int = 16):
    """First bipartition (Y, Z) with r(Y,Y) in Y x Y and r(Z,Z) in Z x Z.

    Subsets are searched by size then lexicographically; returns None when
    the solution is indecomposable.
    """
    m = s.size
    if m > bound:
        raise TooLarge(f"decomposition search limited to size {bound}")

    def closed(part) -> bool:
        pset = set(part)
        for i in part:
            for j in part:
                a, b = s.r(i, j)
                if a not in pset or b not in pset:
                    return False
        return True

    universe = range(m)
    for size in range(1, m):
        for subset in combinations(universe, size):
            complement = tuple(x for x in universe if x not in subset)
            if closed(subset) and closed(complement):
                return subset, complement
    return None


def full_decomposition(s: SetSolution, bound: int = 16) -> list[tuple[int, ...]]:
    """Refine decompositions until every part is indecomposable.

    Parts are returned sorted by least element; each part carries the
    restriction of r, so restricting again is well-defined.
    """
    result = decompose(s, bound)
    if result is None:
        return [tuple(range(s.size))]
    parts = []
    for part in result:
        sub = restrict(s, part)
        for subpart in full_decomposition(sub, bound):
            parts.append(tuple(part[i] for i in subpart))
    parts.sort(key=min)
    return parts


def restrict(s: SetSolution, part) -> SetSolution:
    """The induced solution on a closed subset (relabelled 0..len-1)."""
    index = {x: i for i, x in enumerate(part)}
    table = []
    for i in part:
        row = []
        for j in part:
            a, b = s.r(i, j)
            if a not in index or b not in index:
                raise ValueError(f"subset {part} is not closed under r")
            row.append((index[a], index[b]))
        table.append(row)
    return SetSolution(table)


@dataclass(frozen=True)
class PhiInvariant:
    """Multiset of orbit sizes of the cyclic group <r> acting on X x X."""

    sizes: tuple[int, ...]  # sorted orbit sizes
    size: int  # |X|

    @property
    def l_vector(self) -> tuple[int, ...]:
        """(l_1, l_2, ...) where l_n counts orbits of size n; trailing zeros cut."""
        if not self.sizes:
            return ()
        out = [0] * max(self.sizes)
        for n in self.sizes:
            out[n - 1] += 1
        return tuple(out)

    def to_json(self) -> dict:
        return {"l": list(self.l_vector), "orbit_sizes": list(self.sizes)}


def phi_invariant(s: SetSolution) -> PhiInvariant:
    """Orbit sizes of <r> on X x X; their weighted sum is |X|^2."""
    m = s.size
    seen = set()
    sizes = []
    for i in range(m):
        for j in range(m):
            if (i, j) in seen:
                continue
            orbit = []
            cur = (i, j)
            while cur not in seen:
                seen.add(cur)
                orbit.append(cur)
                cur = s.r(*cur)
            sizes.append(len(orbit))
    sizes.sort()
    assert sum(sizes) == m * m
    return PhiInvariant(sizes=tuple(sizes), size=m)


def derived_group_transitive(s: SetSolution) -> bool:
    """Whether the group generated by all sigma_i and tau_i is transitive on X.

    One-way sanity check: an indecomposable solution must be transitive.
    """
    m = s.size
    gens = [s.sigma_map(i) for i in range(m)] + [s.tau_map(i) for i in range(m)]
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == m
