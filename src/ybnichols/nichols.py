"""Braided vector spaces over a set solution and their Nichols algebras.

A coefficient system attaches a nonzero scalar R[i][j] to every pair, giving
the braiding c(w_i (x) w_j) = R[i][j] w_{sigma_i(j)} (x) w_{tau_j(i)}.  The
hexagon identity on all triples is exactly the braid equation for c, and is
validated up front on the braid walk of ``verify_solution``, in integers.

Graded dimensions come from the quantum symmetrizer recursion: the degree-k
image is the span of S_{k-1,1}(u (x) w_j) over a basis u of the previous
image and all generators w_j, where S_{k-1,1} is the staircase sum
id + c_{k-1} + c_{k-2} c_{k-1} + ... + c_1 ... c_{k-1}.  Each staircase term
is a single monomial operator, so one degree costs a handful of vectorized
permutation passes.

Every c_i sends a word to one word times a scalar, so the symmetrizer is
block-diagonal over the orbits of the braid group B_k on the words X^k (for
an involutive solution, the S_k-orbits counted by partitions, of multinomial
sizes).  ``orbits.BraidOrbits`` finds them, and c_i images of words are
one gather of its per-pair index
shift.  An orbit lists its words node-major: node (P, y) holds the words
u y with u in the degree-(k-1) orbit P, and a row is a vector over its
orbit's words in that order.  Every basis row lives on one orbit, so each
seed u (x) w_j lies in exactly one degree-k orbit, on the node (P, j) of
u's orbit P.

Every staircase walk, of a degree step or of a relation check, reads its
input from one seed table over the whole degree (``_SeedTable``): a seed
is a node (P, y) with a row on P, and walks into a segment of its group's
output.  A walk visits only the source words that carry a nonzero seed
entry (on w1 at degree 10, 6,048 of the 132,096 words of the seeded
orbits), and each term is one gather, one cyclotomic product and one
scatter-add.

The walk reads the positions of its words within their orbits from the
degree below, by one rule: a word u y sits at the offset of its node (orbit
of u, y) plus the position of u within that orbit.  By
T_k = id + (T_{k-1} (x) id) c_{k-1}, every term after c_{k-1} moves only
u within its degree-(k-1) orbit, so from there on the node and its offset
stay fixed.  A degree-k step therefore reads word-length arrays of degree
k-1 only, and the top degree of a run (w1 at degree 10: 1,048,576 words)
never builds any.

A walk writes its output in one of two shapes.  A dense walk writes
whole-orbit segments: on the paper's class (one seed per orbit, whose image
is a whole row) and in relation checks (whose output is the image).  Its
batch closes before the output would pass the larger of
``_DENSE_BATCH_BUDGET`` entries and the largest single orbit's, so a degree
of many small orbits costs a few walks.  Off the paper's class every seed
of an orbit has its own segment, and the walk is compact: one index pass
over the staircase terms keeps each term's output indices, after marking
the orbit positions the terms reach and numbering them in ascending order
per orbit, so a segment holds the reached positions only.  A compact batch
weighs what its walk holds, the stored indices plus a bound on its output,
and closes at ``_BATCH_BUDGET``: over ``graded_dims`` of w1 and w6 each
degree is one walk per arithmetic, 34 walks writing 1,042,376 entries, where
walks of one orbit into whole-orbit segments took 132 and wrote 8,493,056.
A batch whose seeds mix int64 and object rows, or that would leave int64,
is bisected, so arithmetic turns object orbit by orbit.  Exact and modular
steps are one step (``_Engine._step``) with one walk driver
(``_Engine._walks``, which relation checks call too) and two walks: the
modular walk visits the same batches and words with one running product per
word, and keeps the products and the sums reduced mod p at every term.  The
two primes of a modular degree mostly step rows of one support (on w1 and w6
at every degree), which walk the same words to the same positions, so an
off-class modular degree builds its value-free part once: the seed table,
each entry's gather index and the stored index pass, kept by the engine as
its walk plan (``_WalkPlan``).  ``_step`` alone handles the plan: each
prime gathers its own values and hands the plan's entries to ``_walks``.
The plan is rebuilt when the rows' support differs (at small primes it
can), dropped by a step at another degree and by every exact step, and kept
only for a degree that walks in one batch, so it holds no more than one
walk holds.  Off the
paper's class (below), elimination runs orbit by orbit on the reached
positions where some seed image is nonzero, not the whole orbit (on w1 at
degree 9, 1,512 of the 229,632 positions of the seeded orbits), inserting
only the seeds that are nonzero there, and each kept row stays on its
support: its nonzero values and their ascending positions in the orbit
(``OrbitRows.columns``).  The next degree's seed table gathers those values
only (over ``graded_dims`` of w1 and w6, 116,468 values, where rows expanded
back to the orbit's length made it gather 2,140,352 and drop the zeros).
Full-length rows are built only in ``_Engine.expand``, when a caller asks
for the image itself.

On the paper's class, one seed per orbit suffices.  Let the solution be
involutive and the table satisfy the pairing R[i][j] R[a][b] = 1 for every
pair with r(i, j) = (a, b) != (i, j).  Then
(1 + c)(x_i x_j - R[i][j] x_a x_b) = (1 - R[i][j] R[a][b]) x_i x_j = 0, and
since S_k factors through (1 + c_i) for each i, S_k(w) is a nonzero
multiple of S_k(w_O) for every word w in an S_k-orbit O with least word
w_O: each orbit's image has dimension at most one.  A degree-k orbit's
words split into nodes (P, y), the words u y with u in a degree-(k-1)
orbit P; its smallest node (P0, y0) holds w_O = w_P0 y0, and
S_k(w_O) = T_k(S_{k-1}(w_P0) (x) y0), where T_k is the staircase.  A
nonzero row of P0 is a multiple of S_{k-1}(w_P0), and P0 has no row exactly
when S_{k-1}(w_P0) = 0.  So the one seed (row of P0) (x) y0 spans O's image,
and O gets no seed when P0 has no row.  The same holds mod p, as the
pairing survives specialization.  ``_Engine.rank_one`` decides this once per
engine, on the first degree step, from the exact hypotheses.  On this
class the seed table holds one seed per orbit whose head node's P kept a
row, each its own group; by the factorization below every entry of such a
seed is nonzero, so the walk takes each head node whole.  With one seed,
an orbit's row is the primitive part of its image (mod p: the image
scaled to lead with 1), or none when the image is zero:
``linalg.lone_rows`` reduces a batch's output where it lies (one gcd
reduction at the segment starts; mod p, each segment's first nonzero entry
and its inverse), with no elimination, and each kept row is a view of its
segment.

Which orbits keep a row, on that class.  Let w = Psi_{l_1}(b_1) ...
Psi_{l_r}(b_r) be an orbit's lambda-element (``orbits.classify``'s
witness) and q_j = R[D(b_j)][b_j].  Inside a block every c_i fixes the
word and scales it by the entry of a fixed pair; the braid relation
c_i c_{i+1} c_i = c_{i+1} c_i c_{i+1} on the block gives
q_i^2 q_{i+1} = q_i q_{i+1}^2, so the entries along block j all equal q_j.
By Young's factorization S_k = sum_theta T_theta (S_{l_1} (x) ... (x)
S_{l_r}), theta over the minimal coset representatives of S_k / S_l (their
Matsumoto lifts multiply, as lengths add), and S_{l_j} acts on block j by
[l_j]_{q_j}!.  The orbit has k!/prod l_j! words, so the stabilizer of w is
S_l and the words theta.w are distinct; each T_theta is monomial with
nonzero scalars, so S_k(w) = 0 exactly when some [l_j]_{q_j}! = 0, that is
when q_j != 1 has finite order at most l_j.  In ESS coordinates an orbit is
a multiset mu of y-letters and its blocks are the runs of equal y-letters,
one of length mu_a per letter a, all in one part of ``full_decomposition``
(an orbit of the group the sigma and tau maps generate).  So when q is
constant on each part, of order n_a on the part of a (n_a infinite when
q = 1 or q has infinite order, as then no [l]_q! vanishes), an orbit keeps
a row exactly when mu_a < n_a for every a, and
sum_k dim B_k t^k = prod_a (1 + t + ... + t^(n_a - 1)), a factor
1 / (1 - t) for each letter of infinite n_a: the series ``expected_series``
returns, a finite numerator over (1 - t)^pole.

Degrees run exactly while the tensor space is small, then modular at two
distinct primes.  A modular degree is kept only when the primes agree on a
nonzero rank that also equals the coefficient of ``expected_series``
wherever that exists; otherwise the exact chain resumes from the last exact
degree, rewrites the records of the modular degrees it replays and runs
every later degree, so a finiteness claim is only ever made with exact
backing.

Relation checks run on the same engine, with the walks of the degree
steps.  ``check_relation``, ``relation_support`` and ``relation_image``
build S_j = T_j (S_{j-1} (x) id) for j = 2, ..., k in integers, on the
orbits the element reaches only: split by the tail of its last k-j+1
letters, the image so far is a sum of rows on degree-(j-1) orbits P, and a row with tail
y t seeds the node (P, y) of degree j, tagged with t.  In the seed table
each (tail, degree-j orbit) is one group whose seeds walk T_j into one
segment, where they sum to that orbit's row: they sit on distinct nodes, so
each term sends them to distinct words.  So a check, like a step, reads the
word arrays of the degree below only.  Like ``graded_dims``, it refuses
a degree of more than ``_DIMENSION_LIMIT`` words (CapExceeded).
``degree2_relation_rank`` ranks its relations as integer rows in the
engine's ``ExactIntRows``.  ``braiding_ops`` and ``symmetrizer_apply``
(dense CycloElement vectors over all m^k words) are the reference oracle
the tests compare against; no relation path calls them.  The reference
``RowSpace`` runs only where ``symmetrizer_image`` (exact only) puts the
engine's basis in reduced echelon form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .exact import (
    BadPrime,
    CycloElement,
    check_modulus,
    checked_phi,
    primes_for_order,
    specialize,
    unity_root_mod,
)
from .linalg import (
    _INT64_GUARD,
    CycloCtx,
    ExactIntRows,
    ModRows,
    MonomialOperator,
    RowSpace,
    _as_object,
    _max_abs,
    apply,
    lone_rows,
    mul_rows_elementwise,
)
from .orbits import BraidOrbits, psi, word_index
from .ybe import (
    SOLUTION_CACHE_SIZE,
    NotInvolutive,
    SetSolution,
    braid_walk,
    cached_report,
    diagonal,
    full_decomposition,
)


# a batch of groups walks the staircase together until what its walk holds
# would pass this many entries (or the largest single group's, if larger).
# Off the paper's class a walk holds its compact output and each term's
# stored output indices: on the racks w1 and w6 a whole degree, at most
# 193,536 entries, is one walk per arithmetic, where a dense walk of one
# orbit held up to 132,096 (``_SeedTable.batches``)
_BATCH_BUDGET = 2 ** 18

# a walk into whole-orbit segments (rank-one steps and relation checks)
# closes when its output would pass this many entries; at 2^18 the rank-one
# steps of the q = 2 growth cases ran slower and held more
_DENSE_BATCH_BUDGET = 2 ** 14

# graded_dims stops (terminated "cap") before a degree of more words than this
_DIMENSION_LIMIT = 2 ** 22


class HexagonViolation(ValueError):
    """The coefficient table fails the braid-equation constraint."""

    def __init__(self, witnesses):
        self.witnesses = tuple(witnesses)
        preview = ", ".join(str(w[0]) for w in self.witnesses[:5])
        more = "" if len(self.witnesses) <= 5 else f" (+{len(self.witnesses) - 5} more)"
        super().__init__(f"hexagon identity fails on triples {preview}{more}")


class CapExceeded(RuntimeError):
    """A configured size bound was hit."""


class HypothesesNotMet(ValueError):
    """The requested check needs hypotheses this system does not satisfy."""


class InhomogeneousElement(ValueError):
    """check_relation needs all words of one degree."""


# ---------------------------------------------------------------------------
# coefficient systems


class CoefficientSystem:
    """A validated braiding table over a set solution.

    All entries share one cyclotomic order (the lcm of the entry orders,
    fixed here once so no coercion happens mid-elimination).
    """

    __slots__ = ("solution", "order", "R", "_hash")

    def __init__(self, solution: SetSolution, order: int, R) -> None:
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "R", tuple(tuple(row) for row in R))
        # every cache lookup keyed by the system hashes it: hash the table once
        object.__setattr__(self, "_hash", hash((solution, order, self.R)))

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientSystem is immutable")

    def entry(self, i: int, j: int) -> CycloElement:
        return self.R[i][j]

    @property
    def size(self) -> int:
        return self.solution.size

    def __eq__(self, other):
        if not isinstance(other, CoefficientSystem):
            return NotImplemented
        return (
            self.solution == other.solution
            and self.order == other.order
            and self.R == other.R
        )

    def __hash__(self):
        return self._hash

    def to_json(self) -> dict:
        return {
            "solution": self.solution.to_json(),
            "cyclotomic_order": self.order,
            "R": [[e.to_json() for e in row] for row in self.R],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoefficientSystem":
        """Read {"solution": ..., "R": [[entry, ...], ...]}, each entry as
        ``CycloElement.from_json`` reads it; ValueError names a missing key
        or the bad entry."""
        if not isinstance(data, dict):
            raise ValueError("coefficient JSON must be an object")
        for key in ("solution", "R"):
            if key not in data:
                raise ValueError(f'coefficient JSON needs key "{key}"')
        table = data["R"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError("coefficient table R must be a list of rows, each a list of entries")
        solution = SetSolution.from_json(data["solution"])
        R = [[CycloElement.from_json(e, f"entry R[{i}][{j}]") for j, e in enumerate(row)]
             for i, row in enumerate(table)]
        return validate_coefficients(solution, R)


def _cyclo(c) -> CycloElement:
    """A coefficient as a CycloElement (ints and Fractions lie in Q)."""
    return c if isinstance(c, CycloElement) else CycloElement.from_rational(Fraction(c))


def _common_order(entries) -> int:
    return reduce(math.lcm, (e.order for e in entries), 1)


def hexagon_failures(s: SetSolution, R) -> list:
    """All triples (i, j, k) where the two braid-equation products differ, as
    ((i, j, k), lhs, rhs) in lexicographic order.

    Each side multiplies R at the three pairs its half of the braid walk
    (``ybe.braid_walk``) applies r to, in integers over one common
    denominator; both sides carry its cube, so the numerators compare.
    """
    flat = [e for row in R for e in row]
    ctx = CycloCtx(flat[0].order)
    nums, den = ctx.to_int_array(flat)
    if _max_abs(nums) ** 3 * ctx.mul_bound ** 2 >= _INT64_GUARD:
        nums = _as_object(nums)

    def at(pair):  # the entries R[left][right] at index arrays (left, right)
        return nums[pair[0].astype(np.int64) * s.size + pair[1]]

    lhs, rhs = (
        mul_rows_elementwise(mul_rows_elementwise(at(p), at(q), ctx), at(t), ctx)
        for (p, q, t), _ in braid_walk(s)
    )
    bad = map(tuple, np.argwhere((lhs != rhs).any(axis=-1)).tolist())
    return [(t, ctx.to_element(lhs[t], den ** 3), ctx.to_element(rhs[t], den ** 3)) for t in bad]


def validate_coefficients(s: SetSolution, R) -> CoefficientSystem:
    """Coerce the table to a common cyclotomic order and validate it.

    Raises HexagonViolation carrying every failing triple; also rejects
    tables with zero entries and base solutions that are not non-degenerate
    Yang-Baxter solutions with bijective r.
    """
    m = s.size
    report = cached_report(s)
    if not report.valid:
        raise ValueError("base table is not a non-degenerate Yang-Baxter solution")
    if len({s.r(i, j) for i in range(m) for j in range(m)}) != m * m:
        raise ValueError("r is not bijective on X x X")
    if len(R) != m or any(len(row) != m for row in R):
        raise ValueError(f"coefficient table must be {m} rows of {m} entries each")
    flat = [_cyclo(e) for row in R for e in row]
    if not all(flat):
        raise ValueError("coefficient table entries must be nonzero")
    order = _common_order(flat)
    checked_phi(order)  # the lcm of modest orders can be huge
    flat = [e.to_order(order) for e in flat]
    table = [flat[i * m : (i + 1) * m] for i in range(m)]
    failures = hexagon_failures(s, table)
    if failures:
        raise HexagonViolation(failures)
    return CoefficientSystem(s, order, table)


@dataclass(frozen=True)
class DiagonalCoefficientReport:
    """The diagonal values R[D(j)][j], and whether they are one constant q."""

    q_constant: bool
    q: CycloElement | None
    values: tuple


def diagonal_coefficient_check(cs: CoefficientSystem) -> DiagonalCoefficientReport:
    s = cs.solution
    D = diagonal(s)
    values = tuple(cs.entry(D(j), j) for j in range(s.size))
    constant = all(v == values[0] for v in values)
    return DiagonalCoefficientReport(
        q_constant=constant,
        q=values[0] if constant else None,
        values=values,
    )


def canonical_coefficients(s: SetSolution, q: CycloElement) -> CoefficientSystem:
    """q on the fixed pairs of r, 1 everywhere else, then hexagon-validated.

    No general theorem guarantees this assignment is a braiding for every
    solution, so validation may raise HexagonViolation.
    """
    D = diagonal(s)
    m = s.size
    q = _cyclo(q)
    one = CycloElement.one(q.order)
    R = [[one] * m for _ in range(m)]
    for j in range(m):
        R[D(j)][j] = q
    return validate_coefficients(s, R)


@dataclass(frozen=True)
class TheoremHypotheses:
    q_constant: bool
    q: CycloElement | None
    pairing_holds: bool  # R[i][j] * R[sigma_i(j)][tau_j(i)] = 1 off fixed pairs


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def theorem_hypotheses(cs: CoefficientSystem) -> TheoremHypotheses:
    """Detect the dimension-theorem hypotheses (involutive base required);
    computed once per system, as the engine, the series and the theorem
    checks all read them."""
    s = cs.solution
    D = diagonal(s)
    m = s.size
    diag = diagonal_coefficient_check(cs)
    one = CycloElement.one(cs.order)
    pairing = True
    for i in range(m):
        for j in range(m):
            if D(j) == i:
                continue
            a, b = s.r(i, j)
            if cs.entry(i, j) * cs.entry(a, b) != one:
                pairing = False
    return TheoremHypotheses(q_constant=diag.q_constant, q=diag.q, pairing_holds=pairing)


def _times_boxes(a, n: int, m: int) -> list:
    """The coefficients of a(t) (1 + t + ... + t^(n-1))^m.  The box is
    (1 - t^n) / (1 - t), so each factor costs one shifted difference and
    one running sum over the coefficients, not a product with n terms."""
    for _ in range(m):
        padded = list(a) + [0] * (n - 1)
        a = list(accumulate(x - (padded[i - n] if i >= n else 0) for i, x in enumerate(padded)))
    return a


class HilbertSeries(NamedTuple):
    """sum_k dim B_k t^k = numerator(t) / (1 - t)^pole, the numerator as its
    coefficients from t^0 up."""

    numerator: tuple
    pole: int

    def coefficient(self, k: int) -> int:
        """dim B_k: sum_j numerator[j] C(k - j + pole - 1, pole - 1)."""
        if self.pole == 0:
            return self.numerator[k] if 0 <= k < len(self.numerator) else 0
        return sum(c * math.comb(k - j + self.pole - 1, self.pole - 1)
                   for j, c in enumerate(self.numerator[: max(k + 1, 0)]))

    @property
    def total(self) -> int | None:
        """dim B, or None when the algebra is infinite."""
        return sum(self.numerator) if self.pole == 0 else None


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def expected_series(cs: CoefficientSystem) -> HilbertSeries | None:
    """The Hilbert series the multinomial expansion predicts:
    prod_p ((1 - t^(n_p)) / (1 - t))^|p| over the parts p of
    ``full_decomposition``, when the pairing holds and q_a = R[D(a)][a] is
    constant on every part, of order n_p (a theorem; see the module
    docstring).  A part of finite order n_p >= 2 multiplies the numerator by
    its boxes; one where q is 1 or of infinite order has n_p infinite and
    adds |p| to the pole.  None off the pairing, or where q varies inside a
    part (no proof excludes that).  Needs an involutive base, and is
    computed once per system, as the escalation check reads it."""
    if not theorem_hypotheses(cs).pairing_holds:
        return None
    q = diagonal_coefficient_check(cs).values
    numerator, pole = [1], 0
    for part in full_decomposition(cs.solution):
        values = {q[a] for a in part}
        if len(values) > 1:
            return None
        n = values.pop().multiplicative_order()
        if n is None or n == 1:
            pole += len(part)
        else:
            numerator = _times_boxes(numerator, n, len(part))
    return HilbertSeries(tuple(numerator), pole)


# ---------------------------------------------------------------------------
# braiding operators (reference layer)


def braiding_ops(cs: CoefficientSystem, k: int) -> list[MonomialOperator]:
    """The operators c_1, ..., c_{k-1} on the degree-k tensor space, as
    monomial maps over CycloElements.  Index encoding is big-endian base m."""
    if k < 2:
        raise ValueError("need degree k >= 2")
    m = cs.size
    L = m ** k
    ops = []
    for i in range(1, k):
        d1 = m ** (k - i)
        d2 = m ** (k - i - 1)
        target = [0] * L
        scalar = [None] * L
        for b in range(L):
            p = b // d1 % m
            q = b // d2 % m
            a, c = cs.solution.r(p, q)
            target[b] = b + (a - p) * d1 + (c - q) * d2
            scalar[b] = cs.entry(p, q)
        ops.append(MonomialOperator(target, scalar))
    return ops


def symmetrizer_apply(cs: CoefficientSystem, v, k: int):
    """Apply the full degree-k quantum symmetrizer to a dense vector by the
    staircase recursion (k(k-1)/2 + k - 1 monomial passes, no k! blowup)."""
    if k == 0:
        return list(v)
    ops = braiding_ops(cs, k) if k >= 2 else []
    for j in range(2, k + 1):
        total = list(v)
        image = v
        for i in range(j - 1, 0, -1):
            image = apply(ops[i - 1], image)
            total = [a + b for a, b in zip(total, image)]
        v = total
    return list(v)


def relation_image(cs: CoefficientSystem, element) -> list:
    """The symmetrizer image of a formal sum of scaled words.

    ``element`` is an iterable of (coefficient, word) pairs, all words of one
    length k; coefficients may be ints, Fractions or CycloElements.  The sum
    lies in the defining ideal exactly when the image vanishes.  The image is
    a dense list over all m^k words, at the lcm of the system's order and the
    coefficients' orders; it is zero off the orbits the element touches.
    CapExceeded when m^k passes ``_DIMENSION_LIMIT``.
    """
    found = _relation_rows(cs, element)
    if found is None:
        return []
    engine, k, den, blocks = found
    ctx, here = engine.ctx, engine.orbits(k)
    image = [CycloElement.zero(ctx.order)] * (engine.m ** k)
    for orbit, row in blocks:
        for word, entry in zip(here.words(orbit).tolist(), row):
            image[word] = ctx.to_element(entry, den)
    return image


def check_relation(cs: CoefficientSystem, element) -> bool:
    """True iff the formal sum lies in the kernel of the symmetrizer
    (CapExceeded as for ``relation_image``)."""
    found = _relation_rows(cs, element)
    if found is None:
        return True
    *_, blocks = found
    return not any((row != 0).any() for _, row in blocks)


def relation_support(cs: CoefficientSystem, element) -> int:
    """The number of nonzero coordinates of ``relation_image``, counted on
    the orbits the element reaches: each orbit of its degree is one block, so
    no word array of that degree is built (CapExceeded as for
    ``relation_image``)."""
    found = _relation_rows(cs, element)
    if found is None:
        return 0
    *_, blocks = found
    return sum(int(np.count_nonzero((row != 0).any(axis=1))) for _, row in blocks)


@lru_cache(maxsize=1)
def _relation_engine(cs: CoefficientSystem) -> "_Engine":
    """The engine of the last system a relation was checked on (relation
    degrees are small, so keeping its orbit labels costs little)."""
    return _Engine(cs)


def _relation_rows(cs: CoefficientSystem, element):
    """The symmetrizer image of an element on the orbits it reaches, in
    integers: (engine, degree, denominator, blocks) as returned by
    ``_Engine.symmetrize`` with the element's own denominator folded in, or
    None for the empty element."""
    terms = [(_cyclo(c), word) for c, word in element]
    if not terms:
        return None
    degrees = {len(word) for _, word in terms}
    if len(degrees) != 1:
        raise InhomogeneousElement(f"mixed degrees {sorted(degrees)}")
    k = degrees.pop()
    if cs.size ** k > _DIMENSION_LIMIT:
        raise CapExceeded(f"m^k = {cs.size ** k} exceeds the dimension limit {_DIMENSION_LIMIT}")
    order = math.lcm(cs.order, _common_order(c for c, _ in terms))
    if order != cs.order:
        checked_phi(order)
        cs = CoefficientSystem(
            cs.solution, order, [[e.to_order(order) for e in row] for row in cs.R]
        )
    engine = _relation_engine(cs)
    words, nums, elem_den = _word_coefficients(terms, engine.ctx, engine.m)
    den, blocks = engine.symmetrize(k, words, nums)
    return engine, k, den * elem_den, blocks


def _word_coefficients(terms, ctx: CycloCtx, m: int):
    """The (coefficient, word) terms summed per word: (distinct word indices,
    their coefficients as ``ctx.to_int_array`` numerators, denominator).
    ValueError for a letter outside 0..m-1 or a coefficient whose order does
    not divide ``ctx.order``."""
    summed: dict[int, CycloElement] = {}
    for c, word in terms:
        idx = word_index(word, m)
        c = _cyclo(c).to_order(ctx.order)
        summed[idx] = summed[idx] + c if idx in summed else c
    nums, den = ctx.to_int_array(summed.values())
    return np.array(list(summed), dtype=np.int64), nums, den


# ---------------------------------------------------------------------------
# fast symmetrizer chain


def _runs(keys):
    """The distinct values of the ascending array ``keys``, and for each key
    the index of its value among them."""
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh], np.cumsum(fresh) - 1


def _batches(weights, budget: int):
    """Cut consecutive groups, of ``weights`` entries each, into runs that
    stay within the larger of the largest group's and ``budget`` entries: a
    run closes before a group would pass that, so a degree of many small
    orbits costs a few walks, not one per orbit.  Yields each run as a range
    of group indices."""
    ends = np.cumsum(weights, dtype=np.int64)
    limit = max(int(np.max(weights, initial=0)), budget)
    lo = 0
    while lo < ends.size:
        hi = int(np.searchsorted(ends, limit + (ends[lo - 1] if lo else 0), side="right"))
        yield range(lo, hi)
        lo = hi


def _marked(index, size: int):
    """Mark the positions in range(size) that ``index`` takes and number them
    in ascending order: returns (the marked positions, ``index`` with each
    position replaced by its number).  The numbering is a scatter (numpy's
    cumsum of a mask is slow) into the smallest integer type that holds it,
    and is skipped when every position is marked."""
    used = np.zeros(size, dtype=bool)
    used[index] = True
    kept = np.flatnonzero(used)
    if kept.size == size:
        return kept, index
    del used  # free the marks before the numbering is allocated
    number = np.empty(size, dtype=np.min_scalar_type(kept.size))
    number[kept] = np.arange(kept.size, dtype=number.dtype)
    return kept, number[index]


class _Entries(NamedTuple):
    """A batch's seeds flattened for one staircase walk: the source words
    that carry an entry, entry -> index into those words (a full slice when
    that is the identity), entry -> its place, entry
    values ((phi,) exactly, one value mod p), the output length (0 for a
    compact walk until its index pass), and whether the seeds mix int64 and
    object rows.

    A dense walk writes whole-orbit segments: an entry's place is the start
    of its segment, and each term adds at place + the term's orbit positions.
    A compact walk (``_SeedTable.compacted``) writes only the orbit positions
    some term reaches: ``terms`` holds each term's output indices and pair
    indices, stored by one index pass, and ``columns`` each group's positions
    in ascending order; before that pass an entry's place is its seed,
    counted from the batch's first, and after it the entry has no place.
    ``index`` is each entry's value in the seed table's concatenated rows; a
    compact walk keeps it, so that a walk plan (``_WalkPlan``) can gather
    the values of other rows of the same support."""

    words: np.ndarray | None
    src: object
    place: np.ndarray | None
    vals: np.ndarray | None
    n_out: int
    mixed: bool
    terms: list | None = None
    columns: list | None = None
    index: np.ndarray | None = None


class _SeedTable:
    """The seeds of the walks of one degree k, as arrays over the whole
    degree: the input of every staircase walk, built one way.

    Seed s lies on the node ``nodes[s]`` (P, y), id P m + y, and carries
    the row ``rows[s]`` of ``rows_below``, each a row on the degree-(k-1)
    orbit ``orbits_below`` names; those rows are concatenated once.  It
    belongs to group ``groups[s]``, and group g lies on the degree-k orbit
    ``orbits[g]``.  The seeds are ordered by group, and the outputs of the
    groups lie end to end, so a range of groups walks into one array.

    In a dense table the seeds of group g sum into one segment over its
    whole orbit, ``lengths[g]`` long (rank-one steps, relation checks).  In
    a ``compact`` table (off the paper's class) each seed writes a segment
    of its own, ``counts[g]`` per group, that holds only the orbit positions
    some staircase term of its group's walk reaches (``compacted``).
    """

    def __init__(self, here, rows_below, orbits_below, nodes, rows, groups, orbits,
                 columns=None, compact=False) -> None:
        self.here, self.nodes, self.orbits = here, nodes, orbits
        self.groups, self.compact = groups, compact
        self.bounds = np.searchsorted(groups, np.arange(orbits.size + 1))  # group -> first seed
        if compact:
            self.counts = np.diff(self.bounds)
            self.segment = np.arange(nodes.size) - self.bounds[groups]  # each seed's, in its group
        else:
            self.lengths = here.sizes[orbits]
            self.ends = np.cumsum(self.lengths)
            self.starts = self.ends - self.lengths  # each group's output, degree-wide
            self.segments = self.starts[groups]  # each seed's segment, degree-wide
        sizes = here.below.sizes[orbits_below]
        self.sizes = sizes[rows]  # the words of each seed's node
        # a whole row holds a value per word of its orbit, a support row
        # (``OrbitRows.columns``) its nonzero values only
        widths = sizes if columns is None else np.array([c.size for c in columns], dtype=np.int64)
        self.widths = widths[rows]
        self.first = (np.cumsum(widths) - widths)[rows]  # each seed's first value in flat
        self.columns = None if columns is None else np.concatenate(
            columns or [np.zeros(0, dtype=np.int64)])
        # a seed opens a block of columns, its node's words, unless the seed
        # before it in its group lies on the same node
        self.fresh = np.ones(nodes.size, dtype=bool)
        self.fresh[1:] = (nodes[1:] != nodes[:-1]) | (groups[1:] != groups[:-1])
        # object when some row below is; then each seed notes its row's dtype
        self.flat = np.concatenate(rows_below or [np.zeros(0, dtype=np.int64)])
        self.objects = None
        if self.flat.dtype == object:
            self.objects = np.array([row.dtype == object for row in rows_below])[rows]

    def batches(self, k: int):
        """The runs of groups that walk together (``_batches``), weighed by
        what their walk holds.  A dense walk holds its output, ``lengths``
        entries, within ``_DENSE_BATCH_BUDGET``.  A compact walk holds one
        stored output index per entry and term, and an output of at most
        min(orbit size, k x entries) positions per segment, as each of the k
        terms sends an entry's word to one position; within
        ``_BATCH_BUDGET``."""
        if not self.compact:
            return _batches(self.lengths, _DENSE_BATCH_BUDGET)
        entries = np.diff(np.append(0, np.cumsum(self.widths))[self.bounds])
        reach = np.minimum(self.here.sizes[self.orbits], k * entries)
        return _batches(k * entries + self.counts * reach, _BATCH_BUDGET)

    def entries(self, part: range) -> _Entries:
        """The walk entries of the groups ``part``: one per nonzero value of
        each seed's row, on its node's words in orbit order.  A block of
        seeds on one node shares the node's words, and only the words that
        carry an entry are walked (on w1 at degree 9, 18,144 of the 396,288
        words of the seeded nodes).  A support row is gathered at its stored
        values only, each on the word of its stored column, so no zero is
        gathered; a whole row is gathered in full and its zeros dropped.  On
        the paper's class every value is nonzero (the module docstring), so
        the walk takes whole nodes.  The entries are placed densely, or,
        from a compact table, by their seeds (``compacted`` places them)."""
        seeds = slice(self.bounds[part.start], self.bounds[part.stop])
        widths, fresh = self.widths[seeds], self.fresh[seeds]
        starts = np.cumsum(widths) - widths  # each seed's first entry
        index = np.repeat(self.first[seeds] - starts, widths)
        index += np.arange(index.size)
        vals = self.flat[index]
        mixed = False
        if self.objects is not None:
            objects = self.objects[seeds]
            mixed = bool(objects.any() and not objects.all())
            if not objects.any():
                vals = vals.astype(np.int64)
        if self.compact:  # ``compacted`` sizes the output
            place, n_out = np.repeat(np.arange(widths.size), widths), 0
        else:
            first_out = self.starts[part.start]
            place = np.repeat(self.segments[seeds] - first_out, widths)
            n_out = int(self.ends[part.stop - 1] - first_out)
        nodes = self.nodes[seeds]
        if self.columns is None:
            live = (vals.reshape(len(vals), -1) != 0).any(axis=1)
            if live.all() and fresh.all():  # one entry per word, in order: no gathers
                return _Entries(self.here.node_words(nodes), slice(None), place, vals, n_out, mixed,
                                index=index)
        nodes = nodes[fresh]
        # src numbers an entry's column over the blocks' words, block after block
        block_widths = self.sizes[seeds][fresh]
        block_starts = np.cumsum(block_widths) - block_widths
        blocks = block_starts[np.cumsum(fresh) - 1]
        if self.columns is None:  # an entry's column is its place in its row
            src = np.repeat(blocks - starts, widths)
            src += np.arange(src.size)
            live = np.flatnonzero(live)
            src, place, vals, index = src[live], place[live], vals[live], index[live]
        else:
            src = np.repeat(blocks, widths)
            src += self.columns[index]
        # keep the columns that carry an entry, and number them anew
        kept, src = _marked(src, int(block_widths.sum()))
        src = src.astype(np.int64, copy=False)
        words = self.here.column_words(nodes, kept)
        if src.size == words.size and (src[1:] > src[:-1]).all():
            src = slice(None)
        return _Entries(words, src, place, vals, n_out, mixed, index=index)

    def compacted(self, part: range, entries: _Entries, positions, pairs) -> _Entries:
        """The entries of the groups ``part`` of a compact table placed in a
        compact output, from one index pass over the staircase terms of
        their walk: row t of ``positions`` holds the orbit positions term t
        sends the entries to, and ``pairs[t]`` its pair indices.

        The positions the terms reach are marked over the words of the
        part's orbits, the sum of their sizes, and numbered in ascending
        order per orbit.  Group g then writes counts[g] segments of its
        reached positions, not of its orbit's size, and ``positions`` turns
        into each term's output indices, kept for the walks
        (``_Engine._placed``)."""
        at = slice(part.start, part.stop)
        sizes = self.here.sizes[self.orbits[at]]
        seeds = slice(self.bounds[part.start], self.bounds[part.stop])
        groups = self.groups[seeds] - part.start
        firsts = np.cumsum(sizes) - sizes  # each orbit's first word in the marks
        positions += firsts[groups][entries.place]
        kept, number = _marked(positions, int(sizes.sum()))
        heads = np.searchsorted(kept, firsts)  # each orbit's first reached position
        widths = np.diff(np.append(heads, kept.size))
        lengths = self.counts[at] * widths
        # seed s of group g writes its segment at starts[g] + segment[s] * widths[g]
        base = (np.cumsum(lengths) - lengths - heads)[groups]
        base += self.segment[seeds] * widths[groups]
        np.add(number, base[entries.place], out=positions)
        columns = np.split(kept - np.repeat(firsts, widths), np.cumsum(widths)[:-1])
        return entries._replace(place=None, n_out=int(lengths.sum()), columns=columns,
                                terms=list(zip(positions, pairs)))

    def outputs(self, part: range, out, columns) -> list:
        """A walk output of the groups ``part`` cut into (orbit, block,
        columns) per group: the block is shaped (segments, width[, phi]) and
        holds the values at the ascending orbit positions of ``columns``, a
        compact walk's (``_Entries``), or at every position of the orbit, in
        order (a dense walk's one segment, with columns None)."""
        at = slice(part.start, part.stop)
        orbits, rest = self.orbits[at].tolist(), out.shape[1:]
        if columns is None:
            sizes = self.lengths[at]
            pieces = zip(orbits, np.cumsum(sizes).tolist(), sizes.tolist())
            return [(orbit, out[end - size : end].reshape(1, size, *rest), None)
                    for orbit, end, size in pieces]
        counts = self.counts[at].tolist()
        widths = [c.size for c in columns]
        lengths = [count * width for count, width in zip(counts, widths)]
        pieces = zip(orbits, accumulate(lengths), lengths, counts, widths, columns)
        return [(orbit, out[end - length : end].reshape(count, width, *rest), cols)
                for orbit, end, length, count, width, cols in pieces]


class _WalkPlan(NamedTuple):
    """The value-free part of an off-class degree-k step over F_p, built
    from rows on ``orbits`` with the support ``columns``: its seed table and
    its one batch ``part``, whose ``entries`` keep their gather index, src,
    output length, stored terms and columns, but no values, words or
    places.  Rows of the same support have the same seed table and walk the
    same words to the same positions, at any prime, so they walk from the
    plan: ``_Engine._step`` builds, keeps and drops it, and hands its
    entries, with the rows' values gathered, to ``_Engine._walks``."""

    k: int
    orbits: list
    columns: list
    seeds: _SeedTable
    part: range
    entries: _Entries

    def fits(self, rows: "OrbitRows", k: int) -> bool:
        """Whether the degree-k step from ``rows`` walks from this plan."""
        return (k == self.k and rows.columns is not None and rows.orbits == self.orbits
                and all(map(np.array_equal, rows.columns, self.columns)))


class OrbitRows(list):
    """Basis rows of one degree, each local to one braid-group orbit.

    Row t lives on the words of orbit ``orbits[t]`` in node-major order
    (``orbits._Orbits``): the orbit's nodes (P, y) in ascending id, and
    within a node the words u y in the order the orbit P lists u.  A word's
    index there is its ``pos``.  With ``columns`` None every row is whole,
    a value per word of its orbit.  Otherwise every row is a support row:
    its nonzero values only, at the strictly ascending indices
    ``columns[t]``.  Only ``_Engine.expand`` builds full-length rows.
    """

    def __init__(self, rows=(), orbits=(), columns=None) -> None:
        super().__init__(rows)
        self.orbits = list(orbits)
        self.columns = None if columns is None else list(columns)

    def add_span(self, orbit: int, seeds, columns, space) -> None:
        """Append the basis the seed rows span on the orbit, as support rows:
        ``seeds`` (seeds, width[, phi]) holds their values at the strictly
        ascending orbit positions ``columns`` and is zero elsewhere, and
        ``space(width)`` is an empty row space of that width.

        The seeds are inserted on their support only, the columns where
        some seed is nonzero (a walk's column can cancel in every seed), and
        each kept row is stored at its own nonzero positions.  A position
        that is zero in every seed stays zero under every row operation, and
        the support keeps the positions' order, so the rows, pivots, dtypes
        and int64 bounds are those of inserting the full seed rows.  A seed
        that is zero on the support is not inserted: it changes no basis,
        and a block's seeds share one dtype, so an object block still turns
        its space object at its first nonzero seed."""
        nonzero = (seeds != 0).reshape(len(seeds), seeds.shape[1], -1).any(axis=2)
        live = np.flatnonzero(nonzero.any(axis=0))
        support = columns[live]
        basis = space(live.size)
        for seed in seeds[np.ix_(nonzero.any(axis=1), live)]:
            basis.insert(seed)
        for row in basis.rows:
            nonzero = np.flatnonzero((row != 0).reshape(len(row), -1).any(axis=1))
            self.append(row[nonzero])
            self.columns.append(support[nonzero])
        self.orbits += [orbit] * basis.rank


class _Engine:
    """Vectorized staircase terms and degree steps for one coefficient system.

    Every braiding c_i maps a word to one word times a scalar, so the
    symmetrizer is block-diagonal over the orbits of the braid group on the
    words.  Basis rows are kept orbit-local, and each step walks batches of
    whole orbits.
    """

    def __init__(self, cs: CoefficientSystem) -> None:
        self.cs = cs
        self.m = cs.size
        self.ctx = CycloCtx(cs.order)
        m = self.m
        self.braid = BraidOrbits(cs.solution)
        self.orbits = self.braid.orbits  # orbits(k): the B_k-orbits on degree-k words
        flat = [cs.entry(i, j) for i in range(m) for j in range(m)]
        # object only when an entry leaves int64; _terms_exact promotes first
        self.r_int, self.r_den = self.ctx.to_int_array(flat)
        self.r_int_max = max(1, _max_abs(self.r_int))
        self._r_mod: dict[int, np.ndarray] = {}
        self._flat = flat
        self._plan: _WalkPlan | None = None  # of the degree last stepped over F_p

    def r_mod(self, p: int) -> np.ndarray:
        if p not in self._r_mod:
            self._r_mod[p] = np.array(
                [specialize(e, p).value for e in self._flat], dtype=np.int64
            )
        return self._r_mod[p]

    def _c_arrays(self, k: int, i: int, idx=None):
        """Images and scalar indices of c_i on the degree-k words ``idx``
        (default: every word, in order)."""
        m = self.m
        low = m ** (k - i - 1)
        if idx is None:
            idx = np.arange(m ** k, dtype=np.int64)
        high = idx // low
        pair = high - high // (m * m) * (m * m)  # high % m^2; numpy's % costs twice this
        return idx + self.braid.pair_shift[pair] * low, pair

    def expand(self, rows: OrbitRows, k: int) -> list[np.ndarray]:
        """Orbit-local rows, whole or support rows, as full-length vectors
        on all m^k words: the one place full-length rows are built."""
        orbits = self.orbits(k)
        columns = [slice(None)] * len(rows) if rows.columns is None else rows.columns
        out = []
        for row, orbit, cols in zip(rows, rows.orbits, columns):
            full = np.zeros((self.m ** k,) + row.shape[1:], dtype=row.dtype)
            full[orbits.words(orbit)[cols]] = row
            out.append(full)
        return out

    @cached_property
    def hypotheses(self) -> TheoremHypotheses | None:
        """The dimension-theorem hypotheses of the system, or None when the
        base solution is not involutive; computed on first read, so the
        relation path never pays for them."""
        try:
            return theorem_hypotheses(self.cs)
        except NotInvolutive:
            return None

    @cached_property
    def rank_one(self) -> bool:
        """Whether the symmetrizer sends every orbit to a space of dimension
        at most one (involutive with the pairing), so that one seed per orbit
        spans its image; see the module docstring."""
        return self.hypotheses is not None and self.hypotheses.pairing_holds

    def _head_seeds(self, prev_rows: OrbitRows, k: int) -> _SeedTable:
        """The seeds of a degree-k step on the paper's class: orbit O is
        seeded once, at its head node (P, y) (``_Orbits.heads``), by the row
        of P, and only when P kept one (see the module docstring)."""
        here = self.orbits(k)
        kept = np.asarray(prev_rows.orbits, dtype=np.int64)
        row_of = np.full(here.below.count, -1, dtype=np.int64)
        row_of[kept] = np.arange(kept.size)
        if np.count_nonzero(row_of >= 0) < kept.size:
            raise AssertionError(f"an orbit of degree {k - 1} kept more than one row")
        rows = row_of[here.heads // self.m]
        orbits = np.flatnonzero(rows >= 0)
        seeds = np.arange(orbits.size)
        return _SeedTable(here, prev_rows, kept, here.heads[orbits], rows[orbits], seeds, orbits,
                          prev_rows.columns)

    def _node_seeds(self, prev_rows: OrbitRows, k: int) -> _SeedTable:
        """The seeds of a degree-k step off the paper's class: a row on the
        degree-(k-1) orbit P seeds every node (P, y), id P m + y, in orbit
        ``links[P m + y]``.  The seeds are ordered by (orbit, node, row), each
        walks into its own segment, and each orbit is one group; the table
        is compact."""
        m, here = self.m, self.orbits(k)
        kept = np.asarray(prev_rows.orbits, dtype=np.int64)
        rows = np.repeat(np.arange(kept.size), m)
        nodes = (kept[:, None] * m + np.arange(m)).ravel()
        order = np.lexsort((rows, nodes, here.links[nodes]))
        rows, nodes = rows[order], nodes[order]
        orbits, groups = _runs(here.links[nodes])
        return _SeedTable(here, prev_rows, kept, nodes, rows, groups, orbits, prev_rows.columns,
                          compact=True)

    # -- exact chain

    def identity_rows(self) -> OrbitRows:
        rows = []
        for _ in range(self.m):
            arr = np.zeros((1, self.ctx.phi), dtype=np.int64)
            arr[0, 0] = 1
            rows.append(arr)
        return OrbitRows(rows, range(self.m))

    def _images(self, k: int, words):
        """Yield (image words, pair indices) of each term of the staircase
        T_k = id + c_{k-1} + ... + c_1 ... c_{k-1} on the degree-k words;
        the identity term has no pair indices."""
        cur = words
        yield cur, None
        for i in range(k - 1, 0, -1):
            cur, sidx = self._c_arrays(k, i, cur)
            yield cur, sidx

    def _located(self, k: int, terms):
        """Pair each term of a staircase walk (a tuple led by its image
        words, as ``_images`` yields) with the positions
        of those words within their degree-k orbits.

        A word u y sits at the offset of its node (orbit of u, y) plus the
        position of u within its degree-(k-1) orbit.  T_k = id +
        (T_{k-1} (x) id) c_{k-1}: every term after c_{k-1} moves only u, so
        the node and its offset stay fixed from there on, and a walk reads
        the arrays of degree k-1 only.
        """
        m, here, below = self.m, self.orbits(k), self.orbits(k - 1)
        for i, term in enumerate(terms):
            prefix = term[0] // m
            if i < 2:  # the identity and c_{k-1} place the node; later terms keep it
                offset = here.offsets[below.label[prefix] * m + term[0] - prefix * m]
            yield term, offset + below.pos[prefix]

    def _entries(self, k: int, seeds: _SeedTable, part: range) -> _Entries:
        """The walk entries of the groups ``part`` (``_SeedTable.entries``).
        A compact table's are then placed by one index pass over the
        staircase terms, which keeps each term's orbit positions and pair
        indices (``_SeedTable.compacted``)."""
        entries = seeds.entries(part)
        if not seeds.compact:  # a dense walk keeps no gather index
            return entries._replace(index=None)
        src = entries.src
        positions = np.empty((k, len(entries.vals)), dtype=np.int64)
        pairs = []
        located = self._located(k, self._images(k, entries.words))
        for row, ((_, sidx), at) in zip(positions, located):
            row[:] = at[src]
            pairs.append(sidx)
        return seeds.compacted(part, entries, positions, pairs)

    def _placed(self, k: int, entries: _Entries):
        """(output indices, pair indices) of each staircase term of a walk,
        the identity's pair indices None: a compact walk's stored terms, else
        each term's orbit positions (``_located``) past its entries' segment
        starts.  Both walks read their output indices here."""
        if entries.terms is not None:
            yield from entries.terms
            return
        src, place = entries.src, entries.place
        for term, at in self._located(k, self._images(k, entries.words)):
            at = at[src]  # each term's positions are a fresh array: shift them in place
            at += place
            yield at, term[1]

    def _terms_exact(self, terms, n: int, object_mode: bool):
        """Yield (t, scalars, denominator, peak) for each (t, pair indices) of
        ``terms``, the staircase terms of a walk over n source words, the
        identity first with pair indices None (as ``_images`` and ``_placed``
        yield them): the scalars are each word's running product of the
        table's entries.  ``peak`` is the largest absolute scalar while the
        scalars are int64, else None.  The scalars turn object before a
        product could leave int64."""
        ctx = self.ctx
        scal = np.zeros((n, ctx.phi), dtype=object if object_mode else np.int64)
        scal[:, 0] = 1
        den = 1
        peak = None if object_mode else _max_abs(scal)
        for t, sidx in terms:
            if sidx is not None:
                if peak is not None and peak * self.r_int_max * ctx.mul_bound >= _INT64_GUARD:
                    scal = _as_object(scal)
                scal = mul_rows_elementwise(
                    scal, self.r_int[sidx].astype(scal.dtype, copy=False), ctx)
                den *= self.r_den
                peak = None if scal.dtype == object else _max_abs(scal)
            yield t, scal, den, peak

    def _walks(self, k: int, seeds: _SeedTable, part: range, p: int | None = None,
               entries: _Entries | None = None):
        """T_k applied to the seeds of the groups ``part``, exactly and
        scaled by r_den^(k-1) to integers (``_staircase_walk``), or over F_p
        (``_mod_walk``): yields (part, walk output, columns) for the parts
        the groups were walked in, the columns of a compact walk
        (``_Entries``) or None.  The walk reads a walk plan's ``entries``
        when given, else builds its own (``_entries``); they end before the
        output is yielded.

        The groups are walked together; an orbit's arithmetic turns object
        exactly where its own int64 bound would be crossed, so a part whose
        seeds mix int64 and object rows, or whose exact walk would cross the
        bound, is bisected, and an orbit turns object only when it is walked
        alone.
        """
        if entries is None:
            entries = self._entries(k, seeds, part)
        columns = entries.columns
        if p is None:
            out = self._staircase_walk(k, entries, promote=len(part) == 1)
        else:
            out = self._mod_walk(p, k, entries)
        del entries  # a generator keeps its locals across a yield
        if out is not None:
            yield part, out, columns
            return
        half = len(part) // 2
        yield from self._walks(k, seeds, part[:half], p)
        yield from self._walks(k, seeds, part[half:], p)

    def _staircase_walk(self, k: int, entries: _Entries, promote: bool):
        """The staircase terms walked once over a batch's seed entries, on the
        source words that carry one; returns the output.

        A term is injective on the words, and the seeds that share an output
        segment sit on distinct words of one orbit, so the output indices
        within one term are distinct and a plain scatter-add is exact.  The
        int64 bound takes each term's peak over the walked words only, which
        bounds every accumulated entry, since an entry takes at most one
        contribution per term and a word without an entry adds nothing.
        Returns None instead of turning int64 orbits object unless
        ``promote``, and for seeds that mix int64 and object rows; seeds
        that are all object already are walked in object arithmetic.
        """
        ctx = self.ctx
        if entries.mixed and not promote:
            return None
        src, vals = entries.src, entries.vals
        object_mode = vals.dtype == object
        seed_max = 0 if object_mode else _max_abs(vals)
        out = np.zeros((entries.n_out, ctx.phi), dtype=object if object_mode else np.int64)
        total_den = self.r_den ** (k - 1)
        bound = 0  # bounds every accumulated entry while in int64
        terms = self._placed(k, entries)
        for idx, scal, den, peak in self._terms_exact(terms, entries.words.size, object_mode):
            scale = total_den // den
            if not object_mode:
                if peak is not None:
                    bound += seed_max * peak * ctx.mul_bound * scale
                if peak is None or bound >= _INT64_GUARD:
                    if not promote:
                        return None
                    object_mode = True
                    vals, out = _as_object(vals), _as_object(out)
            if object_mode:
                scal = _as_object(scal)
            if scale != 1:
                scal = scal * scale
            out[idx] += mul_rows_elementwise(vals, scal[src], ctx)
        return out

    def _mod_walk(self, p: int, k: int, entries: _Entries):
        """``_staircase_walk`` over F_p: one running product per word,
        reduced mod p at every term, times each entry's value mod p.  Each
        term reduces the sums it adds to, on the entries it touches only, so
        the output lies in [0, p) without a pass over the whole of it."""
        rmod = self.r_mod(p)
        src = entries.src
        acc = np.zeros(entries.n_out, dtype=np.int64)
        vals = entries.vals.reshape(-1)
        scal = 1  # the first mapped term makes it one product per word
        for idx, sidx in self._placed(k, entries):  # idx distinct within a term
            if sidx is None:
                term = vals
            else:  # x -= x // p * p reduces in half the time of numpy's %
                scal = scal * rmod[sidx]
                scal -= scal // p * p
                term = vals * scal[src]
                term -= term // p * p
            term = acc[idx] + term  # below 2p
            np.subtract(term, p, out=term, where=term >= p)
            acc[idx] = term
        return acc

    def _step(self, prev_rows: OrbitRows, k: int, p: int | None = None):
        """One degree of the recursion: the span of the staircase images of
        (previous basis) (x) (generators), exactly or over F_p.  Returns
        (basis rows, dim).

        On the paper's class each orbit has one seed (``_head_seeds``), and
        ``lone_rows`` reduces each batch's output where it lies: an orbit's
        row is a view of its segment, or none.  Off it, each orbit's seed
        images, written compactly, are eliminated (``OrbitRows.add_span``)
        into support rows.

        The step is the one place that handles the engine's walk plan.  Rows
        that fit it (``_WalkPlan.fits``) walk from it over F_p, with no seed
        table, entries or index pass of their own, so the second prime of a
        degree reuses the first prime's.  Otherwise the plan is freed before
        the step is built, so the engine never holds two, and an off-class
        step over F_p from support rows that walks in one batch becomes the
        new plan: a plan holds what one walk holds, where a degree of many
        batches would hold all their index passes at once (on w3 at zeta3,
        degree 9 walks in 8 batches, and holding them all doubled the traced
        peak of its ``graded_dims``).  An exact step neither reads nor keeps
        a plan."""
        plan = self._plan
        if p is None or plan is None or not plan.fits(prev_rows, k):
            plan = self._plan = None  # free it before the new step is built
            seeds = (self._head_seeds if self.rank_one else self._node_seeds)(prev_rows, k)
            runs = list(seeds.batches(k))
            if p is not None and seeds.compact and len(runs) == 1 and prev_rows.columns is not None:
                entries = self._entries(k, seeds, runs[0])._replace(words=None, vals=None)
                plan = self._plan = _WalkPlan(k, prev_rows.orbits, prev_rows.columns, seeds,
                                              runs[0], entries)
        if plan is None:
            walks = (walk for run in runs for walk in self._walks(k, seeds, run, p))
        else:  # the walk gathers its own values; the plan keeps none
            seeds, entries = plan.seeds, plan.entries
            walks = self._walks(k, seeds, plan.part, p,
                                entries._replace(vals=np.concatenate(prev_rows)[entries.index]))
        out = OrbitRows(columns=None if self.rank_one else [])
        space = partial(ExactIntRows, self.ctx) if p is None else partial(ModRows, p)
        for part, acc, columns in walks:
            if self.rank_one:
                at = slice(part.start, part.stop)
                sizes = seeds.lengths[at]
                keep, rows = lone_rows(acc, sizes, p)
                kept = (a[keep].tolist() for a in (seeds.orbits[at], np.cumsum(sizes), sizes))
                for orbit, end, size in zip(*kept):
                    out.append(rows[end - size : end])
                    out.orbits.append(orbit)
            else:
                for orbit, block, cols in seeds.outputs(part, acc, columns):
                    out.add_span(orbit, block, cols, space)
        return out, len(out)

    def exact_step(self, prev_rows: OrbitRows, k: int):
        """One exact degree step (``_step``).  Returns (basis rows, dim)."""
        return self._step(prev_rows, k)

    def symmetrize(self, k: int, words, coeffs):
        """The full degree-k symmetrizer of sum_t coeffs[t] * words[t] on the
        orbits those words touch, by S_j = T_j (S_{j-1} (x) id) for
        j = 2, ..., k.

        ``words`` are distinct degree-k word indices and ``coeffs`` their
        (n, phi) integer power-basis vectors (int64 or object).  Before
        degree j the element is a sum of pieces v (x) t: a tail t of its last
        k-j+1 letters and a row v on one degree-(j-1) orbit P.  With t = y t',
        the piece seeds the node (P, y) of degree j; one group per tail t'
        and degree-j orbit, whose seeds walk T_j into one output segment and
        sum there to that orbit's row.  The orbits of degree 0 and 1 are
        single words.  Returns (den, blocks): each block is (degree-k orbit,
        integer row) and the image is row / den, with den = r_den^(k(k-1)/2).
        """
        m, first = self.m, min(k, 1)
        heads, tails = np.divmod(words, m ** (k - first))
        orbits = self.orbits(first).label[heads]
        rows = list(coeffs[:, None])
        for j in range(2, k + 1):
            here = self.orbits(j)
            letters, tails = np.divmod(tails, m ** (k - j))
            nodes = orbits * m + letters
            keys = tails * here.count + here.links[nodes]
            order = np.lexsort((nodes, keys))
            keys, groups = _runs(keys[order])
            tails, placed = np.divmod(keys, here.count)
            seeds = _SeedTable(here, rows, orbits, nodes[order], order, groups, placed)
            rows = []
            for run in seeds.batches(j):
                for part, acc, columns in self._walks(j, seeds, run):
                    rows += [block[0] for _, block, _ in seeds.outputs(part, acc, columns)]
            orbits = placed
        den = self.r_den ** (k * (k - 1) // 2)
        return den, list(zip(orbits.tolist(), rows))

    def specialize_rows(self, rows: OrbitRows, p: int) -> OrbitRows:
        """Mod-p images of exact basis rows (rows are primitive integers).
        Support rows keep their columns, less any whose value vanishes mod p."""
        omega = unity_root_mod(self.ctx.order, p)
        out, columns = [], rows.columns
        for arr in rows:
            total = np.zeros(arr.shape[0], dtype=np.int64)
            w = 1
            for a in range(self.ctx.phi):
                col = (arr[:, a] % p).astype(np.int64)
                total = (total + col * w) % p
                w = w * omega % p
            out.append(total)
        if columns is not None:
            nonzero = [np.flatnonzero(total) for total in out]
            out = [total[at] for total, at in zip(out, nonzero)]
            columns = [cols[at] for cols, at in zip(columns, nonzero)]
        return OrbitRows(out, rows.orbits, columns)

    def mod_step(self, prev_vecs: OrbitRows, k: int, p: int):
        """One degree step over F_p (``_step``); off the paper's class it
        walks from the engine's walk plan when its rows fit it (``_step``
        hands the plan's entries to ``_walks``).  Returns (basis rows, dim)."""
        return self._step(prev_vecs, k, p)


# ---------------------------------------------------------------------------
# graded dimensions


@dataclass(frozen=True)
class DegreeRecord:
    degree: int
    dim: int
    mode: str  # "trivial" | "exact" | "modular" | "modular+exact"
    primes: tuple = ()
    escalated: bool = False
    modular_dims: tuple = ()

    @property
    def agreed(self) -> bool | None:
        """Whether every prime gave the same rank (None without primes)."""
        return len(set(self.modular_dims)) == 1 if self.modular_dims else None

    def to_json(self) -> dict:
        out = {"degree": self.degree, "dim": self.dim, "mode": self.mode}
        if self.primes:
            out["primes"] = list(self.primes)
            out["agreed"] = self.agreed
            out["modular_dims"] = list(self.modular_dims)
        if self.escalated:
            out["escalated"] = True
        return out


@dataclass(frozen=True)
class GradedDims:
    provenance: tuple  # one DegreeRecord per degree, from degree 0
    terminated: str  # "zero" | "cap"

    @property
    def dims(self) -> tuple:
        return tuple(r.dim for r in self.provenance)

    @property
    def total(self) -> int | None:
        """The sum of the dimensions once a degree vanished, else None."""
        return sum(self.dims) if self.terminated == "zero" else None

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "total": self.total,
            "provenance": [r.to_json() for r in self.provenance],
            "terminated": self.terminated,
        }


def graded_dims(
    cs: CoefficientSystem,
    cap: int = 16,
    *,
    mode: str = "auto",
    exact_cap: int = 4096,
    primes=None,
) -> GradedDims:
    """Per-degree dimensions until the first zero (all later degrees vanish
    since the algebra is generated in degree one), until the cap, or before
    a degree of more than ``_DIMENSION_LIMIT`` words.

    ``mode``: "auto" runs degrees with m^k <= exact_cap exactly and larger
    ones modular, keeping a modular degree only when every prime gives the
    same nonzero rank and that rank equals the coefficient of
    ``expected_series`` wherever it exists; otherwise it escalates back to
    exact arithmetic for good: the exact chain catches up from its last
    degree through this one and rewrites the modular records on its way.
    "exact" runs every degree exactly.  Given ``primes`` are checked up
    front (BadPrime unless they are at least two distinct primes, each below
    2^31 and 1 mod the order).
    """
    if mode not in ("auto", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if primes is not None:
        primes = tuple(primes)
        if len(primes) < 2 or len(set(primes)) < len(primes):
            raise BadPrime(f"need at least two distinct primes, got {list(primes)}")
        for p in primes:
            check_modulus(p, cs.order)
    m = cs.size
    engine = _Engine(cs)
    records = [DegreeRecord(0, 1, "trivial"), DegreeRecord(1, m, "trivial")]
    exact_rows, exact_degree = engine.identity_rows(), 1  # the exact chain
    mod_rows = None  # per prime, read when the first modular degree runs
    series = None  # expected_series, read at the same time
    modular = mode == "auto"  # until an escalation
    terminated = "cap"
    for k in range(2, cap + 1):
        if m ** k > _DIMENSION_LIMIT:
            break
        if modular and m ** k > exact_cap:
            if primes is None:
                primes = tuple(primes_for_order(cs.order, count=2))
            if mod_rows is None:
                mod_rows = {p: engine.specialize_rows(exact_rows, p) for p in primes}
                if engine.hypotheses is not None:
                    series = expected_series(cs)
            steps = {p: engine.mod_step(mod_rows[p], k, p) for p in primes}
            record = DegreeRecord(
                k, steps[primes[0]][1], "modular", primes,
                modular_dims=tuple(dim for _, dim in steps.values()),
            )
            records.append(record)
            if record.agreed and record.dim != 0 and (
                series is None or series.coefficient(k) == record.dim
            ):
                mod_rows = {p: rows for p, (rows, _) in steps.items()}
                continue
            modular = False  # the exact chain replays the modular degrees
        for degree in range(exact_degree + 1, k + 1):
            exact_rows, dim = engine.exact_step(exact_rows, degree)
            if degree == len(records):
                records.append(DegreeRecord(degree, dim, "exact"))
            else:
                old = records[degree]
                records[degree] = replace(
                    old, dim=dim, mode="modular+exact",
                    escalated=degree == k or dim != old.dim,
                )
        exact_degree = k
        if records[k].dim == 0:
            terminated = "zero"
            break
    return GradedDims(tuple(records), terminated)


def symmetrizer_image(cs: CoefficientSystem, k: int, exact_cap: int = 4096) -> RowSpace:
    """A reduced-echelon basis of the degree-k symmetrizer image, in exact
    arithmetic, bounded by ``exact_cap`` on the tensor dimension
    (CapExceeded beyond)."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    L = cs.size ** k
    if L > exact_cap:
        raise CapExceeded(f"m^k = {L} exceeds exact cap {exact_cap}")
    engine = _Engine(cs)
    rows = engine.identity_rows()
    for degree in range(2, k + 1):
        rows, _ = engine.exact_step(rows, degree)
    space = RowSpace(L)
    ctx = engine.ctx
    for arr in engine.expand(rows, k):
        space.insert([ctx.to_element(arr[i]) for i in range(L)])
    return space


# ---------------------------------------------------------------------------
# combinatorial oracle and theorem checks


def orbit_count_oracle(cs: CoefficientSystem, k: int) -> int:
    """dim B_k read from ``expected_series`` (HypothesesNotMet where it has none)."""
    series = expected_series(cs)
    if series is None:
        raise HypothesesNotMet("oracle needs the pairing and q constant on each part")
    return series.coefficient(k)


def theorem_relations(cs: CoefficientSystem) -> list:
    """The defining relations predicted for constant q of finite order
    n >= 2: quadratic straightening relations off the fixed pairs, plus one
    diagonal-power word of length n per generator."""
    s = cs.solution
    D = diagonal(s)
    m = s.size
    hyp = theorem_hypotheses(cs)
    n = hyp.q.multiplicative_order() if hyp.q_constant else None
    if n is None or n < 2:
        raise HypothesesNotMet("relation schema needs constant q a root of unity other than 1")
    one = CycloElement.one(cs.order)
    relations = []
    for i in range(m):
        for j in range(m):
            if D(j) == i:
                continue
            a, b = s.r(i, j)
            relations.append(
                (
                    f"w{i} w{j} - R w{a} w{b}",
                    [(one, (i, j)), (-cs.entry(i, j), (a, b))],
                )
            )
    for i in range(m):
        word = psi(n, i, s)
        label = " ".join(f"w{letter}" for letter in word)
        relations.append((label, [(one, word)]))
    return relations


def degree2_relation_rank(cs: CoefficientSystem, relations) -> int:
    """Rank of the span of the given degree-2 relations inside V (x) V, each
    one integer row over the m^2 words; relations with a word of another
    degree are skipped."""
    ctx, m = CycloCtx(cs.order), cs.size
    space = ExactIntRows(ctx, m * m)
    for _, terms in relations:
        if not terms or any(len(word) != 2 for _, word in terms):
            continue
        words, nums, _ = _word_coefficients(terms, ctx, m)
        row = np.zeros((m * m, ctx.phi), dtype=nums.dtype)
        row[words] = nums
        space.insert(row)
    return space.rank


@dataclass(frozen=True)
class TheoremReport:
    passed: bool
    checks: dict
    graded: GradedDims | None = None
    expected_total: int | None = None


def theorem_suite(
    cs: CoefficientSystem,
    *,
    exact_cap: int = 4096,
    dims_mode: str = "auto",
) -> TheoremReport:
    """Check the graded dimensions through degree 16 against
    ``expected_series`` (HypothesesNotMet where it has none).

    "profile": every computed dimension is the series' coefficient;
    "total": when the series is finite, the dimensions vanish and sum to its
    total; "relations_vanish": when q is constant of finite order >= 2,
    every schema relation lies in the kernel of the symmetrizer.
    """
    series = expected_series(cs)
    if series is None:
        raise HypothesesNotMet("needs the pairing off fixed pairs and q constant on each part")
    graded = graded_dims(cs, cap=16, mode=dims_mode, exact_cap=exact_cap)
    checks = {"profile": all(d == series.coefficient(k) for k, d in enumerate(graded.dims))}
    if series.total is not None:
        checks["total"] = graded.total == series.total
        # constant q with no pole is of finite order >= 2
        if theorem_hypotheses(cs).q_constant:
            checks["relations_vanish"] = all(
                check_relation(cs, terms) for _, terms in theorem_relations(cs)
            )
    return TheoremReport(
        passed=all(checks.values()),
        checks=checks,
        graded=graded,
        expected_total=series.total,
    )
