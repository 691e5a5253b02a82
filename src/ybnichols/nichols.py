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
u's orbit P.  A step walks the staircase terms once per batch of whole
orbits, and only over the source words that carry a nonzero seed entry
(on w1 at degree 10, 6,048 of the 132,096 words of the seeded orbits): the
batch's seed rows are one flat list of entries, and each term is one
gather, one cyclotomic product and one scatter-add.

The walk reads the positions of its words within their orbits from the
degree below, by one rule: a word u y sits at the offset of its node (orbit
of u, y) plus the position of u within that orbit.  Every seed block is a
node (P, y) with rows on P, so its words are one gather of P's words below.
By T_k = id + (T_{k-1} (x) id) c_{k-1}, every term after c_{k-1} moves only
u within its degree-(k-1) orbit, so from there on the node and its offset
stay fixed.  A degree-k step therefore reads word-length arrays of degree
k-1 only, and the top degree of a run (w1 at degree 10: 1,048,576 words)
never builds any.  A batch closes only when its accumulators would pass the
larger of ``_BATCH_BUDGET`` entries and the largest single orbit's, so a
degree of many small orbits costs a few walks.  A batch that would leave
int64 is bisected, so arithmetic turns object orbit by orbit.  Exact and
modular steps are one step with two walks: the modular walk visits the same
batches and words with one running product per word, and keeps the products
and the sums reduced mod p at every term.  Off the paper's class (below),
elimination runs orbit by orbit on the positions some seed image reaches,
not the whole orbit (on w1 at degree 9, 1,512 of the 229,632 positions of
the seeded orbits), and each kept row is expanded back to the orbit's
length.  Full-length rows are built only when a caller asks for the image
itself.

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
engine, on the first degree step, from the exact hypotheses.  With one seed,
an orbit's row is the primitive part of its image (mod p: the image scaled
to lead with 1), or none when the image is zero: ``linalg.lone_rows`` takes
these for a whole batch at once, with no elimination.

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
constant on each part, of order n_a on the part of a, an orbit keeps a row
exactly when mu_a < n_a for every a, and
sum_k dim B_k t^k = prod_a (1 + t + ... + t^(n_a - 1)): the multinomial
expansion ``expected_profile`` returns.

Degrees run exactly while the tensor space is small, then modular at two
distinct primes.  A modular degree is kept only when the primes agree on a
nonzero rank that also equals ``expected_profile`` wherever that exists;
otherwise the exact chain resumes from the last exact degree and runs every
later degree, so a finiteness claim is only ever made with exact backing.

Relation checks run on the same engine, with the walks of the degree
steps.  ``check_relation`` and ``relation_image`` build
S_j = T_j (S_{j-1} (x) id) for j = 2, ..., k in integers, on the orbits the
element reaches only: split by the tail of its last k-j+1 letters, the
image so far is a sum of rows on degree-(j-1) orbits P, and a row with tail
y t seeds the node (P, y) of degree j, tagged with t.  The seeds of one tail
and one degree-j orbit walk T_j together and sum to that orbit's row.  So a
check, like a step, reads the word arrays of the degree below only.
``degree2_relation_rank`` ranks its relations as integer rows in the
engine's ``ExactIntRows``.  ``braiding_ops`` and ``symmetrizer_apply``
(dense CycloElement vectors over all m^k words) are the reference oracle
the tests compare against; no relation path calls them.  The reference
``RowSpace`` runs only where ``symmetrizer_image`` (exact only) puts the
engine's basis in reduced echelon form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, groupby
from operator import itemgetter

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


# a batch of orbits walks the staircase together until its accumulators
# would pass this many entries (or the largest single orbit's, if larger)
_BATCH_BUDGET = 2 ** 14

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
        solution = SetSolution.from_json(data["solution"])
        R = [[CycloElement.from_json(e, f"entry R[{i}][{j}]") for j, e in enumerate(row)]
             for i, row in enumerate(data["R"])]
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
    """Outcome of the fixed-pair coefficient identity R[D(j)][j] = R[D(t)][t]
    along every tau-translate t = tau_k(j), plus whether those diagonal
    values are one constant q."""

    identity_holds: bool
    q_constant: bool
    q: CycloElement | None
    values: tuple


def diagonal_coefficient_check(cs: CoefficientSystem) -> DiagonalCoefficientReport:
    s = cs.solution
    D = diagonal(s)
    m = s.size
    values = tuple(cs.entry(D(j), j) for j in range(m))
    holds = True
    for j in range(m):
        for k in range(m):
            t = s.tau(k, j)
            if values[j] != values[t]:
                holds = False
    constant = all(v == values[0] for v in values)
    return DiagonalCoefficientReport(
        identity_holds=holds,
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
    root_order: int | None  # n with q a primitive n-th root, else None
    pairing_holds: bool  # R[i][j] * R[sigma_i(j)][tau_j(i)] = 1 off fixed pairs

    @property
    def finite_type(self) -> bool:
        return (
            self.q_constant
            and self.pairing_holds
            and self.root_order is not None
            and self.root_order >= 2
        )

    @property
    def growth_type(self) -> bool:
        return self.q_constant and self.pairing_holds and self.root_order is None


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def theorem_hypotheses(cs: CoefficientSystem) -> TheoremHypotheses:
    """Detect the dimension-theorem hypotheses (involutive base required);
    computed once per system, since the oracles ask for them per degree."""
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
    root_order = diag.q.multiplicative_order() if diag.q_constant else None
    if root_order == 1:
        root_order = None  # q = 1 is outside both regimes
    return TheoremHypotheses(
        q_constant=diag.q_constant,
        q=diag.q,
        root_order=root_order,
        pairing_holds=pairing,
    )


def _times_boxes(a, n: int, m: int) -> list:
    """The coefficients of a(t) (1 + t + ... + t^(n-1))^m.  The box is
    (1 - t^n) / (1 - t), so each factor costs one shifted difference and
    one running sum over the coefficients, not a product with n terms."""
    for _ in range(m):
        padded = list(a) + [0] * (n - 1)
        a = list(accumulate(x - (padded[i - n] if i >= n else 0) for i, x in enumerate(padded)))
    return a


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def _expansion(m: int, n: int) -> tuple:
    """The coefficients of (1 + t + ... + t^(n-1))^m."""
    return tuple(_times_boxes([1], n, m))


def _coefficient(coeffs, k: int) -> int:
    return coeffs[k] if 0 <= k < len(coeffs) else 0


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def expected_profile(cs: CoefficientSystem) -> tuple | None:
    """The graded dimensions the multinomial expansion predicts: the
    coefficients of prod_p (1 + t + ... + t^(n_p - 1))^|p| over the parts p
    of ``full_decomposition``, when the pairing holds and q_a = R[D(a)][a]
    is constant on every part with finite order n_p >= 2 (a theorem; see
    the module docstring).  None otherwise.  Needs an involutive base, and
    is computed once per system, as the escalation check reads it."""
    if not theorem_hypotheses(cs).pairing_holds:
        return None
    q = diagonal_coefficient_check(cs).values
    profile = [1]
    for part in full_decomposition(cs.solution):
        values = {q[a] for a in part}
        n = values.pop().multiplicative_order() if len(values) == 1 else None
        if n is None or n < 2:
            return None
        profile = _times_boxes(profile, n, len(part))
    return tuple(profile)


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
    length; coefficients may be ints, Fractions or CycloElements.  The sum
    lies in the defining ideal exactly when the image vanishes.  The image is
    a dense list over all m^k words, at the lcm of the system's order and the
    coefficients' orders; it is zero off the orbits the element touches.
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
    """True iff the formal sum lies in the kernel of the symmetrizer."""
    found = _relation_rows(cs, element)
    if found is None:
        return True
    *_, blocks = found
    return not any((row != 0).any() for _, row in blocks)


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
        summed[idx] = summed.get(idx, 0) + _cyclo(c).to_order(ctx.order)
    nums, den = ctx.to_int_array(summed.values())
    return np.array(list(summed), dtype=np.int64), nums, den


# ---------------------------------------------------------------------------
# fast symmetrizer chain


def _split(out, batch) -> list:
    """A batch's walk output, one segment of the orbit's size per seed row,
    cut into one (seed rows, size[, phi]) array per group."""
    parts, end = [], 0
    for _, size, blocks in batch:
        count = sum(len(rows) for _, rows in blocks)
        parts.append(out[end : end + count * size].reshape(count, size, *out.shape[1:]))
        end += count * size
    return parts


def _summed(acc) -> np.ndarray:
    """The sum of a walk's output rows, in object arithmetic where the int64
    sum could overflow."""
    if len(acc) == 1:
        return acc[0]
    if acc.dtype != object and _max_abs(acc) * len(acc) >= _INT64_GUARD:
        acc = _as_object(acc)
    return acc.sum(axis=0)


class OrbitRows(list):
    """Basis rows of one degree, each local to one braid-group orbit.

    Row t is a vector on the words of orbit ``orbits[t]`` in node-major
    order (``orbits._Orbits``): the orbit's nodes (P, y) in ascending id,
    and within a node the words u y in the order the orbit P lists u.  A
    word's index there is its ``pos``.
    """

    def __init__(self, rows=(), orbits=()) -> None:
        super().__init__(rows)
        self.orbits = list(orbits)

    def add_span(self, orbit: int, seeds, space) -> None:
        """Append the basis the seed rows (seeds, orbit size[, phi]) span on
        the orbit: ``space(width)`` is an empty row space of that width.

        The seeds are inserted on their support only, the positions where
        some seed is nonzero, in ascending order, and each kept row is
        expanded back to the orbit's size.  A position that is zero in every
        seed stays zero under every row operation, and the support keeps the
        positions' order, so the rows, pivots, dtypes and int64 bounds are
        those of inserting the full seed rows."""
        support = np.flatnonzero((seeds != 0).reshape(len(seeds), seeds.shape[1], -1).any(axis=(0, 2)))
        basis = space(support.size)
        for seed in seeds[:, support]:
            basis.insert(seed)
        for row in basis.rows:
            full = np.zeros(seeds.shape[1:], dtype=row.dtype)
            full[support] = row
            self.append(full)
        self.orbits += [orbit] * basis.rank

    def add_lone(self, orbits, rows) -> None:
        """Append each orbit's row, skipping the orbits whose row is None."""
        for orbit, row in zip(orbits, rows):
            if row is not None:
                self.append(row)
                self.orbits.append(orbit)


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
        """Orbit-local rows as full-length vectors on all m^k words."""
        orbits = self.orbits(k)
        out = []
        for row, orbit in zip(rows, rows.orbits):
            full = np.zeros((self.m ** k,) + row.shape[1:], dtype=row.dtype)
            full[orbits.words(orbit)] = row
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

    def _seed_blocks(self, prev_rows: OrbitRows, k: int):
        """Group the seeds (row (x) w_j) of degree k by the orbit they lie in.

        Yields (orbit, size, blocks), orbit by orbit in ascending id; each
        block is (node, stacked rows).  A row on the degree-(k-1) orbit P
        seeds the node (P, j), with id P m + j, in orbit ``links[P m + j]``,
        as a vector over the node's words in orbit order.  Every node of a
        seeded P gets P's rows, in ascending node id within each orbit; when
        ``rank_one`` holds, only the smallest node of each orbit does, and
        an orbit whose smallest node's P has no row gets none.
        """
        m = self.m
        here = self.orbits(k)
        rows_of: dict[int, list] = {}
        for row, orbit in zip(prev_rows, prev_rows.orbits):
            rows_of.setdefault(orbit, []).append(row)
        stacked = {orbit: np.stack(rows) for orbit, rows in rows_of.items()}
        if self.rank_one:
            if len(prev_rows) > len(stacked):
                raise AssertionError(f"an orbit of degree {k - 1} kept more than one row")
            has_row = np.zeros(self.orbits(k - 1).count, dtype=bool)
            has_row[list(stacked)] = True
            nodes = here.heads[has_row[here.heads // m]]
        else:
            nodes = (np.array(sorted(stacked), dtype=np.int64)[:, None] * m + np.arange(m)).ravel()
            nodes = nodes[np.argsort(here.links[nodes], kind="stable")]
        sizes = here.sizes.tolist()
        for orbit, group in groupby(zip(here.links[nodes].tolist(), nodes.tolist()), itemgetter(0)):
            yield orbit, sizes[orbit], [(node, stacked[node // m]) for _, node in group]

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
        words, as ``_images`` and ``_terms_exact`` yield) with the positions
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

    def _terms_exact(self, k: int, src, object_mode: bool):
        """Yield (image words, scalars, denominator, peak) of each term of the
        staircase T_k on the degree-k source words.  ``peak`` is the largest
        absolute scalar while the scalars are int64, else None.  The scalars
        turn object before a product could leave int64."""
        ctx = self.ctx
        terms = self._images(k, src)
        cur, _ = next(terms)
        scal = np.zeros((src.size, ctx.phi), dtype=object if object_mode else np.int64)
        scal[:, 0] = 1
        den = 1
        peak = None if object_mode else _max_abs(scal)
        yield cur, scal, den, peak
        for cur, sidx in terms:
            if peak is not None and peak * self.r_int_max * ctx.mul_bound >= _INT64_GUARD:
                scal = _as_object(scal)
            scal = mul_rows_elementwise(scal, self.r_int[sidx].astype(scal.dtype, copy=False), ctx)
            den *= self.r_den
            peak = None if scal.dtype == object else _max_abs(scal)
            yield cur, scal, den, peak

    def _batches(self, groups):
        """Split one degree's orbit groups (orbit, size, blocks) into runs of
        consecutive groups whose accumulators (seed rows x orbit size)
        together stay within the larger of the largest single group's and
        ``_BATCH_BUDGET`` entries, so a degree of many small orbits costs a
        few walks, not one per orbit.  ``_staircase`` bisects a batch whose
        walk would leave int64."""
        groups = list(groups)
        weights = [size * sum(len(rows) for _, rows in blocks) for _, size, blocks in groups]
        limit = max(max(weights, default=0), _BATCH_BUDGET)
        batch, total = [], 0
        for group, weight in zip(groups, weights):
            if batch and total + weight > limit:
                yield batch
                batch, total = [], 0
            batch.append(group)
            total += weight
        if batch:
            yield batch

    def _staircase(self, k: int, batch):
        """T_k applied to the seed rows of a batch of degree-k orbit groups,
        scaled by r_den^(k-1) to integers.

        ``batch`` holds (orbit, size, blocks) as ``_seed_blocks`` yields
        them.  Returns one (seed rows, size, phi) array per group, indexed by
        position in the orbit.  The groups are walked together; an orbit's
        arithmetic turns object exactly where its own int64 bound would be
        crossed, so a batch that would cross the bound is bisected, and an
        orbit turns object only when it is walked alone.
        """
        if len(batch) == 1:
            return self._staircase_walk(k, batch, promote=True)
        accs = self._staircase_walk(k, batch, promote=False)
        if accs is not None:
            return accs
        half = len(batch) // 2
        return self._staircase(k, batch[:half]) + self._staircase(k, batch[half:])

    def _entries(self, k: int, batch):
        """Flatten a batch's seed rows into entries, one per nonzero seed
        coefficient.  Returns (the source words that carry an entry, entry ->
        index into those words (a full slice when that is the identity),
        entry -> offset in the output, entry values, output length); the
        output holds one segment of the orbit's size per seed, group after
        group.

        A block's columns are its node's words, in orbit order.  Only the
        columns that carry an entry gather their words (on w1 at degree 9,
        18,144 of the 396,288 columns of the seed blocks)."""
        below, m = self.orbits(k - 1), self.m
        nodes, vals, spans = [], [], []
        n_out = 0
        for _, size, blocks in batch:
            for node, rows in blocks:
                nodes.append(node)
                spans.append((n_out, size))  # first output offset, stride
                # (phi,) per entry for exact rows, (1,) for mod-p rows
                vals.append(rows.reshape(rows.shape[0] * rows.shape[1], -1))
                n_out += len(rows) * size
        nodes = np.array(nodes, dtype=np.int64)
        # entry e of a block is its row e // width on column e % width;
        # only the nonzero entries get indices, and src numbers an entry's
        # column over all blocks
        width = below.sizes[nodes // m]
        lengths = np.array([len(v) for v in vals])
        ends = np.cumsum(lengths)
        vals = np.concatenate(vals)
        nonzero = np.flatnonzero((vals != 0).any(axis=1))
        block = np.searchsorted(ends, nonzero, side="right")
        row, col = np.divmod(nonzero - (ends - lengths)[block], width[block])
        first_out, stride = np.array(spans, dtype=np.int64)[block].T
        col_ends = np.cumsum(width)
        src, base = (col_ends - width)[block] + col, first_out + row * stride
        # keep the columns that carry an entry, and number them anew
        used = np.zeros(int(col_ends[-1]), dtype=bool)
        used[src] = True
        kept = np.flatnonzero(used)
        if kept.size < used.size:  # else the numbering is the identity
            number = np.empty(used.size, dtype=np.int64)  # a scatter: numpy's cumsum of a mask is slow
            number[kept] = np.arange(kept.size)
            src = number[src]
        words = self.orbits(k).column_words(nodes, kept)
        if src.size == words.size and (src[1:] > src[:-1]).all():
            src = slice(None)  # one entry per word, in order (one seed per orbit): no gathers
        return words, src, base, vals[nonzero], n_out

    def _staircase_walk(self, k: int, batch, promote: bool):
        """The staircase terms walked once over a batch's seed entries, on the
        source words that carry one.

        A term is injective on the words and every seed owns its own output
        segment, so the output indices within one term are distinct and a
        plain scatter-add is exact.  The int64 bound takes each term's peak
        over the walked words only, which bounds every accumulated entry
        since a word without an entry adds nothing.  Returns None instead of
        turning int64 orbits object unless ``promote``; a batch whose seeds
        are all object already is walked in object arithmetic.
        """
        ctx = self.ctx
        dtypes = {rows.dtype == object for *_, blocks in batch for _, rows in blocks}
        object_mode = True in dtypes
        if len(dtypes) > 1 and not promote:
            return None
        words, src, base, vals, n_out = self._entries(k, batch)
        seed_max = 0 if object_mode else _max_abs(vals)
        out = np.zeros((n_out, ctx.phi), dtype=object if object_mode else np.int64)
        total_den = self.r_den ** (k - 1)
        bound = 0  # bounds every accumulated entry while in int64
        terms = self._terms_exact(k, words, object_mode)
        for (_, scal, den, peak), at in self._located(k, terms):
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
            out[base + at[src]] += mul_rows_elementwise(vals, scal[src], ctx)
        return _split(out, batch)

    def _mod_walk(self, p: int, k: int, batch):
        """``_staircase_walk`` over F_p: one running product per word,
        reduced mod p at every term, times each entry's value mod p.  Each
        term reduces the sums it adds to, on the entries it touches only, so
        the output lies in [0, p) without a pass over the whole of it."""
        rmod = self.r_mod(p)
        words, src, base, vals, n_out = self._entries(k, batch)
        acc = np.zeros(n_out, dtype=np.int64)
        vals = vals[:, 0]
        scal = np.ones(words.size, dtype=np.int64)
        for (_, sidx), at in self._located(k, self._images(k, words)):
            if sidx is None:
                term = vals
            else:  # x -= x // p * p reduces in half the time of numpy's %
                scal = scal * rmod[sidx]
                scal -= scal // p * p
                term = vals * scal[src]
                term -= term // p * p
            idx = base + at[src]  # distinct within a term
            term = acc[idx] + term  # below 2p
            np.subtract(term, p, out=term, where=term >= p)
            acc[idx] = term
        return _split(acc, batch)

    def _step(self, prev_rows: OrbitRows, k: int, walk, p: int | None = None):
        """One degree of the recursion: the span of the staircase images of
        (previous basis) (x) (generators), each batch's by ``walk(k, batch)``,
        exactly or over F_p.  Returns (basis rows, dim)."""
        out = OrbitRows()
        space = partial(ExactIntRows, self.ctx) if p is None else partial(ModRows, p)
        for batch in self._batches(self._seed_blocks(prev_rows, k)):
            accs = walk(k, batch)
            if self.rank_one:  # one seed per orbit: its image's primitive part, or mod p led by 1
                out.add_lone([orbit for orbit, *_ in batch], lone_rows([acc[0] for acc in accs], p))
                continue
            for (orbit, *_), acc in zip(batch, accs):
                out.add_span(orbit, acc, space)
        return out, len(out)

    def exact_step(self, prev_rows: OrbitRows, k: int):
        """One exact degree step (``_step``).  Returns (basis rows, dim)."""
        return self._step(prev_rows, k, self._staircase)

    def symmetrize(self, k: int, words, coeffs):
        """The full degree-k symmetrizer of sum_t coeffs[t] * words[t] on the
        orbits those words touch, by S_j = T_j (S_{j-1} (x) id) for
        j = 2, ..., k.

        ``words`` are distinct degree-k word indices and ``coeffs`` their
        (n, phi) integer power-basis vectors (int64 or object).  Before
        degree j the element is a sum of pieces v (x) t: a tail t of its last
        k-j+1 letters and a row v on one degree-(j-1) orbit P.  With t = y t',
        the piece seeds the node (P, y) of degree j, tagged with t'; the
        seeds of one tail and one degree-j orbit walk T_j together and sum to
        that orbit's row.  The orbits of degree 0 and 1 are single words.
        Returns (den, blocks): each block is (degree-k orbit, integer row)
        and the image is row / den, with den = r_den^(k(k-1)/2).
        """
        m, first = self.m, min(k, 1)
        heads, tails = np.divmod(words, m ** (k - first))
        orbits = self.orbits(first).label[heads]
        pieces = list(zip(tails.tolist(), orbits.tolist(), coeffs[:, None]))
        for j in range(2, k + 1):
            here, span = self.orbits(j), m ** (k - j)
            groups: dict[tuple, list] = {}
            for tail, orbit, row in pieces:
                letter, rest = divmod(tail, span)
                node = orbit * m + letter
                groups.setdefault((rest, int(here.links[node])), []).append((node, row[None]))
            keys = sorted(groups)
            batch = [(orbit, int(here.sizes[orbit]), groups[rest, orbit]) for rest, orbit in keys]
            accs = [acc for part in self._batches(batch) for acc in self._staircase(j, part)]
            pieces = [(rest, orbit, _summed(acc)) for (rest, orbit), acc in zip(keys, accs)]
        den = self.r_den ** (k * (k - 1) // 2)
        return den, [(orbit, row) for _, orbit, row in pieces]

    def specialize_rows(self, rows: OrbitRows, p: int) -> OrbitRows:
        """Mod-p images of exact basis rows (rows are primitive integers)."""
        omega = unity_root_mod(self.ctx.order, p)
        out = []
        for arr in rows:
            total = np.zeros(arr.shape[0], dtype=np.int64)
            w = 1
            for a in range(self.ctx.phi):
                col = (arr[:, a] % p).astype(np.int64)
                total = (total + col * w) % p
                w = w * omega % p
            out.append(total)
        return OrbitRows(out, rows.orbits)

    def mod_step(self, prev_vecs: OrbitRows, k: int, p: int):
        """One degree step over F_p (``_step``).  Returns (basis rows, dim)."""
        return self._step(prev_vecs, k, partial(self._mod_walk, p), p)


# ---------------------------------------------------------------------------
# graded dimensions


@dataclass(frozen=True)
class DegreeRecord:
    degree: int
    dim: int
    mode: str  # "trivial" | "exact" | "modular" | "modular+exact"
    primes: tuple = ()
    agreed: bool | None = None
    escalated: bool = False
    modular_dims: tuple = ()

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
    dims: tuple
    total: int | None
    provenance: tuple
    terminated: str  # "zero" | "cap"

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
    same nonzero rank and that rank equals ``expected_profile`` wherever it
    exists; otherwise it escalates back to exact arithmetic for good.
    "exact" runs every degree exactly.  Given ``primes`` are checked up
    front (BadPrime unless they are at least two distinct primes, each below
    2^31 and 1 mod the order).
    """
    if mode not in ("auto", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if primes is not None:
        primes = tuple(primes)
        if len(primes) < 2 or len(set(primes)) < len(primes):
            raise BadPrime(f"need at least two distinct primes, got {list(primes)}")
        for p in primes:
            check_modulus(p, cs.order)
    m = cs.size
    engine = _Engine(cs)
    dims = [1, m]
    records = [DegreeRecord(0, 1, "trivial"), DegreeRecord(1, m, "trivial")]
    exact_rows = engine.identity_rows()  # exact basis of degree exact_degree
    exact_degree = 1
    mod_rows: dict[int, list] | None = None
    profile = None  # expected_profile, read when the first modular degree runs
    escalated_permanently = False
    terminated = "cap"

    k = 1
    while k < cap:
        k += 1
        L = m ** k
        if L > _DIMENSION_LIMIT:
            terminated = "cap"
            break
        use_exact = mode == "exact" or escalated_permanently or L <= exact_cap
        if use_exact:
            exact_rows, dim = engine.exact_step(exact_rows, k)
            exact_degree = k
            dims.append(dim)
            records.append(DegreeRecord(k, dim, "exact"))
            if dim == 0:
                terminated = "zero"
                break
            continue
        if primes is None:
            primes = tuple(primes_for_order(cs.order, count=2))
        if mod_rows is None:
            mod_rows = {p: engine.specialize_rows(exact_rows, p) for p in primes}
            if engine.hypotheses is not None:
                profile = expected_profile(cs)
        step_results = {p: engine.mod_step(mod_rows[p], k, p) for p in primes}
        mod_dims = tuple(step_results[p][1] for p in primes)
        agreed = len(set(mod_dims)) == 1
        dim = mod_dims[0]
        if agreed and dim != 0 and (profile is None or _coefficient(profile, k) == dim):
            dims.append(dim)
            records.append(
                DegreeRecord(
                    k, dim, "modular", primes=primes, agreed=agreed, modular_dims=mod_dims
                )
            )
            for p in primes:
                mod_rows[p] = step_results[p][0]
            continue
        # escalate: continue the exact chain from the last exact degree (modular
        # steps never replace exact_rows) through k, and rewrite the records
        # of the degrees that ran modular
        first = exact_degree + 1
        recomputed = {}
        for degree in range(first, k + 1):
            exact_rows, recomputed[degree] = engine.exact_step(exact_rows, degree)
        exact_degree = k
        escalated_permanently = True
        for degree in range(first, k):
            old = records[degree]
            records[degree] = DegreeRecord(
                degree,
                recomputed[degree],
                "modular+exact",
                primes=old.primes,
                agreed=old.agreed,
                escalated=recomputed[degree] != dims[degree],
                modular_dims=old.modular_dims,
            )
            dims[degree] = recomputed[degree]
        dim = recomputed[k]
        dims.append(dim)
        records.append(
            DegreeRecord(
                k,
                dim,
                "modular+exact",
                primes=primes,
                agreed=agreed,
                escalated=True,
                modular_dims=mod_dims,
            )
        )
        if dim == 0:
            terminated = "zero"
            break
    total = sum(dims) if terminated == "zero" else None
    return GradedDims(
        dims=tuple(dims),
        total=total,
        provenance=tuple(records),
        terminated=terminated,
    )


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


def predicted_dimension(m: int, n: int, k: int) -> int:
    """The coefficient of t^k in (1 + t + ... + t^(n-1))^m: the degree-k
    dimension under the finite-type hypotheses (constant q of order n on m
    letters), read from the expansion cached per (m, n)."""
    return _coefficient(_expansion(m, n), k)


def orbit_count_oracle(cs: CoefficientSystem, k: int) -> int:
    hyp = theorem_hypotheses(cs)
    if not hyp.finite_type:
        raise HypothesesNotMet("oracle needs constant q in G_n and unit pairing")
    return predicted_dimension(cs.size, hyp.root_order, k)


def theorem_relations(cs: CoefficientSystem) -> list:
    """The defining relations predicted for a finite-type system: quadratic
    straightening relations off the fixed pairs, plus one diagonal-power
    word per generator."""
    s = cs.solution
    D = diagonal(s)
    m = s.size
    hyp = theorem_hypotheses(cs)
    if hyp.root_order is None:
        raise HypothesesNotMet("relation schema needs q a root of unity")
    n = hyp.root_order
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
    mode: str  # "finite" | "growth" | "product"
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
    """Run the dimension checks the detected hypotheses call for.

    Constant q of infinite order: degree dimensions must follow the binomial
    profile C(k+m-1, m-1) through degree 8 (the computable growth evidence),
    in exact arithmetic.  Otherwise ``expected_profile`` must exist (q
    constant on each part of the full decomposition, of finite order >= 2),
    and the dimensions through degree 16 must be its coefficients ("profile")
    with its total ("total"); for constant q ("finite", total n^m) every
    schema relation must also vanish under the symmetrizer
    ("relations_vanish"), and a q that varies between parts is "product".
    """
    hyp = theorem_hypotheses(cs)
    if not hyp.pairing_holds:
        raise HypothesesNotMet("pairing R[i][j] R[r(i,j)] = 1 fails off fixed pairs")
    if hyp.growth_type:
        m = cs.size
        graded = graded_dims(cs, cap=8, mode="exact")
        expected = [math.comb(k + m - 1, m - 1) for k in range(len(graded.dims))]
        checks = {"binomial_growth": list(graded.dims) == expected}
        return TheoremReport(
            mode="growth", passed=all(checks.values()), checks=checks, graded=graded
        )
    profile = expected_profile(cs)
    if profile is None:
        raise HypothesesNotMet("q is not constant of finite order >= 2 on every part")
    graded = graded_dims(cs, cap=16, mode=dims_mode, exact_cap=exact_cap)
    # graded_dims stops at the first zero degree
    checks = {"total": graded.total == sum(profile), "profile": graded.dims == profile + (0,)}
    if hyp.q_constant:
        checks["relations_vanish"] = all(
            check_relation(cs, terms) for _, terms in theorem_relations(cs)
        )
    return TheoremReport(
        mode="finite" if hyp.q_constant else "product",
        passed=all(checks.values()),
        checks=checks,
        graded=graded,
        expected_total=sum(profile),
    )
