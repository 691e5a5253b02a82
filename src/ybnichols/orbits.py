"""The symmetric-group action on X^n induced by an involutive solution.

Adjacent transpositions act by s_k . (... p q ...) = (... r(p, q) ...).
Orbits are classified by integer partitions: every word is connected by
exchange-rule moves to a canonical concatenation of Psi-blocks
Psi_k(a) = D^{k-1}(a) ... D(a) a whose block lengths form the partition.
The classifier below performs that rewriting explicitly and records the
generator moves it used, so orbit membership of its output is replayable.

One labeller, ``BraidOrbits``, finds the orbits of the braid group B_k on X^k
(the S_k-orbits, for an involutive solution) for the census and the Nichols
engine alike.  It builds them degree by degree from an orbit graph with one
edge per (degree-(k-2) orbit, letter pair), with no pass over the words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ybe import NotInvolutive, SetSolution, TooLarge, diagonal, verify_solution

Word = tuple


class PositionOutOfRange(ValueError):
    """Generator index outside 1 .. n-1."""


class MalformedBlocks(ValueError):
    """A designated span is not a Psi-word."""


# ---------------------------------------------------------------------------
# partitions


class Partition:
    """Weakly decreasing positive parts; at most m parts when bound by m."""

    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def orbit_size(self) -> int:
        """n! / (lambda_1! ... lambda_k!)"""
        out = math.factorial(self.n)
        for p in self.parts:
            out //= math.factorial(p)
        return out

    def perm_count(self, m: int) -> int:
        """Number of distinct rearrangements padded with zeros to m parts."""
        if len(self.parts) > m:
            raise ValueError(f"partition has more than {m} parts")
        out = math.factorial(m)
        mults: dict[int, int] = {0: m - len(self.parts)}
        for p in self.parts:
            mults[p] = mults.get(p, 0) + 1
        for k in mults.values():
            out //= math.factorial(k)
        return out

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions(n: int, max_parts: int, max_part: int | None = None):
    """All partitions of n into at most max_parts parts, each <= max_part."""
    if max_part is None:
        max_part = n

    def rec(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            if first * slots < remaining:
                break
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    for parts in rec(n, max_part, max_parts):
        yield Partition(parts)


# ---------------------------------------------------------------------------
# the action


def _check_involutive(s: SetSolution) -> None:
    report = _cached_report(s)
    if not report.is_nondegenerate:
        from .ybe import NotNondegenerate

        raise NotNondegenerate("the word action needs a non-degenerate solution")
    if not report.is_involutive:
        raise NotInvolutive("the word action needs an involutive solution")


@lru_cache(maxsize=None)
def _cached_report(s: SetSolution):
    return verify_solution(s)


def act(k: int, w: Word, s: SetSolution) -> Word:
    """Apply the k-th adjacent generator (1-based, 1 <= k <= len(w) - 1)."""
    if not 1 <= k <= len(w) - 1:
        raise PositionOutOfRange(f"position {k} not in 1..{len(w) - 1}")
    p, q = w[k - 1], w[k]
    a, b = s.r(p, q)
    return w[: k - 1] + (a, b) + w[k + 1 :]


def act_sequence(moves, w: Word, s: SetSolution) -> Word:
    for k in moves:
        w = act(k, w, s)
    return w


def orbit_words(w: Word, s: SetSolution) -> frozenset:
    """Breadth-first closure of w under all adjacent generators."""
    _check_involutive(s)
    n = len(w)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for word in frontier:
            for k in range(1, n):
                image = act(k, word, s)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class OrbitReport:
    representative: Word  # lexicographically least member
    size: int
    partition: Partition
    witness: Word  # a lambda-element in the orbit
    words: frozenset


def orbit(w: Word, s: SetSolution) -> OrbitReport:
    words = orbit_words(w, s)
    result = classify(w, s)
    if len(words) != result.partition.orbit_size():
        raise AssertionError(
            f"orbit size {len(words)} disagrees with partition {result.partition}"
        )
    return OrbitReport(
        representative=min(words),
        size=len(words),
        partition=result.partition,
        witness=result.witness,
        words=words,
    )


# ---------------------------------------------------------------------------
# Psi-words and block factorizations


def psi(k: int, a: int, s: SetSolution) -> Word:
    """The word D^{k-1}(a) D^{k-2}(a) ... D(a) a."""
    if k < 1:
        raise ValueError("k must be positive")
    D = diagonal(s)
    out = [a]
    cur = a
    for _ in range(k - 1):
        cur = D(cur)
        out.append(cur)
    return tuple(reversed(out))


def psi_neg(k: int, b: int, s: SetSolution) -> Word:
    """The same block described from its head: b D^{-1}(b) ... D^{-(k-1)}(b)."""
    D = diagonal(s)
    out = [b]
    cur = b
    for _ in range(k - 1):
        cur = D.inverse(cur)
        out.append(cur)
    return tuple(out)


def sigma_of_word(word: Word, y: int, s: SetSolution) -> int:
    """sigma_{a_1} sigma_{a_2} ... sigma_{a_k} (y) for word = a_1 a_2 ... a_k."""
    for letter in reversed(word):
        y = s.sigma(letter, y)
    return y


def tau_of_word(word: Word, x: int, s: SetSolution) -> int:
    """tau_{a_k} ... tau_{a_2} tau_{a_1} (x) for word = a_1 a_2 ... a_k."""
    for letter in word:
        x = s.tau(letter, x)
    return x


def maximal_blocks(w: Word, s: SetSolution) -> list[tuple[int, int]]:
    """Greedy factorization into maximal Psi-blocks, as (length, letter) pairs.

    The letter is the block's last symbol.  Maximality makes the junction
    condition a_{j-1} != D^{mu_j}(a_j) automatic, and this factorization is
    the unique one with that property; a round-trip assertion guards it.
    """
    if not w:
        return []
    D = diagonal(s)
    blocks = []
    start = 0
    for t in range(1, len(w) + 1):
        if t == len(w) or w[t] != D.inverse(w[t - 1]):
            blocks.append((t - start, w[t - 1]))
            start = t
    rebuilt = []
    for length, letter in blocks:
        rebuilt.extend(psi(length, letter, s))
    if tuple(rebuilt) != tuple(w):
        raise AssertionError("maximal block factorization failed to round-trip")
    return blocks


def _condition_violation(blocks, w: Word, s: SetSolution):
    """First (i, j), 0-based i < j, violating the non-merging condition.

    Block j merges toward block i when
    a_j == D^{-lambda_j}( tau_{blocks i+1 .. j-1}(a_i) ).
    Returns None when every pair satisfies the condition.
    """
    D = diagonal(s)
    k = len(blocks)
    offsets = [0]
    for length, _ in blocks:
        offsets.append(offsets[-1] + length)
    for i in range(k - 1):
        for j in range(i + 1, k):
            middle = w[offsets[i + 1] : offsets[j]]
            value = tau_of_word(middle, blocks[i][1], s)
            value = D.power(value, -blocks[j][0])
            if blocks[j][1] == value:
                return (i, j)
    return None


def is_lambda_element(w: Word, s: SetSolution) -> Partition | None:
    """The partition lambda when w is a lambda-element, else None."""
    _check_involutive(s)
    blocks = maximal_blocks(w, s)
    lengths = [length for length, _ in blocks]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return None
    if len(blocks) > s.size:
        return None
    if _condition_violation(blocks, w, s) is not None:
        return None
    return Partition(lengths)


# ---------------------------------------------------------------------------
# exchange rule


def exchange_moves(start: int, k: int, t: int) -> list[int]:
    """Generator moves that carry a length-t block leftward past a length-k
    block, for blocks at 0-based positions [start, start+k) and
    [start+k, start+k+t).  k*t adjacent moves."""
    moves = list(range(start + k, start, -1))
    for extra in range(2, t + 1):
        moves.extend(range(start + k + extra - 1, start + extra - 1, -1))
    return moves


def _validate_block(w: Word, start: int, length: int, s: SetSolution) -> int:
    """Check w[start:start+length] is a Psi-word; return its letter."""
    D = diagonal(s)
    for i in range(start + 1, start + length):
        if w[i] != D.inverse(w[i - 1]):
            raise MalformedBlocks(f"span [{start}, {start + length}) is not a Psi-word")
    return w[start + length - 1]


def exchange(w: Word, block_a, block_b, s: SetSolution) -> Word:
    """Exchange two adjacent Psi-blocks; the output stays in the orbit of w.

    ``block_a`` and ``block_b`` are (start, length) pairs with block_b
    immediately after block_a.  The move is realized as a sequence of
    generator applications (so orbit membership holds by construction) and
    is cross-checked against the closed-form exchanged word.
    """
    _check_involutive(s)
    word, _ = _exchange_with_moves(w, block_a, block_b, s)
    return word


def _exchange_with_moves(w: Word, block_a, block_b, s: SetSolution):
    start, k = block_a
    start_b, t = block_b
    if start_b != start + k:
        raise MalformedBlocks("blocks are not adjacent")
    if start < 0 or start_b + t > len(w) or k < 1 or t < 1:
        raise MalformedBlocks("block spans out of range")
    x = _validate_block(w, start, k, s)
    y = _validate_block(w, start_b, t, s)
    D = diagonal(s)
    a_word = w[start : start + k]
    b_word = w[start_b : start_b + t]
    head = sigma_of_word(a_word, D.power(y, t - 1), s)
    new_left = psi_neg(t, head, s)
    new_right = psi(k, tau_of_word(b_word, x, s), s)
    expected = w[:start] + new_left + new_right + w[start_b + t :]
    moves = exchange_moves(start, k, t)
    replayed = act_sequence(moves, w, s)
    if replayed != expected:
        raise AssertionError("exchange-rule formula disagrees with generator replay")
    return expected, moves


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassifyResult:
    partition: Partition
    witness: Word  # a lambda-element in the orbit of the input
    moves: tuple  # generator positions carrying the input to the witness


def classify(w: Word, s: SetSolution) -> ClassifyResult:
    """Rewrite w into a lambda-element, recording every generator move.

    Alternates two phases: bubble-sort the maximal blocks into weakly
    decreasing length with adjacent exchanges, then hunt for a violation of
    the non-merging condition and merge that block pair (each merge strictly
    decreases the block count, so the loop terminates).
    """
    _check_involutive(s)
    if not w:
        raise ValueError("empty word")
    moves: list[int] = []
    current = tuple(w)
    while True:
        # phase 1: sort block lengths, refactoring after every swap
        while True:
            blocks = maximal_blocks(current, s)
            swap_at = next(
                (
                    i
                    for i in range(len(blocks) - 1)
                    if blocks[i][0] < blocks[i + 1][0]
                ),
                None,
            )
            if swap_at is None:
                break
            offset = sum(length for length, _ in blocks[:swap_at])
            current, mv = _exchange_with_moves(
                current,
                (offset, blocks[swap_at][0]),
                (offset + blocks[swap_at][0], blocks[swap_at + 1][0]),
                s,
            )
            moves.extend(mv)
        # phase 2: merge the lexicographically first violating pair
        violation = _condition_violation(blocks, current, s)
        if violation is None:
            part = Partition([length for length, _ in blocks])
            checked = is_lambda_element(current, s)
            if checked != part:
                raise AssertionError("classifier output failed the lambda-element check")
            return ClassifyResult(part, current, tuple(moves))
        i, j = violation
        lengths = [length for length, _ in blocks]
        # walk block j leftward until adjacent to block i, no refactoring
        pos = j
        while pos > i + 1:
            offset = sum(lengths[: pos - 1])
            current, mv = _exchange_with_moves(
                current,
                (offset, lengths[pos - 1]),
                (offset + lengths[pos - 1], lengths[pos]),
                s,
            )
            moves.extend(mv)
            lengths[pos - 1], lengths[pos] = lengths[pos], lengths[pos - 1]
            pos -= 1
        merged = maximal_blocks(current, s)
        if len(merged) >= len(blocks):
            raise AssertionError("expected merge did not reduce the block count")


def lambda_classify(w: Word, s: SetSolution) -> tuple[Partition, Word]:
    """(partition, witnessing lambda-element) for the orbit of w."""
    result = classify(w, s)
    return result.partition, result.witness


# ---------------------------------------------------------------------------
# orbit labels on word indices


def word_index(word, m: int) -> int:
    """The index of a word among the m^k words of its degree."""
    code = 0
    for letter in word:
        code = code * m + letter
    return code


@dataclass(frozen=True)
class _Orbits:
    """The orbits of the braid group B_k on the degree-k words."""

    label: np.ndarray  # word -> orbit id, ascending with the orbit's least word
    order: np.ndarray  # words grouped by orbit, ascending within each orbit
    starts: np.ndarray  # orbit o holds order[starts[o]:starts[o + 1]]
    pos: np.ndarray  # word -> its index within its orbit's part of order
    links: np.ndarray  # node (orbit below) * m + (last letter) -> orbit id

    @property
    def count(self) -> int:
        return len(self.starts) - 1

    def words(self, orbit: int) -> np.ndarray:
        return self.order[self.starts[orbit] : self.starts[orbit + 1]]


def _components(a, b, count: int) -> np.ndarray:
    """Component id of each of the ``count`` nodes in the graph with the
    edges a[t] -- b[t]; ids are 0, 1, ... in order of the smallest node.

    Each round hooks every root that has an edge to a smaller root onto the
    smallest such root, then compresses every path to its root.  Every tree
    keeps its smallest node as root, and the number of components that still
    have an outside edge at least halves per round.
    """
    parent = np.arange(count, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        ra, rb = ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    return np.unique(parent, return_inverse=True)[1]


class BraidOrbits:
    """The orbits of the braid group B_k on the words X^k (``word_index``
    integers) of a solution, where c_i applies r to the letters i, i + 1;
    each degree is built once and cached."""

    def __init__(self, s: SetSolution) -> None:
        m = self.m = s.size
        # r sends the letters p q (pair index p m + q) to sigma_p(q) tau_q(p),
        # moving the pair index by pair_shift[p m + q]
        self.pair_shift = np.array(
            [(s.sigma(p, q) - p) * m + s.tau(q, p) - q for p in range(m) for q in range(m)],
            dtype=np.int64,
        )
        self._orbits: dict[int, _Orbits] = {}

    def orbits(self, k: int) -> _Orbits:
        """The B_k-orbits on degree-k words, built from those of degree k-1.

        c_1 .. c_{k-2} act on the first k-1 letters, so a word's orbit under
        them is the node (orbit of its prefix, last letter); c_{k-1} then joins
        these nodes into the B_k-orbits.  On every word u x y with u in the
        degree-(k-2) orbit Q, c_{k-1} joins the same two nodes
        (links[Q m + x], y) and (links[Q m + sigma_x(y)], tau_y(x)), with
        ``links`` of degree k-1, so the edges come from (Q, x, y), not words.
        Node (Q, y) holds the words of Q followed by y, so, by induction on
        k, the smallest node of an orbit holds its least word and orbit ids
        ascend with the least word.
        """
        if k not in self._orbits:
            m = self.m
            if k <= 1:
                label = links = np.arange(m ** k, dtype=np.int64)
            else:
                below = self.orbits(k - 1)
                triples = self.orbits(k - 2).count * m * m
                Q, pair = np.divmod(np.arange(triples, dtype=np.int64), m * m)
                x, y = np.divmod(pair, m)
                sx, ty = np.divmod(pair + self.pair_shift[pair], m)  # sigma_x(y), tau_y(x)
                a = below.links[Q * m + x] * m + y
                b = below.links[Q * m + sx] * m + ty
                links = _components(a, b, below.count * m)
                label = links.reshape(below.count, m)[below.label].ravel()
            sizes = np.bincount(label)
            # a stable sort of keys of at most 16 bits is a radix sort in numpy
            order = np.argsort(label.astype(np.min_scalar_type(sizes.size - 1)), kind="stable")
            starts = np.concatenate(([0], np.cumsum(sizes)))
            pos = np.empty_like(order)
            pos[order] = np.arange(order.size)
            pos -= starts[label]
            self._orbits[k] = _Orbits(label, order, starts, pos, links)
        return self._orbits[k]


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class OrbitSummary:
    representative: Word
    size: int
    partition: Partition
    witness: Word | None


@dataclass(frozen=True)
class Census:
    n: int
    size: int  # |X|
    orbits: tuple  # OrbitSummary, ascending least word (the representative)

    def by_partition(self) -> dict:
        """partition -> (orbit count, orbit size); sizes must agree per class."""
        table: dict[Partition, list] = {}
        for summary in self.orbits:
            entry = table.setdefault(summary.partition, [0, summary.size])
            entry[0] += 1
            if entry[1] != summary.size:
                raise AssertionError(
                    f"orbits of type {summary.partition} have unequal sizes"
                )
        return {part: (count, size) for part, (count, size) in table.items()}

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "orbits": [
                {
                    "lambda": list(part.parts),
                    "count": count,
                    "size": size,
                }
                for part, (count, size) in sorted(
                    self.by_partition().items(), key=lambda kv: kv[0].parts, reverse=True
                )
            ],
        }


def orbit_census(
    n: int,
    s: SetSolution,
    cap: int = 10 ** 7,
    witnesses: bool = False,
) -> Census:
    """Partition all of X^n into orbits, in ascending order of their least
    words, and classify each orbit by its least word."""
    if n < 1:
        raise ValueError("degree must be positive")
    _check_involutive(s)
    m = s.size
    if m >= 2 and n >= cap.bit_length():  # then m^n >= 2^n > cap: skip the power
        raise TooLarge(f"{m}^{n} exceeds cap {cap}")
    total = m ** n
    if total > cap:
        raise TooLarge(f"{m}^{n} = {total} exceeds cap {cap}")
    here = BraidOrbits(s).orbits(n)
    least = here.order[here.starts[:-1]]  # ascending, as orbit ids follow the least word
    letters = least[:, None] // m ** np.arange(n - 1, -1, -1) % m
    summaries = []
    for rep, size in zip(map(tuple, letters.tolist()), np.diff(here.starts).tolist()):
        result = classify(rep, s)
        summaries.append(
            OrbitSummary(
                representative=rep,
                size=size,
                partition=result.partition,
                witness=result.witness if witnesses else None,
            )
        )
    return Census(n=n, size=m, orbits=tuple(summaries))


# ---------------------------------------------------------------------------
# stabilizers and shuffles


def multiset_permutations(items):
    """Distinct permutations of a multiset, lexicographically ascending."""
    items = sorted(items)
    n = len(items)
    while True:
        yield tuple(items)
        i = n - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = reversed(items[i + 1 :])


def shuffles(parts):
    """All (k_1, ..., k_r)-shuffles as 0-based one-line permutations.

    A shuffle is increasing on each consecutive block of domain positions;
    they biject with arrangements of a multiset of block labels.
    """
    labels = []
    for block, length in enumerate(parts):
        labels.extend([block] * length)
    offsets = [0]
    for length in parts:
        offsets.append(offsets[-1] + length)
    for word in multiset_permutations(labels):
        theta = [0] * len(word)
        counters = list(offsets[:-1])
        for position, label in enumerate(word):
            theta[counters[label]] = position
            counters[label] += 1
        yield tuple(theta)


def reduced_word(theta) -> list[int]:
    """A reduced word for theta: 1-based generator positions, leftmost applied
    first under the word action."""
    t = list(theta)
    moves = []
    changed = True
    while changed:
        changed = False
        for i in range(len(t) - 1):
            if t[i] > t[i + 1]:
                t[i], t[i + 1] = t[i + 1], t[i]
                moves.append(i + 1)
                changed = True
    return moves


def perm_act(theta, w: Word, s: SetSolution) -> Word:
    """theta . w under the induced action (decomposed into generators)."""
    return act_sequence(reduced_word(theta), w, s)


def stabilizer_check(x: Word, s: SetSolution) -> bool:
    """Confirm the Young subgroup fixes the lambda-element x and that a
    shuffle transversal hits pairwise distinct words (orbit-stabilizer count,
    no breadth-first search)."""
    part = is_lambda_element(x, s)
    if part is None:
        raise ValueError("stabilizer_check needs a verified lambda-element")
    offset = 0
    for length in part:
        for k in range(offset + 1, offset + length):
            if act(k, x, s) != x:
                return False
        offset += length
    expected = part.orbit_size()
    seen = set()
    for theta in shuffles(part.parts):
        seen.add(perm_act(theta, x, s))
    return len(seen) == expected
