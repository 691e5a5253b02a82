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
An orbit lists its words node-major: node (P, y) holds the words u y with u
in the degree-(k-1) orbit P, nodes come in ascending id P m + y, and within
a node the words follow P's order.  Each degree keeps its graph, orbit
starts, node offsets and least words; a word's orbit (``label``), its
position within it (``pos``) and the words in orbit order (``order``) are
built from those of the degree below when first read, so the census reads
each representative and size off the graph and never holds an array over
all m^n words.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .ybe import (
    SOLUTION_CACHE_SIZE,
    NotInvolutive,
    NotNondegenerate,
    NotYangBaxter,
    SetSolution,
    TooLarge,
    cached_report,
    diagonal,
    verify_solution,  # noqa: F401 -- kept in this namespace, where perfbench's tracer patches it
)

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


class _View(NamedTuple):
    """One read of an involutive, non-degenerate solution for the rewriting
    below: r as the nested table, D and D^-1 as tuples."""

    m: int
    r: tuple  # r[p][q] == (sigma_p(q), tau_q(p))
    forward: tuple  # D
    backward: tuple  # D^-1


def _check_involutive(s: SetSolution) -> None:
    report = cached_report(s)
    if not report.is_nondegenerate:
        raise NotNondegenerate("the word action needs a non-degenerate solution")
    if not report.is_involutive:
        raise NotInvolutive("the word action needs an involutive solution")
    if not report.is_ybe:
        raise NotYangBaxter("the word action needs a solution of the braid equation")


@lru_cache(maxsize=SOLUTION_CACHE_SIZE)
def _view(s: SetSolution) -> _View:
    """The solution's view; raises unless it is non-degenerate and involutive."""
    _check_involutive(s)
    D = diagonal(s)
    return _View(s.size, s.table, D.forward, D.backward)


def _letters(w, m: int) -> list:
    """The letters of w as a list, each checked to be an integer in 0 .. m-1."""
    letters = []
    for a in w:
        try:
            letter = operator.index(a)
        except TypeError:
            raise ValueError(f"letter {a!r} is not an integer in 0..{m - 1} (m = {m})") from None
        if not 0 <= letter < m:
            raise ValueError(f"letter {letter} is not in 0..{m - 1} (m = {m})")
        letters.append(letter)
    return letters


def act(k: int, w: Word, s: SetSolution) -> Word:
    """Apply the k-th adjacent generator (1-based, 1 <= k <= len(w) - 1)."""
    return act_sequence((k,), w, s)


def act_sequence(moves, w: Word, s: SetSolution) -> Word:
    """Apply the generators in ``moves`` in order; the letters are checked once."""
    word = _letters(w, s.size)
    for k in moves:
        if not 1 <= k <= len(word) - 1:
            raise PositionOutOfRange(f"position {k} not in 1..{len(word) - 1}")
        word[k - 1], word[k] = s.table[word[k - 1]][word[k]]
    return tuple(word)


def orbit_words(w: Word, s: SetSolution) -> frozenset:
    """Breadth-first closure of w under all adjacent generators."""
    _check_involutive(s)
    w = tuple(_letters(w, s.size))
    n = len(w)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for word in frontier:
            for k in range(1, n):
                a, b = s.table[word[k - 1]][word[k]]
                image = word[: k - 1] + (a, b) + word[k + 1 :]
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
#
# maximal_blocks, is_lambda_element, exchange and classify read the solution
# into a view and check the letters once per call; the helpers below work on
# that view and on the word as a list.


def psi(k: int, a: int, s: SetSolution) -> Word:
    """The word D^{k-1}(a) D^{k-2}(a) ... D(a) a."""
    if k < 1:
        raise ValueError("k must be positive")
    (a,) = _letters((a,), s.size)
    D = diagonal(s)
    out = [a]
    cur = a
    for _ in range(k - 1):
        cur = D(cur)
        out.append(cur)
    return tuple(reversed(out))


def maximal_blocks(w: Word, s: SetSolution) -> list[tuple[int, int]]:
    """Greedy factorization into maximal Psi-blocks, as (length, letter) pairs.

    The letter is the block's last symbol.  Maximality makes the junction
    condition a_{j-1} != D^{mu_j}(a_j) automatic, and this factorization is
    the unique one with that property; a round-trip assertion guards it.
    """
    v = _view(s)
    return _blocks(v, _letters(w, v.m))


def _blocks(v: _View, w: list) -> list[tuple[int, int]]:
    """maximal_blocks on the view.  Rebuilding a block from its letter with
    D gives back w exactly when D takes each letter inside a block to the
    letter before it, which is checked as the blocks grow."""
    forward, back = v.forward, v.backward
    n = len(w)
    blocks = []
    start = 0
    for t in range(1, n + 1):
        if t == n or w[t] != back[w[t - 1]]:
            blocks.append((t - start, w[t - 1]))
            start = t
        elif forward[w[t]] != w[t - 1]:
            raise AssertionError("maximal block factorization failed to round-trip")
    return blocks


def _condition_violation(v: _View, blocks, w: list):
    """First (i, j), 0-based i < j, violating the non-merging condition.

    Block j merges toward block i when
    a_j == D^{-lambda_j}( tau_{blocks i+1 .. j-1}(a_i) ), that is, when that
    tau value is D^{lambda_j}(a_j), D of block j's first letter.  For each i
    the tau value extends by one block as j grows.  Returns None when every
    pair satisfies the condition.
    """
    r, forward = v.r, v.forward
    offsets = [0]
    for length, _ in blocks:
        offsets.append(offsets[-1] + length)
    merges_at = [forward[w[start]] for start in offsets[:-1]]
    for i in range(len(blocks) - 1):
        value = blocks[i][1]
        for j in range(i + 1, len(blocks)):
            if value == merges_at[j]:
                return (i, j)
            for p in range(offsets[j], offsets[j + 1]):
                value = r[value][w[p]][1]
    return None


def is_lambda_element(w: Word, s: SetSolution) -> Partition | None:
    """The partition lambda when w is a lambda-element, else None."""
    v = _view(s)
    return _lambda_type(v, _letters(w, v.m))


def _lambda_type(v: _View, w: list) -> Partition | None:
    blocks = _blocks(v, w)
    lengths = [length for length, _ in blocks]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return None
    if len(blocks) > v.m:
        return None
    if _condition_violation(v, blocks, w) is not None:
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


def _validate_block(v: _View, w: list, start: int, length: int) -> int:
    """Check w[start:start+length] is a Psi-word; return its letter."""
    for i in range(start + 1, start + length):
        if w[i] != v.backward[w[i - 1]]:
            raise MalformedBlocks(f"span [{start}, {start + length}) is not a Psi-word")
    return w[start + length - 1]


def exchange(w: Word, block_a, block_b, s: SetSolution) -> Word:
    """Exchange two adjacent Psi-blocks; the output stays in the orbit of w.

    ``block_a`` and ``block_b`` are (start, length) pairs with block_b
    immediately after block_a.  The move is realized as a sequence of
    generator applications (so orbit membership holds by construction) and
    is cross-checked against the closed-form exchanged word.
    """
    v = _view(s)
    word = _letters(w, v.m)
    (start, k), (start_b, t) = block_a, block_b
    if start_b != start + k:
        raise MalformedBlocks("blocks are not adjacent")
    _exchange(v, word, start, k, t)
    return tuple(word)


def _exchange(v: _View, w: list, start: int, k: int, t: int) -> list[int]:
    """Exchange the blocks w[start:start+k] and w[start+k:start+k+t] in place
    by replaying their generator moves, which it returns.

    The replay must give the closed form Psi_t(b) Psi_k(c) of the exchange
    rule, written from the head of the new left block
    b = sigma_{block a}(D^{t-1}(y)) and the letter c = tau_{block b}(x) of the
    new right block, where x and y are the letters of blocks a and b.
    """
    mid, end = start + k, start + k + t
    if start < 0 or end > len(w) or k < 1 or t < 1:
        raise MalformedBlocks("block spans out of range")
    x = _validate_block(v, w, start, k)
    y = _validate_block(v, w, mid, t)
    r, forward, back = v.r, v.forward, v.backward
    head = y
    for _ in range(t - 1):
        head = forward[head]
    for p in range(mid - 1, start - 1, -1):
        head = r[w[p]][head][0]
    letter = x
    for p in range(mid, end):
        letter = r[letter][w[p]][1]
    expected, right = [head], [letter]
    for _ in range(t - 1):
        expected.append(back[expected[-1]])
    for _ in range(k - 1):
        right.append(forward[right[-1]])
    expected += reversed(right)
    moves = exchange_moves(start, k, t)
    for p in moves:
        w[p - 1], w[p] = r[w[p - 1]][w[p]]
    if w[start:end] != expected:
        raise AssertionError("exchange-rule formula disagrees with generator replay")
    return moves


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
    v = _view(s)
    if not w:
        raise ValueError("empty word")
    current = _letters(w, v.m)
    moves: list[int] = []
    blocks = _blocks(v, current)
    while True:
        # phase 1: sort block lengths, refactoring after every swap
        while True:
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
            moves += _exchange(v, current, offset, blocks[swap_at][0], blocks[swap_at + 1][0])
            blocks = _blocks(v, current)
        # phase 2: merge the lexicographically first violating pair
        violation = _condition_violation(v, blocks, current)
        if violation is None:
            part = Partition([length for length, _ in blocks])
            if _lambda_type(v, current) != part:
                raise AssertionError("classifier output failed the lambda-element check")
            return ClassifyResult(part, tuple(current), tuple(moves))
        i, j = violation
        lengths = [length for length, _ in blocks]
        # walk block j leftward until adjacent to block i, no refactoring
        pos = j
        while pos > i + 1:
            offset = sum(lengths[: pos - 1])
            moves += _exchange(v, current, offset, lengths[pos - 1], lengths[pos])
            lengths[pos - 1], lengths[pos] = lengths[pos], lengths[pos - 1]
            pos -= 1
        merged = _blocks(v, current)
        if len(merged) >= len(blocks):
            raise AssertionError("expected merge did not reduce the block count")
        blocks = merged


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


class _Orbits:
    """The orbits of the braid group B_k on the degree-k words.

    Node (P, y), with id P m + y, is the set of words u y with u in the
    degree-(k-1) orbit P; c_1 .. c_{k-2} keep a word in its node.  Each orbit
    lists its words node-major: its nodes in ascending id, and within a node
    the words u y in the order P lists u.  Only the orbit graph is built
    eagerly; the word-length arrays ``label``, ``pos`` and ``order`` are
    built from those of the degree below on first read, so a caller that
    never reads them (the census, or the top degree of a Nichols step) never
    holds an array over all m^k words.
    """

    def __init__(self, below, m: int, links, starts, offsets, heads, least) -> None:
        self.below = below  # the degree-(k-1) orbits, None at degree 0
        self.m = m
        self.links = links  # node -> orbit id
        self.starts = starts  # orbit o holds positions starts[o] .. starts[o + 1] - 1
        self.offsets = offsets  # node -> position of its first word within its orbit
        self.heads = heads  # orbit -> its smallest node, which holds its least word
        self.least = least  # orbit -> its least word, ascending with the orbit id

    @property
    def count(self) -> int:
        return len(self.starts) - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        """orbit -> its number of words."""
        return np.diff(self.starts)

    def _build_below(self, name: str) -> None:
        """Build the derived array ``name`` at every lower degree that lacks
        it, from the bottom up, so that no read recurses degree by degree."""
        missing = []
        degree = self.below
        while name not in vars(degree):
            missing.append(degree)
            degree = degree.below
        for degree in reversed(missing):
            getattr(degree, name)

    @cached_property
    def label(self) -> np.ndarray:
        """word -> orbit id: the word u y lies in the orbit of node (label of u, y)."""
        self._build_below("label")
        return np.take(self.links.reshape(-1, self.m), self.below.label, axis=0).ravel()

    @cached_property
    def pos(self) -> np.ndarray:
        """word -> its index within its orbit: the word u y sits at its
        node's offset plus the index of u within the orbit below."""
        self._build_below("pos")
        pos = np.take(self.offsets.reshape(-1, self.m), self.below.label, axis=0)
        pos += self.below.pos[:, None]
        return pos.ravel()

    @cached_property
    def order(self) -> np.ndarray:
        """The words orbit after orbit, node-major within each orbit: one
        gather of the words of every node's orbit below, node after node."""
        self._build_below("order")
        return self.node_words(np.argsort(self.links, kind="stable"))[0]

    def node_words(self, nodes):
        """The words of the given nodes, node after node, each in orbit
        order, and the number of words per node: those of node (P, y) are
        the words of P below, times m plus y, so all come from one gather."""
        below, m = self.below, self.m
        prev, letters = np.divmod(nodes, m)
        lengths = below.sizes[prev]
        ends = np.cumsum(lengths)
        index = np.repeat(below.starts[prev] - ends + lengths, lengths)
        index += np.arange(index.size)
        words = below.order[index]
        words *= m
        words += np.repeat(letters, lengths)
        return words, lengths

    def column_words(self, nodes, columns):
        """The words at the ascending indices ``columns`` of the given nodes'
        words, node after node, each in orbit order, and their positions
        within their orbits; node (P, y) holds the words of P below, times m
        plus y, from the node's offset on."""
        below, m = self.below, self.m
        prev, letters = np.divmod(nodes, m)
        lengths = below.sizes[prev]
        ends = np.cumsum(lengths)
        owner = np.searchsorted(ends, columns, side="right")
        first = lengths - ends  # node -> minus the index of its first word
        index = (below.starts[prev] + first)[owner]
        index += columns
        words = below.order[index]
        words *= m
        words += letters[owner]
        at = (self.offsets[nodes] + first)[owner]
        at += columns
        return words, at

    def words(self, orbit: int) -> np.ndarray:
        return self.order[self.starts[orbit] : self.starts[orbit + 1]]


def _degree_zero() -> _Orbits:
    """The one empty word, in one orbit of one node."""
    zero = np.zeros(1, dtype=np.int64)
    base = _Orbits(None, 1, zero, np.array([0, 1]), zero, zero, zero)
    vars(base).update(label=zero, pos=zero, order=zero)
    return base


def _graph(below: _Orbits, m: int, links) -> _Orbits:
    """The orbits whose nodes (orbit of ``below``, letter) the array
    ``links`` sends to orbit ids that ascend with each orbit's smallest node.

    Sorting the nodes by orbit (stably, so ascending within each orbit) and
    summing their sizes, those of the orbits below, gives every orbit's
    start and every node's offset within its orbit."""
    nodes = np.argsort(links, kind="stable")
    per_orbit = np.bincount(links)
    first = np.cumsum(per_orbit) - per_orbit  # each orbit's head, in node order
    sizes = below.sizes[nodes // m]
    placed = np.cumsum(sizes) - sizes  # each node's first position, degree-wide
    starts = np.append(placed[first], placed[-1] + sizes[-1])
    offsets = np.empty_like(placed)
    offsets[nodes] = placed - np.repeat(starts[:-1], per_orbit)
    heads = nodes[first]
    prev, letter = np.divmod(heads, m)
    least = below.least[prev] * m + letter
    return _Orbits(below, m, links, starts, offsets, heads, least)


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
        self._orbits: list[_Orbits] = []  # degrees 0, 1, ..., built in order

    def orbits(self, k: int) -> _Orbits:
        """The B_k-orbits on degree-k words, built from those of degree k-1.

        c_1 .. c_{k-2} act on the first k-1 letters, so a word's orbit under
        them is the node (orbit of its prefix, last letter); c_{k-1} then joins
        these nodes into the B_k-orbits.  On every word u x y with u in the
        degree-(k-2) orbit Q, c_{k-1} joins the same two nodes
        (links[Q m + x], y) and (links[Q m + sigma_x(y)], tau_y(x)), with
        ``links`` of degree k-1, so the edges come from (Q, x, y), not words.
        Node (Q, y) holds the words of Q followed by y, so, by induction on
        k, the smallest node of an orbit holds its least word, orbit ids
        ascend with the least word, and node-major order lists the least word
        first.  Missing degrees are built bottom-up, with no pass over the
        words: only the graph, the orbit starts, the node offsets and the
        least words (see ``_Orbits``).

        Word indices are int64, so a degree with m^k >= 2^63 words raises
        TooLarge.
        """
        m = self.m
        if m > 1 and (k >= 63 or m ** k >= 2 ** 63):  # m >= 2 and k >= 63: m^k >= 2^63
            raise TooLarge(f"{m}^{k} words reach 2^63: word indices would leave int64")
        if not self._orbits:
            self._orbits.append(_degree_zero())
        while len(self._orbits) <= k:
            d = len(self._orbits)
            below = self._orbits[d - 1]
            if d == 1:
                links = np.arange(m, dtype=np.int64)
            else:
                triples = self._orbits[d - 2].count * m * m
                Q, pair = np.divmod(np.arange(triples, dtype=np.int64), m * m)
                x, y = np.divmod(pair, m)
                sx, ty = np.divmod(pair + self.pair_shift[pair], m)  # sigma_x(y), tau_y(x)
                a = below.links[Q * m + x] * m + y
                b = below.links[Q * m + sx] * m + ty
                links = _components(a, b, below.count * m)
            self._orbits.append(_graph(below, m, links))
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
    if n > cap:  # reachable only for m = 1, where every degree has one word
        raise TooLarge(f"degree {n} exceeds cap {cap}")
    here = BraidOrbits(s).orbits(n)  # the orbit graph only: no array over the m^n words
    letters = here.least[:, None] // m ** np.arange(n - 1, -1, -1) % m
    summaries = []
    for rep, size in zip(map(tuple, letters.tolist()), here.sizes.tolist()):
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
