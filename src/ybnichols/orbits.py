"""The symmetric-group action on X^n induced by an involutive solution.

Adjacent transpositions act by s_k . (... p q ...) = (... r(p, q) ...).
Orbits are classified by integer partitions: every orbit holds a
lambda-element, a concatenation of Psi-blocks
Psi_k(a) = D^{k-1}(a) ... D(a) a whose block lengths form the partition.
In the coordinates y_i = sigma_{x_1} o ... o sigma_{x_{i-1}}(x_i)
(Etingof-Schedler-Soloviev 1999) each generator swaps two neighbouring
y-letters, so the braid action is the permutation action of S_n on X^n and
the orbits are the multisets of size n over X.  The classifier sorts a
word's y-letters into one run per letter, longest first, and records the
generator move of each swap, so its output is replayable.  The census
builds no orbit graph: it lists the multisets, builds each orbit's least
word directly (see ``orbit_census``) and calls the classifier only for
witnesses.

``BraidOrbits`` finds the orbits of the braid group B_k on X^k (the
S_k-orbits, for an involutive solution) for the Nichols engine.  It builds
them degree by degree from an orbit graph with one edge per (degree-(k-2)
orbit, letter pair), with no pass over the words.
An orbit lists its words node-major: node (P, y) holds the words u y with u
in the degree-(k-1) orbit P, nodes come in ascending id P m + y, and within
a node the words follow P's order.  Each degree keeps its graph, orbit
starts, node offsets and head nodes; a word's orbit (``label``), its
position within it (``pos``) and the words in orbit order (``order``) are
built from those of the degree below when first read, so the top degree of
a Nichols step never holds an array over all m^k words.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .ybe import (
    SOLUTION_CACHE_SIZE,
    NotInvolutive,
    NotNondegenerate,
    NotYangBaxter,
    SetSolution,
    TooLarge,
    _components,
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


# ---------------------------------------------------------------------------
# the action


class _View(NamedTuple):
    """One read of an involutive, non-degenerate solution for the word
    functions below: r as the nested table, the sigma maps, D and D^-1 as
    tuples."""

    m: int
    r: tuple  # r[p][q] == (sigma_p(q), tau_q(p))
    sigma: tuple  # sigma[p][q] == sigma_p(q)
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
    sigma = tuple(tuple(p for p, _ in row) for row in s.table)
    return _View(s.size, s.table, sigma, D.forward, D.backward)


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


def _y_letters(v: _View, w: list) -> list:
    """The y-letters y_i = P_{i-1}(x_i) of w, where
    P_i = sigma_{x_1} o ... o sigma_{x_i} is kept as a list and P_0 is the
    identity."""
    composite = list(range(v.m))
    letters = []
    for x in w:
        letters.append(composite[x])
        composite = [composite[q] for q in v.sigma[x]]
    return letters


def is_lambda_element(w: Word, s: SetSolution) -> Partition | None:
    """The partition lambda when w is a lambda-element, else None."""
    v = _view(s)
    return _lambda_type(v, _letters(w, v.m))


def _lambda_type(v: _View, w: list) -> Partition | None:
    """The block lengths of w when they weakly decrease and its blocks carry
    pairwise distinct y-letters, else None.

    A generator swaps two neighbouring y-letters and leaves the others in
    place (see ``orbit_census``), and x -> y is a bijection, so r fixes the
    pair (x_i, x_{i+1}) exactly when y_i = y_{i+1}: the maximal Psi-blocks
    are the maximal runs of equal y-letters.  An exchange of two adjacent
    blocks thus moves a run of y-letters intact past its neighbour, so
    block j, carried leftward past blocks i+1 .. j-1, merges with block i
    exactly when the two blocks share a y-letter.  That is the paper's
    non-merging condition, and distinct letters bound the blocks by m.
    """
    blocks = _blocks(v, w)
    lengths = [length for length, _ in blocks]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return None
    y = _y_letters(v, w)
    if len({y[start] for start in accumulate(lengths[:-1], initial=0)}) < len(lengths):
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
    """Carry w to a lambda-element, recording every generator move.

    Each generator swaps two neighbouring y-letters (see ``orbit_census``).
    The positions are insertion-sorted, stably, by the key (minus the
    multiplicity of y_i, first position of y_i); each swap of the 0-based
    positions j-1 and j is generator j, applied to the word there.  The
    sorted y-word holds one run per letter, the runs in weakly decreasing
    length, so it is a lambda-element (see ``_lambda_type``) whose parts are
    the multiplicities.  Insertion sort makes one swap per inversion, the
    fewest moves that reach this arrangement, and a lambda-element, whose
    keys already ascend, comes back unchanged with no moves.
    """
    v = _view(s)
    if not w:
        raise ValueError("empty word")
    word = _letters(w, v.m)
    y = _y_letters(v, word)
    count = Counter(y)  # in order of first position
    runs = sorted(count, key=count.__getitem__, reverse=True)  # stable
    rank = {letter: i for i, letter in enumerate(runs)}
    keys = [rank[letter] for letter in y]
    r = v.r
    moves: list[int] = []
    for i in range(1, len(word)):
        key, j = keys[i], i
        while j and keys[j - 1] > key:
            keys[j] = keys[j - 1]
            word[j - 1], word[j] = r[word[j - 1]][word[j]]
            moves.append(j)
            j -= 1
        keys[j] = key
    part = Partition(count[letter] for letter in runs)
    if _lambda_type(v, word) != part:
        raise AssertionError("classifier output failed the lambda-element check")
    return ClassifyResult(part, tuple(word), tuple(moves))


def lambda_classify(w: Word, s: SetSolution) -> tuple[Partition, Word]:
    """(partition, witnessing lambda-element) for the orbit of w."""
    result = classify(w, s)
    return result.partition, result.witness


# ---------------------------------------------------------------------------
# orbit labels on word indices


def word_index(word, m: int) -> int:
    """The index of a word among the m^k words of its degree; raises
    ValueError on a letter that is not an integer in 0 .. m-1."""
    code = 0
    for letter in _letters(word, m):
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
    never reads them (the top degree of a Nichols step) never holds an
    array over all m^k words.
    """

    def __init__(self, below, m: int, links, starts, offsets, heads) -> None:
        self.below = below  # the degree-(k-1) orbits, None at degree 0
        self.m = m
        self.links = links  # node -> orbit id
        self.starts = starts  # orbit o holds positions starts[o] .. starts[o + 1] - 1
        self.offsets = offsets  # node -> position of its first word within its orbit
        self.heads = heads  # orbit -> its smallest node, which holds its least word

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
        return self.node_words(np.argsort(self.links, kind="stable"))

    def node_words(self, nodes):
        """The words of the given nodes, node after node, each in orbit
        order: those of node (P, y) are the words of P below, times m plus
        y, so all come from one gather."""
        below, m = self.below, self.m
        prev, letters = np.divmod(nodes, m)
        lengths = below.sizes[prev]
        ends = np.cumsum(lengths)
        index = np.repeat(below.starts[prev] - ends + lengths, lengths)
        index += np.arange(index.size)
        words = below.order[index]
        words *= m
        words += np.repeat(letters, lengths)
        return words

    def column_words(self, nodes, columns):
        """The words at the ascending indices ``columns`` of the given nodes'
        words, node after node, each in orbit order; node (P, y) holds the
        words of P below, times m plus y."""
        below, m = self.below, self.m
        prev, letters = np.divmod(nodes, m)
        lengths = below.sizes[prev]
        ends = np.cumsum(lengths)
        owner = np.searchsorted(ends, columns, side="right")
        # a node's first word below, less the column its words start at
        index = (below.starts[prev] + lengths - ends)[owner]
        index += columns
        words = below.order[index]
        words *= m
        words += letters[owner]
        return words

    def words(self, orbit: int) -> np.ndarray:
        return self.order[self.starts[orbit] : self.starts[orbit + 1]]


def _degree_zero() -> _Orbits:
    """The one empty word, in one orbit of one node."""
    zero = np.zeros(1, dtype=np.int64)
    base = _Orbits(None, 1, zero, np.array([0, 1]), zero, zero)
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
    return _Orbits(below, m, links, starts, offsets, nodes[first])


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
        head nodes (see ``_Orbits``).

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


def _exceeds(n: int, m: int, cap: int) -> bool:
    """Whether C(n+m-1, m-1) n, the letters of one least word per orbit,
    exceeds cap.  C(n+m-1, k) = C(n+m-1, m-1) for k = min(n, m-1) is built
    as C(n+m-1-k+j, j) for j = 1 .. k; these at least double at each step,
    as n+m-1 >= 2k, so the loop stops after O(log cap) steps."""
    k = min(n, m - 1)
    count = 1
    for j in range(1, k + 1):
        count = count * (n + m - 1 - k + j) // j
        if count * n > cap:
            return True
    return count * n > cap


def _multisets(n: int, m: int):
    """Every multiset of size n over 0 .. m-1, one row each: its distinct
    letters ascending and their multiplicities, padded with zero counts to
    d = min(n, m) columns, so that nothing holds more than n entries per
    multiset.

    The multisets are built as the weakly increasing words y_1 <= ... <= y_n
    one letter at a time (stars and bars: a word ending in y extends by each
    of y .. m-1), keeping each level's last letters and parent rows; the
    words are then read back last letter first.  A letter's slot is the
    number of distinct letters before it."""
    lasts, parents = [np.arange(m)], []
    for _ in range(n - 1):
        low = lasts[-1]
        reps = m - low
        parent = np.repeat(np.arange(low.size), reps)
        first = np.cumsum(reps) - reps
        lasts.append(np.arange(parent.size) - first[parent] + low[parent])
        parents.append(parent)
    count = lasts[-1].size
    words = np.empty((count, n), dtype=np.min_scalar_type(m))
    rows = np.arange(count)
    for i in range(n - 1, -1, -1):
        words[:, i] = lasts[i][rows]
        if i:
            rows = parents[i - 1][rows]
    new = np.ones(words.shape, dtype=bool)
    new[:, 1:] = words[:, 1:] != words[:, :-1]
    width = min(n, m)
    cells = np.cumsum(new, axis=1) - 1
    cells += np.arange(count)[:, None] * width
    letters = np.zeros(count * width, dtype=words.dtype)
    letters[cells[new]] = words[new]
    counts = np.bincount(cells.ravel(), minlength=count * width)
    return letters.reshape(count, width), counts.reshape(count, width)


def _least_words(letters, counts, sigma) -> np.ndarray:
    """The least word x_1 ... x_n of the orbit of each multiset, the rows of
    ``letters`` and ``counts`` (see ``_multisets``), for the table
    sigma[p, q] = sigma_p(q).

    With P_i = sigma_{x_1} o ... o sigma_{x_i} and P_0 the identity, the word
    has the y-letters y_i = P_{i-1}(x_i), so x_i = P_{i-1}^{-1}(y_i).  Any
    arrangement of the multiset is the y-word of exactly one word of the
    orbit, and x_1 .. x_i fix y_1 .. y_i and P_i.  So the least word is built
    greedily: x_i is the least P_{i-1}^{-1}(y) over the letters y with copies
    still left.  P_{i-1}^{-1} is a bijection, so these candidates are
    distinct letters and the least one names a single y; taking it leaves
    every arrangement of the remaining copies open, and no word of the orbit
    that agrees with the greedy one before position i has a smaller x_i.
    Each row keeps P_{i-1}^{-1} only on its own letters, and every step
    updates all rows at once: P_i^{-1} = sigma_{x_i}^{-1} o P_{i-1}^{-1}."""
    m = sigma.shape[0]
    inverse = np.argsort(sigma, axis=1).astype(letters.dtype)  # [p, q] -> sigma_p^-1(q)
    count, n = counts.shape[0], int(counts[0].sum())
    rows = np.arange(count)
    left = counts.copy()
    pulled = letters.copy()  # P_{i-1}^{-1} of each row's letters
    words = np.empty((count, n), dtype=letters.dtype)
    for i in range(n):
        slot = np.where(left > 0, pulled, m).argmin(axis=1)
        x = pulled[rows, slot]
        words[:, i] = x
        left[rows, slot] -= 1
        pulled = inverse[x[:, None], pulled]
    return words


def orbit_census(
    n: int,
    s: SetSolution,
    cap: int = 10 ** 7,
    witnesses: bool = False,
) -> Census:
    """Partition all of X^n into orbits, in ascending order of their least
    words, and type each orbit by its multiset of y-letters.

    Writing r(x, y) = (sigma_x(y), tau_y(x)), the word x_1 ... x_n has the
    y-letters y_i = sigma_{x_1} o ... o sigma_{x_{i-1}}(x_i), and the map
    x -> y is a bijection of X^n.  The move at x y sends the pair of terms
    (P(x), P sigma_x(y)) to (P sigma_x(y), P sigma_{sigma_x(y)}(tau_y(x))) =
    (P sigma_x(y), P(x)), because r is involutive, and leaves the composite
    P sigma_x sigma_y after the pair unchanged, because
    sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} for a solution.  So
    each generator swaps two neighbouring y-letters, and the orbits are
    exactly the C(n+m-1, m-1) multisets mu of size n over X
    (Etingof-Schedler-Soloviev 1999), each with n!/prod mu_i! words.  The
    census lists the multisets (``_multisets``), builds every least word
    greedily (``_least_words``) and sorts the orbits by it; no word index is
    formed, so every degree whose letters fit the cap answers.

    The type, mu's multiplicities sorted descending, is the paper's lambda:
    the blocks of a lambda-element are runs of pairwise distinct y-letters
    (see ``_lambda_type``), so their lengths are the multiplicities of its
    multiset, which is the orbit's.  Sizes are computed once per type, in
    Python ints.  ``classify`` runs only for the witnesses, and its
    partition must agree with the type.

    ``cap`` bounds C(n+m-1, m-1) n, the letters the least words hold, and is
    checked before anything is built.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    _check_involutive(s)
    m = s.size
    if _exceeds(n, m, cap):
        raise TooLarge(f"C({n + m - 1}, {m - 1}) orbits of {n} letters exceed cap {cap}")
    letters, counts = _multisets(n, m)
    sigma = np.array([s.sigma_map(p) for p in range(m)])  # [p, q] -> sigma_p(q)
    words = _least_words(letters, counts, sigma)
    order = np.lexsort(words.T[::-1])
    types = -np.sort(-counts[order], axis=1)  # descending multiplicities
    kinds: dict = {}  # type -> (partition, n!/prod mu_i! in Python ints)
    summaries = []
    for rep, row in zip(map(tuple, words[order].tolist()), map(tuple, types.tolist())):
        kind = kinds.get(row)
        if kind is None:
            part = Partition(p for p in row if p)
            kind = kinds[row] = (part, part.orbit_size())
        part, size = kind
        witness = None
        if witnesses:
            result = classify(rep, s)
            if result.partition != part:
                raise AssertionError(
                    f"classify types {rep} as {result.partition}, the census as {part}"
                )
            witness = result.witness
        summaries.append(OrbitSummary(rep, size, part, witness))
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
