import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest

from ybnichols import orbits as orbits_module
from ybnichols.catalog import build_entry, catalog_names
from ybnichols.cli import main
from ybnichols.orbits import (
    BraidOrbits,
    ClassifyResult,
    MalformedBlocks,
    Partition,
    PositionOutOfRange,
    act,
    act_sequence,
    classify,
    exchange,
    exchange_moves,
    is_lambda_element,
    lambda_classify,
    maximal_blocks,
    multiset_permutations,
    orbit,
    orbit_census,
    orbit_words,
    partitions,
    perm_act,
    psi,
    reduced_word,
    shuffles,
    stabilizer_check,
)
from ybnichols.ybe import SetSolution, TooLarge, diagonal

Z3 = SetSolution.cyclic_shift(3)
FLIP2 = SetSolution.flip(2)


def _w(text):
    return tuple(int(c) for c in text)


def test_partition_counts():
    lam = Partition([3, 2, 2, 2])
    assert lam.perm_count(6) == 60
    assert lam.orbit_size() == math.factorial(9) // (6 * 2 * 2 * 2)
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partition_identities():
    # sum over partitions of orbit-size x arrangement-count recovers m^n,
    # and the number of partition classes matches the binomial count
    for m in (2, 3, 4):
        for n in range(1, 7):
            parts = list(partitions(n, m))
            assert sum(p.perm_count(m) * p.orbit_size() for p in parts) == m ** n
            assert sum(p.perm_count(m) for p in parts) == math.comb(n + m - 1, m - 1)


def test_act_examples():
    assert act(1, _w("00"), Z3) == _w("21")
    assert act(3, _w("0122"), Z3) == _w("0110")
    assert act(1, (0, 1), FLIP2) == (1, 0)
    with pytest.raises(PositionOutOfRange):
        act(4, _w("0122"), Z3)
    with pytest.raises(PositionOutOfRange):
        act(0, _w("0122"), Z3)


def test_act_is_an_involutive_action():
    # generator involutivity, braid relation, distant commutation: exhaustive
    for name in ("z2-shift", "z3-shift", "x4-sigma"):
        s = build_entry(name).solution
        m = s.size
        n = 4 if m > 2 else 5
        for word in product(range(m), repeat=n):
            for k in range(1, n):
                assert act(k, act(k, word, s), s) == word
            for k in range(1, n - 1):
                lhs = act(k, act(k + 1, act(k, word, s), s), s)
                rhs = act(k + 1, act(k, act(k + 1, word, s), s), s)
                assert lhs == rhs
            for k in range(1, n - 2):
                for l in range(k + 2, n):
                    assert act(k, act(l, word, s), s) == act(l, act(k, word, s), s)


def test_orbit_sets_match_published_lists():
    assert orbit_words(_w("0122"), Z3) == {_w("0122"), _w("0110"), _w("0020"), _w("2120")}
    assert orbit_words(_w("0121"), Z3) == {_w("0121"), _w("0100"), _w("0220"), _w("1120")}
    assert orbit_words(_w("0120"), Z3) == {_w("0120")}
    assert orbit_words(_w("0101"), Z3) == {
        _w("0101"), _w("0221"), _w("1121"), _w("0200"), _w("1100"), _w("1220")
    }
    assert len(orbit_words(_w("0102"), Z3)) == 12


def test_orbit_report():
    report = orbit(_w("0122"), Z3)
    assert report.size == 4
    assert report.representative == _w("0020")
    assert report.partition == Partition([3, 1])
    assert report.witness in report.words
    assert is_lambda_element(report.witness, Z3) == report.partition


def test_psi_examples():
    assert psi(1, 2, Z3) == (2,)
    assert psi(3, 0, Z3) == _w("120")
    assert psi(4, 0, Z3) == _w("0120")
    assert orbit_words(psi(4, 0, Z3), Z3) == {_w("0120")}


def test_lambda_element_examples():
    assert is_lambda_element(_w("0120122012201"), Z3) == Partition([6, 4, 3])
    assert is_lambda_element(_w("0120"), Z3) == Partition([4])
    assert is_lambda_element((0, 1), FLIP2) == Partition([1, 1])
    # ascending block lengths are rejected: 0012 factors as 0 | 012 over Z3
    assert is_lambda_element(_w("0012"), Z3) is None


def test_lambda_classify_worked_example():
    result = classify(_w("0121212020102"), Z3)
    assert result.partition == Partition([6, 4, 3])
    # replay the recorded generator moves: the witness is in the same orbit
    assert act_sequence(result.moves, _w("0121212020102"), Z3) == result.witness
    assert is_lambda_element(result.witness, Z3) == result.partition


def test_lambda_classify_fixed_words():
    part, witness = lambda_classify(_w("1201"), Z3)
    assert part == Partition([4]) and witness == _w("1201")
    for a in range(3):
        word = psi(5, a, Z3)
        part, witness = lambda_classify(word, Z3)
        assert part == Partition([5]) and witness == word


def test_classification_is_orbit_constant():
    for name in ("z2-shift", "z3-shift"):
        s = build_entry(name).solution
        m = s.size
        for n in (3, 4, 5):
            seen = {}
            for word in product(range(m), repeat=n):
                lam = classify(word, s).partition
                rep = min(orbit_words(word, s))
                if rep in seen:
                    assert seen[rep] == lam
                else:
                    seen[rep] = lam


def test_exchange_single_letter_case():
    # with a single-letter right block the exchanged word is
    # sigma_{block}(y) followed by the block built on tau_y(x)
    word = psi(3, 0, Z3) + (1,)
    out = exchange(word, (0, 3), (3, 1), Z3)
    block = psi(3, 0, Z3)
    y = 1
    head = _ref_sigma_of_word(block, y, Z3)
    assert out == (head,) + psi(3, _ref_tau_of_word((y,), 0, Z3), Z3)
    assert out in orbit_words(word, Z3)


def test_exchange_is_plain_transposition_for_flip():
    flip3 = SetSolution.flip(3)
    word = (0, 0, 1)  # blocks: 00 | 1
    out = exchange(word, (0, 2), (2, 1), flip3)
    assert out == (1, 0, 0)


def test_exchange_output_stays_in_orbit():
    for word in product(range(3), repeat=6):
        blocks = maximal_blocks(word, Z3)
        if len(blocks) < 2:
            continue
        k, t = blocks[0][0], blocks[1][0]
        out = exchange(word, (0, k), (k, t), Z3)
        assert out in orbit_words(word, Z3)
        break  # exhaustive loop below is cheaper on a sample
    # broader sample
    import random

    rng = random.Random(3)
    for _ in range(50):
        word = tuple(rng.randrange(3) for _ in range(6))
        blocks = maximal_blocks(word, Z3)
        if len(blocks) < 2:
            continue
        pick = rng.randrange(len(blocks) - 1)
        start = sum(b[0] for b in blocks[:pick])
        out = exchange(word, (start, blocks[pick][0]),
                       (start + blocks[pick][0], blocks[pick + 1][0]), Z3)
        assert out in orbit_words(word, Z3)


def test_exchange_rejects_malformed_blocks():
    with pytest.raises(MalformedBlocks):
        exchange(_w("0021"), (0, 2), (2, 2), Z3)  # "00" is not a block chain for Z3
    with pytest.raises(MalformedBlocks):
        exchange(_w("0120"), (0, 2), (3, 1), Z3)  # not adjacent


def test_census_small_cases():
    census = orbit_census(4, Z3)
    table = {p.parts: v for p, v in census.by_partition().items()}
    assert table == {(4,): (3, 1), (3, 1): (6, 4), (2, 2): (3, 6), (2, 1, 1): (3, 12)}
    assert census.orbit_count == 15

    census = orbit_census(2, SetSolution.cyclic_shift(2))
    assert sorted(o.size for o in census.orbits) == [1, 1, 2]
    assert census.orbit_count == 3

    census = orbit_census(3, SetSolution.flip(2))
    assert census.orbit_count == 4


def test_census_caps():
    # cap bounds C(n+m-1, m-1) n, the letters of one least word per orbit:
    # 165 orbits of 8 letters on four points, 10 orbits of 9 letters on two
    with pytest.raises(TooLarge, match=r"^C\(11, 3\) orbits of 8 letters exceed cap 1319$"):
        orbit_census(8, SetSolution.flip(4), cap=1319)
    assert orbit_census(8, SetSolution.flip(4), cap=1320).orbit_count == 165
    with pytest.raises(TooLarge, match=r"^C\(10, 1\) orbits of 9 letters exceed cap 89$"):
        orbit_census(9, SetSolution.flip(2), cap=89)
    assert orbit_census(9, SetSolution.flip(2), cap=90).orbit_count == 10
    # the check builds C(n+m-1, m-1) only until it passes the cap
    with pytest.raises(TooLarge, match=r"^C\(1000000000001, 1\) orbits of 1000000000000 letters"):
        orbit_census(10 ** 12, SetSolution.flip(2), cap=1000)
    with pytest.raises(TooLarge, match=r"^C\(1000000000039, 39\) orbits of 1000000000000 letters"):
        orbit_census(10 ** 12, SetSolution.flip(40))
    with pytest.raises(ValueError):
        orbit_census(0, Z3)


def test_census_answers_past_int64_word_counts():
    # no word index is formed, so 2^63 words and more answer, with the
    # multinomial orbit sizes; the orbit graph, whose word indices are
    # int64, still refuses those degrees
    for n, m in ((62, 2), (63, 2), (64, 2), (28, 5)):
        census = orbit_census(n, SetSolution.cyclic_shift(m))
        _assert_census_identities(census, m, n)
        if m == 2:
            assert sorted(o.size for o in census.orbits) == sorted(math.comb(n, j) for j in range(n + 1))
    for n, m in ((63, 2), (28, 5)):
        with pytest.raises(TooLarge, match=rf"^{m}\^{n} words reach 2\^63"):
            BraidOrbits(SetSolution.cyclic_shift(m)).orbits(n)


def test_census_on_one_letter():
    # m = 1: one orbit, the word of n zeros, in every degree; only the cap
    # bounds n
    s = SetSolution.flip(1)
    for n in (1, 2, 7, 3000):
        got = [(o.representative, o.size, o.partition) for o in orbit_census(n, s).orbits]
        assert got == [((0,) * n, 1, Partition([n]))]
    for n in range(1, 6):
        assert _census_triples(orbit_census(n, s, witnesses=True)) == _graph_census(n, s)
    with pytest.raises(TooLarge, match=r"^C\(10, 0\) orbits of 10 letters exceed cap 9$"):
        orbit_census(10, s, cap=9)


def test_census_witnesses():
    census = orbit_census(3, Z3, witnesses=True)
    for summary in census.orbits:
        assert summary.witness is not None
        assert is_lambda_element(summary.witness, Z3) == summary.partition


CENSUS_SOLUTIONS = {
    "cyclic_shift(5)": SetSolution.cyclic_shift(5),
    "permutation(1, 2, 0, 4, 3)": SetSolution.permutation((1, 2, 0, 4, 3)),
}

# sha256 prefixes of orbit_census(n, s).to_json(), taken from the census that
# swept the words breadth-first in lexicographic order, and of the output of
# ``orbits <solution> -n <n> --witness --json``, whose witnesses come from the
# classifier that sorts y-letters
CENSUS_DIGESTS = {
    ("z2-shift", 1): ("561dd063a35e8704", "f4b159438652b83e"),
    ("z2-shift", 2): ("f98bc818d82f8522", "be6eca8be9af50f5"),
    ("z2-shift", 3): ("c0951a09beb5dcb2", "0cdd83b15b65607d"),
    ("z2-shift", 4): ("c029422238da7bed", "f212e7deaa4f20ee"),
    ("z2-shift", 5): ("871390147134fb9e", "69d7b25fd85e8e85"),
    ("z2-shift", 6): ("74d5d178092320c6", "0d48b35ee2e47eda"),
    ("z2-shift", 7): ("60e6c247bf85e3f5", "c317b3de248b73bd"),
    ("z2-shift", 8): ("4a3ed9a99b7f5bdf", "cdad310eec902843"),
    ("z2-shift", 9): ("e205a69234fcb05c", "95e7192d92e9ffdb"),
    ("z2-shift", 10): ("3bdc4d5e7f2017e6", "0732c7af3d0ad25e"),
    ("z3-shift", 1): ("35882d85309013af", "a7e8f84b00ede5cb"),
    ("z3-shift", 2): ("03d48ce4e2a63460", "de216bc59cce00de"),
    ("z3-shift", 3): ("de465b06ee56f45e", "c0470e4a72b3562f"),
    ("z3-shift", 4): ("795e65fbe619c6d3", "915c6fc7486502a8"),
    ("z3-shift", 5): ("dbee83851231d6fc", "30bae53008bdf106"),
    ("z3-shift", 6): ("dbcde43e68d045d2", "0fd10b4820c6bfc5"),
    ("z4-shift1", 1): ("40396dcfa5158f11", "a6d62a250b8ccf94"),
    ("z4-shift1", 2): ("dc1feb6877b527eb", "61829e476750ebf4"),
    ("z4-shift1", 3): ("f6a249108f563275", "a3265ad76c288563"),
    ("z4-shift1", 4): ("d493c47254d74744", "4ad5e3883b0f88cc"),
    ("z4-shift1", 5): ("4007a744b0adf104", "8e210f3299e34b9f"),
    ("z4-shift2", 1): ("40396dcfa5158f11", "a6d62a250b8ccf94"),
    ("z4-shift2", 2): ("dc1feb6877b527eb", "68947fba030f5875"),
    ("z4-shift2", 3): ("f6a249108f563275", "21b2cca4eb48de73"),
    ("z4-shift2", 4): ("d493c47254d74744", "05cf4efea1b87007"),
    ("z4-shift2", 5): ("4007a744b0adf104", "659d836c685a2b66"),
    ("x4-sigma", 1): ("40396dcfa5158f11", "a6d62a250b8ccf94"),
    ("x4-sigma", 2): ("dc1feb6877b527eb", "7475e5cedb9df9f1"),
    ("x4-sigma", 3): ("f6a249108f563275", "90f392ceab81f204"),
    ("x4-sigma", 4): ("d493c47254d74744", "9f67331d92a6e3fa"),
    ("x4-sigma", 5): ("4007a744b0adf104", "0b3218e7813a1c48"),
    ("cyclic_shift(5)", 4): ("1cacb060ff215d2a", "ebc2c56e681c6c58"),
    ("permutation(1, 2, 0, 4, 3)", 4): ("1cacb060ff215d2a", "b5d678e42c2fbfce"),
}


def _census_cases():
    """Every involutive catalog entry with m^n <= 4^5, and two more
    solutions on five letters at n = 4."""
    for name in catalog_names():
        entry = build_entry(name)
        n = 1
        while entry.involutive and entry.solution.size ** n <= 4 ** 5:
            yield name, n, entry.solution
            n += 1
    for name, s in CENSUS_SOLUTIONS.items():
        yield name, 4, s


def test_census_matches_word_level_reference():
    # least word and size of every orbit, ascending by least word, from
    # orbit_words on the words in lexicographic order
    for name, n, s in _census_cases():
        census = orbit_census(n, s, witnesses=True)
        expected, orbit_of = [], {}
        for word in product(range(s.size), repeat=n):
            if word not in orbit_of:
                words = orbit_words(word, s)
                orbit_of.update(dict.fromkeys(words, words))
                expected.append((word, len(words)))
        assert [(o.representative, o.size) for o in census.orbits] == expected, (name, n)
        for summary in census.orbits:
            assert summary.witness in orbit_of[summary.representative]
            assert is_lambda_element(summary.witness, s) == summary.partition


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_census_output_unchanged(tmp_path):
    assert set(CENSUS_DIGESTS) == {(name, n) for name, n, _ in _census_cases()}
    for name, n, s in _census_cases():
        census = orbit_census(n, s, witnesses=True)
        target = name
        if name in CENSUS_SOLUTIONS:
            target = tmp_path / "solution.json"
            target.write_text(json.dumps(s.to_json()))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["orbits", str(target), "-n", str(n), "--witness", "--json"]) == 0
        got = (_digest(json.dumps(census.to_json(), sort_keys=True)), _digest(out.getvalue()))
        assert got == CENSUS_DIGESTS[name, n], (name, n)


def test_shuffles_and_reduced_words():
    assert len(list(shuffles((2, 1)))) == 3
    count = sum(1 for _ in shuffles((6, 4, 3)))
    assert count == math.factorial(13) // (
        math.factorial(6) * math.factorial(4) * math.factorial(3)
    ) == 60060
    for theta in shuffles((2, 2)):
        moves = reduced_word(theta)
        # replaying the word on the flip solution permutes positions
        word = (0, 1, 2, 3)
        image = perm_act(theta, word, SetSolution.flip(4))
        assert sorted(image) == [0, 1, 2, 3]
        inv = [0] * 4
        for i, x in enumerate(theta):
            inv[x] = i
        assert image == tuple(word[inv[i]] for i in range(4))


def test_multiset_permutations_count():
    assert len(list(multiset_permutations([0, 0, 1]))) == 3
    assert len(set(multiset_permutations([0, 1, 1, 2]))) == 12


def test_stabilizer_check_examples():
    assert stabilizer_check(psi(5, 1, Z3), Z3)  # one block: full stabilizer
    # 0120 followed by 1 extends the chain: it is the length-5 block word,
    # and the internal generators all fix it
    chain = psi(4, 0, Z3) + (1,)
    assert chain == psi(5, 1, Z3)
    for k in (1, 2, 3):
        assert act(k, chain, Z3) == chain
    # 0120 followed by 2 genuinely breaks into blocks (4, 1)
    word = psi(4, 0, Z3) + (2,)
    assert is_lambda_element(word, Z3) == Partition([4, 1])
    assert stabilizer_check(word, Z3)
    with pytest.raises(ValueError):
        stabilizer_check(_w("0121212020102"), Z3)  # not itself a lambda-element


def test_census_identities_all_involutive_entries_small():
    for name in catalog_names():
        entry = build_entry(name)
        if not entry.involutive:
            continue
        s = entry.solution
        m = s.size
        for n in (2, 3, 4):
            _assert_census_identities(orbit_census(n, s), m, n)


def _assert_census_identities(census, m, n):
    assert census.orbit_count == math.comb(n + m - 1, m - 1)
    for part, (count, size) in census.by_partition().items():
        assert count == part.perm_count(m)
        assert size == part.orbit_size()
    total = sum(count * size for count, size in census.by_partition().values())
    assert total == m ** n


def test_census_identities_cyclic_shift_5_at_degree_20():
    # criterion 4 on 10,626 orbits, which the census types without classify
    census = orbit_census(20, SetSolution.cyclic_shift(5), cap=5 ** 20)
    assert census.orbit_count == 10626
    _assert_census_identities(census, 5, 20)


def test_census_identities_cyclic_shift_5_at_degree_30():
    # 46,376 orbits of 30 letters (5^30 words) at the default cap
    _assert_census_identities(orbit_census(30, SetSolution.cyclic_shift(5)), 5, 30)


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_census_identities_cyclic_shift_5_at_degree_40():
    # 135,751 orbits of 40 letters (5.4 million letters) at the default cap
    _assert_census_identities(orbit_census(40, SetSolution.cyclic_shift(5)), 5, 40)


def _assert_invariant_types_match_classify(cases):
    count = 0
    for name, n, s in cases:
        for summary in orbit_census(n, s).orbits:
            assert summary.partition == classify(summary.representative, s).partition, (name, n)
            count += 1
    return count


def test_invariant_types_match_classify():
    assert _assert_invariant_types_match_classify(_census_cases()) == 663


def _solutions(max_m, rng):
    """Every involutive catalog entry, the shift and the flip for
    m = 1 .. max_m and three permutation solutions drawn from rng for
    m = 2 .. max_m."""
    solutions = [build_entry(n).solution for n in catalog_names() if build_entry(n).involutive]
    for m in range(1, max_m + 1):
        solutions += [SetSolution.cyclic_shift(m), SetSolution.flip(m)]
        if m >= 2:
            solutions += [SetSolution.permutation(rng.sample(range(m), m)) for _ in range(3)]
    return solutions


def _sweep_cases(max_m, max_words, seed):
    """``_solutions(max_m)`` at every degree n with m^n <= max_words
    (n <= 12 for m = 1)."""
    for s in _solutions(max_m, random.Random(seed)):
        n = 1
        while s.size ** n <= max_words and n <= 12:
            yield s.table, n, s
            n += 1


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_invariant_types_match_classify_extended():
    assert _assert_invariant_types_match_classify(_sweep_cases(7, 2 * 10 ** 5, seed=12)) == 23839


def _ref_invariant(word, s):
    """Multiplicities of y_i = sigma_{x_1} o ... o sigma_{x_{i-1}}(x_i), one word at a time."""
    counts = [0] * s.size
    for i, x in enumerate(word):
        for p in reversed(word[:i]):
            x = s.sigma(p, x)
        counts[x] += 1
    return counts


def test_invariant_is_constant_on_orbits():
    # the multiset of y-letters itself, not only its type, is one per orbit
    for name, n, s in _census_cases():
        orbs = BraidOrbits(s).orbits(n)
        invariant = np.array([_ref_invariant(w, s) for w in product(range(s.size), repeat=n)])
        first = invariant[orbs.order[orbs.starts[:-1]]]
        assert np.array_equal(invariant, first[orbs.label]), (name, n)


# -- the census as the orbit graph gives it, kept as the reference: the least
# -- word of each orbit by following the head nodes down the degrees, its
# -- size from the graph and its type from the y-letters of that word


def _graph_least_words(orbs):
    """The letters of every orbit's least word, one row per orbit: the least
    word of the orbit of node (P, y) is P's least word followed by y."""
    letters = []
    orbit, degree = np.arange(orbs.count), orbs
    while degree.below is not None:
        orbit, letter = np.divmod(degree.heads[orbit], degree.m)
        letters.append(letter)
        degree = degree.below
    return np.array(letters[::-1], dtype=np.int64).reshape(-1, orbs.count).T


def _graph_census(n, s):
    orbs = BraidOrbits(s).orbits(n)
    return [
        (word, size, Partition(sorted((c for c in _ref_invariant(word, s) if c), reverse=True)))
        for word, size in zip(map(tuple, _graph_least_words(orbs).tolist()), orbs.sizes.tolist())
    ]


def _census_triples(census):
    return [(o.representative, o.size, o.partition) for o in census.orbits]


def _assert_census_matches_graph(cases):
    count = 0
    for name, n, s in cases:
        got = _census_triples(orbit_census(n, s))
        assert got == _graph_census(n, s), (name, n)
        count += len(got)
    return count


def test_census_matches_graph_census():
    # representative, size and partition of every orbit, in order
    assert _assert_census_matches_graph(_census_cases()) == 663


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_census_matches_graph_census_extended():
    assert _assert_census_matches_graph(_sweep_cases(7, 2 * 10 ** 5, seed=12)) == 23839


@pytest.mark.parametrize("mutation", ["tau", "letter counts"])
def test_census_catches_a_wrong_invariant(monkeypatch, mutation):
    # a census whose y-letters read tau in place of sigma, or no map at all
    # (plain letter counts), disagrees with the graph census on z3-shift
    s = build_entry("z3-shift").solution
    m = s.size
    if mutation == "tau":
        table = np.array([s.tau_map(p) for p in range(m)])
    else:
        table = np.tile(np.arange(m), (m, 1))
    real = orbits_module._least_words
    monkeypatch.setattr(
        orbits_module, "_least_words", lambda letters, counts, sigma: real(letters, counts, table)
    )
    assert _census_triples(orbit_census(4, s)) != _graph_census(4, s)


def test_census_classifies_only_for_witnesses(monkeypatch):
    # without witnesses classify is never called; with them, a classify
    # that disagrees with the invariant is refused
    calls = []

    def one_block(word, s):
        calls.append(word)
        return ClassifyResult(Partition([len(word)]), tuple(word), ())

    monkeypatch.setattr(orbits_module, "classify", one_block)
    for name, n, s in _census_cases():
        assert all(o.witness is None for o in orbit_census(n, s).orbits)
    assert calls == []
    with pytest.raises(AssertionError, match=r"^classify types \(0, 0\) as Partition\(2,\), the"):
        orbit_census(2, Z3, witnesses=True)


def test_letters_outside_the_alphabet_are_rejected():
    # each public entry checks the letters once: a negative letter used to
    # index from the end of the table, a too-large one to pass unchecked;
    # every word below ends in a bad letter
    for word in ((0, 2, -1), (0, 3), (-1,), (1, 0, 3), (0, 1.0), (0, "1"), (None,)):
        calls = [
            lambda: classify(word, Z3),
            lambda: is_lambda_element(word, Z3),
            lambda: maximal_blocks(word, Z3),
            lambda: orbit_words(word, Z3),
            lambda: exchange(word, (0, 1), (1, 1), Z3),
            lambda: psi(2, word[-1], Z3),
        ]
        if len(word) >= 2:
            calls.append(lambda: act(1, word, Z3))
        for call in calls:
            with pytest.raises(ValueError, match=r"letter .* (not in|not an integer in) 0\.\.2 \(m = 3\)"):
                call()
    with pytest.raises(ValueError, match=r"^letter -1 is not in 0\.\.2 \(m = 3\)$"):
        classify((0, -1, 2), Z3)
    with pytest.raises(ValueError, match=r"^letter 3 is not in 0\.\.2 \(m = 3\)$"):
        classify((0, 3), Z3)
    with pytest.raises(ValueError, match=r"^letter 1\.5 is not an integer in 0\.\.2 \(m = 3\)$"):
        is_lambda_element((1.5,), Z3)
    # integer types other than int are letters
    assert classify(tuple(np.arange(3)), Z3) == classify((0, 1, 2), Z3)


# -- the classifier before it read the solution into one view per call, kept
# -- as the reference: tuple words, every helper reads the solution itself


def _ref_act(k, w, s):
    p, q = w[k - 1], w[k]
    a, b = s.r(p, q)
    return w[: k - 1] + (a, b) + w[k + 1 :]


def _ref_psi_neg(k, b, s):
    D = diagonal(s)
    out = [b]
    cur = b
    for _ in range(k - 1):
        cur = D.inverse(cur)
        out.append(cur)
    return tuple(out)


def _ref_sigma_of_word(word, y, s):
    for letter in reversed(word):
        y = s.sigma(letter, y)
    return y


def _ref_tau_of_word(word, x, s):
    for letter in word:
        x = s.tau(letter, x)
    return x


def _ref_maximal_blocks(w, s):
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


def _ref_condition_violation(blocks, w, s):
    D = diagonal(s)
    k = len(blocks)
    offsets = [0]
    for length, _ in blocks:
        offsets.append(offsets[-1] + length)
    for i in range(k - 1):
        for j in range(i + 1, k):
            middle = w[offsets[i + 1] : offsets[j]]
            value = _ref_tau_of_word(middle, blocks[i][1], s)
            value = D.power(value, -blocks[j][0])
            if blocks[j][1] == value:
                return (i, j)
    return None


def _ref_is_lambda_element(w, s):
    blocks = _ref_maximal_blocks(w, s)
    lengths = [length for length, _ in blocks]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return None
    if len(blocks) > s.size:
        return None
    if _ref_condition_violation(blocks, w, s) is not None:
        return None
    return Partition(lengths)


def _ref_validate_block(w, start, length, s):
    D = diagonal(s)
    for i in range(start + 1, start + length):
        if w[i] != D.inverse(w[i - 1]):
            raise MalformedBlocks(f"span [{start}, {start + length}) is not a Psi-word")
    return w[start + length - 1]


def _ref_exchange_with_moves(w, block_a, block_b, s):
    start, k = block_a
    start_b, t = block_b
    if start_b != start + k:
        raise MalformedBlocks("blocks are not adjacent")
    if start < 0 or start_b + t > len(w) or k < 1 or t < 1:
        raise MalformedBlocks("block spans out of range")
    x = _ref_validate_block(w, start, k, s)
    y = _ref_validate_block(w, start_b, t, s)
    D = diagonal(s)
    a_word = w[start : start + k]
    b_word = w[start_b : start_b + t]
    head = _ref_sigma_of_word(a_word, D.power(y, t - 1), s)
    new_left = _ref_psi_neg(t, head, s)
    new_right = psi(k, _ref_tau_of_word(b_word, x, s), s)
    expected = w[:start] + new_left + new_right + w[start_b + t :]
    moves = exchange_moves(start, k, t)
    replayed = w
    for move in moves:
        replayed = _ref_act(move, replayed, s)
    if replayed != expected:
        raise AssertionError("exchange-rule formula disagrees with generator replay")
    return expected, moves


def _ref_classify(w, s):
    if not w:
        raise ValueError("empty word")
    moves = []
    current = tuple(w)
    while True:
        while True:
            blocks = _ref_maximal_blocks(current, s)
            swap_at = next(
                (i for i in range(len(blocks) - 1) if blocks[i][0] < blocks[i + 1][0]),
                None,
            )
            if swap_at is None:
                break
            offset = sum(length for length, _ in blocks[:swap_at])
            current, mv = _ref_exchange_with_moves(
                current,
                (offset, blocks[swap_at][0]),
                (offset + blocks[swap_at][0], blocks[swap_at + 1][0]),
                s,
            )
            moves.extend(mv)
        violation = _ref_condition_violation(blocks, current, s)
        if violation is None:
            part = Partition([length for length, _ in blocks])
            if _ref_is_lambda_element(current, s) != part:
                raise AssertionError("classifier output failed the lambda-element check")
            return ClassifyResult(part, current, tuple(moves))
        i, j = violation
        lengths = [length for length, _ in blocks]
        pos = j
        while pos > i + 1:
            offset = sum(lengths[: pos - 1])
            current, mv = _ref_exchange_with_moves(
                current,
                (offset, lengths[pos - 1]),
                (offset + lengths[pos - 1], lengths[pos]),
                s,
            )
            moves.extend(mv)
            lengths[pos - 1], lengths[pos] = lengths[pos], lengths[pos - 1]
            pos -= 1
        merged = _ref_maximal_blocks(current, s)
        if len(merged) >= len(blocks):
            raise AssertionError("expected merge did not reduce the block count")


def _classify_corpus(max_m, max_length, seed):
    """Seeded (word, solution) pairs over ``_solutions(max_m)``: per solution
    and length, three uniform words and three concatenations of random
    Psi-blocks, whose long blocks the classifier must split and merge."""
    rng = random.Random(seed)
    for s in _solutions(max_m, rng):
        m = s.size
        for length in range(1, max_length + 1):
            for _ in range(3):
                yield tuple(rng.randrange(m) for _ in range(length)), s
            for _ in range(3):
                word = ()
                while len(word) < length:
                    block = rng.randint(1, length - len(word))
                    word += psi(block, rng.randrange(m), s)
                yield word, s


def _assert_classify_matches_reference(corpus):
    # the reference's partition, a witness that is a lambda-element of that
    # type by the reference definition, and moves that replay to it
    count = 0
    for word, s in corpus:
        result = classify(word, s)
        assert result.partition == _ref_classify(word, s).partition, (word, s.table)
        assert _ref_is_lambda_element(result.witness, s) == result.partition, (word, s.table)
        replayed = word
        for k in result.moves:
            replayed = _ref_act(k, replayed, s)
        assert replayed == result.witness, (word, s.table)
        count += 1
    return count


def test_classify_matches_reference():
    assert _assert_classify_matches_reference(_classify_corpus(8, 24, seed=10)) >= 5000


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_classify_matches_reference_extended():
    assert _assert_classify_matches_reference(_classify_corpus(12, 40, seed=11)) >= 14000


def test_classify_fixes_lambda_elements():
    # a lambda-element comes back unchanged with no moves, and each census
    # witness is classify's witness of the orbit's least word
    count = 0
    for name, n, s in _census_cases():
        for summary in orbit_census(n, s, witnesses=True).orbits:
            witness = summary.witness
            assert witness == classify(summary.representative, s).witness, (name, n)
            assert classify(witness, s) == ClassifyResult(summary.partition, witness, ()), (name, n)
            count += 1
    assert count == 663


def _assert_is_lambda_element_matches_reference(solutions, max_words):
    # every word of every degree n with max(m, 2)^n <= max_words
    count = 0
    for s in solutions:
        n = 1
        while max(s.size, 2) ** n <= max_words:
            for word in product(range(s.size), repeat=n):
                got = is_lambda_element(word, s)
                assert got == _ref_is_lambda_element(word, s), (word, s.table)
                count += 1
            n += 1
    return count


def test_is_lambda_element_matches_reference():
    solutions = _solutions(8, random.Random(10))
    assert _assert_is_lambda_element_matches_reference(solutions, 2 ** 12) == 177213


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_is_lambda_element_matches_reference_extended():
    solutions = _solutions(12, random.Random(11))
    assert _assert_is_lambda_element_matches_reference(solutions, 2 ** 15) == 1460769
    # every witness of the 46,376 orbits of cyclic_shift(5) at n = 30
    s = SetSolution.cyclic_shift(5)
    census = orbit_census(30, s, witnesses=True)
    assert census.orbit_count == 46376
    for summary in census.orbits:
        assert is_lambda_element(summary.witness, s) == summary.partition


def _eager_pos(orbs):
    pos = np.empty_like(orbs.order)
    pos[orbs.order] = np.arange(orbs.order.size)
    pos -= orbs.starts[orbs.label]
    return pos


def test_lazy_pos_equals_eager_formula():
    for name, n, s in _census_cases():
        orbs = BraidOrbits(s).orbits(n)
        assert "pos" not in vars(orbs)
        pos = orbs.pos
        eager = _eager_pos(orbs)
        assert pos.dtype == eager.dtype and np.array_equal(pos, eager), (name, n)
        for o in range(orbs.count):
            assert np.array_equal(pos[orbs.words(o)], np.arange(len(orbs.words(o))))


def test_column_words_pick_from_node_words():
    # a pick of the nodes' words, node after node, without the others
    rng = random.Random(5)
    for name, n, s in _census_cases():
        orbs = BraidOrbits(s).orbits(n)
        nodes = np.array(sorted(rng.sample(range(orbs.links.size), min(6, orbs.links.size))))
        words = orbs.node_words(nodes)
        columns = np.array(sorted(rng.sample(range(words.size), rng.randint(1, words.size))))
        got = orbs.column_words(nodes, columns)
        assert np.array_equal(got, words[columns]), (name, n)


def test_derived_arrays_at_large_degree_without_recursion():
    # each derived array is built from the degree below, bottom-up in a
    # loop: reading it first at degree 3000 must not recurse per degree
    orbs = BraidOrbits(SetSolution.flip(1)).orbits(3000)
    assert orbs.count == 1 and _graph_least_words(orbs).tolist() == [[0] * 3000]
    for name in ("label", "pos", "order"):
        assert getattr(orbs, name).tolist() == [0], name


def test_census_leaves_pos_unbuilt(monkeypatch):
    # the census lists the multisets: it builds no orbit graph, and so no
    # array over the m^n words
    for array in ("label", "order", "pos"):

        def unread(self, array=array):
            raise AssertionError(f"orbit_census read {array}")

        monkeypatch.setattr(orbits_module._Orbits, array, property(unread))

    def unbuilt(self, k):
        raise AssertionError("orbit_census built the orbit graph")

    monkeypatch.setattr(BraidOrbits, "orbits", unbuilt)
    for name, n, s in _census_cases():
        orbit_census(n, s, witnesses=True)
