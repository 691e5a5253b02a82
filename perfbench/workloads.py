"""The four benchmark workloads: seeded inputs, library calls and answer checks.

``prepare(workload, seed, variant)`` is the set-up a CLI call pays (catalog
builds, relabelling, hexagon and solution validation, prime selection) and
returns the jobs of one pass.  Each job is one call into the library plus a
check of its answer against a value known in advance.  The library is always
called through its module attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ybnichols import catalog, exact, nichols, orbits, ybe

import inputs


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # the problems found; empty when correct


# ---------------------------------------------------------------------------
# expected values, computed without the library


def finite_profile(m: int, n: int) -> tuple:
    """Coefficients of (1 + t + ... + t^(n-1))^m: the graded dimensions under
    the finite-type hypotheses, ending with the first vanishing degree."""
    profile = [1]
    for _ in range(m):
        out = [0] * (len(profile) + n - 1)
        for i, x in enumerate(profile):
            for j in range(n):
                out[i + j] += x
        profile = out
    return tuple(profile) + (0,)


def convolve(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def growth_profile(m: int, cap: int) -> tuple:
    return tuple(math.comb(k + m - 1, m - 1) for k in range(cap + 1))


def word_orbit_size(parts) -> int:
    """n! / (lambda_1! ... lambda_k!)"""
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


def partition_count(parts, m: int) -> int:
    """Distinct arrangements of the parts, padded with zeros, in m slots."""
    out = math.factorial(m)
    for mult in Counter(tuple(parts) + (0,) * (m - len(parts))).values():
        out //= math.factorial(mult)
    return out


RACK72_PROFILE = (1, 4, 8, 11, 12, 12, 11, 8, 4, 1, 0)

# (catalog name, q override, m, n): the criterion-1 theorem cases
THEOREM_CASES = (
    ("z2-shift", None, 2, 2),
    ("z2-shift", "zeta3", 2, 3),
    ("z2-shift", "zeta4", 2, 4),
    ("z2-shift", "zeta5", 2, 5),
    ("z3-shift", "-1", 3, 2),
    ("z3-shift", "zeta3", 3, 3),
    ("z4-shift1", None, 4, 2),
    ("x4-sigma", None, 4, 2),
    ("x4-sigma", "zeta3", 4, 3),
)

# z4-shift2 splits as {0,2} | {1,3} with q = -1 and q = zeta3 on the parts
Z4_SHIFT2_PROFILE = convolve(finite_profile(2, 2)[:-1], finite_profile(2, 3)[:-1]) + (0,)

DEGREE2_COMPLETE = ("z2-shift", "z3-shift", "z4-shift1", "x4-sigma")

GROWTH_CASES = (("z2-shift", 14), ("z3-shift", 9), ("z4-shift1", 8))

# small enough that a pass takes well under a second, so a run has dozens
# of passes and every job's fastest time is a steady figure
CENSUS_CASES = (("z3-shift", 9), ("x4-sigma", 7), ("z4-shift2", 7))
PERMUTATION_SIZE, PERMUTATION_DEGREE = 7, 5
CLASSIFY_WORDS, CLASSIFY_LENGTHS = 60, (12, 24)
SHIFT_SIZE = 40


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _relabelled_entry(name, rng, overrides=None):
    entry = catalog.build_entry(name, overrides)
    pi = inputs.random_permutation(rng, entry.solution.size)
    return entry, pi, inputs.relabel_system(entry.system, pi)


# ---------------------------------------------------------------------------
# rack72


def _check_rack72(primes):
    def check(graded) -> list:
        problems: list = []
        _expect(problems, graded.dims == RACK72_PROFILE, f"profile {graded.dims}")
        _expect(problems, graded.total == 72, f"total {graded.total}")
        _expect(problems, graded.terminated == "zero", f"terminated {graded.terminated}")
        modular = [r for r in graded.provenance if r.mode.startswith("modular")]
        _expect(problems, bool(modular), "modular arithmetic never ran")
        _expect(problems, all(r.agreed for r in modular), "modular degrees disagreed")
        _expect(
            problems,
            all(tuple(r.primes) == tuple(primes) for r in modular),
            "modular degrees did not run at the two set-up primes",
        )
        _expect(problems, any(r.escalated for r in graded.provenance), "no escalation")
        last = graded.provenance[-1]
        _expect(
            problems,
            last.dim == 0 and last.mode in ("exact", "modular+exact"),
            f"vanishing degree not exact-backed: {last}",
        )
        return problems

    return check


def _rack72(seed: int, variant: int) -> list:
    rng = inputs.rng_for("rack72", seed, variant)
    jobs = []
    for name in ("w1", "w6"):
        _, _, cs = _relabelled_entry(name, rng)
        primes = tuple(exact.primes_for_order(cs.order, count=2))
        jobs.append(
            Job(
                f"dims {name}",
                lambda cs=cs, primes=primes: nichols.graded_dims(cs, cap=16, primes=primes),
                _check_rack72(primes),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# theorem


def _check_finite(cs, expected: tuple, use_oracle: bool):
    def check(graded) -> list:
        problems: list = []
        _expect(problems, graded.dims == expected, f"dims {graded.dims} != {expected}")
        _expect(problems, graded.total == sum(expected), f"total {graded.total}")
        _expect(
            problems,
            all(r.mode in ("trivial", "exact") for r in graded.provenance),
            "a degree left exact arithmetic",
        )
        if use_oracle:
            oracle = [nichols.orbit_count_oracle(cs, k) for k in range(len(graded.dims))]
            _expect(problems, list(graded.dims) == oracle, f"oracle {oracle}")
        return problems

    return check


def _check_true(value) -> list:
    return [] if value is True else [f"returned {value!r}"]


def _degree2_span(cs):
    dim2 = nichols.graded_dims(cs, cap=2, mode="exact").dims[2]
    span = nichols.degree2_relation_rank(cs, nichols.theorem_relations(cs))
    return cs.size ** 2 - dim2, span


def _check_equal_pair(pair) -> list:
    expected, got = pair
    return [] if expected == got else [f"degree-2 span {got} != {expected}"]


def _theorem(seed: int, variant: int) -> list:
    rng = inputs.rng_for("theorem", seed, variant)
    jobs = []
    for name, q, m, n in THEOREM_CASES:
        overrides = {"q": catalog.parse_scalar(q)} if q else None
        _, _, cs = _relabelled_entry(name, rng, overrides)
        jobs.append(
            Job(
                f"dims {name} q={q or 'default'}",
                lambda cs=cs: nichols.graded_dims(cs, cap=16, mode="exact", exact_cap=4 ** 10),
                _check_finite(cs, finite_profile(m, n), use_oracle=True),
            )
        )
    _, _, cs = _relabelled_entry("z4-shift2", rng)
    jobs.append(
        Job(
            "dims z4-shift2",
            lambda cs=cs: nichols.graded_dims(cs, cap=16, mode="exact", exact_cap=4 ** 8),
            _check_finite(cs, Z4_SHIFT2_PROFILE, use_oracle=False),
        )
    )
    for name in catalog.catalog_names():
        entry, pi, cs = _relabelled_entry(name, rng)
        for label, terms in entry.relations:
            jobs.append(
                Job(
                    f"relation {name}: {label}",
                    lambda cs=cs, terms=inputs.relabel_terms(terms, pi): nichols.check_relation(
                        cs, terms
                    ),
                    _check_true,
                )
            )
        if name in DEGREE2_COMPLETE:
            jobs.append(
                Job(f"degree-2 span {name}", lambda cs=cs: _degree2_span(cs), _check_equal_pair)
            )
    return jobs


# ---------------------------------------------------------------------------
# growth-q2


def _check_growth(expected: tuple):
    def check(graded) -> list:
        problems: list = []
        _expect(problems, graded.dims == expected, f"dims {graded.dims} != {expected}")
        _expect(problems, graded.terminated == "cap", f"terminated {graded.terminated}")
        return problems

    return check


def _growth(seed: int, variant: int) -> list:
    rng = inputs.rng_for("growth-q2", seed, variant)
    jobs = []
    two = catalog.parse_scalar("2")
    for name, cap in GROWTH_CASES:
        _, _, cs = _relabelled_entry(name, rng, {"q": two})
        m = cs.size
        jobs.append(
            Job(
                f"dims {name} q=2 cap={cap}",
                lambda cs=cs, cap=cap, m=m: nichols.graded_dims(
                    cs, cap=cap, mode="exact", exact_cap=m ** cap
                ),
                _check_growth(growth_profile(m, cap)),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# census


def _check_census(n: int, m: int):
    def check(census) -> list:
        problems: list = []
        _expect(
            problems,
            census.orbit_count == math.comb(n + m - 1, m - 1),
            f"orbit count {census.orbit_count}",
        )
        total = 0
        for part, (count, size) in census.by_partition().items():
            _expect(problems, count == partition_count(part.parts, m), f"count of {part}")
            _expect(problems, size == word_orbit_size(part.parts), f"size of {part}")
            total += count * size
        _expect(problems, total == m ** n, f"orbits cover {total} != {m ** n} words")
        return problems

    return check


def _check_classify(word, s):
    def check(result) -> list:
        problems: list = []
        _expect(
            problems,
            orbits.act_sequence(result.moves, word, s) == result.witness,
            "moves do not carry the word to the witness",
        )
        _expect(
            problems,
            orbits.is_lambda_element(result.witness, s) == result.partition,
            f"witness is not a lambda-element of type {result.partition}",
        )
        _expect(problems, result.partition.n == len(word), "partition of the wrong size")
        return problems

    return check


def _check_classify_all(cases):
    """One check over a batch of (word, solution) classifications."""

    def check(results) -> list:
        problems: list = []
        for (word, s), result in zip(cases, results, strict=True):
            problems += [f"{word}: {p}" for p in _check_classify(word, s)(result)]
        return problems

    return check


def _verify_and_phi(s):
    return ybe.verify_solution(s), ybe.phi_invariant(s)


def _check_shift(m: int):
    expected_sizes = (1,) * m + (2,) * ((m * m - m) // 2)

    def check(pair) -> list:
        report, phi = pair
        problems: list = []
        _expect(
            problems,
            report.is_ybe and report.is_nondegenerate and report.is_involutive,
            "shift solution failed verification",
        )
        _expect(problems, phi.sizes == expected_sizes, "phi invariant of the shift")
        return problems

    return check


def _census(seed: int, variant: int) -> list:
    rng = inputs.rng_for("census", seed, variant)
    jobs = []
    solutions = []
    for name, n in CENSUS_CASES:
        base = catalog.build_entry(name).solution
        s = inputs.relabel_solution(base, inputs.random_permutation(rng, base.size))
        solutions.append(s)
        jobs.append(
            Job(
                f"census {name} n={n}",
                lambda s=s, n=n: orbits.orbit_census(n, s),
                _check_census(n, s.size),
            )
        )
    s = inputs.permutation_solution(rng, PERMUTATION_SIZE)
    solutions.append(s)
    jobs.append(
        Job(
            f"census permutation m={PERMUTATION_SIZE} n={PERMUTATION_DEGREE}",
            lambda s=s: orbits.orbit_census(PERMUTATION_DEGREE, s),
            _check_census(PERMUTATION_DEGREE, PERMUTATION_SIZE),
        )
    )
    # one job for all the words: a pass's batch has a steadier total work
    # than any single random word
    cases = []
    for index in range(CLASSIFY_WORDS):
        s = solutions[index % len(solutions)]
        cases.append((inputs.random_word(rng, s.size, CLASSIFY_LENGTHS), s))
    jobs.append(
        Job(
            f"classify {CLASSIFY_WORDS} words",
            lambda: [orbits.classify(word, s) for word, s in cases],
            _check_classify_all(cases),
        )
    )
    shift = inputs.relabel_solution(
        ybe.SetSolution.cyclic_shift(SHIFT_SIZE), inputs.random_permutation(rng, SHIFT_SIZE)
    )
    jobs.append(
        Job(
            f"verify shift m={SHIFT_SIZE}",
            lambda: _verify_and_phi(shift),
            _check_shift(SHIFT_SIZE),
        )
    )
    return jobs


WORKLOADS = {
    "rack72": _rack72,
    "theorem": _theorem,
    "growth-q2": _growth,
    "census": _census,
}


def prepare(workload: str, seed: int, variant: int) -> list:
    """Build, relabel and validate one pass's inputs; returns its jobs."""
    return WORKLOADS[workload](seed, variant)
