"""Command-line front end.

Commands: verify | orbits | dims | relations | phi | catalog.
Inputs are catalog names or JSON files (a bare solution table, or a
coefficient file with "solution", "cyclotomic_order" and "R" keys).
Exit codes: 0 all checks pass, 1 mathematical mismatch, 2 input error,
141 (128 + SIGPIPE, as a shell reports a pipe writer it stopped) when the
reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import catalog as cat
from .exact import BadPrime
from .nichols import (
    CapExceeded,
    CoefficientSystem,
    canonical_coefficients,
    graded_dims,
    relation_support,
)
from .orbits import orbit_census
from .ybe import (
    NotInvolutive,
    NotNondegenerate,
    NotYangBaxter,
    SetSolution,
    TooLarge,
    cached_report,
    decompose,
    diagonal,
    phi_invariant,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_PIPE = 141


class InputError(Exception):
    pass


def _emit(data, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2))


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _is_catalog_name(target: str) -> bool:
    return target in cat.catalog_names() or target in cat._ALIASES


def _load_target(target: str) -> dict:
    """The JSON content of a target that is not a catalog name."""
    if not Path(target).exists():
        raise InputError(f"{target!r} is neither a catalog name nor an existing file")
    return _load_json_file(target)


# what parsing a table out of JSON raises on a malformed one: also a
# denominator of 0 ("1/0") and a number JSON reads as infinity (1e400)
_MALFORMED = (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, OverflowError)


def _solution_from(target: str, data) -> SetSolution:
    """The solution in a solution file (bare, or under a "solution" key)."""
    if isinstance(data, dict) and "solution" in data:
        data = data["solution"]
    try:
        return SetSolution.from_json(data)
    except _MALFORMED as exc:
        raise InputError(f"{target}: not a solution file: {exc}") from exc


def _resolve_solution(target: str) -> tuple[SetSolution, cat.CatalogEntry | None]:
    """A catalog name or a JSON file path -> (solution, entry-or-None)."""
    if _is_catalog_name(target):
        entry = cat.build_entry(target)
        return entry.solution, entry
    return _solution_from(target, _load_target(target)), None


def _parse_overrides(args) -> dict:
    """The --param name=value pairs and --q (the parameter q), each
    parameter given at most once."""
    items = []
    for item in args.param or []:
        if "=" not in item:
            raise InputError(f"--param expects name=value, got {item!r}")
        key, _, value = item.partition("=")
        items.append((key.strip(), value.strip()))
    if getattr(args, "q", None) is not None:
        items.append(("q", args.q))
    overrides = {}
    for key, value in items:
        if key in overrides:
            raise InputError(f"parameter {key!r} given more than once")
        try:
            overrides[key] = cat.parse_scalar(value)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return overrides


def _refuse_overrides(target: str, kind: str, args, keys) -> None:
    """InputError naming the flags that a file of this kind does not read."""
    if keys:
        flags = ", ".join(
            "--q" if key == "q" and args.q is not None else f"--param {key}" for key in keys
        )
        raise InputError(f"{target}: a {kind} does not take {flags}")


def _resolve_system(target: str, args) -> tuple[CoefficientSystem, cat.CatalogEntry | None]:
    """Resolve to a validated coefficient system.

    Catalog names honor --q / --param overrides.  A coefficient JSON file is
    taken verbatim and takes neither; a bare solution file needs --q, takes
    no other parameter, and gets the canonical assignment (q on fixed
    pairs, 1 elsewhere).
    """
    overrides = _parse_overrides(args)
    if _is_catalog_name(target):
        try:
            entry = cat.build_entry(target, overrides or None)
        except ValueError as exc:  # constraint, hexagon or zero-entry violations
            raise InputError(str(exc)) from exc
        return entry.system, entry
    data = _load_target(target)
    if isinstance(data, dict) and "R" in data:
        try:
            system = CoefficientSystem.from_json(data)
        except _MALFORMED as exc:
            raise InputError(f"{target}: {exc}") from exc
        _refuse_overrides(target, "coefficient file", args, list(overrides))
        return system, None
    solution = _solution_from(target, data)
    _refuse_overrides(target, "bare solution file", args, [k for k in overrides if k != "q"])
    if "q" not in overrides:
        raise InputError("a bare solution file needs --q for the canonical braiding")
    try:
        return canonical_coefficients(solution, overrides["q"]), None
    except ValueError as exc:  # hexagon, non-involutive or zero-q failures
        raise InputError(f"canonical coefficients rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    solution, entry = _resolve_solution(args.target)
    report = cached_report(solution)  # diagonal and decompose read the same report
    payload = {
        "name": entry.name if entry else args.target,
        "size": solution.size,
        "is_ybe": report.is_ybe,
        "is_nondegenerate": report.is_nondegenerate,
        "is_involutive": report.is_involutive,
    }
    if not report.is_ybe:
        payload["ybe_failures"] = [
            {"triple": list(t), "lhs": list(lhs), "rhs": list(rhs)}
            for t, lhs, rhs in report.ybe_failures[:10]
        ]
    if not report.is_nondegenerate:
        payload["nondegeneracy_failures"] = [list(f) for f in report.nondegeneracy_failures]
    if report.is_involutive and report.is_nondegenerate:
        D = diagonal(solution)
        payload["diagonal"] = list(D.forward)
        parts = decompose(solution)
        payload["decomposition"] = None if parts is None else [list(p) for p in parts]
    payload["phi"] = phi_invariant(solution).to_json()
    if args.json:
        _emit(payload, True)
    else:
        print(f"solution {payload['name']} (size {solution.size})")
        print(f"  Yang-Baxter identity : {'ok' if report.is_ybe else 'FAIL'}")
        if not report.is_ybe:
            t, lhs, rhs = report.ybe_failures[0]
            print(f"    first failing triple {t}: {lhs} != {rhs}")
        print(f"  non-degenerate       : {'ok' if report.is_nondegenerate else 'FAIL'}")
        print(f"  involutive           : {'yes' if report.is_involutive else 'no'}")
        if "diagonal" in payload:
            print(f"  diagonal D           : {payload['diagonal']}")
            dec = payload.get("decomposition")
            print(f"  decomposition        : {dec if dec else 'indecomposable'}")
        print(f"  phi invariant        : l = {payload['phi']['l']}")
    return EXIT_OK if (report.is_ybe and report.is_nondegenerate) else EXIT_MISMATCH


def cmd_orbits(args) -> int:
    if args.n < 1:
        raise InputError("degree n must be >= 1")
    solution, entry = _resolve_solution(args.target)
    try:
        census = orbit_census(args.n, solution, cap=args.cap, witnesses=args.witness)
    except (NotInvolutive, NotNondegenerate, NotYangBaxter) as exc:
        raise InputError(f"orbit census refused: {exc}") from exc
    except TooLarge as exc:
        raise InputError(str(exc)) from exc
    payload = census.to_json()
    if args.witness:
        payload["orbit_list"] = [
            {
                "representative": "".join(map(str, o.representative)),
                "lambda": list(o.partition.parts),
                "size": o.size,
                "witness": "".join(map(str, o.witness)),
            }
            for o in census.orbits
        ]
    if args.csv:
        print("lambda,count,size")
        for row in payload["orbits"]:
            print(f"\"{' '.join(map(str, row['lambda']))}\",{row['count']},{row['size']}")
    elif args.json:
        _emit(payload, True)
    else:
        print(f"degree {args.n} census on {entry.name if entry else args.target}: "
              f"{census.orbit_count} orbits")
        for row in payload["orbits"]:
            print(f"  lambda={tuple(row['lambda'])}  count={row['count']}  size={row['size']}")
        if args.witness:
            for o in payload["orbit_list"]:
                print(f"  orbit {o['representative']}  lambda={tuple(o['lambda'])}"
                      f"  witness {o['witness']}")
    return EXIT_OK


def cmd_dims(args) -> int:
    system, entry = _resolve_system(args.target, args)
    if args.expect and entry is None:
        raise InputError("--expect needs a catalog entry")
    try:
        graded = graded_dims(
            system,
            cap=args.cap,
            mode="exact" if args.exact else "auto",
            exact_cap=args.exact_cap,
            primes=args.mod_primes,
        )
    except BadPrime as exc:
        raise InputError(str(exc)) from exc
    payload = graded.to_json()
    if entry is not None:
        payload["name"] = entry.name
        payload["expected_total"] = entry.expected_total
    ok, verdict = True, None
    if args.expect:
        expected = entry.expected_total if entry.point_ok else None
        ok = expected is not None and graded.total == expected
        payload["expect"] = {"expected_total": expected, "ok": ok}
        if expected is None:
            payload["expect"]["note"] = entry.expected_note
            verdict = f"no expectation at this parameter point ({entry.expected_note})"
        elif ok:
            verdict = f"expected total {expected}: ok"
        else:
            verdict = f"MISMATCH: computed total {graded.total}, expected {expected}"
    if args.json:
        _emit(payload, True)
    else:
        name = entry.name if entry else args.target
        print(f"graded dimensions for {name}: {list(graded.dims)}")
        if graded.total is not None:
            print(f"  total: {graded.total}")
        else:
            print(f"  truncated at cap (no vanishing degree witnessed)")
        for rec in graded.provenance:
            extra = ""
            if rec.primes:
                extra = f"  primes={list(rec.primes)} agreed={rec.agreed}"
            if rec.escalated:
                extra += "  escalated-to-exact"
            print(f"  degree {rec.degree}: dim {rec.dim} [{rec.mode}]{extra}")
        if verdict is not None:
            print(verdict)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_relations(args) -> int:
    system, entry = _resolve_system(args.target, args)
    if entry is None:
        raise InputError("relations are catalog data; give a catalog name")
    if not entry.relations:
        raise InputError(
            f"{entry.name} has no relation list at this parameter point"
            f" ({entry.expected_note})"
        )
    failures = 0
    results = []
    for label, terms in entry.relations:
        try:
            nonzero = relation_support(system, terms)
        except CapExceeded as exc:
            raise InputError(f"relation {label}: {exc}") from exc
        ok = nonzero == 0
        failures += 0 if ok else 1
        results.append({"relation": label, "ok": ok, "image_nonzero_coords": nonzero})
        if not args.json:
            status = "ok" if ok else f"FAIL ({nonzero} nonzero image coordinates)"
            print(f"  {label}: {status}")
    if args.json:
        _emit({"name": entry.name, "relations": results}, True)
    else:
        print(f"{len(entry.relations) - failures}/{len(entry.relations)} relations pass")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_phi(args) -> int:
    solution, entry = _resolve_solution(args.target)
    phi = phi_invariant(solution)
    if args.json:
        _emit({"name": entry.name if entry else args.target, **phi.to_json()}, True)
    else:
        print(f"phi invariant of {entry.name if entry else args.target}: l = {list(phi.l_vector)}"
              f"  (orbit sizes {list(phi.sizes)})")
    return EXIT_OK


def cmd_catalog(args) -> int:
    rows = []
    for name in cat.catalog_names():
        entry = cat.build_entry(name)
        rows.append(
            {
                "name": name,
                "size": entry.solution.size,
                "involutive": entry.involutive,
                "cyclotomic_order": entry.system.order,
                "expected_total": entry.expected_total,
                "params": {k: repr(v) for k, v in sorted(entry.params.items())},
                "notes": entry.notes,
            }
        )
    if args.json:
        _emit(rows, True)
    else:
        for row in rows:
            print(f"{row['name']:10s} m={row['size']}  involutive={str(row['involutive']):5s}"
                  f"  expected_total={row['expected_total']}  {row['notes']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_primes(text: str):
    try:
        primes = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from exc
    return primes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybnichols",
        description="Set-theoretic Yang-Baxter solutions and the graded "
        "dimensions and relations of their Nichols algebras, in exact arithmetic.",
    )
    # no prefix matching: a removed flag such as --mod must not turn into --mod-primes
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("verify", help="verify a solution table and report its invariants")
    p.add_argument("target", help="catalog name or solution JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbits", help="orbit census of the word action at one degree")
    p.add_argument("target")
    p.add_argument("-n", type=int, required=True, help="word length")
    p.add_argument("--witness", action="store_true",
                   help="list one canonical block word per orbit")
    p.add_argument("--csv", action="store_true", help="CSV census table")
    p.add_argument("--cap", type=_positive_int, default=10 ** 7,
                   help="most letters held by the least words, C(n+m-1, m-1) n")
    _add_common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("dims", help="graded dimensions of the Nichols algebra")
    p.add_argument("target")
    p.add_argument("--q", default=None, help='braiding parameter, e.g. "-1", "zeta3", "2"')
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="override one catalog parameter (repeatable)")
    p.add_argument("--cap", type=_positive_int, default=16, help="degree cap")
    p.add_argument("--exact", action="store_true", help="force exact arithmetic")
    p.add_argument("--expect", action="store_true",
                   help="compare against the catalog expectation (exit 1 on mismatch)")
    p.add_argument("--mod-primes", type=_parse_primes, default=None,
                   help="comma-separated primes for modular arithmetic, at least two distinct")
    p.add_argument("--exact-cap", type=_positive_int, default=4096,
                   help="largest tensor dimension handled exactly by default")
    _add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("relations", help="check the published defining relations")
    p.add_argument("target")
    p.add_argument("--q", default=None)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    _add_common(p)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("phi", help="cyclic-orbit invariant of r on X x X")
    p.add_argument("target")
    _add_common(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("catalog", help="list built-in examples")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader stopped early (say, `| head -1`): send what is left in
        # the buffer to devnull, so that the flush at exit does not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (cat.UnknownName, cat.ConstraintViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
