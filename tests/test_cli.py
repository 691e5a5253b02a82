import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ybnichols
from ybnichols import cli, ybe
from ybnichols.catalog import build_entry, catalog_names
from ybnichols.cli import main
from ybnichols.exact import CycloElement
from ybnichols.ybe import SetSolution


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_catalog_entry():
    code, out, _ = run_cli(["verify", "z3-shift"])
    assert code == 0
    assert "Yang-Baxter identity : ok" in out
    assert "diagonal D           : [2, 0, 1]" in out
    assert "indecomposable" in out


def test_verify_decomposable_entry():
    code, out, _ = run_cli(["verify", "z4-shift2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"] == [[0, 2], [1, 3]]


def test_verify_runs_one_braid_walk(monkeypatch):
    # verify, diagonal and decompose share one report of a solution not yet
    # cached
    calls = []
    real = ybe.verify_solution

    def counted(s):
        calls.append(s)
        return real(s)

    # a binding of its own in the command module is counted too
    for module in (ybe, cli):
        monkeypatch.setattr(module, "verify_solution", counted, raising=False)
    ybe.cached_report.cache_clear()
    code, _, _ = run_cli(["verify", "z4-shift2", "--json"])
    assert code == 0 and len(calls) == 1


def test_verify_corrupted_solution_file(tmp_path):
    table = [[[j, i] for j in range(3)] for i in range(3)]
    table[0][0] = [1, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 3, "r": table}))
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run_cli(["verify", str(path), "--json"])
    assert code == 1
    failures = json.loads(out)["ybe_failures"]
    assert 0 < len(failures) <= 10
    triples = [f["triple"] for f in failures]
    assert triples == sorted(triples) and triples[0] == [0, 0, 0]
    assert all(f["lhs"] != f["rhs"] for f in failures)


def test_verify_decomposes_past_sixteen_points(tmp_path):
    # the shift by two on 18 points splits into its evens and its odds
    path = tmp_path / "shift18.json"
    path.write_text(json.dumps(SetSolution.cyclic_shift(18, 2).to_json()))
    evens, odds = list(range(0, 18, 2)), list(range(1, 18, 2))
    code, out, _ = run_cli(["verify", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["decomposition"] == [evens, odds]
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 0
    assert f"decomposition        : {[evens, odds]}" in out


def test_malformed_json_is_an_input_error(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    code, _, err = run_cli(["verify", str(path)])
    assert code == 2
    assert "invalid JSON" in err


_FILE_COMMANDS = (["verify"], ["orbits", "-n", "3"], ["dims"], ["relations"], ["phi"])


def _file_input_fails(path, message):
    """Every command that reads a target file exits 2 on ``path``, with a
    message that names the file."""
    for command in _FILE_COMMANDS:
        code, out, err = run_cli([command[0], str(path), *command[1:]])
        assert code == 2 and out == "", command
        assert f"{path}: {message}" in err, (command, err)


def test_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    _file_input_fails(path, "not UTF-8 text")


def test_deeply_nested_json_is_an_input_error(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    _file_input_fails(path, "JSON nested too deeply")


def _fails_fast(argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert code == 2 and out == "" and message in err, (argv, err)
    assert time.perf_counter() - start < 1.0, argv


@pytest.mark.parametrize("q", ["1e99999999", "1E5", "2/3e4"])
def test_exponent_notation_q_is_an_input_error(q):
    # the exponent alone would ask for an integer of 10^8 digits
    _fails_fast(["dims", "z2-shift", "--q", q], f"cannot parse scalar {q!r}")
    _fails_fast(["dims", "z2-shift", "--param", f"q={q}"], f"cannot parse scalar {q!r}")


def test_exponent_notation_coefficient_is_an_input_error(tmp_path):
    path = _coefficient_file(tmp_path, "1e999999999")
    _fails_fast(["dims", path], "'1e999999999' is not a rational number")


def test_plain_decimal_q_is_a_rational():
    code, out, _ = run_cli(["dims", "z2-shift", "--q", "0.5", "--cap", "3", "--json"])
    assert code == 0 and json.loads(out)["dims"] == [1, 2, 3, 4]


def test_unknown_name_is_an_input_error():
    code, _, err = run_cli(["verify", "z9-shift"])
    assert code == 2


def test_orbits_census_and_usage_error():
    code, out, _ = run_cli(["orbits", "z3-shift", "-n", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert sum(row["count"] for row in payload["orbits"]) == 15
    code, _, err = run_cli(["orbits", "z3-shift", "-n", "0"])
    assert code == 2


def run_cli_process(argv, module="ybnichols.cli"):
    """The CLI run as ``python -m module`` in a fresh interpreter, killed
    after 30 s."""
    src = str(Path(ybnichols.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )


def test_package_runs_as_a_module():
    # python -m ybnichols goes through __main__.py, which exits with main()'s code
    proc = run_cli_process(["catalog", "--json"], module="ybnichols")
    assert proc.returncode == 0, proc.stderr
    assert [row["name"] for row in json.loads(proc.stdout)] == catalog_names()
    proc = run_cli_process(["verify", "z9-shift"], module="ybnichols")
    assert proc.returncode == 2 and "z9-shift" in proc.stderr


def test_orbits_huge_degree_exits_at_once():
    # the cap check builds the orbit count only until it passes the cap
    proc = run_cli_process(["orbits", "z2-shift", "-n", "99999999999"])
    assert proc.returncode == 2
    assert "C(100000000000, 1) orbits of 99999999999 letters exceed cap 10000000" in proc.stderr


def test_orbits_past_int64_word_counts_answer():
    # 2^64 and 4^32 words: no word index is formed, so both degrees answer
    for target, n, orbits in (("z2-shift", 64, 65), ("z4-shift1", 32, 6545)):
        code, out, err = run_cli(["orbits", target, "-n", str(n), "--json"])
        assert code == 0 and not err
        payload = json.loads(out)
        assert sum(row["count"] for row in payload["orbits"]) == orbits
        assert sum(row["count"] * row["size"] for row in payload["orbits"]) == 2 ** 64


@pytest.mark.parametrize(
    "table, reason",
    [
        # sigma_i is constant: degenerate (the braid equation holds)
        ([[[0, 0]] * 3] * 3, "non-degenerate"),
        # non-degenerate and involutive, but the braid equation fails
        (
            [
                [[1, 1], [0, 1], [2, 1]],
                [[2, 2], [0, 0], [1, 2]],
                [[2, 0], [0, 2], [1, 0]],
            ],
            "braid equation",
        ),
    ],
)
def test_orbits_refuses_invalid_tables(tmp_path, table, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 3, "r": table}))
    proc = run_cli_process(["orbits", "-n", "3", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: orbit census refused") and reason in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("size, letter", [(2.7, 1), (2, 1.5), (2, True)])
def test_non_integer_solution_files_are_input_errors(tmp_path, size, letter):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"size": size, "r": [[[letter, 0], [0, 1]], [[1, 0], [0, 1]]]}))
    for command in (["verify", str(path)], ["orbits", "-n", "2", str(path)]):
        code, out, err = run_cli(command)
        assert code == 2 and not out, command
        assert "not an integer" in err


def test_orbits_one_point_solution_at_large_degree(tmp_path):
    # m = 1 has one word per degree, so only the cap on n bounds the degree;
    # a census of one 2000-letter orbit answers
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"size": 1, "r": [[[0, 0]]]}))
    proc = run_cli_process(["orbits", str(path), "-n", "99999999999"])
    assert proc.returncode == 2
    assert "C(99999999999, 0) orbits of 99999999999 letters exceed cap 10000000" in proc.stderr
    proc = run_cli_process(["orbits", str(path), "-n", "2000", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["n"] == 2000
    assert payload["orbits"] == [{"lambda": [2000], "count": 1, "size": 1}]


def test_orbits_needs_involutive():
    code, _, err = run_cli(["orbits", "w1", "-n", "3"])
    assert code == 2
    assert "involutive" in err


def test_orbits_witness_and_csv():
    code, out, _ = run_cli(["orbits", "z2-shift", "-n", "3", "--csv"])
    assert code == 0 and out.startswith("lambda,count,size")
    code, out, _ = run_cli(["orbits", "z3-shift", "-n", "3", "--witness", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert all("witness" in o for o in payload["orbit_list"])


def test_dims_expect_and_q_override():
    code, out, _ = run_cli(["dims", "z2-shift", "--q", "zeta4", "--expect"])
    assert code == 0
    assert "total: 16" in out
    assert "expected total 16: ok" in out


def test_dims_json_expect_is_one_json_document():
    # with --json the verdict is a key of the payload, and nothing else is
    # printed; the exit codes are those of the text output
    for argv, status, verdict in (
        (["dims", "z3-shift"], 0, {"expected_total": 27, "ok": True}),
        (["dims", "z3-shift", "--cap", "3"], 1, {"expected_total": 27, "ok": False}),
    ):
        code, out, _ = run_cli(argv + ["--json", "--expect"])
        assert code == status
        assert json.loads(out)["expect"] == verdict
    code, out, _ = run_cli(["dims", "z3-shift", "--q", "2", "--cap", "3", "--json", "--expect"])
    assert code == 1
    expect = json.loads(out)["expect"]
    assert expect["expected_total"] is None and expect["ok"] is False
    assert "infinite order" in expect["note"]
    code, out, _ = run_cli(["dims", "z3-shift", "--cap", "3", "--expect"])
    assert code == 1 and "MISMATCH: computed total None, expected 27" in out


def test_dims_modular_needs_two_distinct_primes():
    # z2-shift at q = 2 has dims k + 1, but 2 has order 3 mod 7: mod 7 alone
    # read 1, 2, 3, 2, 1.  The forced-modular flag is gone, and one prime, or
    # one prime twice, is an input error
    base = ["dims", "z2-shift", "--q", "2", "--exact-cap", "2"]
    code, err = run_cli_usage_error(base + ["--mod", "--mod-primes", "7,13", "--json"])
    assert code == 2 and "unrecognized arguments: --mod" in err
    for primes in ("7", "7,7"):
        code, out, err = run_cli(base + ["--cap", "4", "--mod-primes", primes])
        assert code == 2 and out == ""
        assert "need at least two distinct primes" in err
    # two distinct primes disagree at degree 3 and escalate
    code, out, _ = run_cli(base + ["--cap", "4", "--mod-primes", "7,13", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["dims"] == [1, 2, 3, 4, 5]
    assert [r["mode"] for r in payload["provenance"][2:]] == [
        "modular+exact", "modular+exact", "exact"
    ]


def test_dims_json_deterministic():
    args = ["dims", "z3-shift", "--json"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["total"] == 27


def test_dims_growth_profile():
    code, out, _ = run_cli(
        ["dims", "z2-shift", "--q", "2", "--cap", "8", "--exact", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert payload["total"] is None


def test_dims_from_solution_file_with_canonical_q(tmp_path):
    from ybnichols.ybe import SetSolution

    path = tmp_path / "z3.json"
    path.write_text(json.dumps(SetSolution.cyclic_shift(3).to_json()))
    code, out, _ = run_cli(["dims", str(path), "--q", "zeta3", "--json"])
    assert code == 0
    assert json.loads(out)["total"] == 27


def test_dims_from_coefficient_file(tmp_path):
    from ybnichols.catalog import build_entry

    entry = build_entry("z4-shift2")
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(entry.system.to_json()))
    code, out, _ = run_cli(["dims", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["total"] == 36


@pytest.mark.parametrize("extra", [["--q", "2"], ["--param", "a=5"]])
def test_coefficient_file_takes_no_overrides(tmp_path, extra):
    # the file's table would be used as it stands, whatever the flag said
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(build_entry("z2-shift").system.to_json()))
    code, out, err = run_cli(["dims", str(path), *extra])
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"a coefficient file does not take {extra[0]}" in err, err


def test_bare_solution_file_takes_only_q(tmp_path):
    # the canonical braiding reads q alone, so any other parameter is refused
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(SetSolution.cyclic_shift(3).to_json()))
    code, out, err = run_cli(["dims", str(path), "--q", "-1", "--param", "a=5"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert "a bare solution file does not take --param a" in err, err


def test_dims_bad_parameter_is_input_error():
    code, _, err = run_cli(["dims", "w1", "--param", "x3=2"])
    assert code == 2
    assert "constraint" in err


@pytest.mark.parametrize("extra", [["--param", "q=3"], ["--param", " q =3"], ["--q", "3"]])
def test_parameter_given_twice_is_input_error(extra):
    # neither the last --param nor --q may silently win
    for command in ("dims", "relations"):
        code, out, err = run_cli([command, "z3-shift", "--param", "q=2"] + extra)
        assert code == 2 and out == ""
        assert "parameter 'q' given more than once" in err


def test_empty_q_is_input_error():
    # an empty --q is a bad scalar, not the entry's default q
    code, out, err = run_cli(["dims", "z3-shift", "--q", ""])
    assert code == 2 and out == "" and "cannot parse scalar ''" in err


@pytest.mark.parametrize("q", ["zeta0", "-zeta0", "zeta0^2", "--zeta3"])
def test_bad_zeta_is_input_error_quoting_the_text(q):
    # a root of unity of order below 1 names the input, and the message
    # quotes the text as given, not as stripped of a sign
    for command in ("dims", "relations"):
        code, out, err = run_cli([command, "z2-shift", f"--q={q}"])
        assert code == 2 and out == ""
        assert f"cannot parse scalar {q!r}" in err


def test_relations_commands():
    code, out, _ = run_cli(["relations", "z3-shift"])
    assert code == 0
    assert "6/6 relations pass" in out
    # off the documented point there is no published relation list
    code, _, err = run_cli(["relations", "z2-shift", "--param", "a=2"])
    assert code == 2
    # at q = zeta25 the power relations have degree 25: past the 2^22-word
    # limit, an input error instead of a run out of memory
    code, _, err = run_cli(["relations", "z2-shift", "--q", "zeta25", "--json"])
    assert code == 2 and "dimension limit" in err and "Traceback" not in err


def test_relations_command_builds_no_word_arrays_of_its_degree():
    # the nonzero image coordinates are counted on the orbit rows, so the
    # degree-6 relation of w1 leaves degree 6 with its orbit graph only
    from ybnichols.nichols import _relation_engine

    _relation_engine.cache_clear()
    code, out, _ = run_cli(["relations", "w1", "--json"])
    assert code == 0 and all(r["ok"] for r in json.loads(out)["relations"])
    top = _relation_engine(build_entry("w1").system).orbits(6)
    assert "links" in vars(top)
    assert not {"label", "order", "pos"} & set(vars(top))


def test_phi_command():
    code, out, _ = run_cli(["phi", "z2-shift", "--json"])
    assert code == 0
    assert json.loads(out)["l"] == [2, 1]


def test_catalog_command():
    code, out, _ = run_cli(["catalog", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 13
    assert rows[0]["name"] == "z2-shift"


@pytest.mark.parametrize("argv", [["catalog", "--json"], ["catalog"], ["dims", "z2-shift"]])
def test_closed_stdout_exits_without_traceback(argv):
    # the reader is gone before the first write, as when `| head -1` has
    # read its line: exit 141, with nothing on stderr
    src = str(Path(ybnichols.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ybnichols.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=30,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_alias_accepted():
    code, out, _ = run_cli(["phi", "w1-grana", "--json"])
    assert code == 0


def test_dims_rejects_composite_mod_prime():
    code, _, err = run_cli(["dims", "z3-shift", "--mod-primes", "4,13", "--exact-cap", "9"])
    assert code == 2
    assert "4 is not prime" in err


def test_dims_rejects_mod_prime_not_one_mod_order():
    code, _, err = run_cli(["dims", "z3-shift", "--mod-primes", "17,13", "--exact-cap", "9"])
    assert code == 2
    assert "17 is not 1 mod 3" in err


def test_dims_rejects_mod_prime_above_int64_headroom():
    # a prime = 1 mod 3 just above 2^31: rejected before any arithmetic runs
    code, _, err = run_cli(
        ["dims", "z3-shift", "--mod-primes", "2147483659,13", "--exact-cap", "9"]
    )
    assert code == 2
    assert "2147483659 is not below 2^31" in err


def _malformed_solution_file(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"size": 2, "r": [[[0, 0]]]}))
    return str(path)


def test_dims_malformed_solution_file_is_input_error(tmp_path):
    code, _, err = run_cli(["dims", _malformed_solution_file(tmp_path), "--q", "-1"])
    assert code == 2
    assert "not a solution file" in err


def test_relations_malformed_solution_file_is_input_error(tmp_path):
    code, _, err = run_cli(["relations", _malformed_solution_file(tmp_path), "--q", "-1"])
    assert code == 2
    assert "not a solution file" in err


def _coefficient_file(tmp_path, coefficient):
    """z2-shift's coefficient file with its first entry replaced."""
    from ybnichols.catalog import build_entry

    data = build_entry("z2-shift").system.to_json()
    data["R"][0][0]["coeffs"] = [coefficient]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_dims_zero_denominator_coefficient_is_input_error(tmp_path):
    path = _coefficient_file(tmp_path, "1/0")
    code, _, err = run_cli(["dims", path])
    assert code == 2
    assert path in err


def test_dims_infinite_coefficient_is_input_error(tmp_path):
    # JSON reads the number 1e400 as a float infinity
    path = _coefficient_file(tmp_path, 1e400)
    code, _, err = run_cli(["dims", path])
    assert code == 2
    assert path in err


def test_dims_infinite_solution_entry_is_input_error(tmp_path):
    path = tmp_path / "solution.json"
    path.write_text('{"size": 2, "r": [[[1e400, 1], [0, 1]], [[1, 0], [0, 0]]]}')
    code, _, err = run_cli(["dims", str(path), "--q", "-1"])
    assert code == 2
    assert f"{path}: not a solution file" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("order", 2.7, "entry R[0][1] order: 2.7 is not an integer"),
        ("order", "2", "entry R[0][1] order: '2' is not an integer"),
        ("order", True, "entry R[0][1] order: True is not an integer"),
        ("order", 0, "entry R[0][1] order: 0 is not positive"),
        ("coeffs", [0.1], "entry R[0][1] coefficient: 0.1 is not an integer"),
        ("coeffs", ["abc"], "entry R[0][1] coefficient: 'abc' is not a rational number"),
        ("coeffs", ["1/0"], "entry R[0][1] coefficient: '1/0' is not a rational number"),
    ],
    ids=["float-order", "string-order", "bool-order", "zero-order", "float-coefficient",
         "malformed-rational", "zero-denominator-rational"],
)
def test_dims_coefficient_entry_needs_integers_or_rational_strings(tmp_path, key, value, message):
    # int() and Fraction() would read these as 2, 2, 1 and a 2^-55 fraction
    data = build_entry("z2-shift").system.to_json()
    data["R"][0][1][key] = value
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(["dims", str(path)])
    assert code == 2
    assert message in err


def _without(key):
    def edit(data):
        del data[key]
    return edit


def _set_entry(value):
    def edit(data):
        data["R"][0][1] = value
    return edit


def _drop_coeffs(data):
    del data["R"][0][1]["coeffs"]


def _two_coefficients(data):
    data["R"][0][1]["coeffs"] = ["-1", "0"]


@pytest.mark.parametrize("command", ["dims", "relations"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_entry(5), 'entry R[0][1]: 5 is not an object with keys "order" and "coeffs"'),
        (_drop_coeffs, 'entry R[0][1] needs key "coeffs"'),
        (_two_coefficients, "entry R[0][1]: need 1 coefficients for order 2, got 2"),
        (_without("solution"), 'coefficient JSON needs key "solution"'),
    ],
    ids=["bare-number-entry", "entry-without-coeffs", "coefficient-count", "no-solution"],
)
def test_coefficient_file_errors_name_the_entry_or_key(tmp_path, command, edit, message):
    # these leaked 'int' object is not subscriptable, 'coeffs', a count with
    # no entry named, and 'solution'
    data = build_entry("z2-shift").system.to_json()
    edit(data)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli([command, str(path)])
    assert code == 2
    assert f"{path}: {message}" in err, err


def test_dims_coefficient_table_needs_m_rows_of_m_entries(tmp_path):
    data = build_entry("z2-shift").system.to_json()
    entry = data["R"][0][0]
    data["R"] = [[entry] * 4, []]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(["dims", str(path)])
    assert code == 2
    assert "coefficient table must be 2 rows of 2 entries each" in err


def test_dims_zero_q_is_input_error():
    code, _, err = run_cli(["dims", "z2-shift", "--q", "0"])
    assert code == 2
    assert "nonzero" in err


def test_dims_zero_parameter_is_input_error():
    code, _, err = run_cli(["dims", "z3-shift", "--param", "d=0"])
    assert code == 2
    assert "nonzero" in err


def run_cli_usage_error(argv):
    """Exit code and stderr of an argument the parser itself rejects."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    return exc.value.code, err.getvalue()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dims", "z2-shift", "--cap", "-1"], "--cap"),
        (["dims", "z2-shift", "--cap", "0"], "--cap"),
        (["dims", "z2-shift", "--exact-cap", "-5"], "--exact-cap"),
        (["dims", "z2-shift", "--exact-cap", "0"], "--exact-cap"),
        (["orbits", "z3-shift", "-n", "3", "--cap", "0"], "--cap"),
    ],
)
def test_nonpositive_counts_are_usage_errors(argv, flag):
    code, err = run_cli_usage_error(argv)
    assert code == 2
    assert f"argument {flag}" in err and "must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "z3-shift", "--mod-primes", "4"],
        ["relations", "w1", "--mod-primes", "4"],
        ["phi", "z3-shift", "--exact-cap", "8"],
        ["orbits", "z3-shift", "-n", "3", "--threads", "2"],
        ["verify", "z3-shift", "--threads", "2"],
    ],
)
def test_options_of_other_subcommands_are_usage_errors(argv):
    code, err = run_cli_usage_error(argv)
    assert code == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("order", ["1000", "5000", "1000000000"])
def test_dims_huge_cyclotomic_order_exits_at_once(order):
    # phi(N) is checked where the order enters, before any coefficient tuple
    # or structure tensor of that size is built
    proc = run_cli_process(["dims", "z3-shift", f"--q=zeta{order}"])
    assert proc.returncode == 2, proc.stderr
    assert f"cyclotomic order {order} is too large" in proc.stderr


def test_dims_coefficient_file_with_huge_common_order(tmp_path):
    # every entry's order is modest, but their lcm 7 * 11 * 13 = 1001 is not
    data = build_entry("z2-shift").system.to_json()
    zetas = [CycloElement.zeta(n).to_json() for n in (7, 11, 13, 1)]
    data["R"] = [zetas[:2], zetas[2:]]
    path = tmp_path / "lcm.json"
    path.write_text(json.dumps(data))
    proc = run_cli_process(["dims", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert "cyclotomic order 1001 is too large" in proc.stderr


def test_dims_modest_cyclotomic_order_still_answers():
    proc = run_cli_process(["dims", "z3-shift", "--q=zeta100", "--cap", "4", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dims"] == [1, 3, 6, 10, 15]
