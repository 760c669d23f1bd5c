import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import binsums
from binsums.cli import _build_parser, _parse_index, run
from binsums.identities import (
    FAMILIES,
    CenteredSum,
    Domain,
    Identity,
    OracleRef,
    builtin_registry,
    find,
    perturbed,
)
from binsums.oeis import load_fixture


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def substitute_registry(monkeypatch, registry):
    """Make verify read the given identities in place of the catalogue."""
    monkeypatch.setattr("binsums.cli.builtin_registry", lambda: registry)


def test_verify_single_identity_text(capsys):
    code, out = invoke(capsys, "verify", "--identity", "fib-even", "--n-max", "10")
    assert code == 0
    assert "fib-even" in out and "PASS 1/1" in out


def test_verify_all_summary_line(capsys):
    code, out = invoke(capsys, "verify", "--all", "--n-max", "12")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS 34/34"


def test_verify_all_runs_without_mpmath():
    # a None entry in sys.modules makes any `import mpmath` raise ImportError
    script = ('import sys; sys.modules["mpmath"] = None\n'
              'from binsums.cli import run\n'
              'sys.exit(run(["verify", "--all", "--n-max", "30"]))')
    env = {**os.environ, "PYTHONPATH": str(Path(binsums.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "PASS 34/34"


def test_verify_json_schema_and_round_trip(capsys):
    code, out = invoke(capsys, "verify", "--identity", "fib-even", "--n-max", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(json.dumps(doc))
    assert doc["command"] == "verify"
    assert doc["summary"] == {"pass": 1, "fail": 0}
    (entry,) = doc["entries"]
    assert entry["id"] == "fib-even"
    assert entry["status"] == "pass"
    assert entry["checked"] == 4  # n = 0..3
    assert set(entry) >= {"id", "domain", "status", "first_divergence", "lhs", "rhs", "millis"}


def test_verify_csv(capsys):
    code, out = invoke(capsys, "verify", "--all", "--n-max", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 34
    assert all(r["status"] == "pass" for r in rows)


def test_injected_failure_flips_exit_status(capsys, monkeypatch):
    registry = list(builtin_registry())
    registry[0] = perturbed(registry[0], 2, +1)  # fib-even, one flipped weight
    substitute_registry(monkeypatch, registry)
    code, out = invoke(capsys, "verify", "--all", "--n-max", "10")
    assert code == 1
    assert "FAIL 33/34" in out
    assert "first divergence n=2" in out


def test_failure_entries_carry_values(capsys, monkeypatch):
    substitute_registry(monkeypatch, [perturbed(builtin_registry()[0], 2, +1)])
    code, out = invoke(capsys, "verify", "--identity", "fib-even", "--n-max", "10",
                       "--format", "json")
    assert code == 1
    (entry,) = json.loads(out)["entries"]
    assert entry["status"] == "fail"
    assert entry["first_divergence"] == 2
    assert entry["lhs"] == "3" and entry["rhs"] == "5"


def test_verify_unknown_identity_exits_2(capsys):
    code, _ = invoke(capsys, "verify", "--identity", "nonsense")
    assert code == 2


def test_unknown_identity_lists_the_families_of_the_given_registry(capsys, monkeypatch):
    substitute_registry(monkeypatch, [*find("fib-even"), *find("pow3")])
    code = run(["verify", "--identity", "lucas-odd"])
    assert code == 2
    assert capsys.readouterr().err == "unknown identity 'lucas-odd'; known: fib-even, pow3\n"


FIB_EVEN = builtin_registry()[0]


@pytest.mark.parametrize("argv, registry", [
    (["--identity", "central-delight", "--n-max", "1"], None),
    (["--all", "--n-max", "1"], None),
    (["--identity", "fib-even", "--n-max", "10"],
     [Identity(FIB_EVEN.family, FIB_EVEN.lhs, FIB_EVEN.terms, Domain(20), FIB_EVEN.description)]),
])
def test_verify_with_an_empty_domain_exits_2(capsys, monkeypatch, argv, registry):
    if registry is not None:
        substitute_registry(monkeypatch, registry)
    code = run(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    label, domain = ("fib-even", "20..") if registry else ("central-delight", "2.., even")
    assert captured.err.startswith(f"{label}: its domain {domain} admits no n in 0..")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_with_an_empty_selection_exits_2(capsys, monkeypatch, fmt):
    # an empty registry once printed PASS 0/0, and csv raised IndexError
    substitute_registry(monkeypatch, [])
    code = run(["verify", "--all", "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "no identity to verify: the registry is empty\n"


def test_a_right_side_that_is_not_an_integer_exits_2_after_the_streamed_lines(capsys, monkeypatch):
    half = Identity("synthetic-half", OracleRef("fib", a=2),
                    (CenteredSum((Fraction(1, 2),), 1),), Domain(1))
    substitute_registry(monkeypatch, [*find("fib-even"), half])
    code = run(["verify", "--all", "--n-max", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("fib-even ") and captured.out.count("\n") == 1
    assert captured.err == "synthetic-half: right side 1/2 is not an integer at n = 1\n"


def test_table_output_matches_the_documented_format(capsys):
    code, out = invoke(capsys, "table", "--sequence", "W", "--count", "8")
    assert code == 0
    assert out.strip() == "3, -1, 5, -4, 13, -16, 38, -57"


def test_table_with_a_count_of_one_prints_one_value(capsys):
    assert invoke(capsys, "table", "--sequence", "pell", "--count", "1") == (0, "0\n")
    code, out = invoke(capsys, "table", "--sequence", "halfcentral", "--count", "1",
                       "--format", "json")
    assert (code, json.loads(out)["values"], json.loads(out)["start"]) == (0, ["1"], 1)


def test_table_with_parameter(capsys):
    code, out = invoke(capsys, "table", "--sequence", "scriptL", "--m", "4",
                       "--count", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == ["1", "3", "10", "34", "116"]
    assert doc["start"] == 1


def test_table_unknown_sequence_exits_2(capsys):
    code, _ = invoke(capsys, "table", "--sequence", "nope")
    assert code == 2


def test_table_unknown_sequence_prints_its_message_without_quotes(capsys):
    code = run(["table", "--sequence", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("unknown sequence 'nope'; known: A, ")
    assert err.rstrip().endswith("scriptLdiag")


def test_oeis_check_of_an_unbundled_id_points_at_bfile(capsys):
    code = run(["oeis-check", "--sequence", "pell", "--id", "A999999"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("no bundled fixture for A999999; oeis-check --bfile PATH reads a b-file "
                   "downloaded from the OEIS\n")


def test_table_missing_parameter_exits_2(capsys):
    code, _ = invoke(capsys, "table", "--sequence", "genlucas")
    assert code == 2


def test_derive_unique_prints_identity_json(capsys):
    code, out = invoke(capsys, "derive", "--target", "fib", "--index", "2n",
                       "--period", "5", "--solve-range", "1..8")
    assert code == 0
    assert "unique" in out
    assert "weights 0, 1, -1, -1, 1" in out
    ident = json.loads(out.strip().splitlines()[-1])
    assert ident["terms"][0]["weights"] == ["0", "1", "-1", "-1", "1"]
    assert ident["lhs"]["index"] == "2n"


def test_derive_json_format(capsys):
    code, out = invoke(capsys, "derive", "--target", "pow3", "--period", "6",
                       "--solve-range", "1..9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "unique"
    assert doc["center"] == "1"
    assert doc["weights"] == ["2", "1", "-1", "-2", "-1", "1"]


def test_derive_infeasible_exits_1(capsys):
    code, out = invoke(capsys, "derive", "--target", "fib", "--index", "2n",
                       "--period", "3", "--solve-range", "1..8")
    assert code == 1
    assert "no profile exists" in out


def test_derive_underdetermined_exits_1_and_gives_the_dimension(capsys):
    # halfcentral has no value at n = 0, and at an even period no equation
    # pins the center, so one dimension is left
    argv = ("derive", "--target", "halfcentral", "--period", "2")
    code, out = invoke(capsys, *argv)
    assert code == 1
    assert out.splitlines() == ["target halfcentral period 2 rows 2n: underdetermined",
                                "solution space dimension 1"]
    code, out = invoke(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 1
    assert (doc["status"], doc["dimension"], doc["solve_range"]) == ("underdetermined", 1, [1, 6])
    assert "weights" not in doc and "violated_n" not in doc


def test_derive_unknown_target_exits_2(capsys):
    code, _ = invoke(capsys, "derive", "--target", "nope", "--period", "5")
    assert code == 2


@pytest.mark.parametrize("index", ["2n1", "n1", "n 1"])
def test_derive_index_offset_without_a_sign_exits_2(capsys, index):
    with pytest.raises(SystemExit) as info:
        run(["derive", "--target", "fib", "--index", index, "--period", "5"])
    assert info.value.code == 2
    assert "needs a sign" in capsys.readouterr().err


@pytest.mark.parametrize("index, parsed", [("n", (1, 0)), ("2n+1", (2, 1)),
                                           ("-n+70", (-1, 70)), ("n-1", (1, -1))])
def test_index_maps_parse(index, parsed):
    assert _parse_index(index) == parsed


_DERIVE = ["derive", "--target", "fib", "--period", "5"]


@pytest.mark.parametrize("index", ["n+", "2xn", "n+1x", "1.5n", "--n"])
def test_derive_with_a_malformed_index_names_the_expected_form(capsys, index):
    # these once printed a bare int() error that named neither flag nor form
    with pytest.raises(SystemExit) as info:
        run([*_DERIVE, f"--index={index}"])
    assert info.value.code == 2
    assert f"index map {index!r} must read an+b, as in 2n+1" in capsys.readouterr().err


def test_an_index_with_a_leading_minus_reaches_derive_joined_to_its_flag(capsys, monkeypatch):
    # argparse reads "--index -n+70" as a flag with no value, so the help
    # and the README give the joined form
    code, out = invoke(capsys, *_DERIVE, "--index=-n+70")
    assert code == 1 and "infeasible" in out
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run(["derive", "--help"])
    assert "--index=-n+70" in capsys.readouterr().out
    assert "`--index=-n+70`" in _readme()


def test_derive_flags_parse_to_tuples():
    args = _build_parser().parse_args([*_DERIVE, "--index", "2n+1", "--solve-range", "1..8"])
    assert (args.index, args.solve_range) == ((2, 1), (1, 8))
    args = _build_parser().parse_args(_DERIVE)
    assert (args.index, args.solve_range) == ((1, 0), ())


@pytest.mark.parametrize("argv, line", [
    (["verify", "--n-max", "0"], "binsums verify: error: argument --n-max: must be >= 1"),
    (["table", "--sequence", "fib", "--count", "0"],
     "binsums table: error: argument --count: must be >= 1"),
    ([*_DERIVE, "--index", "5"],
     "binsums derive: error: argument --index: index map '5' must mention n"),
    ([*_DERIVE, "--solve-range", "5"],
     "binsums derive: error: argument --solve-range: solve range '5' must read A..B, as in 1..8"),
])
def test_a_bad_flag_value_is_a_usage_error_that_names_the_flag(capsys, argv, line):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


def test_derive_negative_solve_start_exits_2(capsys):
    code = run(["derive", "--target", "fib", "--index", "2n", "--period", "5",
                "--solve-range=-1..8"])
    assert code == 2
    assert "solve_start must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--target", "fib", "--m", "2"], "sequence fib takes no parameter"),
    (["--target", "genlucas", "--m", "1"], "genlucas: m must be >= 2"),
])
def test_derive_with_a_bad_parameter_names_it_not_an_index(capsys, flags, message):
    code = run(["derive", *flags, "--index", "2n", "--period", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message + "\n")


@pytest.mark.parametrize("text", ["5", "1..", "..8", "1..x", "1-8"])
def test_derive_with_a_malformed_solve_range_names_the_expected_form(capsys, text):
    with pytest.raises(SystemExit) as info:
        run(["derive", "--target", "fib", "--period", "5", f"--solve-range={text}"])
    assert info.value.code == 2
    assert f"solve range {text!r} must read A..B, as in 1..8" in capsys.readouterr().err


def test_derive_target_out_of_data_in_the_holdout_exits_2(capsys):
    code = run(["derive", "--target", "C", "--index=-n+4", "--period", "1",
                "--solve-range", "0..4"])
    assert code == 2
    assert "holdout range 5..24" in capsys.readouterr().err
    code = run(["derive", "--target", "pell", "--index=-n+70", "--period", "80"])
    assert code == 2
    assert "n = 71, needed by the solve range 1..84" in capsys.readouterr().err


def test_oeis_check_uses_bundled_fixture(capsys):
    code, out = invoke(capsys, "oeis-check", "--sequence", "pellX", "--id", "A001075")
    assert code == 0
    assert "MATCH" in out


def test_oeis_check_wrong_pairing_exits_1(capsys):
    code, out = invoke(capsys, "oeis-check", "--sequence", "pellX", "--id", "A001353")
    assert code == 1
    assert "MISMATCH" in out and "first divergence" in out


def test_oeis_check_local_bfile(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(
        [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860, 33461,
         80782, 195025, 470832, 1136689, 2744210, 6625109, 15994428])))
    code, out = invoke(capsys, "oeis-check", "--sequence", "pell", "--id", "A000129",
                       "--bfile", str(path), "--count", "21")
    assert code == 0 and "MATCH" in out


def test_oeis_check_of_a_table_that_agrees_and_then_differs_is_a_mismatch(tmp_path, capsys):
    table = load_fixture("A001075")
    table[30] += 1
    path = tmp_path / "b001075.txt"
    path.write_text("".join(f"{n} {v}\n" for n, v in table.items()))
    code, out = invoke(capsys, "oeis-check", "--sequence", "pellX", "--id", "A001075",
                       "--bfile", str(path), "--count", "50")
    assert code == 1
    assert out.splitlines() == [
        "pellX vs A001075: MISMATCH (30 terms at shift +0)",
        f"first divergence at n=30: local {table[30] - 1}, b-file {table[30]}"]


def test_oeis_check_invalid_id_exits_2(capsys):
    code, _ = invoke(capsys, "oeis-check", "--sequence", "pellX", "--id", "banana")
    assert code == 2


def test_oeis_check_ignores_a_b_file_in_the_working_directory(tmp_path, monkeypatch, capsys):
    cache = tmp_path / ".oeis-cache"
    cache.mkdir()
    (cache / "b000129.txt").write_text("".join(f"{n} {n + 7}\n" for n in range(60)))
    monkeypatch.chdir(tmp_path)
    code, out = invoke(capsys, "oeis-check", "--sequence", "pell", "--id", "A000129")
    assert code == 0
    assert "pell vs A000129: MATCH" in out and "at shift +0" in out


@pytest.mark.parametrize("flag", [["--fetch"], ["--cache-dir", "."]])
def test_oeis_check_has_no_network_or_cache_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["oeis-check", "--sequence", "pell", "--id", "A000129", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    ((), "needs parameter m"),
    (("--m", "1"), "m must be >= 2"),
    (("--m", "4", "--count", "10"), "count must be >= 20"),
])
def test_oeis_check_usage_errors_exit_2(capsys, flags, message):
    code = run(["oeis-check", "--sequence", "scriptL", "--id", "A007052", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_oeis_check_json(capsys):
    code, out = invoke(capsys, "oeis-check", "--sequence", "Q", "--id", "A080937",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True and doc["matched"] >= 50


def test_cospow_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cospow", "--modulus", "5", "--exp", "1", "--power", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'cospow'" in capsys.readouterr().err


def test_export_registry(capsys):
    code, out = invoke(capsys, "export")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["identities"]) == 58


def test_export_is_byte_identical_to_the_pinned_catalogue(capsys):
    # a change to the catalogue or its JSON form must update this digest
    code, out = invoke(capsys, "export")
    assert code == 0
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        45631, "eb4181010d58ea42bd12daf71d721e607561fb84c17b5c50b0779acd400fd16b")


def test_export_takes_no_format_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run(["export", "--format", "json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_all_is_not_an_identity_name(capsys):
    # --all, or no selection flag, asks for every family
    code = run(["verify", "--identity", "all", "--n-max", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("unknown identity 'all'; known: fib-even, ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n-max", "not-a-number"])
    assert exc.value.code == 2


def test_n_max_validation():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n-max", "0"])
    assert exc.value.code == 2


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_cli_lines() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) of each `binsums ...` line of the README's
    CLI block, with a `> file` redirect dropped."""
    text = _readme()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        command = command.split(">", 1)[0]
        if command.startswith("binsums "):
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


def test_readme_cli_lines_run(capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 8
    for argv, comment in lines:
        code, out = invoke(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "table" and comment:
            assert out.strip() == comment, argv


def test_the_readme_lists_each_term_kind_with_its_keys_in_order():
    documented = {m[1]: m[2].split(", ") for m in
                  re.finditer(r"^- `([a-z-]+)`: (kind(?:, \w+)*)$", _readme(), re.MULTILINE)}
    kinds = {}
    for identity in builtin_registry():
        for term in identity.terms:
            obj = term.json()
            assert list(obj) == documented.get(obj["kind"]), type(term).__name__
            kinds[type(term)] = obj["kind"]
    assert len(kinds) == 9 and sorted(kinds.values()) == sorted(documented)


def test_readme_family_counts_match_the_catalogue():
    text = _readme()
    stated = [int(count) for pattern in (r"catalogue\s+of\s+(\d+)", r"PASS (\d+)/\d+",
                                         r"PASS \d+/(\d+)", r'"pass": (\d+)')
              for count in re.findall(pattern, text)]
    assert len(stated) == 4
    assert set(stated) == {len(FAMILIES)}
