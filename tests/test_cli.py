import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import binsums
from binsums.cli import _parse_index, run
from binsums.identities import FAMILIES, builtin_registry, perturbed


def invoke(capsys, *argv, registry=None):
    code = run(list(argv), registry=registry)
    out = capsys.readouterr().out
    return code, out


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


def test_injected_failure_flips_exit_status(capsys):
    registry = list(builtin_registry())
    registry[0] = perturbed(registry[0], 2, +1)  # fib-even, one flipped weight
    code, out = invoke(capsys, "verify", "--all", "--n-max", "10", registry=registry)
    assert code == 1
    assert "FAIL 33/34" in out
    assert "first divergence n=2" in out


def test_failure_entries_carry_values(capsys):
    registry = [perturbed(builtin_registry()[0], 2, +1)]
    code, out = invoke(capsys, "verify", "--identity", "fib-even", "--n-max", "10",
                       "--format", "json", registry=registry)
    assert code == 1
    (entry,) = json.loads(out)["entries"]
    assert entry["status"] == "fail"
    assert entry["first_divergence"] == 2
    assert entry["lhs"] == "3" and entry["rhs"] == "5"


def test_verify_unknown_identity_exits_2(capsys):
    code, _ = invoke(capsys, "verify", "--identity", "nonsense")
    assert code == 2


def test_table_output_matches_the_documented_format(capsys):
    code, out = invoke(capsys, "table", "--sequence", "W", "--count", "8")
    assert code == 0
    assert out.strip() == "3, -1, 5, -4, 13, -16, 38, -57"


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


def test_derive_negative_solve_start_exits_2(capsys):
    code = run(["derive", "--target", "fib", "--index", "2n", "--period", "5",
                "--solve-range=-1..8"])
    assert code == 2
    assert "solve_start must be >= 0" in capsys.readouterr().err


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


def test_oeis_check_invalid_id_exits_2(capsys):
    code, _ = invoke(capsys, "oeis-check", "--sequence", "pellX", "--id", "banana")
    assert code == 2


def test_oeis_check_cache_dir_flag(tmp_path, capsys):
    (tmp_path / "b001075.txt").write_text(
        "".join(f"{n} {v}\n" for n, v in enumerate(
            [1, 2, 7, 26, 97, 362, 1351, 5042, 18817, 70226, 262087, 978122,
             3650401, 13623482, 50843527, 189750626, 708158977, 2642885282,
             9863382151, 36810643322, 137379191137])))
    code, out = invoke(capsys, "oeis-check", "--sequence", "pellX", "--id", "A001075",
                       "--cache-dir", str(tmp_path), "--count", "21")
    assert code == 0 and "MATCH (21 terms" in out


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


def test_cospow(capsys):
    code, out = invoke(capsys, "cospow", "--modulus", "5", "--exp", "1", "--power", "2")
    assert code == 0
    assert out.strip() == "[2, 0, 1, 1, 0]"


def test_export_registry(capsys):
    code, out = invoke(capsys, "export")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["identities"]) == 58


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
    assert len(lines) == 9
    for argv, comment in lines:
        code, out = invoke(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "table" and comment:
            assert out.strip() == comment, argv


def test_readme_family_counts_match_the_catalogue():
    text = _readme()
    stated = [int(count) for pattern in (r"catalogue\s+of\s+(\d+)", r"PASS (\d+)/\d+",
                                         r"PASS \d+/(\d+)", r'"pass": (\d+)')
              for count in re.findall(pattern, text)]
    assert len(stated) == 4
    assert set(stated) == {len(FAMILIES)}
