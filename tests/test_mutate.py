"""tools/mutate.py on a toy module and its toy test in a temporary tree."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

TOY = """def clamp(x):
    return x if x > 0 else 0


def down(n):
    while n > 0:
        n -= 1
    return n
"""
TOY_TEST = """from toy import clamp, down


def test_clamp():
    assert (clamp(3), clamp(-2)) == (3, 0)


def test_down():
    assert down(3) == 0
"""
TABLE = [{"module": "toy", "function": "clamp", "line": "return x if x > 0 else 0",
          "mutation": "> -> >=", "reason": "x = 0 gives 0 either way"},
         {"module": "toy", "function": "clamp", "line": "return abs(x)", "mutation": "+ -> -",
          "reason": "a line that is gone"}]


def toy_tree(root: Path) -> Path:
    for part in ("src", "tests", "tools"):
        (root / part).mkdir()
    (root / "src" / "toy.py").write_text(TOY)
    (root / "tests" / "test_toy.py").write_text(TOY_TEST)
    (root / "tools" / "equivalent_mutants.json").write_text(json.dumps(TABLE))
    return root


def test_each_site_is_killed_or_survives_and_a_listed_survivor_is_equivalent(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "toy:clamp"], cwd=toy_tree(tmp_path),
                          capture_output=True, text=True, timeout=120)
    # x > 1 passes the toy test but is no equivalent: clamp(1) would be 0
    assert proc.stdout.splitlines() == [
        "stale tools/equivalent_mutants.json entry, no site matches: "
        "('clamp', 'return abs(x)', '+ -> -', 1)",
        "src/toy.py:2 clamp > -> >=: survived (equivalent: x = 0 gives 0 either way)",
        "src/toy.py:2 clamp 0 -> 1: survived",
        "src/toy.py:2 clamp 0 -> 1: killed",
        "3 sites: 1 killed, 2 survived (1 equivalent), 0 hung"]
    assert proc.returncode == 1  # one survivor is not in the table


def test_a_mutant_that_never_ends_is_hung(tmp_path, capsys):
    # every second site of down: n >= 0 returns -1, and n += 1 never ends
    counts = mutate.run(toy_tree(tmp_path), "toy", "down", 2, timeout=1.0)
    assert capsys.readouterr().out.splitlines() == [
        "src/toy.py:6 down > -> >=: killed",
        "src/toy.py:7 down -= -> +=: hung",
        "2 sites: 1 killed, 0 survived (0 equivalent), 1 hung"]
    assert (counts["killed"], counts["hung"]) == (1, 1)


def test_a_function_with_no_site_is_refused_before_any_run(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "toy:nothing"], cwd=toy_tree(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "mutate: no site in toy:nothing\n")


def test_sites_cover_each_operator_once_and_leave_f_strings_alone():
    source = ('def f(a, b):\n'
              '    """é doc"""\n'
              '    c = "é" if not a and b else f"{a + 1}"\n'
              '    c += (a - b) * 2 // 3\n'
              '    return 0 < a <= b or a >= b > 0 or a == b != c\n')
    found = mutate.sites(source, "f")
    assert [(s.line, s.mutation) for s in found] == [
        (3, "not -> (dropped)"), (3, "and -> or"),
        (4, "+= -> -="), (4, "- -> +"), (4, "* -> //"), (4, "2 -> 3"), (4, "// -> *"),
        (4, "3 -> 4"),
        (5, "0 -> 1"), (5, "< -> <="), (5, "<= -> <"), (5, "or -> and"), (5, ">= -> >"),
        (5, "> -> >="), (5, "0 -> 1"), (5, "or -> and"), (5, "== -> !="), (5, "!= -> ==")]
    lines = [mutate.mutant(source, s).splitlines()[s.line - 1].strip() for s in found[:4]]
    assert lines == ['c = "é" if  a and b else f"{a + 1}"', 'c = "é" if not a or b else f"{a + 1}"',
                     "c -= (a - b) * 2 // 3", "c += (a + b) * 2 // 3"]
    assert [k[3] for k in mutate.keys(source, found)][8:] == [1, 1, 1, 1, 1, 1, 2, 2, 1, 1]

