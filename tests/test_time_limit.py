"""The per-test time limit of tests/conftest.py, on toy tests run by a
pytest process of their own with the limit lowered to half a second."""
import subprocess
import sys
import time
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

TOY_CONFTEST = f'''
import importlib.util

spec = importlib.util.spec_from_file_location("time_limit", {str(CONFTEST)!r})
time_limit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(time_limit)
time_limit.TEST_TIME_LIMIT_S = 0.5
pytest_runtest_call = time_limit.pytest_runtest_call
'''

TOY_TESTS = '''
import time


def test_loops_forever():
    while True:
        pass


def test_swallows_every_exception_while_it_sleeps_forever():
    while True:
        try:
            time.sleep(0.05)
        except Exception:
            pass


def test_sleeps_inside_the_limit():
    time.sleep(0.3)


def test_sleeps_inside_the_limit_once_more():
    time.sleep(0.3)
'''


def test_a_test_that_runs_forever_fails_at_the_time_limit(tmp_path):
    (tmp_path / "conftest.py").write_text(TOY_CONFTEST)
    (tmp_path / "test_toy.py").write_text(TOY_TESTS)
    began = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, check=False)
    assert time.monotonic() - began < 30
    out = proc.stdout
    assert proc.returncode == 1, out
    assert "2 failed, 2 passed" in out
    for name in ("test_loops_forever", "test_swallows_every_exception_while_it_sleeps_forever"):
        assert f"test_toy.py::{name} ran past the time limit of 0.5 s" in out
