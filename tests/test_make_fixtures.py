import importlib.util
from pathlib import Path

from binsums.oeis import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "binsums" / "data"


def test_make_fixtures_regenerates_the_bundled_b_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  ROOT / "tools" / "make_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", str(tmp_path))
    tool.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in DATA.glob("b*.txt"))
    assert written == sorted(f"b{seq_id[1:]}.txt" for seq_id in FIXTURES)
    assert len(written) == 14
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
