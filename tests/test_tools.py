"""``tools/src_lines.py``: the line split that ROADMAP and CHANGES quote."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_columns_add_up(capsys):
    package = ROOT / "src" / "qmimo"
    assert src_lines.main(["src_lines.py", str(package)]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", *src_lines.KINDS]
    assert [row[0] for row in rows] == sorted(p.name for p in package.glob("*.py"))
    for name, *numbers in rows:
        lines, *kinds = map(int, numbers)
        assert sum(kinds) == lines == len((package / name).read_text().splitlines()), name
    assert total[0] == "total"
    assert [int(x) for x in total[1:]] == [sum(int(row[i]) for row in rows)
                                           for i in range(1, len(total))]
