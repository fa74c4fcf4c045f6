"""README's pointers stay true: every section that the code or README
itself cites is a heading of README, every benchmark record README names
is committed, and the example under "Library layout" runs as written."""

import math
import re
import textwrap
from pathlib import Path

import reflectedsde as rs

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _quoted(prefix, text):
    """Section names quoted after ``prefix``, a run of one or more joined by
    commas or "and"; a name broken over two lines reads as one."""
    names = []
    for run in re.finditer(prefix + r'((?:"[A-Z][^"]*"(?:,\s*|\s+and\s+)?)+)', text):
        names += [" ".join(n.split()) for n in re.findall(r'"([^"]*)"', run.group(1))]
    return names


def test_every_cited_readme_section_is_a_heading():
    cited = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "src").rglob("*.c"),
                        *(ROOT / "tests").glob("*.py")]):
        for name in _quoted(r"README\s+", path.read_text()):
            cited.setdefault(name, path.relative_to(ROOT))
    for name in _quoted(r"[Ss]ee\s+", README):
        cited.setdefault(name, "README.md")
    assert "Custom domains" in cited and "Native library" in cited
    headings = {m.group(1).strip() for m in re.finditer(r"^#{2,3} (.+)$", README, re.M)}
    missing = {name: str(where) for name, where in cited.items() if name not in headings}
    assert missing == {}


def test_every_bench_file_readme_names_is_committed():
    named = set(re.findall(r"BENCH_\d+\.json", README))
    assert named
    assert sorted(n for n in named if not (ROOT / n).is_file()) == []


def test_the_library_layout_example_runs_as_written():
    section = README[README.index("## Library layout"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(textwrap.dedent(code), namespace)
    report = namespace["report"]
    assert isinstance(report, rs.RateReport)
    assert report.levels == (4, 5, 6)
    assert not report.degenerate and report.n_failed == 0
    assert math.isfinite(report.slope) and math.isfinite(report.final_slope)
    assert report.slope > 0 and report.final_slope > 0
