"""The README's library quick start runs as written and names only exported entry points."""

import contextlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs_as_documented():
    section = README.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # A trailing comment states the printed value; two spaces start a note after it.
    stated = {
        index: line.split("#", 1)[1].strip().split("  ")[0]
        for index, line in enumerate(prints)
        if "#" in line
    }
    assert list(stated.values()) == [
        "True",
        "('S', '1', '7', '11', 'D')",
        "('S', '3', '7', '11', 'D')",
        "1000",
    ]
    for index, value in stated.items():
        assert printed[index] == value

    imported = re.search(r"from trustpath import \(([^)]*)\)", code).group(1)
    named = {name.strip() for name in imported.split(",") if name.strip()}
    named |= set(re.findall(r"`([A-Za-z_]\w*)`", section.split("```", 2)[2]))
    assert {"parse_topology", "propagate_untrust_hop", "ModelConstants"} <= named
    namespace: dict = {}
    exec("from trustpath import *", namespace)
    assert sorted(named - namespace.keys()) == []
