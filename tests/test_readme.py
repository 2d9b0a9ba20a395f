import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_lists_every_module():
    # README's Layout block names each file of the package once, so a
    # module folded into another, or a new one, cannot leave it behind
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Layout\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines[0] == "src/kbonacci/"
    listed = [line.split()[0] for line in lines[1:] if line.strip()]
    modules = sorted(path.name for path in (ROOT / "src" / "kbonacci").glob("*.py"))
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))
