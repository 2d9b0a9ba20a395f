import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import kbonacci

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


MODULES = {
    info.name: importlib.import_module(f"kbonacci.{info.name}")
    for info in pkgutil.iter_modules(kbonacci.__path__)
}


def missing(refs, default):
    """The refs, "name" or "module.name", that do not resolve to a name of a package module.

    A bare name is looked up in ``default``; a dotted one whose prefix is
    not a package module (``os._exit``, a file such as ``series.py``) is
    not a package name and is skipped.
    """
    unresolved = []
    for ref in refs:
        prefix, _, name = ref.rpartition(".")
        module = MODULES.get(prefix or default)
        if module is not None and name != "py" and not hasattr(module, name):
            unresolved.append(ref)
    return unresolved


def test_readme_names_resolve():
    # a backticked module.name in the README names something its module has,
    # so a deleted function cannot stay in the text
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", readme)
    refs = {ref for span in spans for ref in re.findall(r"\b\w+\.\w+", span)}
    assert missing(sorted(refs), None) == []


def test_source_names_resolve():
    # every ``_name`` or ``module.name`` in a docstring or comment of the
    # package exists: a bare private name in its own module
    unresolved, seen = [], 0
    for name in MODULES:
        source = (ROOT / "src" / "kbonacci" / f"{name}.py").read_text(encoding="utf-8")
        texts = [
            token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append(ast.get_docstring(node, clean=False) or "")
        refs = re.findall(r"``(_\w+|\w+\.\w+)``", "\n".join(texts))
        unresolved += [f"{name}: {ref}" for ref in missing(refs, name)]
        seen += len(refs)
    assert seen, "the check sees no names"
    assert unresolved == []
