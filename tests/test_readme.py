"""README's Library section: its example runs, and every name it lists exists."""

import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import morpheq

from conftest import read_fixture

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
LIBRARY = README[README.index("## Library"):]
SUBMODULES = {info.name for info in pkgutil.iter_modules(morpheq.__path__)}
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def test_example_runs_on_a_fixture(tmp_path, monkeypatch, capsys, golden_dir):
    example = re.search(r"```python\n(.*?)```", LIBRARY, re.DOTALL).group(1)
    (tmp_path / "problem.txt").write_text(read_fixture("fib_three_letter.txt"))
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    assert capsys.readouterr().out == (golden_dir / "fib_three_letter.tex").read_text() + "\n"

    imported = re.search(r"^from morpheq import (.*)$", example, re.MULTILINE).group(1)
    public = {
        name for name, value in vars(morpheq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(imported.split(", ")) == {
        "parse_problem", "prove_general", "check_proof", "render_latex"
    }
    assert morpheq.__version__


def library_bullets() -> list[tuple[str, str]]:
    """(module name, bullet text) for each `* `morpheq.X`: ...` bullet."""
    bullets = re.findall(r"^\* `morpheq\.(\w+)`:(.*?)(?=^\S|\Z)", LIBRARY, re.MULTILINE | re.DOTALL)
    assert len(bullets) >= 8
    return bullets


def has_attribute(owner, name: str) -> bool:
    """Whether owner has name, counting the parameters of a class's own __init__."""
    if hasattr(owner, name):
        return True
    init = owner.__init__ if inspect.isclass(owner) else None
    return inspect.isfunction(init) and name in inspect.signature(init).parameters


def resolves(module, name: str) -> bool:
    """Whether a dotted name is in a sibling module, in module, in a class of it or in builtins."""
    first, *rest = name.split(".")
    if first in SUBMODULES:
        return has_chain(importlib.import_module(f"morpheq.{first}"), rest)
    classes = [
        c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__
    ]
    return any(has_chain(owner, [first, *rest]) for owner in [module, *classes, builtins])


def has_chain(owner, parts: list[str]) -> bool:
    for part in parts:
        if not has_attribute(owner, part):
            return False
        owner = getattr(owner, part, None)
    return True


def test_library_names_resolve_in_their_modules():
    missing = []
    for module_name, text in library_bullets():
        module = importlib.import_module(f"morpheq.{module_name}")
        for span in re.findall(r"`([^`]+)`", text):
            name = span.split("(")[0]
            if IDENTIFIER.fullmatch(name) and not resolves(module, name):
                missing.append(f"morpheq.{module_name}: {span}")
    assert missing == []
