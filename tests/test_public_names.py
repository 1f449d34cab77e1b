"""The README's library table lists exactly the package's public names, each
in the row of the module that defines it."""

import re
from pathlib import Path
from types import ModuleType

import quasitoric

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_table() -> dict[str, str]:
    """module -> its names cell, from the rows of the library overview."""
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    rows = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `(\w+)` +\| (.*?) *\|", line)
        if row:
            rows[row[1]] = row[2]
        elif rows and not line.startswith("|"):
            break  # the end of the table
    return rows


def _listed() -> list[tuple[str, str]]:
    """(module, name) for each name in the table, in order."""
    listed = []
    for module, cell in _library_table().items():
        assert re.fullmatch(r"`\w+`(, `\w+`)*", cell), f"{module}: {cell!r} is not a list of names"
        listed += [(module, name) for name in re.findall(r"`(\w+)`", cell)]
    assert listed, "no library table in README.md"
    return listed


def test_the_readme_table_lists_exactly_the_public_names():
    names = [name for _, name in _listed()]
    assert len(names) == len(set(names)), "a name is listed twice"
    public = {
        name
        for name, value in vars(quasitoric).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public - set(names) == set(), "exported but not in the README table"
    assert set(names) - public == set(), "in the README table but not exported"


def test_each_listed_name_is_defined_in_its_rows_module():
    for module, name in _listed():
        assert hasattr(quasitoric, name), f"{name} is not importable from quasitoric"
        defined = getattr(quasitoric, name).__module__
        assert defined == f"quasitoric.{module}", f"{name} is defined in {defined}"
