"""The package reads no environment variables: its settings are arguments and constants."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "orbitpool").glob("*.py"))


def environment_reads(source):
    """Lines that reach ``os.environ``, ``os.environb`` or ``os.getenv``: by
    importing one of them from ``os``, or by reading it as an attribute of
    a name bound to the ``os`` module."""
    names = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(source)
    os_names, lines = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(alias.asname or "os" for alias in node.names if alias.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in names for alias in node.names):
                lines.add(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names and getattr(node.value, "id", None) in os_names:
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_environment_reads():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import environ\n"
        "from os import path, getenv as ge\n"
        "chunk = int(os.environ.get('CHUNK', 4))\n"
        "side = os.getenv('SIDE')\n"
        "cache = system.environ['HOME']\n"
        "name = os.path.join('a', 'b')\n"
        "env = {'environ': 1}['environ']\n"
    )
    assert environment_reads(source) == [3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []
