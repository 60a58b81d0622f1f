"""The package reaches its FFTs through ``scipy.fft`` only, never ``numpy.fft``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "orbitpool").glob("*.py"))


def numpy_fft_reads(source):
    """Lines that reach ``numpy.fft``: by importing it or a name from it, or
    by reading the ``fft`` attribute of a name bound to numpy."""
    tree = ast.parse(source)
    numpy_names, lines = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or (alias.name.startswith("numpy.") and not alias.asname):
                    numpy_names.add(alias.asname or "numpy")
                if alias.name.split(".")[:2] == ["numpy", "fft"]:
                    lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            path = node.module.split(".")
            if path[:2] == ["numpy", "fft"] or (path == ["numpy"] and any(a.name == "fft" for a in node.names)):
                lines.add(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft" and getattr(node.value, "id", None) in numpy_names:
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_numpy_fft():
    source = (
        "import numpy as np\n"
        "import numpy.fft\n"
        "from numpy import fft as f\n"
        "from scipy import fft\n"
        "x = np.fft.fft2(a)\n"
        "y = fft.ifft2(b)\n"
        "z = abs(numpy.fft.ifft2(c))\n"
        "from numpy.fft import rfft\n"
    )
    assert numpy_fft_reads(source) == [2, 3, 5, 7, 8]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_numpy_fft(path):
    assert numpy_fft_reads(path.read_text()) == []
