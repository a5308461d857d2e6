"""The package promises Python 3.10+: its sources must parse as 3.10."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "heavenly")
                 .glob("*.py"))


def test_sources_parse_as_python_3_10():
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
