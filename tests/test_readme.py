"""The README's "Library" bullets name exactly the package's public exports."""

import re
import types
from pathlib import Path

import tropquad

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_bullets() -> str:
    """The bullet list of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- **") :]
    return bullets.split("\n\n", 1)[0]


def test_library_bullets_name_every_export_and_nothing_else():
    # a name in backticks, alone or called: `companion_table` or `decompose(q)`
    named = set(re.findall(r"`([A-Za-z_]\w*)[`(]", _library_bullets()))
    exports = {
        name for name, value in vars(tropquad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert named == exports, {"missing": sorted(exports - named), "not exported": sorted(named - exports)}
