"""The package's top-level names are the README library tour."""

import importlib
import re
from pathlib import Path

import seqregret

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_rows():
    """(module, backticked identifiers) per row of the README's library tour table."""
    text = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].split("\n## ", 1)[0]
    for line in text.splitlines():
        row = re.match(r"\| `seqregret\.(\w+)`\s*\|(.*)\|\s*$", line)
        if row:
            yield row.group(1), set(re.findall(r"`([A-Za-z_]\w*)`", row.group(2)))


def test_all_is_the_library_tour():
    toured = set()
    for module, names in tour_rows():
        if module == "cli":  # the CLI is run, not imported from the package
            continue
        home = importlib.import_module(f"seqregret.{module}")
        toured |= {name for name in names if getattr(home, name, None) is not None}
    assert set(seqregret.__all__) == toured
    assert all(hasattr(seqregret, name) for name in seqregret.__all__)
