"""Every name in a ``docs/api.md`` table resolves in its section's module.

A section heading names its module in backticks, e.g. ``## DES kernel
(`repro.des`)``; the sections whose heading names modules in prose are
mapped explicitly.  A row may list several names (``a`` / ``b``); each one
must be an attribute of one of the section's modules, so deleting a public
name without its row fails here.
"""

import importlib
import re
from pathlib import Path

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"

#: Sections whose heading does not name exactly one module.
SECTION_MODULES = {
    "Simulator": ("repro.sim",),
    "Sweep engine": ("repro.experiments.parallel", "repro.experiments.cache"),
}


def _documented_names():
    rows = []
    modules = ()
    for line in API_MD.read_text().splitlines():
        if line.startswith("## "):
            title = line[3:].split(" (")[0]
            modules = SECTION_MODULES.get(title)
            if modules is None:
                match = re.fullmatch(r"## [^(]+ \(`([\w.]+)`\)", line)
                assert match, f"api.md section {title!r} names no module"
                modules = (match.group(1),)
        elif line.startswith("| `"):
            first_cell = line.split("|")[1]
            for name in re.findall(r"`([^`]+)`", first_cell):
                rows.append((title, modules, name))
    return rows


def test_every_documented_name_resolves():
    rows = _documented_names()
    assert {"Top level", "DES kernel", "Simulator", "Sweep engine"} <= {t for t, _, _ in rows}
    missing = [
        f"{title}: {name} (not in {' / '.join(modules)})"
        for title, modules, name in rows
        if not any(hasattr(importlib.import_module(m), name) for m in modules)
    ]
    assert missing == []
