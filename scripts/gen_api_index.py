#!/usr/bin/env python3
"""Regenerate docs/API.md from package ``__all__`` lists and docstrings.

``render()`` returns the document as a string so the tier-1 drift test
(``tests/test_api_docs.py``) can compare it against the checked-in
file; ``main()`` writes it.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    ("repro", "Top-level convenience exports"),
    ("repro.crypto", "Cryptographic substrate"),
    ("repro.chain", "Blockchain substrate"),
    ("repro.contracts", "Smart-contract substrate"),
    ("repro.network", "P2P network substrate"),
    ("repro.detection", "IoT detection substrate"),
    ("repro.core", "SmartCrowd core (the paper's contribution)"),
    ("repro.adversary", "Attack library and majority analysis"),
    ("repro.analysis", "Theoretical analysis (§VI-B)"),
    ("repro.economics", "Eq. 7–10 settled over whole populations"),
    ("repro.experiments", "Table/figure runners, the registry, the §VII rig"),
    ("repro.faults", "Fault injection and chaos harness"),
    ("repro.store", "Durable chain store (crash-safe persistence)"),
    ("repro.query", "Query-serving read path (indices, snapshots, batching)"),
    ("repro.shard", "Sharded fleet simulation (FleetSpec, epoch barriers)"),
    ("repro.telemetry", "Metrics and trace events"),
]


def summarize(name: str, item) -> tuple:
    """(kind, one-line summary) for one exported item."""
    if inspect.isclass(item):
        kind = "class"
    elif callable(item):
        kind = "function"
    else:
        kind = "constant"
    if kind == "constant":
        if isinstance(item, dict):
            text = "mapping"
        elif isinstance(item, (set, frozenset)):
            # Set iteration order is per-process — render sorted.
            members = ", ".join(sorted(repr(member) for member in item))
            text = f"`{type(item).__name__}({{{members}}})`"
        else:
            text = f"`{item!r}`"
        if " at 0x" in text:  # default object repr — not reproducible
            doc = (inspect.getdoc(type(item)) or "").strip().splitlines()
            text = doc[0] if doc else f"`{type(item).__name__}` instance"
        return kind, text[:70]
    doc = (inspect.getdoc(item) or "").strip().splitlines()
    return kind, (doc[0] if doc else "").replace("|", "\\|")


def render() -> str:
    """The full docs/API.md content as a string."""
    lines = [
        "# API reference",
        "",
        "Generated index of every public export (first docstring line).",
        "Regenerate with ``python scripts/gen_api_index.py``; kept checked",
        "in so the reference is greppable offline.",
        "",
    ]
    for package_name, title in PACKAGES:
        package = importlib.import_module(package_name)
        lines.append(f"## `{package_name}` — {title}")
        lines.append("")
        lines.append("| Name | Kind | Summary |")
        lines.append("|---|---|---|")
        for name in package.__all__:
            kind, summary = summarize(name, getattr(package, name))
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    output = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    output.write_text(render())
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
