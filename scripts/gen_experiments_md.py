#!/usr/bin/env python3
"""Regenerate the result blocks in EXPERIMENTS.md.

Each block is one row of ``repro.experiments.EXPERIMENTS`` run at its
default sizes and seed, rendered with ``to_table().render()`` — what
``python -m repro.experiments NAME`` prints.  ``render(name, result)``
returns the marked block as a string so the tier-1 drift test
(``tests/test_experiments_doc.py``) can compare it against the
checked-in file; ``main()`` rewrites every block in place (~14 s),
and writes nothing if a row lacks its marker pair — the error names
the row and prints the pair to paste.
Run it (with ``PYTHONPATH=src``) after any change that moves a seeded
result, then reread the prose around the blocks that changed.
"""

from __future__ import annotations

import pathlib

from repro.experiments import EXPERIMENTS

DOC = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
BEGIN = "<!-- experiment:{}:begin (scripts/gen_experiments_md.py writes this block) -->"
END = "<!-- experiment:{}:end -->"


def render(name: str, result) -> str:
    """The marked block of row ``name``'s default-size ``result``."""
    table = result.to_table().render()
    lines = [line.rstrip() for line in table.splitlines()]
    return "\n".join([BEGIN.format(name), "```", *lines, "```", END.format(name)])


def main() -> None:
    text = DOC.read_text()
    for name in EXPERIMENTS:
        pair = BEGIN.format(name), END.format(name)
        if any(text.count(marker) != 1 for marker in pair):
            raise LookupError(
                f"{DOC.name} needs exactly one block for the row {name!r};"
                " paste this marker pair where its table belongs:\n" + "\n".join(pair)
            )
    for name in EXPERIMENTS:
        head, rest = text.split(BEGIN.format(name))
        tail = rest.split(END.format(name))[1]
        text = head + render(name, EXPERIMENTS[name].run()) + tail
    DOC.write_text(text)
    print(f"wrote {len(EXPERIMENTS)} result blocks into {DOC}")


if __name__ == "__main__":
    main()
