"""The result blocks in EXPERIMENTS.md must be what the code prints.

Each block is one registry row rendered at its default sizes and seed
by ``scripts/gen_experiments_md.py``; the file is checked in (readable
offline), so a change that moves a seeded result without regenerating
it is a tier-1 failure with a copy-pasteable fix.  Running every row at
full size is what this costs (~14 s, most of it Fig. 6 and the fleet
sweep); the results are the session's ``default_result`` cache, which
the experiments tests read too.
"""

import importlib.util
import pathlib

import pytest

from repro.experiments import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_generator():
    script = REPO_ROOT / "scripts" / "gen_experiments_md.py"
    spec = importlib.util.spec_from_file_location("gen_experiments_md", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_block_is_current(name, default_result):
    checked_in = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    block = _load_generator().render(name, default_result(name))
    assert block in checked_in, (
        f"the {name} block in EXPERIMENTS.md is stale — regenerate it with "
        "`PYTHONPATH=src python scripts/gen_experiments_md.py`, then reread "
        "the prose beside it"
    )


def test_a_row_without_markers_names_the_pair_to_paste(tmp_path, monkeypatch):
    generator = _load_generator()
    end = generator.END.format("chaos")
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text().replace(end + "\n", "")
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(text)
    monkeypatch.setattr(generator, "DOC", doc)
    with pytest.raises(LookupError, match="'chaos'") as raised:
        generator.main()
    assert generator.BEGIN.format("chaos") + "\n" + end in str(raised.value)
    assert doc.read_text() == text
