"""The EXPERIMENTS.md regeneration keeps the hand-kept sections."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "generate_experiments", ROOT / "scripts" / "generate_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATED = "# EXPERIMENTS\n\n## F9 — new\n\nfresh\n\n## Ablations\n\n* new ablation\n"


class TestSplice:
    def test_replaces_generated_part_and_keeps_tail(self, script):
        existing = (
            "# EXPERIMENTS\n\n## F9 — old\n\nstale\n\n## Ablations\n\n* old\n\n"
            "## Performance\n\nkept | table\n\n```\n## not a heading\n```\n\n"
            "## Observability\n\nalso kept\n"
        )
        spliced = script.splice(existing, GENERATED)
        assert spliced == GENERATED + "\n" + existing[existing.index("## Performance"):]
        assert "stale" not in spliced and "* old" not in spliced

    @pytest.mark.parametrize(
        "existing",
        ["", "# EXPERIMENTS\n\n## Ablations\n\n* old\n", "# notes without headings\n"],
    )
    def test_nothing_to_keep(self, script, existing):
        assert script.splice(existing, GENERATED) == GENERATED

    def test_committed_document_is_a_fixed_point(self, script):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        generated = text[: text.index("\n## Parallel execution") + 1]
        assert generated.rstrip().endswith("the §5 DoS-vector finding.")
        assert script.splice(text, generated) == text
