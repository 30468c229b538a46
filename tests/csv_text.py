"""A CSV the CLI wrote, read back as text, for the tests that check it."""

from pathlib import Path


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header's fields and each data row's fields; blank lines are skipped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    assert lines, f"{path}: empty CSV"
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]
