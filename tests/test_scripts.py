"""The experiment scripts, run end to end as a user runs them from the repository root."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, cwd, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def test_design_family_then_tradeoff_tables(tmp_path):
    design = run_script("design_family.py", tmp_path)
    assert design.returncode == 0, design.stderr
    tables = run_script("tradeoff_tables.py", tmp_path)
    assert tables.returncode == 0, tables.stderr

    results = tmp_path / "results"
    books = sorted((results / "codebooks").glob("*.json"))
    assert len(books) == 7
    assert len(list((results / "bler").glob("*.csv"))) == 14
    assert len((results / "tradeoff.csv").read_text().splitlines()) == 120
    for book in books:
        assert filecmp.cmp(results / "library" / f"{book.stem}.csv",
                           results / "bler" / f"{book.stem}.theory-dominant.csv", shallow=False)
        assert filecmp.cmp(results / "library" / book.name, book, shallow=False)
    assert tables.stdout.count('"codebook_id"') == 3


def test_tradeoff_tables_refuses_the_removed_mode_option(tmp_path):
    """--modes replaced --mode; the old spelling is a usage error, not an abbreviation."""
    tables = run_script("tradeoff_tables.py", tmp_path, "--mode", "theory-union")
    assert tables.returncode == 2
    assert "unrecognized arguments: --mode" in tables.stderr
    assert not (tmp_path / "results").exists()
