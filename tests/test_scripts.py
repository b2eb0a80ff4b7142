"""The experiment scripts, run end to end as a user runs them from the repository root."""

import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hdcode import Codebook, serialize_codebook

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


def test_sim_library_curves_are_the_tradeoff_rows(tmp_path):
    """With sim first, select and tradeoff.csv judge each book by the same draws;
    `dense` and `twin`, of equal (n, k), share them."""
    books = tmp_path / "books"
    books.mkdir()
    for stem, d, values in (("dense", 1, [0b111, 0b110, 0b101, 0b011]),
                            ("sparse", 2, [0b111, 0b100, 0b010, 0b001]),
                            ("twin", 1, [0b111, 0b110, 0b101, 0b011])):
        book = Codebook.from_values(3, 2, d, values)
        (books / f"{stem}.json").write_text(serialize_codebook(book))
    tables = run_script("tradeoff_tables.py", tmp_path, "--books", "books", "--modes", "sim",
                        "--trials", "2000", "--snr-db", "0:8:4")
    assert tables.returncode == 0, tables.stderr

    results = tmp_path / "results"
    with open(results / "tradeoff.csv", newline="") as f:
        sweep = [(r["codebook_id"], r["snr_db"], r["bler"]) for r in csv.DictReader(f)]
    library = []
    for stem in ("dense", "sparse", "twin"):
        with open(results / "library" / f"{stem}.csv", newline="") as f:
            library += [(stem, r["snr_db"], r["bler"]) for r in csv.DictReader(f)]
    assert sweep == library
    assert [b for i, _, b in sweep if i == "dense"] == [b for i, _, b in sweep if i == "twin"]


@pytest.mark.parametrize("script, option, value", [
    ("tradeoff_tables.py", "--seed", "-1"),
    ("tradeoff_tables.py", "--trials", "0"),
    ("tradeoff_tables.py", "--threads", "0"),
    ("tradeoff_tables.py", "--snr-db", "zork"),
    ("design_family.py", "--seed", "-1"),
    ("design_family.py", "--attempts", "0"),
])
def test_bad_count_or_seed_is_a_usage_error_of_the_script(tmp_path, script, option, value):
    """argparse refuses the value under the script's own name and option, before any work."""
    run = run_script(script, tmp_path, option, value)
    assert run.returncode == 2
    assert f"{script}: error: argument {option}: expected a" in run.stderr
    assert not (tmp_path / "results").exists()


def test_readme_library_use_block_runs(tmp_path):
    """The first python block under the README's "Library use" heading, cut out
    as the CI README step's awk cuts it, runs and prints two lines."""
    lines = (ROOT / "README.md").read_text().splitlines()
    heading = next(i for i, line in enumerate(lines) if line.startswith("## Library use"))
    first = next(i for i in range(heading, len(lines)) if lines[i].startswith("```python")) + 1
    last = next(i for i in range(first, len(lines)) if lines[i].startswith("```"))
    script = tmp_path / "library_use.py"
    script.write_text("\n".join(lines[first:last]) + "\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    assert len(printed) == 2 and all(line.strip() for line in printed)
