"""Acceptance checks for the whole package.

Each test prints one `[criterion N] PASS/FAIL` line (visible under
`pytest -s tests/test_acceptance.py`) and enforces both the numeric
tolerance and the runtime budget of that criterion.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np

from hdcode import (
    ChannelParams,
    Codebook,
    distance_distribution,
    energy_metrics,
    exhaustive_best_codebook,
    genetic_local_search,
    initial_population,
    local_search,
    q_function,
    recombine_pair,
    simulate_bler,
    theoretical_bler_dominant,
    theoretical_bler_union,
    throughput,
)
from hdcode.metrics import BlerRow
from hdcode.search import DesignConfig, _stream


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_golden_small_instances():
    outcomes = []
    worst_time = 0.0
    for (n, k, d, target) in [(3, 2, 1, 9), (3, 2, 2, 6)]:
        hits = 0
        for seed in range(10):
            start = time.monotonic()
            report = genetic_local_search(n, k, d, DesignConfig(seed=seed))
            worst_time = max(worst_time, time.monotonic() - start)
            hits += report.best_ones == target
        outcomes.append((n, k, d, target, hits))
    ok = all(hits >= 9 for *_, hits in outcomes) and worst_time < 1.0
    detail = "; ".join(
        f"({n},{k},{d}) hit {target} ones in {hits}/10 seeds" for (n, k, d, target, hits) in outcomes
    ) + f"; slowest run {worst_time:.3f}s (budget 1s)"
    _report(1, ok, detail)


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    matches = total = exceeded = 0
    for n in range(1, 7):
        for k in range(1, min(3, n) + 1):
            for d in range(1, min(3, n) + 1):
                truth = exhaustive_best_codebook(n, k, d)
                if not truth.feasible:
                    continue
                for seed in range(3):
                    report = genetic_local_search(n, k, d, DesignConfig(seed=seed))
                    total += 1
                    if report.best_ones is not None:
                        matches += report.best_ones == truth.optimum_ones
                        exceeded += report.best_ones > truth.optimum_ones
    elapsed = time.monotonic() - start
    rate = matches / total
    ok = rate >= 0.90 and exceeded == 0 and elapsed < 120.0
    _report(
        2,
        ok,
        f"search matched the exact optimum in {matches}/{total} runs "
        f"({100 * rate:.1f}%), {exceeded} above it, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_recombination_distance_property():
    start = time.monotonic()
    families = [(6, 2), (6, 3), (8, 3), (8, 4)]
    pools = []
    for fi, (n, d) in enumerate(families):
        config = DesignConfig(population_size=10, init_size_range=(1, 3), seed=fi)
        population = initial_population(n, min(3, n - 1), d, config, _stream(fi, 0))
        books = tuple(
            local_search(book, [i for i in range(n) if (idx + i) % 3 == 0])
            for idx, book in enumerate(population.codebooks)
        )
        pools.append((n, d, books))

    rng = np.random.default_rng(2024)
    checked = violations = 0
    for _ in range(5_000):
        n, d, books = pools[int(rng.integers(0, len(pools)))]
        i, j = rng.choice(len(books), size=2, replace=False)
        anchor = int(rng.integers(0, 1 << n))
        split = int(rng.integers(0, n + d + 1))
        for child in recombine_pair(books[i], books[j], anchor, split):
            checked += 1
            if child.m >= 2 and child.min_distance < d:
                violations += 1
    elapsed = time.monotonic() - start
    ok = checked >= 10_000 and violations == 0 and elapsed < 10.0
    _report(
        3,
        ok,
        f"{checked} recombined children, {violations} distance violations, "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_repetition_pair_exactness():
    start = time.monotonic()
    book = Codebook.from_values(10, 1, 10, [0, (1 << 10) - 1])
    failures = []
    for index, snr in enumerate([0.0, 1.0, 2.0, 3.0, 4.0]):
        params = ChannelParams(snr)
        expected = float(q_function(math.sqrt(10.0 * params.ebn0)))
        errors = simulate_bler(book, params, 10**6, seed=1000 + index, threads=4)
        estimate = BlerRow.from_counts(snr, errors, 10**6)
        if abs(estimate.bler - expected) > 3 * estimate.ci95:
            failures.append(snr)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(
        4,
        ok,
        f"5 SNR points at 1e6 trials each within 3 CI half-widths of Q(sqrt(10 Eb/N0))"
        f"{'' if not failures else f', failed at {failures} dB'}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_theory_vs_simulation(designed_books):
    overall_ok = True
    details = []
    for d in (3, 4, 5):
        book = designed_books[(10, 3, d)]
        start = time.monotonic()
        worst_factor = 1.0
        union_violations = 0
        in_band = 0
        dist = distance_distribution(book)
        for index, snr in enumerate(range(0, 9)):
            params = ChannelParams(float(snr))
            errors = simulate_bler(book, params, 10**6, seed=5000 + 100 * d + index, threads=4)
            estimate = BlerRow.from_counts(float(snr), errors, 10**6)
            dominant = theoretical_bler_dominant(dist, params)
            union = theoretical_bler_union(dist, params)
            if 1e-4 <= estimate.bler <= 1e-1:
                in_band += 1
                worst_factor = max(
                    worst_factor, estimate.bler / dominant, dominant / estimate.bler
                )
            if estimate.bler > union + 3 * estimate.ci95:
                union_violations += 1
        elapsed = time.monotonic() - start
        family_ok = worst_factor <= 2.0 and union_violations == 0 and elapsed < 300.0
        overall_ok = overall_ok and family_ok
        details.append(
            f"(10,3,{d}) worst sim/theory factor {worst_factor:.2f} over {in_band} "
            f"in-band points, {union_violations} union violations, {elapsed:.1f}s"
        )
    _report(5, overall_ok, "; ".join(details) + " (budget 300s per family)")


def test_criterion_6_theory_orderings(designed_books):
    grid = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    d_family = [(10, 3, 3), (10, 3, 4), (10, 3, 5)]
    k_family = [(10, 5, 3), (10, 4, 3), (10, 3, 3)]
    dists = {case: distance_distribution(designed_books[case]) for case in d_family + k_family}
    failures = []
    for snr in grid:
        params = ChannelParams(snr)
        d_values = [theoretical_bler_dominant(dists[case], params) for case in d_family]
        if not (d_values[0] > d_values[1] > d_values[2]):
            failures.append(("d", snr))
        k_values = [theoretical_bler_dominant(dists[case], params) for case in k_family]
        if not (k_values[0] > k_values[1] > k_values[2]):
            failures.append(("k", snr))
    ok = not failures
    _report(
        6,
        ok,
        "theory BLER strictly decreasing in d and increasing in k at every grid "
        f"SNR in [2, 8] dB{'' if ok else f', violations: {failures}'}",
    )


def test_criterion_7_tradeoff_trends(designed_books):
    qt = {case: energy_metrics(book).energy_per_time for case, book in designed_books.items()}
    params = ChannelParams(8.0)
    tp = {
        case: throughput(
            book, min(1.0, theoretical_bler_dominant(distance_distribution(book), params))
        )
        for case, book in designed_books.items()
    }
    comparisons = [
        ("d family", (10, 3, 3), (10, 3, 5), 0.40),
        ("k family", (10, 3, 4), (10, 5, 4), 1.00),
        ("n family", (10, 4, 3), (7, 4, 3), 1.10),
    ]
    failures = []
    notes = []
    for label, dense_case, light_case, nominal in comparisons:
        if not qt[dense_case] > qt[light_case]:
            failures.append(f"{label} energy ordering")
        if not tp[light_case] > tp[dense_case]:
            failures.append(f"{label} throughput ordering")
        gain = qt[dense_case] / qt[light_case] - 1.0
        notes.append(f"{label} gain {100 * gain:.0f}%")
        if abs(gain - nominal) > 0.20:
            warnings.warn(
                f"{label}: relative energy-per-time gain {100 * gain:.0f}% is more than "
                f"20 points from the nominal target {100 * nominal:.0f}% "
                "(expected for independently designed codebooks)",
                stacklevel=1,
            )
            notes[-1] += f" (soft warning, nominal target {100 * nominal:.0f}%)"
    ok = not failures
    _report(
        7,
        ok,
        "orderings hold in all three families; " + ", ".join(notes)
        + ("" if ok else f"; failures: {failures}"),
    )


def test_criterion_8_cli_determinism(tmp_path):
    start = time.monotonic()

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "hdcode", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    library = tmp_path / "library"
    library.mkdir()
    book = library / "book.json"
    run("design", "--n", "6", "--k", "3", "--d", "2", "--seed", "4", "--out", str(book))
    run("bler", "--codebook", str(book), "--snr-db", "0:8", "--mode", "sim",
        "--trials", "20000", "--seed", "2", "--out", str(library / "book.csv"))

    pairs = []
    for name, args in [
        ("design", ["design", "--n", "6", "--k", "3", "--d", "2", "--seed", "4"]),
        ("bler", ["bler", "--codebook", str(book), "--snr-db", "0:4:2", "--mode", "sim",
                  "--trials", "30000", "--seed", "7"]),
        ("sweep", ["sweep", "--codebook", str(book), "--snr-db", "0,4", "--mode", "sim",
                   "--trials", "30000", "--seed", "7"]),
        ("select", ["select", "--library", str(library), "--snr-db", "4",
                    "--rule", "qt>=0.1"]),
    ]:
        # one thread by default; only bler and sweep take --threads
        first = run(*args).stdout
        second = run(*args).stdout
        third = run(*args, "--threads", "4").stdout if name in ("bler", "sweep") else first
        pairs.append((name, first == second, first == third))
    elapsed = time.monotonic() - start
    ok = all(same_seed and same_threads for _, same_seed, same_threads in pairs)
    failing = [name for name, same_seed, same_threads in pairs if not (same_seed and same_threads)]
    _report(
        8,
        ok,
        "byte-identical output across repeats for design/bler/sweep/select "
        "and across thread counts for bler/sweep"
        + ("" if ok else f"; differing: {failing}") + f", {elapsed:.1f}s",
    )
