import math

import pytest

import hdcode.metrics
from hdcode import (
    Codebook,
    bler_table,
    energy_metrics,
    select_codebook,
    throughput,
    tradeoff_sweep,
)
from hdcode.metrics import (
    MODE_SIM,
    MODE_THEORY_DOMINANT,
    MODE_THEORY_UNION,
    SELECTION_RULES,
    BlerRow,
    BlerTable,
    SelectionRule,
)
from hdcode.linksim import SHARD_SIZE

DENSE = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
SPARSE = Codebook.from_values(3, 2, 2, [0b111, 0b100, 0b010, 0b001])
INCOMPLETE = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101])
THEORY_MODES = [MODE_THEORY_DOMINANT, MODE_THEORY_UNION]
ALL_MODES = [*THEORY_MODES, MODE_SIM]
NON_FINITE = [math.nan, math.inf, -math.inf]
# finite SNRs in dB past the +-3068 dB that ChannelParams accepts
EXTREME = [3082.0, 3083.0, 3100.0, 1e308, -3300.0, -1e308]
BAD_EVALUATION = [
    pytest.param({"seed": -1}, "seed must be a nonnegative integer", id="seed"),
    pytest.param({"trials": 0}, "trials must be >= 1", id="trials"),
    pytest.param({"threads": 0}, "threads must be >= 1", id="threads"),
]


def table(codebook_id, points):
    rows = tuple(BlerRow(snr_db=s, bler=b, ci95=0.0, trials=0) for s, b in points)
    return BlerTable(codebook_id=codebook_id, mode=MODE_THEORY_DOMINANT, rows=rows)


class TestThroughput:
    def test_known_value(self):
        assert throughput(DENSE, 0.25) == pytest.approx(2 / 3 * 0.75)

    def test_zero_bler_gives_code_rate(self):
        assert throughput(DENSE, 0.0) == pytest.approx(2 / 3)

    def test_bler_bounds(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                throughput(DENSE, bad)


class TestEnergyMetrics:
    def test_average_reading(self):
        metrics = energy_metrics(DENSE)
        assert metrics.avg_weight == pytest.approx(9 / 4)
        assert metrics.energy_per_bit == pytest.approx(9 / 4 / 2)
        assert metrics.energy_per_time == pytest.approx(9 / 4 / 3)

    def test_normalized_range(self):
        metrics = energy_metrics(SPARSE)
        assert 0.0 <= metrics.energy_per_time <= 1.0

    def test_incomplete_rejected(self):
        expected = "energy metrics requires exactly 2\\*\\*k = 4 codewords, got 1"
        with pytest.raises(ValueError, match=expected):
            energy_metrics(Codebook.from_values(3, 2, 1, [0b111]))


class TestBlerRowFromCounts:
    def test_point_is_exact_ratio(self):
        row = BlerRow.from_counts(2.0, 3, 1000)
        assert row.bler == 3 / 1000
        assert row.snr_db == 2.0
        assert row.trials == 1000

    def test_interval_positive_at_zero_errors(self):
        row = BlerRow.from_counts(2.0, 0, 10**6)
        assert row.bler == 0.0
        assert row.ci95 > 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            BlerRow.from_counts(2.0, 5, 4)
        with pytest.raises(ValueError):
            BlerRow.from_counts(2.0, -1, 4)
        with pytest.raises(ValueError):
            BlerRow.from_counts(2.0, 0, 0)


class TestBlerTable:
    def test_rows_sorted_by_snr(self):
        result = bler_table(DENSE, [4.0, 0.0, 2.0], mode=MODE_THEORY_DOMINANT)
        assert [row.snr_db for row in result.rows] == [0.0, 2.0, 4.0]

    def test_theory_rows_have_no_interval(self):
        result = bler_table(DENSE, [0.0, 2.0], mode=MODE_THEORY_UNION)
        assert all(row.ci95 == 0.0 and row.trials == 0 for row in result.rows)

    def test_sim_rows_carry_counts(self):
        result = bler_table(DENSE, [0.0], mode=MODE_SIM, trials=5_000, seed=3)
        row = result.rows[0]
        assert row.trials == 5_000
        assert row.ci95 > 0

    def test_sim_reproducible(self):
        kwargs = dict(mode=MODE_SIM, trials=5_000, seed=3)
        assert bler_table(DENSE, [0.0, 2.0], **kwargs) == bler_table(DENSE, [0.0, 2.0], **kwargs)

    def test_sim_seed_does_not_wrap(self):
        kwargs = dict(mode=MODE_SIM, trials=5_000)
        wide = bler_table(DENSE, [0.0], seed=2**64, **kwargs)
        assert wide != bler_table(DENSE, [0.0], seed=0, **kwargs)

    @pytest.mark.parametrize("mode", [MODE_THEORY_DOMINANT, MODE_THEORY_UNION])
    def test_theory_rows_decay_with_snr(self, mode):
        grid = [0.5 * i for i in range(17)]
        result = bler_table(DENSE, grid, mode=mode)
        blers = [row.bler for row in result.rows]
        assert all(a >= b for a, b in zip(blers, blers[1:]))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            bler_table(DENSE, [0.0], mode="guess")

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("bad, message", BAD_EVALUATION)
    def test_refuses_bad_seed_trials_threads(self, mode, bad, message):
        """The theory modes read none of the three, but refuse them as sim does."""
        with pytest.raises(ValueError, match=message):
            bler_table(DENSE, [0.0], mode=mode, **{"trials": 1_000, **bad})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bler_table(DENSE, [])

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_repeated_grid_point_rejected(self, mode):
        """Sim seeds are keyed by grid index, so a repeated point would get two rows."""
        with pytest.raises(ValueError, match="snr_grid repeats the point 1.0 dB"):
            bler_table(DENSE, [2, 1, 1.0], mode=mode, trials=2_000)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("snr", NON_FINITE)
    def test_non_finite_grid_point_rejected(self, mode, snr):
        """A nan point would otherwise write a nan bler in the theory modes."""
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            bler_table(DENSE, [snr, 1.0], mode=mode, trials=1_000)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_extreme_grid_point_rejected(self, mode):
        """Refused before any point is evaluated, not by an OverflowError,
        a ZeroDivisionError or a numpy warning."""
        for snr in EXTREME:
            with pytest.raises(ValueError, match="ebn0_db must be finite and lie in"):
                bler_table(DENSE, [0.0, snr], mode=mode, trials=1_000)

    def test_rows_given_out_of_order_are_sorted(self):
        """A table built from unsorted rows, as read from a file, spans its whole grid."""
        unsorted = table("dense", [(4.0, 0.1), (0.0, 0.5), (8.0, 0.01)])
        assert [row.snr_db for row in unsorted.rows] == [0.0, 4.0, 8.0]
        assert unsorted.snr_range == (0.0, 8.0)
        rule = SelectionRule(kind="max-bler", threshold=1.0)
        book, record = select_codebook([(DENSE, unsorted)], 2.0, rule)
        assert record.snr_db == 0.0

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="'dense' has no rows"):
            table("dense", [])

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_refuses_incomplete_book(self, mode):
        purpose = "modulation" if mode == MODE_SIM else "theory BLER"
        expected = f"{purpose} requires exactly 2\\*\\*k = 4 codewords, got 3"
        with pytest.raises(ValueError, match=expected):
            bler_table(INCOMPLETE, [0.0], mode=mode, trials=1_000)


class TestTradeoffSweep:
    def test_cross_product_order(self):
        records = tradeoff_sweep([DENSE, SPARSE], [0.0, 4.0], ids=["dense", "sparse"])
        assert [(r.codebook_id, r.snr_db) for r in records] == [
            ("dense", 0.0), ("dense", 4.0), ("sparse", 0.0), ("sparse", 4.0),
        ]

    def test_records_are_self_consistent(self):
        records = tradeoff_sweep([DENSE], [0.0, 4.0], ids=["dense"])
        for rec in records:
            assert (rec.n, rec.k, rec.d) == (3, 2, 1)
            assert rec.throughput == pytest.approx(2 / 3 * (1 - min(rec.bler, 1.0)))
            assert rec.energy_per_time == pytest.approx(9 / 4 / 3)

    def test_sim_threads_do_not_change_records(self):
        # three shards per point, so threads=4 runs them on a pool
        kwargs = dict(mode=MODE_SIM, trials=2 * SHARD_SIZE + 5, seed=8, ids=["dense", "sparse"])
        a = tradeoff_sweep([DENSE, SPARSE], [2.0], threads=1, **kwargs)
        b = tradeoff_sweep([DENSE, SPARSE], [2.0], threads=4, **kwargs)
        assert a == b

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("bad, message", BAD_EVALUATION)
    def test_refuses_bad_seed_trials_threads(self, mode, bad, message):
        with pytest.raises(ValueError, match=message):
            tradeoff_sweep([DENSE], [0.0], mode=mode, **{"trials": 1_000, **bad})

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_book_records_are_its_bler_table(self, mode):
        """A book's records are its bler rows, whatever else the sweep holds,
        so the two copies of DENSE get the same draws and the same records."""
        grid = [4.0, 0.0, 2.0]
        kwargs = dict(mode=mode, trials=3_000, seed=5)
        records = tradeoff_sweep([SPARSE, DENSE, DENSE], grid, ids=["s", "d1", "d2"], **kwargs)
        for codebook_id, book in (("s", SPARSE), ("d1", DENSE), ("d2", DENSE)):
            rows = bler_table(book, grid, **kwargs).rows
            mine = [r for r in records if r.codebook_id == codebook_id]
            assert [(r.snr_db, r.bler) for r in mine] == [(row.snr_db, row.bler) for row in rows]

    def test_default_ids_are_distinct(self):
        records = tradeoff_sweep([DENSE, SPARSE], [0.0])
        assert len({r.codebook_id for r in records}) == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_sweep([DENSE, SPARSE], [0.0], ids=["x", "x"])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_sweep([], [0.0])
        with pytest.raises(ValueError):
            tradeoff_sweep([DENSE], [])

    def test_repeated_grid_point_rejected(self):
        with pytest.raises(ValueError, match="snr_grid repeats the point 0.0 dB"):
            tradeoff_sweep([DENSE, SPARSE], [0.0, 4.0, -0.0], mode=MODE_SIM, trials=2_000)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("snr", NON_FINITE)
    def test_non_finite_grid_point_rejected(self, mode, snr):
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            tradeoff_sweep([DENSE], [snr], mode=mode, trials=1_000)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_refuses_incomplete_book(self, monkeypatch, mode):
        """By id, before any book is evaluated."""
        sims = []
        monkeypatch.setattr(hdcode.metrics, "simulate_bler", lambda *a, **kw: sims.append(a) or 0)
        expected = "codebook 'short' requires exactly 2\\*\\*k = 4 codewords, got 3"
        with pytest.raises(ValueError, match=expected):
            tradeoff_sweep([DENSE, INCOMPLETE], [0.0], mode=mode, trials=1_000,
                           ids=["dense", "short"])
        assert sims == []


class TestDistributionBuilds:
    """The theory modes build one distance distribution per codebook, not per SNR point."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []
        build = hdcode.metrics.distance_distribution

        def counting(book):
            made.append(book)
            return build(book)

        monkeypatch.setattr(hdcode.metrics, "distance_distribution", counting)
        return made

    @pytest.mark.parametrize("mode", THEORY_MODES)
    def test_table_builds_once(self, calls, mode):
        bler_table(DENSE, [0.5 * i for i in range(17)], mode=mode)
        assert calls == [DENSE]

    @pytest.mark.parametrize("mode", THEORY_MODES)
    def test_sweep_builds_once_per_book(self, calls, mode):
        books = [DENSE, SPARSE, DENSE]
        tradeoff_sweep(books, [0.0, 2.0, 4.0], mode=mode, ids=["a", "b", "c"])
        assert calls == books

    def test_sim_builds_none(self, calls):
        bler_table(DENSE, [0.0, 2.0], mode=MODE_SIM, trials=1_000)
        tradeoff_sweep([DENSE, SPARSE], [0.0], mode=MODE_SIM, trials=1_000)
        assert calls == []


class TestSelectCodebook:
    library = [
        (DENSE, table("dense", [(0.0, 0.5), (4.0, 0.1)])),
        (SPARSE, table("sparse", [(0.0, 0.1), (4.0, 0.01)])),
    ]

    def test_energy_floor_picks_denser_book(self):
        rule = SelectionRule(kind="min-energy-per-time", threshold=0.6)
        book, record = select_codebook(self.library, 4.0, rule)
        assert record.codebook_id == "dense"
        assert book == DENSE

    def test_energy_floor_infeasible_returns_none(self):
        rule = SelectionRule(kind="min-energy-per-time", threshold=0.9)
        assert select_codebook(self.library, 4.0, rule) is None

    def test_throughput_floor_maximizes_energy(self):
        lax = SelectionRule(kind="min-throughput", threshold=0.5)
        book, record = select_codebook(self.library, 4.0, lax)
        assert (book, record.codebook_id) == (DENSE, "dense")
        strict = SelectionRule(kind="min-throughput", threshold=0.65)
        book, record = select_codebook(self.library, 4.0, strict)
        assert (book, record.codebook_id) == (SPARSE, "sparse")

    def test_bler_cap_picks_reliable_book(self):
        rule = SelectionRule(kind="max-bler", threshold=0.05)
        book, record = select_codebook(self.library, 4.0, rule)
        assert (book, record.codebook_id) == (SPARSE, "sparse")
        assert record.bler == pytest.approx(0.01)

    @pytest.mark.parametrize("kind, threshold, picked", [
        ("min-energy-per-time", 0.0, "sparse"),
        ("min-throughput", 0.0, "dense"),
        ("max-bler", 1.0, "sparse"),
    ])
    def test_lax_threshold_picks_by_objective(self, kind, threshold, picked):
        """With both books feasible, each rule picks the one its objective favours."""
        book, record = select_codebook(self.library, 4.0, SelectionRule(kind, threshold))
        assert record.codebook_id == picked

    def test_nearest_row_with_tie_to_lower_snr(self):
        rule = SelectionRule(kind="max-bler", threshold=1.0)
        for snr, row_snr in ((1.9, 0.0), (2.0, 0.0), (2.1, 4.0)):
            book, record = select_codebook(self.library, snr, rule)
            assert record.snr_db == row_snr

    def test_record_is_the_sweep_record(self):
        """select judges each book by the very record tradeoff_sweep gives it,
        in a theory mode and under Monte Carlo alike."""
        grid = [0.0, 2.0, 4.0, 6.0, 8.0]
        books = {"dense": DENSE, "sparse": SPARSE}
        thresholds = {
            "min-energy-per-time": (0.0, 0.6, 0.9),
            "min-throughput": (0.1, 0.5, 0.65),
            "max-bler": (1.0, 0.1, 1e-3),
        }
        assert set(thresholds) == set(SELECTION_RULES)
        for mode in (MODE_THEORY_UNION, MODE_SIM):
            kwargs = dict(mode=mode, trials=2_000, seed=3)
            library = [(book, bler_table(book, grid, codebook_id=cid, **kwargs))
                       for cid, book in books.items()]
            records = tradeoff_sweep(list(books.values()), grid, ids=list(books), **kwargs)
            sweep = {(r.codebook_id, r.snr_db): r for r in records}
            picked = set()
            for kind, levels in thresholds.items():
                for threshold in levels:
                    for snr in grid:
                        chosen = select_codebook(library, snr, SelectionRule(kind, threshold))
                        if chosen is None:
                            continue
                        book, record = chosen
                        assert record == sweep[(record.codebook_id, snr)], mode
                        assert book is books[record.codebook_id]
                        picked.add(record.codebook_id)
            assert picked == set(books), mode

    def test_out_of_range_snr_rejected(self):
        rule = SelectionRule(kind="max-bler", threshold=1.0)
        with pytest.raises(ValueError):
            select_codebook(self.library, 4.5, rule)
        with pytest.raises(ValueError):
            select_codebook(self.library, -0.5, rule)

    def test_bad_rule_kind_rejected(self):
        with pytest.raises(ValueError):
            SelectionRule(kind="best-effort", threshold=1.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            SelectionRule(kind="max-bler", threshold=threshold)

    def test_empty_library_rejected(self):
        rule = SelectionRule(kind="max-bler", threshold=1.0)
        with pytest.raises(ValueError):
            select_codebook([], 0.0, rule)

    def test_incomplete_book_named(self):
        library = [*self.library, (INCOMPLETE, table("short", [(0.0, 0.5), (4.0, 0.1)]))]
        rule = SelectionRule(kind="max-bler", threshold=1.0)
        expected = "codebook 'short' requires exactly 2\\*\\*k = 4 codewords, got 3"
        with pytest.raises(ValueError, match=expected):
            select_codebook(library, 4.0, rule)
