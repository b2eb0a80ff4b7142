import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hdcode import (
    MAX_N,
    ChannelParams,
    Codebook,
    distance_distribution,
    message_order,
    q_function,
    serialize_codebook,
    simulate_bler,
    theoretical_bler_dominant,
    theoretical_bler_union,
)
from hdcode import linksim
from hdcode.linksim import (
    ACCEPT_MARGIN, AMPLITUDE, MAX_ABS_EBN0_DB, SHARD_SIZE, modulated_matrix,
)
from hdcode.metrics import BlerRow

REPETITION_PAIR = Codebook.from_values(10, 1, 10, [0, (1 << 10) - 1])
DENSE_3_2 = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
# four length-4 words with every pairwise distance exactly 2
EQUIDISTANT_4_2 = Codebook.from_values(4, 2, 2, [0b0000, 0b0011, 0b0101, 0b0110])
# every word of its length: the largest books for k = 5, 8 and 12
ALL_WORDS_5 = Codebook.from_values(5, 5, 1, range(1 << 5))
ALL_WORDS_8 = Codebook.from_values(8, 8, 1, range(1 << 8))
ALL_WORDS_12 = Codebook.from_values(12, 12, 1, range(1 << 12))
# finite Eb/N0 values in dB that overflowed, divided by zero or warned somewhere
EXTREME_EBN0_DB = [3082.0, 3083.0, 3100.0, 1e308, -3300.0, -1e308]


def ml_decode(received, book):
    """One received vector through the shard decoder."""
    return int(linksim._ml_messages(received[None], modulated_matrix(book))[0])


def density_decode(received, book, params):
    """Reference ML rule: maximize the Gaussian noise density per codeword."""
    sigma = params.noise_sigma
    best_index, best_log = 0, -math.inf
    for i, word in enumerate(message_order(book)):
        bits = [(word >> (book.n - 1 - j)) & 1 for j in range(book.n)]
        mean = np.array(bits, dtype=float) * AMPLITUDE
        log_density = float(-np.sum((received - mean) ** 2) / (2.0 * sigma**2))
        if log_density > best_log:
            best_index, best_log = i, log_density
    return best_index


def einsum_decode(received, book):
    """Reference ML rule: the squared Euclidean distance to every codeword."""
    diffs = modulated_matrix(book) - received[None, :]
    return int(np.einsum("mn,mn->m", diffs, diffs).argmin())


def einsum_shard_errors(mod, sigma, n, seed, shard_index, count):
    """Reference shard: the same Philox key and draw order, decoded through a
    (count, 2**k, n) difference tensor."""
    key = np.array([seed, shard_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    messages = rng.integers(0, mod.shape[0], size=count)
    received = mod[messages] + rng.normal(0.0, sigma, size=(count, n))
    diffs = received[:, None, :] - mod[None, :, :]
    decoded = np.einsum("tmn,tmn->tm", diffs, diffs).argmin(axis=1)
    return int(np.count_nonzero(decoded != messages))


def bisection_clear_threshold(sigma, delta, n):
    """Reference early-accept threshold: 64 bisection steps on math.erfc over
    [0, 40] for the |z| that N(0, sigma**2) noise exceeds with probability
    delta/n, capped at 0.84 A/2."""
    p = delta / n  # P(|z| > t) = erfc(t / (sigma sqrt 2))
    lo, hi = 0.0, 40.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return min(sigma * hi, 0.84 * 0.5 * AMPLITUDE)


@st.composite
def complete_books(draw):
    """Random complete codebooks with n <= 10, k <= 5 and a d they satisfy."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 10))
    values = draw(st.permutations(range(1 << n)))[: 1 << k]
    book = Codebook.from_values(n, k, 1, values)
    d = draw(st.integers(1, book.min_distance))
    return Codebook.from_values(n, k, d, values)


class TestChannelParams:
    def test_db_conversion(self):
        assert ChannelParams(0.0).ebn0 == pytest.approx(1.0)
        assert ChannelParams(10.0).ebn0 == pytest.approx(10.0)
        assert ChannelParams(3.0).ebn0 == pytest.approx(10 ** 0.3)

    def test_noise_level_follows_snr(self):
        low = ChannelParams(0.0)
        high = ChannelParams(8.0)
        assert low.noise_sigma > high.noise_sigma
        assert high.noise_sigma == pytest.approx(math.sqrt(1 / (2 * high.ebn0)))

    @pytest.mark.parametrize("ebn0_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_ebn0_refused(self, ebn0_db):
        """No channel is built at a non-finite Eb/N0, so no simulation runs at one."""
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            simulate_bler(DENSE_3_2, ChannelParams(ebn0_db), 100, seed=1)

    @pytest.mark.parametrize("ebn0_db", EXTREME_EBN0_DB)
    def test_extreme_ebn0_refused(self, ebn0_db):
        """Past 3068 dB either way, 24 * Eb/N0 or N0 would overflow a double."""
        expected = f"ebn0_db must be finite and lie in [-3068, 3068] dB, got {ebn0_db}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            ChannelParams(ebn0_db)

    @pytest.mark.parametrize("ebn0_db", [-MAX_ABS_EBN0_DB, MAX_ABS_EBN0_DB])
    def test_extreme_accepted_ebn0_evaluates_without_warning(self, ebn0_db):
        """At the limits, with the longest words, every BLER is a probability and no
        float operation warns."""
        book = Codebook.from_values(MAX_N, 1, MAX_N, [0, (1 << MAX_N) - 1])
        dist = distance_distribution(book)
        params = ChannelParams(ebn0_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [theoretical_bler_dominant(dist, params), theoretical_bler_union(dist, params),
                      simulate_bler(book, params, 1_000, seed=1) / 1_000]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_amplitude_and_eb(self):
        """Eb = 1: a 1-bit is sent at amplitude sqrt(2), and N0 = 1 at 0 dB, a noise
        variance of N0 / 2."""
        assert AMPLITUDE == math.sqrt(2.0)
        assert ChannelParams(0.0).noise_sigma == math.sqrt(0.5)


class TestQFunction:
    def test_known_values(self):
        assert float(q_function(0.0)) == pytest.approx(0.5)
        assert float(q_function(1.959963985)) == pytest.approx(0.025, rel=1e-6)
        assert 3 * float(q_function(math.sqrt(8))) == pytest.approx(7.0166e-3, rel=1e-3)

    def test_vectorized_and_monotone(self):
        xs = np.linspace(-2, 6, 30)
        ys = q_function(xs)
        assert ys.shape == xs.shape
        assert np.all(np.diff(ys) < 0)

    @given(st.floats(-8, 8))
    def test_symmetry(self, x):
        assert float(q_function(-x)) == pytest.approx(1.0 - float(q_function(x)))

    def test_matches_mpmath_in_the_tail(self):
        """Relative error within 4e-15 for Q arguments in [0, 37.5].

        The reference is 0.5 * erfc(z) to 50 digits at the double z = x / sqrt(2)
        that q_function evaluates.  Rounding x / sqrt(2) is not part of the
        check: Q's relative condition number near x is about x**2, so half an
        ulp there moves Q(37.5) by about 1.6e-13 in any double implementation.
        """
        import mpmath
        xs = np.concatenate([
            np.linspace(0.0, 37.5, 1501),
            np.sqrt(np.outer(np.arange(1, 25), 10.0 ** (np.arange(0, 8.25, 0.5) / 10))).ravel(),
        ])
        zs = xs / math.sqrt(2.0)
        with mpmath.workdps(50):
            reference = [0.5 * mpmath.erfc(mpmath.mpf(float(z))) for z in zs]
            errors = [abs(mpmath.mpf(float(q)) / r - 1) for q, r in zip(q_function(xs), reference)]
        assert float(max(errors)) <= 4e-15

    def test_cli_runs_without_scipy(self, tmp_path):
        book = tmp_path / "book.json"
        book.write_text(serialize_codebook(DENSE_3_2))
        code = (
            "import sys; sys.modules['scipy'] = None; import hdcode.cli; "
            f"sys.exit(hdcode.cli.main(['bler', '--codebook', {str(book)!r}, "
            "'--snr-db', '4', '--mode', 'theory-dominant']))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "snr_db,mode,bler,ci95,trials"


class TestDecode:
    def test_heaviest_codeword_is_message_zero(self):
        assert message_order(DENSE_3_2)[0] == 0b111
        assert message_order(DENSE_3_2)[3] == 0b011

    def test_noiseless_round_trip(self):
        mod = modulated_matrix(DENSE_3_2)
        for message in range(4):
            assert ml_decode(mod[message], DENSE_3_2) == message

    def test_tie_breaks_to_lowest_index(self):
        a = AMPLITUDE
        # equidistant from messages 1 (110) and 2 (101) only, since the last
        # two coordinates are equal but not at the halfway point a/2
        received = np.array([a, 0.2 * a, 0.2 * a])
        assert ml_decode(received, DENSE_3_2) == 1

    def test_incomplete_book_rejected(self):
        incomplete = Codebook.from_values(3, 2, 1, [0b111, 0b110])
        expected = "modulation requires exactly 2\\*\\*k = 4 codewords, got 2"
        with pytest.raises(ValueError, match=expected):
            modulated_matrix(incomplete)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 4.0, 8.0]))
    @settings(max_examples=60)
    def test_matches_density_decoder(self, seed, snr):
        params = ChannelParams(snr)
        rng = np.random.default_rng(seed)
        message = int(rng.integers(0, 4))
        mod = modulated_matrix(EQUIDISTANT_4_2)
        received = mod[message] + rng.normal(0.0, params.noise_sigma, size=4)
        assert ml_decode(received, EQUIDISTANT_4_2) == density_decode(
            received, EQUIDISTANT_4_2, params
        )

    @given(complete_books(), st.floats(-2.0, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_einsum_decoder(self, book, snr, seed):
        params = ChannelParams(snr)
        rng = np.random.default_rng(seed)
        mod = modulated_matrix(book)
        for message in rng.integers(0, book.m, size=8):
            received = mod[message] + rng.normal(0.0, params.noise_sigma, size=book.n)
            assert ml_decode(received, book) == einsum_decode(received, book)


class TestSimulateBler:
    def test_thread_count_does_not_change_result(self):
        params = ChannelParams(0.0)
        single = simulate_bler(REPETITION_PAIR, params, 50_000, seed=3, threads=1)
        pooled = simulate_bler(REPETITION_PAIR, params, 50_000, seed=3, threads=4)
        assert single == pooled

    @pytest.mark.parametrize("book", [ALL_WORDS_5, ALL_WORDS_8], ids=["k5", "k8"])
    def test_thread_count_does_not_change_result_at_realistic_k(self, book):
        # several shards, the last one partial, so that worker threads run
        # matrix products concurrently
        params = ChannelParams(6.0)
        trials = 3 * SHARD_SIZE + 123
        single = simulate_bler(book, params, trials, seed=8, threads=1)
        pooled = simulate_bler(book, params, trials, seed=8, threads=4)
        assert single == pooled
        assert 0 < single < trials

    @given(complete_books(), st.floats(-20.0, 30.0), st.integers(0, 2**64 - 1),
           st.integers(0, 1000), st.integers(1, 300), st.floats(0.0, AMPLITUDE / 2))
    # declared d = 1, measured distance 2
    @example(Codebook.from_values(4, 2, 1, EQUIDISTANT_4_2.values), 4.0, 1, 0, 300, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_shard_matches_einsum_reference(self, book, snr, seed, shard_index, count, threshold):
        """The early accept changes no error count, at the threshold simulate_bler
        sets and at any other in [0, A/2], with delta the measured distance, which
        the drawn books' declared d may fall below."""
        params = ChannelParams(snr)
        mod = modulated_matrix(book)
        sigma, delta = params.noise_sigma, book.min_distance
        expected = einsum_shard_errors(mod, sigma, book.n, seed, shard_index, count)
        for t in (linksim._clear_threshold(sigma, delta, book.n), threshold):
            errors, decoded = linksim._shard_errors(mod, sigma, delta, t, seed, shard_index, count)
            assert errors == expected
            assert errors <= decoded <= count

    def test_clear_threshold_matches_bisection_reference(self):
        """Every 1 <= delta <= n <= 24, at SNRs where the 0.84 A/2 cap binds
        (n = 12, delta = 2 at 2 and 4 dB) and where it does not."""
        for snr in (-10.0, 0.0, 2.0, 4.0, 10.0, 20.0):
            sigma = ChannelParams(snr).noise_sigma
            for n in range(1, MAX_N + 1):
                for delta in range(1, n + 1):
                    t = linksim._clear_threshold(sigma, delta, n)
                    expected = bisection_clear_threshold(sigma, delta, n)
                    assert math.isclose(t, expected, rel_tol=1e-12, abs_tol=1e-15), (snr, n, delta)
        cap = 0.84 * 0.5 * AMPLITUDE
        for snr in (2.0, 4.0):
            assert linksim._clear_threshold(ChannelParams(snr).noise_sigma, 2, 12) == cap

    def test_early_accept_stops_at_the_margin(self):
        """Noise a, just below A/2, on the two positions where 0000 and 0011
        differ gives the test value V = 2 (a - A/2) at any threshold below a:
        a row clears just below V = -ACCEPT_MARGIN and is decoded just above."""
        a = AMPLITUDE / 2 - ACCEPT_MARGIN / 2
        step = 1e-12  # a thousandth of the margin, a thousand times V's rounding
        noise = np.array([
            [0.0, 0.0, a - step, a - step],
            [0.0, 0.0, a + step, -(a + step)],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, AMPLITUDE],
        ])
        assert linksim._undecided_rows(noise, 2, 0.5).tolist() == [1, 3]
        # the third row's V is 2 (t - A/2): below -margin for t = 0, not for t = A/2
        assert linksim._undecided_rows(noise, 2, 0.0).tolist() == [1, 3]
        assert linksim._undecided_rows(noise, 2, AMPLITUDE / 2).tolist() == [0, 1, 2, 3]
        # the rows it clears are ones the decoder gets right (0000 is message
        # 3), the first by a score gap of about A * 1e-9 over 0011
        mod = modulated_matrix(EQUIDISTANT_4_2)
        assert linksim._ml_messages(noise[[0, 2]] + mod[3], mod).tolist() == [3, 3]

    def test_early_accept_clears_trials_of_a_sparse_book_at_low_snr(self):
        """At 2 dB a (12, 8, 2) book's uncapped threshold lies above A/2, where
        no trial clears; the capped one clears some, with the full decode's
        error count."""
        words = [(m << 4) | (bin(m).count("1") & 1) << 3 for m in range(1 << 8)]
        book = Codebook.from_values(12, 8, 2, words)
        assert book.min_distance == 2
        params = ChannelParams(2.0)
        mod, sigma = modulated_matrix(book), params.noise_sigma
        threshold = linksim._clear_threshold(sigma, 2, 12)
        assert threshold < AMPLITUDE / 2
        errors, decoded = linksim._shard_errors(mod, sigma, 2, threshold, 3, 0, SHARD_SIZE)
        full = linksim._shard_errors(mod, sigma, 2, AMPLITUDE / 2, 3, 0, SHARD_SIZE)
        assert decoded < SHARD_SIZE
        assert full == (errors, SHARD_SIZE)

    def test_book_below_its_declared_d_gets_the_full_decode_count(self):
        """Codebook does not enforce d: a book declared at d = 3 whose words lie
        at distance 2 is accepted only on its measured distance."""
        book = Codebook(4, 2, 3, EQUIDISTANT_4_2.values)
        trials = SHARD_SIZE + 300
        for snr in (0.0, 4.0, 8.0):
            params = ChannelParams(snr)
            mod = modulated_matrix(book)
            full = einsum_shard_errors(mod, params.noise_sigma, 4, 5, 0, SHARD_SIZE)
            full += einsum_shard_errors(mod, params.noise_sigma, 4, 5, 1, 300)
            assert simulate_bler(book, params, trials, seed=5) == full > 0

    def test_shard_memory_is_bounded(self):
        # the einsum decoder built a (SHARD_SIZE, 4096, 12) float64 tensor
        # here, 6.4 GB, and one unsplit score matrix would be 512 MiB; the
        # shard now holds one 256 KiB score block and at most two
        # (SHARD_SIZE, 12) float64 arrays of 1.5 MiB: the noise and its
        # early-accept excess, then the undecided rows and their codewords
        params = ChannelParams(4.0)
        tracemalloc.start()
        try:
            simulate_bler(ALL_WORDS_12, params, SHARD_SIZE, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_shard_bookkeeping_is_bounded(self, monkeypatch, threads):
        """A billion trials run each of their 61,036 shards once, and the loop
        around the shards keeps no per-shard list or future: under a stub
        shard it peaks below 1 MiB on one thread and on two."""
        trials = 10**9
        shards = -(-trials // SHARD_SIZE)
        calls = np.zeros(shards, dtype=np.int64)
        counts = np.zeros(shards, dtype=np.int64)

        def stub(mod, sigma, delta, threshold, seed, shard_index, count):
            calls[shard_index] += 1
            counts[shard_index] = count
            return 0, 0

        monkeypatch.setattr(linksim, "_shard_errors", stub)
        tracemalloc.start()
        try:
            assert simulate_bler(DENSE_3_2, ChannelParams(4.0), trials, seed=1, threads=threads) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert shards == 61_036
        assert (calls == 1).all()
        assert (counts[:-1] == SHARD_SIZE).all() and counts[-1] == 2_560

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        """A point asks for no more workers than the machine has CPUs, however
        many threads the caller names: a pool that runs its work inline records
        the worker count, and a billion trials still run each shard once."""
        shards = -(-10**9 // SHARD_SIZE)
        calls = np.zeros(shards, dtype=np.int64)
        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        def stub(mod, sigma, delta, threshold, seed, shard_index, count):
            calls[shard_index] += 1
            return 0, 0

        monkeypatch.setattr(linksim, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(linksim, "_shard_errors", stub)
        assert simulate_bler(DENSE_3_2, ChannelParams(4.0), 10**9, seed=1, threads=10**6) == 0
        assert all(count <= os.cpu_count() for count in workers)
        assert shards == 61_036
        assert (calls == 1).all()

    def test_row_blocks_do_not_change_result(self, monkeypatch):
        params = ChannelParams(4.0)
        trials = 2 * SHARD_SIZE + 77
        score_row = 8 * ALL_WORDS_8.m
        monkeypatch.setattr(linksim, "SCORE_BUDGET_BYTES", SHARD_SIZE * score_row)
        whole = simulate_bler(ALL_WORDS_8, params, trials, seed=11)
        # 100 rows per block: 164 blocks in a full shard, the last one short
        monkeypatch.setattr(linksim, "SCORE_BUDGET_BYTES", 100 * score_row)
        assert simulate_bler(ALL_WORDS_8, params, trials, seed=11) == whole

    def test_logs_throughput_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hdcode.linksim"):
            simulate_bler(DENSE_3_2, ChannelParams(2.0), 2 * SHARD_SIZE + 5, seed=1, threads=2)
        [record] = [r for r in caplog.records if r.name == "hdcode.linksim"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        threads = f"{min(2, os.cpu_count())} threads"
        for part in (f"{2 * SHARD_SIZE + 5} trials", "3 shards", threads, "trials/s"):
            assert part in message
        decoded, cleared = map(int, re.search(
            r"(\d+) decoded, (\d+) cleared by the noise test", message).groups())
        assert decoded + cleared == 2 * SHARD_SIZE + 5
        assert 0 < decoded < 2 * SHARD_SIZE + 5

    def test_seed_changes_result(self):
        params = ChannelParams(0.0)
        counts = {
            simulate_bler(DENSE_3_2, params, 20_000, seed=s) for s in range(5)
        }
        assert len(counts) > 1

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_refuses_seed_outside_64_bits(self, seed):
        top = (1 << 64) - 1
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, {top}\], got {seed}$"):
            simulate_bler(DENSE_3_2, ChannelParams(0.0), 100, seed=seed)

    def test_largest_seed_runs(self):
        errors = simulate_bler(DENSE_3_2, ChannelParams(0.0), 100, seed=(1 << 64) - 1)
        assert 0 <= errors <= 100

    def test_shards_accumulate(self):
        params = ChannelParams(0.0)
        one = simulate_bler(DENSE_3_2, params, SHARD_SIZE, seed=9)
        two = simulate_bler(DENSE_3_2, params, 2 * SHARD_SIZE, seed=9)
        assert one <= two

    def test_partial_shard_supported(self):
        params = ChannelParams(2.0)
        mod, sigma, delta = modulated_matrix(DENSE_3_2), params.noise_sigma, DENSE_3_2.min_distance
        threshold = linksim._clear_threshold(sigma, delta, DENSE_3_2.n)
        shards = [linksim._shard_errors(mod, sigma, delta, threshold, 4, i, count)[0]
                  for i, count in enumerate([SHARD_SIZE, 17])]
        assert simulate_bler(DENSE_3_2, params, SHARD_SIZE + 17, seed=4) == sum(shards)

    def test_high_snr_is_error_free(self):
        assert simulate_bler(REPETITION_PAIR, ChannelParams(100.0), 10_000, seed=5) == 0

    def test_shared_seed_is_monotone_in_snr(self):
        # with one seed the same standard normals underlie every point, so
        # shrinking the noise scale can only remove error events
        points = [
            simulate_bler(DENSE_3_2, ChannelParams(float(snr)), 20_000, seed=6)
            for snr in range(0, 9)
        ]
        assert all(a >= b for a, b in zip(points, points[1:]))

    def test_matches_theory_for_repetition_pair(self):
        params = ChannelParams(0.0)
        row = BlerRow.from_counts(0.0, simulate_bler(REPETITION_PAIR, params, 200_000, seed=12),
                                  200_000)
        theory = float(q_function(math.sqrt(10 * params.ebn0)))
        assert abs(row.bler - theory) <= 3 * row.ci95

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_bler(DENSE_3_2, ChannelParams(0.0), 0, seed=1)
        with pytest.raises(ValueError):
            simulate_bler(DENSE_3_2, ChannelParams(0.0), 100, seed=1, threads=0)
        incomplete = Codebook.from_values(3, 2, 1, [0b111])
        with pytest.raises(ValueError):
            simulate_bler(incomplete, ChannelParams(0.0), 100, seed=1)


class TestTheoreticalBler:
    def test_repetition_pair_equals_pairwise_error(self):
        dist = distance_distribution(REPETITION_PAIR)
        for snr in (0.0, 2.0, 4.0):
            params = ChannelParams(snr)
            expected = float(q_function(math.sqrt(10 * params.ebn0)))
            assert theoretical_bler_dominant(dist, params) == pytest.approx(expected)
            assert theoretical_bler_union(dist, params) == pytest.approx(expected)

    def test_equidistant_book_hand_value(self):
        # every codeword has 3 neighbors at distance 2; at Eb/N0 = 4 the
        # dominant term is 3 * Q(sqrt(8)) ~= 7.017e-3
        params = ChannelParams(10 * math.log10(4.0))
        value = theoretical_bler_dominant(distance_distribution(EQUIDISTANT_4_2), params)
        assert value == pytest.approx(3 * float(q_function(math.sqrt(8))), rel=1e-12)
        assert value == pytest.approx(7.0166e-3, rel=1e-3)

    def test_union_dominates_dominant_term(self):
        book = Codebook.from_values(4, 2, 1, [0b1111, 0b1110, 0b1101, 0b1011])
        dist = distance_distribution(book)
        for snr in (0.0, 4.0, 8.0):
            params = ChannelParams(snr)
            assert theoretical_bler_union(dist, params) >= theoretical_bler_dominant(dist, params) - 1e-15

    def test_union_clamped_to_one(self):
        book = Codebook.from_values(4, 2, 1, [0b1111, 0b1110, 0b1101, 0b1011])
        assert theoretical_bler_union(distance_distribution(book), ChannelParams(-10.0)) == 1.0

    def test_dominant_clamped_to_one(self):
        # 8 neighbours at distance 1 per word: the raw term is about 3.0 at -10 dB
        dist = distance_distribution(ALL_WORDS_8)
        assert theoretical_bler_dominant(dist, ChannelParams(-10.0)) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(book=complete_books(), ebn0_db=st.floats(-30.0, 30.0))
    def test_both_bounds_are_probabilities(self, book, ebn0_db):
        dist = distance_distribution(book)
        params = ChannelParams(ebn0_db)
        assert 0.0 <= theoretical_bler_dominant(dist, params) <= 1.0
        assert 0.0 <= theoretical_bler_union(dist, params) <= 1.0

    def test_dominant_uses_actual_min_distance(self):
        # declared d=1 but the actual minimum distance is 2
        book = EQUIDISTANT_4_2
        loose = Codebook.from_values(4, 2, 1, book.values)
        params = ChannelParams(3.0)
        assert theoretical_bler_dominant(distance_distribution(loose), params) == (
            theoretical_bler_dominant(distance_distribution(book), params)
        )

    def test_flat_spectrum_makes_bounds_agree(self):
        # with every pair at the same distance the dominant term is the
        # whole union bound
        dist = distance_distribution(EQUIDISTANT_4_2)
        for snr in (2.0, 5.0, 8.0):
            params = ChannelParams(snr)
            dominant = theoretical_bler_dominant(dist, params)
            union = theoretical_bler_union(dist, params)
            assert abs(dominant - union) <= 1e-6 * union
