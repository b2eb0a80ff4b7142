from itertools import combinations

import numpy as np
import pytest

from hdcode import exhaustive_best_codebook, total_ones
from hdcode.codebook import _by_weight
from hdcode.oracle import ORACLE_MAX_K, ORACLE_MAX_N


def brute_force_optimum(n, k, d):
    """Max total ones over every 2**k subset; None when no subset is valid."""
    best = None
    for combo in combinations(range(1 << n), 1 << k):
        if all((a ^ b).bit_count() >= d for a, b in combinations(combo, 2)):
            ones = sum(v.bit_count() for v in combo)
            best = ones if best is None else max(best, ones)
    return best


class TestExhaustiveSearch:
    @pytest.mark.parametrize(
        "n,k,d",
        [(2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 2), (4, 2, 3), (4, 3, 1), (4, 3, 2), (5, 2, 3)],
    )
    def test_matches_full_enumeration(self, n, k, d):
        result = exhaustive_best_codebook(n, k, d)
        assert result.optimum_ones == brute_force_optimum(n, k, d)

    def test_witness_attains_the_optimum(self):
        result = exhaustive_best_codebook(4, 3, 2)
        book = result.witness
        assert book.m == 8
        book.validate()
        assert total_ones(book) == result.optimum_ones == 16

    def test_known_small_optima(self):
        assert exhaustive_best_codebook(3, 2, 1).optimum_ones == 9
        assert exhaustive_best_codebook(3, 2, 2).optimum_ones == 6
        assert exhaustive_best_codebook(6, 3, 2).optimum_ones == 36

    def test_infeasible_instances(self):
        for (n, k, d) in [(2, 2, 2), (3, 2, 3), (4, 2, 3)]:
            result = exhaustive_best_codebook(n, k, d)
            assert not result.feasible
            assert result.optimum_ones is None
            assert result.witness is None

    def test_capacity_cap(self):
        with pytest.raises(ValueError):
            exhaustive_best_codebook(7, 2, 1)
        with pytest.raises(ValueError):
            exhaustive_best_codebook(6, 4, 1)
        assert ORACLE_MAX_N == 6
        assert ORACLE_MAX_K == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exhaustive_best_codebook(4, 2, 0)
        with pytest.raises(ValueError):
            exhaustive_best_codebook(4, 2, 5)

    @pytest.mark.parametrize("n", range(1, ORACLE_MAX_N + 1))
    def test_scan_order_is_heaviest_first_larger_on_ties(self, n):
        """The oracle scans the words in codebook._by_weight's order."""
        expected = sorted(range(1 << n), key=lambda v: (-v.bit_count(), -v))
        assert _by_weight(np.arange(1 << n, dtype=np.uint32)).tolist() == expected

    def test_deterministic_witness(self):
        first = exhaustive_best_codebook(4, 2, 2)
        second = exhaustive_best_codebook(4, 2, 2)
        assert first.witness == second.witness

