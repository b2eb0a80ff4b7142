"""Exhaustive ground truth for small design instances.

Branch-and-bound over all 2**k-subsets of words.  Capacity is capped hard:
past n=6 or k=3 the subset space is too large for an exact scan to finish in
test time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codebook import Codebook, _integer

ORACLE_MAX_N = 6
ORACLE_MAX_K = 3


@dataclass(frozen=True)
class OracleResult:
    """Optimal ones count and one witness codebook; both None when infeasible."""

    optimum_ones: int | None
    witness: Codebook | None

    @property
    def feasible(self) -> bool:
        return self.optimum_ones is not None


def exhaustive_best_codebook(n: int, k: int, d: int) -> OracleResult:
    """Maximize total ones over all valid (n, k, d) codebooks by exact search.

    Candidates are scanned in decreasing weight so a prefix-sum bound prunes
    whole subtrees.  The witness is the first optimum in that scan order,
    which makes the result deterministic.
    """
    n, k, d = (_integer(name, v, 1) for name, v in zip("nkd", (n, k, d)))
    if n > ORACLE_MAX_N or k > ORACLE_MAX_K:
        raise ValueError(
            f"exhaustive search is capped at n <= {ORACLE_MAX_N} and k <= {ORACLE_MAX_K}"
        )
    Codebook(n=n, k=k, d=d)  # validates the parameter domain
    need_total = 1 << k
    candidates = sorted(range(1 << n), key=lambda v: (-v.bit_count(), -v))
    weights = [v.bit_count() for v in candidates]
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    best_ones = -1
    best: list[int] | None = None
    chosen: list[int] = []

    def recurse(start: int, ones: int) -> None:
        nonlocal best_ones, best
        if len(chosen) == need_total:
            if ones > best_ones:
                best_ones = ones
                best = chosen.copy()
            return
        need = need_total - len(chosen)
        for i in range(start, len(candidates) - need + 1):
            # weights are non-increasing, so once the optimistic bound falls
            # to best_ones no later branch at this level can beat it either
            if ones + prefix[i + need] - prefix[i] <= best_ones:
                return
            v = candidates[i]
            if all((v ^ u).bit_count() >= d for u in chosen):
                chosen.append(v)
                recurse(i + 1, ones + weights[i])
                chosen.pop()

    recurse(0, 0)
    if best is None:
        return OracleResult(None, None)
    return OracleResult(best_ones, Codebook.from_values(n, k, d, best))

