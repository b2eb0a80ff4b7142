"""High-density codebooks: design by genetic local search, evaluation over OOK/AWGN.

Each public name lives in one submodule, which is imported the first time
the name is looked up here (PEP 562), so `import hdcode` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "codebook": (
        "MAX_N", "Codebook", "CodebookFormatError", "distance_distribution", "finalize",
        "load_codebook", "message_order", "parse_codebook", "positions_to_mask",
        "save_codebook", "serialize_codebook", "total_ones",
    ),
    "linksim": (
        "ChannelParams", "q_function", "simulate_bler",
        "theoretical_bler_dominant", "theoretical_bler_union",
    ),
    "metrics": (
        "BlerTable", "EnergyMetrics", "SelectionRule", "SweepRecord", "bler_table",
        "energy_metrics", "select_codebook", "throughput", "tradeoff_sweep",
    ),
    "oracle": ("OracleResult", "exhaustive_best_codebook"),
    "search": (
        "DesignConfig", "SearchReport", "effective_weight", "extend_codebook",
        "genetic_local_search", "initial_population", "local_search", "recombination",
        "recombine_pair", "selection",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
