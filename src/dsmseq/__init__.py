"""Sequencing toolkit for dependency networks: reorder the nodes of a
directed dependency matrix to minimize feedback loops, by LLM-guided
search, a permutation GA, or deterministic matrix-function rankings.

Importing the package loads none of its modules; each public name loads
its home module, and numpy with it, the first time it is read."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bench": (
        "ExperimentSpec",
        "ResultTable",
        "aggregate_stats",
        "load_experiment_spec",
        "merge_curves",
        "run_experiment",
    ),
    "ga": ("GaConfig", "order_crossover", "pmx_crossover", "preset_config", "run_ga", "shuffle_mutation", "tournament_select"),
    "llm": ("ChatRequest", "ChatResult", "OpenAIChatProvider", "ProviderError", "ScriptedProvider"),
    "model": (
        "AdjacencyMatrix",
        "CaseError",
        "DsmCase",
        "Edge",
        "NetworkMetrics",
        "Node",
        "anonymize_ids",
        "build_adjacency",
        "bundled_case",
        "bundled_case_names",
        "case_from_dict",
        "load_case",
        "matrix_from_array",
        "network_metrics",
    ),
    "optimizer": ("OptimizationAborted", "OptimizerConfig", "run_optimization"),
    "prompts": ("OrderParseError", "PromptContext", "PromptFrame", "build_prompt", "parse_order_response"),
    "ranking": (
        "DETERMINISTIC_METHODS",
        "NodeRanking",
        "eigenvector_order",
        "out_in_degree_order",
        "reachability_closure",
        "visibility_order",
        "walk_exponential_order",
        "walk_resolvent_order",
    ),
    "scoring": ("brute_force_optimum", "is_valid_sequence", "reorder_matrix", "score_sequence"),
    "solutions": ("SolutionBase", "SolutionRecord", "TerminationPolicy"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
