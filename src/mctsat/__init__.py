"""mctsat: MaxSAT-family solving via a 0/1 linear reduction and Monte-Carlo
tree search, with multi-optimum enumeration and an exhaustive oracle.

``import mctsat`` loads the parser, the BLP layer, the search and the RL
layer.  The enumerator, the oracle and the records module load on first use
(PEP 562): ``EnumerationReport`` and ``enumerate_optima``, ``OracleResult``
and ``brute_force``, ``CSV_COLUMNS``, ``make_record`` and ``record_to_json``,
and the submodules ``enumeration``, ``oracle`` and ``records`` themselves.
They are lazy because finding all optima, or labels, is often many short
processes, most of which call none of them, and their import (with the
``json`` that ``records`` brings) is a share of each process's start.
"""

from .blp import (
    BlpProblem,
    ObjectiveResult,
    SatTableaux,
    UNASSIGNED,
    format_blp,
    objective,
    objective_weights,
    satisfied_mask,
    to_blp,
)
from .instances import (
    Clause,
    Formula,
    Literal,
    ParseError,
    ProblemClass,
    check_hard_weight_rule,
    classify,
    generate_random,
    parse_cnf,
    parse_dimacs,
    parse_wcnf,
    write_dimacs,
)
from .mcts import (
    ExploitRule,
    LevelStats,
    SearchStats,
    SolveResult,
    SolverConfig,
    TheoryBudgets,
    backup,
    derive_seed,
    exploration_arms,
    exploration_eligible,
    rank,
    select_best_child,
    select_exploration_child,
    significance,
    soft_threshold,
    solve,
    theory_budgets,
    uct_value,
)
from .rl import (
    Action,
    Episode,
    EpisodeScorer,
    RewardKind,
    State,
    action_space,
    apply_action,
    rollout,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BlpProblem",
    "CSV_COLUMNS",
    "Clause",
    "EnumerationReport",
    "Episode",
    "EpisodeScorer",
    "ExploitRule",
    "Formula",
    "Literal",
    "ObjectiveResult",
    "OracleResult",
    "ParseError",
    "ProblemClass",
    "RewardKind",
    "SatTableaux",
    "LevelStats",
    "SearchStats",
    "SolveResult",
    "SolverConfig",
    "State",
    "TheoryBudgets",
    "UNASSIGNED",
    "action_space",
    "apply_action",
    "backup",
    "brute_force",
    "check_hard_weight_rule",
    "classify",
    "derive_seed",
    "enumerate_optima",
    "exploration_arms",
    "exploration_eligible",
    "format_blp",
    "generate_random",
    "make_record",
    "objective",
    "objective_weights",
    "parse_cnf",
    "parse_dimacs",
    "parse_wcnf",
    "rank",
    "record_to_json",
    "rollout",
    "satisfied_mask",
    "select_best_child",
    "select_exploration_child",
    "significance",
    "soft_threshold",
    "solve",
    "theory_budgets",
    "to_blp",
    "uct_value",
    "write_dimacs",
]

# lazy name -> the submodule that defines it; a submodule's name maps to itself
_LAZY = {
    "EnumerationReport": "enumeration",
    "enumerate_optima": "enumeration",
    "OracleResult": "oracle",
    "brute_force": "oracle",
    "CSV_COLUMNS": "records",
    "make_record": "records",
    "record_to_json": "records",
    "enumeration": "enumeration",
    "oracle": "oracle",
    "records": "records",
}


def __getattr__(name):
    """Import a lazy name's submodule on first use and cache the name here."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
