"""Outside-in tracing for the benchmark's traced run.

Each traced layer is a public entry point of mctsat, wrapped in every
namespace its callers resolve it from: ``mctsat.mcts`` for the search calls
inside ``solve``, ``mctsat.rl`` for the calls inside ``rollout`` and
``initial_state``, and the ``EpisodeScorer`` class for its methods.  The
benchmark itself calls ``solve``, the oracle, the records and the instance
functions through their module attributes, so wrapping those attributes
traces its own calls too.

Spans are not stored: each wrapper adds its call count, inclusive time and
self time (inclusive time minus the time of wrapped calls nested inside it)
to its layer's totals.  A recursive call adds to the self time but not again
to the inclusive time.  An entry point that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, [(module, attribute path)], unit of the per-call time)
OP_LAYERS = (
    ("mcts.solve", [("mctsat.mcts", "solve")], "ms"),
    ("mcts.select_exploration_child", [("mctsat.mcts", "select_exploration_child")], "us"),
    ("mcts.select_best_child", [("mctsat.mcts", "select_best_child")], "us"),
    ("mcts.backup", [("mctsat.mcts", "backup")], "us"),
    ("rl.rollout", [("mctsat.mcts", "rollout")], "us"),
    ("rl.apply_action", [("mctsat.mcts", "apply_action"), ("mctsat.rl", "apply_action")], "us"),
    ("rl.action_space", [("mctsat.mcts", "action_space"), ("mctsat.rl", "action_space")], "us"),
    ("rl.EpisodeScorer.init", [("mctsat.rl", "EpisodeScorer.__init__")], "us"),
    ("rl.EpisodeScorer.terminal_value", [("mctsat.rl", "EpisodeScorer.terminal_value")], "us"),
    ("rl.EpisodeScorer.score", [("mctsat.rl", "EpisodeScorer.score")], "us"),
    ("blp.to_blp", [("mctsat.rl", "to_blp")], "us"),
    ("oracle.brute_force", [("mctsat.oracle", "brute_force")], "s"),
    ("records.make_record", [("mctsat.records", "make_record")], "us"),
    ("records.record_to_json", [("mctsat.records", "record_to_json")], "us"),
)
SETUP_LAYERS = (
    ("instances.parse_dimacs", [("mctsat.instances", "parse_dimacs")], "us"),
    ("instances.generate_random", [("mctsat.instances", "generate_random")], "us"),
    ("instances.classify", [("mctsat.instances", "classify")], "us"),
)
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _owner(module_name: str, path: str):
    """(object holding the attribute, attribute name), or None if absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = vars(owner).get(name)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


class Tracer:
    """Per-layer totals: [calls, inclusive s, self s, active nesting depth]."""

    def __init__(self, layers):
        self.layers = layers
        self.stats = {layer: [0, 0.0, 0.0, 0] for layer, _, _ in layers}
        self.absent = [
            layer
            for layer, sites, _ in layers
            if not any(_owner(module, path) for module, path in sites)
        ]
        self._child = []  # time of wrapped calls nested in each open span
        self._outer = [0.0]  # time spent in outermost wrapped calls
        self._patches = []

    @property
    def outer_s(self) -> float:
        return self._outer[0]

    def __enter__(self):
        for layer, sites, _ in self.layers:
            for module, path in sites:
                site = _owner(module, path)
                if site is None:
                    continue
                owner, attr = site
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, self.stats[layer]))
                self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, fn, stat):
        clock = time.perf_counter
        child, outer = self._child, self._outer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            stat[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[3] -= 1
                stat[0] += 1
                stat[2] += elapsed - child.pop()
                if stat[3] == 0:
                    stat[1] += elapsed
                if child:
                    child[-1] += elapsed
                else:
                    outer[0] += elapsed

        return traced
