"""Per-layer instrumentation for the traced benchmark run.

The program is not modified: a :class:`LayerClock` wraps the public
functions and methods each planner layer exposes, replacing every
reference the loaded ``repro`` modules hold (``from x import f`` copies
the name, so patching only the defining module would miss callers).
Each wrapper counts calls and busy time; self time is busy time minus
the busy time of wrapped calls nested inside it on the same thread.

Wrappers are installed only for ``--trace 1``; the untraced run that
yields the end-to-end metrics executes the program as shipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute, layer name) of every wrapped function.  The
#: layer names are the per-layer metric prefixes; ``Class.method``
#: attributes patch the class.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.graphbuilder", "build_iteration_graph", "graphbuilder"),
    ("repro.core.signature", "compute_signature", "signature"),
    ("repro.core.plancache", "PlanCache.lookup", "plancache.lookup"),
    ("repro.core.searcher", "ScheduleSearcher.search", "searcher.search"),
    ("repro.core.searcher", "ScheduleSearcher.replay", "searcher.replay"),
    ("repro.core.memopt", "generate_candidates", "memopt.candidates"),
    ("repro.core.memopt", "optimize_memory", "memopt.solve"),
    ("repro.solver.bnb", "solve_mc_interval", "solver.bnb"),
    ("repro.core.mcts", "mcts_reorder", "mcts.reorder"),
    ("repro.core.evalcore", "EvalCore.evaluate", "evalcore.evaluate"),
    ("repro.sim.pipeline", "simulate_pipeline", "sim.simulate"),
)


class LayerClock:
    """Call counts, busy and self time per layer, plus result hooks.

    ``hooks`` maps a layer name to ``fn(result, args, kwargs)``, called
    after each successful wrapped call, so counters are read at the
    boundary where the work happens (nodes from a solver solution,
    evaluations from a reorder result).
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.hooks = dict(hooks or {})
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = self
        hook = self.hooks.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.calls[layer] += 1
                    clock.busy_s[layer] += elapsed
                    clock.self_s[layer] += elapsed - nested
            if hook is not None:
                with clock._lock:
                    hook(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> "LayerClock":
        """Wrap every layer in :data:`LAYERS`; idempotent per clock."""
        if self._patches:
            return self
        for module_name, attr, layer in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(layer, original))
                self._patches.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, wrapper)
                    self._patches.append((loaded, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
