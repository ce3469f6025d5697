"""Layer spans and counts recorded from outside the powerswap package.

Each public function of a layer is replaced, for the duration of one traced
pass, at the module attribute its caller looks up (``pricer.solve_riccati``,
not ``charfn.solve_riccati``, because the pricer calls it through its own
module globals).  Nothing under ``src/`` is edited.  A name that no longer
exists is recorded as absent and the pass goes on without it, so a later
refactor that deletes or renames a layer function degrades the trace instead
of breaking the benchmark.

Spans are kept in memory as ``(layer, start, end, parent)`` tuples and
written out after the pass; counts are taken inside the same wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import threading
import time
from collections import Counter

import numpy as np

# Fixed start of the pricer's step-doubling sequence (solve_riccati's
# n_start): a solve that ends at n steps integrated 64 + 128 + ... + n
# = 2n - 64 steps per node.
_RICCATI_N_START = 64

# (module, attribute, layer, kind).  The module is the one whose globals the
# caller reads the name from.
WRAP_POINTS = (
    ("powerswap.pricer", "price_fourier_many", "pricer", "span"),
    ("powerswap.pricer", "price_mc", "pricer", "span"),
    ("powerswap.pricer", "solve_riccati", "charfn", "riccati"),
    ("powerswap.charfn", "decompose", "averaging", "decompose"),
    ("powerswap.simulate", "decompose", "averaging", "decompose"),
    ("powerswap.averaging", "integrate_over_delivery", "quadrature", "count"),
    ("powerswap.pricer", "check_novikov", "conditions", "span"),
    ("powerswap.simulate", "full_report", "conditions", "span"),
    ("powerswap.pricer", "simulate_terminal", "simulate", "simulate"),
)


class Tracer:
    """Installs the layer wrappers and holds what they record."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._sim_keys: set[str] = set()
        self._local = threading.local()
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, layer, kind in WRAP_POINTS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = getattr(self, f"_wrap_{kind}")(layer, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer, fn, on_call=None):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result
        return wrapper

    def _wrap_span(self, layer, fn):
        return self._timed(layer, fn)

    def _wrap_count(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{layer}.calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_riccati(self, layer, fn):
        def on_call(args, kwargs, sol):
            self.counts["charfn.solves"] += 1
            n_nodes = int(np.size(sol.phi))
            self.counts["charfn.node_steps"] += n_nodes * max(
                0, 2 * sol.n_steps - _RICCATI_N_START)
        return self._timed(layer, fn, on_call)

    def _wrap_decompose(self, layer, fn):
        """S and xi are returned as callables; time each call of them."""
        def count_points(args, kwargs, result):
            self.counts["averaging.points"] += int(np.size(args[0]))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dec = fn(*args, **kwargs)
            if not (dataclasses.is_dataclass(dec) and callable(getattr(dec, "big_s", None))
                    and callable(getattr(dec, "xi", None))):
                # S and xi are no longer callables: nothing to time here
                name = f"{fn.__module__}.{fn.__name__}().big_s/xi"
                if name not in self.absent:
                    self.absent.append(name)
                return dec
            return dataclasses.replace(
                dec, big_s=self._timed(layer, dec.big_s, count_points),
                xi=self._timed(layer, dec.xi, count_points))
        return wrapper

    def _wrap_simulate(self, layer, fn):
        def on_call(args, kwargs, result):
            grid = args[4] if len(args) > 4 else kwargs["g"]
            self.counts["simulate.calls"] += 1
            self.counts["simulate.path_steps"] += grid.n_paths * grid.n_steps
            # workers changes scheduling only; the paths depend on the rest
            key = repr((args, sorted((k, v) for k, v in kwargs.items()
                                     if k != "workers")))
            self._sim_keys.add(key)
            self.counts["simulate.unique"] = len(self._sim_keys)
        return self._timed(layer, fn, on_call)

    # -- reduction -----------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict]:
        """Total and self seconds per layer; self excludes direct children."""
        total: Counter = Counter()
        child: Counter = Counter()
        for layer, start, end, parent in self.spans:
            dur = end - start
            total[layer] += dur
            if parent >= 0:
                child[parent] += dur
        self_s: Counter = Counter()
        for idx, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[idx]
        return dict(total), dict(self_s)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")
