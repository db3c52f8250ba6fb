"""Outside-in tracer for the mixedphase layers.

Wraps every public function of each layer module and rebinds the
wrapper under every name that refers to the original anywhere in the
package: `cli` and `phases` import functions by name, so wrapping only
the defining module would miss their calls. Nothing in the package is
edited; `uninstall` puts every original back.

Each call records a span (id, name, start, end, parent) kept in memory.
A span's self time is its duration minus the time its child spans
cover, where a child covers its whole wrapper, so the tracer's own
bookkeeping is charged to no layer (it shows up as tracing overhead
instead); inclusive times likewise leave out the wrappers below them. Modules that are not layers (angles, errors, tolerances) are
not wrapped, so their time counts toward the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "mixedphase"
LAYERS = ("cli", "serialize", "states", "transport", "phases", "oracles", "linalg")
# Dense kernels whose inputs are hashed (eig redundancy) and sized (n^3).
EIG = "linalg.hermitian_eig"
SVD = "linalg.polar_unitary"
# serialize functions that read problems vs format results
LOADERS = ("serialize.load_problem", "serialize.problem_from_dict")
WRITERS = ("serialize.report_to_dict", "serialize.report_warnings",
           "serialize.sweep_to_csv", "serialize.sweep_to_json", "serialize.sweep_header",
           "serialize.sweep_row", "serialize.problem_to_dict", "serialize.save_problem")
HOLONOMY = "oracles.discrete_uhlmann_holonomy"


class Tracer:
    """Spans and counts for the calls into each layer during one op."""

    def __init__(self):
        self._rebound: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        # span: (id, name, start, end, parent, covered_start, covered_end)
        self.spans: list[tuple] = []
        self.raised: Counter = Counter()
        self.eig_inputs: set = set()
        self.dense_n3 = 0

    # -- installation -------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, val))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    # -- recording ----------------------------------------------------
    def begin(self) -> int:
        """Open the benchmark's root span of one op; close it with end."""
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((sid, "op", start, end, None, start, end))

    def _note_kernel(self, name: str, a) -> None:
        a = np.asarray(a)
        self.dense_n3 += int(a.shape[0]) ** 3
        if name == EIG:
            self.eig_inputs.add((a.shape, a.dtype.str,
                                 hashlib.blake2b(np.ascontiguousarray(a).tobytes(),
                                                 digest_size=16).digest()))

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        kernel = name in (EIG, SVD)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered_start = clock()
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            if kernel:
                self._note_kernel(name, args[0] if args else kwargs["a"])
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, covered_start, clock()))

        return traced

    # -- per-op summary -----------------------------------------------
    def summary(self, op_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the op recorded since the last reset;
        shares are self time over op_wall_s."""
        covered = Counter()
        for _sid, _name, _s, _e, parent, cs, ce in self.spans:
            if parent is not None:
                covered[parent] += ce - cs
        calls, self_s = Counter(), Counter()
        load_s = write_s = holonomy_s = 0.0
        eig_calls = svd_calls = 0
        names = {}  # span id -> function name
        for sid, name, start, end, parent, _cs, _ce in self.spans:
            if "." not in name:
                continue  # the benchmark's root span
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += (end - start) - covered[sid]
            names[sid] = name
            eig_calls += name == EIG
            svd_calls += name == SVD
        # wrapper time of all descendants, so inclusive times exclude tracing
        below = Counter()
        for sid, _name, start, end, parent, cs, ce in self.spans:  # children first
            below[parent] += (ce - cs) - (end - start) + below[sid]
        for sid, name, start, end, parent, _cs, _ce in self.spans:
            if names.get(parent, "").split(".", 1)[0] == name.split(".", 1)[0]:
                continue  # nested in a call to the same layer: counted by the caller
            inclusive = (end - start) - below[sid]
            if name in LOADERS:
                load_s += inclusive
            elif name in WRITERS:
                write_s += inclusive
            elif name == HOLONOMY:
                holonomy_s += inclusive
        out = {}
        for layer in LAYERS:
            raised = sum(v for k, v in self.raised.items() if k.startswith(layer + "."))
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / op_wall_s
            out[f"{layer}.raised"] = raised
        out["linalg.eig_calls"] = eig_calls
        out["linalg.svd_calls"] = svd_calls
        out["linalg.eig_redundancy"] = eig_calls / max(1, len(self.eig_inputs))
        out["linalg.dense_n3"] = self.dense_n3
        out["serialize.load_s"] = load_s
        out["serialize.write_s"] = write_s
        out["oracles.holonomy_s"] = holonomy_s
        return out
