"""Span tracer for the public functions of the debranges package.

The tracer wraps every public module-level function of the layer modules and
rebinds the wrapper in every ``debranges`` module namespace that binds the
original, so ``integrate`` is traced whether it is reached as
``numerics.integrate``, ``extremal.integrate`` or ``bounds.integrate``.  One
wrapper exists per original function, so a call produces exactly one span
whichever name it went through.

Spans live in flat in-memory arrays (name, start, end, parent, op id) and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans; calls are single-threaded and
properly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("hb_core", "numerics", "bounds", "hormander", "extremal", "cli")

# argument probes: (points evaluated, zeros of the spec) for the per-point
# cost of the vectorised evaluators
_POINT_PROBES = {
    "hb_core.eval_E": lambda a: (np.size(a[1]), a[0].degree),
    "hb_core.phase": lambda a: (np.size(a[1]), a[0].spec.degree),
    "hb_core.phase_derivative": lambda a: (np.size(a[1]), a[0].degree),
}


class Tracer:
    """Records one span per traced call; install() patches, uninstall() undoes."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        # per-span extras, only for the probed functions and integrate
        self.points: dict = {}
        self.refinements: dict = {}
        self._stack = [-1]
        self.op_id = -1
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself (an op)."""
        return _Span(self, self._intern(name))

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        probe = _POINT_PROBES.get(name)
        is_integrate = name == "numerics.integrate"
        is_cli_run = name == "cli.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            if probe is not None:
                self.points[idx] = probe(args)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            if is_integrate:
                self.refinements[idx] = (out.refinements, out.converged)
                failed = False
            elif is_cli_run:
                failed = out != 0
            else:
                failed = getattr(out, "passed", True) is False
            self._close(idx, failed)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap each public layer function in every debranges namespace."""
        layers = {short: importlib.import_module(f"debranges.{short}") for short in LAYERS}
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if (name == "debranges" or name.startswith("debranges.")) and mod is not None
        }
        wrappers: dict = {}
        for short, mod in layers.items():
            for attr, val in vars(mod).items():
                if (
                    inspect.isfunction(val)
                    and not attr.startswith("_")
                    and val.__module__ == mod.__name__
                ):
                    wrappers[id(val)] = (val, self._wrap(f"{short}.{attr}", val))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

    def _self_times(self, a):
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur, dur - child

    def summary(self) -> dict:
        """Per traced function: calls, total_s, self_s, failed and extras."""
        a = self.arrays()
        dur, self_t = self._self_times(a)
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(np.sum(dur[mask])),
                "self_s": float(np.sum(self_t[mask])),
                "failed": int(np.sum(a["failed"][mask])),
            }
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
        for name in _POINT_PROBES:
            nid = self._name_ids.get(name)
            points = 0
            work = {False: 0.0, True: 0.0}  # keyed by "more than 64 zeros"
            busy = {False: 0.0, True: 0.0}
            for idx, (n_pts, n_zeros) in self.points.items():
                if a["name_id"][idx] != nid:
                    continue
                points += n_pts
                work[n_zeros > 64] += n_pts * max(n_zeros, 1)
                busy[n_zeros > 64] += self_t[idx]
            entry = out.setdefault(name, dict(empty))
            entry["points"] = int(points)
            entry["ns_per_point_zero_le64"] = 1e9 * busy[False] / work[False] if work[False] else 0.0
            entry["ns_per_point_zero_gt64"] = 1e9 * busy[True] / work[True] if work[True] else 0.0
        entry = out.setdefault("numerics.integrate", dict(empty))
        entry["refinements"] = int(sum(r for r, _ in self.refinements.values()))
        entry["unconverged"] = sum(1 for _, ok in self.refinements.values() if not ok)
        return out

    def library_self_s(self) -> float:
        """Sum of self time over every library span (op spans excluded)."""
        a = self.arrays()
        if not a["start"].size:
            return 0.0
        _, self_t = self._self_times(a)
        lib = np.array([not n.startswith("op:") for n in self.names], dtype=bool)
        return float(np.sum(self_t[lib[a["name_id"]]]))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx, exc_type is not None)
        return False
