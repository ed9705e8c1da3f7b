"""Outside-in span tracer for the ``repro`` layer packages.

:meth:`Tracer.install` wraps, at **class** level, every method of every
class defined in the layer packages (``repro.engine``, ``repro.net``,
...), plus the unit entry points named in :data:`ENTRY_POINTS`.
Wrapping the class rather than live objects also catches call sites
that prebind a bound method at construction (``self._schedule =
sim.schedule``), provided the wrappers go in before the first object is
built.  Nothing under ``src/`` changes.

Each call becomes a span: function id, start and end (ns), parent span
and unit id.  Self time is a span's duration minus the duration of its
direct children; it is accumulated online per function, while the
spans themselves are kept in memory (up to :data:`SPAN_CAP`) and
written out at the end.  The wrapper's own bookkeeping cost, inside
and outside a span's timing window, is calibrated once and charged to
nobody, so self times approach untraced time.

A *unit* is one call of an entry point at depth 0.  When a unit ends,
the program's own counters (``Simulator.heap_pushes``,
``TwoStateChannel.frames_tested``, ``ArqStats``, ...) are read from the
instances built during the unit, which ``__init__`` wrappers register.

Forked worker processes inherit the wrappers.  A worker appends its
spans, per-function totals and unit counters to ``spans-<pid>.pkl`` in
:attr:`Tracer.spool_dir` whenever its span stack empties, so the parent
can merge them after the pool has stopped (:meth:`Tracer.merge_spool`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing.connection
import os
import pickle
import pkgutil
import time
from array import array
from pathlib import Path

#: Module prefix -> layer name.  The first matching prefix wins, so the
#: event log (an instrument of the validation engine) is charged to
#: ``validate`` rather than to ``metrics``.
LAYERS = (
    ("repro.metrics.eventlog", "validate"),
    ("repro.engine", "engine"),
    ("repro.channel", "channel"),
    ("repro.net", "net"),
    ("repro.linklayer", "linklayer"),
    ("repro.tcp", "tcp"),
    ("repro.core", "core"),
    ("repro.experiments", "experiments"),
    ("repro.handoff", "handoff"),
    ("repro.csdp", "csdp"),
    ("repro.validate", "validate"),
    ("repro.metrics", "metrics"),
    ("repro.workloads", "workloads"),
)

#: Module-level functions that start one unit of work.  The benchmark
#: and ``ParallelRunner`` both look these up on their module at call
#: time, so replacing the module attribute is enough.
ENTRY_POINTS = (
    ("repro.experiments.topology", "run_scenario"),
    ("repro.handoff.topology", "run_handoff_scenario"),
    ("repro.csdp.study", "run_csdp_study"),
    ("repro.experiments.congestion", "run_congested_scenario"),
)

#: Module-level functions traced as ordinary spans.
EXTRA_FUNCTIONS = (("repro.validate.engine", "run_validated"),)

#: Dunder methods worth a span; the rest (``__eq__``, ``__repr__``,
#: ``__hash__``, ...) are dataclass boilerplate.
DUNDERS = frozenset(
    {"__init__", "__post_init__", "__call__", "__len__", "__iter__", "__lt__"}
)

#: Most spans kept in memory per process; later spans still count in
#: the per-function totals but are not written out.
SPAN_CAP = 2_000_000

#: Unit ids are ``pid * UNIT_STRIDE + n``, unique across forked workers.
UNIT_STRIDE = 1_000_000

#: Function id of the pseudo-layer ``idle``: the campaign supervisor
#: blocked in ``multiprocessing.connection.wait`` for worker results.
IDLE = 0


def layer_of(module: str) -> str | None:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, counter_classes: dict, read_counters) -> None:
        #: class name -> class whose instances are registered per unit.
        self.counter_classes = counter_classes
        #: callable(registry) -> dict of counters for one unit.
        self.read_counters = read_counters
        self.owner_pid = os.getpid()
        self.spool_dir: Path | None = None
        self.functions: list[tuple[str, str, str]] = [
            ("idle", "connection.wait", "multiprocessing.connection")
        ]
        self.calls = [0]
        self.self_ns = [0]
        self.incl_ns = [0]
        self.result_len: dict[int, int] = {}
        self.unit_counters: list[dict] = []
        self.registry: dict[str, list] = {name: [] for name in counter_classes}
        self.fids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.units = array("q")
        self.dropped_spans = 0
        self.unit = 0
        self._unit_seq = 0
        self._stack: list[int] = []  # span index, or -1 past the cap
        self._child: list[int] = []  # child time accumulated per frame
        self._entry_fids: set[int] = set()
        self._build_open = False
        self._build_ns = self._build_calls = self._build_start = 0
        self._originals: list[tuple[object, str, object]] = []
        #: Calibrated per-call wrapper cost outside / inside a span's window.
        self.overhead_ns = self.inside_ns = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer class, the entry points and the idle wait."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name == "repro.cli" or layer_of(info.name) is None:
                continue
            module = importlib.import_module(info.name)
            for cls in list(vars(module).values()):
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    self._wrap_class(cls, layer_of(info.name))
        for module_name, name in ENTRY_POINTS + EXTRA_FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name)
            fid = self._new_fid(layer_of(module_name), name, module_name)
            if (module_name, name) in ENTRY_POINTS:
                self._entry_fids.add(fid)
            self._patch(module, name, self._wrapper(fn, fid))
        self._patch(
            multiprocessing.connection,
            "wait",
            self._wrapper(multiprocessing.connection.wait, IDLE),
        )
        self.overhead_ns, self.inside_ns = self._calibrate()
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self) -> None:
        """Start a forked worker with empty buffers and an empty stack.

        The child inherits the parent's spans and totals (already
        counted by the parent) and the frames the parent was inside
        when it forked (which the child never returns through).
        """
        self._reset_buffers()
        for instances in self.registry.values():
            instances.clear()
        del self._stack[:], self._child[:]
        self.unit = 0

    def _reset_buffers(self) -> None:
        for totals in (self.calls, self.self_ns, self.incl_ns):
            totals[:] = [0] * len(totals)
        self.result_len.clear()
        self.unit_counters.clear()
        for column in (self.fids, self.starts, self.ends, self.parents, self.units):
            del column[:]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _patch(self, owner, name, value) -> None:
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _new_fid(self, layer: str, name: str, module: str) -> int:
        self.functions.append((layer, name, module))
        self.calls.append(0)
        self.self_ns.append(0)
        self.incl_ns.append(0)
        return len(self.functions) - 1

    def _wrap_class(self, cls, layer: str) -> None:
        import enum

        if issubclass(cls, (BaseException, enum.Enum)) or getattr(
            cls, "_is_protocol", False
        ):
            return
        register = self.registry.get(cls.__name__) if (
            self.counter_classes.get(cls.__name__) is cls
        ) else None
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            module = cls.__module__
            if isinstance(attr, (staticmethod, classmethod)):
                fid = self._new_fid(layer, qualname, module)
                self._patch(cls, name, type(attr)(self._wrapper(attr.__func__, fid)))
            elif isinstance(attr, property) and attr.fget is not None:
                fid = self._new_fid(layer, qualname, module)
                wrapped = property(
                    self._wrapper(attr.fget, fid), attr.fset, attr.fdel, attr.__doc__
                )
                self._patch(cls, name, wrapped)
            elif inspect.isfunction(attr):
                fid = self._new_fid(layer, qualname, module)
                reg = register if name == "__init__" else None
                self._patch(cls, name, self._wrapper(attr, fid, reg))

    def wrap_instance_patches(self, objects) -> None:
        """Trace layer functions assigned onto live objects.

        The event log and the checkers observe a run by replacing
        methods on the built scenario's components, and EBSN installs
        its ICMP handler the same way; such closures would otherwise be
        charged to whichever span calls them.
        """
        for obj in objects:
            attrs = getattr(obj, "__dict__", None)
            if not attrs:
                continue
            for name, value in list(attrs.items()):
                if not inspect.isfunction(value) or getattr(value, "_traced", False):
                    continue
                layer = layer_of(value.__module__ or "")
                if layer is not None:
                    fid = self._new_fid(layer, value.__qualname__, value.__module__)
                    attrs[name] = self._wrapper(value, fid)

    # -- the wrapper -------------------------------------------------------

    def _wrapper(self, fn, fid: int, register: list | None = None):
        tracer = self
        fids, starts, ends = self.fids, self.starts, self.ends
        parents, units = self.parents, self.units
        stack, child = self._stack, self._child
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        clock = time.perf_counter_ns
        is_entry = fid in self._entry_fids
        marks_run = fn.__qualname__ == "Simulator.run"
        counts_result = fn.__qualname__ == "Fragmenter.fragment"
        hooks_run = fn.__qualname__ == "Scenario.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_entry and not stack:
                tracer._start_unit()
            elif marks_run and tracer._build_open:
                tracer._end_build()
            if hooks_run:
                tracer.wrap_instance_patches(vars(args[0]).values())
            index = len(starts)
            if index < SPAN_CAP:
                fids.append(fid)
                parents.append(stack[-1] if stack else -1)
                units.append(tracer.unit)
                ends.append(0)
                starts.append(0)
            else:
                index = -1
                tracer.dropped_spans += 1
            stack.append(index)
            child.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                if index >= 0:
                    starts[index] = t0
                    ends[index] = t1
                duration = t1 - t0
                self_ns[fid] += duration - inner - tracer.inside_ns
                incl_ns[fid] += duration
                calls[fid] += 1
                if child:
                    child[-1] += duration + tracer.overhead_ns
                else:
                    tracer._at_root(is_entry, duration)
            if counts_result:
                tracer.result_len[fid] = tracer.result_len.get(fid, 0) + len(result)
            if register is not None:
                register.append(args[0])
            return result

        traced._traced = True
        return traced

    def _start_unit(self) -> None:
        self._unit_seq += 1
        self.unit = os.getpid() * UNIT_STRIDE + self._unit_seq
        self._build_open = True
        self._build_ns = 0
        self._build_calls = sum(self.calls)
        self._build_start = time.perf_counter_ns()

    def _end_build(self) -> None:
        """Close the unit's build phase: entry call to first ``Simulator.run``."""
        elapsed = time.perf_counter_ns() - self._build_start
        spans = sum(self.calls) - self._build_calls
        self._build_ns = max(0, elapsed - spans * (self.overhead_ns + self.inside_ns))
        self._build_open = False

    def _at_root(self, unit_ended: bool, duration: int) -> None:
        if unit_ended:
            counters = self.read_counters(self.registry)
            counters["build_ns"] = self._build_ns
            counters["unit_ns"] = duration
            counters["pid"] = os.getpid()
            self._build_open = False
            self.unit_counters.append(counters)
            for instances in self.registry.values():
                instances.clear()
            self.unit = 0
        if self.spool_dir is not None and os.getpid() != self.owner_pid:
            self._spool()

    def _calibrate(self, n: int = 20_000) -> tuple[int, int]:
        """Per-call wrapper cost outside and inside its [t0, t1] window."""

        def noop():
            return None

        fid = self._new_fid("trace", "calibration", __name__)
        traced = self._wrapper(noop, fid)
        clock = time.perf_counter_ns
        best_out = best_in = None
        for _ in range(5):
            t0 = clock()
            for _ in range(n):
                noop()
            raw = clock() - t0
            mark = len(self.starts)
            self._stack.append(-1)
            self._child.append(0)
            t0 = clock()
            for _ in range(n):
                traced()
            total = clock() - t0
            inside = self._child.pop()
            self._stack.pop()
            del self.fids[mark:], self.starts[mark:], self.ends[mark:]
            del self.parents[mark:], self.units[mark:]
            # `inside` already counts the calibrated overhead (0 so far),
            # so total - inside is what falls outside the child windows;
            # inside - raw is what the wrapper adds within them.
            outside, within = total - inside - raw, inside - raw
            best_out = outside if best_out is None else min(best_out, outside)
            best_in = within if best_in is None else min(best_in, within)
        self.calls[fid] = self.self_ns[fid] = self.incl_ns[fid] = 0
        return max(0, best_out // n), max(0, best_in // n)

    # -- worker spooling ----------------------------------------------------

    def _spool(self) -> None:
        chunk = {
            "pid": os.getpid(),
            "functions": self.functions[:],
            "calls": self.calls[:],
            "self_ns": self.self_ns[:],
            "incl_ns": self.incl_ns[:],
            "result_len": dict(self.result_len),
            "unit_counters": self.unit_counters[:],
            "spans": (self.fids, self.starts, self.ends, self.parents, self.units),
        }
        with open(self.spool_dir / f"spans-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump(chunk, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._reset_buffers()

    def merge_spool(self) -> list[int]:
        """Fold every worker's spooled chunks into this tracer.

        Returns the worker pids seen.  Call after the pool has stopped.
        """
        pids = []
        if self.spool_dir is None:
            return pids
        for path in sorted(self.spool_dir.glob("spans-*.pkl")):
            with path.open("rb") as fh:
                while True:
                    try:
                        chunk = pickle.load(fh)
                    except EOFError:
                        break
                    self._merge_chunk(chunk)
                    if chunk["pid"] not in pids:
                        pids.append(chunk["pid"])
            path.unlink()
        return pids

    def _merge_chunk(self, chunk: dict) -> None:
        # A worker may have added functions after the fork (closures it
        # found on live objects); map its ids onto this tracer's.
        known = {entry: i for i, entry in enumerate(self.functions)}
        remap = []
        for entry in chunk["functions"]:
            if entry not in known:
                known[entry] = self._new_fid(*entry)
            remap.append(known[entry])
        for mine, theirs in (
            (self.calls, chunk["calls"]),
            (self.self_ns, chunk["self_ns"]),
            (self.incl_ns, chunk["incl_ns"]),
        ):
            for i, value in enumerate(theirs):
                mine[remap[i]] += value
        for fid, n in chunk["result_len"].items():
            self.result_len[remap[fid]] = self.result_len.get(remap[fid], 0) + n
        self.unit_counters.extend(chunk["unit_counters"])
        fids, starts, ends, parents, units = chunk["spans"]
        fids = array("i", (remap[f] for f in fids))
        room = SPAN_CAP - len(self.starts)
        if room < len(fids):
            self.dropped_spans += len(fids) - max(room, 0)
        base = len(self.starts)
        take = max(0, min(room, len(fids)))
        self.fids.extend(fids[:take])
        self.starts.extend(starts[:take])
        self.ends.extend(ends[:take])
        self.units.extend(units[:take])
        self.parents.extend(
            array("i", (p + base if p >= 0 else -1 for p in parents[:take]))
        )

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> tuple[list[int], list[int], list[int]]:
        """Copies of the per-function totals, for :func:`phase` diffs."""
        return self.calls[:], self.self_ns[:], self.incl_ns[:]

    def layer_self_ms(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (layer, _, _), ns in zip(self.functions, self.self_ns):
            totals[layer] = totals.get(layer, 0.0) + ns / 1e6
        return totals

    def self_ms_where(self, predicate) -> float:
        return sum(
            ns / 1e6
            for (layer, name, module), ns in zip(self.functions, self.self_ns)
            if predicate(layer, name, module)
        )

    def result_len_of(self, qualname: str) -> int:
        return sum(
            n
            for fid, n in self.result_len.items()
            if self.functions[fid][1] == qualname
        )

    def calls_of(self, qualname: str) -> int:
        return sum(
            n for (_, name, _), n in zip(self.functions, self.calls) if name == qualname
        )

    def write(self, path: Path, header: dict) -> None:
        """Write every kept span and the function table to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": 1,
            **header,
            "functions": self.functions,
            "dropped_spans": self.dropped_spans,
            "fid": self.fids,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "unit": self.units,
        }
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
