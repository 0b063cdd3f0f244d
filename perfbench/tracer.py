"""In-memory span tracer that wraps unisplit's public functions from outside.

Each wrapped call records one span ``[name_id, parent, start_ns, end_ns]``;
the parent is the innermost open span, so spans form one tree per root span
that the benchmark opens around each unit of work.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

#: Modules whose public functions (``__all__``) are traced; ``cli`` has no
#: ``__all__`` and is traced through its documented entry point ``run``.
TRACED_MODULES = ("spectral", "propagator", "linalg", "experiments", "schemes", "cli")

#: Input-validation helpers that every other ``linalg`` function calls.  They
#: are not layer boundaries: tracing them would move argument validation out
#: of the callers' self time, where the per-layer metrics count it.
UNTRACED = {"linalg.as_matrix", "linalg.as_vector", "linalg.frobenius"}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.errors: list[BaseException] = []  # distinct NumericalErrors seen
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.name_id(name), parent, time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        if self.stack.pop() != idx:
            raise RuntimeError("trace spans closed out of order")

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self.stack, self.errors
        clock, name_id = time.perf_counter_ns, self.name_id(name)
        error_type = sys.modules[self.package + ".linalg"].NumericalError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if not any(e is exc for e in errors):
                    errors.append(exc)
                raise
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every traced function wherever a unisplit module binds it,
        so that names imported with ``from ... import`` are traced too."""
        if self._patched:
            return
        loaded = [m for key, m in sys.modules.items()
                  if key == self.package or key.startswith(self.package + ".")]
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package}.{short}"]
            for attr in getattr(module, "__all__", ["run"]):
                original = getattr(module, attr)
                name = f"{short}.{attr}"
                if not inspect.isfunction(original) or name in UNTRACED:
                    continue
                wrapper = self._wrap(name, original)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis

    def check_nesting(self) -> list[str]:
        """Problems with the spans: unclosed spans, children outside their
        parent's interval, overlapping siblings."""
        problems = []
        last_child_end: dict[int, int] = {}
        for i, (_, parent, t0, t1) in enumerate(self.spans):
            if t1 < t0 or t1 == 0:
                problems.append(f"span {i} ({self.names[self.spans[i][0]]}) not closed")
            if parent >= 0:
                _, _, p0, p1 = self.spans[parent]
                if not (p0 <= t0 and t1 <= p1):
                    problems.append(f"span {i} outside parent {parent}")
                if t0 < last_child_end.get(parent, p0):
                    problems.append(f"span {i} overlaps a sibling")
                last_child_end[parent] = t1
        return problems

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, inclusive and self time over spans[lo:hi], plus the
        FFTs issued by ``split_step`` and per-root-span counts.

        Every span in the range must belong to a root span opened in it.
        """
        names = self.names
        fft_ids = {self._ids.get("spectral.dft"), self._ids.get("spectral.idft")} - {None}
        step_id = self._ids.get("spectral.split_step")
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        child: list[int] = [0] * (hi - lo)
        root: list[int] = [0] * (hi - lo)
        per_root: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        step_fft = [0, 0]  # calls, ns
        for i in range(lo, hi):
            nid, parent, t0, t1 = self.spans[i]
            dur = t1 - t0
            calls[names[nid]] += 1
            total[names[nid]] += dur
            if parent < 0:
                root[i - lo] = i
                continue
            root[i - lo] = root[parent - lo]
            child[parent - lo] += dur
            counts = per_root[root[i - lo]]
            if nid == step_id:
                counts["split_step"] += 1
            elif nid in fft_ids and self.spans[parent][0] == step_id:
                step_fft[0] += 1
                step_fft[1] += dur
                counts["step_fft"] += 1
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            nid, _, t0, t1 = self.spans[i]
            self_ns[names[nid]] += (t1 - t0) - child[i - lo]
        return {
            "calls": dict(calls),
            "ns": dict(total),
            "self_ns": dict(self_ns),
            "step_fft_calls": step_fft[0],
            "step_fft_ns": step_fft[1],
            "per_root": {k: dict(v) for k, v in per_root.items()},
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for i, (nid, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[nid]},{t0},{t1}\n")
