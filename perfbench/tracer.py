"""In-memory spans for the traced benchmark run.

A span is ``[span_id, parent_id, name, start_ns, end_ns]``.  Spans are
recorded from the benchmark's own code: around the stages it runs, and
by wrapping the package functions it calls (or that those functions
call through a module-level name), so nothing in the package changes.
The wrappers are installed only in the traced run; the timed run calls
the package directly.
"""
from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from statistics import median
from time import perf_counter_ns

# (owner, attribute, span name); the owner is a package module or "module.Class".
# A function bound under several names (``window_infimum`` in ``measures``
# and ``engine``) is wrapped at each binding, because callers look it up
# in their own module.
WRAP_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("measures", "window_infimum", "measures.window_infimum"),
    ("engine", "window_infimum", "measures.window_infimum"),
    ("engine", "density_convergence", "measures.density_convergence"),
    ("engine", "build_plan", "engine.build_plan"),
    ("skorohod", "build_plan", "engine.build_plan"),
    ("engine", "build_schedule", "engine.build_schedule"),
    ("engine", "build_ladder", "engine.build_ladder"),
    ("engine", "plan_exact_checks", "engine.plan_exact_checks"),
    ("verify", "plan_exact_checks", "engine.plan_exact_checks"),
    ("engine", "joint_support_size", "engine.joint_support_size"),
    ("engine", "exact_joint_law", "engine.exact_joint_law"),
    ("engine.CouplingSampler", "__init__", "engine.sampler_init"),
    ("engine.CouplingSampler", "sample", "engine.draw"),
    ("jsonio", "model_from_doc", "skorohod.model"),
    ("skorohod", "build_skorohod_coupling", "skorohod.build_skorohod_coupling"),
    ("skorohod", "build_partition_tree", "skorohod.build_partition_tree"),
    ("skorohod", "digitize", "skorohod.digitize"),
    ("verify", "tree_exact_checks", "skorohod.tree_exact_checks"),
    ("verify", "decode_sample", "skorohod.decode"),
    ("jsonio", "plan_to_doc", "jsonio.plan_to_doc"),
    ("jsonio", "canonical_dumps", "jsonio.dumps"),
    ("jsonio", "plan_from_doc", "jsonio.plan_from_doc"),
    ("jsonio", "sample_record", "jsonio.sample_record"),
    ("streams", "stream", "streams.stream"),
    ("verify", "audit_plan", "verify.audit"),
    ("verify", "audit_skorohod", "verify.audit"),
    ("verify", "mc_agreement", "verify.mc_agreement"),
)


class Tracer:
    """Records nested spans of one thread; all spans share ``trace_id``."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            perf_counter_ns(),
            None,
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target in WRAP_TARGETS."""
        for path, attr, name in WRAP_TARGETS:
            module, _, cls = path.partition(".")
            owner = importlib.import_module(f"windowcoupling.{module}")
            if cls:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children's durations are
    exactly the part of the parent's interval they cover.
    """
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, median call in µs."""
    own = self_times(spans)
    by_name: dict[str, dict] = {}
    for span, self_ns in zip(spans, own):
        entry = by_name.setdefault(span[2], {"calls": 0, "s": 0.0, "self_s": 0.0, "ns": []})
        duration = span[4] - span[3]
        entry["calls"] += 1
        entry["s"] += duration / 1e9
        entry["self_s"] += self_ns / 1e9
        entry["ns"].append(duration)
    for entry in by_name.values():
        entry["median_us"] = median(entry.pop("ns")) / 1e3
    return by_name
