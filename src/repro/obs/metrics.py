"""Runtime metrics registry: the always-on counter layer.

:mod:`repro.obs.trace` records *events* (spans with start/stop
timestamps — expensive, opt-in, one trace per run).  This module is
the complementary *counter* layer of the span/counter split in
distributed-tracing practice: labeled monotonic counters cheap enough
to leave on for every sweep, dependency-free, and mergeable across
the grid's pool workers.  Wall time is not recorded here: each run's
phase timings live in the run manifest (``runs[*].phase_seconds``).

Design constraints, in order:

* **Zero observable effect on results.**  The registry only ever
  *observes*; nothing in the compiler or simulator reads it back, so
  cycles, interlocks and cache keys never depend on it.  The hot
  simulation loops are never touched — engine counters are folded in
  *after* a run finishes.
* **Cheap.**  A counter bump is one dict ``get`` + add, and counters
  are bumped a handful of times per grid point.
* **Exact, mergeable state.**  Counters are plain ints, so merging two
  snapshots is element-wise integer addition.  Each pool worker
  snapshots its registry into the result frame and the parent folds
  the deltas into a global registry — folded totals equal the sum by
  construction (tested across real processes).

Naming follows Prometheus conventions (``snake_case``, ``_total``
suffix).  The run manifest's ``metrics`` section is
:meth:`MetricsRegistry.summary` plus the raw snapshot.
"""

from __future__ import annotations

import json
import threading

#: Snapshot schema version (bumped on incompatible layout changes).
SNAPSHOT_SCHEMA = 1


def _label_key(labels: dict) -> str:
    """Canonical string for one label set (sorted, JSON-escaped)."""
    if not labels:
        return ""
    return ",".join(f"{k}={json.dumps(str(v))}"
                    for k, v in sorted(labels.items()))


def _parse_label_key(key: str) -> dict:
    if not key:
        return {}
    out = {}
    for part in key.split(","):
        name, _, value = part.partition("=")
        out[name] = json.loads(value)
    return out


class Counter:
    """One monotonic counter child (a single label set)."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "Family") -> None:
        self._family = family
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self._family.name} cannot decrease "
                f"(inc({amount}))")
        self.value += amount


class Family:
    """A named counter family: one child per label set."""

    __slots__ = ("name", "help", "_children")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._children: dict[str, Counter] = {}

    def labels(self, **labels) -> Counter:
        """The child for one label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = Counter(self)
        return child

    # Unlabeled convenience forwarding: family.inc() acts on the
    # empty-label child, so a scalar metric needs no labels() call.
    def inc(self, amount: int = 1) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> int:
        return self.labels().value

    def children(self) -> dict[str, Counter]:
        return dict(self._children)


class MetricsRegistry:
    """A set of counter families with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Family:
        """The family called *name* (registered on first use)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = Family(name, help=help)
            return family

    def families(self) -> dict[str, Family]:
        with self._lock:
            return dict(self._families)

    # --------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """JSON-able copy of every family (the cross-process frame).

        Empty families (registered, never bumped) are included with no
        children so the merged side still learns the name.
        """
        out: dict = {"schema": SNAPSHOT_SCHEMA, "families": {}}
        for name, family in sorted(self.families().items()):
            entry: dict = {"kind": "counter"}
            if family.help:
                entry["help"] = family.help
            entry["children"] = {
                key: child.value
                for key, child in sorted(family.children().items())}
            out["families"][name] = entry
        return out

    def reset(self) -> None:
        """Drop every recorded value (families stay registered)."""
        for family in self.families().values():
            family._children.clear()

    def snapshot_and_reset(self) -> dict:
        """Snapshot then reset: the per-task delta frame a sweep's
        pool worker ships back, so folding deltas never double-counts."""
        snap = self.snapshot()
        self.reset()
        return snap

    # ------------------------------------------------------------ merge
    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters add (ints stay ints, so totals are exact).  Unknown
        families are created on the fly; a family of any kind other
        than ``counter`` is a ``ValueError`` naming the family.
        """
        for name, entry in snapshot.get("families", {}).items():
            kind = entry.get("kind")
            if kind != "counter":
                raise ValueError(
                    f"metric {name!r}: unknown kind {kind!r} on merge")
            family = self.counter(name, help=entry.get("help", ""))
            for key, value in entry.get("children", {}).items():
                family.labels(**_parse_label_key(key)).value += value

    def summary(self) -> dict:
        """Compact JSON view: counter values by name and label set
        (the ``metrics`` manifest section)."""
        out: dict = {}
        for name, family in sorted(self.families().items()):
            children = family.children()
            if children:
                out[name] = {key or "_": child.value
                             for key, child in sorted(children.items())}
        return out


#: The process-global registry every instrumented layer records into.
REGISTRY = MetricsRegistry()
