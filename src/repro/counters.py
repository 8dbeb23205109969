"""Stats objects that declare their own metric series and fold rule.

A cumulative-counter dataclass (``VMIStats``, ``ManifestStats``,
``RepairStats``, ...) names, next to its fields, the metric families
it publishes and how two instances combine:

* :class:`Series` — one published series: family name, help text, the
  attribute it reads, fixed labels (``cache="v2p"``) or, for a dict
  attribute, the label its keys go under (``by="reason"``), and the
  family kind (``counter`` published with ``set_to``, or ``gauge``).
* :func:`declare` — the class decorator that attaches the series (in
  exposition order: Prometheus renders families in first-registration
  order) and builds the fold plan from the dataclass fields at import.
* :func:`fold` — the one combiner: a new instance whose fields are the
  parts' fields added in argument order (dicts per key; a field whose
  metadata says ``{"fold": max}`` takes the max). It is how a retired
  VMI session survives a reboot and how a fleet sums its shards.

The publisher is :func:`repro.obs.bridge.record_stats`. This module
imports nothing from the package, so the lowest layers (hypervisor,
VMI caches) can declare without pulling in the observability stack.
"""

from __future__ import annotations

import operator
from dataclasses import fields
from typing import NamedTuple

__all__ = ["Series", "declare", "fold", "alias"]


class Series(NamedTuple):
    """One metric series a stats attribute publishes."""

    name: str
    help: str
    #: attribute (field or property) of the stats object to read
    field: str
    #: fixed labels of this series, e.g. ``{"cache": "v2p"}``
    labels: dict = {}
    #: for a dict attribute: the label its keys are published under
    by: str | None = None
    #: ``"counter"`` (published via ``set_to``) or ``"gauge"``
    kind: str = "counter"


#: every declared stats class, in import order (the vocabulary lint)
DECLARED: list[type] = []


def _add_counts(mine: dict, theirs: dict) -> dict:
    out = dict(mine)
    for key, count in theirs.items():
        out[key] = out.get(key, 0) + count
    return out


def declare(*series: Series, **groups: tuple[Series, ...]):
    """Class decorator (above ``@dataclass``) attaching declared series.

    ``series`` is the default group; a keyword group is a further run
    of series that a publisher emits separately, when a hand-published
    family must land between the two in exposition order.
    """
    def wrap(cls):
        cls.SERIES = {"": series, **groups}
        cls.METRICS = tuple(s for run in cls.SERIES.values() for s in run)
        cls.FOLD = tuple(
            (f.name, f.metadata.get("fold")
             or (_add_counts if f.default_factory is dict
                 else operator.add))
            for f in fields(cls))
        DECLARED.append(cls)
        return cls
    return wrap


def fold(*parts):
    """A fresh instance of ``type(parts[0])``: the parts folded in order.

    Starts from the zero instance and applies each declared rule part
    by part, so float sums accumulate left to right exactly as a loop
    of ``+=`` would (no compensated summation).
    """
    cls = type(parts[0])
    out = cls()
    for name, rule in cls.FOLD:
        value = getattr(out, name)
        for part in parts:
            value = rule(value, getattr(part, name))
        setattr(out, name, value)
    return out


def alias(name: str) -> property:
    """An attribute forwarding to ``self.stats.<name>`` (read/write)."""
    return property(lambda self: getattr(self.stats, name),
                    lambda self, value: setattr(self.stats, name, value))
