"""One replay ledger: a real run's side effects, recorded once.

A pipeline step whose inputs have not changed is replayed from the
:class:`Entry` its last real run left. Each kind checks the entry's
guard itself; :func:`replay` re-applies it under the kind's row of
:data:`POLICY`, the one place that says what a replay costs:
``recharge`` re-issues every recorded charge, in order and one call
each, so the clock and every deferred float sum are bit-identical to
re-running the step; ``free`` charges nothing. Counter deltas apply
under either row. A recharged entry may name a span per charge, which
a traced replay re-opens around that charge, as the real run did.
Imports nothing from the package (VMI uses it).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat, starmap
from typing import NamedTuple

__all__ = ["POLICY", "Entry", "replay"]

#: replay kind -> what a replay costs on the simulated clock
POLICY = {"pair": "free", "canonical": "recharge", "walk": "recharge"}


class Entry(NamedTuple):
    """One recorded run. ``charges`` are its ``charge_dom0`` calls'
    ``(cpu_seconds, op)`` arguments in order (see
    :meth:`~repro.hypervisor.xen.Hypervisor.recorded_charges`);
    ``deltas`` the ``(counter, amount)`` pairs a replay adds;
    ``spans``, when not empty, one item per charge: None, or the
    ``(name, attrs)`` of the span the real run charged it inside."""

    guard: object
    result: object
    charges: tuple[tuple[float, str | None], ...]
    deltas: tuple[tuple[str, int], ...] = ()
    spans: tuple[tuple[str, dict] | None, ...] = ()


def replay(kind: str, entry: Entry, charge, tracer, stats) -> object:
    """Re-apply ``entry`` under ``POLICY[kind]``; return its result.
    ``charge(cpu_seconds, op)`` is the Dom0 charge (each re-issued
    charge is traced too when ``tracer.enabled``, inside its span if
    the entry names one); ``stats`` gets the deltas."""
    if POLICY[kind] == "recharge":
        if tracer.enabled:
            spans = entry.spans or repeat(None)
            for (cpu, op), span in zip(entry.charges, spans):
                if span is None:
                    charge(cpu, op)
                    tracer.charge(op, cpu)
                    continue
                name, attrs = span
                with tracer.span(name, **attrs):
                    charge(cpu, op)
                    tracer.charge(op, cpu)
        else:
            deque(starmap(charge, entry.charges), 0)
    for name, amount in entry.deltas:
        setattr(stats, name, getattr(stats, name) + amount)
    return entry.result
