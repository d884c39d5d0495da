"""Two-parameter quasistatic families over C1 curves.

A family realizes a continuous curve of joint states together with per-atom
work and heat rates (the one-forms pulled back through the parametrization).
Slicing a family at ``(lo, hi)`` produces the process with endpoints on the
curve and per-atom work equal to the path integral of the work rate; slices
compose exactly, ``slice(x, x)`` is an identity, and a reversible family
marks every slice reversible, so ``reverse_of`` builds its reverse from the
footprint.

A family is a slotted ``QuasistaticFamily`` subclass that computes its
states in ``evaluate`` and its rates in ``work_rate`` and ``heat_rate``:
the gas segment kinds and ``identity_family``.  Every family slices and
integrates through the code here, and a path of several legs is the
``concatenate`` of their slices, in one call.  A slice takes its entries
from ``_entries``, which builds them from the ``evaluate`` dicts and the
work rates; a gas kind overrides it to build the same entries from its
own state formula, without the dicts.  A rate that does not
depend on the parameter is its ``float`` value and is integrated exactly,
as that value times the parameter span; a rate that is a function goes
through the adaptive quadrature.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Mapping

from .errors import OutOfDomain, ToleranceNotMet
from .processes import (Process, ProcessEntry,
                        make_process)  # make_process: perfbench/tests/test_spans.py reads it
from .quadrature import adaptive_simpson
from .systems import AtomId


Rate = float | Callable[[float], float]  # a float is a rate that does not vary
# the tags of a slice of a family tagged ``tag``: one shared set per recent tag
_tag_set = functools.lru_cache(maxsize=64)(lambda tag: frozenset((tag,) if tag else ()))


def _integral(rate: Rate | None, lo: float, hi: float) -> float:
    """Integral of ``rate`` over ``[lo, hi]``: zero for no rate, exact for a float, and
    ``ToleranceNotMet`` for a result that is not finite, as the quadrature raises."""
    if rate is None or lo == hi:
        return 0.0
    if callable(rate):
        return adaptive_simpson(rate, lo, hi)
    out = rate * (hi - lo)
    if not math.isfinite(out):
        raise ToleranceNotMet(f"constant rate {rate} on [{lo}, {hi}] is not finite")
    return out


class QuasistaticFamily:
    """Two-parameter family of work processes along a curve.

    Subclasses compute the joint state at a parameter in ``evaluate`` and
    may override ``work_rate``, ``heat_rate`` and ``_entries``; never
    ``slice``, ``work_between`` or ``heat_between``.  A rate must be smooth on the
    whole curve: the quadrature refines from one panel and cuts nowhere.
    An atom without a work (heat) rate takes no work (heat).
    """

    __slots__ = ("atoms", "tag", "reversible")

    def __init__(self, atoms: tuple[AtomId, ...], tag: str = "", reversible: bool = False):
        self.atoms, self.tag, self.reversible = atoms, tag, reversible

    def evaluate(self, lam: float) -> dict[AtomId, Any]:
        """Joint state at ``lam``, which the caller has checked."""
        raise NotImplementedError

    def state_at(self, lam: float) -> dict[AtomId, Any]:
        if not 0.0 <= lam <= 1.0:
            raise OutOfDomain(f"curve parameter {lam} outside [0, 1]")
        return self.evaluate(lam)

    def work_rate(self, atom: AtomId) -> Rate | None:
        return None

    def heat_rate(self, atom: AtomId) -> Rate | None:
        return None

    def work_between(self, atom: AtomId, lo: float, hi: float) -> float:
        if not 0.0 <= lo <= hi <= 1.0:
            raise OutOfDomain(f"work bounds ({lo}, {hi}) outside 0 <= lo <= hi <= 1")
        return _integral(self.work_rate(atom), lo, hi)

    def heat_between(self, atom: AtomId, lo: float, hi: float) -> float:
        if not 0.0 <= lo <= hi <= 1.0:
            raise OutOfDomain(f"heat bounds ({lo}, {hi}) outside 0 <= lo <= hi <= 1")
        return _integral(self.heat_rate(atom), lo, hi)

    def slice(self, lo: float, hi: float) -> Process:
        """The member process from ``state_at(lo)`` to ``state_at(hi)``."""
        if not 0.0 <= lo <= hi <= 1.0:
            raise OutOfDomain(f"slice bounds ({lo}, {hi}) outside 0 <= lo <= hi <= 1")
        return Process(self._entries(lo, hi), self.reversible, _tag_set(self.tag))

    def _entries(self, lo: float, hi: float) -> dict[AtomId, ProcessEntry]:
        """The footprint entries of ``slice(lo, hi)``, in ``atoms`` order, from the
        ``evaluate`` dicts and the work rates; a kind may build them from its own
        state formula instead, to the same values."""
        start = self.evaluate(lo)
        end = self.evaluate(hi)
        work_rate = self.work_rate  # read once, not per ``work_between``
        entries = {}  # a loop: before Python 3.12 a comprehension is a call of its own
        for a in self.atoms:
            entries[a] = ProcessEntry(start[a], end[a], float(_integral(work_rate(a), lo, hi)))
        return entries


class _Identity(QuasistaticFamily):
    """Constant family at ``payloads``; every slice is reversible."""

    __slots__ = ("payloads",)

    def __init__(self, payloads: Mapping[AtomId, Any], tag: str):
        super().__init__(tuple(sorted(payloads)), tag, True)
        self.payloads = dict(payloads)

    def evaluate(self, lam: float) -> dict[AtomId, Any]:
        return dict(self.payloads)


def identity_family(payloads: Mapping[AtomId, Any], tag: str = "identity") -> QuasistaticFamily:
    """Constant family: every slice is an identity process."""
    return _Identity(payloads, tag)
