"""Parameter domains: each numeric field's legal values, declared once.

A record declares the domain of every int/float init field on the field
(``bandwidth_bps: float = param(POSITIVE)``) and its ``__post_init__``
calls :func:`check_domains`, which raises ``ValueError("Link.
bandwidth_bps must be finite and positive, got nan")``.  Function
arguments use the same values through :meth:`Domain.check`, and a
domain is an argparse ``type=``.  Only rules relating fields stay
hand-written.  A domain is one closed interval (an open bound is the
next float inward), so ``low <= x <= high`` also refuses NaN and ±inf.
``bool`` is never a number.  A *whole* value is a Python ``int``: numpy
integers are refused, since platform documents are hashed as JSON.
Field metadata enters no ``repr``, ``==`` or ``asdict``.  A record's
document is refused by :func:`check_keys` for a missing or unknown key.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Dict, Iterable

_MAX = sys.float_info.max
_TINY = math.ulp(0.0)          # the least float > 0


@dataclass(frozen=True)
class Domain:
    """The legal values of one parameter: ``low <= x <= high``."""

    low: float
    high: float
    #: How :meth:`check` completes "<name> must be ...".
    text: str
    whole: bool = False
    optional: bool = False

    @property
    def kinds(self) -> tuple:
        return (int,) if self.whole else (int, float)

    def admits(self, value: Any) -> bool:
        if value is None:
            return self.optional
        return (isinstance(value, self.kinds) and not isinstance(value, bool)
                and self.low <= value <= self.high)

    def check(self, name: str, value: Any, error: type = ValueError) -> None:
        if not self.admits(value):
            raise error(f"{name} must be {self.text}, got {value!r}")

    def or_none(self) -> "Domain":
        return replace(self, text=f"{self.text} or None", optional=True)

    def __call__(self, text: str):
        """As an argparse ``type=``: a bad value is a usage error."""
        try:
            value = (int if self.whole else float)(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {self.text}, got {text!r}"
            ) from None
        if not self.admits(value):
            # Parsed as an int, a whole value can only miss the bound.
            rule = f">= {self.low}" if self.whole else self.text
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value


def at_least(low: float) -> Domain:
    """Finite reals ``>= low``."""
    return Domain(low, _MAX, f"finite and >= {low:g}")


POSITIVE = Domain(_TINY, _MAX, "finite and positive")
NONNEGATIVE = at_least(0.0)
FINITE = Domain(-_MAX, _MAX, "finite")
#: ``(0, 1]``: a scale that may stay whole but never vanish.
UNIT_OPEN_CLOSED = Domain(_TINY, 1.0, "in (0, 1]")
#: ``[0, 1)``: a fraction that may vanish but never be the whole.
UNIT_CLOSED_OPEN = Domain(0.0, math.nextafter(1.0, 0.0), "in [0, 1)")


def whole(least: int) -> Domain:
    """Python ``int`` values ``>= least`` (``bool`` and numpy refused)."""
    return Domain(least, math.inf, f"an int >= {least}", whole=True)


def param(domain: Domain, default: Any = MISSING) -> Any:
    """A dataclass field declaring *domain* (and *default*, if any)."""
    return field(default=default, metadata={"domain": domain})


#: class -> ``((name, low, high, fast kinds, domain), ...)``, built once.
_PLANS: Dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    return tuple(
        (f.name, d.low, d.high, d.kinds, d)
        for f in fields(cls) if (d := f.metadata.get("domain")) is not None
    )


def check_domains(obj: Any, error: type = ValueError) -> None:
    """Refuse the first field of *obj* outside its declared domain,
    naming it ``<Class>.<field>``; *error* is the exception raised."""
    cls = obj.__class__
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _plan(cls)
    for name, low, high, kinds, domain in plan:
        # Not ``obj.__dict__``: reading it builds a dict per instance.
        value = getattr(obj, name)
        # Exact int/float first: the common case costs two compares.
        if value.__class__ in kinds and low <= value <= high:
            continue
        domain.check(f"{cls.__name__}.{name}", value, error)


def check_keys(cls, doc: Dict[str, Any],
               optional: Iterable[str] = ()) -> None:
    """Reject a *cls* document with a missing or unknown key, naming it
    (an unknown key silently dropped would hash equal to its absence)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} document must be a mapping")
    wrong = ({f.name for f in fields(cls)} ^ set(doc)) - set(optional)
    if wrong:
        raise ValueError(
            f"{cls.__name__} document: missing or unknown keys {sorted(wrong)}"
        )
