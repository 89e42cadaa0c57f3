"""World model: objects, their values/costs, and problem instances.

The paper's world (Section 2) consists of ``m`` objects, each with an
unknown *value* and a known *cost*, partitioned into good and bad, and ``n``
players of which an ``α`` fraction are honest. This package provides:

* :class:`~repro.world.objects.ObjectSpace` — values, costs, and the good
  set, with the local-testing predicate;
* :mod:`~repro.world.valuemodel` — per-player observation functions (the
  Theorem 2 adversary "reports the values dictated by the adversarial
  strategy"; we model that as a spoofed observation);
* :class:`~repro.world.instance.Instance` — an object space plus the
  honest/dishonest role assignment;
* :mod:`~repro.world.generators` — factories for the standard instance
  families used throughout the experiments.
"""

from repro.world.instance import Instance
from repro.world.objects import ObjectSpace
from repro.world.valuemodel import (
    SpoofedValueModel,
    TrueValueModel,
    ValueModel,
)
from repro.world.generators import (
    cost_class_instance,
    planted_instance,
    valued_instance,
)

__all__ = [
    "Instance",
    "ObjectSpace",
    "SpoofedValueModel",
    "TrueValueModel",
    "ValueModel",
    "cost_class_instance",
    "planted_instance",
    "valued_instance",
]
