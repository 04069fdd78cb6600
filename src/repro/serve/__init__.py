"""Multi-tenant serving frontend for the Space Odyssey engine.

``serve`` turns the four-mode engine into a servable system: many
concurrent clients submit range queries to one :class:`QueryService`,
a dedicated dispatcher coalesces them with size and deadline triggers
(the way inference servers batch requests), drains each batch through
:meth:`~repro.core.odyssey.SpaceOdyssey.query_batch`, and routes results
or exceptions back through per-request futures — with per-client results
guaranteed identical to issuing the same queries sequentially in arrival
order (see :mod:`repro.serve.service` for the contract).
"""

from repro.serve.service import (
    QueryService,
    ServiceClosed,
    ServiceDegraded,
    ServiceStats,
    Submission,
)

__all__ = [
    "QueryService",
    "ServiceClosed",
    "ServiceDegraded",
    "ServiceStats",
    "Submission",
]
