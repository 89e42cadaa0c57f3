"""The serving layer: a live billboard behind an asyncio front-end.

Everything below the socket is the same physics as the simulator — an
append-only billboard, monotone epochs, the DISTILL phase machine — but
driven by concurrent network traffic instead of a round loop. See
``docs/serving.md`` for the architecture and SLO methodology.
"""

from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.recommender import (
    OnlineDistillRecommender,
    batch_recommender,
)
from repro.serve.service import BillboardService, ServiceThread

__all__ = [
    "BillboardService",
    "OnlineDistillRecommender",
    "ServeClient",
    "ServeConfig",
    "ServiceThread",
    "batch_recommender",
]
