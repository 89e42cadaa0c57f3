"""Serving-layer configuration.

:class:`ServeConfig` holds every setting of a live service, checks each
on construction, and supplies the defaults of ``repro serve``'s flags.
None of the settings changes what the board computes: they shape
*where* the service listens and *how much* traffic it admits before
shedding. The board is picked from ``n_players`` alone, as the
simulator picks it (:func:`~repro.billboard.sparse.choose_substrate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.service.BillboardService` needs.

    Attributes
    ----------
    n_players, n_objects:
        World dimensions of the live board (posts are validated against
        them exactly as in the simulator).
    host, port:
        Listening address. Port ``0`` binds an ephemeral port; the bound
        address is printed on startup and exposed on the service.
    max_inflight:
        Global cap on requests admitted concurrently; excess requests
        are shed with a typed error instead of queued.
    rate:
        Per-client token-bucket refill rate in requests/second
        (``0.0`` = unlimited). Clients start with a :attr:`burst`-sized
        bucket.
    burst:
        Token-bucket capacity — how many back-to-back requests a client
        may issue before the rate applies.
    queue_depth:
        Bound on the current epoch's pending write buffer; a post that
        fills it flushes the buffer to the board synchronously (the
        writer pays the flush, which is the backpressure).
    alpha, beta:
        Protocol parameters assumed by the online DISTILL recommender
        (the honest fraction and good-object fraction of the paper).
    """

    n_players: int
    n_objects: int
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 256
    rate: float = 0.0
    burst: int = 64
    queue_depth: int = 4096
    alpha: float = 0.5
    beta: float = 0.125

    def __post_init__(self) -> None:
        if self.n_players <= 0 or self.n_objects <= 0:
            raise ConfigurationError(
                "serve needs positive world dimensions, got "
                f"n_players={self.n_players}, n_objects={self.n_objects}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.max_inflight <= 0:
            raise ConfigurationError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if self.rate < 0:
            raise ConfigurationError(
                f"rate must be non-negative, got {self.rate}"
            )
        if self.burst <= 0:
            raise ConfigurationError(
                f"burst must be positive, got {self.burst}"
            )
        if self.queue_depth <= 0:
            raise ConfigurationError(
                f"queue_depth must be positive, got {self.queue_depth}"
            )

    def manifest_payload(self) -> Dict[str, Any]:
        """The serving-config record embedded in manifest schema v5."""
        return {
            "n_players": self.n_players,
            "n_objects": self.n_objects,
            "max_inflight": self.max_inflight,
            "rate": self.rate,
            "burst": self.burst,
            "queue_depth": self.queue_depth,
        }
