"""Crawl politeness: a token-bucket rate limiter on simulated time.

The paper: "our data collector was designed to minimize server impact".
The crawler enforces a request budget with a token bucket: requests
consume tokens, tokens refill at ``rate`` per second, and a request that
finds the bucket empty must wait.  Time is *simulated* -- the limiter
keeps its own clock and reports how long a real crawl would have slept,
so tests run instantly while politeness is still measurable and
assertable.
"""

from __future__ import annotations


class TokenBucket:
    """Token-bucket rate limiter over a simulated clock.

    Parameters
    ----------
    rate:
        Sustained requests per second.
    burst:
        Bucket capacity: how many requests may fire back-to-back after
        an idle period.
    """

    def __init__(self, rate: float, burst: int = 1) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._clock = 0.0
        self._waited = 0.0
        self._requests = 0

    @property
    def waited_seconds(self) -> float:
        """Total simulated time spent waiting for tokens."""
        return self._waited

    @property
    def requests(self) -> int:
        """Requests acquired so far."""
        return self._requests

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock (e.g. while processing a page)."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self._clock += seconds
        self._tokens = min(
            float(self.burst), self._tokens + seconds * self.rate
        )

    def acquire(self) -> float:
        """Take one token, waiting (in simulated time) if necessary.

        Returns the simulated seconds waited for this request.
        """
        waited = 0.0
        if self._tokens < 1.0:
            deficit = 1.0 - self._tokens
            waited = deficit / self.rate
            self.advance(waited)
            self._waited += waited
        self._tokens -= 1.0
        self._requests += 1
        return waited

    def effective_rate(self) -> float:
        """Observed requests per simulated second (0 before any time passes)."""
        if self._clock == 0.0:
            return 0.0
        return self._requests / self._clock
