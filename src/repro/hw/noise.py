"""Deterministic execution-time jitter.

Real machines never produce identical timings twice; history-based
performance models (and the dmda scheduler built on them) only make sense
if measurements vary.  We perturb every modeled duration with lognormal
multiplicative noise drawn from a seeded generator, so experiments stay
bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import functools

import numpy as np


class NoiseModel:
    """Multiplicative lognormal jitter around 1.0.

    Parameters
    ----------
    sigma:
        Standard deviation of the underlying normal distribution.  The
        default 3% matches typical run-to-run variation of GPU kernels.
    seed:
        Seed for the private :class:`numpy.random.Generator`, which is
        built at the first draw (``sigma == 0`` never builds one).
    """

    def __init__(self, sigma: float = 0.03, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)
        self._seed = seed

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self._seed)

    def perturb(self, duration: float) -> float:
        """Return ``duration`` scaled by one lognormal sample.

        The mean of the lognormal is corrected to 1.0 so that the noise is
        unbiased (``E[perturb(d)] == d``).  This is the single validation
        path for all noise models: negative durations are rejected here,
        and ``sigma == 0`` (including :class:`NullNoise`) short-circuits
        to the identity without consuming randomness.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if self.sigma == 0.0 or duration == 0.0:
            return duration
        factor = self._rng.lognormal(mean=-0.5 * self.sigma**2, sigma=self.sigma)
        return duration * factor


class NullNoise(NoiseModel):
    """No-op noise model for fully analytic experiments.

    A plain ``sigma=0`` alias of :class:`NoiseModel`: ``isinstance``
    checks and subclass overrides see one consistent class hierarchy and
    one ``perturb`` implementation.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(sigma=0.0, seed=seed)
