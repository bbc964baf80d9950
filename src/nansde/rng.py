"""Deterministic random-stream derivation.

Every stochastic object in the package draws from a generator derived here.
A stream is addressed by ``(seed, domain, stream_id)``: ``seed`` is the
user-facing experiment seed, ``domain`` separates unrelated uses (noise
paths vs. parameter init), and ``stream_id`` indexes parallel consumers
inside a domain (ensemble members, training iterations).  Distinct
addresses give statistically independent streams, and the same address
always gives the same stream, independent of construction order or thread
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Domains.  Keep these stable: changing them silently re-randomizes every
# experiment that uses the same seeds.
DOMAIN_NOISE = 0
DOMAIN_INIT = 1
DOMAIN_EVAL = 2

# First DOMAIN_EVAL stream of an evaluation ensemble.  The streams below it
# are left to evaluation-time resampling (``eval_generator`` tags 0, 1, ...).
EVAL_ENSEMBLE_STREAM = 1 << 32

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseSeed:
    """Address of one noise stream: experiment seed, stream index, domain.

    Simulation noise lives in ``DOMAIN_NOISE`` unless the address says
    otherwise; evaluation ensembles use ``DOMAIN_EVAL`` streams.
    """

    seed: int
    stream_id: int = 0
    domain: int = DOMAIN_NOISE

    def child(self, offset: int) -> "NoiseSeed":
        """Same experiment and domain, shifted stream index."""
        return NoiseSeed(self.seed, self.stream_id + offset, self.domain)


def stream_generator(seed: int, domain: int, stream_id: int = 0) -> np.random.Generator:
    """Return the PCG64 generator for one ``(seed, domain, stream_id)`` address."""
    if stream_id < 0:
        raise ValueError(f"stream_id must be non-negative, got {stream_id}")
    ss = np.random.SeedSequence(seed & _SEED_MASK, spawn_key=(domain, stream_id))
    return np.random.Generator(np.random.PCG64(ss))


def noise_generator(noise_seed: NoiseSeed) -> np.random.Generator:
    """Generator for simulated noise (Brownian draws, fBm spectra, ...)."""
    return stream_generator(noise_seed.seed, noise_seed.domain, noise_seed.stream_id)


def init_generator(seed: int, tag: int = 0) -> np.random.Generator:
    """Generator for parameter initialization; ``tag`` separates networks."""
    return stream_generator(seed, DOMAIN_INIT, tag)


def eval_generator(seed: int, tag: int = 0) -> np.random.Generator:
    """Generator for evaluation-time resampling (held out from training noise)."""
    return stream_generator(seed, DOMAIN_EVAL, tag)
