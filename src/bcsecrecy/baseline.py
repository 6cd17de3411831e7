"""Randomized reference search over matrix power constraints.

Independent of the structured algorithms, corners are collected for many
random trace-Pt covariance caps (Wishart directions, occasionally rank
deficient to probe the boundary) and for the structured water-filling family
itself.  The Pareto hull of everything found is a lower estimate of the true
region that the fast algorithms must essentially match.

Sampling is deterministic per seed and per sample index: sample i draws from
the i-th ``SeedSequence.spawn`` child of the seed, so results do not depend on
evaluation order and a longer run strictly extends a shorter one with the same
seed.  Before its spawn key every child holds the seed's own
``SeedSequence.pool``, so ``_child_states`` hashes only the key and output
words, for a whole chunk at once on uint32 arrays: the same streams as
spawning the children one by one, at a fraction of the cost.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .avgpower import _check_count, check_split, diagonalize, sweep_corners
from .hull import RegionEstimate, estimate_region
from .linalg import ctrans, herm
from .sdpc import Channel, CornerPoint, _stacked_corners

# Power splits of the structured water-filling family added to every search.
SW_SPLITS = 101
# Samples drawn and solved per stack, so a search's working memory does not
# grow with its sample count.
CHUNK = 256


@dataclass
class SearchConfig:
    """Knobs of the randomized search."""

    samples: int
    seed: int
    pt: float


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """numpy's SeedSequence hash step: uint32 ``value`` hashed under
    ``const``, and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _child_states(entropy: int, start: int, count: int) -> np.ndarray:
    """The (count, 4) uint64 words ``generate_state(4, np.uint64)`` gives for
    children start, ..., start + count - 1 of ``SeedSequence(entropy).spawn``.

    ``entropy`` is a non-negative integer (a SeedSequence's ``entropy``) of w
    uint32 words.  A child's assembled entropy is those words, zero-padded to
    4, then its spawn key i as one word, or two from 2**32 on, so a range
    straddling 2**32 is hashed in two groups.  numpy hashes a missing seed
    word as a zero word, so before its key every child holds the seed's own
    ``SeedSequence.pool`` and the hash constant INIT_A MULT_A^(4 max(4, w)).
    Only the key words and the output words are hashed here, one lane per
    child.
    """
    e = int(entropy)
    seed_pool = np.random.SeedSequence(e).pool
    seed_const = INIT_A * pow(MULT_A, 4 * max(4, -(-e.bit_length() // 32)), MASK32 + 1) & MASK32
    parts = []
    lo, stop = start, start + count
    while lo < stop:
        width = max(1, -(-lo.bit_length() // 32))
        hi = min(stop, 1 << 32 * width)
        keys = np.arange(lo, hi, dtype=np.uint64).astype("<u8").view("<u4")
        pool, const = np.repeat(seed_pool[:, None], hi - lo, axis=1), seed_const
        for j in range(width):
            for dst in range(4):
                value, const = _hashmix(keys[j::2], const, MULT_A)
                r = np.uint32(MIX_MULT_L) * pool[dst] - np.uint32(MIX_MULT_R) * value
                pool[dst] = r ^ (r >> np.uint32(16))
        const, out = INIT_B, []
        for i in range(8):
            value, const = _hashmix(pool[i % 4], const, MULT_B)
            out.append(value)
        parts.append(np.stack(out, axis=-1).astype("<u4").view("<u8").astype(np.uint64))
        lo = hi
    return np.concatenate(parts)


class _ChildSeed(ISeedSequence):
    """One child's precomputed PCG64 seed words, for ``np.random.PCG64``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _draw(rng: np.random.Generator, out: np.ndarray) -> int:
    """Write sqrt(2) times the real and imaginary parts of the complex
    Gaussian factor A of ``sample_constraint`` into ``out[0]`` and
    ``out[1]``, zeroed (2, n, n): A fills the leading k columns.  Returns k.

    One (2, n, k) draw consumes the stream exactly as separate real and
    imaginary (n, k) draws would.
    """
    n = out.shape[-1]
    k = n
    if n > 1 and rng.random() < 1.0 / 3.0:
        k = int(rng.integers(1, n))
    out[:, :, :k] = rng.standard_normal((2, n, k))
    return k


def _normalized(parts: np.ndarray, pt: float) -> np.ndarray:
    """pt * A A^H / tr(A A^H) for the A of drawn ``parts``, (..., 2, n, n)."""
    a = (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)
    b = herm(a @ ctrans(a))
    return pt * b / np.real(np.trace(b, axis1=-2, axis2=-1))[..., None, None]


def sample_constraint(n: int, pt: float, rng: np.random.Generator) -> np.ndarray:
    """One random PSD matrix with trace exactly ``pt``.

    S = pt * A A^H / tr(A A^H) for a complex Gaussian A; with probability 1/3
    A gets fewer than n columns (rank chosen uniformly) so singular
    constraints are exercised too.  A is zero-padded to n x n, as in
    ``search_region``, so both give the same S for the same stream.
    """
    parts = np.zeros((2, n, n))
    _draw(rng, parts)
    return _normalized(parts, pt)


def search_region(ch: Channel, cfg: SearchConfig) -> RegionEstimate:
    """Collect corners for sampled constraints and for the structured family.

    Sample i is drawn from the i-th ``SeedSequence(cfg.seed).spawn`` child,
    exactly as ``sample_constraint(n_t, pt, np.random.default_rng(child))``.
    The children's seed words are hashed in one batch per chunk of ``CHUNK``
    samples; the factors are padded with zero columns to n_t x n_t, which
    leaves A A^H unchanged, and each chunk's constraints are solved as one
    stack, where only the draws with n_t columns take the rank certificate.

    Raises ValueError, before drawing anything, unless ``cfg.samples`` and
    ``cfg.seed`` are integers >= 0 and ``cfg.pt`` is finite and >= 0.
    """
    samples, pt = cfg.samples, cfg.pt
    _check_count(samples, "samples")
    _check_count(cfg.seed, "seed")
    check_split(0.0, pt)
    n = ch.n_t
    entropy = np.random.SeedSequence(cfg.seed).entropy
    points = []
    for start in range(0, samples, CHUNK):
        size = min(CHUNK, samples - start)
        parts = np.zeros((size, 2, n, n))
        full = [_draw(np.random.Generator(np.random.PCG64(_ChildSeed(words))), out) == n
                for out, words in zip(parts, _child_states(entropy, start, size))]
        rates = _stacked_corners(ch, _normalized(parts, pt), candidates=full)
        points.extend(CornerPoint(r1, r2, provenance="baseline-sample")
                      for r1, r2 in rates.tolist())
    corners = sweep_corners(diagonalize(ch), pt, SW_SPLITS)
    points.extend(replace(c, provenance="sw-family") for c in corners)
    return estimate_region(points)
