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

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .avgpower import _check_count, check_split, diagonalize, sweep_rates
from .hull import RegionEstimate
from .sdpc import Channel, _stacked_corners

# Power splits of the structured water-filling family added to every search.
SW_SPLITS = 101
# Samples drawn and solved per stack, so a search's working memory does not
# grow with its sample count: CHUNK_ENTRIES // (n_t r), r = max(n_t, m_h, m_g),
# so that a chunk's largest arrays (the draws, H F and G F) hold about as many
# entries at every shape, but never fewer than CHUNK, below which the stacks of
# the rarer column counts k < n_t get so short that per-call costs dominate.
CHUNK = 256
CHUNK_ENTRIES = 2**15


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


def _draw(rng: np.random.Generator, n: int, out: np.ndarray) -> int:
    """Draw one sample's n x k complex Gaussian factor A into the leading
    2 n k entries of the flat buffer ``out`` (at least 2 n^2 long): sqrt(2)
    times the real parts of A in row-major order, then the imaginary parts.
    k = n, except with probability 1/3 (n > 1) k is uniform in [1, n).
    Returns k.

    Filling ``out`` consumes the stream exactly as ``standard_normal((2, n,
    k))`` would.
    """
    k = n
    if n > 1 and rng.random() < 1.0 / 3.0:
        k = int(rng.integers(1, n))
    rng.standard_normal(out=out[: 2 * n * k])
    return k


def _factors(x: np.ndarray, n: int, pt: float) -> np.ndarray:
    """Factors F = A sqrt(pt / ||A||_F^2), shape (..., n, k), of the drawn
    ``x`` (..., 2 n k) from ``_draw``, so F F^H = pt A A^H / tr(A A^H).  The
    norm is summed over each row of ``x``, so a stack of draws and a single
    draw give the same F bit for bit."""
    re, im = np.split(x, 2, axis=-1)
    a = (re + 1j * im).reshape(*x.shape[:-1], n, -1)
    return a * np.sqrt(pt / np.sum(x * x, axis=-1))[..., None, None]


def search_region(ch: Channel, cfg: SearchConfig) -> RegionEstimate:
    """Collect corners for sampled constraints and for the structured family.

    Sample i is the constraint S = F F^H, trace pt, with F = ``_factors`` of
    ``_draw`` on ``np.random.default_rng(child)`` for the i-th
    ``SeedSequence(cfg.seed).spawn`` child; S is singular when ``_draw``
    gives k < n_t.  The samples are taken in chunks of max(``CHUNK``,
    ``CHUNK_ENTRIES`` // (n_t r)), r the most of n_t and both receivers'
    antennas: with r = n_t, 8192 at n_t = 2, 2048 at 4, 512 at 8 and 256
    from 12 on.  Each chunk's seed words are hashed in one batch.  No
    constraint is formed: each chunk's draws are grouped by their column
    count k, and each group's factors F (n_t x k, full column rank for a
    Gaussian draw) are solved as one stack.  The region is the one rate
    array of the samples and the family.

    Raises ValueError, before drawing anything, unless ``cfg.samples`` and
    ``cfg.seed`` are integers >= 0 and ``cfg.pt`` is finite and >= 0.
    """
    samples, pt = cfg.samples, cfg.pt
    _check_count(samples, "samples")
    _check_count(cfg.seed, "seed")
    check_split(0.0, pt)
    n = ch.n_t
    chunk = max(CHUNK, CHUNK_ENTRIES // (n * max(n, ch.H.shape[0], ch.G.shape[0])))
    entropy = np.random.SeedSequence(cfg.seed).entropy
    rates, alphas = np.empty((samples + SW_SPLITS, 2)), np.full(samples + SW_SPLITS, np.nan)
    for start in range(0, samples, chunk):
        size = min(chunk, samples - start)
        draws = np.empty((size, 2 * n * n))
        ks = np.array([_draw(np.random.Generator(np.random.PCG64(_ChildSeed(words))), n, out)
                       for out, words in zip(draws, _child_states(entropy, start, size))])
        got = rates[start:start + size]
        for k in set(ks.tolist()):
            at = ks == k
            got[at] = _stacked_corners(ch, _factors(draws[at, : 2 * n * k], n, pt))
    alphas[samples:], rates[samples:] = sweep_rates(diagonalize(ch), pt, SW_SPLITS)
    return RegionEstimate(rates, alphas, ["baseline-sample"] * samples + ["sw-family"] * SW_SPLITS)
