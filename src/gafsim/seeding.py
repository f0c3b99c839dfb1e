"""numpy's default_rng seeding, replayed for many seeds at once.

np.random.default_rng(seed) hashes an int seed through a SeedSequence into
four uint64 words, seeds a PCG64 from them and wraps it in a Generator,
about 12 µs per call. A run group draws each step from a generator in
the state default_rng(seed) builds for that step's seed: it computes
every step's words in one numpy pass with seed_words and sets one reused
PCG64 to pcg64_state(words) at each step. The states are numpy's, so
every draw is too: run_detailed checks step 1's state once per group,
and seed_mismatches (run by `gafsim check`) checks many seeds.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is SeedSequence(seeds[i]).generate_state(4, np.uint64), for a (n,) uint64
    array of seeds: numpy's pool mixing (pool size 4), in uint32 arithmetic over all
    n seeds at once."""
    m32 = np.uint32
    # the entropy is the seed's little-endian uint32 words; a seed below 2**32 has one
    # word, and the empty second word hashes as the pool's zero fill would
    pool = [(seeds & _M32).astype(m32), (seeds >> 32).astype(m32),
            np.zeros(seeds.shape, m32), np.zeros(seeds.shape, m32)]
    const = 0x43B0D7E5

    def hashmix(v):
        nonlocal const
        v = v ^ m32(const)
        const = const * 0x931E8875 & _M32
        v = v * m32(const)
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = m32(0xCA01F9DD) * pool[dst] - m32(0x4973F715) * hashmix(pool[src])
                pool[dst] = v ^ (v >> 16)
    # generate_state: 8 uint32 words cycled from the pool, read as 4 little-endian uint64
    words = np.empty((seeds.size, 8), m32)
    const = 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ m32(const)
        const = const * 0x58F38DED & _M32
        v = v * m32(const)
        words[:, i] = v ^ (v >> 16)
    return words.view(np.uint64)


def pcg64_state(words: list[int]) -> dict:
    """The bit_generator.state of a PCG64 seeded with generate_state words (a, b, c, d):
    state 0 and inc 2 * (c << 64 | d) + 1, one step, plus (a << 64 | b), one more step."""
    a, b, c, d = words
    inc = ((c << 64 | d) << 1 | 1) & _U128
    state = (inc + (a << 64 | b)) & _U128
    return {"bit_generator": "PCG64",
            "state": {"state": (state * _PCG64_MULT + inc) & _U128, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def seed_mismatches(seeds: np.ndarray) -> list[int]:
    """The seeds, of a (n,) uint64 array, whose pcg64_state(seed_words) differs from
    np.random.default_rng(seed)'s state: empty unless numpy changed its seeding."""
    return [s for s, words in zip(seeds.tolist(), seed_words(seeds).tolist())
            if pcg64_state(words) != np.random.default_rng(s).bit_generator.state]
