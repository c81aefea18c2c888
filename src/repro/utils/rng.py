"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  Funnelling all of them
through :func:`as_generator` keeps experiments reproducible bit-for-bit while
still allowing quick interactive use.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4)
# and the PCG64 multiplier its seeding steps with.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: For each source lane of the pool's cross-mix, the lanes it mixes into.
_CROSS_LANES = tuple(
    np.array([dst for dst in range(_POOL_SIZE) if dst != src]) for src in range(_POOL_SIZE)
)
#: generate_state(4, uint64) reads the pool cyclically for 8 words.
_STATE_LANES = np.arange(8) % _POOL_SIZE


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so that generator state is
        shared with the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_children(seed: SeedLike, count: int) -> list:
    """Derive ``count`` independent child generators from one seed-like input.

    Useful when one experiment drives several stochastic subsystems (Monte
    Carlo engine, foundry, instruments) that must not share generator state,
    yet the whole experiment must be reproducible from a single seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def spawn_seed_sequences(seed: SeedLike, count: int) -> list:
    """Derive ``count`` independent :class:`~numpy.random.SeedSequence` children.

    Unlike :func:`spawn_children` this returns *seeds*, not generators, so
    each child can be spawned further before it becomes a generator.  All
    entropy is drawn up front in the caller, which makes results independent
    of the order in which the children are consumed.

    Like ``SeedSequence.spawn``, the children are prefix-stable: the first
    ``k`` of ``spawn_seed_sequences(seed, n)`` equal
    ``spawn_seed_sequences(seed, k)`` for ``k <= n``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        drawn = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.SeedSequence(int(s)) for s in drawn]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return sequence.spawn(count)


@functools.lru_cache(maxsize=None)
def structure_entropy(name: str) -> tuple:
    """Entropy words encoding a structure name for ``SeedSequence`` mixing.

    Equivalent to the UTF-8 byte values of ``name`` (what
    ``np.frombuffer(name.encode(), dtype=np.uint8).tolist()`` produces), but
    computed once per distinct name: the same handful of monitor / RF
    structure names recurs for every device of every population.
    """
    return tuple(name.encode("utf-8"))


def structure_words(name: str) -> np.ndarray:
    """:func:`structure_entropy` as a ``uint32`` array, ready for :func:`seed_entropy`.

    Callers that seed many dies of one structure encode the name once and
    reuse the array.
    """
    return np.array(structure_entropy(name), dtype=np.uint32)


def _int_words(value) -> list:
    """The 32-bit words of a non-negative integer, lowest first (``[0]`` for 0)."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def seed_entropy(seed: int, tail: np.ndarray) -> np.ndarray:
    """``SeedSequence`` entropy for ``[seed, *tail]`` as one ``uint32`` array.

    ``seed`` contributes its 32-bit words, lowest first (one word for 0),
    followed by the ``uint32`` words of ``tail``: exactly the array numpy
    coerces the Python list ``[seed, *tail]`` to, so both seed the same
    pool.  Handing numpy the array skips its per-element coercion, which
    runs in Python code and dominates the cost of a seed sequence.
    """
    words = _int_words(seed)
    entropy = np.empty(len(words) + tail.shape[0], dtype=np.uint32)
    entropy[:len(words)] = words
    entropy[len(words):] = tail
    return entropy


def seed_entropy_groups(seeds: np.ndarray, tail: np.ndarray):
    """:func:`seed_entropy` rows for many seeds, grouped by row length.

    ``seeds`` is a 1-D array of integers in ``[0, 2**63)``; a seed below
    2³² has one word and a larger one two, so the rows come in at most two
    lengths.  Yields ``(indices, rows)`` per non-empty group: row ``k`` of
    ``rows`` is ``seed_entropy(seeds[indices[k]], tail)``.  A negative
    seed raises ``ValueError``.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size and int(seeds.min()) < 0:
        raise ValueError(f"seeds must be non-negative, got {int(seeds.min())}")
    wide = seeds > _MASK32
    for n_words, members in ((1, ~wide), (2, wide)):
        indices = np.flatnonzero(members)
        if indices.size == 0:
            continue
        chosen = seeds[indices]
        rows = np.empty((indices.size, n_words + tail.shape[0]), dtype=np.uint32)
        rows[:, 0] = chosen & _MASK32
        if n_words == 2:
            rows[:, 1] = chosen >> 32
        rows[:, n_words:] = tail
        yield indices, rows


def _coerced_words(value) -> list:
    """numpy's ``SeedSequence`` coercion of entropy or a spawn key to words.

    An integer gives its 32-bit words lowest first; any sequence (a
    ``uint32`` array included) the concatenation of its elements' words.
    """
    if isinstance(value, (int, np.integer)):
        return _int_words(value)
    words = []
    for item in value:
        words.extend(_coerced_words(item))
    return words


def spawn_entropy(parents, count: int) -> np.ndarray:
    """Assembled entropy of each parent's next ``count`` spawned children.

    Row ``p * count + c`` holds the ``uint32`` words numpy mixes into the
    pool of ``parents[p].spawn(count)[c]``: the parent's run entropy,
    zero-padded to the pool size, its spawn key, then the child's index.
    The rows feed :func:`seeded_generators` without building a
    ``SeedSequence`` per child.  Unlike ``spawn``, this leaves every
    parent's ``n_children_spawned`` as it was.  All parents must give rows
    of one length (siblings of one root do); otherwise ``ValueError``.
    """
    parents = list(parents)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    prefixes = []
    for parent in parents:
        if parent.pool_size != _POOL_SIZE:
            raise ValueError(f"pool_size must be {_POOL_SIZE}, got {parent.pool_size}")
        words = _coerced_words(parent.entropy)
        words.extend([0] * (_POOL_SIZE - len(words)))
        words.extend(_coerced_words(parent.spawn_key))
        prefixes.append(words)
    width = len(prefixes[0]) if prefixes else 0
    if any(len(words) != width for words in prefixes):
        raise ValueError("parents give children entropy of different lengths")
    first = np.array([parent.n_children_spawned for parent in parents], dtype=np.int64)
    if first.size and int(first.max()) + count > _MASK32 + 1:
        raise ValueError("child indices must stay below 2**32")
    rows = np.empty((len(parents), count, width + 1), dtype=np.uint32)
    rows[:, :, :width] = np.array(prefixes, dtype=np.uint32).reshape(len(parents), 1, width)
    rows[:, :, width] = first[:, None] + np.arange(count)
    return rows.reshape(len(parents) * count, width + 1)


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**t`` (mod 2³²) for t < count: the hash constant of step t.

    The constant advances once per hash step whatever the data, so each
    step's pair (xor with ``c[t]``, multiply by ``c[t + 1]``) is known up
    front and every row of a batch shares it.
    """
    constants = np.empty(count, dtype=np.uint32)
    value = init
    for t in range(count):
        constants[t] = value
        value = (value * mult) & _MASK32
    constants.flags.writeable = False
    return constants


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix``, with the step's two hash constants given."""
    mixed = values ^ xor
    mixed *= mult
    mixed ^= mixed >> _XSHIFT
    return mixed


def _mix_into(pool: np.ndarray, scaled: np.ndarray, scratch: np.ndarray) -> None:
    """numpy's ``mix(x, y)`` in place: ``x = L * x - R * y``, then ``x ^= x >> 16``.

    ``scaled`` is ``R * y``, already multiplied by the caller.
    """
    pool *= _MIX_MULT_L
    pool -= scaled
    np.right_shift(pool, _XSHIFT, out=scratch)
    pool ^= scratch


def _seed_pools(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).pool`` for every row of ``entropy``, at once.

    numpy hashes the first four words into the pool, mixes every lane
    into the other three, then mixes each remaining word into all four
    lanes, stepping one hash constant per hash.  Each of those steps is
    one operation on a block of pool lanes here: the lanes one source word
    feeds never read each other within the step.  The remaining words'
    hashes do not read the pool, so they are hashed all at once.
    """
    n, width = entropy.shape
    tail = max(0, width - _POOL_SIZE)
    hash_a = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE + _POOL_SIZE * tail + 1)
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
    head = min(width, _POOL_SIZE)
    pool[:, :head] = entropy[:, :head]
    pool = _hashmix(pool, hash_a[:4], hash_a[1:5])
    scratch = np.empty((n, 3), dtype=np.uint32)
    for src, lanes in enumerate(_CROSS_LANES):
        t = _POOL_SIZE + 3 * src
        hashed = _hashmix(pool[:, src:src + 1], hash_a[t:t + 3], hash_a[t + 1:t + 4])
        hashed *= _MIX_MULT_R
        block = pool[:, lanes]
        _mix_into(block, hashed, scratch)
        pool[:, lanes] = block
    if tail:
        t = 4 * _POOL_SIZE
        xor = hash_a[t:t + _POOL_SIZE * tail].reshape(tail, _POOL_SIZE)
        mult = hash_a[t + 1:t + 1 + _POOL_SIZE * tail].reshape(tail, _POOL_SIZE)
        hashed = _hashmix(entropy[:, _POOL_SIZE:, None], xor, mult)
        hashed *= _MIX_MULT_R
        scratch = np.empty_like(pool)
        for word in range(tail):
            _mix_into(pool, hashed[:, word], scratch)
    return pool


def seeded_generators(entropy: np.ndarray):
    """Yield one generator re-seeded for each row of ``entropy``.

    ``entropy`` is a 2-D ``uint32`` array of assembled ``SeedSequence``
    entropy, one row per stream (:func:`seed_entropy_groups`,
    :func:`spawn_entropy`).  After the ``k``-th yield the generator draws
    exactly what ``np.random.default_rng(np.random.SeedSequence(row_k))``
    draws, bit for bit.  The pools and ``generate_state(4, np.uint64)``
    are computed for all rows in a few array operations; per row only the
    PCG64 state and increment are derived in Python integers and set
    through ``bit_generator.state`` (buffered ``uint32`` cleared), which
    costs a fraction of building a seed sequence and a generator.

    The same generator object is yielded every time: finish drawing from
    it before advancing to the next row.  Its ``bit_generator.seed_seq``
    is not the row's.
    """
    entropy = np.asarray(entropy)
    if entropy.ndim != 2 or entropy.dtype != np.uint32:
        raise ValueError(
            f"entropy must be a 2-D uint32 array, got {entropy.dtype} of shape {entropy.shape}"
        )
    hash_b = _hash_constants(_INIT_B, _MULT_B, 9)
    words = _hashmix(_seed_pools(entropy)[:, _STATE_LANES], hash_b[:8], hash_b[1:9])
    words = words.astype(np.uint64)
    seeds = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for state_hi, state_lo, seq_hi, seq_lo in seeds.tolist():
        # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1; step from state 0,
        # add initstate, step again.
        inc = (((seq_hi << 64) | seq_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + ((state_hi << 64) | state_lo)) * _PCG64_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bit_generator.state = state
        yield rng
