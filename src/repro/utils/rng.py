"""Seeded random number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`RandomSource`.  Centralising the conversion here keeps experiments
reproducible: a single seed deterministically derives independent child
streams for each component.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from typing import List, Optional, Sequence, Union

from repro.telemetry.metrics import add as _count
from repro.utils.bitset import bitset_from_indices, masks_from_bool_rows

SeedLike = Union[None, int, random.Random, "RandomSource"]

#: Number of bits in a derived seed (fits comfortably in a C long).
_SEED_BITS = 64

#: Minimum batch size worth routing through NumPy.  The MT19937 state
#: transfer (2 × 625 word conversions plus two RandomState state copies) is
#: a flat ~0.2 ms, so the vectorized draw only wins once the plain loop
#: would cost more than that — measured crossover is several thousand
#: draws, not hundreds.  Below the threshold the loop path runs; the floats
#: are bit-identical either way, only wall-clock changes.
_BATCH_NUMPY_MIN = 8192


def _batch_floats_numpy(rng: random.Random, count: int):
    """Draw ``count`` floats from ``rng``'s MT19937 stream via NumPy, exactly.

    CPython's ``random.Random`` and NumPy's legacy ``RandomState`` are both
    MT19937 with the identical 53-bit double construction, so copying the
    624-word state across, drawing the batch vectorized, and copying the
    advanced state back yields *bit-identical* floats and leaves ``rng``
    positioned exactly as ``count`` sequential ``random()`` calls would.
    Returns the draws as a NumPy array, or None when NumPy is unavailable or
    the state layout is unexpected (non-CPython implementations), in which
    case the caller falls back to the sequential loop — the stream is only
    advanced on success.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised on NumPy-less installs
        return None
    state = rng.getstate()
    version, internal = state[0], state[1]
    if version != 3 or len(internal) != 625:  # pragma: no cover - non-CPython
        return None
    mt = np.random.RandomState()
    mt.set_state(
        ("MT19937", np.asarray(internal[:624], dtype=np.uint32), internal[624], 0, 0.0)
    )
    draws = mt.random_sample(count)
    advanced = mt.get_state()
    # tolist() hands back plain Python ints in one C pass — materially
    # cheaper than a per-word generator over the 624-word key.
    rng.setstate(
        (version, tuple(advanced[1].tolist()) + (int(advanced[2]),), state[2])
    )
    return draws


#: Fewest draws (masks × size) for which :meth:`RandomSource.subset_masks`
#: replays ``random.sample`` in bulk.  The replay has a fixed cost of about
#: 0.1 ms (two state copies and a dozen NumPy calls); the measured crossover
#: with the per-mask loop is 130–170 draws across set sizes 2–50.
_SUBSET_BULK_MIN_DRAWS = 160

#: MT19937 words one bulk-replay chunk draws (128 KB), unless a single row
#: needs more.
_SUBSET_CHUNK_WORDS = 1 << 15

#: Cells (rows × n) of the boolean matrix one chunk packs: at most this
#: many, or a single row when n alone exceeds it.
_SUBSET_CHUNK_CELLS = 1 << 20


def _sample_selects_by_set(n: int, k: int) -> bool:
    """Whether ``random.sample(range(n), k)`` takes its set-selection branch.

    CPython keeps a pool list when that is smaller than a k-element set and
    tracks the values already selected in a set otherwise; this is its size
    test, computed with the same float expression.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n > setsize


def _words_per_row(n: int, k: int) -> float:
    """Expected MT19937 words one set-selection ``sample(range(n), k)`` uses.

    Collecting k distinct values of n takes n·(H(n) − H(n−k)) accepted
    draws on average, about n·ln((n + ½) / (n − k + ½)), and each draw is
    accepted with probability n / 2^bit_length(n).
    """
    return (1 << n.bit_length()) * math.log((n + 0.5) / (n - k + 0.5))


def _previous_occurrences(np, values):
    """``prev[i]``: the index of the previous occurrence of ``values[i]``, or -1.

    A stable argsort puts the occurrences of each value next to each other,
    in index order (a radix sort for the 8- and 16-bit values of n ≤ 2^16).
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeat = np.flatnonzero(ordered[1:] == ordered[:-1])
    prev = np.full(len(values), -1, dtype=np.int32)
    prev[order[repeat + 1]] = order[repeat]
    return prev


def _row_end(np, prev, start: int, k: int, limit: int) -> Optional[int]:
    """End of the row of ``k`` distinct values that starts at ``start``.

    The value at ``i`` repeats within the row iff its previous occurrence
    ``prev[i]`` lies at or after ``start``.  Each repeat pushes the end one
    further, so the end is the fixpoint of ``start + k + repeats``; every
    step only counts the repeats of the stretch the previous step added.
    Returns None when the row runs past the ``limit`` values drawn.
    """
    end = start + k
    scanned, repeats = start, 0
    while end <= limit:
        repeats += int(np.count_nonzero(prev[scanned:end] >= start))
        grown = start + k + repeats
        if grown == end:
            return end
        scanned, end = end, grown
    return None


def _replay_subset_masks(
    np, rng: random.Random, n: int, k: int, count: int
) -> List[int]:
    """``count`` masks of set-selection ``random.sample(range(n), k)``, replayed.

    CPython draws each value as ``getrandbits(n.bit_length())``, which is one
    MT19937 word shifted right, and rejects values ≥ n and values the row
    already holds.  ``getrandbits(32·W)`` returns W consecutive words, least
    significant first.  So each chunk draws its words at once, replays both
    rejections vectorized, rewinds the state and redraws exactly the words
    its complete rows consumed.  The masks, the stream position afterwards
    and every later draw equal those of the sequential loop.
    """
    bits = n.bit_length()
    per_row = _words_per_row(n, k)

    def words_for(rows: int) -> int:
        # The expected words plus a margin, so that one draw nearly always
        # completes every row asked for; the words past the last complete
        # row are redrawn by the next chunk.
        expected = rows * per_row
        return int(1.05 * expected + 8 * math.sqrt(expected)) + 32

    max_rows = max(1, _SUBSET_CHUNK_CELLS // n)
    masks: List[int] = []
    at_least = 0
    while len(masks) < count:
        rows = min(count - len(masks), max_rows)
        words = max(at_least, words_for(1), min(_SUBSET_CHUNK_WORDS, words_for(rows)))
        state = rng.getstate()
        values = np.frombuffer(
            rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
        ) >> (32 - bits)
        positions = np.flatnonzero(values < n)
        values = values[positions].astype(np.min_scalar_type(n - 1))
        prev = _previous_occurrences(np, values)
        ends: List[int] = []
        start = 0
        while len(ends) < rows:
            end = _row_end(np, prev, start, k, len(values))
            if end is None:
                break
            ends.append(end)
            start = end
        rng.setstate(state)
        if not ends:
            # Not even one row completed: redraw a chunk twice the size.
            at_least = 2 * words
            continue
        at_least = 0
        rng.getrandbits(32 * (int(positions[start - 1]) + 1))
        row_of = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        member = np.zeros((len(ends), n), dtype=bool)
        member[row_of, values[:start]] = True
        masks.extend(masks_from_bool_rows(member))
    return masks


def batching_numpy():
    """NumPy module when sampler vectorization is enabled, else ``None``.

    The batched instance samplers draw their floats through
    :meth:`RandomSource.random_batch` / :meth:`RandomSource.random_array`
    (bit-identical either way) and then *transform* them — argsorts, roll
    flooring, packed mask assembly — vectorized when this returns a module
    and with plain Python loops otherwise.  Setting ``REPRO_SAMPLER_BATCH=off``
    forces the loop path, which the bit-identity tests use to prove the two
    transforms agree draw for draw.
    """
    if os.environ.get("REPRO_SAMPLER_BATCH", "").lower() in ("0", "off", "no", "false"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on NumPy-less installs
        return None
    return numpy


def argsort_floats(draws: Sequence[float]) -> List[int]:
    """Indices that stably sort ``draws`` ascending — a uniform permutation.

    The float-draw sampler protocol derives permutations and fixed-size
    subsets from i.i.d. uniforms by (stable) argsort; this is the loop-path
    transform, element-identical to ``numpy.argsort(draws, kind="stable")``
    on the same draws (both sorts are stable, so even measure-zero ties
    break identically).
    """
    return sorted(range(len(draws)), key=draws.__getitem__)


def derive_seed(root: int, *path: Union[int, str]) -> int:
    """Derive a child seed from ``root`` and a path of names/indices.

    The derivation hashes ``root`` together with the path components, so the
    result depends only on the *values* of ``(root, path)`` — never on call
    order or on how many other seeds were derived before.  This is the
    primitive underneath :mod:`repro.runtime.seeding`: hierarchical seed trees
    (``scenario seed → repetition seed → named subsystem stream``) are built
    by chaining paths, and two runs that derive the same path always get the
    same stream regardless of interleaving.
    """
    # Length-prefix each component so the encoding is injective: without it,
    # a single component "a:b" would collide with the two components ("a","b").
    parts = [str(part) for part in path]
    material = str(int(root)) + "".join(f"|{len(part)}:{part}" for part in parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[: _SEED_BITS // 8], "big", signed=False)


class RandomSource:
    """A reproducible source of randomness with cheap child-stream spawning.

    Wraps :class:`random.Random` and adds :meth:`spawn`, which derives an
    independent child generator deterministically from the parent state.  Two
    runs with the same root seed produce identical child streams regardless of
    interleaving, as long as ``spawn`` calls happen in the same order.
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, RandomSource):
            self._rng = random.Random(seed.randbits(64))
        elif isinstance(seed, random.Random):
            self._rng = seed
        else:
            self._rng = random.Random(seed)
        self._spawn_count = 0

    # -- delegation -----------------------------------------------------
    # Every draw method reports its logical draw volume to the telemetry
    # counter ``rng.draws`` (a no-op context-variable load when telemetry is
    # off).  Counts are logical draws — one per scalar, the batch size for
    # batched calls — not MT19937 word consumption.
    def random(self) -> float:
        """Return a float uniform in [0, 1)."""
        _count("rng.draws")
        return self._rng.random()

    def randint(self, a: int, b: int) -> int:
        """Return an integer uniform in [a, b] inclusive."""
        _count("rng.draws")
        return self._rng.randint(a, b)

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        """Return an integer from ``range(start, stop)``."""
        _count("rng.draws")
        if stop is None:
            return self._rng.randrange(start)
        return self._rng.randrange(start, stop)

    def randbits(self, k: int) -> int:
        """Return an integer with k random bits."""
        _count("rng.draws")
        return self._rng.getrandbits(k)

    def choice(self, seq):
        """Return a uniformly random element of a non-empty sequence."""
        _count("rng.draws")
        return self._rng.choice(seq)

    def sample(self, population, k: int):
        """Return k distinct elements sampled without replacement."""
        _count("rng.draws", k)
        return self._rng.sample(population, k)

    def shuffle(self, seq) -> None:
        """Shuffle a mutable sequence in place."""
        _count("rng.draws", len(seq))
        self._rng.shuffle(seq)

    def uniform(self, a: float, b: float) -> float:
        """Return a float uniform in [a, b]."""
        _count("rng.draws")
        return self._rng.uniform(a, b)

    def bernoulli(self, p: float) -> bool:
        """Return True with probability p."""
        _count("rng.draws")
        return self._rng.random() < p

    def random_batch(self, count: int) -> list:
        """Return ``count`` floats, identical to ``count`` :meth:`random` calls.

        Large batches are drawn vectorized through NumPy when available (the
        MT19937 state is transferred across and back, so the stream advances
        exactly as the sequential loop would); small batches and NumPy-less
        installs use the plain loop.  Either way the returned floats — and
        every draw made from this source afterwards — are bit-identical.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        _count("rng.draws", count)
        if count >= _BATCH_NUMPY_MIN:
            draws = _batch_floats_numpy(self._rng, count)
            if draws is not None:
                return draws.tolist()
        return [self._rng.random() for _ in range(count)]

    def random_array(self, count: int):
        """``count`` floats as a NumPy array, or None when not worthwhile.

        The vectorized sibling of :meth:`random_batch` for callers that stay
        in array land (packed instance generation): on success the returned
        draws and the post-call stream position are bit-identical to
        ``count`` sequential :meth:`random` calls.  Returns None — without
        consuming anything — when NumPy is missing or the batch is too small
        to amortise the MT19937 state transfer; callers then fall back to
        :meth:`random_batch` or the plain loop.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count >= _BATCH_NUMPY_MIN:
            draws = _batch_floats_numpy(self._rng, count)
            if draws is not None:
                _count("rng.draws", count)
            return draws
        return None

    def permutation(self, n: int) -> list:
        """Return a uniformly random permutation of range(n)."""
        _count("rng.draws", n)
        order = list(range(n))
        self._rng.shuffle(order)
        return order

    def subset(self, universe_size: int, size: int) -> frozenset:
        """Return a uniformly random ``size``-subset of ``range(universe_size)``."""
        if size > universe_size:
            raise ValueError(
                f"cannot sample {size} elements from a universe of {universe_size}"
            )
        _count("rng.draws", size)
        return frozenset(self._rng.sample(range(universe_size), size))

    def subset_mask(self, universe_size: int, size: int) -> int:
        """A uniformly random ``size``-subset of ``range(universe_size)`` as a bitset.

        Consumes exactly the same draws as :meth:`subset` (the identical
        ``random.sample`` call) but assembles the result through the bulk
        bitset constructor — no frozenset, no per-element re-hashing — which
        is what the batched instance generators feed to
        :meth:`SetSystem.from_masks`.
        """
        if size > universe_size:
            raise ValueError(
                f"cannot sample {size} elements from a universe of {universe_size}"
            )
        _count("rng.draws", size)
        return bitset_from_indices(self._rng.sample(range(universe_size), size))

    def subset_masks(self, universe_size: int, size: int, count: int) -> List[int]:
        """``count`` :meth:`subset_mask` draws at once — the same masks, exactly.

        The returned masks, the stream position afterwards and ``rng.draws``
        equal ``count`` sequential :meth:`subset_mask` calls.  When NumPy
        batching is on and ``random.sample`` would take its set-selection
        branch, the draws are replayed in bulk (see
        :func:`_replay_subset_masks`).  Every other case runs the
        :meth:`subset_mask` loop itself: the pool branch, fewer draws than
        the measured crossover, a generator that is not exactly
        :class:`random.Random`, n ≥ 2³², no NumPy, ``REPRO_SAMPLER_BATCH=off``
        and a size the loop rejects (with the loop's ``ValueError``).
        """
        np = batching_numpy()
        if (
            np is None
            or count * size < _SUBSET_BULK_MIN_DRAWS
            or type(self._rng) is not random.Random
            or not 0 < size <= universe_size < 1 << 32
            or not _sample_selects_by_set(universe_size, size)
        ):
            return [self.subset_mask(universe_size, size) for _ in range(count)]
        _count("rng.draws", size * count)
        return _replay_subset_masks(np, self._rng, universe_size, size, count)

    # -- spawning -------------------------------------------------------
    def spawn(self) -> "RandomSource":
        """Return a new independent RandomSource derived from this one."""
        _count("rng.spawns")
        self._spawn_count += 1
        child_seed = self._rng.getrandbits(64) ^ (self._spawn_count * 0x9E3779B97F4A7C15)
        return RandomSource(child_seed & ((1 << 64) - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(spawned={self._spawn_count})"


def spawn_rng(seed: SeedLike) -> RandomSource:
    """Normalise any seed-like value into a :class:`RandomSource`."""
    if isinstance(seed, RandomSource):
        return seed
    return RandomSource(seed)
