"""Seeded random number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`RandomSource`.  Centralising the conversion here keeps experiments
reproducible: a single seed deterministically derives independent child
streams for each component.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import os
import random
from typing import Iterator, List, Optional, Sequence, Union

from repro.telemetry.metrics import add as _count
from repro.utils.bitset import bitset_from_indices, masks_from_bool_rows

SeedLike = Union[None, int, random.Random, "RandomSource"]

#: Number of bits in a derived seed (fits comfortably in a C long).
_SEED_BITS = 64

#: Fewest floats for which :meth:`RandomSource.random_array` and
#: :meth:`RandomSource.random_batch` decode MT19937 words
#: (:func:`_floats_from_words`) instead of returning None or running the
#: ``random()`` loop.  The decode has a fixed cost of 5–10 µs (about ten
#: NumPy calls) and then costs about 40% of the loop per float; a list also
#: pays ``tolist()``.  Measured crossovers with the loop: 224 floats as an
#: array, 384–512 as a list (docs/performance.md).
_WORDS_ARRAY_MIN = 224
_WORDS_BATCH_MIN = 448

#: Fewest floats for which the MT19937 state transfer
#: (:func:`_batch_floats_numpy`) beats decoding words.  The transfer costs
#: a flat 0.2–0.4 ms (2 × 625 word conversions plus two ``RandomState``
#: state copies) and then a few nanoseconds a float; the measured
#: crossover with the decode is 14–16k floats, as an array or a list.
_BATCH_NUMPY_MIN = 15360


def _mt_words(np, rng: random.Random, count: int):
    """``rng``'s next ``count`` MT19937 words as a uint32 array, in draw order.

    ``getrandbits(32·W)`` returns W consecutive words, least significant
    first.
    """
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")


def _floats_from_words(np, rng: random.Random, count: int):
    """``rng``'s next ``count`` ``random()`` floats, decoded from its words.

    ``random()`` reads two MT19937 words a and b and returns
    ``((a >> 5)·2^26 + (b >> 6)) / 2^53``.  The numerator is an integer
    below 2^53 and the divisor a power of two, so float64 computes it
    exactly: the floats, and the stream position afterwards, equal
    ``count`` sequential ``random()`` calls.  One ``getrandbits(64·count)``
    call draws the 2·count words (:func:`_mt_words`).
    """
    words = _mt_words(np, rng, 2 * count)
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _batch_floats_numpy(np, rng: random.Random, count: int):
    """Draw ``count`` floats from ``rng``'s MT19937 stream via NumPy, exactly.

    CPython's ``random.Random`` and NumPy's legacy ``RandomState`` are both
    MT19937 with the identical 53-bit double construction, so copying the
    624-word state across, drawing the batch vectorized, and copying the
    advanced state back yields *bit-identical* floats and leaves ``rng``
    positioned exactly as ``count`` sequential ``random()`` calls would.
    Decodes words instead when the state layout is unexpected
    (non-CPython implementations).
    """
    state = rng.getstate()
    version, internal = state[0], state[1]
    if version != 3 or len(internal) != 625:  # pragma: no cover - non-CPython
        return _floats_from_words(np, rng, count)
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


def _vector_floats(rng: random.Random, count: int, minimum: int):
    """``rng``'s next ``count`` floats as an array, or None for the loop.

    None, drawing nothing, below ``minimum``, for a generator that is not
    exactly :class:`random.Random` (a subclass may override ``random()``,
    and ``SystemRandom`` keeps no state) and without sampler batching.
    Otherwise the floats are transferred or decoded, whichever is faster
    at ``count``.
    """
    if count < minimum or type(rng) is not random.Random:
        return None
    np = batching_numpy()
    if np is None:
        return None
    if count >= _BATCH_NUMPY_MIN:
        return _batch_floats_numpy(np, rng, count)
    return _floats_from_words(np, rng, count)


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

#: Span of the set-branch replay's row-end walk (:func:`_row_ends`): this
#: many times a row's expected values, plus 32.  A row longer than the span
#: is redone by the :func:`_row_end` fixpoint; a wider span makes the walk
#: visit more positions.
_SUBSET_ROW_SPAN = 1.25


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


def _row_ends(np, prev, k: int, rows: int, span: int) -> List[int]:
    """Ends of up to ``rows`` consecutive rows of ``k`` distinct values.

    The first row starts at 0 and each next one where the last ended.  One
    walk finds every end: a value repeats within a row of at most ``span``
    values only if its previous occurrence lies less than ``span`` before
    it, so the walk visits just those positions, in order, and pushes the
    row's end one further for each whose ``prev`` lies at or after the
    row's start.  A row the walk finds longer than ``span`` may have
    missed a repeat and is redone by the :func:`_row_end` fixpoint.  Stops
    at the first row that runs past the values drawn.
    """
    limit = len(prev)
    near = np.flatnonzero((prev >= 0) & (np.arange(limit) - prev < span))
    positions = near.tolist()
    previous = prev[near].tolist()
    total = len(positions)
    ends: List[int] = []
    start = index = 0
    while len(ends) < rows:
        end = start + k
        while index < total and positions[index] < end:
            if previous[index] >= start:
                end += 1
            index += 1
        if end - start > span:
            end = _row_end(np, prev, start, k, limit)
            if end is None:
                break
            index = bisect.bisect_left(positions, end)
        elif end > limit:
            break
        ends.append(end)
        start = end
    return ends


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
    span = int(_SUBSET_ROW_SPAN * per_row * n / (1 << bits)) + 32

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
        values = _mt_words(np, rng, words) >> (32 - bits)
        positions = np.flatnonzero(values < n)
        values = values[positions].astype(np.min_scalar_type(n - 1))
        ends = _row_ends(np, _previous_occurrences(np, values), k, rows, span)
        rng.setstate(state)
        if not ends:
            # Not even one row completed: redraw a chunk twice the size.
            at_least = 2 * words
            continue
        at_least = 0
        start = ends[-1]
        rng.getrandbits(32 * (int(positions[start - 1]) + 1))
        row_of = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        member = np.zeros((len(ends), n), dtype=bool)
        member[row_of, values[:start]] = True
        masks.extend(masks_from_bool_rows(member))
    return masks


#: Fewest draws (masks × size) and fewest masks for which
#: :meth:`RandomSource.subset_masks` replays ``random.sample``'s pool
#: branch in bulk.  The walk has a fixed cost of about 0.5 ms plus about
#: 2 µs per step of a row for the swaps; the measured crossover with the
#: per-mask loop is 200–2900 draws for set sizes 3–170, and 8 masks at
#: n = 4096, k = 682 (docs/performance.md).
_POOL_BULK_MIN_DRAWS = 2000
_POOL_BULK_MIN_ROWS = 8

#: MT19937 words one pool-walk block draws across its streams, unless a
#: single stream's rows need more.
_POOL_BLOCK_WORDS = 1 << 14

#: Standard deviations of word use that a stream draws beyond its expected
#: need; a stream that still runs short draws again.
_POOL_WORD_MARGIN = 4.0

#: A segment of same-bit-length steps spans at most 2^bits >> this many
#: steps (and at least 16), so about one word in 2^this is ambiguous
#: within it.
_POOL_SEGMENT_SHIFT = 3

#: Cells (rows × n) of the pool matrix one batch of swaps replays.
_POOL_SWAP_CELLS = 1 << 17


def _pool_steps(n: int, k: int):
    """Accept thresholds and segments of pool-branch ``sample(range(n), k)``.

    Step i calls ``_randbelow(n − i)``, which draws ``getrandbits(b)`` with
    ``b = (n − i).bit_length()`` until the value is below n − i.  That value
    is one MT19937 word w shifted right by ``32 − b``, so the word is
    accepted iff ``w < (n − i) << (32 − b)`` and then yields
    ``j = w >> (32 − b)``.  Within a run of steps that share b the threshold
    falls by ``1 << (32 − b)`` a step, so each segment of such a run accepts
    every word below its last step's threshold, rejects every word at or
    above its first step's and leaves only the words between ambiguous.
    Returns ``(thresholds, shifts, segments)`` with segments as
    ``(first step, stop step)`` pairs covering ``range(k)``.
    """
    thresholds: List[int] = []
    shifts: List[int] = []
    for step in range(k):
        remaining = n - step
        shift = 32 - remaining.bit_length()
        thresholds.append(remaining << shift)
        shifts.append(shift)
    segments = []
    start = 0
    for stop in range(1, k + 1):
        span = 1 << max(4, 32 - shifts[start] - _POOL_SEGMENT_SHIFT)
        if stop == k or shifts[stop] != shifts[start] or stop - start == span:
            segments.append((start, stop))
            start = stop
    return thresholds, shifts, segments


def _scan_pool_stream(
    words, classes, thresholds, segments, state, base, end, rows, ends, accepted
) -> int:
    """Walk one stream's words ``[base, end)`` on from ``state``.

    ``classes[g]`` holds segment g's definite accepts (word positions), its
    ambiguous positions (with a sentinel past the block) and, for each
    ambiguous position, the number of definite accepts before it.  A run of
    definite words therefore costs two lookups; only an ambiguous word is
    decided here, against the threshold of the step the walk has reached,
    and goes to ``accepted`` when taken.  Every finished or cut segment
    appends its end position to ``ends``.  ``state`` is ``[row, segment,
    step]`` and is updated: the stream is done when its row reaches
    ``rows`` and otherwise ran out of words.  Returns the position after
    the last word the stream used.
    """
    row, segment, step = state
    position = base
    while row < rows:
        stop = segments[segment][1]
        accepts, ambiguous, before = classes[segment]
        done = bisect.bisect_left(accepts, position)
        index = bisect.bisect_left(ambiguous, position)
        while True:
            word = ambiguous[index]
            gain = before[index] - done
            if step + gain >= stop:
                # The segment ends at its last needed definite accept.
                last = accepts[done + stop - step - 1]
                if last < end:
                    position, step = last + 1, stop
                    break
                word = end
            if word >= end:
                # The stream's words ran out inside this segment.
                step += bisect.bisect_left(accepts, end, done) - done
                state[:] = [row, segment, step]
                ends.append(end)
                return end
            step += gain
            done = before[index]
            if words[word] < thresholds[step]:
                accepted.append(word)
                step += 1
            position = word + 1
            index += 1
            if step == stop:
                break
        ends.append(position)
        segment += 1
        if segment == len(segments):
            segment, row = 0, row + 1
        step = segments[segment][0]
    state[:] = [row, segment, step]
    return position


def _pool_swaps(np, picks, n: int, k: int) -> List[int]:
    """Masks of pool-branch samples whose picks ``picks[r, i]`` are known.

    Step i swaps the value at ``picks[r, i]`` in row r's pool with the
    pool's last live value, at ``n − 1 − i``, so that the chosen values
    gather at the tail.  A batch of rows is replayed in lockstep on a
    position-major pool, where every row's last live value sits in one
    contiguous slice: one gather and one scatter per step.
    """
    masks: List[int] = []
    per_batch = max(1, _POOL_SWAP_CELLS // n)
    for first in range(0, len(picks), per_batch):
        batch = picks[first : first + per_batch]
        rows = len(batch)
        flat = batch.T.astype(np.intp) * rows + np.arange(rows)
        pool = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), rows)
        for step in range(k):
            tail = pool[(n - 1 - step) * rows : (n - step) * rows]
            picked = pool.take(flat[step])
            # A copy: put() copies the whole pool when its values overlap it.
            pool.put(flat[step], tail.copy())
            tail[:] = picked
        member = np.zeros((rows, n), dtype=bool)
        member[np.tile(np.arange(rows), k), pool[(n - k) * rows :]] = True
        masks.extend(masks_from_bool_rows(member))
    return masks


def _replay_pool_masks(
    np, engines: Sequence[random.Random], n: int, k: int, rows: int, exact: bool
) -> List[int]:
    """``rows`` pool-branch ``random.sample(range(n), k)`` masks per engine.

    The masks come engine by engine, each engine's in draw order.  A block
    of engines draws its words with one ``getrandbits(32·W)`` call per
    engine; a few NumPy passes per segment (see :func:`_pool_steps`) class
    them, :func:`_scan_pool_stream` walks each engine's rows, and the taken
    words become picks ``w >> (32 − b)`` for :func:`_pool_swaps`.  An engine
    that runs short draws again in a later block.  With ``exact`` every
    engine is left at exactly the words its rows consumed; otherwise it is
    left past them, for callers that discard it.
    """
    thresholds, shifts, segments = _pool_steps(n, k)
    lows = [thresholds[stop - 1] for _, stop in segments]
    widths = [thresholds[start] - low for (start, _), low in zip(segments, lows)]
    # Index len(segments) marks a finished stream's unused words.
    low_of = np.array(lows + [0], dtype=np.uint32)
    shift_of = np.array([shifts[start] for start, _ in segments] + [0], dtype=np.uint8)
    order = range(len(segments))
    odds = [threshold / 2.0**32 for threshold in thresholds]
    row_words = sum(1 / p for p in odds)
    row_spread = sum((1 - p) / (p * p) for p in odds)
    saved = [engine.getstate() for engine in engines] if exact else None
    used = [0] * len(engines)
    states = [[0, 0, 0] for _ in engines]
    picks: List[list] = [[] for _ in engines]
    pending = list(range(len(engines)))
    while pending:
        block, sizes = [], []
        for stream in pending:
            rows_left = rows - states[stream][0]
            want = rows_left * row_words
            want += _POOL_WORD_MARGIN * math.sqrt(rows_left * row_spread)
            size = max(1, min(_POOL_BLOCK_WORDS, int(want)))
            if block and sum(sizes) + size > _POOL_BLOCK_WORDS:
                break
            block.append(stream)
            sizes.append(size)
        pending = pending[len(block) :]
        words = np.concatenate(
            [_mt_words(np, engines[stream], size) for stream, size in zip(block, sizes)]
        )
        total = len(words)
        classes = []
        for low, width in zip(lows, widths):
            accepts = np.flatnonzero(words < low)
            ambiguous = np.append(
                np.flatnonzero(words - np.uint32(low) < np.uint32(width)), total
            )
            before = np.searchsorted(accepts, ambiguous)
            classes.append(tuple(map(memoryview, (accepts, ambiguous, before))))
        view = memoryview(words)
        ends: List[int] = []
        ids: List[int] = []
        accepted: List[int] = []
        bounds = np.cumsum(sizes).tolist()
        base = 0
        for stream, end in zip(block, bounds):
            state = states[stream]
            first, marks = state[1], len(ends)
            stop = _scan_pool_stream(
                view, classes, thresholds, segments, state, base, end, rows, ends, accepted
            )
            # The segments this stream walked, from where the block found it.
            ids.extend(itertools.islice(itertools.cycle(order), first, first + len(ends) - marks))
            used[stream] += stop - base
            if state[0] < rows:
                pending.append(stream)
            elif stop < end:
                ends.append(end)
                ids.append(len(segments))
            base = end
        segment_of = np.repeat(np.array(ids, dtype=np.int16), np.diff(ends, prepend=0))
        taken = words < low_of[segment_of]
        taken[np.array(accepted, dtype=np.intp)] = True
        positions = np.flatnonzero(taken)
        values = (words[positions] >> shift_of[segment_of[positions]]).astype(
            np.min_scalar_type(n - 1)
        )
        split = np.searchsorted(positions, bounds).tolist()
        for stream, low, high in zip(block, [0] + split, split):
            picks[stream].append(values[low:high])
    if exact:
        for engine, state, words_used in zip(engines, saved, used):
            engine.setstate(state)
            engine.getrandbits(32 * words_used)
    chosen = np.concatenate([part for parts in picks for part in parts])
    return _pool_swaps(np, chosen.reshape(-1, k), n, k)


def batching_numpy():
    """NumPy module when sampler vectorization is enabled, else ``None``.

    The batched instance samplers draw their floats through
    :meth:`RandomSource.random_batch` / :meth:`RandomSource.random_array`
    (bit-identical either way) and then *transform* them — argsorts, roll
    flooring, packed mask assembly — vectorized when this returns a module
    and with plain Python loops otherwise; the floats themselves are drawn
    vectorized only when this returns a module.  Setting
    ``REPRO_SAMPLER_BATCH=off`` forces the loop path, which the bit-identity
    tests use to prove the two transforms agree draw for draw.
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
    order or on how many other seeds were derived before.  Fault decisions,
    retry backoff jitter and the load generator's request picks draw this
    way, so two runs that derive the same path always get the same seed
    regardless of interleaving.
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

        From :data:`_WORDS_BATCH_MIN` floats on, with sampler batching on
        (:func:`batching_numpy`) and a generator that is exactly
        :class:`random.Random`, the floats are drawn vectorized: decoded
        from MT19937 words, or for the largest batches through an MT19937
        state transfer.  Otherwise the plain loop runs.  Either way the
        returned floats, and every draw made from this source afterwards,
        are bit-identical.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        _count("rng.draws", count)
        draws = _vector_floats(self._rng, count, _WORDS_BATCH_MIN)
        if draws is not None:
            return draws.tolist()
        return [self._rng.random() for _ in range(count)]

    def random_array(self, count: int):
        """``count`` floats as a NumPy array, or None when not worthwhile.

        The vectorized sibling of :meth:`random_batch` for callers that stay
        in array land: the returned draws and the stream position afterwards
        are bit-identical to ``count`` sequential :meth:`random` calls.
        Returns None, consuming nothing, where :meth:`random_batch` would run
        its loop (below :data:`_WORDS_ARRAY_MIN` floats here); callers then
        fall back to :meth:`random_batch` or the plain loop.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        draws = _vector_floats(self._rng, count, _WORDS_ARRAY_MIN)
        if draws is not None:
            _count("rng.draws", count)
        return draws

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
        batching is on, the draws are replayed in bulk in either branch of
        ``random.sample``: the set-selection branch by
        :func:`_replay_subset_masks`, the pool branch by
        :func:`_replay_pool_masks`.  Every other case runs the
        :meth:`subset_mask` loop itself: fewer draws than the branch's
        measured crossover, a generator that is not exactly
        :class:`random.Random`, n ≥ 2³², no NumPy,
        ``REPRO_SAMPLER_BATCH=off`` and a size the loop rejects (with the
        loop's ``ValueError``).
        """
        np = _bulk_numpy([self], universe_size, size, count)
        if np is None:
            return [self.subset_mask(universe_size, size) for _ in range(count)]
        _count("rng.draws", size * count)
        if _sample_selects_by_set(universe_size, size):
            return _replay_subset_masks(np, self._rng, universe_size, size, count)
        return _replay_pool_masks(np, [self._rng], universe_size, size, count, True)

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


def _bulk_numpy(sources: Sequence[RandomSource], universe_size: int, size: int, count: int):
    """NumPy when ``count`` subset masks per source are worth replaying in bulk.

    None (the ``subset_mask`` loop) without sampler batching, for a
    generator that is not exactly :class:`random.Random`, for a size the
    loop rejects or n ≥ 2³², and below the crossover of the branch that
    ``random.sample`` takes, counted over all sources' masks.
    """
    np = batching_numpy()
    if (
        np is None
        or any(type(source._rng) is not random.Random for source in sources)
        or not 0 < size <= universe_size < 1 << 32
    ):
        return None
    rows = len(sources) * count
    if _sample_selects_by_set(universe_size, size):
        worth = rows * size >= _SUBSET_BULK_MIN_DRAWS
    else:
        worth = rows * size >= _POOL_BULK_MIN_DRAWS and rows >= _POOL_BULK_MIN_ROWS
    return np if worth else None


def _counted_masks(masks: Sequence[int], size: int) -> Iterator[int]:
    """Yield ``masks``, counting ``size`` ``rng.draws`` for each one taken."""
    for mask in masks:
        _count("rng.draws", size)
        yield mask


def spent_subset_masks(
    sources: Sequence[RandomSource], universe_size: int, size: int, count: int
) -> Optional[List[Iterator[int]]]:
    """Each source's next ``count`` :meth:`~RandomSource.subset_mask` draws, in one walk.

    For many short-lived sources that each draw a few pool-branch masks
    (one Lemma 2.2 trial per source): the walk of
    :func:`_replay_pool_masks` runs across all of them at once.  The masks
    equal each source's own ``subset_mask`` loop.  Each source's masks come
    as an iterator that counts ``rng.draws`` as that loop would, mask by
    mask as they are taken, so a caller that stops early counts only the
    masks it used.  The sources are spent: each is left past the words its
    masks used, and must not be drawn from again.  Returns None, drawing
    nothing, where :meth:`~RandomSource.subset_masks` would run its loop or
    ``random.sample`` takes its set-selection branch; callers then run
    their loop.
    """
    np = _bulk_numpy(sources, universe_size, size, count)
    if np is None or _sample_selects_by_set(universe_size, size):
        return None
    masks = _replay_pool_masks(
        np, [source._rng for source in sources], universe_size, size, count, False
    )
    return [
        _counted_masks(masks[first : first + count], size)
        for first in range(0, len(masks), count)
    ]
