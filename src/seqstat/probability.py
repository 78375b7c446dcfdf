"""Finite-alphabet distributions, empirical types, and reproducible sampling.

All logarithms in this package are natural, so every information quantity is
reported in nats.  Distributions are immutable: weights are validated once at
construction and the stored tuple is never mutated afterwards.

Sampling is counter-based.  Each stream is the Philox4x64 sequence keyed by
``(master_seed, stream_index)``, and symbols are produced by inverse-CDF
lookup on the cumulative weights.  Two calls with the same :class:`SeedSpec`
therefore produce bit-identical output on any platform, and the draws of one
stream never depend on how many other streams exist.

Streams are drawn by re-keying one shared Philox bit generator rather than
constructing a new one: construction seeds through ``os.urandom`` even when a
key is given, and costs several times as much as setting the key.  Setting the
counter as well starts a stream at any position, so a stream can be drawn in
pieces that join into exactly the draws of one long call.  The state is
handed to the generator as Python ints, not numpy arrays: its setter reads
the counter, key and buffer element by element, and indexing numpy arrays
for each element about doubles the cost of a re-key (0.8-1.0 us with ints
against 1.9 us with arrays, numpy 2.4 on a 2-vCPU Xeon).  The values, and
so the draws, are the same either way.  Every sampler goes through
:func:`stream_indices`; :func:`bit_generator` still hands out an independent
generator for callers that keep one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    BadSeed,
    DuplicateDistribution,
    EmptySequence,
    GammaOutOfRange,
    NegativeAlpha,
    NegativeWeight,
    NonPositiveGamma,
    NotNormalized,
    SizeMismatch,
    UnknownSymbol,
)

# Input weights may miss exact normalization by this much before rejection.
NORMALIZATION_TOLERANCE = 1e-9
# After renormalization the stored weights sum to 1 within this bound.
STORED_SUM_TOLERANCE = 1e-12
# A distribution is "interior" iff every stored weight is at least this.
INTERIOR_FLOOR = 1e-9
# Two distributions count as the same input below this sup distance.
PAIR_TOLERANCE = 1e-12

_UINT64_MAX = 2**64 - 1

Symbol = str | int


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct symbol labels."""

    symbols: tuple[Symbol, ...]
    _index: dict[Symbol, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise SizeMismatch("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise SizeMismatch("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an :class:`Alphabet`.

    Construction renormalizes inputs whose sum is within
    ``NORMALIZATION_TOLERANCE`` of 1 and rejects anything farther off.
    """

    alphabet: Alphabet
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.alphabet.size:
            raise SizeMismatch(
                f"{len(self.weights)} weights for an alphabet of size {self.alphabet.size}"
            )
        ws = [_check_real(w, NotNormalized, "weight") for w in self.weights]
        for w in ws:
            if w < 0.0:
                raise NegativeWeight(f"weight {w} is negative")
            if not math.isfinite(w):
                raise NotNormalized(f"weight {w} is not finite")
        total = math.fsum(ws)
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise NotNormalized(f"weights sum to {total}, not 1")
        if total != 1.0:
            ws = [w / total for w in ws]
        object.__setattr__(self, "weights", tuple(ws))
        assert abs(math.fsum(self.weights) - 1.0) <= STORED_SUM_TOLERANCE

    @property
    def interior(self) -> bool:
        return min(self.weights) >= INTERIOR_FLOOR

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


@dataclass(frozen=True)
class EmpiricalType:
    """Symbol counts of a finite sequence, kept exact as integers."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.alphabet.size:
            raise SizeMismatch(
                f"{len(self.counts)} counts for an alphabet of size {self.alphabet.size}"
            )
        cs = tuple(int(c) for c in self.counts)
        for c in cs:
            if c < 0:
                raise NegativeWeight(f"count {c} is negative")
        if sum(cs) == 0:
            raise EmptySequence("empirical type of an empty sequence")
        object.__setattr__(self, "counts", cs)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_distribution(self) -> Distribution:
        n = self.total
        return Distribution(self.alphabet, tuple(c / n for c in self.counts))


@dataclass(frozen=True)
class SeedSpec:
    """Key of one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = _check_index(getattr(self, name), BadSeed, name)
            if not (0 <= value <= _UINT64_MAX):
                raise BadSeed(f"{name} {value} outside the 64-bit range")
            object.__setattr__(self, name, value)


def make_distribution(weights: Sequence[float], alphabet: Alphabet) -> Distribution:
    """Validate and normalize a weight vector over ``alphabet``."""
    return Distribution(alphabet, tuple(weights))


def empirical_type(sequence: Iterable[Symbol], alphabet: Alphabet) -> EmpiricalType:
    """Count symbol occurrences of ``sequence`` under ``alphabet``."""
    table = alphabet._index
    counts = [0] * alphabet.size
    n = 0
    for sym in sequence:
        try:
            counts[table[sym]] += 1
        except KeyError:
            raise UnknownSymbol(f"symbol {sym!r} is not in the alphabet") from None
        n += 1
    if n == 0:
        raise EmptySequence("cannot build the empirical type of an empty sequence")
    return EmpiricalType(alphabet, tuple(counts))


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats; zero-weight terms contribute nothing."""
    return -math.fsum(w * math.log(w) for w in p.weights if w > 0.0)


def _check_pair(p: Distribution, q: Distribution) -> None:
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch("distributions live on different alphabets")


def _check_index(value, error: type[Exception], what: str) -> int:
    """``value`` as a Python int, numpy integers included; ``error`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _check_real(value, error: type[Exception], what: str) -> float:
    """``value`` as a float, numeric strings included; ``error`` if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a number, got {value!r}") from None


def _check_alpha(alpha: float, strict: bool) -> float:
    """A finite weight ``alpha``, ``> 0`` when ``strict`` and ``>= 0`` otherwise."""
    alpha = _check_real(alpha, NegativeAlpha, "alpha")
    if not math.isfinite(alpha) or alpha < 0.0 or (strict and alpha == 0.0):
        bound = "> 0" if strict else ">= 0"
        raise NegativeAlpha(f"alpha must be finite and {bound}, got {alpha}")
    return alpha


def _check_gamma(gamma: float) -> float:
    """A rate ``0 < gamma < inf``; an infinite rate is out of range, not nonpositive."""
    gamma = _check_real(gamma, NonPositiveGamma, "gamma")
    if gamma == math.inf:
        raise GammaOutOfRange(f"gamma must be finite, got {gamma}")
    if not gamma > 0.0:
        raise NonPositiveGamma(f"gamma must be finite and > 0, got {gamma}")
    return gamma


def _same_pair(p: Distribution, q: Distribution) -> bool:
    """Whether the weights of ``p`` and ``q`` differ by at most ``PAIR_TOLERANCE``."""
    return max(abs(a - b) for a, b in zip(p.weights, q.weights)) <= PAIR_TOLERANCE


def _check_distinct(dists: Sequence[Distribution]) -> None:
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            if _same_pair(dists[i], dists[j]):
                raise DuplicateDistribution(f"distributions {i} and {j} coincide")


def kl(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p || q) in nats.

    Returns ``inf`` when ``p`` puts mass outside the support of ``q``.
    """
    _check_pair(p, q)
    acc = []
    for pw, qw in zip(p.weights, q.weights):
        if pw == 0.0:
            continue
        if qw == 0.0:
            return math.inf
        acc.append(pw * math.log(pw / qw))
    return math.fsum(acc)


def bit_generator(seed: SeedSpec) -> np.random.Generator:
    """Philox4x64 generator keyed by ``(master_seed, stream_index)``."""
    key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The generator every stream is drawn from, re-keyed per stream; made on first use.
_SHARED: np.random.Generator | None = None


def _shared_generator() -> np.random.Generator:
    global _SHARED
    if _SHARED is None:
        _SHARED = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
    return _SHARED


def stream_indices(
    p: Distribution, master_seed: int, streams: Sequence[int], start: int, stop: int
) -> np.ndarray:
    """Symbol indices ``start .. stop-1`` of each stream ``(master_seed, s)``.

    Returns an array of shape ``(len(streams), stop - start)`` whose row ``i``
    equals positions ``start .. stop-1`` of ``sample_indices`` on
    ``SeedSpec(master_seed, streams[i])``; seeds and stream indices are
    checked as :class:`SeedSpec` checks them.
    """
    if not 0 <= start <= stop:
        raise SizeMismatch(f"cannot draw positions {start} to {stop}")
    master_seed = SeedSpec(master_seed).master_seed
    if len(streams) and not (0 <= min(streams) and max(streams) <= _UINT64_MAX):
        raise BadSeed(
            f"stream indices {min(streams)} .. {max(streams)} outside the 64-bit range"
        )
    uniforms = np.empty((len(streams), stop - start))
    # Philox yields four 64-bit words per counter value and one word per
    # uniform, so position ``start`` sits ``start % 4`` draws into block
    # ``start // 4``
    skip = start & 3
    key = [master_seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [start >> 2, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen = _shared_generator()
    bits = gen.bit_generator
    with bits.lock:
        for row, stream in zip(uniforms, streams):
            key[1] = stream
            bits.state = state
            if skip:
                gen.random(skip)
            gen.random(out=row)
    return _indices_from_uniforms(p.as_array(), uniforms)


def sample_indices(p: Distribution, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw ``n`` iid symbol indices from ``p`` on the stream ``seed``."""
    if n < 0:
        raise SizeMismatch(f"cannot draw {n} samples")
    return stream_indices(p, seed.master_seed, (seed.stream_index,), 0, n)[0]


def _indices_from_uniforms(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, uniforms, side="right")
    # the top of the cdf can land a hair under 1.0
    return np.minimum(idx, len(weights) - 1)


def sample_iid(p: Distribution, n: int, seed: SeedSpec) -> list[Symbol]:
    """Draw ``n`` iid symbols from ``p``, deterministically given ``seed``."""
    symbols = p.alphabet.symbols
    return [symbols[i] for i in sample_indices(p, n, seed)]
