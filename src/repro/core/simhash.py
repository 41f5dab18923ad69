"""96-bit simhash fingerprints for near-duplicate webpage detection.

WhoWas (§4) computes a simhash over the HTML of every fetched page and
clusters pages whose fingerprints are within a small Hamming distance.
This module implements the Charikar simhash construction used there:

1. tokenize the document into features (word shingles),
2. hash every feature to a ``HASH_BITS``-bit value,
3. sum +1/-1 votes per bit position, weighted by feature frequency,
4. the fingerprint has bit *i* set iff the vote for position *i* is positive.

Two near-identical documents share most features, so most bit positions
receive nearly identical votes and the fingerprints differ in only a few
bits.  The paper uses 96-bit hashes and a merge threshold of 3 bits.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

#: Gate of the packed Hamming kernels below.  numpy >= 2.0 is a hard
#: dependency; the name stays patchable so the remaining numpy-less
#: branches in ``analysis/`` stay testable until they are removed.
_np = np

__all__ = [
    "HASH_BITS",
    "HASH_WORDS",
    "simhash",
    "hamming_distance",
    "numpy_available",
    "pack_hashes",
    "hamming_rows",
    "hamming_cross",
    "tokenize",
    "shingles",
]

#: Width of the fingerprint in bits; the paper uses 96-bit hashes (§4).
HASH_BITS = 96

#: 64-bit words per packed fingerprint row (low word, then high word).
HASH_WORDS = (HASH_BITS + 63) // 64

_HASH_MASK = (1 << HASH_BITS) - 1

_WORD_MASK = (1 << 64) - 1

#: Shingles per block of the simhash vote.  The int64 mat-vec copies its
#: uint8 bit rows to int64, so blocking caps that copy at 3 MB: a
#: 512 KB body (~80k shingles) would otherwise need ~60 MB at once.
_VOTE_ROWS = 4096

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

_TAG_RE = re.compile(r"<[^>]*>")


def tokenize(text: str, *, strip_markup: bool = True) -> list[str]:
    """Split *text* into lowercase alphanumeric tokens.

    HTML tags are treated as token sources too (tag names and attribute
    values carry structural signal), but angle-bracket punctuation is
    dropped.  With ``strip_markup=False`` the raw text is tokenized as-is.
    """
    if strip_markup:
        text = _TAG_RE.sub(" ", text)
    return [match.group(0).lower() for match in _TOKEN_RE.finditer(text)]


def shingles(tokens: list[str], width: int = 3) -> Iterable[str]:
    """Yield overlapping token *width*-grams (shingles).

    Shingling makes the fingerprint sensitive to local word order, which
    distinguishes pages that merely share a vocabulary.  Documents shorter
    than *width* tokens yield a single shingle of all their tokens.
    """
    if width <= 0:
        raise ValueError(f"shingle width must be positive, got {width}")
    if len(tokens) < width:
        if tokens:
            yield " ".join(tokens)
        return
    for start in range(len(tokens) - width + 1):
        yield " ".join(tokens[start : start + width])


def simhash(text: str, *, shingle_width: int = 3) -> int:
    """Compute the 96-bit simhash fingerprint of *text*.

    Returns 0 for documents with no extractable tokens, matching the
    behaviour of treating empty pages as a single degenerate fingerprint.

    The vote is a weighted mat-vec: each shingle's 12-byte blake2b
    digest is read big-endian, so ``unpackbits`` column 0 is fingerprint
    bit 95.  A bit is set only on a strictly positive vote; ties stay
    unset.
    """
    tokens = tokenize(text)
    if not tokens:
        return 0
    weights = Counter(shingles(tokens, shingle_width))
    digests = b"".join(
        hashlib.blake2b(feature.encode("utf-8"), digest_size=12).digest()
        for feature in weights
    )
    bits = np.unpackbits(np.frombuffer(digests, dtype=np.uint8)).reshape(
        len(weights), HASH_BITS
    )
    counts = np.fromiter(weights.values(), dtype=np.int64, count=len(weights))
    votes = -counts.sum()
    for start in range(0, len(counts), _VOTE_ROWS):
        rows = slice(start, start + _VOTE_ROWS)
        votes = votes + (2 * counts[rows]) @ bits[rows]
    return int.from_bytes(np.packbits(votes > 0).tobytes(), "big")


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two fingerprints (0..HASH_BITS)."""
    return ((a ^ b) & _HASH_MASK).bit_count()


# ----------------------------------------------------------------------
# Vectorized Hamming kernels.
#
# Clustering at scale (analysis/lsh.py, analysis/gap_statistic.py) runs
# Hamming distance over millions of fingerprint pairs.  The kernels below
# pack fingerprints into a (n, HASH_WORDS) uint64 matrix and compute
# distances with ``numpy.bitwise_count`` — bit-for-bit identical to the
# scalar :func:`hamming_distance`.  numpy >= 2.0 is a hard dependency
# (the simhash vote above needs numpy too); callers that still gate on
# :func:`numpy_available` are exercised by patching
# ``repro.core.simhash._np``.


def numpy_available() -> bool:
    """Whether the vectorized kernels can run (numpy >= 2.0 importable)."""
    return _np is not None


def pack_hashes(hashes: Sequence[int]) -> "_np.ndarray":
    """Pack fingerprints into an ``(n, HASH_WORDS)`` uint64 matrix.

    Row *i* holds ``hashes[i]`` split into little-endian 64-bit words:
    column 0 is bits 0..63, column 1 is bits 64..95.
    """
    if _np is None:
        raise RuntimeError("numpy >= 2.0 is required for packed kernels")
    count = len(hashes)
    packed = _np.empty((count, HASH_WORDS), dtype=_np.uint64)
    for word in range(HASH_WORDS):
        shift = 64 * word
        packed[:, word] = _np.fromiter(
            ((value >> shift) & _WORD_MASK for value in hashes),
            dtype=_np.uint64,
            count=count,
        )
    return packed


def hamming_rows(packed_a: "_np.ndarray",
                 packed_b: "_np.ndarray") -> "_np.ndarray":
    """Row-wise Hamming distances between two equal-shape packed matrices.

    Returns a ``(n,)`` integer array where entry *i* equals
    ``hamming_distance(a[i], b[i])``.
    """
    if _np is None:
        raise RuntimeError("numpy >= 2.0 is required for packed kernels")
    return _np.bitwise_count(packed_a ^ packed_b).sum(
        axis=1, dtype=_np.uint32
    )


def hamming_cross(packed_a: "_np.ndarray",
                  packed_b: "_np.ndarray") -> "_np.ndarray":
    """All-pairs Hamming distances: a ``(len(a), len(b))`` matrix.

    Materialises one uint64 temporary of that shape per word — callers
    comparing large populations must block both dimensions.
    """
    if _np is None:
        raise RuntimeError("numpy >= 2.0 is required for packed kernels")
    out = _np.zeros((packed_a.shape[0], packed_b.shape[0]), dtype=_np.uint16)
    for word in range(HASH_WORDS):
        out += _np.bitwise_count(
            packed_a[:, word, None] ^ packed_b[None, :, word]
        )
    return out
