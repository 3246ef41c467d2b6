"""Integer-backed bitsets representing subspaces.

The paper (Definition 3.3) treats a *subspace* of a ``d``-dimensional dataset
as a subset of the dimension set ``D = {1, ..., d}``.  Throughout this library
dimensions are **0-based** (``0 .. d-1``) and a subspace is a plain Python
``int`` whose bit ``i`` is set when dimension ``i`` belongs to the subspace.

Plain ints are the fastest subset representation available in CPython: subset
tests are single ``&`` operations and :meth:`int.bit_count` gives population
counts in constant time.  They are hashable, so they can key the hash maps of
the subset index (Section 5 of the paper) directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:  # numpy is only needed for the vectorised annotations
    import numpy as np
    import numpy.typing as npt

EMPTY: int = 0

#: The largest dimensionality whose subspace masks fit the ``int64`` arrays
#: Merge and the subset index store them in: bit 63 is the sign bit, so a
#: 64th dimension would overflow.  Boosted (``*-subset``) execution is
#: defined up to this many dimensions; the adaptive planner falls back to
#: an unboosted host above it.
MAX_MASK_DIMS: int = 63

_MaskOrArray = TypeVar("_MaskOrArray", int, "npt.NDArray[np.int64]")


def from_dims(dims: Iterable[int]) -> int:
    """Build a subspace bitmask from an iterable of 0-based dimensions.

    >>> from_dims([0, 2, 3])
    13
    """
    mask = 0
    for dim in dims:
        if dim < 0:
            raise ValueError(f"dimension must be non-negative, got {dim}")
        mask |= 1 << dim
    return mask


def to_dims(mask: int) -> list[int]:
    """Return the sorted list of 0-based dimensions in ``mask``.

    >>> to_dims(13)
    [0, 2, 3]
    """
    return list(bits_of(mask))


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    """Number of dimensions in the subspace (``|D'|``)."""
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    """True when subspace ``a`` is a (non-strict) subset of subspace ``b``."""
    return a & ~b == 0


def is_proper_subset(a: int, b: int) -> bool:
    """True when ``a`` is a strict subset of ``b``."""
    return a != b and a & ~b == 0


def is_superset(a: int, b: int) -> bool:
    """True when subspace ``a`` is a (non-strict) superset of subspace ``b``."""
    return b & ~a == 0


def complement(mask: int, d: int) -> int:
    """The reversed subspace ``D \\ mask`` within a ``d``-dimensional space.

    This is the ``D_q^¬`` of Section 5: the subset index stores skyline
    points under the complement of their maximum dominating subspace.
    """
    full = (1 << d) - 1
    if mask & ~full:
        raise ValueError(f"mask {mask:#x} has bits outside a {d}-dim space")
    return full & ~mask


def universe(d: int) -> int:
    """The full space ``D`` for dimensionality ``d`` as a bitmask."""
    if d < 0:
        raise ValueError(f"dimensionality must be non-negative, got {d}")
    return (1 << d) - 1


def has_dim(mask: int, dim: int) -> bool:
    """True when dimension ``dim`` belongs to the subspace ``mask``.

    >>> has_dim(0b101, 2)
    True
    >>> has_dim(0b101, 1)
    False
    """
    return bool(mask >> dim & 1)


def with_dim(mask: int, dim: int) -> int:
    """The subspace ``mask ∪ {dim}``.

    >>> with_dim(0b001, 2)
    5
    """
    return mask | (1 << dim)


def union(a: _MaskOrArray, b: _MaskOrArray) -> _MaskOrArray:
    """The union of two subspaces, ``a ∪ b``.

    Accepts plain ints or (elementwise) numpy integer arrays of masks —
    the Merge phase unions a whole block of per-pivot subspaces at once.

    >>> union(0b001, 0b100)
    5
    """
    return a | b


def subset_of_many(a: int, masks: npt.NDArray[np.int64]) -> npt.NDArray[np.bool_]:
    """Elementwise ``a ⊆ masks[k]`` over a numpy array of subspace masks.

    The vectorised form of :func:`is_subset` used by candidate filters:
    the returned boolean array marks the stored masks that are supersets
    of ``a`` — by Lemma 4.3 the only possible dominators.
    """
    return (a & ~masks) == 0
