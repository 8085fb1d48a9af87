"""Morton (Z-order) keys: the hashing scheme of the hashed oct-tree.

Warren & Salmon's parallel hashed oct-tree ["A Parallel Hashed Oct-Tree
N-Body Algorithm", SC'93] names tree cells by key: the root is 1, and a
child's key is ``parent * 8 + octant``.  A particle's key at maximum
depth is the sentinel bit followed by its interleaved coordinate bits.
Sorting particles by key linearises them along a space-filling curve,
which is also how the parallel decomposition slices the domain.

21 bits per dimension + 1 sentinel bit = 64-bit keys, depth <= 21.
"""

from __future__ import annotations

import numpy as np

#: Maximum tree depth representable in a 64-bit key.
MAX_DEPTH = 21

_U = np.uint64
_MASKS_SPREAD = (
    _U(0x1FFFFF),
    _U(0x1F00000000FFFF),
    _U(0x1F0000FF0000FF),
    _U(0x100F00F00F00F00F),
    _U(0x10C30C30C30C30C3),
    _U(0x1249249249249249),
)
_SHIFTS = (_U(32), _U(16), _U(8), _U(4), _U(2))

#: The root cell's key.
ROOT_KEY = 1


def _spread(v: np.ndarray) -> np.ndarray:
    """Spread 21-bit integers so bits land every third position."""
    x = v.astype(np.uint64) & _MASKS_SPREAD[0]
    for shift, mask in zip(_SHIFTS, _MASKS_SPREAD[1:]):
        x = (x | (x << shift)) & mask
    return x


def morton_encode(ix: np.ndarray, iy: np.ndarray,
                  iz: np.ndarray) -> np.ndarray:
    """Interleave three 21-bit integer coordinates into Morton codes."""
    return (
        (_spread(np.asarray(ix)) << _U(2))
        | (_spread(np.asarray(iy)) << _U(1))
        | _spread(np.asarray(iz))
    )


def quantize(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map positions inside box [lo, hi) to integer grid coordinates at
    ``MAX_DEPTH``."""
    cells = 1 << MAX_DEPTH
    span = np.maximum(hi - lo, 1e-300)
    scaled = (pos - lo) / span * cells
    grid = np.clip(scaled.astype(np.int64), 0, cells - 1)
    return grid


def particle_keys(pos: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Warren-Salmon keys at ``MAX_DEPTH`` for particles in box [lo, hi).

    The key is ``(1 << 3*MAX_DEPTH) | morton``, i.e. the sentinel bit
    followed by the interleaved coordinates - so cell keys of different
    levels never collide in the hash table.
    """
    grid = quantize(pos, lo, hi)
    codes = morton_encode(grid[:, 0], grid[:, 1], grid[:, 2])
    return codes | (_U(1) << _U(3 * MAX_DEPTH))


def key_level(key: int) -> int:
    """Tree depth of a cell key (root = 0)."""
    k = int(key)
    if k < 1:
        raise ValueError("keys are positive")
    return (k.bit_length() - 1) // 3


def ancestor_at_level(key: int, level: int) -> int:
    """The enclosing cell of *key* at the (shallower) *level*."""
    current = key_level(key)
    if level > current:
        raise ValueError("level deeper than key's own")
    return int(key) >> (3 * (current - level))
