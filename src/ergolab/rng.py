"""Stateless counter-based uniform hash.

Every random quantity in this package is a pure function of (seed, index),
so any index can be drawn in O(1), ranges can be generated in parallel, and
regeneration is bit-exact without storing a stream.  The mixer is the
splitmix64 finalizer applied to ``seed + index * GAMMA``; its output passes
the usual statistical batteries.  Distinct seeds can share one stream,
shifted: stream(seed + k * GAMMA mod 2^64, n) = stream(seed, n + k).  Seeds
less than 2^20 apart share no offset below 2^42 indices (the nearest is
8.7e12, just under 2^43), far past any scan of this package.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 2.0 ** -53
_LINE = 64  # bytes in a cache line

# Salt separating derived-seed streams from value streams.
_CHILD_SALT = 0x5851F42D4C957F2D


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def uniform01(seed: int, index: int) -> float:
    """Uniform draw in [0, 1) for a single (seed, index) pair.

    Equals ``uniform01_block(seed, index, index)[0]`` bit for bit.
    """
    z = mix64((seed + index * GAMMA) & MASK64)
    return (z >> 11) * _INV53


def uniform01_block(seed: int, lo: int, hi: int) -> np.ndarray:
    """Vectorized uniforms for indices lo..hi inclusive (float64 in [0,1))."""
    idx = np.arange(lo, hi + 1, dtype=np.uint64)
    return _mix_block(seed, idx).astype(np.float64) * _INV53


def _mix_block(seed: int, idx: np.ndarray) -> np.ndarray:
    """53-bit hash outputs for a uint64 index array."""
    return mix_steps(seed, 0, idx * _U_GAMMA, np.empty_like(idx), np.empty_like(idx)) >> _S11


def gamma_steps(size: int) -> np.ndarray:
    """i * GAMMA mod 2^64 for i < size: the seed-free part of a hash block."""
    return np.arange(size, dtype=np.uint64) * _U_GAMMA


def scan_buffers(size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma_steps(size), out, tmp): the steps and the two work buffers of
    mix_steps, each starting on a 64-byte cache-line boundary."""
    def aligned() -> np.ndarray:
        raw = np.empty(size + _LINE // 8, dtype=np.uint64)
        skip = -raw.ctypes.data % _LINE // 8
        return raw[skip : skip + size]

    steps, out, tmp = aligned(), aligned(), aligned()
    steps[:] = gamma_steps(size)
    return steps, out, tmp


def mix_steps(seed: int, lo: int, steps: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Full 64-bit mixer outputs for indices lo..lo+len(steps)-1, in place.

    out and tmp are work buffers of steps' length; the 53-bit hash of
    index lo+i is out[i] >> 11.  Nothing is allocated per call.
    """
    np.add(steps, np.uint64((seed + lo * GAMMA) & MASK64), out=out)
    _finalize(out, tmp)
    return out


def _finalize(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer applied to z in place; tmp is scratch."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _U_M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _U_M2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


def child_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed; children of one seed never collide
    with the parent's own value stream (distinct salt)."""
    return mix64((seed ^ _CHILD_SALT) + index * GAMMA)
