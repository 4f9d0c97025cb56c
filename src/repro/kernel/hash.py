"""Kernel-style flow hashing.

Implements the two primitives Algorithm 2 of the paper relies on:

- a Jenkins-style hash (``jhash``) of the connection 4-tuple, standing in
  for the precomputed skb hash the kernel feeds to reuseport selection; and
- ``reciprocal_scale(value, range)`` — the kernel's multiplicative trick to
  map a 32-bit hash uniformly onto ``[0, range)`` without a division.

Both are deterministic and mirror the Linux implementations bit-for-bit at
32-bit width, so hash-collision behaviour (the reuseport failure mode under
heavy hitters, §2.2) is reproduced faithfully.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["FourTuple", "jhash_4tuple", "jhash_words", "reciprocal_scale"]

_MASK32 = 0xFFFFFFFF
#: The kernel's JHASH_INITVAL (an arbitrary golden-ratio constant).
JHASH_INITVAL = 0xDEADBEEF


class FourTuple(NamedTuple):
    """A connection 4-tuple; addresses and ports are plain integers."""

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int

    def reversed(self) -> "FourTuple":
        """The return-path tuple."""
        return FourTuple(self.dst_ip, self.dst_port, self.src_ip, self.src_port)


def _rol32(value: int, bits: int) -> int:
    value &= _MASK32
    return ((value << bits) | (value >> (32 - bits))) & _MASK32


def _jhash_mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    a = (a - c) & _MASK32
    a ^= _rol32(c, 4)
    c = (c + b) & _MASK32
    b = (b - a) & _MASK32
    b ^= _rol32(a, 6)
    a = (a + c) & _MASK32
    c = (c - b) & _MASK32
    c ^= _rol32(b, 8)
    b = (b + a) & _MASK32
    a = (a - c) & _MASK32
    a ^= _rol32(c, 16)
    c = (c + b) & _MASK32
    b = (b - a) & _MASK32
    b ^= _rol32(a, 19)
    a = (a + c) & _MASK32
    c = (c - b) & _MASK32
    c ^= _rol32(b, 4)
    b = (b + a) & _MASK32
    return a, b, c


def _jhash_final(a: int, b: int, c: int) -> int:
    # ``__jhash_final`` with the rotates inlined.  ``a``/``b``/``c`` are
    # already 32-bit, and the unmasked rotate differs from ``_rol32`` only
    # by multiples of 2**32, which the subtraction's mask discards.
    c ^= b
    c = (c - ((b << 14) | (b >> 18))) & _MASK32
    a ^= c
    a = (a - ((c << 11) | (c >> 21))) & _MASK32
    b ^= a
    b = (b - ((a << 25) | (a >> 7))) & _MASK32
    c ^= b
    c = (c - ((b << 16) | (b >> 16))) & _MASK32
    a ^= c
    a = (a - ((c << 4) | (c >> 28))) & _MASK32
    b ^= a
    b = (b - ((a << 14) | (a >> 18))) & _MASK32
    c ^= b
    return (c - ((b << 24) | (b >> 8))) & _MASK32


def jhash_words(words: list[int], initval: int = 0) -> int:
    """Jenkins lookup3 hash over 32-bit words (the kernel's ``jhash2``)."""
    length = len(words)
    # Straight-line paths for the hot lengths (4-tuples, ECMP/HRW keys).
    if length == 3:
        init = (JHASH_INITVAL + 12 + initval) & _MASK32
        return _jhash_final((init + words[0]) & _MASK32,
                            (init + words[1]) & _MASK32,
                            (init + words[2]) & _MASK32)
    if length == 2:
        init = (JHASH_INITVAL + 8 + initval) & _MASK32
        return _jhash_final((init + words[0]) & _MASK32,
                            (init + words[1]) & _MASK32, init)
    a = b = c = (JHASH_INITVAL + (length << 2) + initval) & _MASK32
    index = 0
    while length > 3:
        a = (a + words[index]) & _MASK32
        b = (b + words[index + 1]) & _MASK32
        c = (c + words[index + 2]) & _MASK32
        a, b, c = _jhash_mix(a, b, c)
        index += 3
        length -= 3
    if length == 3:
        c = (c + words[index + 2]) & _MASK32
    if length >= 2:
        b = (b + words[index + 1]) & _MASK32
    if length >= 1:
        a = (a + words[index]) & _MASK32
        c = _jhash_final(a, b, c)
    return c & _MASK32


def jhash_4tuple(four_tuple: FourTuple, initval: int = 0) -> int:
    """32-bit flow hash of a 4-tuple, as the kernel computes for reuseport.

    Ports are packed into one word like ``inet_ehashfn`` packs sport/dport.
    """
    ports = ((four_tuple.src_port & 0xFFFF) << 16) | (four_tuple.dst_port & 0xFFFF)
    return jhash_words(
        [four_tuple.src_ip & _MASK32, four_tuple.dst_ip & _MASK32, ports],
        initval,
    )


def reciprocal_scale(value: int, ep_ro: int) -> int:
    """Scale a 32-bit ``value`` into ``[0, ep_ro)`` (Linux ``reciprocal_scale``).

    Computes ``(value * ep_ro) >> 32`` — uniform when ``value`` is uniform,
    and far cheaper than a modulo in kernel context.  ``ep_ro`` must be
    positive.
    """
    if ep_ro <= 0:
        raise ValueError(f"reciprocal_scale range must be positive, got {ep_ro}")
    return ((value & _MASK32) * ep_ro) >> 32
