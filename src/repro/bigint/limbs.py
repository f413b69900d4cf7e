"""Signed limb vectors with lazy carries.

A :class:`LimbVector` is a little-endian vector of integer "limbs" with an
implicit radix ``2**base_bits`` fixed at creation.  Entries may be negative
or exceed the radix — carries are *lazy*, resolved only by :meth:`to_int`.
This is exactly what the lazy-interpolation Toom-Cook of Algorithm 2 (and
its parallel version) needs: evaluation applies small signed linear
combinations to digit blocks, interpolation applies rational ones, and the
single carry-resolution pass happens at the very end (line 16).

LimbVectors support the vector-space operations the evaluation and
interpolation matrices require (``+``, ``-``, scalar ``*`` by ``int`` or
``Fraction``), convolution (polynomial product), block splitting/joining
for the recursive algorithms, and ``words()`` so the simulated network can
charge their true bandwidth.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.util.words import bits_to_words, digits_to_int, int_to_digits

__all__ = ["LimbVector"]


class LimbVector:
    """An immutable signed limb vector over radix ``2**base_bits``."""

    __slots__ = ("limbs", "base_bits")

    def __init__(self, limbs: Iterable[int | Fraction], base_bits: int):
        if base_bits <= 0:
            raise ValueError("base_bits must be positive")
        entries = tuple(limbs)
        for v in entries:
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError(f"non-integral limb {v}")
            elif not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"limb must be an integer, got {type(v).__name__}")
        object.__setattr__(
            self, "limbs", tuple(int(v) for v in entries)
        )
        object.__setattr__(self, "base_bits", base_bits)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LimbVector is immutable")

    def __reduce__(self) -> tuple:
        # The immutability guard defeats pickle's default slot
        # restoration (it re-enters __setattr__); rebuild through
        # __init__ instead — the process backend ships limb vectors in
        # rank-program arguments and messages.
        return (LimbVector, (self.limbs, self.base_bits))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, base_bits: int, count: int | None = None) -> "LimbVector":
        """Split a non-negative integer into limbs (zero-padded to ``count``)."""
        return cls(int_to_digits(value, base_bits, count=count), base_bits)

    @classmethod
    def _trusted(cls, limbs: tuple[int, ...], base_bits: int) -> "LimbVector":
        """Wrap a tuple of plain ints without re-validating it — the
        arithmetic kernels' constructor, for limbs they computed."""
        self = object.__new__(cls)
        object.__setattr__(self, "limbs", limbs)
        object.__setattr__(self, "base_bits", base_bits)
        return self

    @classmethod
    def zeros(cls, count: int, base_bits: int) -> "LimbVector":
        return cls([0] * count, base_bits)

    # -- conversions -------------------------------------------------------
    def to_int(self) -> int:
        """Resolve carries: ``sum(limb_i * radix**i)`` (Algorithm 1 line 16)."""
        return digits_to_int(list(self.limbs), self.base_bits)

    def words(self, word_bits: int) -> int:
        """Size in machine words (for bandwidth accounting)."""
        return sum(
            bits_to_words(abs(v).bit_length(), word_bits) for v in self.limbs
        ) or 1

    # -- vector space -------------------------------------------------------
    def _check_compatible(self, other: "LimbVector") -> None:
        if self.base_bits != other.base_bits:
            raise ValueError("mismatched limb radices")
        if len(self.limbs) != len(other.limbs):
            raise ValueError(
                f"mismatched lengths {len(self.limbs)} vs {len(other.limbs)}"
            )

    def __add__(self, other: "LimbVector") -> "LimbVector":
        if not isinstance(other, LimbVector):
            return NotImplemented
        self._check_compatible(other)
        return LimbVector(
            [a + b for a, b in zip(self.limbs, other.limbs)], self.base_bits
        )

    def __sub__(self, other: "LimbVector") -> "LimbVector":
        if not isinstance(other, LimbVector):
            return NotImplemented
        self._check_compatible(other)
        return LimbVector(
            [a - b for a, b in zip(self.limbs, other.limbs)], self.base_bits
        )

    def __neg__(self) -> "LimbVector":
        return LimbVector([-a for a in self.limbs], self.base_bits)

    def __mul__(self, scalar) -> "LimbVector":
        if isinstance(scalar, Fraction):
            scaled = []
            for a in self.limbs:
                v = a * scalar
                if v.denominator != 1:
                    raise ValueError(
                        f"scalar {scalar} does not divide limb {a} exactly"
                    )
                scaled.append(int(v))
            return LimbVector(scaled, self.base_bits)
        if isinstance(scalar, int) and not isinstance(scalar, bool):
            return LimbVector([a * scalar for a in self.limbs], self.base_bits)
        return NotImplemented

    __rmul__ = __mul__

    def exact_div(self, divisor: int) -> "LimbVector":
        """Divide every limb by ``divisor``, requiring exactness (the
        exact divisions of Toom interpolation sequences)."""
        if divisor == 0:
            raise ZeroDivisionError("exact_div by zero")
        out = []
        for a in self.limbs:
            q, r = divmod(a, divisor)
            if r:
                raise ValueError(f"{a} is not divisible by {divisor}")
            out.append(q)
        return LimbVector(out, self.base_bits)

    # -- polynomial ---------------------------------------------------------
    def convolve(self, other: "LimbVector") -> "LimbVector":
        """Polynomial product of the two limb vectors (exact signed
        acyclic convolution); the result has ``len(a)+len(b)-1`` limbs.

        Computed by Kronecker substitution: each vector is packed into one
        integer with a slot wide enough for any output coefficient, the
        two integers are multiplied once, and the product is unpacked
        with balanced (signed) digits.
        """
        if self.base_bits != other.base_bits:
            raise ValueError("mismatched limb radices")
        return LimbVector._trusted(
            _kronecker_convolve(self.limbs, other.limbs), self.base_bits
        )

    # -- blocks ------------------------------------------------------------
    def split_blocks(self, nblocks: int) -> list["LimbVector"]:
        """Split into ``nblocks`` equal contiguous blocks (little-endian:
        block ``j`` holds limbs ``j*m .. (j+1)*m-1``)."""
        n = len(self.limbs)
        if nblocks <= 0 or n % nblocks:
            raise ValueError(f"cannot split {n} limbs into {nblocks} blocks")
        m = n // nblocks
        return [
            LimbVector(self.limbs[j * m : (j + 1) * m], self.base_bits)
            for j in range(nblocks)
        ]

    @staticmethod
    def concat(blocks: Sequence["LimbVector"]) -> "LimbVector":
        if not blocks:
            raise ValueError("concat of no blocks")
        base_bits = blocks[0].base_bits
        limbs: list[int] = []
        for b in blocks:
            if b.base_bits != base_bits:
                raise ValueError("mismatched limb radices")
            limbs.extend(b.limbs)
        return LimbVector(limbs, base_bits)

    def take(self, start: int, count: int) -> "LimbVector":
        """Contiguous sub-vector ``[start, start+count)``."""
        if start < 0 or count < 0 or start + count > len(self.limbs):
            raise ValueError("take out of range")
        return LimbVector(self.limbs[start : start + count], self.base_bits)

    def pad_to(self, count: int) -> "LimbVector":
        """Zero-extend to ``count`` limbs."""
        if count < len(self.limbs):
            raise ValueError("pad_to cannot shrink")
        return LimbVector(
            self.limbs + (0,) * (count - len(self.limbs)), self.base_bits
        )

    # -- cost helpers -------------------------------------------------------
    def flops_linear(self) -> int:
        """Cost charged for one scalar-multiply-accumulate over this vector."""
        return 2 * len(self.limbs)

    # -- container ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.limbs)

    def __getitem__(self, idx: int) -> int:
        return self.limbs[idx]

    def __iter__(self):
        return iter(self.limbs)

    def __eq__(self, other) -> bool:
        if isinstance(other, LimbVector):
            return self.limbs == other.limbs and self.base_bits == other.base_bits
        return NotImplemented

    def __hash__(self):
        return hash((self.limbs, self.base_bits))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.limbs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = list(self.limbs[:6])
        suffix = "..." if len(self.limbs) > 6 else ""
        return f"LimbVector({shown}{suffix}, base_bits={self.base_bits})"


def _pack(values: Sequence[int], slot: int) -> int:
    """``sum(v_i * 2**(8*slot*i))`` for signed ``|v_i| < 2**(8*slot)``."""
    pos = b"".join((v if v > 0 else 0).to_bytes(slot, "little") for v in values)
    packed = int.from_bytes(pos, "little")
    if any(v < 0 for v in values):
        neg = b"".join((-v if v < 0 else 0).to_bytes(slot, "little") for v in values)
        packed -= int.from_bytes(neg, "little")
    return packed


def _kronecker_convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exact acyclic convolution of two signed integer sequences by
    Kronecker substitution (one big-integer product).

    Every output coefficient is bounded by ``max|a| * max|b| * min(n, m)``,
    so ``w``-bit slots (whole bytes) with ``2**(w-1)`` above that bound
    keep the packed coefficients from overlapping.  Adding ``2**(w-1)`` to
    every slot of the product makes each slot non-negative, so a plain
    byte split recovers the balanced digits.
    """
    n, m = len(a), len(b)
    if not n or not m:
        return (0,) * max(n + m - 1, 0)
    if n == 1 or m == 1:
        scalar, vec = (a[0], b) if n == 1 else (b[0], a)
        return tuple(scalar * v for v in vec)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(n, m)
    if not bound:
        return (0,) * (n + m - 1)
    slot = (bound.bit_length() + 8) // 8  # 2**(8*slot - 1) > bound
    count = n + m - 1
    half = 1 << (8 * slot - 1)
    offset = int.from_bytes(half.to_bytes(slot, "little") * count, "little")
    product = _pack(a, slot) * _pack(b, slot) + offset
    raw = product.to_bytes(slot * count, "little")
    return tuple(
        int.from_bytes(raw[i : i + slot], "little") - half
        for i in range(0, slot * count, slot)
    )
