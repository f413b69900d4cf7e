"""Applying exact rational matrices to vectors of limb blocks.

Evaluation matrices are integral, but interpolation matrices ``W^T`` have
rational entries whose *row combinations* are guaranteed integral on valid
inputs even though individual terms are not (e.g. a ``1/2`` entry hitting
an odd block).  :func:`apply_matrix_to_blocks` therefore clears each row's
denominators first — integer combination, then one exact division by the
row's LCM — keeping every intermediate an integer :class:`LimbVector`.
Each row is compiled to that ``(integer row, LCM)`` form once and cached
by value, so repeated applications of an operator do no rational
arithmetic at all.

These helpers are shared by the sequential lazy algorithm
(:mod:`repro.bigint.lazy`) and the parallel algorithms in
:mod:`repro.core`, which apply the same matrices to *distributed* block
slices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from repro.bigint.limbs import LimbVector

__all__ = ["apply_matrix_to_blocks", "matrix_apply_flops", "row_lcm"]


def row_lcm(row) -> int:
    """LCM of the denominators of one matrix row."""
    d = 1
    for v in row:
        d = lcm(d, Fraction(v).denominator)
    return d


@lru_cache(maxsize=4096)
def _compile_row(row: tuple) -> tuple[tuple[int, ...], int]:
    """``(integer row, lcm divisor)`` with ``row == integer_row / divisor``.

    Keyed by the row's values, so every operator built from the same
    points shares one compilation; bounded, since recovery interpolates
    from arbitrary surviving point subsets.
    """
    d = row_lcm(row)
    return tuple(int(Fraction(v) * d) for v in row), d


def apply_matrix_to_blocks(rows, blocks: list[LimbVector]) -> list[LimbVector]:
    """Compute ``rows @ blocks`` where entries of ``blocks`` are
    :class:`LimbVector` and ``rows`` is a rational matrix.

    Each output row is computed as an *integer* linear combination scaled
    by the row's denominator LCM, followed by one exact division — raising
    ``ValueError`` if the result is not integral (which on valid Toom-Cook
    data never happens and otherwise indicates corruption, e.g. an
    undetected soft fault).
    """
    if not blocks:
        raise ValueError("blocks must be non-empty")
    out: list[LimbVector] = []
    for row in rows:
        if len(row) != len(blocks):
            raise ValueError(
                f"row width {len(row)} does not match {len(blocks)} blocks"
            )
        coefs, d = _compile_row(tuple(row))
        terms = [(c, block) for c, block in zip(coefs, blocks) if c]
        if not terms:
            out.append(LimbVector.zeros(len(blocks[0]), blocks[0].base_bits))
            continue
        c, first = terms[0]
        acc = list(first.limbs) if c == 1 else [c * v for v in first.limbs]
        for c, block in terms[1:]:
            if block.base_bits != first.base_bits:
                raise ValueError("mismatched limb radices")
            if len(block) != len(acc):
                raise ValueError(
                    f"mismatched lengths {len(acc)} vs {len(block)}"
                )
            if c == 1:
                acc = [s + v for s, v in zip(acc, block.limbs)]
            elif c == -1:
                acc = [s - v for s, v in zip(acc, block.limbs)]
            else:
                acc = [s + c * v for s, v in zip(acc, block.limbs)]
        if d != 1:
            for i, s in enumerate(acc):
                q, r = divmod(s, d)
                if r:
                    raise ValueError(f"{s} is not divisible by {d}")
                acc[i] = q
        out.append(LimbVector._trusted(tuple(acc), first.base_bits))
    return out


def matrix_apply_flops(rows, block_len: int) -> int:
    """Word-operation cost model for :func:`apply_matrix_to_blocks`:
    two ops (multiply + accumulate) per nonzero coefficient per limb,
    plus one per limb for each row needing a final exact division."""
    per_limb = 0
    for row in rows:
        coefs, d = _compile_row(tuple(row))
        per_limb += 2 * sum(1 for c in coefs if c) + (d != 1)
    return per_limb * block_len
