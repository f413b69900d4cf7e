"""Toom-Cook-k with Lazy Interpolation (Algorithm 2; Bermudo Mera et al.).

The inputs are split into ``k**l`` digits *once*, up front; every
recursive level works blockwise on limb vectors and all carry resolution
is deferred to a single pass at the very end.  As Claim 2.1 shows, the
depth-``l`` run is exactly an ``l``-variate polynomial multiplication over
the evaluation-point grid ``S^l`` — which is what makes the parallel
BFS-DFS traversal (and the polynomial fault-tolerance code) compose
cleanly with it.

Because that recursion is exact, its result is the acyclic convolution of
the two digit vectors: :meth:`LazyToomCook.multiply_blocks` computes it in
one Kronecker-substitution product and charges the recursion's flops from
a memoized cost recurrence.  The literal recursion stays as the private
differential oracle ``_multiply_blocks_reference``.
"""

from __future__ import annotations

from repro.bigint.blockops import apply_matrix_to_blocks, matrix_apply_flops
from repro.bigint.evalpoints import EvalPoint, toom_points
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import toom_operators
from repro.bigint.split import lazy_depth, split_lazy
from repro.util.validation import check_positive

__all__ = ["LazyToomCook"]

#: Leaf flop charges by value, ``(k, points, depth) -> flops``: two
#: instances share an entry exactly when their recursions are identical.
_LEAF_FLOPS: dict[tuple[int, tuple[EvalPoint, ...], int], int] = {}


class LazyToomCook:
    """Sequential Toom-Cook-k with lazy interpolation.

    The recursion depth is chosen automatically from the operand size
    unless ``depth`` is forced; each leaf multiplies one pair of digits
    (single machine words, one flop each — Algorithm 2 line 12).
    """

    def __init__(
        self,
        k: int,
        threshold_bits: int = 64,
        points: list[EvalPoint] | None = None,
    ):
        if k < 2:
            raise ValueError("Toom-Cook requires k >= 2")
        check_positive("threshold_bits", threshold_bits)
        self.k = k
        self.threshold_bits = threshold_bits
        self.points = list(points) if points is not None else toom_points(k)
        self.U, self.V, self.W_T = toom_operators(k, self.points)

    def multiply(self, a: int, b: int, depth: int | None = None) -> tuple[int, int]:
        """Return ``(a*b, flops)``."""
        sign = -1 if (a < 0) != (b < 0) else 1
        a, b = abs(a), abs(b)
        if a == 0 or b == 0:
            return 0, 0
        l = lazy_depth(a, b, self.k, self.threshold_bits) if depth is None else depth
        if l < 0:
            raise ValueError("depth must be non-negative")
        va, vb, base_bits = split_lazy(a, b, self.k, l)
        c, flops = self.multiply_blocks(va, vb, l)
        product = c.to_int()
        flops += len(c)  # final carry pass (line 16)
        return sign * product, flops

    def multiply_blocks(
        self, va: LimbVector, vb: LimbVector, depth: int
    ) -> tuple[LimbVector, int]:
        """Blockwise product of two ``k**depth``-limb vectors.

        Returns the ``2*k**depth - 1``-limb product polynomial (carries
        unresolved) and the flop count.  This is the code path the
        parallel algorithm runs at its leaves.

        The depth-``depth`` recursion computes exactly the acyclic
        convolution of its inputs (Claim 2.1), so the values come from
        one Kronecker-substitution product; the flops are the
        recursion's charge, from ``_leaf_flops``.
        """
        self._check_leaf(va, vb, depth)
        return va.convolve(vb), self._leaf_flops(depth)

    def _leaf_flops(self, depth: int) -> int:
        """Flops the depth-``depth`` blockwise recursion charges.

        The cost recurrence of Algorithm 2: ``F(0) = 1`` and ``F(d)`` is
        the level's evaluation, interpolation and overlap-add charge plus
        one ``F(d-1)`` per evaluation point.  Memoized on
        ``(k, points, depth)`` — the values the charge depends on.
        """
        key = (self.k, tuple(map(tuple, self.points)), depth)
        flops = _LEAF_FLOPS.get(key)
        if flops is None:
            if depth == 0:
                flops = 1
            else:
                block_len = self.k ** (depth - 1)
                child_len = 2 * block_len - 1
                flops = (
                    matrix_apply_flops(self.U.rows, block_len)
                    + matrix_apply_flops(self.V.rows, block_len)
                    + len(self.U.rows) * self._leaf_flops(depth - 1)
                    + matrix_apply_flops(self.W_T.rows, child_len)
                    + len(self.W_T.rows) * child_len
                )
            _LEAF_FLOPS[key] = flops
        return flops

    def _check_leaf(self, va: LimbVector, vb: LimbVector, depth: int) -> None:
        n = self.k**depth
        if len(va) != n or len(vb) != n:
            raise ValueError(f"expected {n} limbs, got {len(va)} and {len(vb)}")

    def _multiply_blocks_reference(
        self, va: LimbVector, vb: LimbVector, depth: int
    ) -> tuple[LimbVector, int]:
        """The literal blockwise recursion of Algorithm 2 — the
        differential oracle :meth:`multiply_blocks` is tested against.

        Evaluates at every point (redundant points included) and
        interpolates from the first ``2k-1``, which define ``W^T``.
        """
        k = self.k
        self._check_leaf(va, vb, depth)
        if depth == 0:
            return LimbVector([va[0] * vb[0]], va.base_bits), 1

        blocks_a = va.split_blocks(k)
        blocks_b = vb.split_blocks(k)
        block_len = k ** (depth - 1)

        # Blockwise evaluation (Algorithm 2 lines 6-7).
        a_evals = apply_matrix_to_blocks(self.U.rows, blocks_a)
        b_evals = apply_matrix_to_blocks(self.V.rows, blocks_b)
        flops = matrix_apply_flops(self.U.rows, block_len)
        flops += matrix_apply_flops(self.V.rows, block_len)

        # Recursive pointwise products (lines 8-14).
        c_evals: list[LimbVector] = []
        for ea, eb in zip(a_evals, b_evals):
            c, fl = self._multiply_blocks_reference(ea, eb, depth - 1)
            c_evals.append(c)
            flops += fl

        # Blockwise interpolation (line 15).
        c_evals = c_evals[: len(self.W_T.rows)]
        coeffs = apply_matrix_to_blocks(self.W_T.rows, c_evals)
        flops += matrix_apply_flops(self.W_T.rows, len(c_evals[0]))

        # Overlap-add reassembly: result[m*k^(d-1) + t] += coeffs[m][t].
        out = [0] * (2 * k**depth - 1)
        for m, block in enumerate(coeffs):
            off = m * block_len
            for t, v in enumerate(block):
                out[off + t] += v
        flops += len(coeffs) * len(coeffs[0])
        return LimbVector(out, va.base_bits), flops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyToomCook(k={self.k}, threshold_bits={self.threshold_bits})"
