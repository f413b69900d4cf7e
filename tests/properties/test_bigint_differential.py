"""Differential properties for the exact multiplication engines.

Every Toom-Cook variant must agree with the schoolbook reference (and
native integer multiplication) on arbitrary operands, including the
unbalanced split; the multivariate polynomial algebra must satisfy the
homomorphism its evaluation matrices assume.  The fast local kernels —
the Kronecker-substitution leaf with its memoized flop charge, and the
compiled operator rows — must agree exactly with their references.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigint.blockops import apply_matrix_to_blocks, matrix_apply_flops
from repro.bigint.evalpoints import extended_toom_points
from repro.bigint.lazy import LazyToomCook
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import toom_operators
from repro.bigint.multivariate import MultiPoly, monomials
from repro.bigint.schoolbook import schoolbook_multiply
from repro.bigint.toomcook import ToomCook
from repro.bigint.unbalanced import UnbalancedToomCook

operands = st.integers(min_value=-(1 << 600), max_value=1 << 600)
small_coeff = st.integers(min_value=-(1 << 32), max_value=1 << 32)


class TestToomCookDifferential:
    @given(operands, operands, st.integers(min_value=2, max_value=5))
    @settings(max_examples=40)
    def test_toom_k_matches_schoolbook(self, a, b, k):
        product, flops = ToomCook(k, threshold_bits=32).multiply(a, b)
        reference, _ = schoolbook_multiply(a, b, word_bits=16)
        assert product == reference == a * b
        assert flops >= 0

    @given(
        operands,
        operands,
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40)
    def test_unbalanced_matches_schoolbook(self, a, b, k1, k2):
        if k1 < k2:
            k1, k2 = k2, k1
        product, _ = UnbalancedToomCook(k1, k2, threshold_bits=32).multiply(a, b)
        assert product == schoolbook_multiply(a, b, word_bits=16)[0] == a * b

    @given(operands, st.integers(min_value=2, max_value=5))
    @settings(max_examples=20)
    def test_squaring_agrees(self, a, k):
        assert ToomCook(k, threshold_bits=32).multiply(a, a)[0] == a * a


@st.composite
def poly_pairs(draw):
    """Two random dense polynomials over the same ``Poly_{r,l}`` basis."""
    r = draw(st.integers(min_value=2, max_value=3))
    l = draw(st.integers(min_value=1, max_value=3))
    size = len(monomials(r, l))
    va = draw(st.lists(small_coeff, min_size=size, max_size=size))
    vb = draw(st.lists(small_coeff, min_size=size, max_size=size))
    return r, l, MultiPoly.from_vector(va, r, l), MultiPoly.from_vector(vb, r, l)


def convolve(a: MultiPoly, b: MultiPoly) -> dict:
    """Independent reference product: explicit exponent-wise convolution."""
    out: dict = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestMultivariateDifferential:
    @given(poly_pairs())
    @settings(max_examples=40)
    def test_product_matches_convolution(self, case):
        _r, _l, a, b = case
        assert (a * b).coeffs == convolve(a, b)

    @given(poly_pairs())
    @settings(max_examples=40)
    def test_product_fits_doubled_degree(self, case):
        r, _l, a, b = case
        assert (a * b).fits(2 * r - 1)

    @given(poly_pairs(), st.data())
    @settings(max_examples=40)
    def test_homogeneous_evaluation_is_multiplicative(self, case, data):
        # The identity the per-level evaluation matrices rely on:
        # evaluating homogenized to degree r-1 each, the product
        # evaluates (homogenized to 2r-2) to the product of evaluations.
        r, l, a, b = case
        point = [
            (
                data.draw(st.integers(min_value=-5, max_value=5)),
                data.draw(st.integers(min_value=1, max_value=5)),
            )
            for _ in range(l)
        ]
        lhs = (a * b).evaluate(point, 2 * r - 1)
        rhs = a.evaluate(point, r) * b.evaluate(point, r)
        assert lhs == rhs

    @given(poly_pairs())
    @settings(max_examples=20)
    def test_vector_round_trip(self, case):
        r, l, a, _b = case
        assert MultiPoly.from_vector(a.to_vector(r), r, l) == a


#: Limbs far above the radix (the leaf sees evaluations, not digits).
limb = st.one_of(
    st.integers(min_value=-(1 << 16), max_value=1 << 16),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
)
BASE_BITS = 16


def limb_vectors(n: int):
    return st.one_of(
        st.just([0] * n), st.lists(limb, min_size=n, max_size=n)
    ).map(lambda v: LimbVector(v, BASE_BITS))


@st.composite
def leaf_operands(draw, k: int, depth: int):
    """A leaf algorithm (standard or redundant points) and two
    ``k**depth``-limb operands."""
    f = draw(st.integers(min_value=0, max_value=2))
    n = k**depth
    return (
        LazyToomCook(k, points=extended_toom_points(k, f)),
        draw(limb_vectors(n)),
        draw(limb_vectors(n)),
    )


def schoolbook_convolution(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestLeafKernelDifferential:
    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=6)
    def test_fast_leaf_matches_reference(self, k, depth, data):
        algo, va, vb = data.draw(leaf_operands(k, depth))
        fast = algo.multiply_blocks(va, vb, depth)
        reference = algo._multiply_blocks_reference(va, vb, depth)
        assert fast == reference
        assert fast[0].to_int() == va.to_int() * vb.to_int()

    @given(
        st.integers(min_value=1, max_value=12).flatmap(limb_vectors),
        st.integers(min_value=1, max_value=12).flatmap(limb_vectors),
    )
    @settings(max_examples=60)
    def test_convolve_matches_schoolbook(self, va, vb):
        assert va.convolve(vb).limbs == schoolbook_convolution(va.limbs, vb.limbs)

    def test_memo_never_shared_across_algorithms(self):
        # The charge is memoized by value.  Algorithms that differ in k
        # or points must each get their own recursion's charge at the
        # same depth — also when a new instance reuses a freed one's id.
        depth = 2
        variants = [(2, 0), (2, 1), (3, 0), (3, 2), (2, 0)]
        charges = {}
        for k, f in variants:
            algo = LazyToomCook(k, points=extended_toom_points(k, f))
            va = LimbVector(range(1, k**depth + 1), BASE_BITS)
            _, flops = algo.multiply_blocks(va, va, depth)
            _, want = algo._multiply_blocks_reference(va, va, depth)
            assert flops == want
            charges.setdefault((k, f), set()).add(flops)
            del algo
        assert all(len(c) == 1 for c in charges.values())
        assert len({c.pop() for c in charges.values()}) == len(charges)


def fraction_rows_reference(rows, blocks):
    """``rows @ blocks`` limb by limb over Fraction; ``None`` when some
    entry is not integral."""
    out = []
    for row in rows:
        limbs = [
            sum(Fraction(c) * block[t] for c, block in zip(row, blocks))
            for t in range(len(blocks[0]))
        ]
        if any(v.denominator != 1 for v in limbs):
            return None
        out.append(tuple(int(v) for v in limbs))
    return out


@st.composite
def operator_cases(draw):
    """An operator (evaluation, interpolation or random rational) and
    blocks it applies to."""
    k = draw(st.integers(min_value=2, max_value=5))
    f = draw(st.integers(min_value=0, max_value=2))
    u, _v, w_t = toom_operators(k, extended_toom_points(k, f))
    width = draw(st.integers(min_value=1, max_value=6))
    choice = draw(st.sampled_from(("U", "W_T", "random")))
    if choice == "U":
        rows = u.rows
    elif choice == "W_T":
        rows = w_t.rows
    else:
        entry = st.builds(
            Fraction,
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=1, max_value=6),
        )
        ncols = draw(st.integers(min_value=1, max_value=5))
        rows = draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols),
                min_size=1,
                max_size=5,
            )
        )
    blocks = [draw(limb_vectors(width)) for _ in range(len(rows[0]))]
    return rows, blocks


class TestCompiledRowsDifferential:
    @given(operator_cases())
    @settings(max_examples=80)
    def test_compiled_rows_match_fraction_reference(self, case):
        rows, blocks = case
        want = fraction_rows_reference(rows, blocks)
        if want is None:
            with pytest.raises(ValueError):
                apply_matrix_to_blocks(rows, blocks)
        else:
            got = apply_matrix_to_blocks(rows, blocks)
            assert [b.limbs for b in got] == want

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    @settings(max_examples=40)
    def test_non_integral_combination_raises(self, d, nblocks, data):
        # Row [1/d, ..., 1/d] on blocks whose first-limb sum is not a
        # multiple of d: the corruption signal core/soft_faults.py uses.
        blocks = [data.draw(limb_vectors(3)) for _ in range(nblocks)]
        total = sum(b[0] for b in blocks)
        r = data.draw(st.integers(min_value=1, max_value=d - 1))
        shift = r - total % d
        first = blocks[0]
        blocks[0] = LimbVector((first[0] + shift, *first.limbs[1:]), BASE_BITS)
        rows = [[Fraction(1, d)] * nblocks]
        with pytest.raises(ValueError, match="not divisible"):
            apply_matrix_to_blocks(rows, blocks)

    @given(operator_cases(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=40)
    def test_flop_model_matches_row_definition(self, case, block_len):
        rows, _blocks = case
        want = 0
        for row in rows:
            want += 2 * sum(1 for v in row if v) * block_len
            lcm_needed = any(Fraction(v).denominator != 1 for v in row)
            want += block_len if lcm_needed else 0
        assert matrix_apply_flops(rows, block_len) == want
