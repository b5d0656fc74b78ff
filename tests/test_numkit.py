from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from octqft.numkit import (
    Matrix, Poly, Tensor, eliminate, is_squarefree,
    rat, rat_to_str, rational_roots, recurrence_from_sequences,
)
from oracles import (
    derivative, inverse_by_fractions, is_squarefree_by_fractions, nullspace_by_fractions,
    poly_divmod, poly_gcd, rank_by_fractions, rational_roots_by_fractions, recurrence_by_orders,
    solve_by_fractions,
)


def test_rat_roundtrip():
    assert rat("3") == 3
    assert rat("-5/2") == F(-5, 2)
    assert rat_to_str(F(4, 2)) == "2"
    assert rat_to_str(F(-1, 3)) == "-1/3"


def test_matrix_to_json_renders_each_entry_as_rat_to_str():
    values = [F(0), F(-3), F(7), F(-1, 3), F(22, 7), F(4, 2), F(-12345678901234567890, 11)]
    for rows, cols in ((1, 7), (7, 1), (2, 3), (3, 2)):
        m = Matrix(rows, cols, values[:rows * cols])
        out = m.to_json()
        assert [len(r) for r in out] == [cols] * rows
        assert [v for r in out for v in r] == [rat_to_str(v) for v in m.entries]
        assert Matrix.from_json(out) == m
    # empty shapes: no row, or rows with no entry
    assert Matrix.zeros(0, 3).to_json() == []
    assert Matrix.zeros(3, 0).to_json() == [[], [], []]


def test_tensor_indexing():
    t = Tensor.zeros([2, 3, 2])
    t[1, 2, 0] = F(5)
    assert t[1, 2, 0] == 5
    assert t[0, 0, 0] == 0
    assert t.nonzeros() == [(t.flat_index((1, 2, 0)), F(5))]
    assert t.unflatten(t.flat_index((1, 2, 0))) == (1, 2, 0)


def test_scalar_tensor():
    s = Tensor([], [F(7)])
    assert s.shape == ()
    assert s.entries == [F(7)]


def test_matrix_mul_oracle():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_rows() == [[2, 1], [4, 3]]
    assert (a * Matrix.identity(2)) == a
    assert a.trace() == 5


def test_kron_index_convention():
    # e_i x e_j lives at flat position i*dim2 + j
    a = Matrix.from_rows([[0, 1], [2, 0]])
    b = Matrix.from_rows([[3]])
    k = a.kron(b)
    assert k.to_rows() == [[0, 3], [6, 0]]
    c = Matrix.from_rows([[1, 0], [0, 1]]).kron(Matrix.from_rows([[0, 1], [1, 0]]))
    # block diagonal of swaps
    assert c.to_rows() == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_rank_and_inverse():
    a = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert a.rank() == 2
    assert a.inverse() is None
    b = Matrix.from_rows([[2, 1], [1, 1]])
    binv = b.inverse()
    assert (b * binv) == Matrix.identity(2)
    assert binv.to_rows() == [[1, -1], [-1, 2]]


def test_solve_and_nullspace():
    a = Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    x = a.solve([3, 5])
    assert x is not None
    assert [sum(r[j] * x[j] for j in range(3)) for r in a.to_rows()] == [3, 5]
    assert a.solve([1, 1]) is not None
    bad = Matrix.from_rows([[1, 1], [1, 1]])
    assert bad.solve([0, 1]) is None
    ns = a.nullspace()
    assert len(ns) == 1
    v = ns[0]
    assert [sum(r[j] * v[j] for j in range(3)) for r in a.to_rows()] == [0, 0]


small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=6)
# zero, small, and 30-digit numerators over 30-digit denominators
entries = st.just(F(0)) | small_rats | st.builds(
    F, st.integers(-10 ** 30, 10 ** 30), st.integers(10 ** 29, 10 ** 30))


@st.composite
def linear_systems(draw):
    """(a, b): a rectangular or square matrix, zero, singular or not, up to
    5 x 5 with 0 x n and n x 0 shapes, and one to three right-hand sides,
    in the column span of a or drawn freely, so often inconsistent."""
    rows = draw(st.integers(0, 5))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 5))
    zero = draw(st.integers(0, 7)) == 0
    a = [[F(0) if zero else draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.integers(0, 2)) == 0:      # a multiple of an earlier row
            f = draw(small_rats)
            a[i] = [f * x for x in a[draw(st.integers(0, i - 1))]]
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        x = [[draw(small_rats) for _ in range(m)] for _ in range(cols)]
        b = [[sum((r[j] * x[j][k] for j in range(cols)), F(0)) for k in range(m)] for r in a]
    else:
        b = [[draw(entries) for _ in range(m)] for _ in range(rows)]
    return Matrix(rows, cols, [v for r in a for v in r]), Matrix(rows, m, [v for r in b for v in r])


@given(linear_systems())
@example((Matrix.zeros(0, 3), Matrix.zeros(0, 2)))
@example((Matrix.zeros(3, 0), Matrix(3, 1, [F(0), F(1), F(0)])))
@example((Matrix.zeros(3, 0), Matrix.zeros(3, 1)))
@example((Matrix.zeros(0, 0), Matrix.zeros(0, 1)))
@settings(max_examples=200, deadline=None)
def test_elimination_matches_fraction_gauss_jordan(system):
    a, b = system
    pivots, d, reduced = eliminate(a.to_rows(), a.cols)
    assert d and len(reduced) == len(pivots) == a.rank() == rank_by_fractions(a)
    for c, row in zip(pivots, reduced):
        assert [row.get(k, 0) for k in pivots] == [d if k == c else 0 for k in pivots]
    assert a.nullspace() == nullspace_by_fractions(a)
    # several right-hand sides: the columns solved one at a time, and None
    # when any of them is inconsistent
    each = [solve_by_fractions(a, [b[i, j] for i in range(b.rows)]) for j in range(b.cols)]
    assert a.solve([b[i, 0] for i in range(b.rows)]) == each[0]
    want = None if None in each else Matrix(a.cols, b.cols, [v for r in zip(*each) for v in r])
    assert a.solve(b) == want
    if a.rows == a.cols:
        assert a.inverse() == inverse_by_fractions(a)


def test_poly_arith():
    p = Poly([1, 2, 1])        # (1+t)^2
    q = Poly([-1, 1])          # t-1
    assert (p * q).coeffs == (F(-1), F(-1), F(1), F(1))
    quo, rem = poly_divmod(p * q, p)
    assert quo == q and rem.is_zero()
    assert p(2) == 9
    assert derivative(p) == Poly([2, 2])
    assert Poly.from_roots([1, 2]) == Poly([2, -3, 1])


def test_poly_gcd_squarefree():
    p = Poly.from_roots([1, 1, 2])
    assert poly_gcd(p, derivative(p)) == Poly([-1, 1])
    assert not is_squarefree(p)
    assert is_squarefree(Poly.from_roots([1, 2, 3]))
    assert is_squarefree(Poly([5]))


def test_rational_roots_oracle():
    p = Poly.from_roots([F(1, 2), F(1, 2), -3, 0])
    roots, split = rational_roots(p)
    assert roots == [(F(-3), 1), (F(0), 1), (F(1, 2), 2)]
    assert split
    # t^2 + 1 has no rational roots
    roots, split = rational_roots(Poly([1, 0, 1]))
    assert roots == [] and not split
    # (t^2-2)(t-1): partial split
    roots, split = rational_roots(Poly.from_roots([1]) * Poly([-2, 0, 1]))
    assert roots == [(F(1), 1)] and not split


def test_recurrence_oracle():
    # 2^k and 3^k jointly satisfy (t-2)(t-3)
    s2 = [F(2) ** k for k in range(9)]
    s3 = [F(3) ** k for k in range(9)]
    p = recurrence_from_sequences([s2, s3], 4)
    assert p == Poly([6, -5, 1])
    # geometric alone: minimal order 1
    assert recurrence_from_sequences([s2], 4) == Poly([-2, 1])
    # all-zero convention
    assert recurrence_from_sequences([[F(0)] * 9], 4) == Poly.t()
    # no order-2 recurrence for k! windows
    fact = [F(1), F(1), F(2), F(6), F(24), F(120), F(720), F(5040), F(40320)]
    assert recurrence_from_sequences([fact], 4) is None


def test_recurrence_short_data_rejected():
    with pytest.raises(ValueError):
        recurrence_from_sequences([[F(1)] * 6], 3)


def test_recurrence_finite_support():
    # 0,0,1,0,0,... needs t^3
    s = [F(0), F(0), F(1)] + [F(0)] * 6
    assert recurrence_from_sequences([s], 4) == Poly([0, 0, 0, 1])


def _agree(seqs, max_order):
    """recurrence_from_sequences against the per-order oracle, ValueError
    included; returns the common answer."""
    try:
        want = recurrence_by_orders(seqs, max_order)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            recurrence_from_sequences(seqs, max_order)
        assert str(got.value) == str(exc)
        return exc
    assert recurrence_from_sequences(seqs, max_order) == want
    return want


def _recurrent(coeffs, start, n):
    """n terms of s[k + d] = -sum coeffs[i] * s[k + i], d = len(coeffs)."""
    s = list(start)
    while len(s) < n:
        s.append(-sum(c * x for c, x in zip(coeffs, s[len(s) - len(coeffs):])))
    return s[:n]


@st.composite
def recurrent_sequences(draw):
    """Sequences of one random rational recurrence of order <= 4 (a zero
    constant coefficient gives the root 0), of different lengths, each
    possibly with a run of leading zeros and possibly all zero."""
    max_order = draw(st.integers(1, 4))
    order = draw(st.integers(1, max_order))
    coeffs = draw(st.lists(small_rats, min_size=order, max_size=order))
    seqs = []
    for _ in range(draw(st.integers(1, 3))):
        n = 2 * max_order + 1 + draw(st.integers(0, 4))
        start = draw(st.lists(small_rats | st.just(F(0)), min_size=order, max_size=order))
        seqs.append(_recurrent(coeffs, start, n))
    return seqs, max_order


@given(recurrent_sequences())
@settings(max_examples=200, deadline=None)
def test_recurrence_matches_per_order_oracle(case):
    seqs, max_order = case
    assert _agree(seqs, max_order) is not None


@given(st.integers(1, 3), st.lists(small_rats, min_size=2, max_size=3),
       st.lists(st.lists(small_rats, min_size=3, max_size=3), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_recurrence_of_cancelling_combinations(max_order, lams, mix):
    # each sequence a combination of the same geometric sequences, so the
    # combinations can cancel some roots or all of them
    n = 2 * max_order + 3
    seqs = [[sum(c * lam ** k for c, lam in zip(row, lams)) for k in range(n)] for row in mix]
    _agree(seqs, max_order)


@given(st.integers(0, 4), st.lists(st.lists(small_rats | st.just(F(0)), min_size=1, max_size=12),
                                   min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_recurrence_of_arbitrary_data(max_order, seqs):
    # mostly no recurrence of order <= max_order, partly zero data, and the
    # too-short ValueError
    _agree(seqs, max_order)


def test_recurrence_edge_cases():
    assert _agree([[0, 0, 0, 0, 5]], 2) is None
    assert _agree([[0, 1, 2, 4, 8, 16, 32]], 3) == Poly([0, -2, 1])
    assert _agree([[0] * 5, [0, 0, 1, 0, 0]], 2) is None
    assert _agree([[0] * 7, [F(1, 3), 0, 0, 0, 0, 0, 0]], 3) == Poly([0, 1])
    assert _agree([[1, 2, 3]], 0) is None
    assert _agree([[0]], 0) == Poly.t()
    assert isinstance(_agree([], 2), ValueError)
    assert isinstance(_agree([[1, 2, 3, 4]], 2), ValueError)


@given(st.lists(small_rats, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_from_roots_has_those_roots(roots):
    p = Poly.from_roots(roots)
    for r in roots:
        assert p(r) == 0
    found, split = rational_roots(p)
    assert split
    assert sorted(r for r, m in found for _ in range(m)) == sorted(roots)


# roots that cover zero, repeated, negative and fractional values; factors
# with no rational root; and factors with 30-digit coefficients
ROOTS = st.sampled_from([0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 7), F(-9, 4)])
IRREDUCIBLE = st.sampled_from([
    Poly([1, 0, 1]), Poly([-2, 0, 1]), Poly([3, 1, 1]), Poly([F(1, 3), 0, 0, 1]),
    Poly([1, 10 ** 30 + 3, 1]), Poly([7, 10 ** 31 + 1, 0, 1]),
])
CONTENTS = st.sampled_from([1, -1, F(3, 5), F(10 ** 30 + 7, 10 ** 31 + 9), -(10 ** 33 + 1)])


@given(st.lists(ROOTS, max_size=5), st.lists(IRREDUCIBLE, max_size=2), CONTENTS)
@settings(max_examples=150, deadline=None)
def test_roots_and_squarefree_match_fraction_oracles(roots, factors, content):
    p = Poly.from_roots(roots).scale(content)
    for f in factors:
        p = p * f
    assert rational_roots(p) == rational_roots_by_fractions(p)
    assert is_squarefree(p) == is_squarefree_by_fractions(p)
    found, split = rational_roots(p)
    assert split == (not factors)
    assert sorted(r for r, m in found for _ in range(m)) == sorted(map(F, roots))


def test_roots_of_polynomial_with_large_coefficients():
    # (2t + 3)(t - 5)^2 (t^2 + (10^30 + 3) t + 1) times a 34-digit content:
    # 31-digit middle coefficients, while the primitive polynomial keeps a
    # small constant and leading coefficient
    p = (Poly.from_roots([F(-3, 2), 5, 5]) * Poly([1, 10 ** 30 + 3, 1])).scale(F(10 ** 33 + 1, 7))
    assert max(abs(c.numerator) for c in p.coeffs) > 10 ** 60
    expected = ([(F(-3, 2), 1), (F(5), 2)], False)
    assert rational_roots(p) == expected == rational_roots_by_fractions(p)
    assert not is_squarefree(p)
    assert is_squarefree(poly_divmod(p, Poly.from_roots([5]))[0])
