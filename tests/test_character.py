from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from octqft.character import (
    CharacterForm, ExprError, Good, Indeterminate, NotGood, SequenceTable, char_add, char_mul,
    char_scale, classify_rational, classify_table, eval_character, parse_rational_expr,
    rational_character, scale_transform, to_table,
)
from oracles import eval_character_by_fractions, rational_series_by_fractions, recurrence_by_orders


def tbl(fn, g_max=6, w_max=6):
    return SequenceTable.from_rows(
        [[fn(g, w) for w in range(w_max + 1)] for g in range(g_max + 1)])


def test_eval_and_poly_spots():
    f = CharacterForm.make(alpha_1=5, alpha_X=3, alpha_Y=2, alpha_Y2=3)
    assert eval_character(f, 0, 0) == 5
    assert eval_character(f, 1, 0) == 3
    assert eval_character(f, 0, 1) == 2
    assert eval_character(f, 0, 2) == 3
    assert eval_character(f, 1, 1) == 0
    assert eval_character(f, 2, 0) == 0


def test_form_value_evaluates_each_cell_once(monkeypatch):
    from octqft import character

    cells = []
    real = character.eval_character
    monkeypatch.setattr(character, "eval_character",
                        lambda form, g, w: cells.append((g, w)) or real(form, g, w))
    f = CharacterForm.make(exp_terms=[(2, 3, 1)])
    assert f.value(2, 1) == f.value(2, 1) == 12
    assert cells == [(2, 1)]
    # the memo takes no part in equality or hashing
    g = CharacterForm.make(exp_terms=[(2, 3, 1)])
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


def test_mu_zero_column_convention():
    f = CharacterForm.make(exp_terms=[(2, 0, 1)])
    assert eval_character(f, 3, 0) == 8
    assert eval_character(f, 3, 1) == 0


def test_make_merges_and_sorts():
    f = CharacterForm.make(exp_terms=[(2, 3, 1), (1, 1, 4), (2, 3, -1)])
    assert f.exp_terms == ((F(1), F(1), F(4)),)
    with pytest.raises(ValueError):
        CharacterForm.make(exp_terms=[(0, 1, 1)])


def test_char_ops_pointwise():
    a = CharacterForm.make(alpha_X=2, exp_terms=[(1, 2, 1)])
    b = CharacterForm.make(alpha_1=3, exp_terms=[(2, 1, 5)])
    s = char_add(a, b)
    m = char_mul(a, b)
    for g in range(5):
        for w in range(5):
            va, vb = eval_character(a, g, w), eval_character(b, g, w)
            assert eval_character(s, g, w) == va + vb
            assert eval_character(m, g, w) == va * vb
    assert char_scale(a, 0) == CharacterForm.make()


def test_classify_table_spec_examples():
    # constant-in-g geometric: f = 1/((1-X)(1-2Y))
    res = classify_table(tbl(lambda g, w: F(2) ** w), 1)
    assert isinstance(res, Good)
    assert res.form == CharacterForm.make(exp_terms=[(1, 2, 1)])
    # bad family 1/(1-3Y): rows g >= 2 vanish but remainder sticks out
    res = classify_table(tbl(lambda g, w: F(3) ** w if g == 0 else F(0)), 1)
    assert isinstance(res, NotGood)
    assert res.witness == (0, 3)
    # bad family X/(1-2Y)
    res = classify_table(tbl(lambda g, w: F(2) ** w if g == 1 else F(0)), 1)
    assert isinstance(res, NotGood)
    assert res.witness == (1, 1)


def test_classify_table_too_small():
    with pytest.raises(ValueError):
        classify_table(tbl(lambda g, w: F(0), 5, 5), 1)


def test_classify_two_terms_with_poly():
    f = CharacterForm.make(alpha_1=7, alpha_Y2=-2,
                           exp_terms=[(2, 3, 1), (4, 5, F(1, 2))])
    res = classify_table(to_table(f, 9, 9), 2)
    assert isinstance(res, Good)
    assert res.form == f


def test_classify_mu_zero_reconstruction():
    f = CharacterForm.make(alpha_Y=1, exp_terms=[(3, 0, 2), (3, 2, 1)])
    res = classify_table(to_table(f, 7, 7), 1)
    assert isinstance(res, Good)
    assert res.form == f


def test_classify_indeterminate_irrational():
    # rows g >= 2 behave like sqrt(2)-geometric: 2^(g/2) for even g
    def fn(g, w):
        if w == 0 and g % 2 == 0:
            return F(2) ** (g // 2)
        return F(0)
    res = classify_table(tbl(lambda g, w: fn(g, w), 8, 8), 2)
    assert isinstance(res, Indeterminate)


def test_classify_repeated_root_not_good():
    # g * 2^g grows with a repeated eigenvalue: not a finite exp sum
    res = classify_table(tbl(lambda g, w: g * F(2) ** g if w == 0 else F(0), 10, 10), 3)
    assert isinstance(res, NotGood)
    assert "repeated" in res.reason or "zero" in res.reason


def test_classify_rational_spec_examples():
    num, den = parse_rational_expr("1/((1-2*X)*(1-3*Y))")
    res = classify_rational(num, den)
    assert isinstance(res, Good)
    assert res.form == CharacterForm.make(exp_terms=[(2, 3, 1)])

    num, den = parse_rational_expr("5 + 3*X + 2*Y + 3*Y*Y")
    res = classify_rational(num, den)
    assert isinstance(res, Good)
    assert res.form == CharacterForm.make(alpha_1=5, alpha_X=3, alpha_Y=2, alpha_Y2=3)

    num, den = parse_rational_expr("1/(1-Y)")
    assert isinstance(classify_rational(num, den), NotGood)

    num, den = parse_rational_expr("X/(1-2*Y)")
    assert isinstance(classify_rational(num, den), NotGood)


def test_classify_rational_pure_x_denominator():
    num, den = parse_rational_expr("1/(1-2*X)")
    res = classify_rational(num, den)
    assert isinstance(res, Good)
    assert res.form == CharacterForm.make(exp_terms=[(2, 0, 1)])


def test_classify_rational_zero_constant_term():
    num, den = parse_rational_expr("1/X")
    with pytest.raises(ValueError):
        classify_rational(num, den)


def test_parse_rational_expr():
    num, den = parse_rational_expr("(1+X)/(1-Y) - 1")
    # (1+X)/(1-Y) - 1 = (X+Y)/(1-Y)
    from octqft.character import _bp_mul, _bp_add, _bp_neg
    # cross-multiplied equality: num*(1-Y) == (X+Y)*den
    lhs = _bp_mul(num, {(0, 0): F(1), (0, 1): F(-1)})
    rhs = _bp_mul({(1, 0): F(1), (0, 1): F(1)}, den)
    assert _bp_add(lhs, _bp_neg(rhs)) == {}
    with pytest.raises(ValueError):
        parse_rational_expr("1 + * 2")
    with pytest.raises(ValueError):
        parse_rational_expr("Z")
    with pytest.raises(ValueError):
        parse_rational_expr("1/(X-X)")


@pytest.mark.parametrize("text, message", [
    ("1 + * 2", "unexpected token '*' (at offset 4)"),
    ("Z", "unexpected character 'Z' (at offset 0)"),
    ("1/(X-X)", "division by zero expression (at offset 1)"),
    ("(1 - X", "expected ')' (at offset 6)"),
    ("(1 - X 3", "expected ')' (at offset 8)"),
    ("((X)(Y) + 2", "expected ')' (at offset 11)"),
    ("(2 ) )", "unexpected token ')' (at offset 5)"),
    ("", "unexpected end of expression (at offset 0)"),
    ("2 - ", "unexpected end of expression (at offset 4)"),
    ("X / 0", "division by zero expression (at offset 2)"),
])
def test_parse_rational_expr_errors(text, message):
    with pytest.raises(ExprError) as exc:
        parse_rational_expr(text)
    assert str(exc.value) == message
    assert exc.value.pos == int(message.rsplit(" ", 1)[1].rstrip(")"))


def test_scale_transform_law():
    f = CharacterForm.make(alpha_1=3, alpha_X=1, alpha_Y=2, alpha_Y2=5,
                           exp_terms=[(2, 3, 4)])
    for s in (F(2), F(1, 2), F(-1)):
        g = scale_transform(f, s)
        for gg in range(5):
            for ww in range(5):
                expect = s ** (-2 * (2 - 2 * gg - ww)) * eval_character(f, gg, ww)
                assert eval_character(g, gg, ww) == expect
    with pytest.raises(ValueError):
        scale_transform(f, 0)


def test_form_json_roundtrip():
    f = CharacterForm.make(alpha_Y=F(-1, 3), exp_terms=[(F(1, 2), -2, 7)])
    assert CharacterForm.from_json(f.to_json()) == f
    t = to_table(f, 3, 4)
    assert SequenceTable.from_json(t.to_json()) == t


small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
nonzero = small.filter(lambda x: x != 0)


@st.composite
def forms(draw):
    n = draw(st.integers(0, 3))
    seen = set()
    terms = []
    for _ in range(n):
        lam = draw(nonzero)
        mu = draw(small)
        if (lam, mu) in seen:
            continue
        seen.add((lam, mu))
        terms.append((lam, mu, draw(nonzero)))
    return CharacterForm.make(
        alpha_1=draw(small), alpha_X=draw(small), alpha_Y=draw(small),
        alpha_Y2=draw(small), exp_terms=terms)


@given(forms())
@settings(max_examples=40, deadline=None)
def test_roundtrip_recognition(f):
    res = classify_table(to_table(f, 10, 10), 3)
    assert isinstance(res, Good)
    assert res.form == f


@given(forms(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_eval_character_matches_fraction_sums(f, g, w):
    # forms() draws mu = 0 and negative lam, mu and coefficients
    assert eval_character(f, g, w) == eval_character_by_fractions(f, g, w)


def test_eval_character_edge_cells():
    f = CharacterForm.make(alpha_1=F(1, 3), alpha_X=-2, alpha_Y=F(5, 7), alpha_Y2=F(-1, 2),
                           exp_terms=[(F(-2, 3), 0, F(7, 5)), (F(1, 2), F(-3, 4), F(-1, 6)),
                                      (-3, F(5, 2), 2), (F(3, 7), 1, F(-4, 9))])
    cells = [(g, w) for g in range(6) for w in range(6)]
    # 0^0 = 1: a mu = 0 term counts in the w = 0 column only
    cells += [(g, 0) for g in (0, 7, 40)] + [(0, w) for w in (0, 1, 40)]
    # the depth of the deep-trace terms, and beyond
    cells += [(501, 0), (0, 501), (501, 3), (17, 501), (250, 250)]
    for g, w in cells:
        assert eval_character(f, g, w) == eval_character_by_fractions(f, g, w), (g, w)
    assert eval_character(CharacterForm.make(exp_terms=[(F(1, 2), 0, 3)]), 0, 0) == 3
    for g, w in ((-1, 0), (0, -1), (-3, -3)):
        with pytest.raises(ValueError) as got:
            eval_character(f, g, w)
        with pytest.raises(ValueError) as want:
            eval_character_by_fractions(f, g, w)
        assert str(got.value) == str(want.value)


@given(forms(), forms())
@settings(max_examples=25, deadline=None)
def test_product_matches_tables(a, b):
    m = char_mul(a, b)
    for g in range(6):
        for w in range(6):
            assert eval_character(m, g, w) == eval_character(a, g, w) * eval_character(b, g, w)


def _classify_table_per_column(table, r):
    """classify_table as it was before one Vandermonde inverse served every
    column: one exact solve per column w and a cell-by-cell remainder.  The
    oracle of test_classify_table_matches_per_column_solve."""
    from octqft.character import POLY_SUPPORT
    from octqft.numkit import ZERO, Matrix, is_squarefree, rat_to_str, rational_roots

    recurrence_from_sequences = recurrence_by_orders

    deep_rows = [table.values[g] for g in range(2, table.g_max + 1)]
    exp_terms = []
    if any(x for row in deep_rows for x in row):
        cols = [[row[w] for row in deep_rows] for w in range(table.w_max + 1)]
        q_x = recurrence_from_sequences(cols, r)
        if q_x is None:
            return NotGood(f"no common recurrence in the X direction of order <= {r}")
        if q_x(ZERO) == 0 or not is_squarefree(q_x):
            return NotGood("X-direction recurrence has a zero or repeated root")
        lams, split = rational_roots(q_x)
        if not split:
            return Indeterminate("X-direction spectrum does not split over the rationals")
        lams = [lam for lam, _ in lams]
        vand = Matrix.from_rows([[lam ** (2 + i) for lam in lams] for i in range(len(lams))])
        coef_rows = [vand.solve([cols[w][i] for i in range(len(lams))])
                     for w in range(table.w_max + 1)]
        for j, lam in enumerate(lams):
            c_seq = [coef_rows[w][j] for w in range(table.w_max + 1)]
            tail = c_seq[1:]
            if any(tail):
                q_y = recurrence_from_sequences([tail], r)
                if q_y is None:
                    return NotGood(
                        f"no recurrence in the Y direction of order <= {r} for lam = {rat_to_str(lam)}")
                if q_y(ZERO) == 0 or not is_squarefree(q_y):
                    return NotGood(
                        f"Y-direction recurrence has a zero or repeated root for lam = {rat_to_str(lam)}")
                mus, split = rational_roots(q_y)
                if not split:
                    return Indeterminate(
                        f"Y-direction spectrum does not split over the rationals for lam = {rat_to_str(lam)}")
                mus = [mu for mu, _ in mus]
                mvand = Matrix.from_rows([[mu ** (1 + i) for mu in mus] for i in range(len(mus))])
                alphas = mvand.solve([tail[i] for i in range(len(mus))])
            else:
                mus, alphas = [], []
            for mu, c in zip(mus, alphas):
                if c:
                    exp_terms.append((lam, mu, c))
            residue = c_seq[0] - sum(alphas, ZERO)
            if residue:
                exp_terms.append((lam, ZERO, residue))

    exp_form = CharacterForm.make(exp_terms=exp_terms)
    poly = {}
    for g in range(table.g_max + 1):
        for w in range(table.w_max + 1):
            rem = table.value(g, w) - eval_character_by_fractions(exp_form, g, w)
            if not rem:
                continue
            if (g, w) in POLY_SUPPORT:
                poly[(g, w)] = rem
            else:
                return NotGood(
                    "remainder after removing geometric terms is not supported on 1, X, Y, Y^2",
                    witness=(g, w))
    form = CharacterForm.make(
        poly.get((0, 0), ZERO), poly.get((1, 0), ZERO),
        poly.get((0, 1), ZERO), poly.get((0, 2), ZERO), exp_terms)
    for g in range(table.g_max + 1):
        for w in range(table.w_max + 1):
            if eval_character_by_fractions(form, g, w) != table.value(g, w):
                return NotGood("reconstructed form does not reproduce the table", witness=(g, w))
    return Good(form)


def test_classify_table_matches_per_column_solve(monkeypatch):
    import random

    from octqft import character
    from octqft.kfa import (
        invariant_table, kfa_sum, make_nonsemisimple_kfa, make_semisimple_kfa,
    )

    rng = random.Random(5)
    values = [F(v) for v in (1, 2, 3, -1, -2)] + [F(1, 2), F(-2, 3), F(1, 3)]
    cases = []
    # tables of seeded KFAs, at the size character_of reads
    for _ in range(6):
        k = make_semisimple_kfa(rng.choice((1, 2)), rng.choice(values))
        n = make_nonsemisimple_kfa(rng.choice((0, 1)), 1, rng.choice(values),
                                   rng.choice(values), rng.choice(values))
        for kk in (k, n, kfa_sum(k, n)):
            r = kk.closed.dim
            cases.append((invariant_table(kk, 2 * r + 4, 2 * r + 4), r))
    # tables classify_rational expands from generating functions
    real = character.classify_table
    monkeypatch.setattr(character, "classify_table",
                        lambda t, r: cases.append((t, r)) or real(t, r))
    for text in ("1/((1-2*X)*(1-3*Y))", "5 + 3*X + 2*Y + 3*Y*Y", "1/(1-Y)", "X/(1-2*Y)",
                 "1/(1-2*X)", "1/(1-X*Y)", "1/((1-X)*(1-X))", "2 + X/((1-X)*(1-2*Y))"):
        classify_rational(*parse_rational_expr(text))
    monkeypatch.setattr(character, "classify_table", real)
    # seeded closed forms, each also with one cell perturbed
    for _ in range(25):
        terms = [(rng.choice(values), rng.choice(values + [F(0)]), rng.choice(values))
                 for _ in range(rng.randint(0, 3))]
        f = CharacterForm.make(rng.choice(values), rng.choice(values), 0, rng.choice(values),
                               terms)
        t = to_table(f, 10, 10)
        cases.append((t, 3))
        rows = [list(row) for row in t.values]
        rows[rng.randint(0, 10)][rng.randint(0, 10)] += 1
        cases.append((SequenceTable.from_rows(rows), 3))
    # the NotGood and Indeterminate tables of the tests above
    cases += [
        (tbl(lambda g, w: F(3) ** w if g == 0 else F(0)), 1),
        (tbl(lambda g, w: F(2) ** w if g == 1 else F(0)), 1),
        (tbl(lambda g, w: F(2) ** (g // 2) if w == 0 and g % 2 == 0 else F(0), 8, 8), 2),
        (tbl(lambda g, w: g * F(2) ** g if w == 0 else F(0), 10, 10), 3),
    ]
    kinds = set()
    for table, r in cases:
        got = classify_table(table, r)
        assert got.to_json() == _classify_table_per_column(table, r).to_json()
        kinds.add(type(got))
    assert kinds == {Good, NotGood, Indeterminate}


series_coeff = st.fractions(min_value=-7, max_value=7, max_denominator=5)
series_poly = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), series_coeff, max_size=5)


@given(series_poly, series_poly,
       st.sampled_from([F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4), F(1), F(-1)]),
       st.lists(st.tuples(st.integers(0, 44), st.integers(0, 44)), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rational_character_matches_fraction_series(num, den, d00, cells):
    # den(0, 0) mostly not +-1, fractional coefficients everywhere, cells read
    # in any order down to depth 44, so the fill extends boxes already filled
    den = {**den, (0, 0): d00}
    chi = rational_character(num, den)
    g_max = max(g for g, _ in cells)
    w_max = max(w for _, w in cells)
    want = rational_series_by_fractions(num, den, g_max, w_max)
    for g, w in cells:
        assert chi.value(g, w) == want[g][w]
    for g in range(g_max + 1):
        assert [chi.value(g, w) for w in range(w_max + 1)] == want[g]


def test_rational_character_deep_fractional_denominator():
    num = {(0, 0): F(1, 3), (2, 1): F(-5, 7)}
    den = {(0, 0): F(-6, 5), (1, 0): F(1, 2), (0, 1): 3, (1, 1): F(-2, 9)}
    chi = rational_character(num, den)
    want = rational_series_by_fractions(num, den, 40, 40)
    assert chi.value(40, 40) == want[40][40]
    assert all(chi.value(g, w) == want[g][w] for g in range(41) for w in range(41))
    with pytest.raises(ValueError):
        chi.value(-1, 0)
    with pytest.raises(ValueError):
        rational_character(num, {(1, 0): 1})
