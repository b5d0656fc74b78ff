import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from octqft.numkit import Matrix, Tensor, ONE
from octqft.frobenius import AxiomError, ConsistencyError, FrobeniusAlgebra, make_A, make_F
from octqft.character import CharacterForm, char_mul, classify_table, scale_transform, to_table, Good
from octqft.kfa import (
    KFA,
    IrrationalSpectrumError,
    UnsupportedCaseError,
    character_of,
    check_kfa,
    interpolated_gl_character,
    invariant_table,
    kfa_product,
    kfa_sum,
    make_closed_only,
    make_nonsemisimple_kfa,
    make_semisimple_kfa,
    open_closed_projectors,
    scale_kfa,
    structural_endos,
)
from oracles import frobenius_json_by_index, invariant_rows


def test_semisimple_shapes_and_axioms():
    k = make_semisimple_kfa(2, 1)
    assert k.open.dim == 4
    assert k.closed.dim == 1
    assert [k.zipper[i, 0] for i in range(4)] == [1, 0, 0, 1]
    rep = check_kfa(k)
    assert rep.valid
    assert rep.first_violation is None


def test_semisimple_degenerate_n():
    k = make_semisimple_kfa(0, 1)
    assert k.open.dim == 0
    assert check_kfa(k).valid
    t = invariant_table(k, 3, 3)
    for g in range(4):
        for w in range(4):
            assert t.value(g, w) == (1 if w == 0 else 0)


def test_semisimple_fractional_alpha():
    assert check_kfa(make_semisimple_kfa(3, F(1, 2))).valid


def test_broken_duality_flagged():
    k = make_semisimple_kfa(2, 1)
    bad = KFA(k.open, k.closed, k.zipper, k.cozipper.scale(2))
    rep = check_kfa(bad)
    assert not rep.valid
    assert not rep.flags["duality"]
    assert rep.first_violation.startswith("duality")


def test_nonsemisimple_example():
    k = make_nonsemisimple_kfa(1, 1, 1, 0, 0)
    assert k.closed.counit[1] == F(1, 3)  # beta = 1/3
    assert check_kfa(k).valid


def test_nonsemisimple_general_params():
    k = make_nonsemisimple_kfa(0, 2, 2, 3, 7)
    assert k.closed.counit[1] == 2  # beta = 4/2
    assert check_kfa(k).valid


def test_nonsemisimple_domain_errors():
    with pytest.raises(ValueError):
        make_nonsemisimple_kfa(1, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        make_nonsemisimple_kfa(1, 1, 0, 0, 0)


def test_closed_only():
    k = make_closed_only(make_F(1, 1))
    assert check_kfa(k).valid
    t = invariant_table(k, 3, 3)
    for g in range(4):
        for w in range(4):
            assert t.value(g, w) == (1 if w == 0 else 0)
    assert check_kfa(make_closed_only(make_A(2, 1, 0))).valid
    with pytest.raises(AxiomError):
        make_closed_only(make_F(2, 1))


def test_semisimple_closed_form():
    for n, alpha in ((2, F(2)), (3, F(1, 2))):
        k = make_semisimple_kfa(n, alpha)
        t = invariant_table(k, 5, 5)
        for g in range(6):
            for w in range(6):
                assert t.value(g, w) == alpha ** (2 - 2 * g - w) * n**w


def test_nonsemisimple_closed_form():
    k = make_nonsemisimple_kfa(1, 1, 1, 2, 5)
    t = invariant_table(k, 5, 5)
    assert t.value(0, 0) == 5
    assert t.value(1, 0) == 3
    assert t.value(0, 1) == 2
    assert t.value(0, 2) == 3
    assert t.value(1, 1) == 0
    for g in range(6):
        for w in range(6):
            if (g, w) not in ((0, 0), (1, 0), (0, 1), (0, 2)):
                assert t.value(g, w) == 0


def test_sum_and_product_tables():
    k1 = make_semisimple_kfa(2, 1)
    k2 = make_nonsemisimple_kfa(1, 1, 1, 2, 5)
    t1 = invariant_table(k1, 4, 4)
    t2 = invariant_table(k2, 4, 4)
    ts = invariant_table(kfa_sum(k1, k2), 4, 4)
    tp = invariant_table(kfa_product(k1, k2), 4, 4)
    for g in range(5):
        for w in range(5):
            assert ts.value(g, w) == t1.value(g, w) + t2.value(g, w)
            assert tp.value(g, w) == t1.value(g, w) * t2.value(g, w)
    assert check_kfa(kfa_sum(k1, k2)).valid
    assert check_kfa(kfa_product(k1, k2)).valid


def test_sum_with_empty_summand():
    k = make_nonsemisimple_kfa(1, 2, 1, 1, 1)
    zero = make_closed_only(make_F(0, 1))
    assert check_kfa(zero).valid
    t1 = invariant_table(k, 3, 3)
    t2 = invariant_table(kfa_sum(k, zero), 3, 3)
    assert t1 == t2


def test_structural_endos_semisimple():
    for n, alpha in ((2, F(1)), (3, F(2))):
        e = structural_endos(make_semisimple_kfa(n, alpha))
        assert e.handle == Matrix.from_rows([[1 / alpha**2]])
        assert e.window == Matrix.from_rows([[F(n) / alpha]])
        assert e.hole == Matrix.identity(n * n).scale(F(n) / alpha)


def test_structural_endos_closed_only():
    e = structural_endos(make_closed_only(make_F(1, 1)))
    assert e.handle == Matrix.from_rows([[1]])
    assert e.window == Matrix.from_rows([[0]])


def test_structural_endos_nilpotent_handle():
    e = structural_endos(make_nonsemisimple_kfa(1, 1, 1, 0, 0))
    g = e.handle
    assert not g.is_zero()
    assert (g * g).is_zero()


def _sums_over_nonzeros(fa):
    """The pairing, the copairing and the loop (product after coproduct) of
    fa, summed entry by entry over its nonzero structure constants."""
    n = fa.dim
    pairing, copairing, loop = {}, {}, {}
    for (c, a, b), v in fa.product.iter_nonzeros():
        pairing[a, b] = pairing.get((a, b), 0) + fa.counit[c] * v
    for (a, b, c), v in fa.coproduct.iter_nonzeros():
        copairing[a, b] = copairing.get((a, b), 0) + fa.unit[c] * v
        for (d, a2, b2), v2 in fa.product.iter_nonzeros():
            if (a2, b2) == (a, b):
                loop[d, c] = loop.get((d, c), 0) + v2 * v
    return [Matrix.from_rows([[m.get((i, j), 0) for j in range(n)] for i in range(n)])
            for m in (pairing, copairing, loop)]


def test_structure_matrices_match_sums_over_nonzeros():
    # sectors built by make_F, make_A, direct_sum, tensor_product and scaling
    k1 = make_semisimple_kfa(2, 3)
    k2 = make_nonsemisimple_kfa(1, 2, 3, 1, 2)
    for k in (k1, k2, kfa_sum(k1, k2), kfa_product(k1, k2), scale_kfa(k2, F(1, 3))):
        e = structural_endos(k)
        for fa, loop in ((k.closed, e.handle), (k.open, e.hole)):
            assert [fa.pairing(), fa.copairing(), loop] == _sums_over_nonzeros(fa)


def test_invariant_table_cross_check_catches_corruption():
    k = make_semisimple_kfa(2, 1)
    bad = KFA(k.open, k.closed, k.zipper, k.cozipper.scale(2))
    with pytest.raises(ConsistencyError):
        invariant_table(bad, 3, 3)


def test_character_semisimple():
    form = character_of(make_semisimple_kfa(2, 1))
    assert form == CharacterForm.make(exp_terms=[(F(1), F(2), F(1))])


def test_character_nonsemisimple():
    form = character_of(make_nonsemisimple_kfa(1, 1, 1, 0, 0))
    assert form == CharacterForm.make(alpha_X=3, alpha_Y2=3)


def test_character_of_product_is_hadamard():
    k1 = make_semisimple_kfa(2, 1)
    k2 = make_nonsemisimple_kfa(1, 1, 1, 0, 0)
    form = character_of(kfa_product(k1, k2))
    assert form == char_mul(character_of(k1), character_of(k2))
    assert form == CharacterForm.make(alpha_X=3, alpha_Y2=12)


def test_character_irrational_spectrum():
    # multiplication by 2x on Q[x]/(x^2 - 2) has eigenvalues +-2*sqrt(2)
    prod = Tensor.from_entries(
        (2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (0, 1, 1): 2}
    )
    unit = Tensor.from_entries((2,), {(0,): 1})
    counit = Tensor.from_entries((2,), {(1,): 1})
    from octqft.frobenius import frobenius_from_form

    fa = frobenius_from_form(prod, unit, counit)
    k = make_closed_only(fa)
    assert check_kfa(k).valid
    with pytest.raises(IrrationalSpectrumError):
        character_of(k)


def test_interpolated_character():
    assert interpolated_gl_character(3, 1) == CharacterForm.make(exp_terms=[(F(1), F(3), F(1))])
    form = interpolated_gl_character(F(7, 2), 1)
    assert form == CharacterForm.make(exp_terms=[(F(1), F(7, 2), F(1))])
    verdict = classify_table(to_table(form, 7, 7), 1)
    assert isinstance(verdict, Good) and verdict.form == form
    assert interpolated_gl_character(3, 1) == character_of(make_semisimple_kfa(3, 1))
    assert interpolated_gl_character(2, F(1, 2)) == character_of(make_semisimple_kfa(2, F(1, 2)))
    with pytest.raises(ValueError):
        interpolated_gl_character(3, 0)


def test_scale_identity():
    k = make_nonsemisimple_kfa(1, 1, 1, 2, 3)
    assert scale_kfa(k, 1) == k
    with pytest.raises(ValueError):
        scale_kfa(k, 0)


def test_scale_law():
    for k in (make_semisimple_kfa(2, 1), make_nonsemisimple_kfa(1, 2, 1, 2, 3)):
        t = invariant_table(k, 4, 4)
        for s in (F(2), F(1, 2), F(-1)):
            ks = scale_kfa(k, s)
            assert check_kfa(ks).valid
            ts = invariant_table(ks, 4, 4)
            for g in range(5):
                for w in range(5):
                    assert ts.value(g, w) == s ** (-2 * (2 - 2 * g - w)) * t.value(g, w)


def test_scale_semisimple_example():
    ks = scale_kfa(make_semisimple_kfa(2, 1), 2)
    t = invariant_table(ks, 4, 4)
    for g in range(5):
        for w in range(5):
            assert t.value(g, w) == F(2) ** w * F(4) ** (2 * g + w - 2)


def test_scale_character_transform():
    k = make_nonsemisimple_kfa(1, 1, 1, 2, 3)
    for s in (F(2), F(-1)):
        assert character_of(scale_kfa(k, s)) == scale_transform(character_of(k), s)


def test_projectors_nilpotent_example():
    ps = open_closed_projectors(make_nonsemisimple_kfa(1, 1, 1, 0, 0))
    assert ps.ranks == {"P_UI": 1, "P_NI": 1, "P_V": 1, "P_US": 1, "P_NS": 1, "P_1": 1, "P_W": 0}

    def unit_matrix(n, i):
        m = Matrix.zeros(n, n)
        m[i, i] = ONE
        return m

    assert ps.projectors["P_UI"] == unit_matrix(3, 0)
    assert ps.projectors["P_NI"] == unit_matrix(3, 1)
    assert ps.projectors["P_V"] == unit_matrix(3, 2)
    assert ps.projectors["P_US"] == unit_matrix(3, 0)
    assert ps.projectors["P_NS"] == unit_matrix(3, 1)
    assert ps.projectors["P_1"] == unit_matrix(3, 2)
    assert ps.projectors["P_W"].is_zero()


def test_projectors_unsupported_cases():
    with pytest.raises(UnsupportedCaseError):
        open_closed_projectors(make_semisimple_kfa(2, 1))
    # purely polynomial character but with zero window-squared coefficient
    with pytest.raises(UnsupportedCaseError):
        open_closed_projectors(make_closed_only(make_A(1, 1, 0)))


def test_kfa_json_roundtrip():
    k = make_nonsemisimple_kfa(1, 1, 1, 2, 3)
    assert KFA.from_json(k.to_json()) == k
    z = make_closed_only(make_A(1, 2, 0))
    assert KFA.from_json(z.to_json()) == z


def test_kfa_from_json_decodes_each_string_once_per_document():
    k = KFA.from_json(make_semisimple_kfa(2, F(1, 2)).to_json())
    # "2" = 1/alpha fills the open coproduct and the cozipper, which share
    # one decoding of it
    twos = [v for t in (k.open.coproduct, k.cozipper) for v in t.entries if v == 2]
    assert len(twos) > 3 and all(v is twos[0] for v in twos)
    # values that are not strings still raise as rat() raises on them
    for bad, error in ((0.5, TypeError), (None, TypeError), ("1/0", ZeroDivisionError),
                       ("x", ValueError)):
        obj = make_semisimple_kfa(2, 1).to_json()
        obj["cozipper"][0][3] = bad
        with pytest.raises(error):
            KFA.from_json(obj)
    obj = make_semisimple_kfa(2, 1).to_json()
    obj["closed"]["unit"][0] = 1
    assert KFA.from_json(obj) == make_semisimple_kfa(2, 1)


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_nonzero = small.filter(lambda x: x != 0)


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=0, max_value=2),
    q=st.integers(min_value=1, max_value=2),
    alpha=small_nonzero,
    delta=small,
    sigma=small,
)
def test_nonsemisimple_always_valid_and_good(p, q, alpha, delta, sigma):
    k = make_nonsemisimple_kfa(p, q, alpha, delta, sigma)
    assert check_kfa(k).valid
    form = character_of(k)
    assert form == CharacterForm.make(
        alpha_1=sigma, alpha_X=q + 2, alpha_Y=delta, alpha_Y2=p + 2
    )


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=0, max_value=3), alpha=small_nonzero)
def test_semisimple_always_valid_and_good(n, alpha):
    k = make_semisimple_kfa(n, alpha)
    assert check_kfa(k).valid
    assert character_of(k) == interpolated_gl_character(n, alpha)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_structures_roundtrip_through_json(monkeypatch):
    # the 170 seeded structures of the benchmark's families, up to open
    # dimension 13, decode back to themselves from their JSON text
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    rng = random.Random(1)
    for i in range(workloads.GROUPS):
        k = workloads._build_kfa(workloads.SHAPES[i % len(workloads.SHAPES)], rng)
        obj = json.loads(json.dumps(k.to_json()))
        back = KFA.from_json(obj)
        assert back == k
        assert back.to_json() == obj


def test_kfa_json_float_entry_raises_type_error():
    # a float equal to an exact entry decoded earlier must not share it
    obj = make_semisimple_kfa(2, 1).to_json()
    obj["open"]["product"][0][0][0] = 1
    obj["open"]["product"][1][1][1] = 1.0
    with pytest.raises(TypeError):
        KFA.from_json(obj)
    obj = make_semisimple_kfa(2, 1).to_json()
    obj["zipper"][1][0] = 1.0
    with pytest.raises(TypeError):
        KFA.from_json(obj)


def _seeded_structures(seed, count):
    """Seeded structures of every constructor, combinator and scaling."""
    rng = random.Random(seed)
    values = [F(v) for v in (1, 2, -1, 3)] + [F(1, 2), F(-2, 3), F(1, 3)]
    out = [make_closed_only(make_F(1, F(-2, 3))), make_closed_only(make_A(2, F(1, 2), 3))]
    for _ in range(count):
        k = make_semisimple_kfa(rng.randint(0, 3), rng.choice(values))
        n = make_nonsemisimple_kfa(rng.randint(0, 2), rng.randint(1, 2), rng.choice(values),
                                   rng.choice(values + [F(0)]), rng.choice(values + [F(0)]))
        out += [k, n, kfa_sum(k, n), kfa_product(k, n), kfa_product(n, kfa_sum(k, k)),
                scale_kfa(kfa_sum(n, k), rng.choice(values)), scale_kfa(kfa_product(k, n), F(2, 3))]
    return out


def test_invariant_table_matches_per_cell_products():
    # integer dot products against one Fraction matrix-vector product per
    # cell, on seeded structures of every constructor and on alpha = 1/2
    # and -2/3, rescaling by 2/3 and products
    half, m23 = make_semisimple_kfa(2, F(1, 2)), make_semisimple_kfa(1, F(-2, 3))
    nil = make_nonsemisimple_kfa(1, 2, F(-2, 3), F(1, 3), F(1, 2))
    cases = [half, m23, nil, kfa_product(half, m23), kfa_product(nil, half),
             kfa_product(kfa_sum(half, m23), nil), scale_kfa(half, F(2, 3)),
             scale_kfa(kfa_sum(m23, nil), F(2, 3)), scale_kfa(kfa_product(m23, nil), F(2, 3))]
    rng = random.Random(9)
    for k in cases + _seeded_structures(9, 4):
        size = 2 * k.closed.dim + 4
        for g_max, w_max in ((size, size), (rng.randint(0, 7), rng.randint(0, 7)), (0, 3), (3, 0)):
            table = invariant_table(k, g_max, w_max)
            assert [list(row) for row in table.values] == invariant_rows(k, g_max, w_max)


def test_frobenius_json_matches_per_index_rendering():
    for k in _seeded_structures(11, 6):
        for fa in (k.open, k.closed):
            assert fa.to_json() == frobenius_json_by_index(fa)


def _perturbed(k, sector, field, index, delta):
    """k with one entry of one structure tensor of one sector moved by delta."""
    fa = getattr(k, sector)
    parts = {"product": fa.product, "unit": fa.unit, "coproduct": fa.coproduct, "counit": fa.counit}
    entries = list(parts[field].entries)
    entries[index] += delta
    parts[field] = Tensor(parts[field].shape, entries)
    fa = FrobeniusAlgebra(**parts)
    open_, closed = (fa, k.closed) if sector == "open" else (k.open, fa)
    return KFA(open_, closed, k.zipper, k.cozipper)


@pytest.mark.parametrize("sector, field, index, g_max, w_max, message", [
    # the closed counit moves every cell but no trace
    ("closed", "counit", 0, 3, 3, "closed trace identity fails at genus 1, windows 0"),
    ("closed", "counit", 1, 4, 4, "closed trace identity fails at genus 1, windows 0"),
    # without a genus row, a moved closed unit shows in the open traces
    ("closed", "unit", 0, 0, 4, "open trace identity fails at 0 holes"),
    # the open counit enters only the strip
    ("open", "counit", 0, 3, 3, "strip invariant differs from the open counit of the unit"),
    ("open", "counit", 3, 0, 1, "strip invariant differs from the open counit of the unit"),
])
def test_invariant_table_identity_failures(sector, field, index, g_max, w_max, message):
    k = kfa_sum(scale_kfa(make_semisimple_kfa(2, F(1, 2)), F(2, 3)),
                make_semisimple_kfa(1, F(-2, 3)))
    bad = _perturbed(k, sector, field, index, F(1, 5))
    structural_endos(bad)   # the commutation checks still pass
    with pytest.raises(ConsistencyError) as exc:
        invariant_table(bad, g_max, w_max)
    assert str(exc.value) == message
