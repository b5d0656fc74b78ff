"""Tests for the pairing, spanning sets, idempotents, quotient algebras and
nilpotent-trace witnesses."""

import hashlib
import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from octqft.character import CharacterForm, TableCharacter, eval_character, rational_character
from octqft.cobordism import (
    _SUMMARIES,
    Compose,
    Id,
    TermTypeError,
    closure_row,
    compose_summaries,
    evaluate,
    parse,
    pretty,
    summarize,
    summary_closure,
)
from octqft.kfa import (
    character_of, interpolated_gl_character, kfa_sum, make_nonsemisimple_kfa, make_semisimple_kfa,
)
from octqft.frobenius import frobenius_from_form
from octqft.numkit import Matrix, Tensor, nullspace
from octqft.gram import (
    MOD_P1,
    TermSpace,
    IncompleteSpanningError,
    LinComb,
    _SymPivot,
    _certified_keys,
    _coded_gram_rank,
    _curated_keys,
    _factored_rank,
    _feature_classes,
    _gen_count,
    _gram_rows,
    _integer_gram,
    _pivot_basis,
    _schur_vanishes,
    build_idempotents,
    cap_sandwich_endo,
    categorical_trace,
    enumerate_end_terms,
    gram_rank,
    handle_idempotent,
    hole_endo,
    hole_idempotent,
    iota_cap_sandwich_endo,
    iota_sigma_endo,
    is_negligible,
    lc,
    lc_add,
    lc_compose,
    lc_identity,
    lc_scale,
    lc_sub,
    minimal_poly_negligibility,
    nilpotent_trace_obstruction,
    pair,
    quotient_algebra,
    sigma_endo,
    spanning_end,
    verify_splitting,
)
from oracles import (
    ListPivot,
    _analyze,
    _curated_types,
    certified_keys_after_select,
    closure_by_gluing,
    compose_by_gluing,
    curated_exponents,
    enumerate_with_twins,
    gram_rows_by_rows,
    network,
    network_summary,
    pair_by_pairs,
    reference_select,
    rows_of,
    scaled_gram,
    schur_vanishes_by_entries,
)

CHI2 = CharacterForm.make(exp_terms=[(1, 3, 2)])          # f = 2/((1-X)(1-3Y))
CHI_ZERO = CharacterForm.make()
CHI_POLY3 = CharacterForm.make(alpha_Y2=3)


# ---------------------------------------------------------------------------
# characters given by rational generating functions


def test_rational_character_geometric():
    chi = rational_character({(0, 0): 1}, {(0, 0): 1, (0, 1): -1})
    for w in range(6):
        assert chi.value(0, w) == 1
    assert chi.value(1, 0) == 0
    assert chi.value(2, 3) == 0


def test_rational_character_matches_closed_form():
    chi = rational_character(
        {(0, 0): 2}, {(0, 0): 1, (1, 0): -1, (0, 1): -3, (1, 1): 3}
    )
    for g in range(5):
        for w in range(5):
            assert chi.value(g, w) == eval_character(CHI2, g, w)


def test_rational_character_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        rational_character({(0, 0): 1}, {(1, 0): 1})


def test_rational_character_deep_trace():
    # closing (dS ; mS)^1100 gives genus 1101, far past the recursion limit
    chi = rational_character({(0, 0): 1}, {(0, 0): 1, (1, 0): -2})
    assert categorical_trace(parse(" ; ".join(["dS ; mS"] * 1100)), chi) == 2 ** 1101


# ---------------------------------------------------------------------------
# the pairing


def test_pair_cylinder_closes_to_torus():
    f = lc_identity("S")
    assert pair(f, f, CHI2) == eval_character(CHI2, 1, 0)
    assert pair(f, f, CHI2) == 2


def test_pair_cap_cup_closes_to_spheres():
    assert pair(lc_identity("S"), lc(parse("eS ; uS")), CHI2) == eval_character(CHI2, 0, 0)


def test_pair_with_zero_lincomb():
    assert pair(LinComb([]), lc_identity("S"), CHI2) == 0
    assert pair(lc_identity("S"), LinComb([]), CHI2) == 0


def test_pair_bilinear():
    f = lc(sigma_endo(1, 0))
    g = lc(sigma_endo(0, 1))
    assert pair(lc_scale(f, 5), g, CHI2) == 5 * pair(f, g, CHI2)


def test_pair_type_errors():
    # the signatures of pairings and combinations read the summaries' shapes;
    # the messages must stay those of the typechecking fold
    cases = [
        (lambda: pair(lc_identity("S"), lc_identity("I"), CHI2),
         "pairing across different objects: 'S' vs 'I'"),
        (lambda: pair(lc(parse("z")), lc(parse("z")), CHI2),
         "pairing needs endomorphisms, got ('S', 'I') and ('S', 'I')"),
        (lambda: pair(lc_identity("S"), lc(parse("zs")), CHI2),
         "pairing needs endomorphisms, got ('S', 'S') and ('I', 'S')"),
        (lambda: LinComb([(Fraction(1), Id("S")), (Fraction(1), Id("I"))]),
         "mixed types in linear combination: [('I', 'I'), ('S', 'S')]"),
        (lambda: lc(parse("z ; z")),
         "cannot compose: codomain 'I' does not match domain 'S'"),
    ]
    for call, message in cases:
        with pytest.raises(TermTypeError) as err:
            call()
        assert str(err.value) == message


_S_ENDOS = [
    Id("S"),
    parse("eS ; uS"),
    parse("dS ; mS"),
    parse("z ; zs"),
    parse("dS ; mS ; z ; zs"),
]
_I_ENDOS = [
    Id("I"),
    parse("eI ; uI"),
    parse("dI ; mI"),
    parse("zs ; z"),
    parse("zs ; dS ; mS ; z"),
]


@settings(max_examples=40, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=4),
    j=st.integers(min_value=0, max_value=4),
    open_sector=st.booleans(),
)
def test_pair_symmetric(i, j, open_sector):
    pool = _I_ENDOS if open_sector else _S_ENDOS
    f, g = lc(pool[i]), lc(pool[j])
    assert pair(f, g, CHI2) == pair(g, f, CHI2)


def test_categorical_trace_values():
    assert categorical_trace(lc_identity("S"), CHI2) == 2          # torus
    assert categorical_trace(lc(sigma_endo(0, 1)), CHI2) == 6      # torus + window
    assert categorical_trace(lc_identity("I"), CHI2) == 18         # annulus: chi(0,2)


CHI_TWO_GEOMETRIC = CharacterForm.make(exp_terms=[(2, 3, 1), (4, 5, 1)])


@pytest.mark.parametrize("obj", ["S", "I"])
@pytest.mark.parametrize("chi", [CHI2, CHI_TWO_GEOMETRIC], ids=["one_term", "two_terms"])
def test_pair_matches_network_analysis_on_spanning_sets(obj, chi):
    # the pairing of summary ids against the wire-graph oracle: the product
    # of chi over the components of the closed-up composite term
    spanning = spanning_end(obj, chi).spanning
    rng = random.Random(31)
    for _ in range(150):
        f, g = rng.choice(spanning), rng.choice(spanning)
        net = network(Compose(g.terms[0][1], f.terms[0][1]))
        net.close()
        expected = 1
        for genus, windows in _analyze(net):
            expected *= eval_character(chi, genus, windows)
        assert pair(f, g, chi) == expected


@pytest.mark.parametrize("repeats", [250, 500])
def test_categorical_trace_of_500_generators(repeats):
    # the trace closure of the k-fold handle is the genus k + 1 surface;
    # 1,000 generators nest deeper than the interpreter's recursion limit
    term = parse(" ; ".join(["dS ; mS"] * repeats))
    assert categorical_trace(lc(term), CHI2) == 2


@pytest.mark.parametrize("k", [
    make_semisimple_kfa(2, 1),
    make_nonsemisimple_kfa(1, 1, 1, 0, 1),
    kfa_sum(make_semisimple_kfa(1, 3), make_semisimple_kfa(1, 2)),
], ids=["semisimple", "nonsemisimple", "sum"])
@pytest.mark.parametrize("obj", ["S", "I"])
def test_pair_matches_evaluation_in_the_structure(k, obj):
    # the pairing under the character of k against the trace of the
    # composite evaluated in k; the nonsemisimple character has only a
    # polynomial part, the sum has coefficients 9 and 4 on lambda = 1/9, 1/4
    chi = character_of(k)
    spanning = spanning_end(obj, chi).spanning
    rng = random.Random(41)
    for _ in range(30):
        f, g = rng.choice(spanning), rng.choice(spanning)
        tf, tg = f.terms[0][1], g.terms[0][1]
        assert pair(f, g, chi) == evaluate(Compose(tf, tg), k).trace()


_M1 = make_semisimple_kfa(1, 1)
_M3 = make_semisimple_kfa(3, 2)
_REALIZED = {
    "semisimple": make_semisimple_kfa(2, 1),
    "nonsemisimple": make_nonsemisimple_kfa(1, 1, 1, 0, 1),
    "sum": kfa_sum(make_semisimple_kfa(1, 3), make_semisimple_kfa(1, 2)),
    "2xM3": kfa_sum(_M3, _M3),
    "M3": _M3,
    "3xM1": kfa_sum(kfa_sum(_M1, _M1), _M1),
}


def _evaluated_span(space, k, chi):
    # the Gram rank of space under the character of k, and the rank of the
    # span of its entries evaluated in k
    _, rank = gram_rank(space, chi)
    return rank, Matrix.from_rows([evaluate(e, k).entries for e in space.spanning]).rank()


@pytest.mark.parametrize("k", [_REALIZED[name] for name in ("semisimple", "nonsemisimple", "sum")],
                         ids=["semisimple", "nonsemisimple", "sum"])
@pytest.mark.parametrize("obj", ["S", "I"])
def test_gram_rank_at_most_rank_of_evaluated_span(k, obj):
    # the universal construction maps onto the hom-space of k: the pairing
    # under the character of k is the trace of the composite evaluated in
    # k, so the Gram factors through evaluation and cannot exceed its rank
    chi = character_of(k)
    rank, evaluated = _evaluated_span(spanning_end(obj, chi), k, chi)
    assert 0 < rank <= evaluated


def test_gram_rank_below_rank_of_evaluated_span_when_nonsemisimple():
    # the bound is strict on II at budget 4 in the nonsemisimple structure:
    # an evaluated composite pairs to zero with every entry, a negligible
    # morphism that k does not kill
    k = _REALIZED["nonsemisimple"]
    assert _evaluated_span(enumerate_end_terms("II", 4), k, character_of(k)) == (28, 29)


# structure -> the Gram ranks of curated S and I, and of II at budget 4
_EVALUATED_RANKS = {
    ("semisimple", "S"): 1, ("semisimple", "I"): 2, ("semisimple", "II"): 14,
    ("nonsemisimple", "S"): 9, ("nonsemisimple", "I"): 5,
    ("sum", "S"): 4, ("sum", "I"): 4,
    ("2xM3", "S"): 2, ("2xM3", "I"): 3,
    ("M3", "S"): 1, ("M3", "I"): 2,
    ("3xM1", "S"): 2, ("3xM1", "I"): 2, ("3xM1", "II"): 13,
}


@pytest.mark.parametrize("name, obj", list(_EVALUATED_RANKS))
def test_gram_rank_equals_rank_of_evaluated_span(name, obj):
    # in these structures the Gram sees the whole evaluated span: the
    # curated S and I sets, and II at budget 4 in two of them
    k = _REALIZED[name]
    chi = character_of(k)
    space = spanning_end(obj, chi) if len(obj) == 1 else enumerate_end_terms(obj, 4)
    assert _evaluated_span(space, k, chi) == (_EVALUATED_RANKS[name, obj],) * 2


def test_lc_add_merges_equal_summaries():
    # terms are merged by summary: the first term seen stands for its class
    # and carries the summed coefficient; a zero sum drops the class
    f = LinComb([(Fraction(1), sigma_endo(1, 1)), (Fraction(2), parse("z ; zs ; dS ; mS"))])
    merged = lc_add(lc(sigma_endo(1, 1)), lc(parse("z ; zs ; dS ; mS"), 2))
    assert merged.terms == [(3, sigma_endo(1, 1))]
    assert pair(merged, lc_identity("S"), CHI2) == pair(f, lc_identity("S"), CHI2)
    assert lc_sub(merged, lc(parse("z ; zs ; dS ; mS"), 3)).terms == []
    # (h + 1)∘(h + 1): h∘1 and 1∘h have one summary, so they merge
    h, one = parse("dS ; mS"), Id("S")
    composed = lc_compose(lc_add(lc(h), lc(one)), lc_add(lc(h), lc(one)))
    assert composed.terms == [(1, Compose(h, h)), (2, Compose(one, h)), (1, Compose(one, one))]


def test_deep_terms_merge_without_hashing_their_trees():
    # a frozen dataclass hashes its fields recursively, so keying a merge by
    # the tree of 1,200 nested compositions overflows the interpreter stack
    t = parse(" ; ".join(["dS ; mS"] * 600))
    f = lc(t)
    doubled = lc_add(f, f)
    assert len(doubled.terms) == 1 and doubled.terms[0][0] == 2
    assert doubled.terms[0][1] is t
    assert is_negligible(lc_sub(f, f), spanning_end("S", CHI2), CHI2)


# ---------------------------------------------------------------------------
# curated spanning sets


def test_curated_constructors_match_their_texts():
    # the constructors chain generator nodes; parse of the joined texts
    # builds the same left-nested composites
    def sig(g, w):
        return ["dS ; mS"] * g + ["z ; zs"] * w

    def text(parts):
        return parse(" ; ".join(parts))

    grid = range(3)
    for m in range(4):
        assert hole_endo(m) == (text(["dI ; mI"] * m) if m else Id("I"))
    for g, w in product(grid, grid):
        assert sigma_endo(g, w) == (text(sig(g, w)) if g or w else Id("S"))
        assert iota_sigma_endo(g, w) == text(["zs"] + sig(g, w) + ["z"])
    for x, y, z, t in product(grid, repeat=4):
        assert cap_sandwich_endo(x, y, z, t) == text(sig(z, t) + ["eS ; uS"] + sig(x, y))
        assert iota_cap_sandwich_endo(x, y, z, t) == text(
            ["zs"] + sig(z, t) + ["eS ; uS"] + sig(x, y) + ["z"])


def test_spanning_bounds_single_exp_term():
    ts = spanning_end("S", CHI2)
    assert ts.g_bound == 3 and ts.w_bound == 3
    assert len(ts.spanning) == 16 + 256
    for e in ts.spanning:
        assert e.signature() == ("S", "S")


def test_spanning_bounds_polynomial_only():
    ts = spanning_end("I", CHI_POLY3)
    assert ts.g_bound == 2 and ts.w_bound == 2
    assert len(ts.spanning) == 1 + 9 + 81
    for e in ts.spanning:
        assert e.signature() == ("I", "I")


def test_spanning_rejects_table_characters_and_bad_objects():
    chi = rational_character({(0, 0): 1}, {(0, 0): 1, (0, 1): -1})
    with pytest.raises(TypeError):
        spanning_end("S", chi)
    with pytest.raises(ValueError):
        spanning_end("II", CHI2)


# ---------------------------------------------------------------------------
# Gram ranks

# non-integer values, so that the Gram is scaled to integers before pivoting
CHI_POLY_FRACTIONS = CharacterForm.make(
    alpha_1=Fraction(1, 2), alpha_X=Fraction(3, 4), alpha_Y2=Fraction(2, 3))
CHI_FRACTIONS = CharacterForm.make(
    alpha_1=Fraction(1, 2), alpha_Y2=Fraction(2, 3),
    exp_terms=[(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))])


def _memo(chi):
    return TableCharacter(lambda g, w: eval_character(chi, g, w))


@pytest.mark.parametrize("obj", ["S", "I"])
@pytest.mark.parametrize("chi", [CHI2, CHI_POLY3, CHI_POLY_FRACTIONS],
                         ids=["chi2", "poly3", "poly_fractions"])
def test_curated_gram_matches_diagram_pairing(obj, chi):
    # the Gram, closed along the plans of the entries' summaries, against
    # the exponent formulas of the oracle, entry for entry, and the
    # certified rank against elimination over Q
    ts = spanning_end(obj, chi)
    m, r = gram_rank(ts, chi)
    exponents = curated_exponents(obj, ts.g_bound, ts.w_bound)
    assert len(exponents) == len(ts.spanning)
    memo = _memo(chi)
    for i, a in enumerate(exponents):
        for j in range(i, len(exponents)):
            expected = Fraction(1)
            for g, w in _curated_types(obj, a, exponents[j]):
                expected *= memo.value(g, w)
            assert m[i, j] == m[j, i] == expected
    assert r == m.rank()


@pytest.mark.parametrize("obj", ["S", "I"])
@pytest.mark.parametrize("chi", [CHI2, CHI_POLY3, CHI_TWO_GEOMETRIC],
                         ids=["chi2", "poly3", "two_terms"])
def test_curated_summaries_compose_from_blocks(obj, chi):
    # spanning_end composes the summary of each entry from the summaries of
    # its blocks; folding the entry's term must give the same summary
    for e in spanning_end(obj, chi).spanning:
        [(_, term)] = e.terms
        [(_, sid)] = e.summary_ids()
        assert _SUMMARIES[sid] == summarize(term)


@pytest.mark.parametrize("obj, chi, rank", [
    ("S", CHI_TWO_GEOMETRIC, 6), ("I", CHI_TWO_GEOMETRIC, 7),
    ("S", CHI_FRACTIONS, 18), ("I", CHI_FRACTIONS, 11),
], ids=["two_terms-S", "two_terms-I", "fractions-S", "fractions-I"])
def test_curated_gram_sampled(obj, chi, rank):
    # Matrix.rank gives the same ranks, in 3 s on the 272-entry fraction
    # Grams and 12 s on the 650-entry two-term ones: too slow to repeat here
    ts = spanning_end(obj, chi)
    m, r = gram_rank(ts, chi)
    memo = _memo(chi)
    rng = random.Random(43)
    n = len(ts.spanning)
    for _ in range(400):
        i, j = rng.randrange(n), rng.randrange(n)
        assert m[i, j] == pair(ts.spanning[i], ts.spanning[j], memo)
    assert r == rank


def test_gram_rank_falls_back_over_q_when_certificate_fails():
    # every entry is a multiple of MOD_P1: the modular selection is empty,
    # its certificate fails, and the keys are picked again over Q
    chi = TableCharacter(lambda g, w: MOD_P1 * eval_character(CHI_POLY3, g, w))
    ts = spanning_end("I", CHI_POLY3)
    m, r = gram_rank(ts, chi)
    n = len(ts.spanning)
    assert all(v % MOD_P1 == 0 for v in m.entries)
    piv = _SymPivot(rows_of(lambda i, j: m[i, j] % MOD_P1), MOD_P1)
    piv.select(range(n))
    assert piv.keys == []
    assert r == m.rank() == 5
    assert quotient_algebra(ts, chi).dim == 5


# ---------------------------------------------------------------------------
# the factored rank of the curated spaces


def _assert_factored_matches_fill(ts, chi):
    # the rank from the Hankel factorization against the certified fill, the
    # keys selected over pairings on demand against the fill's keys, in
    # order, and the pivot basis against the block of the filled Gram
    rows, values = _gram_rows(ts, chi)
    keys = _certified_keys(_integer_gram(rows, values))
    rank = _factored_rank(ts, chi)
    assert rank == len(keys)
    assert _coded_gram_rank(ts, chi, False) == (None, None, rank)
    assert _curated_keys(ts, chi, rank) == keys
    chosen, block = _pivot_basis(ts, chi)
    assert chosen == sorted(keys)
    assert block.to_rows() == [[values[rows[i][j]] for j in chosen] for i in chosen]


_FACTORED_CHARACTERS = {
    "two_terms": CHI_TWO_GEOMETRIC,
    "shared_lambda": CharacterForm.make(exp_terms=[(2, 3, 1), (2, 5, 1)]),
    "poly_part": CharacterForm.make(1, 2, 3, 5, exp_terms=[(2, 3, 1)]),
    "three_terms": CharacterForm.make(exp_terms=[(2, 3, 1), (4, 5, 1), (7, 11, 1)]),
    "chi1": CHI2,
    "shared_mu": CharacterForm.make(exp_terms=[(2, 3, 1), (4, 3, 1)]),
    "mu_zero_pair": CharacterForm.make(exp_terms=[(2, 0, 1), (3, 5, 1)]),
    "fractions": CHI_FRACTIONS,
    "poly3": CHI_POLY3,
    "alpha_1": CharacterForm.make(alpha_1=1),
    "zero": CHI_ZERO,
    "mu_zero": CharacterForm.make(exp_terms=[(Fraction(-1, 2), 0, 3)]),
}


@pytest.mark.parametrize("obj", ["S", "I"])
@pytest.mark.parametrize("chi", _FACTORED_CHARACTERS.values(), ids=_FACTORED_CHARACTERS)
def test_factored_rank_matches_fill(obj, chi):
    _assert_factored_matches_fill(spanning_end(obj, chi), chi)


_RANDOM_VALUES = [Fraction(v) for v in ("-2", "-1/2", "1/3", "3")]


@settings(max_examples=6, deadline=None)
@given(obj=st.sampled_from("SI"),
       terms=st.lists(st.tuples(st.sampled_from(_RANDOM_VALUES),
                                st.sampled_from([Fraction(0), *_RANDOM_VALUES]),
                                st.sampled_from(_RANDOM_VALUES)), min_size=1, max_size=3),
       alphas=st.lists(st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-2, 3)]),
                       min_size=4, max_size=4))
def test_factored_rank_matches_fill_on_random_characters(obj, terms, alphas):
    chi = CharacterForm.make(*alphas, exp_terms=terms)
    _assert_factored_matches_fill(spanning_end(obj, chi), chi)


def test_factored_keys_fall_back_over_q():
    # every value is a multiple of MOD_P1, so the modular selection is empty
    # and the keys are picked again over Q, as the certified fill picks them
    chi = CharacterForm.make(alpha_Y2=3 * MOD_P1)
    ts = spanning_end("I", chi)
    rows, values = _gram_rows(ts, chi)
    assert all(v % MOD_P1 == 0 for v in values)
    _assert_factored_matches_fill(ts, chi)
    assert _factored_rank(ts, chi) == quotient_algebra(ts, chi).dim == 5


@pytest.mark.parametrize("obj", ["S", "I"])
def test_spanning_end_records_its_exponents(obj):
    ts = spanning_end(obj, CHI_TWO_GEOMETRIC)
    assert list(ts.exponents) == [e.sids[0] for e in ts.spanning]
    assert list(ts.exponents.values()) == curated_exponents(obj, ts.g_bound, ts.w_bound)


def test_factored_rank_needs_a_matching_record():
    # anything but a curated space, as built, under a closed form whose
    # denominators MOD_P1 does not divide takes the certified fill
    ts = spanning_end("S", CHI2)
    assert _factored_rank(ts, CHI2) == 2
    assert _factored_rank(ts, _memo(CHI2)) is None
    assert _factored_rank(TermSpace("S", ts.spanning), CHI2) is None
    extended = TermSpace("S", ts.spanning + [lc(sigma_endo(1, 1))], exponents=ts.exponents)
    assert _factored_rank(extended, CHI2) is None
    swapped = TermSpace("S", [ts.spanning[1], ts.spanning[0], *ts.spanning[2:]],
                        exponents=ts.exponents)
    assert _factored_rank(swapped, CHI2) is None
    chi = CharacterForm.make(exp_terms=[(1, 3, Fraction(2, MOD_P1))])
    assert _factored_rank(spanning_end("S", chi), chi) is None
    assert gram_rank(spanning_end("S", chi), chi)[1] == 2


# ---------------------------------------------------------------------------
# the feature classes of the curated spaces


def _assert_class_fill_matches(ts, chi):
    # the fill of one entry per feature class, expanded over the classes,
    # against the block fill of the same entries without the exponent record
    # and against the row-by-row oracle, value for value; and the keys
    # picked over class rows against the certified keys of the full Gram
    rows, values = _gram_rows(ts, chi)
    got = [[values[c] for c in row] for row in rows]
    plain_rows, plain_values = _gram_rows(TermSpace(ts.object, ts.spanning), chi)
    assert got == [[plain_values[c] for c in row] for row in plain_rows]
    oracle_rows, oracle_values = gram_rows_by_rows(ts, chi)
    assert got == [[oracle_values[c] for c in row] for row in oracle_rows]
    keys = _certified_keys(_integer_gram(plain_rows, plain_values))
    assert _curated_keys(ts, chi, len(keys)) == keys
    # the entries of one class share one row object
    index, reps = _feature_classes(ts, chi)
    assert all(row is rows[reps[c]] for row, c in zip(rows, index))


_CLASS_CHARACTERS = {
    "chi1": CHI2,
    **{f"gl_{d}": interpolated_gl_character(d, 1) for d in (0, 1, -1, 2, Fraction(7, 2))},
    "gl_2_alpha_-1": interpolated_gl_character(2, -1),
    **{f"lambda_-1_mu_{mu}": CharacterForm.make(exp_terms=[(-1, mu, 3)]) for mu in (0, 1, -1)},
    "poly_fractions": CHI_POLY_FRACTIONS,
    "two_terms": CHI_TWO_GEOMETRIC,
}


@pytest.mark.parametrize("obj", ["S", "I"])
@pytest.mark.parametrize("chi", _CLASS_CHARACTERS.values(), ids=_CLASS_CHARACTERS)
def test_class_fill_matches_plain_fill(obj, chi):
    _assert_class_fill_matches(spanning_end(obj, chi), chi)


@pytest.mark.parametrize("obj", ["S", "I"])
def test_curated_keys_pair_each_request_of_classes_once(obj, monkeypatch):
    # the key selection asks for rows, and a row is paired once per distinct
    # request of feature classes (the handle's, its partners'), so the
    # closure_row calls stay below three per class: 20 on S and 21 on I
    from octqft import gram

    ts = spanning_end(obj, CHI2)
    rank = _factored_rank(ts, CHI2)
    calls = []
    closure_row_ = gram.closure_row
    monkeypatch.setattr(gram, "closure_row", lambda a, bs: calls.append(a) or closure_row_(a, bs))
    assert len(_curated_keys(ts, CHI2, rank)) == rank
    assert 0 < len(calls) < 3 * len(_feature_classes(ts, CHI2)[1])


_CLASS_VALUES = [Fraction(v) for v in ("-1", "1", "2", "1/2", "-1/3")]


@settings(max_examples=6, deadline=None)
@given(obj=st.sampled_from("SI"),
       terms=st.lists(st.tuples(st.sampled_from(_CLASS_VALUES),
                                st.sampled_from([Fraction(0), *_CLASS_VALUES]),
                                st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 7)])),
                      min_size=1, max_size=2),
       alphas=st.lists(st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-2, 3)]),
                       min_size=4, max_size=4))
def test_class_fill_matches_plain_fill_on_random_characters(obj, terms, alphas):
    chi = CharacterForm.make(*alphas, exp_terms=terms)
    _assert_class_fill_matches(spanning_end(obj, chi), chi)


@pytest.mark.parametrize("obj, n, classes, rows", [("S", 272, 20, 11), ("I", 273, 21, 12)])
def test_chi1_curated_entries_fall_into_few_classes(obj, n, classes, rows):
    # under χ₁ = 2/((1-X)(1-3Y)) the feature row is F(g, w) = (3^w,), so an
    # entry's class is read off its window counts alone; some classes still
    # share their Gram row
    ts = spanning_end(obj, CHI2)
    index, reps = _feature_classes(ts, CHI2)
    assert (len(index), len(reps)) == (n, classes)
    gram_rows = _gram_rows(ts, CHI2)[0]
    assert len({id(row) for row in gram_rows}) == classes
    assert len({tuple(row) for row in gram_rows}) == rows


def test_feature_classes_need_a_curated_space():
    # a generic χ leaves every entry alone in its class, and the Gram is
    # filled as it is; spaces without the record, and value tables, have none
    ts = spanning_end("S", CHI_TWO_GEOMETRIC)
    index, reps = _feature_classes(ts, CHI_TWO_GEOMETRIC)
    assert index == reps == list(range(len(ts.spanning)))
    assert _feature_classes(TermSpace("S", ts.spanning), CHI_TWO_GEOMETRIC) is None
    assert _feature_classes(ts, _memo(CHI_TWO_GEOMETRIC)) is None
    rows = _gram_rows(ts, CHI_TWO_GEOMETRIC)[0]
    assert len({id(row) for row in rows}) == len(rows)


_RANK_LOST_MOD_P = ([[0, MOD_P1], [MOD_P1, 0]], [[1, 1], [1, 1 + MOD_P1]],
                    [[1, 1, 0], [1, 1, MOD_P1], [0, MOD_P1, 0]])


@cache
def _curated_gram(obj, chi):
    """The coded Gram rows and values of the curated set of obj under chi,
    shared by the tests that only read them."""
    return _gram_rows(spanning_end(obj, chi), chi)


def _gram_cases():
    xy = rational_character({(0, 0): 1}, {(0, 0): 1, (1, 1): -1})
    # "origin" is χ = [g = w = 0], under which nearly every value is 0
    chis = {"chi2": CHI2, "two_terms": CHI_TWO_GEOMETRIC, "poly3": CHI_POLY3,
            "origin": CharacterForm.make(alpha_1=1), "xy": xy}
    curated = [pytest.param(obj, chi, id=f"{obj}-{name}") for obj in "SI" for name, chi in chis.items()]
    # III@3 under xy, and under χ₁, where the certificate proves rank 78 of 96
    enumerated = [pytest.param(space, xy if space == "III@3" else CHI2, id=space)
                  for space in ("S@6", "I@6", "SI@6", "II@4", "II@6", "III@3")]
    return curated + enumerated + [pytest.param("III@3", CHI2, id="III@3-chi1"),
                                   pytest.param("closed", CHI2, id="closed-diagrams")]


@pytest.mark.parametrize("space, chi", _gram_cases())
def test_block_fill_matches_row_by_row_oracle(space, chi):
    # the Gram filled a block per pair of shape groups, one code per distinct
    # value, against the oracle that runs one closure_row per row and codes
    # each closure-types tuple: entry for entry, and the pivot basis
    if space == "closed":
        ts = TermSpace("", [lc(parse(t)) for t in ("uS ; eS", "uS ; dS ; mS ; eS",
                                                    "uI ; eI", "uS ; z ; eI")])
    elif "@" in space:
        word, budget = space.split("@")
        ts = enumerate_end_terms(word, int(budget))
    else:
        ts = spanning_end(space, chi if isinstance(chi, CharacterForm) else CHI2)
    rows, values = _gram_rows(ts, chi)
    expected_rows, expected_values = gram_rows_by_rows(ts, chi)
    assert len(set(values)) == len(values)
    entries = [[values[c] for c in row] for row in rows]
    expected = [[expected_values[c] for c in row] for row in expected_rows]
    assert entries == expected
    # the pivot keys are certified on the integer-scaled Gram alone, so an
    # equal scaled Gram keeps them
    assert _integer_gram(rows, values) == scaled_gram(expected)
    chosen, block = _pivot_basis(ts, chi)
    assert block.to_rows() == [[expected[i][j] for j in chosen] for i in chosen]
    if space == "III@3" and chi is CHI2:
        assert (len(chosen), len(ts.spanning)) == (78, 96)


def test_certified_keys_recover_rank_lost_mod_p():
    # each Gram has a smaller rank mod MOD_P1 than over Q; in the first and
    # the last the residual that survives over Q is off the diagonal
    p = MOD_P1
    for g in _RANK_LOST_MOD_P:
        keys = _certified_keys(g)
        assert len(keys) == len(g) == Matrix.from_rows(g).rank()


def test_gram_rank_end_s_dimension_two():
    m, r = gram_rank(spanning_end("S", CHI2), CHI2)
    assert r == 2


def test_gram_rank_zero_character():
    ts = spanning_end("S", CHI_ZERO)
    m, r = gram_rank(ts, CHI_ZERO)
    assert r == 0
    assert all(m[i, j] == 0 for i in range(len(ts.spanning)) for j in range(3))


def test_gram_rank_pgl1_regression():
    ts = spanning_end("S", CharacterForm.make(exp_terms=[(1, 1, 1)]))
    m, r = gram_rank(ts, CharacterForm.make(exp_terms=[(1, 1, 1)]))
    assert r == 1


# ---------------------------------------------------------------------------
# negligibility


def test_window_shift_negligible():
    f = lc_sub(lc(sigma_endo(0, 1)), lc_scale(lc_identity("S"), 3))
    assert is_negligible(f, spanning_end("S", CHI2), CHI2)


def test_identity_not_negligible():
    assert not is_negligible(lc_identity("S"), spanning_end("S", CHI2), CHI2)


def test_minimal_polys_two_handle_roots():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1), (4, 3, 1)])
    report = minimal_poly_negligibility(chi)
    assert report.k == 2
    assert report.handle_roots == (2, 4)
    assert report.passed


def test_minimal_polys_polynomial_only():
    report = minimal_poly_negligibility(CHI_POLY3)
    assert report.hole_roots == ()
    assert report.passed


def test_minimal_polys_zero_character():
    assert minimal_poly_negligibility(CHI_ZERO).passed


# ---------------------------------------------------------------------------
# idempotents and splitting


def test_single_term_handle_idempotent_formula():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1)])
    idem = build_idempotents(chi)
    e2 = idem.e_lambda[Fraction(2)]
    assert e2.terms == [(Fraction(1, 4), sigma_endo(2, 0))]


def test_two_window_idempotent_formula():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1), (2, 5, 1)])
    idem = build_idempotents(chi)
    e2 = idem.e_lambda[Fraction(2)]
    w_shift = lc_sub(lc(sigma_endo(0, 1)), lc_scale(lc_identity("S"), 5))
    expected = lc_compose(e2, lc_scale(w_shift, Fraction(1, 3 - 5)))
    diff = lc_sub(idem.e_pair[(Fraction(2), Fraction(3))], expected)
    assert not diff.terms


def test_hole_idempotent_rejects_zero():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1)])
    with pytest.raises(ValueError):
        hole_idempotent(chi, 0)


def test_idempotents_orthogonal_two_blocks():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1), (4, 5, 1)])
    idem = build_idempotents(chi)      # internal verification would raise
    s_space = spanning_end("S", chi)
    e = idem.e_pair[(Fraction(2), Fraction(3))]
    assert is_negligible(lc_sub(lc_compose(e, e), e), s_space, chi)


def test_build_idempotents_evaluates_each_cell_once(monkeypatch):
    # the is_negligible loops of the verification read chi at the same
    # (genus, windows) cells again and again; the form remembers them
    from octqft import character

    cells = []
    real = character.eval_character
    monkeypatch.setattr(character, "eval_character",
                        lambda form, g, w: cells.append((g, w)) or real(form, g, w))
    build_idempotents(CharacterForm.make(exp_terms=[(2, 3, 1), (4, 5, 1)]))
    assert len(cells) == len(set(cells)) == 192


def test_splitting_two_blocks():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1), (4, 5, 1)])
    report = verify_splitting(chi, 3, 3)
    assert report.passed
    assert set(report.components) == {(2, 3), (4, 5)}


@pytest.mark.parametrize("chi", [
    character_of(kfa_sum(make_semisimple_kfa(1, 1), make_semisimple_kfa(2, 2))),
    CharacterForm.make(exp_terms=[(2, 3, 1), (5, 3, 2)]),
])
def test_splitting_two_handle_eigenvalues_on_one_window_eigenvalue(chi):
    # the a_pair projectors select λ with G′, whose zero eigenspace on the
    # window block must be projected away too
    assert verify_splitting(chi, 3, 3).passed


def test_splitting_single_block_reproduces_character():
    chi = CharacterForm.make(exp_terms=[(1, 2, 1)])
    report = verify_splitting(chi, 3, 3)
    assert report.passed


# ---------------------------------------------------------------------------
# generic enumeration


def test_enumerate_identity_only_at_budget_zero():
    ts = enumerate_end_terms("I", 0)
    assert [pretty(e.terms[0][1]) for e in ts.spanning] == ["id:I"]


def test_enumerate_budget_two_on_i():
    ts = enumerate_end_terms("I", 2)
    names = {pretty(e.terms[0][1]) for e in ts.spanning}
    assert names == {"id:I", "dI ; mI", "eI ; uI", "zs ; z"}


# (object, budget) -> number of classes and the sha256 of their texts, one
# per line, in enumeration order
_ENUMERATIONS = {
    ("I", 4): (9, "4c754984bdb588b2"),
    ("S", 4): (11, "bdb08bd1e4d14221"),
    ("II", 4): (77, "0b865095808cfefc"),
    ("SI", 4): (28, "013e4488c090faae"),
    ("II", 6): (224, "4ae134f095b8fdc6"),
}


@pytest.mark.parametrize("obj, budget", sorted(_ENUMERATIONS))
def test_enumeration_pinned(obj, budget):
    # the witness coordinates are indexed by the enumeration order
    text = "\n".join(pretty(e.terms[0][1]) for e in enumerate_end_terms(obj, budget).spanning)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (text.count("\n") + 1, digest) == _ENUMERATIONS[obj, budget]


_WORDS = ["".join(w) for n in (1, 2) for w in product("IS", repeat=n)]


@pytest.mark.parametrize("obj, budget", [(w, b) for w in _WORDS for b in range(2, 7)]
                         + [("".join(w), b) for w in product("IS", repeat=3) for b in (2, 3)])
def test_enumeration_matches_the_oracle_that_pairs_twins(obj, budget):
    # dropping the twins of a key (same shape and boundary labels) before
    # they are paired changes no class, text or position
    def texts(ts):
        return [pretty(e.terms[0][1]) for e in ts.spanning]
    assert texts(enumerate_end_terms(obj, budget)) == texts(enumerate_with_twins(obj, budget))


@pytest.mark.parametrize("obj, budget", [("I", 4), ("S", 4), ("II", 4), ("II", 6)])
def test_enumeration_candidates_compose_summaries(obj, budget):
    # every candidate the enumeration breeds is a composite of two accepted
    # classes within the budget; its summary is glued from theirs, and the
    # glued summaries must tell the composites apart exactly as the
    # wire-graph oracle does
    terms = [e.terms[0][1] for e in enumerate_end_terms(obj, budget).spanning]
    summaries = [summarize(t) for t in terms]
    gens = [_gen_count(t) for t in terms]
    glued, keys = [], []
    for a, (ta, sa) in enumerate(zip(terms, summaries)):
        for b, (tb, sb) in enumerate(zip(terms, summaries)):
            if gens[a] + gens[b] <= budget:
                glued.append(compose_summaries(sa, sb))
                keys.append(network_summary(Compose(ta, tb)))
    assert len(glued) >= len(terms)
    assert len(set(glued)) == len(set(keys)) == len(set(zip(glued, keys)))


# (object, budget) -> number of classes and of distinct boundary shapes
# among their summaries; closure plans are built per pair of shapes
_SHAPE_COUNTS = {
    ("II", 6): (224, 62),
    ("S", 6): (21, 2),
    ("I", 6): (16, 3),
    ("SI", 4): (28, 6),
}


@pytest.mark.parametrize("obj, budget", sorted(_SHAPE_COUNTS))
def test_enumerated_classes_share_few_shapes(obj, budget):
    summaries = [summarize(e.terms[0][1]) for e in enumerate_end_terms(obj, budget).spanning]
    assert (len(summaries), len({s.shape for s in summaries})) == _SHAPE_COUNTS[obj, budget]


@pytest.mark.parametrize("space", ["II@6", "S", "I"])
def test_planned_gluing_matches_gluing_call_by_call(space):
    # closure and composition sum labels along a plan built once per pair
    # of shapes; the oracle glues the two summaries afresh on every call.
    # Every ordered pair is closed, one at a time and a row at a time as the
    # Gram fill does, and every pair within the budget is composed (all
    # pairs of the curated sets, which have no budget)
    if space == "II@6":
        terms = [e.terms[0][1] for e in enumerate_end_terms("II", 6).spanning]
        gens = [_gen_count(t) for t in terms]
        budget = 6
    else:
        terms = [e.terms[0][1] for e in spanning_end(space, CHI2).spanning]
        gens, budget = [0] * len(terms), 0      # no budget: every pair
    summaries = [summarize(t) for t in terms]
    for ga, sa in zip(gens, summaries):
        for gb, sb, types in zip(gens, summaries, closure_row(sa, summaries)):
            assert summary_closure(sa, sb) == types == closure_by_gluing(sa, sb)
            if ga + gb <= budget:
                assert compose_summaries(sa, sb) == compose_by_gluing(sa, sb)


def test_enumerate_monotone_in_budget():
    sizes = [len(enumerate_end_terms("I", b).spanning) for b in (0, 2, 4)]
    assert sizes[0] <= sizes[1] <= sizes[2]
    assert sizes == [1, 4, 9]


def test_enumerated_entries_keep_their_summary_ids(monkeypatch):
    # only the atoms are summarized from their terms: each class keeps the
    # id the enumeration interned, so pairing the entries summarizes nothing.
    # The quotient and a negligibility test glue the summaries of their
    # composites from those of the factors: no fold, no typecheck
    from octqft import cobordism, gram

    calls, typechecks = [], []
    for mod in (cobordism, gram):
        monkeypatch.setattr(mod, "summarize",
                            lambda t, real=cobordism.summarize: calls.append(t) or real(t))
    real_typecheck = cobordism.typecheck
    monkeypatch.setattr(cobordism, "typecheck",
                        lambda t: typechecks.append(t) or real_typecheck(t))
    monkeypatch.setattr(gram, "_ENUM_CACHE", {})
    ts = enumerate_end_terms("I", 6)
    atoms = sum(_gen_count(a) <= 6 for a in gram._atom_terms("I"))
    assert len(calls) == atoms
    gram._gram_rows(ts, CHI2)
    assert quotient_algebra(ts, CHI2).dim == 3
    a, b = ts.spanning[1], ts.spanning[2]
    assert is_negligible(lc_sub(lc_compose(a, b), lc_compose(b, a)), ts, CHI2)
    assert len(calls) == atoms
    assert typechecks == []


# ---------------------------------------------------------------------------
# quotient algebras


def test_quotient_end_s_dim_two_with_cap_idempotent():
    ts = spanning_end("S", CHI2)
    qa = quotient_algebra(ts, CHI2)
    assert qa.dim == 2
    cap = lc_scale(lc(parse("eS ; uS")), Fraction(1, 2))
    assert is_negligible(lc_sub(lc_compose(cap, cap), cap), ts, CHI2)


def test_quotient_zero_character():
    qa = quotient_algebra(spanning_end("S", CHI_ZERO), CHI_ZERO)
    assert qa.dim == 0
    assert qa.product.shape == (0, 0, 0)
    assert qa.unit.shape == (0,)


def test_quotient_end_i_polynomial_regression():
    ts = spanning_end("I", CHI_POLY3)
    m, r = gram_rank(ts, CHI_POLY3)
    qa = quotient_algebra(ts, CHI_POLY3)
    assert r == 5
    assert qa.dim == r


def test_quotient_unit_coordinates():
    qa = quotient_algebra(spanning_end("S", CHI2), CHI2)
    unit = qa.unit
    for j in range(qa.dim):
        acting = [
            sum(unit[i] * qa.product[(l, i, j)] for i in range(qa.dim))
            for l in range(qa.dim)
        ]
        expect = [1 if l == j else 0 for l in range(qa.dim)]
        assert acting == expect


def test_quotient_basis_indices_pinned():
    # Witness.coords are indexed through basis_indices, so the pivot order
    # is part of the output
    poly = CharacterForm.make(alpha_1=1, alpha_X=2, alpha_Y=3)
    cases = [(CHI2, "S", (0, 16)), (CHI2, "I", (0, 1, 17)),
             (poly, "S", (0, 9, 19, 36)), (poly, "I", (0, 10))]
    for chi, obj, expected in cases:
        assert quotient_algebra(spanning_end(obj, chi), chi).basis_indices == expected


def _assert_frobenius_under_trace(qa):
    # the structure layer, fed the quotient's tensors and the categorical
    # trace as counit, must accept them and give back the Gram matrix
    fa = frobenius_from_form(qa.product, qa.unit, Tensor((qa.dim,), list(qa.trace_vec)))
    assert fa.pairing() == qa.gram


@pytest.mark.parametrize("obj, chi", [
    (obj, chi) for chi in (CHI2, CharacterForm.make(alpha_1=1, alpha_X=2, alpha_Y=3))
    for obj in "SI"])
def test_curated_quotient_is_frobenius_under_trace(obj, chi):
    _assert_frobenius_under_trace(quotient_algebra(spanning_end(obj, chi), chi))


# ---------------------------------------------------------------------------
# the symmetric pivot engine: 1x1 and 2x2 steps over Q and Z/p


def test_modular_pivot_accepts_pair_after_singles_stall():
    gram = {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,
        (1, 0): 1, (1, 1): 1, (1, 2): 0,
        (2, 0): 1, (2, 1): 0, (2, 2): 1,
    }
    for p in (0, MOD_P1):
        piv = _SymPivot(rows_of(lambda a, b: gram[(a, b)] % p if p else gram[(a, b)]), p)
        assert piv.accept_single(0)
        assert not piv.accept_single(1)
        assert not piv.accept_single(2)
        assert piv.first_pair([1, 2]) == (0, 1)
        assert piv.keys == [0, 1, 2]


def _random_symmetric(rng, n, planes=None, singles=None):
    """n x n symmetric integer Gram matrix B H B^T of random rank, H mixing
    signed 1x1 blocks with hyperbolic planes (by default 0-3 planes and 0-2
    blocks).  In half the cases every row of B meets each plane in one
    coordinate only and misses the 1x1 blocks, so the diagonal is zero and
    only 2x2 steps can make progress."""
    planes = rng.randint(0, 3) if planes is None else planes
    singles = rng.randint(0, 2) if singles is None else singles
    zero_diag = rng.random() < 0.5
    rows = []
    for _ in range(n):
        b = []
        for _ in range(planes):
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            if zero_diag:
                b += [x, 0] if rng.random() < 0.5 else [0, y]
            else:
                b += [x, y]
        b += [0 if zero_diag else rng.randint(-2, 2) for _ in range(singles)]
        rows.append(b)
    signs = [rng.choice((-1, 1)) for _ in range(singles)]

    def h(u, v):
        s = 0
        for k in range(planes):
            s += u[2 * k] * v[2 * k + 1] + u[2 * k + 1] * v[2 * k]
        for k in range(singles):
            s += signs[k] * u[2 * planes + k] * v[2 * planes + k]
        return s
    return [[h(rows[i], rows[j]) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p", [0, MOD_P1], ids=["Q", "mod_p"])
def test_sym_pivot_selects_rank_on_random_symmetric(p):
    rng = random.Random(20231209)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = _random_symmetric(rng, n)
        piv = _SymPivot(rows_of(lambda a, b: g[a][b] % p if p else Fraction(g[a][b])), p)
        piv.select(range(n))
        chosen = sorted(piv.keys)
        assert len(chosen) == Matrix.from_rows(g).rank()
        if chosen:
            block = Matrix.from_rows([[g[i][j] for j in chosen] for i in chosen])
            assert block.inverse() is not None


@pytest.mark.parametrize("p", [0, MOD_P1], ids=["Q", "mod_p"])
def test_select_matches_reference_order(p):
    rng = random.Random(20231209)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = _random_symmetric(rng, n)
        keys = []
        for select in (_SymPivot.select, reference_select):
            piv = _SymPivot(rows_of(lambda a, b: g[a][b] % p if p else Fraction(g[a][b])), p)
            select(piv, range(n))
            keys.append(piv.keys)
        assert keys[0] == keys[1]


@pytest.mark.parametrize("p", [0, MOD_P1], ids=["Q", "mod_p"])
def test_select_tries_bred_handles_before_stalled_ones(p):
    # g1: 0 is null and stalls, 1 makes it acceptable, but 1 breeds 2, a
    # copy of 0, which is tried first and takes its place.  g2: 0 and 1 are
    # null and stall, 2 makes 1 acceptable on its retry and 1 makes 0
    # acceptable, but 1 breeds 3, a copy of 0, which is tried before 0 is
    # retried.  Without breeding the stalled 0 is accepted.
    g1 = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    g2 = [[0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 1, 0], [0, 1, 0, 0]]
    for g, cands, bred, keys in ((g1, [0, 1], {}, [1, 0]), (g1, [0, 1], {1: [2]}, [1, 2]),
                                 (g2, [0, 1, 2], {}, [2, 1, 0]), (g2, [0, 1, 2], {1: [3]}, [2, 1, 3])):
        piv = _SymPivot(rows_of(lambda a, b, g=g: g[a][b]), p)
        piv.select(cands, lambda h, bred=bred: bred.get(h, []))
        assert piv.keys == keys


@pytest.mark.parametrize("p", [0, MOD_P1], ids=["Q", "mod_p"])
def test_select_with_row_classes_matches_select_without(p):
    # every handle is a scaled copy of a row of a random symmetric Gram,
    # zero scales included, and its row class names that row; a copy of a
    # key's row is dropped unpaired and the keys stay those of the
    # selection that pairs it
    rng = random.Random(20231209)
    calls = [0, 0]          # pairings asked for without and with row classes
    for _ in range(80):
        n = rng.randint(1, 7)
        g = _random_symmetric(rng, n)
        m = n + rng.randint(0, 2 * n)
        base = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(base)
        scale = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) if rng.random() < 0.5 else 1 for _ in range(m)]

        gram = [[scale[a] * scale[b] * g[base[a]][base[b]] for b in range(m)] for a in range(m)]
        keys = []
        for run, row_class in enumerate((None, base.__getitem__)):
            def pairfn(a, b, run=run):
                calls[run] += 1
                return gram[a][b] % p if p else Fraction(gram[a][b])
            piv = _SymPivot(rows_of(pairfn), p)
            piv.select(range(m), row_class=row_class)
            keys.append(piv.keys)
        assert keys[0] == keys[1]
        assert len(keys[0]) == Matrix.from_rows(gram).rank()
    assert calls[1] < calls[0]


def test_sym_pivot_zero_diagonal_needs_pair_steps():
    g = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    piv = _SymPivot(rows_of(lambda a, b: Fraction(g[a][b])))
    piv.select(range(4))
    assert piv.keys == [0, 1, 2, 3]


def test_first_pair_needs_invertible_schur_block():
    # with nonzero diagonal residuals a nonzero cross residual is not enough
    for g, expected in (([[1, 1], [1, 1]], None), ([[1, 1], [1, 2]], (0, 1))):
        for p in (0, MOD_P1):
            piv = _SymPivot(rows_of(lambda a, b: g[a][b]), p)
            assert piv.first_pair([0, 1]) == expected


def _deficient_gram(rng, p, rank, extra):
    """Symmetric Gram mod p of rank handles with a random residue Gram plus
    extra handles that are sparse combinations of them, in shuffled order:
    rank `rank`, with `extra` handles rejected."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            a[i][j] = a[j][i] = rng.randrange(p)
    combos = [{i: 1} for i in range(rank)]
    combos += [{rng.randrange(rank): rng.randrange(1, p) for _ in range(3)} for _ in range(extra)]
    rng.shuffle(combos)
    return [[sum(c * d * a[k][m] for k, c in u.items() for m, d in v.items()) % p
             for v in combos] for u in combos]


@pytest.mark.parametrize("p", [MOD_P1, 10007], ids=["p61", "p10007"])
def test_packed_pivot_matches_list_oracle(p):
    # the packed columns against one reduced dot product per key: the same
    # keys and, for every handle left over, the same w, z and residual.
    # Under MOD_P1 a rank-200 Gram fills 200 slots of every column, so a
    # slot too narrow for the accumulated products carries into its
    # neighbour and changes which of the 40 dependent handles are rejected.
    # Zero diagonals force 2x2 steps, and handles bred by accepted ones
    # leave the stalled handles to be extended lazily across several new keys
    rng = random.Random(p)
    cases = [(_deficient_gram(rng, p, 200, 40), 240)] if p == MOD_P1 else []
    for n in (12, 30, 30, 60, 60):
        g = _random_symmetric(rng, n, rng.randint(2, 12), rng.randint(0, 6))
        g = [[v % p for v in row] for row in g]
        cases += [(g, n), (g, n // 3)]
    seen = []
    for g, start in cases:
        n = len(g)
        parents = {}
        for c in range(start, n):
            parents.setdefault(rng.randrange(c), []).append(c)
        pivots = [cls(rows_of(lambda a, b, g=g: g[a][b]), p) for cls in (_SymPivot, ListPivot)]
        for piv in pivots:
            piv.select(range(start), lambda h, parents=parents: parents.get(h, ()))
        packed, oracle = pivots
        assert packed.keys == oracle.keys
        assert packed._h == oracle._h
        pairs = any(len(row) == 2 for row, _ in packed._zrows)
        seen.append((len(packed.keys), len(packed._h), pairs and start < n,
                     not any(g[i][i] for i in range(n))))
    if p == MOD_P1:
        assert seen[0][:2] == (200, 40)
    # some cases take 2x2 steps on a bred selection with handles left over,
    # some have a zero diagonal
    assert any(left and bred_pairs for _, left, bred_pairs, _ in seen)
    assert any(zero for *_, zero in seen)


def test_packed_pivot_matches_list_oracle_on_real_inputs(monkeypatch):
    # the enumerations and the certified curated selections pick the same
    # keys, in the same order, with the list oracle as the pivot.  The
    # oracle's selections are taken as they come (no certificate): an
    # uncertified packed selection would be redone over Q and differ
    from octqft import gram

    grams = [_integer_gram(*_curated_gram(obj, chi))
             for obj in "SI" for chi in (CHI2, CHI_TWO_GEOMETRIC)]

    def picks(pivot):
        monkeypatch.setattr(gram, "_SymPivot", pivot)
        out = []
        for obj, budget in (("S", 6), ("I", 6), ("SI", 6), ("II", 4)):
            monkeypatch.setattr(gram, "_ENUM_CACHE", {})
            out.append([e.summary_ids() for e in enumerate_end_terms(obj, budget).spanning])
        return out + [_certified_keys(a) for a in grams]
    packed = picks(_SymPivot)
    # a stub that always held would end each selection at its first stall.
    # This one holds once the keys reach the rank the packed run certified,
    # so the list oracle runs every earlier stall, 2x2 steps included, and
    # each curated selection must end at the stub, not fall through to Q
    ranks = {id(a): len(keys) for a, keys in zip(grams, packed[4:])}
    stops = []

    def at_rank(a, keys):
        if len(keys) < ranks[id(a)]:
            return False
        stops.append(id(a))
        return True
    monkeypatch.setattr(gram, "_schur_vanishes", at_rank)
    assert picks(ListPivot) == packed
    assert sorted(stops) == sorted(ranks)


def test_certified_keys_match_the_whole_selection_oracle():
    # certifying at each stall and stopping once the certificate holds picks
    # the keys of the whole modular selection followed by the certificate,
    # in the same order, the fallback over Q included
    rng = random.Random(20231217)
    seeded = [_random_symmetric(rng, rng.randint(1, 12)) for _ in range(40)]
    assert any(not any(g[i][i] for i in range(len(g))) and any(map(any, g)) for g in seeded)
    lifted = [[[MOD_P1 * v for v in row] for row in g] for g in seeded[:12]]
    assert any(any(map(any, g)) for g in lifted)
    for g in seeded + lifted + [[[0] * 6 for _ in range(6)], *_RANK_LOST_MOD_P]:
        keys = _certified_keys(g)
        assert keys == certified_keys_after_select([[Fraction(v) for v in row] for row in g])
        # the map passes decide as the entry-by-entry certificate, on the
        # rank and one short of it
        for k in {len(keys), max(len(keys) - 1, 0)}:
            assert _schur_vanishes(g, keys[:k]) == schur_vanishes_by_entries(g, keys[:k])
    for obj, chi in product("SI", (CHI2, CHI_TWO_GEOMETRIC, CHI_POLY3)):
        rows, values = _curated_gram(obj, chi)
        fractions = [[values[c] for c in row] for row in rows]
        a = _integer_gram(rows, values)
        assert a == scaled_gram(fractions)
        assert _certified_keys(a) == certified_keys_after_select(fractions)


def test_chi1_s_rank_is_proved_by_one_certificate(monkeypatch):
    # on the curated S rows under χ₁ the first stall is certified at once:
    # no pair is sought mod p and the exact check runs once
    from octqft import gram

    pairs, certificates = [], []
    first_pair, schur_vanishes = _SymPivot.first_pair, gram._schur_vanishes
    monkeypatch.setattr(_SymPivot, "first_pair",
                        lambda self, cands: pairs.append(cands) or first_pair(self, cands))
    monkeypatch.setattr(gram, "_schur_vanishes",
                        lambda a, keys: certificates.append(list(keys)) or schur_vanishes(a, keys))
    keys = _certified_keys(_integer_gram(*_curated_gram("S", CHI2)))
    assert len(keys) == 2
    assert pairs == []
    assert certificates == [keys]


# ---------------------------------------------------------------------------
# nilpotent-trace witnesses

_ONE_OVER_1_MINUS_XY = ({(0, 0): 1}, {(0, 0): 1, (1, 1): -1})
_ONE_OVER_1_MINUS_Y_SQUARED = ({(0, 0): 1}, {(0, 0): 1, (0, 1): -2, (0, 2): 1})


@pytest.mark.parametrize("obj, gf, degree, trace", [
    ("S", _ONE_OVER_1_MINUS_XY, 4, 1),
    ("I", _ONE_OVER_1_MINUS_XY, 2, 1),
    ("I", _ONE_OVER_1_MINUS_Y_SQUARED, 2, -1),
])
def test_witness_budget_four(obj, gf, degree, trace):
    w = nilpotent_trace_obstruction(obj, rational_character(*gf), 4)
    assert w is not None
    assert w.object == obj
    assert (w.degree, w.trace) == (degree, trace)


def test_witness_absent_for_good_character():
    # a good character has a semisimple quotient: no nilpotent carries trace
    assert nilpotent_trace_obstruction("I", CHI2, 4) is None


@pytest.mark.parametrize("gf, budget, message", [
    (_ONE_OVER_1_MINUS_XY, 4, "associativity fails on basis triple (0,0,1); grow the spanning set"),
    (_ONE_OVER_1_MINUS_XY, 6, "associativity fails on basis triple (0,0,15); grow the spanning set"),
    (_ONE_OVER_1_MINUS_Y_SQUARED, 2,
     "identity does not act as the unit on the structure constants; grow the spanning set"),
])
def test_quotient_failure_messages_pinned(gf, budget, message):
    # the enumerated classes of S are not closed under composition here,
    # and the message names the first check that sees it
    chi = rational_character(*gf)
    with pytest.raises(IncompleteSpanningError) as err:
        quotient_algebra(enumerate_end_terms("S", budget), chi)
    assert str(err.value) == message


@pytest.mark.parametrize("gf, dim", [(_ONE_OVER_1_MINUS_XY, 4), (_ONE_OVER_1_MINUS_Y_SQUARED, 7)])
def test_enumerated_quotient_is_frobenius_under_trace(gf, dim):
    qa = quotient_algebra(enumerate_end_terms("I", 6), rational_character(*gf))
    assert qa.dim == dim
    _assert_frobenius_under_trace(qa)


# ---------------------------------------------------------------------------
# the pairing rows against the pair-by-pair oracle


@pytest.mark.parametrize("space", ["S", "I", "II@4"])
def test_pairing_rows_match_the_pair_by_pair_oracle(space, monkeypatch):
    # pair, categorical_trace, is_negligible and the quotient's tensors read
    # rows of gram._pairing_row; the oracle pairs term by term, with every
    # term summarized from its tree.  The combinations mix coefficients,
    # composites and repeated terms
    from octqft import gram

    if space == "II@4":
        chi = rational_character(*_ONE_OVER_1_MINUS_XY)
        ts = enumerate_end_terms("II", 4)
        [v] = nullspace(gram_rank(ts, chi)[0])[:1]
        negligible = [LinComb([(c, e.terms[0][1]) for c, e in zip(v, ts.spanning) if c])]
    else:
        chi = CHI_TWO_GEOMETRIC
        ts = spanning_end(space, chi)
        e = handle_idempotent(chi, 2) if space == "S" else hole_idempotent(chi, 3)
        negligible = [lc_sub(lc_compose(e, e), e)]
    spanning, one = ts.spanning, lc_identity(ts.object)
    rng = random.Random(59)

    def combination():
        f = LinComb([])
        for _ in range(rng.randint(1, 3)):
            e = rng.choice(spanning)
            if rng.random() < 0.5:
                e = lc_compose(e, rng.choice(spanning))
            f = lc_add(f, lc_scale(e, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))))
        return f

    for _ in range(30):
        f, g = combination(), combination()
        assert pair(f, g, chi) == pair_by_pairs(f, g, chi)
        assert categorical_trace(f, chi) == pair_by_pairs(f, one, chi)
    candidates = negligible + [one, combination()]
    verdicts = [is_negligible(f, ts, chi) for f in candidates]
    assert verdicts == [all(not pair_by_pairs(f, s, chi) for s in spanning) for f in candidates]
    assert verdicts[:2] == [True, False]

    # the quotient of II@4 fails associativity; its tensors are read where
    # the unit check receives them.  Coordinates are G⁻¹ times the pairings
    # with the basis
    seen = {}
    real = gram._unital_violation
    monkeypatch.setattr(gram, "_unital_violation",
                        lambda n, product, unit: seen.update(product=product, unit=unit)
                        or real(n, product, unit))
    try:
        qa = quotient_algebra(ts, chi)
    except IncompleteSpanningError:
        assert space == "II@4"
        qa = None
    chosen, gb = (qa.basis_indices, qa.gram) if qa else _pivot_basis(ts, chi)
    basis, ginv, n = [spanning[i] for i in chosen], gb.inverse(), len(chosen)
    traces = [pair_by_pairs(b, one, chi) for b in basis]
    assert seen["unit"].entries == (ginv * Matrix(n, 1, traces)).entries
    if qa is not None:
        assert qa.trace_vec == tuple(traces)
    products = [(a, b) for a in range(n) for b in range(n)]
    for a, b in rng.sample(products, min(len(products), 40)):
        column = [pair_by_pairs(lc_compose(basis[a], basis[b]), h, chi) for h in basis]
        expected = (ginv * Matrix(n, 1, column)).entries
        assert [seen["product"][(c, a, b)] for c in range(n)] == expected
