import random
from fractions import Fraction

import pytest

from octqft.numkit import Matrix, rat
from octqft.frobenius import ConsistencyError, make_A
from octqft.kfa import (
    make_semisimple_kfa,
    make_nonsemisimple_kfa,
    make_closed_only,
    kfa_sum,
    kfa_product,
    scale_kfa,
    check_kfa,
    invariant_table,
    KFA,
)
from octqft.character import CharacterForm, eval_character
from octqft.cobordism import (
    GEN_SIGNATURES,
    DiagramSummary,
    Gen,
    Id,
    Swap,
    Compose,
    Tensor,
    LinComb,
    ParseError,
    TermTypeError,
    parse,
    pretty,
    typecheck,
    evaluate,
    summarize,
    compose_summaries,
    summary_closure,
    _leaf_summary,
    RELATION_FAMILIES,
    check_relations,
)
from oracles import (
    components,
    euler_characteristic,
    surface_types,
    classify_closed_connected,
    chi_value,
    fold_signature,
    network,
    network_summary,
    summary_key,
    _analyze,
)


def sigma_term(g: int, w: int):
    """Normal form of the connected surface with genus g and w windows:
    a closed tube with g handle loops and w zipper-cozipper excursions."""
    parts = ["uS"] + ["dS ; mS"] * g + ["z ; zs"] * w + ["eS"]
    return parse(" ; ".join(parts))


def test_parse_structure():
    t = parse("uS ; z ; eI")
    assert t == Compose(Compose(Gen("uS"), Gen("z")), Gen("eI"))
    assert parse("uS;z;eI") == t
    assert parse("uI * uI ; mI") == Compose(Tensor(Gen("uI"), Gen("uI")), Gen("mI"))
    assert parse("id:ISI") == Id("ISI")
    assert parse("sw:I,S") == Swap("I", "S")


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        parse("uS ;; eS")
    assert err.value.line == 1
    assert err.value.col == 5
    with pytest.raises(ParseError):
        parse("uS ; qq")
    with pytest.raises(ParseError):
        parse("id:Q")
    with pytest.raises(ParseError):
        parse("(uS ; eS")
    with pytest.raises(ParseError):
        parse("uS ; eS )")
    with pytest.raises(ParseError) as err2:
        parse("uS ;\n eS ; ?")
    assert err2.value.line == 2


def test_pretty_canonical():
    samples = [
        "uS;(dS;mS);eS",
        "(uS ; eS) * (uI ; eI)",
        "uI * uI ; mI",
        "dI ; sw:I,I ; mI",
        "(z * id:I) ; mI ; eI",
    ]
    for s in samples:
        canon = pretty(parse(s))
        assert pretty(parse(canon)) == canon
    assert pretty(parse("uS;(dS;mS);eS")) == "uS ; dS ; mS ; eS"
    assert pretty(parse("(uS ; eS) * (uI ; eI)")) == "(uS ; eS) * (uI ; eI)"


def test_pretty_of_1000_generators():
    # deeper than the interpreter's recursion limit
    text = " ; ".join(["dS ; mS"] * 500)
    assert pretty(parse(text)) == text


def test_typecheck():
    assert typecheck(parse("mI")) == ("II", "I")
    assert typecheck(parse("(z * z) ; mI")) == ("SS", "I")
    assert typecheck(parse("id:SI")) == ("SI", "SI")
    assert typecheck(parse("sw:I,S")) == ("IS", "SI")
    assert typecheck(parse("uS ; z ; eI")) == ("", "")
    with pytest.raises(TermTypeError) as err:
        typecheck(parse("z ; mS"))
    msg = str(err.value)
    assert "'I'" in msg and "'SS'" in msg


def test_evaluate_examples():
    k = make_semisimple_kfa(2, 1)
    assert evaluate(parse("uS ; z ; eI"), k) == 2
    assert evaluate(parse("id:I"), k) == Matrix.identity(4)
    assert evaluate(parse("sw:I,S ; sw:S,I"), k) == Matrix.identity(4 * 1)
    # the sphere
    assert evaluate(parse("uS ; eS"), k) == 1


def test_evaluate_swap_convention():
    k = make_nonsemisimple_kfa(1, 1, 1, 0, 0)
    d = k.open.dim
    m = evaluate(parse("sw:I,I"), k)
    for i in range(d):
        for j in range(d):
            assert m[j * d + i, i * d + j] == 1


def test_evaluate_lincomb():
    k = make_semisimple_kfa(2, 1)
    sphere = parse("uS ; eS")
    two_spheres = parse("(uS ; eS) * (uS ; eS)")
    lc = LinComb([(rat(5), sphere), (rat(-3), two_spheres)])
    assert evaluate(lc, k) == 2
    with pytest.raises(TermTypeError):
        LinComb([(rat(1), sphere), (rat(1), parse("id:S"))])
    with pytest.raises(ValueError):
        evaluate(LinComb([]), k)


def test_sigma_terms_match_invariant_table():
    zoo = [
        make_semisimple_kfa(2, 1),
        make_semisimple_kfa(3, 2),
        make_nonsemisimple_kfa(1, 1, 1, 0, 0),
        make_nonsemisimple_kfa(2, 1, 2, Fraction(1, 2), 1),
    ]
    for k in zoo:
        table = invariant_table(k, 3, 3)
        for g in range(4):
            for w in range(4):
                assert evaluate(sigma_term(g, w), k) == table.values[g][w]


# the hand-computed answers below hold for the wire-graph oracle and for
# the closed types of the folded summary alike


def test_components():
    assert components(parse("uS ; eS")) == [[0, 1]]
    assert components(parse("(uS ; eS) * (uI ; eI)")) == [[0, 1], [2, 3]]
    t = parse("(uS ; dS ; mS ; eS) * (uS ; z ; eI) * (uS ; eS)")
    assert len(components(t)) == 3
    assert summarize(t).closed == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(TermTypeError):
        components(parse("id:S"))


def test_euler_characteristic():
    for text, euler in [("uS ; eS", 2), ("uS ; dS ; mS ; eS", 0), ("uI ; dI ; mI ; eI", 0),
                        ("uS ; z ; eI", 1), ("uS ; z ; zs ; z ; zs ; eS", 0)]:
        assert euler_characteristic(parse(text)) == euler
        (g, w), = summarize(parse(text)).closed
        assert 2 - 2 * g - w == euler


def test_classify_closed_connected():
    for text, gw in [("uS ; dS ; mS ; eS", (1, 0)), ("uS ; z ; eI", (0, 1)),
                     ("uS ; z ; zs ; z ; zs ; eS", (0, 2)), ("uI ; dI ; mI ; eI", (0, 2)),
                     ("uS ; eS", (0, 0))]:
        assert classify_closed_connected(parse(text)) == gw
        assert summarize(parse(text)).closed == (gw,)


def test_classify_sigma_grid():
    for g in range(6):
        for w in range(6):
            assert classify_closed_connected(sigma_term(g, w)) == (g, w)
            assert summarize(sigma_term(g, w)).closed == ((g, w),)


def test_classify_rejections():
    with pytest.raises(TermTypeError):
        classify_closed_connected(parse("z ; zs"))
    with pytest.raises(TermTypeError):
        classify_closed_connected(parse("(uS ; eS) * (uS ; eS)"))


def test_surface_types_multicomponent():
    t = parse("(uS ; dS ; mS ; eS) * (uS ; z ; eI)")
    assert sorted(surface_types(t)) == [(0, 1), (1, 0)]
    assert summarize(t).closed == ((0, 1), (1, 0))
    t2 = parse("(uI ; dI ; mI ; eI) * (uS ; eS)")
    assert sorted(surface_types(t2)) == [(0, 0), (0, 2)]
    assert summarize(t2).closed == ((0, 0), (0, 2))


def test_nodeless_loops():
    net = network(parse("id:S"))
    net.close()
    assert _analyze(net) == [(1, 0)]
    net = network(parse("id:I"))
    net.close()
    assert _analyze(net) == [(0, 2)]
    net = network(parse("sw:I,I"))
    net.close()
    # the swap trace is a single loop through both strands
    assert _analyze(net) == [(0, 2)]


def _chi_of_closed(t, chi):
    value = 1
    for g, w in summarize(t).closed:
        value *= eval_character(chi, g, w)
    return value


def test_chi_value():
    chi = CharacterForm.make(exp_terms=[(2, 3, 1)])
    chi2 = CharacterForm.make(exp_terms=[(2, 3, 4)])
    zero = CharacterForm.make()
    both = Tensor(sigma_term(0, 0), sigma_term(1, 1))
    for t, c, value in [(sigma_term(1, 0), chi, 2), (both, chi2, 96), (sigma_term(0, 0), zero, 0)]:
        assert chi_value(t, c) == value
        assert _chi_of_closed(t, c) == value


def test_chi_value_matches_evaluation():
    from octqft.kfa import character_of

    k = make_nonsemisimple_kfa(2, 1, 2, Fraction(1, 2), 1)
    chi = character_of(k)
    for text in [
        "uS ; dS ; mS ; eS",
        "(uS ; z ; eI) * (uS ; eS)",
        "uI ; dI ; mI ; eI",
    ]:
        t = parse(text)
        assert chi_value(t, chi) == evaluate(t, k)


def test_relation_families_cover_expected_names():
    assert len(RELATION_FAMILIES) == 19
    for family, pairs in RELATION_FAMILIES.items():
        for lhs, rhs in pairs:
            assert typecheck(parse(lhs)) == typecheck(parse(rhs))


def test_relations_hold_on_valid_structures():
    zoo = [
        make_semisimple_kfa(2, 1),
        make_semisimple_kfa(3, 2),
        make_nonsemisimple_kfa(1, 1, 1, 0, 0),
        make_nonsemisimple_kfa(2, 1, 2, Fraction(1, 2), 1),
        kfa_sum(make_semisimple_kfa(2, 1), make_nonsemisimple_kfa(1, 1, 1, 0, 0)),
        kfa_product(make_semisimple_kfa(2, 1), make_nonsemisimple_kfa(1, 1, 1, 2, 5)),
        scale_kfa(make_nonsemisimple_kfa(1, 2, 1, 2, 3), Fraction(1, 2)),
        scale_kfa(make_semisimple_kfa(2, 1), -1),
        make_closed_only(make_A(2, 1, 0)),
    ]
    for k in zoo:
        rel = check_relations(k)
        bad = [name for name, ok in rel.items() if not ok]
        assert not bad, f"violated: {bad}"


def _failed_relations(k):
    return {name for name, ok in check_relations(k).items() if not ok}


def test_relations_detect_broken_zipper():
    k = make_semisimple_kfa(2, 1)
    broken = KFA(k.open, k.closed, k.zipper.scale(rat(2)), k.cozipper)
    assert _failed_relations(broken) == {"zipper_unit", "zipper_multiplicative", "duality", "cardy"}
    assert check_kfa(broken).first_violation.startswith("zipper_unital")


def test_relations_detect_scaled_cozipper():
    k = make_semisimple_kfa(2, 1)
    broken = KFA(k.open, k.closed, k.zipper, k.cozipper.scale(rat(3)))
    assert _failed_relations(broken) == {"duality", "cardy"}
    assert check_kfa(broken).first_violation.startswith("duality")


def test_evaluate_is_monoidal():
    k = make_nonsemisimple_kfa(1, 1, 1, 0, 0)
    for left, right in [("z", "zs"), ("mI", "dS"), ("id:I", "uS ; z")]:
        tl, tr = parse(left), parse(right)
        assert evaluate(Tensor(tl, tr), k) == evaluate(tl, k).kron(evaluate(tr, k))


# ---------------------------------------------------------------------------
# diagram summaries


def _closure_via_network(term):
    net = network(term)
    net.close()
    return tuple(sorted(_analyze(net)))


def _random_endo(rng, word, depth):
    pool = {
        "I": ["id:I", "eI ; uI", "zs ; z", "dI ; mI", "zs ; dS ; mS ; z"],
        "S": ["id:S", "eS ; uS", "z ; zs", "dS ; mS"],
    }
    factors = []
    for letter in word:
        factors.append(parse(rng.choice(pool[letter])))
    t = factors[0]
    for f in factors[1:]:
        t = Tensor(t, f)
    if len(word) >= 2:
        for _ in range(depth):
            i = rng.randrange(len(word) - 1)
            if word[i] == word[i + 1]:
                layers = []
                for j, letter in enumerate(word):
                    if j == i:
                        layers.append(parse(f"sw:{letter},{letter}"))
                    elif j == i + 1:
                        continue
                    else:
                        layers.append(parse(f"id:{letter}"))
                sw = layers[0]
                for f in layers[1:]:
                    sw = Tensor(sw, f)
                t = Compose(t, sw)
    return t


def test_summary_closure_matches_network_analysis():
    import random

    rng = random.Random(7)
    for word in ["I", "S", "II", "IS", "III"]:
        for _ in range(25):
            a = _random_endo(rng, word, 2)
            b = _random_endo(rng, word, 2)
            sa = summarize(a)
            sb = summarize(b)
            got = summary_closure(sa, sb)
            assert got == _closure_via_network(Compose(a, b))


def test_summary_closure_of_pair_equals_closure_of_composite():
    import random

    rng = random.Random(23)
    for word in ["I", "S", "II", "IS", "SI", "III", "ISI"]:
        ident = summarize(Id(word))
        for _ in range(200):
            a = _random_endo(rng, word, 2)
            b = _random_endo(rng, word, 2)
            sa, sb = summarize(a), summarize(b)
            got = summary_closure(sa, sb)
            assert got == summary_closure(compose_summaries(sa, sb), ident)
            assert got == summary_closure(sb, sa)
            assert got == _closure_via_network(Compose(a, b))


def _same_partition(summaries, keys):
    # equal summaries exactly where the oracle keys are equal
    return len(set(summaries)) == len(set(keys)) == len(set(zip(summaries, keys)))


def test_summary_compose_matches_summarize_of_composite():
    import random

    rng = random.Random(19)
    glued, keys = [], []
    for word in ["II", "III"]:
        for _ in range(20):
            a = _random_endo(rng, word, 3)
            b = _random_endo(rng, word, 3)
            glued.append(compose_summaries(summarize(a), summarize(b)))
            keys.append(network_summary(Compose(a, b)))
    assert _same_partition(glued, keys)
    assert len(set(keys)) < len(keys)


def test_leaf_summaries_match_the_oracle():
    leaves = [Gen(name) for name in GEN_SIGNATURES]
    leaves += [Id(word) for word in ["I", "S", "IS", "SSI", "ISIS"]]
    leaves += [Swap(x, y) for x in "IS" for y in "IS"]
    for node in leaves:
        assert summary_key(_leaf_summary(node)) == network_summary(node)


# pieces of one layer of a random term, by the word they act on
_PIECES = {
    "": ["uI", "uS"],
    "I": ["id:I", "eI", "dI", "zs", "dI ; mI", "eI ; uI"],
    "S": ["id:S", "eS", "dS", "z", "dS ; mS", "eS ; uS"],
    "II": ["mI", "sw:I,I"],
    "SS": ["mS", "sw:S,S"],
    "IS": ["sw:I,S"],
    "SI": ["sw:S,I"],
}


def _random_layer(rng, word):
    """A tensor of pieces across word, sometimes with a unit beside them,
    whose codomain has at most four letters."""
    while True:
        pieces = []
        i = 0
        while i < len(word):
            span = 2 if i + 1 < len(word) and rng.random() < 0.35 else 1
            pieces.append(parse(rng.choice(_PIECES[word[i:i + span]])))
            i += span
        if not word or rng.random() < 0.15:
            pieces.insert(rng.randrange(len(pieces) + 1), parse(rng.choice(_PIECES[""])))
        layer = pieces[0]
        for p in pieces[1:]:
            layer = Tensor(layer, p)
        if len(typecheck(layer)[1]) <= 4:
            return layer


def _layered_terms(rng, per_word):
    """Random well-typed terms: an identity followed by one to four random
    layers, per_word of them on each of eight words."""
    for word in ["I", "S", "II", "IS", "SI", "SS", "III", "ISI"]:
        for _ in range(per_word):
            t = Id(word)
            for _ in range(rng.randint(1, 4)):
                t = Compose(t, _random_layer(rng, fold_signature(t)[1]))
            yield t


def test_summaries_in_bijection_with_the_oracle():
    summaries, keys = [], []
    for t in _layered_terms(random.Random(61), 150):
        summaries.append(summarize(t))
        keys.append(network_summary(t))
    assert _same_partition(summaries, keys)
    assert len(set(keys)) < len(keys)


def _type_error(typing, t):
    with pytest.raises(TermTypeError) as err:
        typing(t)
    return str(err.value)


def test_typecheck_matches_the_fold_oracle():
    # typecheck reads the shape of the summary; the oracle folds the
    # signatures of the leaves.  Ill-typed composites fail at the same
    # join of the same walk, with the same text
    sides = [parse(side) for pairs in RELATION_FAMILIES.values()
             for pair in pairs for side in pair]
    terms = list(_layered_terms(random.Random(61), 150))
    for t in sides + terms:
        assert typecheck(t) == fold_signature(t)

    ill = [parse("uS ; eI"), parse("eS ; eS"), parse("uS ; (z * id:S) ; mI")]
    rng = random.Random(5)
    for t in terms[::10]:
        cod = fold_signature(t)[1]
        word = rng.choice([w for w in _PIECES if w and w != cod])
        wrong = Compose(t, _random_layer(rng, word))
        ill += [wrong, Tensor(Id("S"), wrong), Compose(Tensor(wrong, t), Id(cod))]
    texts = {_type_error(fold_signature, t) for t in ill}
    assert "cannot compose: codomain 'empty' does not match domain 'S'" in texts
    for t in ill:
        assert _type_error(typecheck, t) == _type_error(fold_signature, t)


def test_summarize_4000_generators():
    # deeper than the interpreter's recursion limit
    s = summarize(parse(" ; ".join(["dS ; mS"] * 2000)))
    assert s == DiagramSummary("S", "S", (0, 0), ((-4000, 0),), (-1,) * 4, ())
    assert summary_closure(s, summarize(Id("S"))) == ((2001, 0),)


def test_labels_with_no_genus_raise_on_every_call():
    # the plans depend on the shapes alone, so the genus of each closing
    # component is checked on every call, also once the plan is built
    cylinder = summarize(Id("S"))
    cup = summarize(Gen("uS"))
    for euler, windows in [(5, 0), (1, 0), (0, 3)]:
        # a closed component has Euler characteristic 2 - 2g - w: (5, 0)
        # and (0, 3) overshoot 2, and (1, 0) leaves an odd 2 - 2g
        tube = DiagramSummary("S", "S", (0, 0), ((euler, windows),), (-1,) * 4, ())
        cap = DiagramSummary("S", "", (0,), ((euler - 1, windows),), (-1, -1), ())
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="no valid genus"):
                summary_closure(tube, cylinder)
            with pytest.raises(ConsistencyError, match="no valid genus"):
                compose_summaries(cup, cap)
    assert summary_closure(cylinder, cylinder) == ((1, 0),)
    assert compose_summaries(cup, summarize(Gen("eS"))).closed == ((0, 0),)


def test_summary_closure_of_identity_words():
    def closure(text, word):
        return summary_closure(summarize(parse(text)), summarize(Id(word)))

    assert closure("id:S", "S") == ((1, 0),)
    assert closure("id:I", "I") == ((0, 2),)
    assert closure("sw:I,I", "II") == ((0, 2),)
    assert closure("sw:S,S", "SS") == ((1, 0),)
