"""Exact reports of the Frobenius and open-closed axiom checks.

Every message template of check_frobenius and check_kfa is pinned on a
hand-broken structure, and a seeded corpus of perturbed structures pins the
reports (flags, first violation and details) of check_kfa, check_frobenius,
frobenius_from_form and central_transition by the sha256 of their JSON.
"""
import hashlib
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from octqft.numkit import Matrix, Tensor
from octqft.frobenius import (
    AxiomError,
    ConsistencyError,
    FrobeniusAlgebra,
    RankError,
    central_transition,
    check_frobenius,
    frobenius_from_form,
    make_A,
    make_F,
)
from octqft.kfa import (
    KFA,
    KFA_FLAGS,
    check_kfa,
    kfa_product,
    kfa_sum,
    make_closed_only,
    make_nonsemisimple_kfa,
    make_semisimple_kfa,
    scale_kfa,
)
from oracles import (
    associative_violation_by_fractions,
    central_transition_by_fractions,
    check_frobenius_by_fractions,
    check_kfa_by_fractions,
    unital_violation_by_fractions,
)

ALGEBRA_PARTS = ("product", "unit", "coproduct", "counit")


def _edited(t, idx, value):
    """Copy of a Tensor or Matrix with one entry replaced."""
    if isinstance(t, Tensor):
        out = Tensor(t.shape, list(t.entries))
    else:
        out = Matrix(t.rows, t.cols, list(t.entries))
    out[idx] = value
    return out


def _edit_algebra(fa, part, idx, value):
    parts = {name: getattr(fa, name) for name in ALGEBRA_PARTS}
    parts[part] = _edited(parts[part], idx, value)
    return FrobeniusAlgebra(**parts)


def _edit_kfa(k, part, idx, value):
    """part is "zipper", "cozipper" or (sector, tensor name)."""
    parts = {"open_": k.open, "closed": k.closed, "zipper": k.zipper, "cozipper": k.cozipper}
    if isinstance(part, tuple):
        sector, name = part
        key = "open_" if sector == "open" else "closed"
        parts[key] = _edit_algebra(parts[key], name, idx, value)
    else:
        parts[part] = _edited(parts[part], idx, value)
    return KFA(**parts)


FROB_1 = "coproduct o product and (product x id)(id x coproduct) differ"
FROB_2 = "coproduct o product and (id x product)(coproduct x id) differ"

# (base, edited tensor, index, new value, first_violation, details)
FROBENIUS_CASES = [
    ("A110", "product", (1, 0, 0), 1,
     "unital: unit * e_0 != e_0",
     {"unital": "unit * e_0 != e_0"}),
    ("F21", "unit", (1,), 1,
     "unital: e_0 * unit != e_0",
     {"unital": "e_0 * unit != e_0",
      "commutative": "e_1 e_2 and e_2 e_1 differ in the e_0 component"}),
    ("A110", "coproduct", (1, 1, 0), 1,
     "counital: (counit x id) o coproduct != id at basis 0",
     {"counital": "(counit x id) o coproduct != id at basis 0"}),
    ("A010", "coproduct", (0, 1, 0), 0,
     "counital: (id x counit) o coproduct != id at basis 0",
     {"counital": "(id x counit) o coproduct != id at basis 0",
      "frobenius": f"{FROB_1} at input (1,0) component (1,1)"}),
    ("A110", "product", (0, 1, 1), 1,
     "associative: (e_1 e_1) e_2 and e_1 (e_1 e_2) differ in the e_2 component",
     {"associative": "(e_1 e_1) e_2 and e_1 (e_1 e_2) differ in the e_2 component",
      "frobenius": f"{FROB_1} at input (1,0) component (0,0)"}),
    ("A110", "coproduct", (0, 0, 0), 1,
     "coassociative: coassociativity fails on basis 0 at component (0,2,2)",
     {"coassociative": "coassociativity fails on basis 0 at component (0,2,2)",
      "frobenius": f"{FROB_1} at input (1,0) component (1,0)"}),
    ("A110", "product", (1, 2, 2), 2,
     f"frobenius: {FROB_1} at input (2,0) component (1,2)",
     {"frobenius": f"{FROB_1} at input (2,0) component (1,2)"}),
    ("A010", "coproduct", (1, 0, 0), 0,
     "counital: (counit x id) o coproduct != id at basis 0",
     {"counital": "(counit x id) o coproduct != id at basis 0",
      "frobenius": f"{FROB_2} at input (0,1) component (1,1)"}),
    ("A110", "product", (1, 2, 2), 0,
     f"frobenius: {FROB_1} at input (2,0) component (1,2)",
     {"frobenius": f"{FROB_1} at input (2,0) component (1,2)",
      "pairing_nondegenerate": "pairing has rank 2 of 3"}),
    ("F21", "counit", (0,), 2,
     "counital: (counit x id) o coproduct != id at basis 0",
     {"counital": "(counit x id) o coproduct != id at basis 0",
      "commutative": "e_1 e_2 and e_2 e_1 differ in the e_0 component",
      "symmetric": "pairing(e_1, e_2) != pairing(e_2, e_1)"}),
]

KFA_CASES = [
    ("ss21", ("open", "product"), (0, 1, 1), 1,
     "open_frobenius: associative: (e_1 e_0) e_1 and e_1 (e_0 e_1) differ in the e_0 component",
     {"open_frobenius": "associative: (e_1 e_0) e_1 and e_1 (e_0 e_1) differ in the e_0 component"}),
    ("ss21", ("closed", "coproduct"), (0, 0, 0), 2,
     "closed_frobenius: counital: (counit x id) o coproduct != id at basis 0",
     {"closed_frobenius": "counital: (counit x id) o coproduct != id at basis 0"}),
    ("ns11100", ("closed", "product"), (1, 1, 0), 2,
     "closed_frobenius: unital: e_1 * unit != e_1",
     {"closed_frobenius": "unital: e_1 * unit != e_1",
      "closed_commutative": "e_0 e_1 and e_1 e_0 differ in the e_1 component"}),
    ("ns11100", ("closed", "coproduct"), (0, 1, 0), 4,
     "closed_frobenius: counital: (id x counit) o coproduct != id at basis 0",
     {"closed_frobenius": "counital: (id x counit) o coproduct != id at basis 0",
      "closed_cocommutative": "coproduct of basis 0 is not swap-invariant at component (0,1)"}),
    ("ss21", ("open", "product"), (0, 1, 2), 2,
     "open_frobenius: associative: (e_1 e_2) e_1 and e_1 (e_2 e_1) differ in the e_1 component",
     {"open_frobenius": "associative: (e_1 e_2) e_1 and e_1 (e_2 e_1) differ in the e_1 component",
      "open_symmetric": "pairing(e_1, e_2) != pairing(e_2, e_1)",
      "cardy": "Cardy relation fails at open entry (0,3)"}),
    ("ss21", ("open", "coproduct"), (0, 1, 0), 1,
     "open_frobenius: counital: (counit x id) o coproduct != id at basis 0",
     {"open_frobenius": "counital: (counit x id) o coproduct != id at basis 0",
      "open_cosymmetric": "copairing component (0,1) != (1,0)"}),
    ("ns11100", "zipper", (0, 0), 2,
     "zipper_unital: zipper(closed unit) != open unit",
     {"zipper_unital": "zipper(closed unit) != open unit",
      "zipper_homomorphism": "zipper(e_0 e_0) != zipper(e_0) zipper(e_0)",
      "duality": "pairing duality fails at closed 0, open 1"}),
    ("ns11100", "zipper", (0, 1), 1,
     "zipper_homomorphism: zipper(e_1 e_1) != zipper(e_1) zipper(e_1)",
     {"zipper_homomorphism": "zipper(e_1 e_1) != zipper(e_1) zipper(e_1)",
      "duality": "pairing duality fails at closed 1, open 1",
      "cardy": "Cardy relation fails at open entry (0,1)"}),
    ("ss21", ("open", "product"), (1, 0, 1), 2,
     "open_frobenius: unital: unit * e_1 != e_1",
     {"open_frobenius": "unital: unit * e_1 != e_1",
      "zipper_central": "zipper(e_0) does not commute with open basis 1"}),
    ("ns11100", "cozipper", (1, 0), 1,
     "duality: pairing duality fails at closed 0, open 0",
     {"duality": "pairing duality fails at closed 0, open 0"}),
    ("ss21", "cozipper", (0, 0), 2,
     "duality: pairing duality fails at closed 0, open 0",
     {"duality": "pairing duality fails at closed 0, open 0",
      "cardy": "Cardy relation fails at open entry (0,0)"}),
]

ALGEBRAS = {"A110": lambda: make_A(1, 1, 0), "A010": lambda: make_A(0, 1, 0), "F21": lambda: make_F(2, 1)}
KFAS = {"ss21": lambda: make_semisimple_kfa(2, 1), "ns11100": lambda: make_nonsemisimple_kfa(1, 1, 1, 0, 0)}


@pytest.mark.parametrize("base, part, idx, value, first, details", FROBENIUS_CASES)
def test_check_frobenius_messages(base, part, idx, value, first, details):
    rep = check_frobenius(_edit_algebra(ALGEBRAS[base](), part, idx, value))
    assert rep.first_violation == first
    assert rep.details == details


@pytest.mark.parametrize("base, part, idx, value, first, details", KFA_CASES)
def test_check_kfa_messages(base, part, idx, value, first, details):
    rep = check_kfa(_edit_kfa(KFAS[base](), part, idx, value))
    assert rep.first_violation == first
    assert rep.details == details


def test_message_cases_cover_every_template():
    # a template is a message with its indices blanked out
    templates = {re.sub(r"\d+", "#", msg) for *_, details in FROBENIUS_CASES for msg in details.values()}
    assert len(templates) == 11
    assert {flag for *_, details in KFA_CASES for flag in details} == set(KFA_FLAGS)


# ---------------------------------------------------------------------------
# seeded perturbation corpus

CORPUS_SEED = 8
KFA_PERTURBATIONS = 300
ALGEBRA_PERTURBATIONS = 120
# sha256 of the JSON of every report in the corpus, recorded when the
# corpus was introduced; a changed flag, message or result changes it
CORPUS_DIGEST = "f9b607a7311b7370957024b6afd4eface0a519fc29e30146bfb0ad538839b775"


def _corpus_kfas():
    return [
        make_semisimple_kfa(1, 1),
        make_semisimple_kfa(2, 1),
        make_semisimple_kfa(2, F(1, 2)),
        make_nonsemisimple_kfa(0, 1, 1, 0, 0),
        make_nonsemisimple_kfa(1, 1, 1, 0, 0),
        make_nonsemisimple_kfa(1, 2, 2, 3, 7),
        make_closed_only(make_A(1, 1, 0)),
        kfa_sum(make_semisimple_kfa(1, 1), make_nonsemisimple_kfa(0, 1, 1, 0, 0)),
        kfa_product(make_semisimple_kfa(1, 1), make_nonsemisimple_kfa(0, 1, 2, 1, 1)),
        scale_kfa(make_semisimple_kfa(2, 1), 2),
        kfa_sum(make_semisimple_kfa(1, 2), make_semisimple_kfa(1, 3)),
    ]


def _perturb(rng, t):
    k = rng.randrange(len(t.entries))
    old = t.entries[k]
    new = rng.choice((0, old + 1, old - F(1, 2), 2 * old + 1))
    idx = t.unflatten(k) if isinstance(t, Tensor) else divmod(k, t.cols)
    return _edited(t, idx, new)


def _kfa_parts(k):
    return {"zipper": k.zipper, "cozipper": k.cozipper,
            **{("open", n): getattr(k.open, n) for n in ALGEBRA_PARTS},
            **{("closed", n): getattr(k.closed, n) for n in ALGEBRA_PARTS}}


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return out.to_json() if hasattr(out, "to_json") else [str(v) for v in out.entries]


def _report(rep):
    return {"flags": rep.flags, "first_violation": rep.first_violation, "details": rep.details}


def _corpus():
    rng = random.Random(CORPUS_SEED)
    kfas = _corpus_kfas()
    kfa_reports = []
    for _ in range(KFA_PERTURBATIONS):
        k = rng.choice(kfas)
        parts = _kfa_parts(k)
        for _ in range(rng.choice((1, 2))):
            name = rng.choice([n for n, t in parts.items() if t.entries])
            parts[name] = _perturb(rng, parts[name])
        sectors = [FrobeniusAlgebra(*(parts[(s, n)] for n in ALGEBRA_PARTS)) for s in ("open", "closed")]
        kfa_reports.append(_report(check_kfa(KFA(*sectors, parts["zipper"], parts["cozipper"]))))

    algebra_reports = []
    algebras = [fa for k in kfas for fa in (k.open, k.closed) if fa.dim]
    for _ in range(ALGEBRA_PERTURBATIONS):
        fa = rng.choice(algebras)
        parts = {n: getattr(fa, n) for n in ALGEBRA_PARTS}
        for _ in range(rng.choice((1, 2))):
            name = rng.choice(ALGEBRA_PARTS)
            parts[name] = _perturb(rng, parts[name])
        bad = FrobeniusAlgebra(**parts)
        recounted = FrobeniusAlgebra(fa.product, fa.unit, fa.coproduct, parts["counit"])
        algebra_reports.append({
            "check": _report(check_frobenius(bad)),
            "from_form": _outcome(frobenius_from_form, parts["product"], parts["unit"], parts["counit"]),
            "transition_to": _outcome(central_transition, recounted, fa),
            "transition_from": _outcome(central_transition, fa, recounted),
        })
    return kfa_reports, algebra_reports


def test_perturbation_corpus_reports_pinned():
    kfa_reports, algebra_reports = _corpus()
    # the corpus reaches every flag of both checks
    assert {f for r in kfa_reports for f, ok in r["flags"].items() if not ok} == set(KFA_FLAGS)
    fired = {f for r in algebra_reports for f, ok in r["check"]["flags"].items() if not ok}
    assert fired == set(algebra_reports[0]["check"]["flags"])
    blob = json.dumps([kfa_reports, algebra_reports], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == CORPUS_DIGEST


# ---------------------------------------------------------------------------
# integer identities against the Fraction oracles

ALPHA = st.sampled_from([1, 2, -1, F(1, 2), 3, F(-2, 3), F(5, 7)])
SMALL = st.sampled_from([0, 1, -1, 2, F(1, 3), F(-3, 5)])
# primes that divide no denominator of the structures drawn here
NUDGE_PRIMES = (101, 103, 107, 109, 113, 127)


@st.composite
def small_kfas(draw, depth=2):
    kind = draw(st.sampled_from(("ss", "ns", "sum", "product", "scale") if depth else ("ss", "ns")))
    if kind == "ss":
        return make_semisimple_kfa(draw(st.integers(0, 2)), draw(ALPHA))
    if kind == "ns":
        return make_nonsemisimple_kfa(draw(st.integers(0, 1)), draw(st.integers(1, 2)),
                                      draw(ALPHA), draw(SMALL), draw(SMALL))
    if kind == "scale":
        return scale_kfa(draw(small_kfas(depth - 1)), draw(ALPHA))
    if kind == "product":
        # keep Kronecker products small: both factors are primitive
        return kfa_product(draw(small_kfas(0)), draw(small_kfas(0)))
    return kfa_sum(draw(small_kfas(depth - 1)), draw(small_kfas(depth - 1)))


@st.composite
def nudged_kfas(draw):
    """A valid structure, or one with one entry of one tensor moved by
    +-m/p for a prime p that no entry's denominator contains."""
    k = draw(small_kfas())
    if not draw(st.booleans()):
        return k
    parts = {n: t for n, t in _kfa_parts(k).items() if t.entries}
    name = draw(st.sampled_from(sorted(parts, key=str)))
    t = parts[name]
    i = draw(st.integers(0, len(t.entries) - 1))
    delta = F(draw(st.sampled_from((1, -1, 2, -5))), draw(st.sampled_from(NUDGE_PRIMES)))
    idx = t.unflatten(i) if isinstance(t, Tensor) else divmod(i, t.cols)
    return _edit_kfa(k, name, idx, t.entries[i] + delta)


def _triple(rep):
    return rep.flags, rep.first_violation, rep.details


@given(nudged_kfas())
@settings(max_examples=60, deadline=None)
def test_axiom_checks_match_fraction_oracle(k):
    assert _triple(check_kfa(k)) == check_kfa_by_fractions(k)
    for fa in (k.open, k.closed):
        assert _triple(check_frobenius(fa)) == check_frobenius_by_fractions(fa)


def _from_form_outcome(product, unit, counit):
    try:
        frobenius_from_form(product, unit, counit)
    except AxiomError as exc:
        return str(exc)
    except (RankError, ConsistencyError):
        pass
    return None


@given(nudged_kfas(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_from_form_and_transition_errors_match_fraction_oracle(k, use_open):
    fa = k.open if use_open else k.closed
    n = fa.dim
    unital = unital_violation_by_fractions(n, fa.product, fa.unit)
    associative = associative_violation_by_fractions(fa.product)
    expected = (f"unital: {unital}" if unital else
                f"associative: {associative}" if associative else None)
    assert _from_form_outcome(fa.product, fa.unit, fa.counit) == expected

    # a second counit on the same algebra: the transition element must
    # reproduce it and be central, exactly when the oracle says so
    if n:
        counit = _edited(fa.counit, (n - 1,), fa.counit.entries[-1] + F(1, 101))
        moved = FrobeniusAlgebra(fa.product, fa.unit, fa.coproduct, counit)
        for f_from, f_to in ((moved, fa), (fa, moved)):
            want = central_transition_by_fractions(f_from, f_to)
            try:
                got = central_transition(f_from, f_to)
            except RankError:
                assert want == "degenerate"
            except ConsistencyError as exc:
                assert want == ("central" if "not central" in str(exc) else "counit")
            else:
                assert want is None
                # and it is the element: counit_from(x) = counit_to(a x)
                a = got.entries
                for x in range(n):
                    assert sum(a[c] * v * f_to.counit[(d,)]
                               for (d, c, y), v in f_to.product.iter_nonzeros() if y == x) \
                        == f_from.counit[(x,)]


def test_from_form_and_transition_error_messages():
    # unital and associative failures of frobenius_from_form; a degenerate
    # and a non-central target of central_transition
    fa = make_semisimple_kfa(2, F(2, 3)).open
    with pytest.raises(AxiomError, match=r"^unital: unit \* e_1 != e_1$"):
        frobenius_from_form(_edited(fa.product, (1, 0, 1), F(1, 103)), fa.unit, fa.counit)
    bad = _edited(fa.product, (0, 1, 2), F(5, 107))
    assert unital_violation_by_fractions(fa.dim, bad, fa.unit) is None
    with pytest.raises(AxiomError, match=r"^associative: " + re.escape(
            associative_violation_by_fractions(bad))):
        frobenius_from_form(bad, fa.unit, fa.counit)
    skew = FrobeniusAlgebra(fa.product, fa.unit, fa.coproduct, _edited(fa.counit, (1,), F(1, 109)))
    with pytest.raises(ConsistencyError, match="not central"):
        central_transition(skew, fa)
    assert central_transition_by_fractions(skew, fa) == "central"
    flat = FrobeniusAlgebra(fa.product, fa.unit, fa.coproduct, Tensor.zeros((fa.dim,)))
    with pytest.raises(RankError):
        central_transition(fa, flat)
