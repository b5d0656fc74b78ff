"""classify_rational against its full-size oracle.

classify_rational first classifies on the table sized by max(deg_X den,
deg_Y den) and accepts a Good there only with a polynomial-identity
certificate; everything else is the full-size verdict.  These tests compare
it with tests/oracles.py::classify_rational_full on a seeded corpus, and
check that the certificate, not the small table, decides.
"""
import gc
import hashlib
import json
import random
from fractions import Fraction as F

from octqft import character
from octqft.character import (
    CharacterForm, Good, classify_rational, parse_rational_expr,
)
from oracles import classify_rational_full

VALUES = [F(v) for v in (1, 2, 3, -1, -2)] + [F(1, 2), F(-1, 3), F(2, 3)]
MONOMIALS = ("1", "X", "Y", "Y*Y")          # the support of the polynomial part
OUTSIDE = ("X*Y", "X*X", "Y*Y*Y")
FACTORS = ("(1-2*X)", "(1+X*Y)", "(2+X)")
NAMED = (
    "1/(1-X*Y)", "1/(1-Y)", "X/(1-2*Y)", "1/((1-2*X)*(1-2*X))", "1/(1-X-X*X)", "X*Y",
    "1/((1-X)*(1-Y)*(1+X*Y))", "(1+X*Y)/((1-X)*(1-Y)*(1+X*Y))", "1/((1-Y)*(1-Y))",
)
# sha256 of the oracle's JSON verdicts on the corpus, one line each
CORPUS_SHA256 = "a1e852c2c8a28ff5674a79372771058509277a62f49230b34ece1d8cf4d52595"


def _q(x):
    return str(x) if x.denominator == 1 and x >= 0 else f"({x})"


def _random_gf(rng, i):
    """Polynomial part on a random subset of the support, sometimes a
    monomial outside it, 0-3 geometric terms (a quarter with mu = 0), and
    sometimes a common factor in numerator and denominator.  Three terms
    come every 50th draw, and (1+XY) only with at most one term, so that
    the full-size tables stay below about 50 x 50."""
    parts = [f"{_q(rng.choice(VALUES))}*{m}" for m in MONOMIALS if rng.random() < 0.4]
    if rng.random() < 0.3:
        parts.append(f"{_q(rng.choice(VALUES))}*{rng.choice(OUTSIDE)}")
    n_terms = 3 if i % 50 == 0 else rng.choice((0, 0, 1, 1, 1, 2))
    for _ in range(n_terms):
        lam, mu, c = rng.choice(VALUES), rng.choice(VALUES), rng.choice(VALUES)
        y = f"*(1-{_q(mu)}*Y)" if rng.random() < 0.75 else ""
        parts.append(f"{_q(c)}/((1-{_q(lam)}*X){y})")
    text = " + ".join(parts) or "0"
    if n_terms < 3 and rng.random() < 0.3:
        f = rng.choice(FACTORS if n_terms < 2 else FACTORS[::2])
        text = f"({text})*{f}/{f}"
    return text


def corpus():
    rng = random.Random(2)
    return list(NAMED) + [_random_gf(rng, i) for i in range(300)]


def test_corpus_covers_the_drawn_shapes():
    texts = corpus()
    assert len(texts) == 309
    for piece in MONOMIALS[1:] + OUTSIDE + FACTORS:
        assert any(piece in t for t in texts[len(NAMED):]), piece
    assert any("*X))" in t for t in texts[len(NAMED):])      # a term with mu = 0
    assert any(t.count("/((1-") == 3 for t in texts)


def test_classify_rational_matches_full_size_oracle():
    lines = []
    statuses = set()
    for text in corpus():
        num, den = parse_rational_expr(text)
        got = classify_rational(num, den).to_json()
        assert got == classify_rational_full(num, den).to_json(), text
        statuses.add(got["status"])
        lines.append(json.dumps(got, sort_keys=True))
    assert statuses == {"good", "not_good", "indeterminate"}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORPUS_SHA256


GF = "2 + 3*X + 5/((1-2*X)*(1-3*Y))"
GF_FORM = CharacterForm.make(2, 3, exp_terms=[(2, 3, 5)])


def test_certificate_rejects_a_wrong_small_table_form(monkeypatch):
    # the small table's Good has one coefficient changed; the certificate
    # must refuse it, and the full-size table gives the true form
    real = character.classify_table
    bounds = []

    def tampered(table, r):
        res = real(table, r)
        if not bounds:
            f = res.form
            res = Good(CharacterForm.make(
                f.alpha_1, f.alpha_X, f.alpha_Y, f.alpha_Y2,
                [(lam, mu, c + 1) for lam, mu, c in f.exp_terms]))
        bounds.append(r)
        return res

    monkeypatch.setattr(character, "classify_table", tampered)
    assert classify_rational(*parse_rational_expr(GF)) == Good(GF_FORM)
    assert bounds == [1, 6]


def test_classify_rational_reads_the_small_table(monkeypatch):
    # the safety net of classify_table evaluates every cell of the table it
    # classifies: 7 x 7 at r0 = 1, against 17 x 17 at the full bound r = 6
    real = character.eval_character
    calls = []
    monkeypatch.setattr(character, "eval_character",
                        lambda form, g, w: calls.append((g, w)) or real(form, g, w))
    num, den = parse_rational_expr(GF)
    assert classify_rational(num, den) == Good(GF_FORM)
    assert len(calls) == 49
    calls.clear()
    assert classify_rational_full(num, den) == Good(GF_FORM)
    assert len(calls) == 289


def test_certificate_refuses_what_the_small_table_cannot_see():
    # r0 = max(deg_X den, deg_Y den) sizes a table too small to see the
    # last monomial of each, so the small table alone calls them good
    for text in ("Y*Y*Y*Y*Y", "1/(1-2*X) + X*X*X*X*X*X*X", "2/((1-X)*(1-3*Y)) + X*Y*Y*Y*Y*Y"):
        num, den = parse_rational_expr(text)
        got = classify_rational(num, den)
        assert got.to_json()["status"] == "not_good", text
        assert got == classify_rational_full(num, den)


def test_parsing_leaves_no_cyclic_garbage():
    # the parser keeps its state on an object, not in closures that refer to
    # one another, so a parse frees everything by reference counting alone
    texts = corpus() + ["2 + X/((1-X)*(1-2*Y))"] * 10
    gc.disable()
    try:
        gc.collect()
        for text in texts:
            parse_rational_expr(text)
        assert gc.collect() == 0
    finally:
        gc.enable()
