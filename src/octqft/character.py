"""Invariant generating functions in two formal variables and their classification.

A character assigns a rational value to every pair (genus g, window count w).
The "good" ones are exactly the functions

    f = a1 + aX*X + aY*Y + aY2*Y^2 + sum_i  c_i / ((1 - lam_i X)(1 - mu_i Y))

with lam_i != 0, i.e. a four-coefficient polynomial part plus finitely many
geometric terms c * lam^g * mu^w.  mu = 0 is allowed and contributes only in
the w = 0 column (0^0 = 1 by convention).  classify_table decides from a
finite table of values whether such a closed form exists, and reconstructs it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .numkit import (
    ONE, ZERO, Matrix, Poly, integer_scaled, is_squarefree, rat, rat_to_str, rational_roots,
    rats, recurrence_from_sequences,
)

POLY_SUPPORT = ((0, 0), (1, 0), (0, 1), (0, 2))


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class SequenceTable:
    """Rectangular table of values, rows indexed by g, columns by w."""

    g_max: int
    w_max: int
    values: tuple  # values[g][w], tuple of tuples of Fraction

    @classmethod
    def from_rows(cls, rows):
        g_max = len(rows) - 1
        w_max = len(rows[0]) - 1
        flat = iter(rats(x for row in rows for x in row))
        vals = tuple(tuple(next(flat) for _ in row) for row in rows)
        for row in vals:
            if len(row) != w_max + 1:
                raise ValueError("ragged table")
        return cls(g_max, w_max, vals)

    def value(self, g: int, w: int) -> Fraction:
        return self.values[g][w]

    def to_json(self):
        return {"values": [[rat_to_str(x) for x in row] for row in self.values]}

    @classmethod
    def from_json(cls, obj):
        return cls.from_rows(obj["values"])


# ---------------------------------------------------------------------------
# character forms


@dataclass(frozen=True)
class CharacterForm:
    """Canonical closed form of a good character.

    exp_terms is a sorted tuple of (lam, mu, coeff) with lam != 0, coeff != 0
    and pairwise distinct (lam, mu).  value() remembers every cell it has
    evaluated; the memo takes no part in equality or hashing.
    """

    alpha_1: Fraction = ZERO
    alpha_X: Fraction = ZERO
    alpha_Y: Fraction = ZERO
    alpha_Y2: Fraction = ZERO
    exp_terms: tuple = ()
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for lam, mu, c in self.exp_terms:
            if not lam:
                raise ValueError("exponential term with lam = 0")
            if not c:
                raise ValueError("exponential term with zero coefficient")
        keys = [(lam, mu) for lam, mu, _ in self.exp_terms]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise ValueError("exponential terms must be sorted and distinct")

    @classmethod
    def make(cls, alpha_1=0, alpha_X=0, alpha_Y=0, alpha_Y2=0, exp_terms=()):
        """Canonicalizing constructor: merges duplicate (lam, mu) pairs,
        drops zero coefficients, sorts."""
        acc = {}
        for lam, mu, c in exp_terms:
            lam, mu, c = rat(lam), rat(mu), rat(c)
            if not lam:
                raise ValueError("exponential term with lam = 0")
            acc[(lam, mu)] = acc.get((lam, mu), ZERO) + c
        terms = tuple((lam, mu, c) for (lam, mu), c in sorted(acc.items()) if c)
        return cls(rat(alpha_1), rat(alpha_X), rat(alpha_Y), rat(alpha_Y2), terms)

    def poly_value(self, g: int, w: int) -> Fraction:
        if (g, w) == (0, 0):
            return self.alpha_1
        if (g, w) == (1, 0):
            return self.alpha_X
        if (g, w) == (0, 1):
            return self.alpha_Y
        if (g, w) == (0, 2):
            return self.alpha_Y2
        return ZERO

    def to_json(self):
        return {
            "poly": {
                "1": rat_to_str(self.alpha_1),
                "X": rat_to_str(self.alpha_X),
                "Y": rat_to_str(self.alpha_Y),
                "Y2": rat_to_str(self.alpha_Y2),
            },
            "exp": [
                {"lambda": rat_to_str(lam), "mu": rat_to_str(mu), "coeff": rat_to_str(c)}
                for lam, mu, c in self.exp_terms
            ],
        }

    @classmethod
    def from_json(cls, obj):
        poly = obj.get("poly", {})
        alphas = rats(poly.get(key, 0) for key in ("1", "X", "Y", "Y2"))
        flat = rats(t[key] for t in obj.get("exp", []) for key in ("lambda", "mu", "coeff"))
        return cls.make(*alphas, exp_terms=[flat[i:i + 3] for i in range(0, len(flat), 3)])

    def value(self, g: int, w: int) -> Fraction:
        v = self._values.get((g, w))
        if v is None:
            v = self._values[(g, w)] = eval_character(self, g, w)
        return v


class TableCharacter:
    """Character presented by its values (g, w) -> rational.

    Used for generating functions that are not good and therefore have no
    CharacterForm; values are computed on demand and cached.
    """

    def __init__(self, fn):
        self.fn = fn
        self._cache = {}

    def value(self, g, w):
        key = (g, w)
        if key not in self._cache:
            self._cache[key] = rat(self.fn(g, w))
        return self._cache[key]


def eval_character(form: CharacterForm, g: int, w: int) -> Fraction:
    """The value at (g, w), term by term: each term's integer numerator and
    denominator are summed as integers, and one Fraction is built at the
    end.  Integer 0 ** 0 is 1, so a mu = 0 term counts at w = 0 only."""
    if g < 0 or w < 0:
        raise ValueError("genus and window count must be nonnegative")
    v = form.poly_value(g, w)
    num, den = v.numerator, v.denominator
    for lam, mu, c in form.exp_terms:
        t_num = c.numerator * lam.numerator ** g * mu.numerator ** w
        t_den = c.denominator * lam.denominator ** g * mu.denominator ** w
        num, den = num * t_den + t_num * den, den * t_den
    return Fraction(num, den)


def to_table(form: CharacterForm, g_max: int, w_max: int) -> SequenceTable:
    rows = [[eval_character(form, g, w) for w in range(w_max + 1)] for g in range(g_max + 1)]
    return SequenceTable.from_rows(rows)


def char_add(a: CharacterForm, b: CharacterForm) -> CharacterForm:
    return CharacterForm.make(
        a.alpha_1 + b.alpha_1, a.alpha_X + b.alpha_X,
        a.alpha_Y + b.alpha_Y, a.alpha_Y2 + b.alpha_Y2,
        list(a.exp_terms) + list(b.exp_terms),
    )


def char_scale(a: CharacterForm, c) -> CharacterForm:
    c = rat(c)
    return CharacterForm.make(
        c * a.alpha_1, c * a.alpha_X, c * a.alpha_Y, c * a.alpha_Y2,
        [(lam, mu, c * v) for lam, mu, v in a.exp_terms] if c else [],
    )


def _exp_value(form: CharacterForm, g: int, w: int) -> Fraction:
    return eval_character(form, g, w) - form.poly_value(g, w)


def char_mul(a: CharacterForm, b: CharacterForm) -> CharacterForm:
    """Pointwise product.  Good characters are closed under this: geometric
    terms multiply pairwise, and products involving a polynomial part stay
    supported on the four polynomial positions."""
    terms = [
        (la * lb, ma * mb, ca * cb)
        for la, ma, ca in a.exp_terms
        for lb, mb, cb in b.exp_terms
    ]
    poly = []
    for g, w in POLY_SUPPORT:
        pa, pb = a.poly_value(g, w), b.poly_value(g, w)
        poly.append(pa * pb + pa * _exp_value(b, g, w) + _exp_value(a, g, w) * pb)
    return CharacterForm.make(poly[0], poly[1], poly[2], poly[3], terms)


def scale_transform(form: CharacterForm, s) -> CharacterForm:
    """Closed-form image of a character under rescaling the theory by s.

    The table transforms by chi'[g][w] = s^(-2(2-2g-w)) chi[g][w]; with
    alpha = s^2 this sends a geometric term (lam, mu, c) to
    (alpha^2 lam, alpha mu, c/alpha^2) and fixes alpha_X and alpha_Y2."""
    s = rat(s)
    if not s:
        raise ValueError("scale factor must be nonzero")
    al = s * s
    return CharacterForm.make(
        form.alpha_1 / al ** 2, form.alpha_X, form.alpha_Y / al, form.alpha_Y2,
        [(al ** 2 * lam, al * mu, c / al ** 2) for lam, mu, c in form.exp_terms],
    )


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Good:
    form: CharacterForm

    def to_json(self):
        out = {"status": "good"}
        out.update(self.form.to_json())
        return out


@dataclass(frozen=True)
class NotGood:
    reason: str
    witness: tuple | None = None

    def to_json(self):
        return {
            "status": "not_good",
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class Indeterminate:
    reason: str

    def to_json(self):
        return {"status": "indeterminate", "reason": self.reason}


def _exp_grid(exp_terms, g_max: int, w_max: int):
    """(den, nums) with nums[g][w] / den = sum of c * lam^g * mu^w over the
    terms, for g <= g_max and w <= w_max, all integers.

    A term (a/b, e/f, n/q) contributes K * a^g b^(g_max-g) * e^w f^(w_max-w)
    with K = n * den / (q b^g_max f^w_max), so each cell is one integer dot
    product over the terms."""
    if not exp_terms:
        return 1, [[0] * (w_max + 1) for _ in range(g_max + 1)]
    den = lcm(*[c.denominator * lam.denominator ** g_max * mu.denominator ** w_max
                for lam, mu, c in exp_terms])
    row_factors = []    # per term, K * a^g b^(g_max-g) for each g
    col_factors = []    # per term, e^w f^(w_max-w) for each w
    for lam, mu, c in exp_terms:
        a, b, e, f = lam.numerator, lam.denominator, mu.numerator, mu.denominator
        k = c.numerator * (den // (c.denominator * b ** g_max * f ** w_max))
        row_factors.append([k * a ** g * b ** (g_max - g) for g in range(g_max + 1)])
        col_factors.append([e ** w * f ** (w_max - w) for w in range(w_max + 1)])
    cols = list(zip(*col_factors))
    return den, [[sum(map(mul, ks, col)) for col in cols] for ks in zip(*row_factors)]


def classify_table(table: SequenceTable, rank_bound: int):
    """Decide whether the table extends to a good character with at most
    rank_bound geometric lam-values (and per-lam mu-values).

    Needs g_max and w_max >= 2*rank_bound + 4.  Returns Good, NotGood (with a
    machine-readable reason and, for a support violation, the first offending
    (g, w) position) or Indeterminate when a minimal recurrence exists but its
    spectrum does not split over Q.

    The geometric terms found from the recurrences are expanded over the
    whole table as integers over one common denominator (_exp_grid) and
    compared with the table by cross-multiplication; only the cells that
    differ, which must lie on 1, X, Y, Y^2, are subtracted as Fractions.  As
    a safety net the reconstructed form is then evaluated cell by cell with
    eval_character, independently of that grid, and must reproduce the table.
    """
    r = rank_bound
    if r < 0:
        raise ValueError("rank bound must be nonnegative")
    if table.g_max < 2 * r + 4 or table.w_max < 2 * r + 4:
        raise ValueError(
            f"table must extend to g,w = {2 * r + 4} for rank bound {r}, "
            f"got g_max={table.g_max} w_max={table.w_max}")

    deep_rows = [table.values[g] for g in range(2, table.g_max + 1)]
    exp_terms = []
    if any(x for row in deep_rows for x in row):
        # columns, restricted to g >= 2, share one minimal X-recurrence
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
        # coefficients of each lam^g in every column at once, from one
        # solve of the (shifted) Vandermonde system
        vand = Matrix.from_rows([[lam ** (2 + i) for lam in lams] for i in range(len(lams))])
        coefs = vand.solve(Matrix.from_rows(deep_rows[:len(lams)]))
        assert coefs is not None  # Vandermonde with distinct nonzero nodes
        coef_rows = coefs.to_rows()
        for lam, c_seq in zip(lams, coef_rows):  # c_seq[w] = c_lam(w)
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
                assert alphas is not None
            else:
                mus, alphas = [], []
            for mu, c in zip(mus, alphas):
                if c:
                    exp_terms.append((lam, mu, c))
            # whatever is left in the w = 0 slot is a mu = 0 term
            residue = c_seq[0] - sum(alphas, ZERO)
            if residue:
                exp_terms.append((lam, ZERO, residue))

    # the geometric part on the whole table as integers over one denominator
    terms = CharacterForm.make(exp_terms=exp_terms).exp_terms
    den, grid = _exp_grid(terms, table.g_max, table.w_max)
    poly = {}
    for g, (row, grid_row) in enumerate(zip(table.values, grid)):
        for w, (value, num) in enumerate(zip(row, grid_row)):
            if value.numerator * den == num * value.denominator:
                continue
            if (g, w) in POLY_SUPPORT:
                poly[(g, w)] = value - Fraction(num, den)
            else:
                return NotGood(
                    "remainder after removing geometric terms is not supported on 1, X, Y, Y^2",
                    witness=(g, w))
    form = CharacterForm.make(
        poly.get((0, 0), ZERO), poly.get((1, 0), ZERO),
        poly.get((0, 1), ZERO), poly.get((0, 2), ZERO), exp_terms)
    # safety net: the reconstruction must reproduce the table exactly
    for g in range(table.g_max + 1):
        for w in range(table.w_max + 1):
            if eval_character(form, g, w) != table.value(g, w):
                return NotGood("reconstructed form does not reproduce the table", witness=(g, w))
    return Good(form)


# ---------------------------------------------------------------------------
# rational generating functions


def rational_character(num: dict, den: dict) -> TableCharacter:
    """Character whose generating function is num/den, with num and den
    bivariate polynomials as {(x_deg, y_deg): coeff} dicts.

    num and den are scaled to integers N and E by the lcm of all their
    denominators.  With D = E[0, 0], the coefficient at (i, j) is
    n[i][j] / D^(i+j+1) for the integers

        n[i][j] = N[i, j] D^(i+j) - sum over (a, b) != (0, 0) of
                  E[a, b] D^(a+b-1) n[i-a][j-b].

    A value at (g, w) first fills, in row order, every numerator of the box
    [0, g] x [0, w] not yet known.  Each needs only numerators before it,
    so the expansion needs no recursion at any depth.  One Fraction is
    built per cell read."""
    num = {k: rat(v) for k, v in num.items() if v}
    den = {k: rat(v) for k, v in den.items() if v}
    if not den.get((0, 0)):
        raise ValueError("denominator must have a nonzero constant term")
    ints = integer_scaled([*num.values(), *den.values()])[0]
    den = dict(zip(den, ints[len(num):]))
    num = dict(zip(num, ints))
    d00 = den.pop((0, 0))    # den keeps the terms (a, b) != (0, 0)
    powers = [1]    # powers[k] = d00 ** k
    rows = []       # rows[g][w], each row a prefix of its numerators

    def coeff(g, w):
        if g < 0 or w < 0:
            raise ValueError("genus and window count must be nonnegative")
        if g >= len(rows) or w >= len(rows[g]):
            while len(rows) <= g:
                rows.append([])
            while len(powers) <= g + w + 1:
                powers.append(powers[-1] * d00)
            for i in range(g + 1):
                row = rows[i]
                for j in range(len(row), w + 1):
                    s = num.get((i, j), 0) * powers[i + j]
                    for (a, b), v in den.items():
                        if a <= i and b <= j:
                            s -= v * powers[a + b - 1] * rows[i - a][j - b]
                    row.append(s)
        return Fraction(rows[g][w], powers[g + w + 1])

    return TableCharacter(coeff)


def _form_fraction(form: CharacterForm):
    """(num_f, den_f) with num_f/den_f the generating function of form, over
    den_f = prod (1 - lam X) * prod (1 - mu Y): one factor per distinct lam
    and one per distinct mu != 0."""
    x_facs = {lam: {(0, 0): ONE, (1, 0): -lam} for lam, _, _ in form.exp_terms}
    y_facs = {mu: {(0, 0): ONE, (0, 1): -mu} for _, mu, _ in form.exp_terms if mu}

    def product(factors, scale=ONE):
        out = {(0, 0): scale}
        for f in factors:
            out = _bp_mul(out, f)
        return out

    den_f = product([*x_facs.values(), *y_facs.values()])
    alphas = (form.alpha_1, form.alpha_X, form.alpha_Y, form.alpha_Y2)
    num_f = _bp_mul({k: a for k, a in zip(POLY_SUPPORT, alphas) if a}, den_f)
    for lam, mu, c in form.exp_terms:
        rest = [f for l, f in x_facs.items() if l != lam] + [f for m, f in y_facs.items() if m != mu]
        num_f = _bp_add(num_f, product(rest, c))
    return num_f, den_f


def _classify_series(chi: TableCharacter, r: int):
    size = 2 * r + 4
    chi.value(size, size)       # fills the whole box
    rows = [[chi.value(g, w) for w in range(size + 1)] for g in range(size + 1)]
    return classify_table(SequenceTable.from_rows(rows), r)


def classify_rational(num: dict, den: dict):
    """Classify the power-series expansion of num/den, where num and den are
    bivariate polynomials as {(x_deg, y_deg): coefficient} dicts.

    The denominator must be invertible as a power series: den[(0,0)] != 0.

    The table is first classified at rank bound r0 = max(dx, dy), with dx and
    dy the X- and Y-degrees of den.  That is enough to find a good form: the
    reduced denominator prod (1 - lam X) * prod (1 - mu Y) of a good series
    (one factor per distinct lam and per distinct mu != 0) divides every
    denominator the series can be written with, so it has at most dx
    distinct lam and at most dy distinct nonzero mu.  A Good found there is
    accepted only with a certificate: num * den_f == num_f * den in Q[X, Y],
    where num_f/den_f is the form over its reduced denominator.  Both
    constant terms are nonzero, so the identity proves the two power series
    equal.  On any other outcome (NotGood, Indeterminate, or a failed
    certificate) the same series is classified again at the full bound
    r = dx*dy + dx + dy + deg(num), unless r == r0, so every verdict that is
    not a certified Good is the one the full-size table gives.
    """
    chi = rational_character(num, den)
    num = {k: rat(v) for k, v in num.items() if v}
    den = {k: rat(v) for k, v in den.items() if v}
    dx = max((i for i, _ in den), default=0)
    dy = max((j for _, j in den), default=0)
    r0 = max(dx, dy)
    result = _classify_series(chi, r0)
    if isinstance(result, Good):
        num_f, den_f = _form_fraction(result.form)
        if _bp_mul(num, den_f) == _bp_mul(num_f, den):
            return result
    # dx*dy bounds the joint spectrum only when both degrees are positive; the
    # extra dx + dy keeps single-variable denominators like 1/(1-2X) in budget
    r = dx * dy + dx + dy + max((i + j for i, j in num), default=0)
    if r == r0:
        return result
    return _classify_series(chi, r)


class ExprError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def parse_rational_expr(text: str):
    """Parse an expression in X, Y, integers, + - * / and parentheses into a
    (num, den) pair of bivariate polynomial dicts.  No simplification beyond
    dropping zero terms; division by an identically-zero expression fails."""
    parser = _Parser(text)
    result = parser.expr()
    if parser.pos != len(parser.toks):
        tok, at = parser.toks[parser.pos]
        raise ExprError(f"unexpected token {tok!r}", at)
    return result


class _Parser:
    """Recursive descent over the tokens of one text.  The state lives on the
    instance, so parsing leaves no reference cycle behind."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            rhs = self.term()
            node = _rf_add(node, rhs) if op == "+" else _rf_add(node, _rf_neg(rhs))
        return node

    def term(self):
        node = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op, at = self.take()
                rhs = self.unary()
                if op == "*":
                    node = _rf_mul(node, rhs)
                else:
                    if not rhs[0]:
                        raise ExprError("division by zero expression", at)
                    node = _rf_mul(node, (rhs[1], rhs[0]))
            elif nxt == "(" or nxt == "X" or nxt == "Y" or (nxt is not None and nxt.isdigit()):
                # adjacency is multiplication: 2X, (1-2X)(1-3Y)
                node = _rf_mul(node, self.atom())
            else:
                return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return _rf_neg(self.unary())
        return self.atom()

    def atom(self):
        if self.peek() is None:
            raise ExprError("unexpected end of expression", len(self.text))
        tok, at = self.take()
        if tok == "(":
            node = self.expr()
            if self.peek() != ")":
                end = self.toks[self.pos][1] if self.pos < len(self.toks) else len(self.text)
                raise ExprError("expected ')'", end)
            self.take()
            return node
        if tok == "X":
            return ({(1, 0): ONE}, {(0, 0): ONE})
        if tok == "Y":
            return ({(0, 1): ONE}, {(0, 0): ONE})
        if tok.isdigit():
            return ({(0, 0): Fraction(tok)} if tok != "0" else {}, {(0, 0): ONE})
        raise ExprError(f"unexpected token {tok!r}", at)


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/()XY":
            toks.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append((text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    return toks


def _bp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, ZERO) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


def _bp_mul(a: dict, b: dict) -> dict:
    out = {}
    for (i, j), v in a.items():
        for (k, l), w in b.items():
            key = (i + k, j + l)
            s = out.get(key, ZERO) + v * w
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _bp_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _rf_add(a, b):
    return (_bp_add(_bp_mul(a[0], b[1]), _bp_mul(b[0], a[1])), _bp_mul(a[1], b[1]))


def _rf_mul(a, b):
    return (_bp_mul(a[0], b[0]), _bp_mul(a[1], b[1]))


def _rf_neg(a):
    return (_bp_neg(a[0]), a[1])
