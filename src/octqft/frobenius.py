"""Finite-dimensional Frobenius algebras over the rationals.

An algebra lives on a fixed basis e_0 .. e_{n-1} and is given by four
structure tensors:

    product[c, a, b]    coefficient of e_c in e_a * e_b
    unit[a]             coordinates of the unit element
    coproduct[a, b, c]  coefficient of e_a (x) e_b in coproduct(e_c)
    counit[a]           value of the counit on e_a

check_frobenius verifies the axioms entry by entry and reports which hold.
All checks run over the nonzero entries only, so the large Kronecker-product
algebras produced by tensor_product stay cheap to verify.  The sums of an
identity run on integers: each tensor is scaled once to integers over one
denominator (Tensor.scaled_nonzeros), and where the two sides have different
denominators each side is multiplied by the other's.  A positive factor keeps
every zero and every nonzero, so the least differing entry is the one the
rational sums give.
"""
from __future__ import annotations

from dataclasses import dataclass

from .numkit import Matrix, Tensor, ZERO, ONE, integer_scaled, rat, rats


class AxiomError(ValueError):
    """An algebraic axiom required by the requested operation does not hold."""


class RankError(ValueError):
    """A bilinear form that must be nondegenerate is singular."""

    def __init__(self, message, rank, dim):
        super().__init__(f"{message}: rank {rank} of {dim} (deficiency {dim - rank})")
        self.rank = rank
        self.dim = dim


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.  This signals a bug or an input that
    violates a precondition the operation could not verify directly."""


class FrobeniusAlgebra:
    """Structure-tensor container.  Instances are treated as immutable."""

    def __init__(self, product: Tensor, unit: Tensor, coproduct: Tensor, counit: Tensor):
        n = unit.shape[0] if unit.shape else 0
        if product.shape != (n, n, n) or coproduct.shape != (n, n, n) or counit.shape != (n,) or unit.shape != (n,):
            raise ValueError(
                f"inconsistent shapes: product {product.shape}, unit {unit.shape}, "
                f"coproduct {coproduct.shape}, counit {counit.shape}"
            )
        self.dim = n
        self.product = product
        self.unit = unit
        self.coproduct = coproduct
        self.counit = counit
        self._pairing = None
        self._pmat = None
        self._dmat = None

    def pairing(self) -> Matrix:
        """Matrix of the form b(x, y) = counit(x * y)."""
        if self._pairing is None:
            self._pairing = counit_form(self.product, self.counit)
        return self._pairing

    def copairing(self) -> Matrix:
        """Matrix of coproduct(unit), indexed [a, b]."""
        return Matrix(self.dim, self.dim, (self.coproduct_matrix() * self.unit_matrix()).entries)

    def product_matrix(self) -> Matrix:
        """Product as a matrix [n, n*n]; column index is a*n + b, so its
        entries are those of the tensor, in the same row-major order."""
        if self._pmat is None:
            self._pmat = Matrix(self.dim, self.dim ** 2, list(self.product.entries))
        return self._pmat

    def coproduct_matrix(self) -> Matrix:
        """Coproduct as a matrix [n*n, n]; row index is a*n + b, so its
        entries are those of the tensor, in the same row-major order."""
        if self._dmat is None:
            self._dmat = Matrix(self.dim ** 2, self.dim, list(self.coproduct.entries))
        return self._dmat

    def unit_matrix(self) -> Matrix:
        return Matrix(self.dim, 1, list(self.unit.entries))

    def counit_matrix(self) -> Matrix:
        return Matrix(1, self.dim, list(self.counit.entries))

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusAlgebra)
            and self.product == other.product
            and self.unit == other.unit
            and self.coproduct == other.coproduct
            and self.counit == other.counit
        )

    def __repr__(self):
        return f"FrobeniusAlgebra(dim={self.dim})"

    def to_json(self):
        """Product planes [c][a][b] and coproduct planes [a][b][c]: the flat
        entry order of both tensors, so each list is rendered in one pass
        (str of a Fraction prints what rat_to_str prints) and then sliced."""
        n = self.dim

        def render(t):
            return ["0" if not v else str(v) for v in t.entries]

        def planes(t):
            flat = render(t)
            rows = [flat[i * n:i * n + n] for i in range(n * n)]
            return [rows[i * n:i * n + n] for i in range(n)]

        return {
            "dim": n,
            "product": planes(self.product),
            "unit": render(self.unit),
            "coproduct": planes(self.coproduct),
            "counit": render(self.counit),
        }

    @classmethod
    def from_json(cls, obj, parsed=None):
        """Rebuild from to_json(); parsed is passed on to rats(), so one
        table of decoded strings can serve a whole document."""
        if parsed is None:
            parsed = {}
        n = obj["dim"]
        prod = Tensor((n, n, n), rats((x for plane in obj["product"] for row in plane for x in row), parsed))
        cop = Tensor((n, n, n), rats((x for plane in obj["coproduct"] for row in plane for x in row), parsed))
        unit = Tensor((n,), rats(obj["unit"], parsed))
        counit = Tensor((n,), rats(obj["counit"], parsed))
        return cls(prod, unit, cop, counit)


def counit_form(product: Tensor, counit: Tensor) -> Matrix:
    """Matrix of the bilinear form b(x, y) = counit(x * y), indexed [x, y],
    for a product tensor indexed [c, a, b]."""
    n = counit.shape[0]
    nn = n * n
    out = [ZERO] * nn
    e = counit.entries
    for k, v in product.nonzeros():
        c, ab = divmod(k, nn)
        if e[c]:
            out[ab] += e[c] * v
    return Matrix(n, n, out)


# ---------------------------------------------------------------------------
# axiom checks


STRUCTURAL_FLAGS = (
    "unital",
    "counital",
    "associative",
    "coassociative",
    "frobenius",
    "pairing_nondegenerate",
)


@dataclass
class FrobeniusReport:
    flags: dict
    first_violation: str | None
    details: dict

    @property
    def valid(self) -> bool:
        """True when every structural axiom holds (commutative and symmetric
        are descriptive, not required)."""
        return all(self.flags[name] for name in STRUCTURAL_FLAGS)

    def to_json(self):
        return {"flags": dict(self.flags), "first_violation": self.first_violation}


def _first_difference(lhs, rhs):
    """Least key at which the sums of two streams of (key, value)
    contributions differ, or None when the sums agree."""
    diff = {}
    for k, v in lhs:
        diff[k] = diff.get(k, 0) + v
    for k, v in rhs:
        diff[k] = diff.get(k, 0) - v
    return min((k for k, v in diff.items() if v), default=None)


def _violation(lhs, rhs, message):
    """message(*key) at the first difference of lhs and rhs, or None."""
    key = _first_difference(lhs, rhs)
    return None if key is None else message(*key)


def _identity_twice(n, one):
    """Contributions of one times id on both sides, keyed (a, side, a)."""
    return [((a, side, a), one) for a in range(n) for side in (0, 1)]


def _unital_violation(n, product, unit):
    """Both sides times d_u * d_P: the unit's and the product's denominators."""
    prod, d_p = product.scaled_nonzeros()
    units, d_u = unit.scaled_nonzeros()
    u = {a: x for (a,), x in units}
    return _violation(
        [((b, 0, c), u[a] * v) for (c, a, b), v in prod if a in u]
        + [((a, 1, c), u[b] * v) for (c, a, b), v in prod if b in u],
        _identity_twice(n, d_u * d_p),
        lambda a, side, c: f"unit * e_{a} != e_{a}" if side == 0 else f"e_{a} * unit != e_{a}",
    )


def _counital_violation(n, coproduct, counit):
    """Both sides times d_e * d_C: the counit's and the coproduct's
    denominators."""
    cop, d_c = coproduct.scaled_nonzeros()
    counits, d_e = counit.scaled_nonzeros()
    e = {a: x for (a,), x in counits}
    return _violation(
        [((c, 0, b), e[a] * v) for (a, b, c), v in cop if a in e]
        + [((c, 1, a), e[b] * v) for (a, b, c), v in cop if b in e],
        _identity_twice(n, d_e * d_c),
        lambda c, side, x: (f"(counit x id) o coproduct != id at basis {c}" if side == 0
                            else f"(id x counit) o coproduct != id at basis {c}"),
    )


def _product_joins(prod):
    """The integer product entries (d, x, y) keyed by x and by y."""
    by_in1 = {}
    by_in2 = {}
    for (d, x, y), v in prod:
        by_in1.setdefault(x, []).append((d, y, v))
        by_in2.setdefault(y, []).append((d, x, v))
    return by_in1, by_in2


def _comult_map(coproduct):
    """dict c -> [(a, b, int)] over the integer coproduct entries."""
    cmap = {}
    for (a, b, c), v in coproduct.scaled_nonzeros()[0]:
        cmap.setdefault(c, []).append((a, b, v))
    return cmap


def _associativity_difference(product):
    """Least key (a, b, c, e) at which (e_a e_b) e_c and e_a (e_b e_c) differ
    in their e_e component, or None.  Both sides are sums of products of two
    integer entries, over d_P^2.  The two sides are compared one first
    factor a at a time, in increasing order, so the search stops at the
    first block that differs and holds the keys of one block only."""
    by_in1 = {}
    by_out = {}
    for (d, x, y), v in product.scaled_nonzeros()[0]:
        by_in1.setdefault(x, []).append((d, y, v))
        by_out.setdefault(d, []).append((x, y, v))
    for a in sorted(by_in1):
        key = _first_difference(
            (((a, b, c, e), v1 * v2) for d, b, v1 in by_in1[a]
             for e, c, v2 in by_in1.get(d, ())),
            (((a, b, c, e), v1 * v2) for e, d, v2 in by_in1[a]
             for b, c, v1 in by_out.get(d, ())),
        )
        if key is not None:
            return key
    return None


def _associative_violation(product):
    key = _associativity_difference(product)
    if key is None:
        return None
    a, b, c, e = key
    return f"(e_{a} e_{b}) e_{c} and e_{a} (e_{b} e_{c}) differ in the e_{e} component"


def _coassociative_violation(cmap):
    return _violation(
        (((p, q, y, c), v1 * v2) for c, terms in cmap.items() for x, y, v1 in terms
         for p, q, v2 in cmap.get(x, ())),
        (((x, p, q, c), v1 * v2) for c, terms in cmap.items() for x, y, v1 in terms
         for p, q, v2 in cmap.get(y, ())),
        lambda p, q, r, c: f"coassociativity fails on basis {c} at component ({p},{q},{r})",
    )


def _frobenius_violation(prod, cmap, by_in1, by_in2):
    """Every side is a sum of products of one product and one coproduct
    entry, over d_P * d_C."""
    m1 = [((a, b, x, y), v1 * v2) for (d, a, b), v1 in prod
          for x, y, v2 in cmap.get(d, ())]
    m2 = (((a, b, d, y), v2 * v3) for b, terms in cmap.items() for x, y, v2 in terms
          for d, a, v3 in by_in2.get(x, ()))
    m3 = (((a, b, x, d), v2 * v3) for a, terms in cmap.items() for x, y, v2 in terms
          for d, b, v3 in by_in1.get(y, ()))
    return _violation(m1, m2, lambda a, b, x, y: (
        f"coproduct o product and (product x id)(id x coproduct) differ at input ({a},{b}) component ({x},{y})"
    )) or _violation(m1, m3, lambda a, b, x, y: (
        f"coproduct o product and (id x product)(coproduct x id) differ at input ({a},{b}) component ({x},{y})"
    ))


def _commutative_violation(product):
    for (c, a, b), v in product.iter_nonzeros():
        if a != b and product[(c, b, a)] != v:
            return f"e_{a} e_{b} and e_{b} e_{a} differ in the e_{c} component"
    return None


def _symmetric_violation(beta):
    n = beta.rows
    for a in range(n):
        for b in range(a):
            if beta[a, b] != beta[b, a]:
                return f"pairing(e_{b}, e_{a}) != pairing(e_{a}, e_{b})"
    return None


def check_frobenius(fa: FrobeniusAlgebra) -> FrobeniusReport:
    """Check every Frobenius axiom and report per-axiom flags.

    Structural flags: unital, counital, associative, coassociative,
    frobenius, pairing_nondegenerate.  Descriptive flags: commutative
    (product equals its flip) and symmetric (counit of a product is
    flip-invariant).  first_violation names the first failed structural
    flag together with the offending entry.  Each identity is checked by
    _first_difference, so its entry is the least one in the key order of
    the check: (a, side, c) for unital, (c, side, x) for counital,
    (a, b, c, e) for associative, (p, q, r, c) for coassociative and
    (a, b, x, y) for frobenius, its first identity before the second.
    """
    n = fa.dim
    prod = fa.product.scaled_nonzeros()[0]
    cmap = _comult_map(fa.coproduct)
    by_in1, by_in2 = _product_joins(prod)
    beta = fa.pairing()

    details = {}

    def record(name, violation):
        if violation is not None:
            details[name] = violation
        return violation is None

    flags = {}
    flags["unital"] = record("unital", _unital_violation(n, fa.product, fa.unit))
    flags["counital"] = record("counital", _counital_violation(n, fa.coproduct, fa.counit))
    flags["associative"] = record("associative", _associative_violation(fa.product))
    flags["coassociative"] = record("coassociative", _coassociative_violation(cmap))
    flags["frobenius"] = record("frobenius", _frobenius_violation(prod, cmap, by_in1, by_in2))
    r = beta.rank()
    flags["pairing_nondegenerate"] = record(
        "pairing_nondegenerate", None if r == n else f"pairing has rank {r} of {n}"
    )
    flags["commutative"] = record("commutative", _commutative_violation(fa.product))
    flags["symmetric"] = record("symmetric", _symmetric_violation(beta))

    first = None
    for name in STRUCTURAL_FLAGS:
        if name in details:
            first = f"{name}: {details[name]}"
            break
    return FrobeniusReport(flags=flags, first_violation=first, details=details)


# ---------------------------------------------------------------------------
# constructors


def make_A(n: int, alpha, delta) -> FrobeniusAlgebra:
    """Commutative symmetric Frobenius algebra of dimension n + 2.

    Basis (1, a, a_1, ..., a_n) with a_i a_j = delta_ij * a and a nilpotent:
    a * a = a * a_i = 0.  Counit is (delta, alpha, 0, ..., 0); alpha must be
    nonzero for the pairing to be invertible.
    """
    alpha = rat(alpha)
    delta = rat(delta)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not alpha:
        raise ValueError("alpha must be nonzero")
    dim = n + 2
    ia = ONE / alpha

    prod = {}
    for b in range(dim):
        prod[(b, 0, b)] = ONE
        if b:
            prod[(b, b, 0)] = ONE
    for i in range(2, dim):
        prod[(1, i, i)] = ONE

    cop = {(0, 1, 0): ia, (1, 0, 0): ia, (1, 1, 0): -delta / alpha**2, (1, 1, 1): ia}
    for i in range(2, dim):
        cop[(i, i, 0)] = ia
        cop[(i, 1, i)] = ia
        cop[(1, i, i)] = ia

    return FrobeniusAlgebra(
        product=Tensor.from_entries((dim, dim, dim), prod),
        unit=Tensor.from_entries((dim,), {(0,): ONE}),
        coproduct=Tensor.from_entries((dim, dim, dim), cop),
        counit=Tensor.from_entries((dim,), {(0,): delta, (1,): alpha}),
    )


def make_F(n: int, alpha) -> FrobeniusAlgebra:
    """Matrix algebra of n-by-n matrices with trace-like counit.

    Basis e_ij at index i*n + j; counit(e_ij) = alpha * delta_ij.  Symmetric
    but not commutative once n >= 2.  n = 0 gives the zero algebra.
    """
    alpha = rat(alpha)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not alpha:
        raise ValueError("alpha must be nonzero")
    dim = n * n
    ia = ONE / alpha

    prod = {}
    cop = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                prod[(i * n + l, i * n + j, j * n + l)] = ONE
                cop[(i * n + l, l * n + j, i * n + j)] = ia

    return FrobeniusAlgebra(
        product=Tensor.from_entries((dim, dim, dim), prod),
        unit=Tensor.from_entries((dim,), {(i * n + i,): ONE for i in range(n)}),
        coproduct=Tensor.from_entries((dim, dim, dim), cop),
        counit=Tensor.from_entries((dim,), {(i * n + i,): alpha for i in range(n)}),
    )


def frobenius_from_form(product: Tensor, unit: Tensor, counit: Tensor) -> FrobeniusAlgebra:
    """Complete an associative unital algebra with a nondegenerate form
    counit(x * y) into a Frobenius algebra.

    The coproduct is (product x id)(id x copairing) where the copairing is
    the matrix inverse of the form.  Raises AxiomError if the input algebra
    is not associative or unital, RankError if the form is degenerate.
    """
    n = unit.shape[0] if unit.shape else 0
    if product.shape != (n, n, n) or counit.shape != (n,):
        raise ValueError("inconsistent tensor shapes")

    violation = _unital_violation(n, product, unit)
    if violation is not None:
        raise AxiomError("unital: " + violation)
    violation = _associative_violation(product)
    if violation is not None:
        raise AxiomError("associative: " + violation)

    beta = counit_form(product, counit)
    gamma = beta.inverse()
    if gamma is None:
        raise RankError("form counit(x * y) is degenerate", rank=beta.rank(), dim=n)

    cop = {}
    for (x, c, a), v in product.iter_nonzeros():
        for b in range(n):
            g = gamma[a, b]
            if g:
                k = (x, b, c)
                cop[k] = cop.get(k, ZERO) + v * g

    fa = FrobeniusAlgebra(
        product=product,
        unit=unit,
        coproduct=Tensor.from_entries((n, n, n), cop),
        counit=counit,
    )
    report = check_frobenius(fa)
    if not report.valid:
        raise ConsistencyError("derived coproduct fails verification: " + report.first_violation)
    return fa


def central_transition(f_from: FrobeniusAlgebra, f_to: FrobeniusAlgebra) -> Tensor:
    """Coordinates of the central element a with
    counit_from(x) = counit_to(a * x) for all x.

    Both arguments must be symmetric Frobenius structures on the same
    underlying algebra (identical product and unit tensors).
    """
    if f_from.dim != f_to.dim or f_from.product != f_to.product or f_from.unit != f_to.unit:
        raise ValueError("both structures must share the same product and unit")
    n = f_from.dim
    beta = f_to.pairing()
    rhs = [f_from.counit[(x,)] for x in range(n)]
    sol = beta.transpose().solve(rhs)
    if sol is None:
        raise RankError("target pairing is degenerate", rank=beta.rank(), dim=n)

    # counit_to(a * e_x) over d_a * d_P * d_to against counit_from(e_x)
    # over d_from, each side times the other's denominator
    ints, d_a = integer_scaled(sol)
    a = {i: x for i, x in enumerate(ints) if x}
    prod, d_p = f_to.product.scaled_nonzeros()
    e_to, d_to = integer_scaled(f_to.counit.entries)
    e_from, d_from = integer_scaled(f_from.counit.entries)
    e_to = [x * d_from for x in e_to]
    d_lhs = d_a * d_p * d_to
    if _first_difference(
        ((x, a[c] * v * e_to[d]) for (d, c, x), v in prod if c in a),
        ((x, e_from[x] * d_lhs) for x in range(n)),
    ) is not None:
        raise ConsistencyError("transition element does not reproduce the source counit")
    if _first_difference(
        (((b, d), a[c] * v) for (d, c, b), v in prod if c in a),
        (((b, d), a[c] * v) for (d, b, c), v in prod if c in a),
    ) is not None:
        raise ConsistencyError("transition element is not central; both counits must be symmetric")
    return Tensor((n,), [sol[i] for i in range(n)])


# ---------------------------------------------------------------------------
# combinations


def direct_sum(f: FrobeniusAlgebra, g: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Product algebra on the concatenated basis; unit is the sum of units."""
    n1 = f.dim
    dim = n1 + g.dim

    def shift(entries, offsets):
        out = {}
        for idx, v in entries:
            out[tuple(i + o for i, o in zip(idx, offsets))] = v
        return out

    prod = {idx: v for idx, v in f.product.iter_nonzeros()}
    prod.update(shift(g.product.iter_nonzeros(), (n1, n1, n1)))
    cop = {idx: v for idx, v in f.coproduct.iter_nonzeros()}
    cop.update(shift(g.coproduct.iter_nonzeros(), (n1, n1, n1)))
    unit = {idx: v for idx, v in f.unit.iter_nonzeros()}
    unit.update(shift(g.unit.iter_nonzeros(), (n1,)))
    counit = {idx: v for idx, v in f.counit.iter_nonzeros()}
    counit.update(shift(g.counit.iter_nonzeros(), (n1,)))

    return FrobeniusAlgebra(
        product=Tensor.from_entries((dim, dim, dim), prod),
        unit=Tensor.from_entries((dim,), unit),
        coproduct=Tensor.from_entries((dim, dim, dim), cop),
        counit=Tensor.from_entries((dim,), counit),
    )


def tensor_product(f: FrobeniusAlgebra, g: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Tensor-product algebra on the paired basis (a1, a2) -> a1*dim(g) + a2."""
    n2 = g.dim
    dim = f.dim * n2

    prod = {}
    for (c1, a1, b1), v1 in f.product.iter_nonzeros():
        for (c2, a2, b2), v2 in g.product.iter_nonzeros():
            prod[(c1 * n2 + c2, a1 * n2 + a2, b1 * n2 + b2)] = v1 * v2
    cop = {}
    for (a1, b1, c1), v1 in f.coproduct.iter_nonzeros():
        for (a2, b2, c2), v2 in g.coproduct.iter_nonzeros():
            cop[(a1 * n2 + a2, b1 * n2 + b2, c1 * n2 + c2)] = v1 * v2
    unit = {}
    for (a1,), v1 in f.unit.iter_nonzeros():
        for (a2,), v2 in g.unit.iter_nonzeros():
            unit[(a1 * n2 + a2,)] = v1 * v2
    counit = {}
    for (a1,), v1 in f.counit.iter_nonzeros():
        for (a2,), v2 in g.counit.iter_nonzeros():
            counit[(a1 * n2 + a2,)] = v1 * v2

    return FrobeniusAlgebra(
        product=Tensor.from_entries((dim, dim, dim), prod),
        unit=Tensor.from_entries((dim,), unit),
        coproduct=Tensor.from_entries((dim, dim, dim), cop),
        counit=Tensor.from_entries((dim,), counit),
    )
