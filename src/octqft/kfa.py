"""Open-closed pairs of Frobenius algebras joined by a zipper.

A structure here is a quadruple: an open sector (symmetric Frobenius algebra),
a closed sector (commutative Frobenius algebra), a zipper map from closed to
open whose image is central, and a cozipper map going back.  check_kfa
verifies the whole axiom list; the remaining operations build the standard
families, combine them, and extract the surface invariants

    invariant(g, w) = counit_closed(window^w handle^g unit_closed)

for surfaces of genus g with w windows, together with their generating
function in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .numkit import Matrix, Tensor, ONE, integer_scaled, rat
from .frobenius import (
    AxiomError,
    ConsistencyError,
    FrobeniusAlgebra,
    _commutative_violation,
    _symmetric_violation,
    _violation,
    check_frobenius,
    direct_sum,
    make_A,
    make_F,
    tensor_product,
)
from .character import CharacterForm, Good, Indeterminate, SequenceTable, classify_table


class UnsupportedCaseError(NotImplementedError):
    """The operation applies to a different structural family than the input."""


class IrrationalSpectrumError(RuntimeError):
    """The invariant table has a minimal recurrence that does not split over
    the rationals, so no rational closed form exists."""


class KFA:
    """Quadruple (open, closed, zipper, cozipper); treated as immutable.

    zipper is a matrix from the closed to the open sector, cozipper the other
    way around.
    """

    def __init__(self, open_: FrobeniusAlgebra, closed: FrobeniusAlgebra, zipper: Matrix, cozipper: Matrix):
        if zipper.rows != open_.dim or zipper.cols != closed.dim:
            raise ValueError(
                f"zipper must be {open_.dim}x{closed.dim}, got {zipper.rows}x{zipper.cols}"
            )
        if cozipper.rows != closed.dim or cozipper.cols != open_.dim:
            raise ValueError(
                f"cozipper must be {closed.dim}x{open_.dim}, got {cozipper.rows}x{cozipper.cols}"
            )
        self.open = open_
        self.closed = closed
        self.zipper = zipper
        self.cozipper = cozipper

    def __eq__(self, other):
        return (
            isinstance(other, KFA)
            and self.open == other.open
            and self.closed == other.closed
            and self.zipper == other.zipper
            and self.cozipper == other.cozipper
        )

    def __repr__(self):
        return f"KFA(open_dim={self.open.dim}, closed_dim={self.closed.dim})"

    def to_json(self):
        return {
            "open": self.open.to_json(),
            "closed": self.closed.to_json(),
            "zipper": self.zipper.to_json(),
            "cozipper": self.cozipper.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        """Rebuild from to_json(), decoding each distinct string once for
        the whole document."""
        parsed = {}
        open_ = FrobeniusAlgebra.from_json(obj["open"], parsed)
        closed = FrobeniusAlgebra.from_json(obj["closed"], parsed)
        zipper = Matrix.from_json(obj["zipper"], rows=open_.dim, cols=closed.dim, parsed=parsed)
        cozipper = Matrix.from_json(obj["cozipper"], rows=closed.dim, cols=open_.dim, parsed=parsed)
        return cls(open_, closed, zipper, cozipper)


# ---------------------------------------------------------------------------
# axiom checking


KFA_FLAGS = (
    "open_frobenius",
    "closed_frobenius",
    "closed_commutative",
    "closed_cocommutative",
    "open_symmetric",
    "open_cosymmetric",
    "zipper_unital",
    "zipper_homomorphism",
    "zipper_central",
    "duality",
    "cardy",
)


@dataclass
class KfaReport:
    flags: dict
    first_violation: str | None
    details: dict

    @property
    def valid(self) -> bool:
        return all(self.flags.values())

    def to_json(self):
        return {"flags": dict(self.flags), "first_violation": self.first_violation}


def _cocommutative_violation(coproduct):
    for (a, b, c), v in coproduct.iter_nonzeros():
        if a != b and coproduct[(b, a, c)] != v:
            return f"coproduct of basis {c} is not swap-invariant at component ({a},{b})"
    return None


def _copairing_symmetric_violation(fa):
    """Compares the copairing coproduct(unit) with its transpose on
    integers over d_C * d_u."""
    units, _ = fa.unit.scaled_nonzeros()
    u = {c: x for (c,), x in units}
    gamma = {}
    for (a, b, c), v in fa.coproduct.scaled_nonzeros()[0]:
        if c in u:
            gamma[(a, b)] = gamma.get((a, b), 0) + v * u[c]
    n = fa.dim
    for a in range(n):
        for b in range(a):
            if gamma.get((a, b), 0) != gamma.get((b, a), 0):
                return f"copairing component ({b},{a}) != ({a},{b})"
    return None


def _product_entries(left, right, scale):
    """Contributions ((i, j), scale * (left right)[i, j]) of the nonzero
    entries of the product of two integer matrices given as rows."""
    cols = list(zip(*right))
    for i, row in enumerate(left):
        for j, col in enumerate(cols):
            x = sum(map(mul, row, col))
            if x:
                yield (i, j), scale * x


def check_kfa(k: KFA) -> KfaReport:
    """Verify every axiom of the quadruple; one flag per axiom family.

    first_violation names the first failed flag together with the offending
    entry position.  The zipper, duality and Cardy identities report their
    least offending entry, in the key order (s, t, i) for zipper_homomorphism,
    (s, b, c) for zipper_central, (closed, open) for duality and (d, c) for
    cardy; the sector checks report what check_frobenius reports.

    The zipper, cozipper and both pairings are scaled to integer matrices
    with one denominator each, the structure tensors by
    Tensor.scaled_nonzeros, and every identity is compared on integers with
    both sides brought to one denominator.
    """
    flags = {}
    details = {}

    def record(name, violation):
        flags[name] = violation is None
        if violation is not None:
            details[name] = violation

    open_report = check_frobenius(k.open)
    record("open_frobenius", open_report.first_violation)
    closed_report = check_frobenius(k.closed)
    record("closed_frobenius", closed_report.first_violation)
    record("closed_commutative", _commutative_violation(k.closed.product))
    record("closed_cocommutative", _cocommutative_violation(k.closed.coproduct))
    record("open_symmetric", _symmetric_violation(k.open.pairing()))
    record("open_cosymmetric", _copairing_symmetric_violation(k.open))

    zipper, d_z = _scaled_rows(k.zipper)
    cozipper, d_cz = _scaled_rows(k.cozipper)
    oprod, d_po = k.open.product.scaled_nonzeros()
    cprod, d_pc = k.closed.product.scaled_nonzeros()

    # zipper sends the closed unit to the open unit: both over d_z * d_uc * d_uo
    c_unit, d_uc = integer_scaled(k.closed.unit.entries)
    o_unit, d_uo = integer_scaled(k.open.unit.entries)
    if all(sum(map(mul, row, c_unit)) * d_uo == x * d_z * d_uc for row, x in zip(zipper, o_unit)):
        record("zipper_unital", None)
    else:
        record("zipper_unital", "zipper(closed unit) != open unit")

    # zipper is multiplicative: zipper(e_s e_t) over d_pc * d_z and
    # zipper(e_s) zipper(e_t) over d_z^2 * d_po, both brought to d_pc * d_z^2 * d_po
    zrows = [[(c, z) for c, z in enumerate(row) if z] for row in zipper]  # open -> [(closed, z)]
    zcols = [[] for _ in range(k.closed.dim)]                              # closed -> [(open, z)]
    for i, row in enumerate(zrows):
        for c, z in row:
            zcols[c].append((i, z))
    lift = d_z * d_po
    record("zipper_homomorphism", _violation(
        (((s, t, i), v * z * lift) for (c, s, t), v in cprod for i, z in zcols[c]),
        (((s, t, i), zs * zt * v * d_pc) for (i, a, b), v in oprod
         for s, zs in zrows[a] for t, zt in zrows[b]),
        lambda s, t, i: f"zipper(e_{s} e_{t}) != zipper(e_{s}) zipper(e_{t})",
    ))

    # zipper image is central in the open sector: both sides over d_z * d_po
    record("zipper_central", _violation(
        (((s, b, c), z * v) for (c, a, b), v in oprod for s, z in zrows[a]),
        (((s, b, c), z * v) for (c, b, a), v in oprod for s, z in zrows[a]),
        lambda s, b, c: f"zipper(e_{s}) does not commute with open basis {b}",
    ))

    # pairing duality between zipper and cozipper: closed pairing times
    # cozipper over d_bc * d_cz, zipper^T times open pairing over d_z * d_bo
    c_pair, d_bc = _scaled_rows(k.closed.pairing())
    o_pair, d_bo = _scaled_rows(k.open.pairing())
    record("duality", _violation(
        _product_entries(c_pair, cozipper, d_z * d_bo),
        _product_entries([list(col) for col in zip(*zipper)], o_pair, d_bc * d_cz),
        lambda i, j: f"pairing duality fails at closed {i}, open {j}",
    ))

    # Cardy: zipper o cozipper equals product o swap o coproduct on the open
    # sector; the left side is over d_co * d_po, the right over d_z * d_cz
    omult = {}
    for (c, a, b), v in oprod:
        omult.setdefault((a, b), []).append((c, v))
    ocop, d_co = k.open.coproduct.scaled_nonzeros()
    lift = d_z * d_cz
    record("cardy", _violation(
        (((d, c), v * v2 * lift) for (a, b, c), v in ocop for d, v2 in omult.get((b, a), ())),
        _product_entries(zipper, cozipper, d_co * d_po),
        lambda d, c: f"Cardy relation fails at open entry ({d},{c})",
    ))

    first = None
    for name in KFA_FLAGS:
        if name in details:
            first = f"{name}: {details[name]}"
            break
    return KfaReport(flags=flags, first_violation=first, details=details)


# ---------------------------------------------------------------------------
# constructor families


def make_semisimple_kfa(n: int, alpha) -> KFA:
    """Matrix algebra open sector with one-dimensional closed sector.

    Open is the n-by-n matrix algebra with counit alpha * trace, closed is the
    ground field with counit alpha^2; the zipper sends 1 to the identity
    matrix and the cozipper reads off (1/alpha) * trace.
    """
    alpha = rat(alpha)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not alpha:
        raise ValueError("alpha must be nonzero")
    open_ = make_F(n, alpha)
    closed = make_F(1, alpha * alpha)
    zipper = Matrix.zeros(n * n, 1)
    cozipper = Matrix.zeros(1, n * n)
    for i in range(n):
        zipper[i * n + i, 0] = ONE
        cozipper[0, i * n + i] = ONE / alpha
    return KFA(open_, closed, zipper, cozipper)


def make_nonsemisimple_kfa(p: int, q: int, alpha, delta, sigma) -> KFA:
    """Nilpotent family: open A_{alpha,delta}(p), closed A_{beta,sigma}(q)
    with beta = alpha^2 / (p + 2).

    The zipper sends the closed unit to the open unit and the last closed
    nilpotent generator b_q to the open socle element a; everything else goes
    to zero.  The cozipper is its pairing dual.
    """
    alpha = rat(alpha)
    delta = rat(delta)
    sigma = rat(sigma)
    if p < 0:
        raise ValueError("p must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    if not alpha:
        raise ValueError("alpha must be nonzero")
    beta = alpha * alpha / (p + 2)
    open_ = make_A(p, alpha, delta)
    closed = make_A(q, beta, sigma)
    n_open = p + 2
    n_closed = q + 2
    zipper = Matrix.zeros(n_open, n_closed)
    zipper[0, 0] = ONE
    zipper[1, q + 1] = ONE
    cozipper = Matrix.zeros(n_closed, n_open)
    cozipper[1, 0] = delta / beta
    cozipper[q + 1, 0] = alpha / beta
    cozipper[1, 1] = alpha / beta
    return KFA(open_, closed, zipper, cozipper)


def make_closed_only(f: FrobeniusAlgebra) -> KFA:
    """Upgrade a commutative Frobenius algebra to a quadruple with empty
    open sector and zero zipper maps."""
    violation = _commutative_violation(f.product)
    if violation is not None:
        raise AxiomError("closed-only upgrade needs a commutative algebra: " + violation)
    open_ = FrobeniusAlgebra(
        product=Tensor.zeros((0, 0, 0)),
        unit=Tensor.zeros((0,)),
        coproduct=Tensor.zeros((0, 0, 0)),
        counit=Tensor.zeros((0,)),
    )
    return KFA(open_, f, Matrix.zeros(0, f.dim), Matrix.zeros(f.dim, 0))


def _block_diag(m1: Matrix, m2: Matrix) -> Matrix:
    out = Matrix.zeros(m1.rows + m2.rows, m1.cols + m2.cols)
    for i, row in enumerate(m1.nonzero_rows()):
        for j, v in row:
            out[i, j] = v
    for i, row in enumerate(m2.nonzero_rows()):
        for j, v in row:
            out[m1.rows + i, m1.cols + j] = v
    return out


def kfa_sum(k1: KFA, k2: KFA) -> KFA:
    return KFA(
        direct_sum(k1.open, k2.open),
        direct_sum(k1.closed, k2.closed),
        _block_diag(k1.zipper, k2.zipper),
        _block_diag(k1.cozipper, k2.cozipper),
    )


def kfa_product(k1: KFA, k2: KFA) -> KFA:
    return KFA(
        tensor_product(k1.open, k2.open),
        tensor_product(k1.closed, k2.closed),
        k1.zipper.kron(k2.zipper),
        k1.cozipper.kron(k2.cozipper),
    )


def scale_kfa(k: KFA, s) -> KFA:
    """Rescale by s: closed cap/cup pick up s^-2, closed pants s^2, open
    cap/cup s^-1, open pants s, zipper and cozipper s.

    The exponent of each generator is -2e + l where e is its Euler
    characteristic and l its number of interval boundary marks; the resulting
    invariants obey invariant'(g, w) = s^(-2(2-2g-w)) invariant(g, w).
    """
    s = rat(s)
    if not s:
        raise ValueError("scale factor must be nonzero")
    inv = ONE / s
    closed = FrobeniusAlgebra(
        product=k.closed.product.scale(s * s),
        unit=k.closed.unit.scale(inv * inv),
        coproduct=k.closed.coproduct.scale(s * s),
        counit=k.closed.counit.scale(inv * inv),
    )
    open_ = FrobeniusAlgebra(
        product=k.open.product.scale(s),
        unit=k.open.unit.scale(inv),
        coproduct=k.open.coproduct.scale(s),
        counit=k.open.counit.scale(inv),
    )
    return KFA(open_, closed, k.zipper.scale(s), k.cozipper.scale(s))


# ---------------------------------------------------------------------------
# invariants


@dataclass
class StructuralEndos:
    handle: Matrix
    window: Matrix
    hole: Matrix


def structural_endos(k: KFA) -> StructuralEndos:
    """Handle (closed loop), window (cozipper o zipper) and hole (open loop)
    endomorphisms, with their commutation identities verified."""
    handle = k.closed.product_matrix() * k.closed.coproduct_matrix()
    window = k.cozipper * k.zipper
    hole = k.open.product_matrix() * k.open.coproduct_matrix()
    if handle * window != window * handle:
        raise ConsistencyError("handle and window endomorphisms do not commute")
    if k.zipper * window != hole * k.zipper:
        raise ConsistencyError("zipper does not intertwine window with hole")
    if window * k.cozipper != k.cozipper * hole:
        raise ConsistencyError("cozipper does not intertwine hole with window")
    return StructuralEndos(handle=handle, window=window, hole=hole)


def _scaled_rows(m: Matrix):
    """The rows of m as integer lists, and their one denominator."""
    ints, d = integer_scaled(m.entries)
    n = m.cols
    return [ints[i * n:i * n + n] for i in range(m.rows)], d


def _int_product(a, b_cols):
    """Integer matrix product, a as rows and b as columns; returns rows."""
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a]


def _columns(rows):
    """Columns of a square integer matrix given as rows."""
    return [list(col) for col in zip(*rows)]


def _int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def invariant_table(k: KFA, g_max: int, w_max: int) -> SequenceTable:
    """Exact table of invariant(g, w) for g <= g_max, w <= w_max.

    Cross-checks the trace identities: invariant(g+1, w) equals the closed
    trace of handle^g window^w, invariant(0, w+2) equals the open trace of
    hole^w, and invariant(0, 1) equals the open counit of the open unit.
    Any mismatch raises ConsistencyError.

    Handle, window, hole, counits and units are scaled to integer matrices,
    one denominator each.  invariant(g, w) is the integer dot product of
    counit window^w and handle^g unit over the product of the denominators,
    one Fraction per cell, and each identity is compared as an integer
    equality with its denominators multiplied across.
    """
    if g_max < 0 or w_max < 0:
        raise ValueError("bounds must be >= 0")
    endos = structural_endos(k)
    r = k.closed.dim
    handle, d_h = _scaled_rows(endos.handle)
    window, d_w = _scaled_rows(endos.window)
    eps, d_eps = integer_scaled(k.closed.counit.entries)
    unit, d_unit = integer_scaled(k.closed.unit.entries)
    base = d_eps * d_unit

    # invariant(g, w) * base * d_w^w * d_h^g = (eps window^w) . (handle^g unit)
    window_cols = _columns(window)
    row_vecs = [eps]
    for _ in range(w_max):
        row_vecs.append([sum(map(mul, row_vecs[-1], col)) for col in window_cols])
    col_vecs = [unit]
    for _ in range(g_max):
        col_vecs.append([sum(map(mul, row, col_vecs[-1])) for row in handle])
    nums = [[sum(map(mul, rv, cv)) for rv in row_vecs] for cv in col_vecs]
    w_dens = [base]
    for _ in range(w_max):
        w_dens.append(w_dens[-1] * d_w)
    rows = []
    g_den = 1
    for num_row in nums:
        rows.append([Fraction(num, g_den * den) for num, den in zip(num_row, w_dens)])
        g_den *= d_h

    # closed-trace identity: trace(handle^(g-1) window^w) * base * d_h equals
    # the numerator of invariant(g, w); trace(A B) is flat(A) . flat(B^T)
    if g_max >= 1:
        wpow = _int_identity(r)
        wpow_t = []
        for w in range(w_max + 1):
            if w:
                wpow = _int_product(wpow, window_cols)
            wpow_t.append([x for col in zip(*wpow) for x in col])
        hpow = _int_identity(r)
        handle_cols = _columns(handle)
        for g in range(1, g_max + 1):
            flat = [x for row in hpow for x in row]
            for w in range(w_max + 1):
                if sum(map(mul, flat, wpow_t[w])) * base * d_h != nums[g][w]:
                    raise ConsistencyError(
                        f"closed trace identity fails at genus {g}, windows {w}"
                    )
            if g < g_max:
                hpow = _int_product(hpow, handle_cols)
    # open-trace identity: trace(hole^w) * base * d_w^(w+2) equals the
    # numerator of invariant(0, w+2) times d_o^w
    n = k.open.dim
    hole, d_o = _scaled_rows(endos.hole)
    hole_cols = _columns(hole)
    opow = _int_identity(n)
    o_den = 1
    for w in range(w_max - 1):
        trace = sum(opow[i][i] for i in range(n))
        if trace * w_dens[w + 2] != nums[0][w + 2] * o_den:
            raise ConsistencyError(f"open trace identity fails at {w} holes")
        if w + 3 <= w_max:
            opow = _int_product(opow, hole_cols)
            o_den *= d_o
    # the strip invariant equals the open counit of the open unit
    if w_max >= 1:
        o_eps, d_oe = integer_scaled(k.open.counit.entries)
        o_unit, d_ou = integer_scaled(k.open.unit.entries)
        if sum(map(mul, o_eps, o_unit)) * w_dens[1] != nums[0][1] * d_oe * d_ou:
            raise ConsistencyError("strip invariant differs from the open counit of the unit")
    return SequenceTable(g_max, w_max, tuple(map(tuple, rows)))


def character_of(k: KFA) -> CharacterForm:
    """Closed form of the invariant table.

    Computes the table up to (2r+4, 2r+4) with r the closed dimension, which
    is always enough to pin down the at-most-r geometric terms, and runs the
    table classifier.  A structure that passes check_kfa always admits a good
    closed form over some extension field; a rational one may still have an
    irrational spectrum, reported as IrrationalSpectrumError.
    """
    r = k.closed.dim
    size = 2 * r + 4
    table = invariant_table(k, size, size)
    result = classify_table(table, r)
    if isinstance(result, Good):
        return result.form
    if isinstance(result, Indeterminate):
        raise IrrationalSpectrumError(result.reason)
    raise ConsistencyError(f"verified structure produced a non-good table: {result.reason}")


def interpolated_gl_character(d, alpha) -> CharacterForm:
    """Character of the interpolated general-linear family at rank d.

    Valid for any rational d, including non-integers; at integer d = n it
    agrees with character_of(make_semisimple_kfa(n, alpha)).
    """
    alpha = rat(alpha)
    d = rat(d)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    lam = ONE / (alpha * alpha)
    return CharacterForm.make(exp_terms=[(lam, d / alpha, alpha * alpha)])


# ---------------------------------------------------------------------------
# projectors for the nilpotent family


@dataclass
class ProjectorSet:
    projectors: dict
    ranks: dict

    def to_json(self):
        return {
            "ranks": dict(self.ranks),
            "projectors": {name: m.to_json() for name, m in self.projectors.items()},
        }


def open_closed_projectors(k: KFA) -> ProjectorSet:
    """The seven sector projectors for structures whose character is purely
    polynomial with a nonzero window-squared coefficient.

    Verifies idempotency and pairwise orthogonality within each sector
    exactly; reports the rank of each projector.
    """
    form = character_of(k)
    if form.exp_terms:
        raise UnsupportedCaseError(
            "projector formulas require a character with no exponential part; "
            "structures with geometric spectrum split through the Gram-side "
            "spectral idempotents instead"
        )
    if not form.alpha_Y2:
        raise UnsupportedCaseError(
            "projector formulas require a nonzero window-squared coefficient; "
            "the degenerate polynomial case has no two-window normalization"
        )
    a1, ay, ay2 = form.alpha_1, form.alpha_Y, form.alpha_Y2
    endos = structural_endos(k)
    window, hole = endos.window, endos.hole

    n = k.open.dim
    r = k.closed.dim
    id_open = Matrix.identity(n)
    id_closed = Matrix.identity(r)
    ui_ei = k.open.unit_matrix() * k.open.counit_matrix()
    us_es = k.closed.unit_matrix() * k.closed.counit_matrix()
    w2 = window * window
    inv = ONE / ay2

    p_ui = (ui_ei * hole).scale(inv)
    p_ni = (hole * (ui_ei - id_open.scale(ay))).scale(inv)
    p_v = id_open - p_ui - p_ni
    p_us = (us_es * w2).scale(inv)
    p_ns = (w2 * (us_es - id_closed.scale(a1))).scale(inv)
    p_1 = (window * (us_es * window - id_closed.scale(ay))).scale(inv)
    p_w = id_closed - p_us - p_ns - p_1

    projectors = {
        "P_UI": p_ui,
        "P_NI": p_ni,
        "P_V": p_v,
        "P_US": p_us,
        "P_NS": p_ns,
        "P_1": p_1,
        "P_W": p_w,
    }
    for name, p in projectors.items():
        if p * p != p:
            raise ConsistencyError(f"{name} is not idempotent")
    for family in (("P_UI", "P_NI", "P_V"), ("P_US", "P_NS", "P_1", "P_W")):
        for a in family:
            for b in family:
                if a != b and not (projectors[a] * projectors[b]).is_zero():
                    raise ConsistencyError(f"{a} and {b} are not orthogonal")
    ranks = {name: p.rank() for name, p in projectors.items()}
    return ProjectorSet(projectors=projectors, ranks=ranks)
