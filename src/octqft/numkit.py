"""Exact rational numerics: tensors, matrices, polynomials, recurrences.

Values are fractions.Fraction at every interface.  No floats anywhere;
degenerate or irrational situations are reported, never approximated.
Matrices are dense (flat row-major entries) but the elimination and
multiplication routines skip zero entries, which matters for the large
Kronecker-product structure tensors whose nonzero count is tiny compared to
their volume.

All linear algebra runs through one fraction-free Gauss-Jordan core,
eliminate: integer rows, each scaled once, stored as dicts of their nonzero
entries, so zeros are skipped when a row is read, reduced or updated.
Matrix.rank, solve (one or several right-hand sides), nullspace, inverse
and recurrence_from_sequences read its pivots, scale and reduced rows.

Where a loop would do many Fraction operations it runs on integers over one
denominator instead (integer_scaled, Tensor.scaled_nonzeros): the axiom
checks of frobenius and kfa, eliminate, rational_roots and is_squarefree
(primitive integer polynomials).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod
from operator import mul

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string like '-3/4', or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rats(values, parsed=None) -> list:
    """rat() of each value in order, parsing each distinct string once.

    parsed maps the strings decoded so far to their values; pass one dict to
    several calls to share it across the parts of one document.  Only exact
    str values share a decoding: 1, 1.0 and True hash equal, so every other
    value goes through rat() and raises as it would alone.  Sharing is safe
    because Fractions are immutable."""
    if parsed is None:
        parsed = {}
    out = []
    for x in values:
        if type(x) is str:
            v = parsed.get(x)
            if v is None:
                v = parsed[x] = Fraction(x)
            out.append(v)
        else:
            out.append(rat(x))
    return out


def integer_scaled(values):
    """(ints, d): the rationals as integers over one denominator d > 0, the
    lcm of theirs, so that values[i] == ints[i] / d."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def rat_to_str(x: Fraction) -> str:
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# tensors


class Tensor:
    """Dense tensor with explicit shape and flat row-major entries.

    shape == () is a scalar.  Entries are Fractions.  scaled_nonzeros()
    gives the nonzero entries as integers over one denominator, which is
    what the axiom checks sum.
    """

    __slots__ = ("shape", "entries", "_nz", "_scaled")

    def __init__(self, shape, entries):
        self.shape = tuple(shape)
        n = prod(self.shape) if self.shape else 1
        if len(entries) != n:
            raise ValueError(f"shape {self.shape} needs {n} entries, got {len(entries)}")
        self.entries = entries
        self._nz = None
        self._scaled = None

    @classmethod
    def zeros(cls, shape):
        n = prod(shape) if shape else 1
        return cls(shape, [ZERO] * n)

    def flat_index(self, idx) -> int:
        k = 0
        for i, n in zip(idx, self.shape):
            if not 0 <= i < n:
                raise IndexError(f"index {idx} out of range for shape {self.shape}")
            k = k * n + i
        return k

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.entries[self.flat_index(idx)]

    def __setitem__(self, idx, value):
        if isinstance(idx, int):
            idx = (idx,)
        self.entries[self.flat_index(idx)] = rat(value)
        self._nz = None
        self._scaled = None

    @classmethod
    def from_entries(cls, shape, items):
        """Build from a {multi_index: value} dict.

        Caches the nonzero list directly, so large mostly-zero tensors never
        need a full dense scan.
        """
        t = cls.zeros(shape)
        nz = []
        for idx, v in items.items():
            v = rat(v)
            if not v:
                continue
            k = t.flat_index(idx)
            t.entries[k] = v
            nz.append((k, v))
        nz.sort()
        t._nz = nz
        return t

    def nonzeros(self):
        """Cached list of (flat_index, value) with value != 0."""
        if self._nz is None:
            self._nz = [(k, v) for k, v in enumerate(self.entries) if v]
        return self._nz

    def scaled_nonzeros(self):
        """Cached (items, d): the nonzero entries as (multi_index, int)
        pairs over one denominator d > 0, the lcm of theirs, so that each
        value is int / d."""
        if self._scaled is None:
            nz = self.nonzeros()
            ints, d = integer_scaled([v for _, v in nz])
            self._scaled = [(self.unflatten(k), x) for (k, _), x in zip(nz, ints)], d
        return self._scaled

    def iter_nonzeros(self):
        """Yield (multi_index, value) for the nonzero entries."""
        for k, v in self.nonzeros():
            yield self.unflatten(k), v

    def unflatten(self, k: int):
        idx = []
        for n in reversed(self.shape):
            idx.append(k % n)
            k //= n
        return tuple(reversed(idx))

    def scale(self, c) -> "Tensor":
        c = rat(c)
        return Tensor(self.shape, [c * v if v else ZERO for v in self.entries])

    def __eq__(self, other):
        return isinstance(other, Tensor) and self.shape == other.shape and self.entries == other.entries

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Dense matrix, shape [rows, cols], flat row-major Fraction entries."""

    __slots__ = ("rows", "cols", "entries", "_nzrows")

    def __init__(self, rows: int, cols: int, entries):
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._nzrows = None

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n):
        e = [ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = ONE
        return cls(n, n, e)

    @classmethod
    def from_rows(cls, rows_list, parsed=None):
        """Matrix of the given rows; parsed is passed on to rats()."""
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0

        def cells():
            for r in rows_list:
                if len(r) != cols:
                    raise ValueError("ragged rows")
                yield from r
        return cls(rows, cols, rats(cells(), parsed))

    def to_json(self):
        # str of a Fraction prints what rat_to_str prints
        n = self.cols
        flat = list(map(str, self.entries))
        return [flat[i * n:i * n + n] for i in range(self.rows)]

    @classmethod
    def from_json(cls, obj, rows=None, cols=None, parsed=None):
        """Rebuild from nested string lists; explicit rows/cols disambiguate
        empty shapes like 0 x n.  parsed is passed on to rats()."""
        if rows is None:
            rows = len(obj)
        if cols is None:
            cols = len(obj[0]) if obj else 0
        m = cls.from_rows(obj, parsed) if obj else cls.zeros(0, cols)
        if m.rows != rows or m.cols != cols:
            raise ValueError(f"expected {rows}x{cols} matrix, got {m.rows}x{m.cols}")
        return m

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def __setitem__(self, rc, value):
        r, c = rc
        self.entries[r * self.cols + c] = rat(value)
        self._nzrows = None

    def to_rows(self):
        n = self.cols
        return [self.entries[i * n:(i + 1) * n] for i in range(self.rows)]

    def nonzero_rows(self):
        """Cached list, per row, of (col, value) pairs with value != 0."""
        if self._nzrows is None:
            n = self.cols
            out = []
            for i in range(self.rows):
                base = i * n
                out.append([(j, self.entries[base + j]) for j in range(n) if self.entries[base + j]])
            self._nzrows = out
        return self._nzrows

    def __add__(self, other):
        self._check_same(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_same(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def _check_same(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def scale(self, c):
        c = rat(c)
        return Matrix(self.rows, self.cols, [c * v if v else ZERO for v in self.entries])

    def __mul__(self, other):
        """Matrix product, skipping zero entries of the left factor."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [ZERO] * (self.rows * other.cols)
        bn = other.nonzero_rows()
        oc = other.cols
        for i, arow in enumerate(self.nonzero_rows()):
            base = i * oc
            for j, a in arow:
                for k, b in bn[j]:
                    out[base + k] += a * b
        return Matrix(self.rows, other.cols, out)

    def kron(self, other):
        """Kronecker product; index of (i,j) in the product is i*dim2 + j."""
        r = self.rows * other.rows
        c = self.cols * other.cols
        out = [ZERO] * (r * c)
        for i, arow in enumerate(self.nonzero_rows()):
            for k, brow in enumerate(other.nonzero_rows()):
                base_r = (i * other.rows + k) * c
                for j, a in arow:
                    off = j * other.cols
                    for l, b in brow:
                        out[base_r + off + l] = a * b
        return Matrix(r, c, out)

    def transpose(self):
        out = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(self.cols, self.rows, out)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i * self.cols + i] for i in range(self.rows)), ZERO)

    def is_zero(self):
        return all(not v for v in self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        if self.rows * self.cols <= 16:
            return f"Matrix({self.to_rows()})"
        return f"Matrix({self.rows}x{self.cols})"

    def rank(self):
        return len(eliminate(self.to_rows(), self.cols)[0])

    def solve(self, rhs):
        """Solve self @ x = rhs (rhs a list, or a Matrix of several
        right-hand sides).  Returns a solution with free coordinates set to
        zero, or None if inconsistent."""
        return solve(self, rhs)

    def nullspace(self):
        return nullspace(self)

    def inverse(self):
        return inverse(self)


# elimination: one fraction-free core, read by rank, solve, nullspace and
# inverse


def eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of the rational rows, each of
    length ncols.  Returns (pivots, d, reduced): the pivot columns in
    increasing order, a nonzero integer d, and per pivot the {col: int}
    dict of the nonzero entries of d times its row of the reduced row
    echelon form, so d at its pivot and 0 at every other pivot.

    Each row's nonzero entries are scaled to integers once, by the lcm of
    their denominators as in integer_scaled; zero entries are never stored
    or visited.  The rows are taken in turn, until every column is a pivot.
    A row v becomes v' = d v - sum_c v[c] R_c over the pivot rows R_c whose
    column it meets, which is d times v reduced.  When v' is not zero its
    least column c' is a new pivot with scale p = v'[c'], and each pivot row
    R that meets c' becomes (p R - R[c'] v') / d.  Every entry is then a
    minor of the scaled rows, so each division is exact (Bareiss, Math.
    Comp. 22, 1968) and d is the determinant of the pivot block up to sign.
    A pivot row that misses c' keeps the scale s it was last written at: it
    is d / s times its entries, which it is brought to only when read."""
    piv = {}        # pivot column -> [row, the scale it was written at]
    d = 1
    for row in rows:
        if len(piv) == ncols:
            break
        cols = list(compress(range(ncols), row))
        if not cols:
            continue
        ratios = [row[j].as_integer_ratio() for j in cols]
        den = lcm(*[m for _, m in ratios])
        v = {j: x * (den // m) * d for j, (x, m) in zip(cols, ratios)}
        for c in cols:
            rec = piv.get(c)
            if rec is not None:
                r, s = rec
                if s != d:
                    r = rec[0] = {j: x * d // s for j, x in r.items()}
                    rec[1] = d
                _subtract(v, v[c] // d, r)
        if not v:
            continue
        c = min(v)
        p = v[c]
        # (p R - R[c] v') / d, with R = d / s times the stored row r, is
        # (p r - r[c] v') / s
        for rec in [rec for rec in piv.values() if c in rec[0]]:
            r, s = rec
            new = {j: p * x for j, x in r.items()}
            _subtract(new, r[c], v)
            rec[:] = {j: x // s for j, x in new.items()}, p
        piv[c] = [v, p]
        d = p
    pivots = sorted(piv)
    reduced = []
    for c in pivots:
        r, s = piv[c]
        reduced.append(r if s == d else {j: x * d // s for j, x in r.items()})
    return pivots, d, reduced


def _subtract(v, f, r):
    """v -= f r on {col: int} dicts, dropping the entries that vanish."""
    for j, y in r.items():
        w = v.get(j, 0) - f * y
        if w:
            v[j] = w
        else:
            del v[j]


def _solve(a: Matrix, b: Matrix):
    """The solution X of a X = b with free rows zero, or None."""
    if b.rows != a.rows:
        raise ValueError(f"{a.rows}x{a.cols} system with {b.rows} right-hand side rows")
    n, m = a.cols, b.cols
    pivots, d, reduced = eliminate((a.entries[i * n:i * n + n] + b.entries[i * m:i * m + m]
                                    for i in range(a.rows)), n + m)
    if pivots and pivots[-1] >= n:
        return None     # a pivot in the right-hand side: inconsistent
    out = [ZERO] * (n * m)
    for c, row in zip(pivots, reduced):
        for j in range(m):
            v = row.get(n + j)
            if v:
                out[c * m + j] = Fraction(v, d)
    return Matrix(n, m, out)


def solve(a: Matrix, rhs):
    """Particular solution of a x = rhs (free coordinates zero), or None.
    rhs is a list, or a Matrix whose columns are right-hand sides, and the
    solution is of the same kind."""
    if isinstance(rhs, Matrix):
        return _solve(a, rhs)
    x = _solve(a, Matrix(len(rhs), 1, rats(rhs)))
    return None if x is None else x.entries


def nullspace(a: Matrix):
    """Basis of the right nullspace as a list of length-cols vectors: per
    free column f, the vector with 1 at f, 0 at the other free columns."""
    pivots, d, reduced = eliminate(a.to_rows(), a.cols)
    basis = []
    for free in sorted(set(range(a.cols)).difference(pivots)):
        v = [ZERO] * a.cols
        v[free] = ONE
        for c, row in zip(pivots, reduced):
            if free in row:
                v[c] = Fraction(-row[free], d)
        basis.append(v)
    return basis


def inverse(a: Matrix):
    """Inverse, or None if singular: the solve against the identity."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    return _solve(a, Matrix.identity(a.rows))


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial over Q, coefficients lowest-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def t(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        p = cls([1])
        for r in roots:
            p = p * cls([-rat(r), 1])
        return p

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = rat(c)
        return Poly([c * v for v in self.coeffs])

    def shift(self, k: int):
        """Multiply by t**k."""
        if self.is_zero():
            return self
        return Poly([ZERO] * k + list(self.coeffs))

    def __call__(self, x):
        x = rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(rat_to_str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{rat_to_str(c)}*{t}")
        return "Poly(" + " + ".join(parts) + ")"


def _primitive(p: Poly):
    """The integer coefficients of p over the lcm of its denominators,
    divided by their gcd: p's primitive integer polynomial, lowest first."""
    ints = integer_scaled(p.coeffs)[0]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _pseudo_remainder(a, b):
    """An integer multiple lc(b)^k * (a mod b) of the remainder of a by b,
    for integer coefficient lists, lowest first, b nonzero; [] when b
    divides a."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db:
        f = r[-1]
        k = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def is_squarefree(p: Poly) -> bool:
    """Whether gcd(p, p') is constant, by a primitive remainder sequence on
    integer polynomials: each remainder differs from the rational one by a
    nonzero factor, so the degrees of the sequence are the same."""
    if p.degree <= 0:
        return True
    a = _primitive(p)
    b = [i * c for i, c in enumerate(a)][1:]
    while b:
        r = _pseudo_remainder(a, b)
        g = gcd(*r) or 1
        a, b = b, [c // g for c in r]
    return len(a) == 1


def rational_roots(p: Poly):
    """All rational roots with multiplicities.

    Returns (roots, fully_split) where roots is a list of (root, multiplicity)
    sorted by root, and fully_split says whether the polynomial factors
    completely over Q (i.e. deflating all rational roots leaves a constant).

    Works on the primitive integer polynomial a_0 + ... + a_d t^d of p with
    t^k stripped.  A candidate root u/v in lowest terms, u dividing a_0 and
    v dividing a_d, is tested by homogeneous Horner: sum a_i u^i v^(d-i) = 0.
    A root is deflated by exact integer division by v t - u, integral by
    Gauss's lemma, until the candidate no longer vanishes.
    """
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    roots = []
    # strip t^k
    k = 0
    while not p.coeffs[k]:
        k += 1
    if k:
        roots.append((ZERO, k))
    a = _primitive(p)[k:]
    if len(a) > 1:
        a0, ad = abs(a[0]), abs(a[-1])
        dens = sorted(_divisors(ad))
        for num in sorted(_divisors(a0)):
            for v in dens:
                if gcd(num, v) > 1:
                    continue    # num/v was tried in lowest terms already
                for u in (num, -num):
                    mult = 0
                    while len(a) > 1 and not _homogeneous_value(a, u, v):
                        a = _deflate(a, u, v)
                        mult += 1
                    if mult:
                        roots.append((Fraction(u, v), mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, len(a) <= 1


def _homogeneous_value(a, u, v):
    """v^d * a(u/v) for the integer coefficients a, lowest first."""
    acc = a[-1]
    vk = v
    for c in reversed(a[:-1]):
        acc = acc * u + c * vk
        vk *= v
    return acc


def _deflate(a, u, v):
    """The integer quotient of a by v t - u, which divides it; its
    coefficients from the top are b_(i-1) = (a_i + u b_i) / v."""
    out = [a[-1] // v]
    for c in reversed(a[1:-1]):
        out.append((c + u * out[-1]) // v)
    return out[::-1]


def _divisors(n: int):
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def recurrence_from_sequences(seqs, max_order: int):
    """Minimal monic polynomial p of degree d <= max_order with
    sum_i p_i * s[k+i] = 0 for every window of every sequence, or None.

    Every sequence must have length >= 2*max_order + 1 so that a spurious
    short-data annihilator cannot be returned.  All-zero input returns t by
    convention (so the "spectrum" is {0} rather than the empty product).

    All arithmetic is on integers: each sequence is scaled by the lcm of its
    denominators, which keeps its recurrences.  The windows of length
    max_order + 1 of every sequence are the rows of one matrix W.  Its
    first column d in the span of the columns before it gives the
    candidate: those columns are independent, so no order below d fits even
    these rows, and the order-d fit is unique.  W^T W has the same
    nullspace over Q (W^T W x = 0 gives |W x|^2 = 0), so eliminate reduces
    its width x width rows in place of the many windows, and the candidate
    is read off its first non-pivot column as integers over the scale.  It
    is then certified on every window of every sequence.  A failure at s[N]
    comes after the candidate has generated s[0..N-1], with
    N >= len(s) - max_order + d, so by Massey's lemma every recurrence of
    s[0..N] has order >= N + 1 - d > max_order: none exists.
    """
    seqs = [[rat(x) for x in s] for s in seqs]
    if not seqs:
        raise ValueError("no sequences given")
    for s in seqs:
        if len(s) < 2 * max_order + 1:
            raise ValueError(
                f"sequence of length {len(s)} is too short for order {max_order}"
                f" (need at least {2 * max_order + 1})")
    if all(not x for s in seqs for x in s):
        return Poly.t()
    if max_order < 1:
        return None
    ints = [integer_scaled(s)[0] for s in seqs]
    width = max_order + 1
    # column i of the window matrix W, and W^T W, which has its nullspace
    cols = [[x for s in ints for x in s[i:len(s) - max_order + i]] for i in range(width)]
    pivots, det, reduced = eliminate(([sum(map(mul, a, b)) for b in cols] for a in cols), width)
    d = next((j for j, c in enumerate(pivots) if j != c), len(pivots))
    if d == width:
        return None
    # column d of W^T W, and so of W, is sum_i reduced[i][d] / det times
    # column i < d
    y = [-row.get(d, 0) for row in reduced[:d]] + [det]
    for s in ints:
        for k in range(len(s) - d):
            if sum(map(mul, y, s[k:k + d + 1])):
                return None
    return Poly([Fraction(c, det) for c in y])
