"""The pairing of diagrams induced by a character, and everything built on
top of it: Gram matrices and hom-space dimensions, negligible-morphism
tests, minimal polynomials of the handle and hole endomorphisms, the
idempotent decomposition of the closed sector, and the nilpotent-trace
obstruction that certifies a generating function as not good.

The pairing of two endomorphisms f, g of the same object is the character
value of the trace closure of f∘g: glue the outputs of the composite back
onto its inputs, split the resulting closed diagram into connected
components, and multiply the character values of their (genus, windows)
types.  Characters (closed forms, value tables, rational generating
functions) live in the character module; the pairing reads one only
through value(g, w).  A linear combination carries the interned summary
id of each term from the moment it is built (cobordism.LinComb), and the
summary id is the term's identity: lc_add, lc_sub and lc_compose keep one
term per id (_merged), gluing a composite's id from its factors'.  Terms
with equal summaries pair alike against every partner, so merging them
changes no pairing.  Every pairing of given terms is a row of
_pairing_row: the terms of one side, each run through one
cobordism.closure_row over the summaries of the other side, with one χ
product per distinct closure-types tuple.  Pair, is_negligible, the
quotient algebra, the splitting check, the witness scan and the pivot
engine (_SymPivot, which asks for rows) all read such rows.  A full Gram
matrix is filled a block per pair of shape groups of its spanning set
instead (_gram_rows): each root of the closure plan of the two shapes
reads its closed type from a small table of label sums, so a row of a
block is a few C-level passes, and the entries are coded by value.  χ is multiplied out once per closure-types tuple, and the integer
scaling and the CLI's rendering run once per distinct value.
Ranks and quotient bases are picked by symmetric pivoting mod a prime on
packed big-int columns (_SymPivot) and certified exactly over Z
(_certified_keys): the certificate runs each time single acceptance
stalls and ends the selection once it holds.  The curated sets of S and I
under a closed-form χ (spanning_end, which records the exponents of its
entries) need neither the fill nor its certificate: χ has a Hankel
factorization of finite rank r, so their Gram is Φ M Φᵀ with at most
1 + r + r² independent rows in Φ, and its rank is that of the Gram of as
many entries (_factored_rank).  Their quotient basis is the same modular
selection over rows computed as it asks for them, proven once it holds
that many keys (_curated_keys).  Entries with equal rows of Φ have equal
Gram rows, so their full Gram is filled once per such feature class and
a row is paired once per request of classes (_feature_classes).  A handle
whose row class already holds a key, an entry of such a feature class or
an enumerated class with the shape and labels of a key, is dropped from
the selection before it is paired (_SymPivot.select).
"""
from __future__ import annotations

import heapq
from itertools import chain, repeat
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import mul, sub

from . import numkit
from .numkit import Matrix, Rat, ZERO, ONE, eliminate, integer_scaled, rat, Poly, nullspace
from .frobenius import (
    ConsistencyError,
    _associativity_difference,
    _unital_violation,
    counit_form,
)
from .character import CharacterForm
from .cobordism import (
    Gen,
    Id,
    Swap,
    Compose,
    Tensor,
    LinComb,
    TermTypeError,
    parse,
    pretty,
    summarize,
    closure_row,
    compose_summaries,
    summary_id,
    intern_summary,
    _SUMMARIES,
    _closed_type,
    _fold,
    _leaf_summary,
    _split_plan,
    _sum_labels,
)


class IncompleteSpanningError(RuntimeError):
    """A product left the span of the term space: the spanning set (or the
    enumeration budget behind it) is too small."""


def _chi_products(chi):
    """The function from closure types to the product of the values of chi
    over them, the value of a closed diagram with one component of each
    (genus, windows) type; it multiplies each product out once."""
    @cache
    def value(types):
        v = chi.value(*types[0]) if types else ONE
        for g, w in types[1:]:
            if not v:
                break
            v *= chi.value(g, w)
        return v
    return value


# ---------------------------------------------------------------------------
# endomorphism term constructors


def _chain(names):
    """The generators named, composed in diagram order and nested to the
    left, as parse builds "a ; b ; c"."""
    return reduce(Compose, map(Gen, names))


def _sigma_names(g, w):
    return ["dS", "mS"] * g + ["z", "zs"] * w


def sigma_endo(g: int, w: int):
    """G^g ∘ W^w as an endomorphism term of S (handle and window loops)."""
    names = _sigma_names(g, w)
    return _chain(names) if names else Id("S")


def hole_endo(m: int):
    """H^m as an endomorphism term of I (hole loops)."""
    return _chain(["dI", "mI"] * m) if m else Id("I")


def iota_sigma_endo(g: int, w: int):
    """The zipper sandwich ι ∘ G^g W^w ∘ ι* as an endomorphism of I."""
    return _chain(["zs", *_sigma_names(g, w), "z"])


def cap_sandwich_endo(x: int, y: int, z: int, t: int):
    """σ_{x,y} ∘ u_S ε_S ∘ σ_{z,t} as an endomorphism of S."""
    return _chain(_sigma_names(z, t) + ["eS", "uS"] + _sigma_names(x, y))


def iota_cap_sandwich_endo(x: int, y: int, z: int, t: int):
    """ι ∘ σ_{x,y} ∘ u_S ε_S ∘ σ_{z,t} ∘ ι* as an endomorphism of I."""
    return _chain(["zs", *_sigma_names(z, t), "eS", "uS", *_sigma_names(x, y), "z"])


def lc(term, coeff=ONE) -> LinComb:
    return LinComb([(rat(coeff), term)])


def lc_identity(obj: str) -> LinComb:
    return LinComb([(ONE, Id(obj))])


def _merged(entries) -> LinComb:
    """The combination of (coefficient, term, summary id) entries with one
    term per summary id: the first term seen with that id, carrying the sum
    of their coefficients; zero sums are dropped.  Only the ids are hashed,
    never a term tree."""
    acc = {}
    for c, t, sid in entries:
        acc.setdefault(sid, [ZERO, t])[0] += c
    kept = [(sid, c, t) for sid, (c, t) in acc.items() if c]
    return LinComb([(c, t) for _, c, t in kept], [sid for sid, _, _ in kept])


def _entries(f: LinComb):
    """The (coefficient, term, summary id) entries of f."""
    return ((c, t, sid) for (c, t), sid in zip(f.terms, f.sids))


def lc_add(f: LinComb, g: LinComb) -> LinComb:
    return _merged((*_entries(f), *_entries(g)))


def lc_scale(f: LinComb, c) -> LinComb:
    c = rat(c)
    if not c:
        return LinComb([])
    return LinComb([(c * cf, t) for cf, t in f.terms], f.sids)


def lc_sub(f: LinComb, g: LinComb) -> LinComb:
    return lc_add(f, lc_scale(g, -ONE))


def lc_compose(f: LinComb, g: LinComb) -> LinComb:
    """f ∘ g: apply g first.  The summary of each composite term is glued
    from those of its factors, and composites with equal summaries merge."""
    return _merged((cf * cg, Compose(tg, tf),
                    intern_summary(compose_summaries(_SUMMARIES[sg], _SUMMARIES[sf])))
                   for cf, tf, sf in _entries(f) for cg, tg, sg in _entries(g))


def _as_lincomb(f):
    return f if isinstance(f, LinComb) else lc(f)


# ---------------------------------------------------------------------------
# the pairing


def closure_types(sid_first, sid_then):
    """(genus, windows) multiset of the trace closure of the term summarized
    as sid_first followed by the one summarized as sid_then: one entry of a
    closure_row.  No pairing in this module calls it; it names one closure
    for callers outside, such as the benchmark's tracer."""
    return next(closure_row(_SUMMARIES[sid_first], (_SUMMARIES[sid_then],)))


def _pairing_row(terms, partners, value):
    """Per partner summary b, lazily so that a caller may stop early: the
    sum of c·χ(closure of (s then b)) over the (coefficient, summary) terms
    (c, s), with χ products read from value (_chi_products).  Each term
    runs one closure_row over the partners."""
    if not terms:
        return repeat(ZERO, len(partners))
    rows = [map(value, closure_row(s, partners)) for _, s in terms]
    if len(terms) == 1 and terms[0][0] == 1:
        return rows[0]
    coeffs = [c for c, _ in terms]
    return (sum(map(mul, coeffs, col), ZERO) for col in zip(*rows))


def _terms(f: LinComb):
    """The (coefficient, summary) terms of f."""
    return [(c, _SUMMARIES[sid]) for c, sid in f.summary_ids()]


def _summaries(entries):
    """The summaries of one-term combinations, such as term-space entries."""
    return [_SUMMARIES[e.sids[0]] for e in entries]


def _check_endomorphisms(sf, sg):
    if sf[0] != sf[1] or sg[0] != sg[1]:
        raise TermTypeError(f"pairing needs endomorphisms, got {sf} and {sg}")
    if sf != sg:
        raise TermTypeError(f"pairing across different objects: {sf[0]!r} vs {sg[0]!r}")


def pair(f, g, chi) -> Rat:
    """Character value of the trace closure of f ∘ g, extended bilinearly.

    f and g must be endomorphisms (or linear combinations of endomorphism
    terms) of one common object word.  The closure of (a then b) is that of
    (b then a), so the side with fewer terms runs the rows.
    """
    f = _as_lincomb(f)
    g = _as_lincomb(g)
    if not f.terms or not g.terms:
        return ZERO
    _check_endomorphisms(f.signature(), g.signature())
    if len(f.terms) > len(g.terms):
        f, g = g, f
    row = _pairing_row(_terms(f), [s for _, s in _terms(g)], _chi_products(chi))
    return sum(map(mul, (c for c, _ in g.terms), row), ZERO)


def categorical_trace(f, chi) -> Rat:
    """Character value of the trace closure of f itself."""
    f = _as_lincomb(f)
    return pair(f, lc_identity(f.signature()[0]), chi) if f.terms else ZERO


# ---------------------------------------------------------------------------
# term spaces


@dataclass
class TermSpace:
    object: str
    spanning: list          # LinCombs of one endomorphism term each, with its summary id
    g_bound: int = None
    w_bound: int = None
    exponents: dict = None  # curated sets: summary id -> exponent tuple, in spanning order


def spanning_end(obj: str, chi: CharacterForm) -> TermSpace:
    """The curated spanning set of the endomorphism space of S or I.

    Handle and window powers are truncated at the number of distinct
    handle (resp. window) eigenvalues plus two, which is sound because the
    handle and hole endomorphisms satisfy the minimal polynomials
    t^2 Π(t - root).  The set of I misses the powers of the hole, so a rank
    computed on it is only a lower bound for the dimension of End(I).

    The summary of each entry is composed from those of its blocks: σ_{g,w}
    from σ_{g,w−1} and a window (σ_{g,0} from σ_{g−1,0} and a handle), a
    cap sandwich as σ ; cap ; σ, and the ι sandwiches of I as zs ; · ; z.
    The space records what its entries are (exponents): ("id",) for the
    identity of I, ("sig", g, w) for σ_{g,w} and ("cap", x, y, z, t) for a
    cap sandwich, plain or ι-sandwiched, keyed by summary id.
    """
    if not isinstance(chi, CharacterForm):
        raise TypeError("curated spanning sets need a character in closed form")
    if obj not in ("S", "I"):
        raise ValueError(f"curated spanning sets exist for 'S' and 'I', not {obj!r}")
    gb = len({t[0] for t in chi.exp_terms}) + 2
    wb = len({t[1] for t in chi.exp_terms}) + 2

    def chain(*summaries):
        return reduce(compose_summaries, summaries)

    handle, window, cap = (summarize(_chain(names))
                           for names in (["dS", "mS"], ["z", "zs"], ["eS", "uS"]))
    grid = [(g, w) for g in range(gb + 1) for w in range(wb + 1)]
    sig = {(0, 0): summarize(Id("S"))}
    for g, w in grid[1:]:
        sig[g, w] = chain(sig[g, w - 1], window) if w else chain(sig[g - 1, 0], handle)
    blocks = ([(("sig", *e), s) for e, s in sig.items()]
              + [(("cap", *a, *b), chain(sig[b], cap, sig[a])) for a in grid for b in grid])
    if obj == "S":
        build = {"sig": sigma_endo, "cap": cap_sandwich_endo}
        entries = [(e, build[e[0]](*e[1:]), s) for e, s in blocks]
    else:
        build = {"sig": iota_sigma_endo, "cap": iota_cap_sandwich_endo}
        cozipper, zipper = summarize(Gen("zs")), summarize(Gen("z"))
        entries = ([(("id",), Id("I"), summarize(Id("I")))]
                   + [(e, build[e[0]](*e[1:]), chain(cozipper, s, zipper)) for e, s in blocks])
    sids = [intern_summary(s) for _, _, s in entries]
    return TermSpace(obj, [LinComb([(ONE, t)], [sid]) for (_, t, _), sid in zip(entries, sids)],
                     gb, wb, dict(zip(sids, (e for e, _, _ in entries))))


class _Codes(dict):
    """Small integer codes of hashable keys, local to one caller: a key
    missing from the dict gets the code derive(key), or the next code when
    there is no derive, and keeps it, so a hit is one C-level lookup through
    __getitem__."""

    def __init__(self, derive=None):
        self.derive = derive

    def __missing__(self, key):
        code = self[key] = self.derive(key) if self.derive else len(self)
        return code


def _gram_rows(ts: TermSpace, chi):
    """The full symmetric Gram matrix of ts under chi as rows of codes, one
    code per distinct value, and the values: the entry (i, j) is
    values[rows[i][j]].

    The spanning summaries are grouped by shape, and the matrix is filled a
    block per pair of groups, the block below the diagonal as the transpose
    of the one above.  In a block each root of the closure plan
    (_split_plan) sums the labels of its members on either side; its
    closed type is read from one small table per pair of distinct sums,
    plus the root's offsets, expanded along the columns.  The key of an
    entry is (closed types of the row summary, of the column summary, the
    type of each root), so a row is one zip of C-level passes.  Each
    distinct key is read once: its types sorted into the closure-types
    tuple, whose χ product comes from _chi_products and whose value names
    the code.

    On a curated space under a closed-form chi the entries of one feature
    class (_feature_classes) have equal rows and columns, so only one
    representative per class is filled, and each class row is expanded once
    over the class index: the rows of the entries of one class are one
    shared list, which callers must not change.  When every class has one
    member the space is filled as it is."""
    classes = _feature_classes(ts, chi)
    if classes is not None and len(classes[1]) < len(ts.spanning):
        index, reps = classes
        rows, values = _gram_rows(TermSpace(ts.object, [ts.spanning[i] for i in reps]), chi)
        shared = [list(map(row.__getitem__, index)) for row in rows]
        return list(map(shared.__getitem__, index)), values
    summaries = _summaries(ts.spanning)
    groups = {}
    for i, s in enumerate(summaries):
        groups.setdefault(s.shape, []).append(i)
    order = [i for pos in groups.values() for i in pos]
    members = [[summaries[i] for i in pos] for pos in groups.values()]
    value = _chi_products(chi)
    by_value = _Codes()
    by_types = _Codes(lambda types: by_value[value(types)])
    codes = _Codes(lambda key: by_types[tuple(sorted(key[0] + key[1] + key[2:]))])
    sums = {}

    def side(x, ms):
        # per summary of group x, the code of its label sum over ms, and the
        # distinct sums in code order
        got = sums.get((x, ms))
        if got is None:
            ids = _Codes()
            got = sums[x, ms] = ([ids[_sum_labels(((ms, 0, 0),), s.comps, [], False)[0]]
                                  for s in members[x]], list(ids))
        return got

    def block(x, y):
        ga, gb = members[x], members[y]
        cols = []           # per root: per summary of ga, its row of closed types
        for (am, e, w), (bm, _, _) in zip(*_split_plan(ga[0].shape, gb[0].shape)):
            a_ids, a_sums = side(x, am)
            b_ids, b_sums = side(y, bm)
            table = [list(map([_closed_type(e + ea + eb, w + wa + wb)
                               for eb, wb in b_sums].__getitem__, b_ids)) for ea, wa in a_sums]
            cols.append(list(map(table.__getitem__, a_ids)))
        closed_b = [s.closed for s in gb]
        # closed diagrams, endomorphisms of the empty word, glue no roots
        return [list(map(codes.__getitem__, zip(repeat(s.closed), closed_b, *types)))
                for s, types in zip(ga, zip(*cols) if cols else repeat(()))]

    k = len(members)
    blocks = {(x, y): block(x, y) for x in range(k) for y in range(x, k)}
    rows = []
    for x in range(k):
        parts = [list(zip(*blocks[y, x])) for y in range(x)] + [blocks[x, y] for y in range(x, k)]
        rows += [list(chain.from_iterable(row)) for row in zip(*parts)]
    if order != sorted(order):
        # back from the grouped order: original position i sits at at[i]
        at = [0] * len(order)
        for p, i in enumerate(order):
            at[i] = p
        rows = [list(map(rows[p].__getitem__, at)) for p in at]
    return rows, list(by_value)


def _integer_gram(rows, values):
    """The coded Gram (rows, values) scaled by the lcm of the denominators
    of its values to integer rows: one multiply per distinct value, then a
    list lookup per entry."""
    ints = integer_scaled(values)[0]
    return [list(map(ints.__getitem__, row)) for row in rows]


# ---------------------------------------------------------------------------
# the factored rank of a curated space
#
# A closed-form χ is Σ c λ^g μ^w plus a polynomial P on {1, X, Y, Y²}.  With
# F(g, w) = (λ_t^g μ_t^w)_t, a value at a sum of exponent pairs a_1 .. a_m
# and a shift s is multilinear in their features:
#   χ(a_1 + … + a_m + s) = Σ_t c_t λ_t^s_g μ_t^s_w Π_i F_t(a_i)
#                          + Σ_{u_1..u_m} P(u_1 + … + u_m + s) Π_i [a_i = u_i]
# over cells u_i ≤ (1, 2), the only cells whose sums can land in the support
# of P.  Every pairing of two curated entries is such a value (m = 0 to 3),
# or a product of two (cap against cap), with the entries' exponents for
# the a_i and the pair's handle and window shift for s.  So the Gram is Φ M Φᵀ: σ_{g,w}
# has the feature row F(g, w), with the indicators of the cells appended
# when P ≠ 0; a cap sandwich cap(x, y, z, t) has F(x, y) ⊗ F(z, t); the
# identity of I has 1; and M is a fixed middle.  Take B the grid points
# whose rows are independent of those before them: the σ_b for b in B span
# the σ rows, and the cap(b, b′) for b, b′ in B span the cap rows, their
# Kronecker square.  Those entries, with the identity of I, are a row basis
# Ψ of Φ, so the rank of the Gram is the rank of Ψ M Ψᵀ, the Gram of those
# entries: at most 1 + r + r² of them, r = len(F).  Entries with equal rows
# of Φ, a feature class, have equal rows and columns in the Gram, so the
# full Gram is filled for one entry per class (_feature_classes).  Under a
# χ with few distinct F(g, w), such as λ = 1 where F depends on w alone,
# the classes are few.

_CELLS = [(g, w) for g in range(2) for w in range(3)]


def _features(chi, g, w) -> list:
    """F(g, w) under chi: λ^g μ^w per exponential term (0^0 = 1), then, when
    chi has a polynomial part, the indicator of each cell of _CELLS."""
    row = [lam ** g * mu ** w for lam, mu, _ in chi.exp_terms]
    if any((chi.alpha_1, chi.alpha_X, chi.alpha_Y, chi.alpha_Y2)):
        row += [ONE if (g, w) == cell else ZERO for cell in _CELLS]
    return row


def _factorizes(ts: TermSpace, chi) -> bool:
    """True when the Hankel factorization (above) applies to ts under chi:
    chi is a CharacterForm and ts records the exponents of its entries in
    spanning order, so it is a space built by spanning_end and not changed
    since."""
    return (isinstance(chi, CharacterForm) and ts.exponents is not None
            and list(ts.exponents) == [e.sids[0] for e in ts.spanning])


def _feature_classes(ts: TermSpace, chi):
    """(index, reps): the feature class of each entry of ts under chi, and
    the position of the first entry of each class; None when the
    factorization does not apply (_factorizes).  The class of an entry is
    its row of Φ: ("id",), ("sig", F(g, w)) or ("cap", F(x, y), F(z, t)),
    each distinct F(g, w) coded once per grid point.  Entries of one class
    have equal rows and columns in the Gram."""
    if not _factorizes(ts, chi):
        return None
    features = _Codes()
    point = _Codes(lambda p: features[tuple(_features(chi, *p))])

    def key(e):
        if e[0] == "sig":
            return e[0], point[e[1:]]
        if e[0] == "cap":
            return e[0], point[e[1:3]], point[e[3:]]
        return e

    classes = _Codes()
    index = [classes[key(e)] for e in ts.exponents.values()]
    reps = []
    for i, c in enumerate(index):
        if c == len(reps):  # codes are given in order of first appearance
            reps.append(i)
    return index, reps


def _factored_rank(ts: TermSpace, chi):
    """The Gram rank of the curated space ts under chi, as the rank of the
    Gram of a row basis of its Hankel factorization (above), certified by
    _certified_keys; None when the factorization does not apply
    (_factorizes), or when MOD_P1 divides a denominator of chi, so that the
    integer-scaled Gram could select other keys mod p than the values do
    (_curated_keys)."""
    if not _factorizes(ts, chi):
        return None
    params = (chi.alpha_1, chi.alpha_X, chi.alpha_Y, chi.alpha_Y2, *chain(*chi.exp_terms))
    if any(x.denominator % MOD_P1 == 0 for x in params):
        return None
    at = {e: i for i, e in enumerate(ts.exponents.values())}
    points = [e[1:] for e in at if e[0] == "sig"]
    # pivot columns: the grid points whose rows are independent of those before
    pivots = eliminate(zip(*(_features(chi, *p) for p in points)), len(points))[0]
    basis = [points[c] for c in pivots]
    core = ([i for e, i in at.items() if e[0] == "id"] + [at[("sig", *b)] for b in basis]
            + [at[("cap", *a, *b)] for a in basis for b in basis])
    sub = TermSpace(ts.object, [ts.spanning[i] for i in core])
    return len(_certified_keys(_integer_gram(*_gram_rows(sub, chi))))


def _curated_keys(ts: TermSpace, chi, rank) -> list:
    """The keys that _certified_keys picks from the integer-scaled Gram of
    ts, given its rank (_factored_rank), with no fill.  The same selection
    mod MOD_P1 runs over the rows it asks for (_SymPivot).  Entries of one
    feature class (_feature_classes) have equal rows, so each distinct
    request, keyed by the classes of the handle and of its partners, is one
    _pairing_row over the first entries of those classes.  An entry whose
    class already holds a key has that key's row, so select drops it
    unpaired (row_class).  No denominator of
    chi is a multiple of MOD_P1, so the scaling is a unit mod p and the
    values select the keys the scaled Gram does.  The selection is proven
    once it holds rank keys: that is the stall at which _schur_vanishes
    would first hold.  When it ends short, because a value nonzero over Q
    vanished mod p, the keys are picked again over Q, where a maximal block
    has rank keys."""
    index, reps = _feature_classes(ts, chi)
    firsts = _summaries([ts.spanning[i] for i in reps])
    value = _chi_products(chi)

    def rows(number):
        @cache
        def class_row(c, cs):
            return list(_pairing_row([(ONE, firsts[c])], [firsts[x] for x in cs], number))
        return lambda h, hs: class_row(index[h], tuple(map(index.__getitem__, hs)))

    def proven(keys):
        return len(keys) == rank

    mod = _Codes(lambda types: _mod_of(value(types), MOD_P1)).__getitem__
    piv = _SymPivot(rows(mod), MOD_P1)
    if not piv.select(range(len(index)), proven=proven, row_class=index.__getitem__):
        piv = _SymPivot(rows(value))
        if not piv.select(range(len(index)), proven=proven, row_class=index.__getitem__):
            raise ConsistencyError(f"factored rank {rank}, but {len(piv.keys)} keys over Q")
    return piv.keys


def _coded_gram_rank(ts: TermSpace, chi, matrix=True):
    """The coded Gram of ts under chi (_gram_rows) and its rank over the
    rationals, as gram_rank and the CLI's gram report read them.  On a
    curated space under a closed-form chi the rank is factored
    (_factored_rank), and the Gram is filled only when matrix is true (rows
    and values are None otherwise), once per feature class, so the entries
    of one class share one row list; on any other space the fill is
    certified (_certified_keys)."""
    rank = _factored_rank(ts, chi)
    if rank is not None and not matrix:
        return None, None, rank
    rows, values = _gram_rows(ts, chi)
    if rank is None:
        rank = len(_certified_keys(_integer_gram(rows, values)))
    return rows, values, rank


def gram_rank(ts: TermSpace, chi):
    """Full Gram matrix of the spanning set under the pairing, and its rank
    over the rationals.  With a complete spanning set the rank is the
    dimension of the endomorphism space in the quotient category; on the
    curated set of I (spanning_end), which misses hole powers, it is a
    lower bound.  On a curated set under a closed-form chi the rank comes
    from the Hankel factorization of chi (_factored_rank), with no
    certificate of the full Gram, which is filled only to be returned, one
    row per feature class expanded over its entries (_gram_rows)."""
    rows, values, rank = _coded_gram_rank(ts, chi)
    n = len(rows)
    return Matrix(n, n, [values[c] for row in rows for c in row]), rank


def is_negligible(f, ts: TermSpace, chi) -> bool:
    """True when f pairs to zero with every element of the spanning set;
    with a complete spanning set this is exact radical membership.  The
    pairings are one _pairing_row of f's terms against the spanning set,
    read until the first nonzero value; f runs one row per term as given,
    and the lc_* operations that build it keep one term per summary."""
    f = _as_lincomb(f)
    if f.terms:
        _check_endomorphisms(f.signature(), (ts.object, ts.object))
    return not any(_pairing_row(_terms(f), _summaries(ts.spanning), _chi_products(chi)))


# ---------------------------------------------------------------------------
# minimal polynomials of handle and hole


@dataclass
class MinimalPolyReport:
    k: int
    handle_roots: tuple
    hole_roots: tuple
    handle_negligible: bool
    hole_negligible: bool
    handle_drop_breaks: dict      # root -> True when dropping (t - root) breaks it
    hole_drop_breaks: dict

    @property
    def passed(self) -> bool:
        return (
            self.handle_negligible
            and self.hole_negligible
            and all(self.handle_drop_breaks.values())
            and all(self.hole_drop_breaks.values())
        )


def _handle_power(m: int):
    return sigma_endo(m, 0)


def _poly_of(p: Poly, power) -> LinComb:
    """p evaluated at an endomorphism whose m-th power is the term power(m)."""
    return LinComb([(c, power(m)) for m, c in enumerate(p.coeffs) if c])


def _projector(roots, root) -> Poly:
    """(t²/r²) Π_{r′≠r} (t−r′)/(r−r′) for r = root: the spectral projector
    onto root among roots, as a polynomial in t."""
    others = [x for x in roots if x != root]
    denom = root * root
    for x in others:
        denom *= root - x
    return Poly.from_roots(others).shift(2).scale(ONE / denom)


def minimal_poly_negligibility(chi: CharacterForm) -> MinimalPolyReport:
    """Verify that t^2 Π(t − λ) kills the handle and t^2 Π(t − μ) kills the
    hole modulo negligibles, and that each nonzero linear factor is needed.

    The roots are the distinct handle eigenvalues λ and the distinct nonzero
    window eigenvalues μ of the character; μ = 0 is absorbed by the t^2
    factor, so minimality is only meaningful for the nonzero roots.
    """
    lams = sorted({t[0] for t in chi.exp_terms})
    mus = sorted({t[1] for t in chi.exp_terms if t[1]})

    def check(roots, power, space):
        # whether t^2 Π(t - root) kills the endomorphism, and per root
        # whether dropping its factor breaks that
        def kills(rs):
            return is_negligible(_poly_of(Poly.from_roots(rs).shift(2), power), space, chi)
        return kills(roots), {r: not kills([x for x in roots if x != r]) for r in roots}

    handle_ok, handle_drops = check(lams, _handle_power, spanning_end("S", chi))
    hole_ok, hole_drops = check(mus, hole_endo, spanning_end("I", chi))
    return MinimalPolyReport(
        k=2,
        handle_roots=tuple(lams),
        hole_roots=tuple(mus),
        handle_negligible=handle_ok,
        hole_negligible=hole_ok,
        handle_drop_breaks=handle_drops,
        hole_drop_breaks=hole_drops,
    )


# ---------------------------------------------------------------------------
# idempotents


@dataclass
class IdempotentSet:
    e_lambda: dict          # λ -> LinComb, endomorphisms of S
    e_pair: dict            # (λ, μ) -> LinComb, endomorphisms of S
    a_mu: dict              # μ -> LinComb, endomorphisms of I (μ != 0)
    a_pair: dict            # (λ, μ) -> LinComb with μ != 0, endomorphisms of I
    g_prime: LinComb        # endomorphism of I


def handle_idempotent(chi: CharacterForm, lam) -> LinComb:
    """e_λ = (G²/λ²) Π_{λ′≠λ} (G−λ′)/(λ−λ′) as a polynomial in the handle."""
    lam = rat(lam)
    lams = sorted({t[0] for t in chi.exp_terms})
    if lam not in lams:
        raise ValueError(f"{lam} is not a handle eigenvalue of the character")
    return _poly_of(_projector(lams, lam), _handle_power)


def hole_idempotent(chi: CharacterForm, mu) -> LinComb:
    """a_μ = (H²/μ²) Π_{μ′≠μ} (H−μ′)/(μ−μ′) as a polynomial in the hole;
    only defined for nonzero window eigenvalues."""
    mu = rat(mu)
    if not mu:
        raise ValueError("a_mu is defined for nonzero window eigenvalues only")
    mus = sorted({t[1] for t in chi.exp_terms if t[1]})
    if mu not in mus:
        raise ValueError(f"{mu} is not a nonzero window eigenvalue of the character")
    return _poly_of(_projector(mus, mu), hole_endo)


def build_idempotents(chi: CharacterForm) -> IdempotentSet:
    """The spectral idempotents of the closed and open sectors.

    e_λ and e_{λ,μ} live on S, a_μ and a_{λ,μ} on I; G′ transports the
    handle through the zipper so that a_{λ,μ} can select a handle eigenvalue
    inside a window block.  Idempotency and pairwise orthogonality are
    verified modulo negligibles against the curated spanning sets; any
    failure raises ConsistencyError.
    """
    pairs = sorted({(t[0], t[1]) for t in chi.exp_terms})
    lams = sorted({p[0] for p in pairs})
    s_space = spanning_end("S", chi)
    i_space = spanning_end("I", chi)

    e_lambda = {lam: handle_idempotent(chi, lam) for lam in lams}

    e_pair = {}
    for lam, mu in pairs:
        partner_mus = [m for (l, m) in pairs if l == lam and m != mu]
        acc = e_lambda[lam]
        for mp in partner_mus:
            w_shift = lc_sub(lc(sigma_endo(0, 1)), lc_scale(lc_identity("S"), mp))
            acc = lc_compose(acc, lc_scale(w_shift, ONE / (mu - mp)))
        e_pair[(lam, mu)] = acc

    nonzero_mus = sorted({p[1] for p in pairs if p[1]})
    a_mu = {mu: hole_idempotent(chi, mu) for mu in nonzero_mus}

    iota_g = lc(iota_sigma_endo(1, 0))
    g_prime = LinComb([])
    for mu in nonzero_mus:
        g_prime = lc_add(g_prime, lc_scale(lc_compose(a_mu[mu], lc_compose(iota_g, a_mu[mu])), ONE / mu))

    a_pair = {}
    for lam, mu in pairs:
        if not mu:
            continue
        partner_lams = [l for (l, m) in pairs if m == mu and l != lam]
        acc = a_mu[mu]
        if partner_lams:
            # G′ can have a zero eigenspace inside the block (the traceless
            # part of a matrix block), where the Lagrange factors alone leave
            # −λ′/(λ−λ′); the factor G′²/λ² kills it, as t²/r² in _projector
            g_squared = lc_scale(lc_compose(g_prime, g_prime), ONE / (lam * lam))
            acc = lc_compose(acc, g_squared)
        for lp in partner_lams:
            shift = lc_sub(g_prime, lc_scale(lc_identity("I"), lp))
            acc = lc_compose(acc, lc_scale(shift, ONE / (lam - lp)))
        a_pair[(lam, mu)] = acc

    result = IdempotentSet(e_lambda, e_pair, a_mu, a_pair, g_prime)
    _verify_idempotent_family(e_lambda, s_space, chi, "e_lambda")
    _verify_idempotent_family(e_pair, s_space, chi, "e_pair")
    _verify_idempotent_family(a_mu, i_space, chi, "a_mu")
    _verify_idempotent_family(a_pair, i_space, chi, "a_pair")
    return result


def _verify_idempotent_family(family, ts, chi, name):
    keys = sorted(family)
    for key in keys:
        f = family[key]
        if not is_negligible(lc_sub(lc_compose(f, f), f), ts, chi):
            raise ConsistencyError(f"{name}[{key}] is not idempotent modulo negligibles")
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            if not is_negligible(lc_compose(family[k1], family[k2]), ts, chi):
                raise ConsistencyError(f"{name}[{k1}] and {name}[{k2}] are not orthogonal")


# ---------------------------------------------------------------------------
# splitting verification


@dataclass
class SplittingReport:
    g_max: int
    w_max: int
    components: dict        # (λ, μ) -> True when the block affords α λ^g μ^w
    residual_ok: bool
    idempotents: IdempotentSet

    @property
    def passed(self) -> bool:
        return self.residual_ok and all(self.components.values())


def verify_splitting(chi: CharacterForm, g_max: int, w_max: int) -> SplittingReport:
    """Check that each idempotent block affords its one-term character: the
    (λ, μ) component of σ_{g,w} evaluates to α_{λ,μ} λ^g μ^w, and the
    residual 1 − Σ e_λ affords exactly the polynomial part.  The report
    carries the idempotents it verified."""
    if g_max < 0 or w_max < 0:
        raise ValueError("bounds must be >= 0")
    idem = build_idempotents(chi)
    cells = [(g, w) for g in range(g_max + 1) for w in range(w_max + 1)]
    caps = _summaries([lc(cap_sandwich_endo(g, w, 0, 0)) for g, w in cells])
    value = _chi_products(chi)

    def closed_values(endo):
        # χ(ε_S ∘ endo ∘ σ_{g,w} ∘ u_S) per cell: one row of endo against the caps
        return list(_pairing_row(_terms(endo), caps, value))

    coeff = {(l, m): c for l, m, c in chi.exp_terms}
    components = {}
    for (lam, mu), e in idem.e_pair.items():
        expected = [coeff[lam, mu] * lam ** g * (mu ** w if w else ONE) for g, w in cells]
        components[(lam, mu)] = closed_values(e) == expected
    residual = reduce(lc_sub, idem.e_lambda.values(), lc_identity("S"))
    residual_ok = closed_values(residual) == [chi.poly_value(g, w) for g, w in cells]
    return SplittingReport(g_max, w_max, components, residual_ok, idem)


# ---------------------------------------------------------------------------
# symmetric pivoting
#
# Gram ranks, the quotient basis and the enumerated spanning sets all need a
# maximal set of keys whose Gram block is invertible.  One engine picks it,
# over Q (p = 0, Fraction arithmetic) or over Z/p.  Accepted keys are
# orthogonalised block by block, in symmetric 1x1 or 2x2 pivot blocks
# (Bunch-Kaufman, adapted to exact fields): u_i is key i minus its
# projection onto the earlier blocks.  Every handle h tested so far keeps
# w[i] = <h, u_i>, its coordinate z[i] along u_i and its diagonal residual
# <h, h> - z.w, extended lazily by the keys accepted since it was last
# seen.  The residual pairing of two handles is <h1, h2> - z1.w2; no
# inverse is kept and no linear system is solved.
#
# The pairings are read as rows: rows(h, hs) gives <h, x> for each x of hs,
# in order, possibly lazily.  The engine asks for the diagonal rows(h, (h,)),
# for h against the keys accepted since it was last seen (the row
# _forward_mod packs), and in a pair search for each candidate against the
# candidates after it, read only up to the first pair found.
#
# select accepts singles in sorted order, pass after pass, until they
# stall, and then the first pair in lexicographic order with an invertible
# 2x2 Schur complement.  Once singles stall every diagonal residual is zero,
# so such a pair exists exactly when some cross residual is nonzero.  A
# nonzero determinant mod p is nonzero over Q, so modular pivoting never
# overstates a rank; a zero mod p can only shrink the selection.
#
# Extending w is forward substitution through the block-lower factor of the
# keys: w[i] = <h, key i> - sum_j z_ij w[j], z_ij the coordinate of key i
# along u_j.  Over Z/p column j is one packed int (Kronecker substitution),
# z_ij in slot i - j - 1 (0 for j's 2x2 partner).  A handle packs its
# pairings with the new keys alike, adds each old key's column, shifted,
# times p - w[j], and reads the new keys off from the low slot up, adding
# each one's column times p - w[i]: one big-int multiply-add in C per key.
# p - v in place of -v keeps every slot nonnegative, so no borrow crosses
# slots.  A slot starts below p and gains less than p^2 per key, so with k
# keys it stays below (k + 1) p^2 < 2^(2 bitlen(p) + 24): it never carries
# while k < 2^24.  Over Q the entries are Fractions that no slot width
# bounds, so each key keeps its coordinates as a list.
#
# A full Gram matrix is ranked by selecting mod MOD_P1 and certifying the
# selection exactly (_certified_keys): with K the selected keys and B the
# block A[K, K] of the integer-scaled Gram A, A has rank |K| over Q exactly
# when A = A[:, K] B^-1 A[K, :], checked in integers as
# D A = A[:, K] (D B^-1) A[K, :], with the scale D and the integer D B^-1 of
# one fraction-free elimination of [B | I] (_schur_vanishes).  The
# check runs each time single acceptance stalls, and the selection stops
# as soon as it holds: B is invertible mod p and the rank mod p is at most
# the rank over Q, so the rank mod p is |K| too and no 2x2 step could have
# extended the block.  A pair is sought mod p only while the check fails.
# Only when a value nonzero over Q vanished mod p does it fail with no pair
# left, and the selection is then redone over Q.

MOD_P1 = (1 << 61) - 1


def _mod_of(x, p) -> int:
    """The rational x, a Fraction or an int, mod the prime p."""
    return x.numerator * pow(x.denominator, -1, p) % p


class _SymPivot:
    """Incremental maximal invertible Gram block under the pairings that
    rows(h, hs) gives (above), over Q when p = 0 and over Z/p for a prime
    p; keys holds the accepted handles in acceptance order.  The
    coordinates of the keys are packed big-int columns over Z/p and lists
    over Q."""

    def __init__(self, rows, p=0):
        self.rows = rows
        self.p = p
        self.keys = []
        self._zrows = []    # per key: its row of its block's inverse Gram, block start
        self._h = {}        # handle -> [w, z, diagonal residual]
        self.held = set()   # the row classes of the keys, when select is given row_class
        if p:
            self._slot = 8 * -(-(2 * p.bit_length() + 24) // 8)  # whole bytes fitting (k + 1) p^2, k < 2^24
            self._cols = []     # per key j: z_ij of each later key i in slot i - j - 1
        else:
            self._kz = []       # per key: its coordinates along the earlier blocks

    def _red(self, x):
        return x % self.p if self.p else x

    def _inv(self, x):
        return pow(x, self.p - 2, self.p) if self.p else ONE / x

    def _coords(self, h):
        rec = self._h.get(h)
        if rec is None:
            [d] = self.rows(h, (h,))
            rec = self._h[h] = [[], [], self._red(d)]
        w, z, r = rec
        keys = self.keys
        start = len(w)
        if start == len(keys):
            return rec
        if self.p:
            self._forward_mod(h, w)
        else:
            for i, v in enumerate(self.rows(h, keys[start:]), start):
                w.append(v - sum(map(mul, self._kz[i], w)))
        red = self._red
        new = [red(sum(map(mul, row, w[b:b + len(row)]))) for row, b in self._zrows[start:]]
        z += new
        rec[2] = red(r - sum(map(mul, new, w[start:])))
        return rec

    def _forward_mod(self, h, w):
        """Extend w over the new keys through the packed columns."""
        p, s, cols, keys, start = self.p, self._slot, self._cols, self.keys, len(w)
        acc = int.from_bytes(b"".join((v % p).to_bytes(s >> 3, "little")
                                      for v in self.rows(h, keys[start:])), "little")
        for j, v in enumerate(w):
            if v:
                acc += (p - v) * (cols[j] >> (start - j - 1) * s)
        mask = (1 << s) - 1
        for i in range(start, len(keys)):
            v = (acc & mask) % p
            w.append(v)
            acc >>= s
            if v:
                acc += (p - v) * cols[i]

    def _push(self, handles, dinv):
        """Accept handles as one block whose Gram inverse is dinv."""
        start = len(self.keys)
        for h, row in zip(handles, dinv):
            z = self._h.pop(h)[1]
            if self.p:
                i, cols = len(self.keys), self._cols
                for j, zj in enumerate(z):
                    cols[j] |= zj << (i - j - 1) * self._slot
                cols.append(0)
            else:
                self._kz.append(z)
            self._zrows.append((row, start))
            self.keys.append(h)

    def accept_single(self, h) -> bool:
        """Accept h when its residual against the accepted keys is nonzero."""
        r = self._coords(h)[2]
        if not r:
            return False
        self._push([h], [[self._inv(r)]])
        return True

    def select(self, cands, breed=None, proven=None, row_class=None):
        """Run the acceptance order over the sortable handles cands.

        Handles leave a heap in sorted order and are tried as singles.
        breed(h), when given, returns the handles that accepting h opens
        up; they join the heap, so they are tried before any stalled
        handle is retried.  Once the heap is empty the stalled handles are
        retried as singles, pass after pass, until a pass accepts none or
        breeding refills the heap; then the first pair of the sorted
        stalled handles with an invertible 2x2 Schur complement is
        accepted.  This repeats until no pair extends the block, and then
        select returns False.

        proven(keys), when given, is asked each time singles stall, before
        any pair is sought; when it holds, select returns True at once.  It
        must hold only when no pair can extend the block, so that the keys
        are those of the whole selection.

        row_class(h), when given, names a class of handles whose rows of
        pairings are proportional; the classes of the keys are kept in
        held.  A popped or stalled handle whose class is held is dropped
        unpaired, and nothing changes: an accepted key k has a nonzero row,
        so the row of a handle h of its class is c times the row of k, its
        coordinates are c e_k, and its residual, single or against any
        other handle in a 2x2 step, is zero.  Such an h is never accepted
        and never one of a pair, so the keys, their order and the pairs
        found are those of the selection without row_class.  The classes
        of both handles of a pair are held before either breeds."""
        heap = list(cands)
        heapq.heapify(heap)
        stalled = []
        held = self.held

        def twin(h):
            return row_class is not None and row_class(h) in held

        def accepted(*hs):
            if row_class is not None:
                held.update(map(row_class, hs))
            for h in hs:
                for new in breed(h) if breed else ():
                    heapq.heappush(heap, new)

        while True:
            while heap:
                h = heapq.heappop(heap)
                if twin(h):
                    continue
                if self.accept_single(h):
                    accepted(h)
                else:
                    stalled.append(h)
            changed = True
            while changed and not heap:
                changed = False
                still = []
                for h in stalled:
                    if twin(h):
                        continue
                    if self.accept_single(h):
                        accepted(h)
                        changed = True
                    else:
                        still.append(h)
                stalled = still
            if heap:
                continue
            if proven is not None and proven(self.keys):
                return True
            stalled.sort()
            found = self.first_pair(stalled)
            if found is None:
                return False
            accepted(*(stalled[pos] for pos in found))
            stalled = [h for pos, h in enumerate(stalled) if pos not in found]

    def first_pair(self, cands):
        """Accept the first pair of cands, in lexicographic order of
        positions, whose 2x2 Schur complement is invertible; return its
        positions (a, b), or None when no pair extends the block."""
        recs = [self._coords(h) for h in cands]
        red = self._red
        for a, (_, za, ra) in enumerate(recs[:-1]):
            for b, v in enumerate(self.rows(cands[a], cands[a + 1:]), a + 1):
                wb, _, rb = recs[b]
                s01 = red(v - sum(map(mul, za, wb)))
                # det = ra rb - s01^2, which is nonzero iff s01 is when a
                # diagonal residual vanishes (always, once singles stall)
                if red(ra * rb - s01 * s01) if ra and rb else s01:
                    di = self._inv(red(ra * rb - s01 * s01))
                    self._push([cands[a], cands[b]], [[red(rb * di), red(-s01 * di)],
                                                      [red(-s01 * di), red(ra * di)]])
                    return a, b
        return None


def _schur_vanishes(a, keys) -> bool:
    """True when the Schur complement of the block a[keys, keys] in the
    symmetric integer matrix a is zero, so that rank a = len(keys) over Q.

    The elimination of [B | I], B = a[keys, keys], gives a nonzero scale D
    and D B^-1 in integers (numkit.eliminate).  With the integer rows
    c_i = D a[i, keys] B^-1, D a[i][j] = c_i . a[keys, j] must hold for
    every i <= j, all in Python ints; any nonzero D with D B^-1 integral
    serves.  Row i is checked as one lazy chain of C-level map passes over
    a[i][i:] and the key rows, a pass per nonzero coordinate of c_i,
    stopping at the first entry that differs."""
    n = len(keys)
    if keys:
        pivots, d, reduced = eliminate(([a[i][j] for j in keys] + [int(i == k) for k in keys]
                                        for i in keys), 2 * n)
        if pivots[-1] >= n:
            return False    # B is singular
        # B^-1 is symmetric, so its rows are its columns
        dinv = [[row.get(j, 0) for j in range(n, 2 * n)] for row in reduced]
    else:
        d, dinv = 1, []
    key_rows = [a[k] for k in keys]
    for i, row in enumerate(a):
        side = [row[k] for k in keys]
        diff = map(mul, repeat(d), row[i:])
        for col, key_row in zip(dinv, key_rows):
            c = sum(map(mul, side, col))
            if c:
                diff = map(sub, diff, map(mul, repeat(c), key_row[i:]))
        if any(diff):
            return False
    return True


def _certified_keys(a) -> list:
    """Keys of a maximal invertible block of the symmetric integer Gram a,
    in acceptance order; their number is the rank over Q.

    The keys are picked by _SymPivot mod MOD_P1, and each time singles
    stall the exact certificate (_schur_vanishes) is run on the keys so
    far; the selection stops once it holds, and seeks a 2x2 step mod p only
    while it fails.  A selection of every row needs no certificate: its
    block, the whole of a, is invertible mod p and so over Q.  The keys are
    those of the whole modular selection.  When no pair extends a block
    that the certificate rejects, because some value nonzero over Q
    vanished mod p, the keys are picked again over Q.  D is the scale of
    the elimination of [B | I], not a denominator of B^-1."""
    def rows(i, js):
        return map(a[i].__getitem__, js)

    piv = _SymPivot(rows, MOD_P1)
    if piv.select(range(len(a)),
                  proven=lambda keys: len(keys) == len(a) or _schur_vanishes(a, keys)):
        return piv.keys
    piv = _SymPivot(rows)
    piv.select(range(len(a)))
    return piv.keys


# ---------------------------------------------------------------------------
# generic endomorphism enumeration

PROBE_CHARACTER = CharacterForm.make(
    alpha_1=ONE,
    alpha_X=Fraction(1, 2),
    alpha_Y=Fraction(1, 3),
    alpha_Y2=Fraction(1, 5),
    exp_terms=[(2, 3, 1), (5, 7, Fraction(1, 2)), (11, 13, Fraction(1, 3))],
)

_UNARY_TEXTS = {
    "I": ["eI ; uI", "dI ; mI", "zs ; z", "zs ; dS ; mS ; z"],
    "S": ["eS ; uS", "dS ; mS", "z ; zs"],
}

_BINARY_TEXTS = {
    ("I", "I"): ["mI ; dI", "mI ; eI ; uI ; dI", "(zs * zs) ; mS ; dS ; (z * z)"],
    ("S", "S"): ["mS ; dS", "mS ; eS ; uS ; dS"],
}


def _gen_count(term) -> int:
    return _fold(term, lambda node: int(isinstance(node, Gen)), lambda node, a, b: a + b)


def _placed(word, i, span, core):
    left = word[:i]
    right = word[i + span:]
    t = core
    if left:
        t = Tensor(Id(left), t)
    if right:
        t = Tensor(t, Id(right))
    return t


def _atom_terms(word):
    atoms = [Id(word)]
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            atoms.append(_placed(word, i, 2, Swap(word[i], word[i + 1])))
    for i, letter in enumerate(word):
        for text in _UNARY_TEXTS[letter]:
            atoms.append(_placed(word, i, 1, parse(f"({text})")))
    for i in range(len(word) - 1):
        key = (word[i], word[i + 1])
        for text in _BINARY_TEXTS.get(key, []):
            atoms.append(_placed(word, i, 2, parse(f"({text})")))
    return atoms


_ENUM_CACHE = {}


def enumerate_end_terms(obj: str, size_budget: int) -> TermSpace:
    """Endomorphism terms of the object built from at most size_budget
    generator instances plus identities and swaps, closed under composition
    and deduplicated greedily: a candidate joins the spanning set only when
    it enlarges the Gram rank under a fixed probe character, and accepted
    terms breed new candidates by composition within the budget.

    Candidates are deduplicated by topological summary before any rank
    test and handed, as handles (generators, text, summary id), to the
    symmetric pivot engine over Z/MOD_P1 under the probe character, which
    fixes the acceptance order (_SymPivot.select) and reads each row it asks
    for as one _pairing_row, a closure-types tuple valued mod p once.  A
    zero mod p can only drop a candidate, and the probe-rank stopping rule
    makes the result a lower-bound spanning set: complete whenever the
    probe sees the full endomorphism space.

    The row class of a handle is the shape and boundary labels of its
    summary, (shape id, comps).  A probe pairing of a and b is the value of
    a.closed times that of b.closed times that of the components the
    closure glues, which the shapes and labels alone fix (_split_plan), so
    the rows of one class are proportional and a candidate whose class
    holds a key is never accepted (_SymPivot.select).  Such a twin is
    dropped when it is offered, before it is given a text, a term tree or a
    heap slot, and select drops one that turns into a twin while it waits;
    the keys and their order are those of the enumeration that pairs every
    twin.
    """
    if not obj or any(c not in "IS" for c in obj):
        raise ValueError(f"object word must be nonempty over I/S, got {obj!r}")
    if size_budget < 0:
        raise ValueError("budget must be >= 0")
    key = (obj, size_budget)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]

    terms = {}              # sid -> the first term found in its class
    accepted = []           # (gens, sid) in acceptance order
    probe = _chi_products(PROBE_CHARACTER)
    mod = _Codes(lambda types: _mod_of(probe(types), MOD_P1)).__getitem__

    def rows(h, hs):
        return _pairing_row([(ONE, _SUMMARIES[h[2]])], [_SUMMARIES[x[2]] for x in hs], mod)

    piv = _SymPivot(rows, MOD_P1)

    def row_class(h):
        return _SUMMARIES[h[2]][:2]

    def offer(out, gens, sid, *factors):
        # the first term found in a class stands for it, a twin of a key for none
        if sid in terms or _SUMMARIES[sid][:2] in piv.held:
            return
        term = terms[sid] = Compose(*factors) if len(factors) == 2 else factors[0]
        out.append((gens, pretty(term), sid))

    def breed(h):
        # a composite's summary is glued from its two interned factors
        gens, _, sid = h
        accepted.append((gens, sid))
        term, s = terms[sid], _SUMMARIES[sid]
        out = []
        for ogens, osid in accepted:
            total = ogens + gens
            if total <= size_budget:
                other, o = terms[osid], _SUMMARIES[osid]
                offer(out, total, intern_summary(compose_summaries(o, s)), other, term)
                offer(out, total, intern_summary(compose_summaries(s, o)), term, other)
        return out

    atoms = []
    for a in _atom_terms(obj):
        gens = _gen_count(a)
        if gens <= size_budget:
            offer(atoms, gens, summary_id(a), a)
    piv.select(atoms, breed, row_class=row_class)
    ts = TermSpace(obj, [LinComb([(ONE, terms[sid])], [sid]) for _, _, sid in piv.keys])
    _ENUM_CACHE[key] = ts
    return ts


# ---------------------------------------------------------------------------
# quotient algebra


@dataclass
class QuotientAlgebra:
    """End(object) modulo negligible morphisms on a Gram-pivot basis, as
    structure tensors laid out like those of FrobeniusAlgebra."""

    object: str
    dim: int
    basis: list             # LinComb entries
    basis_indices: tuple    # positions inside the originating spanning list
    gram: Matrix            # invertible Gram matrix of the basis
    product: numkit.Tensor  # [c, a, b]: coefficient of basis[c] in basis[a]∘basis[b]
    trace_vec: tuple        # categorical traces of the basis elements
    unit: numkit.Tensor     # [a]: coordinates of the identity of object


def _pivot_basis(ts, chi):
    """Maximal subset with invertible Gram matrix; its size is the rank of
    the full Gram matrix because the pairing is symmetric.  Returns the
    chosen positions in increasing order and their Gram matrix.

    The positions are those _certified_keys picks from the integer-scaled
    Gram: the symmetric pivot engine's acceptance order over the spanning
    positions (_SymPivot.select: singles in index order until they stall,
    then, unless the selection is already proven, the first pair with an
    invertible 2x2 Schur complement, then singles again), run over
    Z/MOD_P1, or over Q when the proof fails.  Witness coordinates are
    indexed by these positions, so the order is part of the contract.  On a
    curated space under a closed-form chi no Gram is filled: the rank is
    factored (_factored_rank), the keys are selected over pairings computed
    on demand (_curated_keys), and the block is the Gram of the chosen
    entries.  Any other space fills its coded Gram, is certified at each
    stall (_schur_vanishes), and reads the block off the rows.
    """
    rank = _factored_rank(ts, chi)
    if rank is None:
        rows, values = _gram_rows(ts, chi)
        chosen = sorted(_certified_keys(_integer_gram(rows, values)))
        block = [values[rows[i][j]] for i in chosen for j in chosen]
    else:
        chosen = sorted(_curated_keys(ts, chi, rank))
        rows, values = _gram_rows(TermSpace(ts.object, [ts.spanning[i] for i in chosen]), chi)
        block = [values[c] for row in rows for c in row]
    return chosen, Matrix(len(chosen), len(chosen), block)


def quotient_algebra(ts: TermSpace, chi) -> QuotientAlgebra:
    """Finite model of the endomorphism algebra in the quotient category.

    Picks a Gram-pivot basis b_0 .. b_{n-1} with Gram matrix G
    (_pivot_basis, which fills no Gram on a curated space under a
    closed-form chi).  Coordinates of an endomorphism f solve G x = its
    pairings with the basis, so the product tensor and the unit come out
    of one solve of G against n² + 1 right-hand sides: the n × n² matrix of
    pair(b_a∘b_b, b_c) and the categorical traces, pair(id, b_c).  The
    traces are one _pairing_row of the identity against the basis, and the
    pairings one row per composite, glued from the summaries of b_b and
    b_a.  The tensors are then checked
    to be unital and associative by the Frobenius axiom checks; a failure
    raises IncompleteSpanningError, since it means that products escaped
    the span.  Associativity names the least failing basis triple.
    """
    chosen, gb = _pivot_basis(ts, chi)
    dim = len(chosen)
    basis = [ts.spanning[i] for i in chosen]
    summaries = _summaries(basis)
    value = _chi_products(chi)
    traces = tuple(_pairing_row([(ONE, _leaf_summary(Id(ts.object)))], summaries, value))
    columns = [list(_pairing_row([(ONE, compose_summaries(sb, sa))], summaries, value))
               for sa in summaries for sb in summaries]
    columns.append(traces)
    coords = gb.solve(Matrix(dim, dim * dim + 1, [v for row in zip(*columns) for v in row]))
    if coords is None:
        raise ConsistencyError("pivot Gram matrix is singular")
    rows = coords.to_rows()
    product = numkit.Tensor((dim, dim, dim), [v for row in rows for v in row[:-1]])
    unit = numkit.Tensor((dim,), [row[-1] for row in rows])

    if _unital_violation(dim, product, unit) is not None:
        raise IncompleteSpanningError(
            "identity does not act as the unit on the structure constants; grow the spanning set"
        )
    key = _associativity_difference(product)
    if key is not None:
        a, b, c, _ = key
        raise IncompleteSpanningError(
            f"associativity fails on basis triple ({a},{b},{c}); grow the spanning set"
        )
    return QuotientAlgebra(ts.object, dim, basis, tuple(chosen), gb, product, traces, unit)


# ---------------------------------------------------------------------------
# nilpotent trace obstruction


@dataclass
class Witness:
    """A nilpotent endomorphism with nonzero categorical trace.

    coords live over the enumerated spanning classes of the search, in
    enumeration order: a one-hot vector marking the base class when the
    witness comes from the direct scan, the scattered radical vector when
    it comes out of the quotient algebra.  The scan may promote a power
    of the base class (power > 1); element is always the actual witness,
    base composed with itself power times, and degree always refers to
    element.
    """

    object: str
    coords: tuple           # over the enumerated spanning classes
    element: LinComb
    degree: int             # least power of element with all spanning pairings zero
    trace: Rat
    power_check: str        # "terms" or "quotient"
    power: int = 1          # element is the marked base class to this exponent

    def to_json(self):
        from .numkit import rat_to_str

        return {
            "object": self.object,
            "coords": [rat_to_str(c) for c in self.coords],
            "element": [[rat_to_str(c), pretty(t)] for c, t in self.element.terms],
            "degree": self.degree,
            "trace": rat_to_str(self.trace),
            "power_check": self.power_check,
            "power": self.power,
        }


_POWER_TERM_CAP = 1500

# above this many enumerated classes the exact quotient construction (full
# multiplication table plus associativity check) is no longer affordable and
# the obstruction search goes straight to the single-class scan
_EXACT_QUOTIENT_LIMIT = 64

# highest power examined by the single-class scan; the curated bad-character
# witness has nilpotency degree four
_SCAN_POWER_CAP = 8


def _quotient_witness(ts, chi):
    """Witness search through the quotient algebra: the Jacobson radical is
    the radical of the regular-representation trace form (exact in
    characteristic zero), and the first radical basis vector with nonzero
    categorical trace wins.  Returns None when the radical carries no
    trace: in characteristic zero a nilpotent element of a semisimple
    algebra has zero trace in every representation, so a clean quotient
    with a trace-free radical has no witness at all at this spanning.
    """
    qa = quotient_algebra(ts, chi)
    n = qa.dim
    if n == 0:
        return None

    # regtrace[l] is the trace of left multiplication by basis[l]
    regtrace = [sum((qa.product[(m, l, m)] for m in range(n)), ZERO) for l in range(n)]
    radical = nullspace(counit_form(qa.product, numkit.Tensor((n,), regtrace)))
    witness_coords = None
    for v in radical:
        tr = ZERO
        for c, t in zip(v, qa.trace_vec):
            tr += c * t
        if tr:
            witness_coords = tuple(v)
            trace = tr
            break
    if witness_coords is None:
        return None

    pmat = Matrix(n, n * n, qa.product.entries)
    w = Matrix(n, 1, list(witness_coords))
    power = w
    degree = 1
    while not power.is_zero():
        power = pmat * power.kron(w)
        degree += 1
        if degree > n + 2:
            raise ConsistencyError("radical element is not nilpotent in the quotient")

    element = _merged((c, b.terms[0][1], b.sids[0]) for c, b in zip(witness_coords, qa.basis))

    nnz = len(element.terms)
    if nnz ** degree <= _POWER_TERM_CAP:
        f_power = element
        for _ in range(degree - 1):
            f_power = lc_compose(f_power, element)
        if not is_negligible(f_power, ts, chi):
            raise ConsistencyError("witness power is not negligible at the term level")
        method = "terms"
    else:
        method = "quotient"

    coords = [ZERO] * len(ts.spanning)
    for i, c in enumerate(witness_coords):
        coords[qa.basis_indices[i]] = c
    return Witness(ts.object, tuple(coords), element, degree, trace, method)


def _scan_witness(ts, chi):
    """Witness scan over single classes and their powers: candidates are
    t^j for an enumerated class t, j below the first power of t that
    pairs to zero with every enumerated class.  A candidate with nonzero
    categorical trace wins when some power of it is again fully perp to
    the family, all powers capped at _SCAN_POWER_CAP.  The check is
    term-level and needs no closed multiplication on the family, so it
    stays sound when the family is not multiplicatively closed.  The
    pairings of a power are _pairing_row rows of its summary, glued from the
    class's, against the classes and against the identity; the powers are
    not interned.

    Among the candidates the scan keeps the strongest certificate:
    maximal absolute trace first (the sharpest violation of vanishing
    traces on nilpotents), then maximal nilpotency degree, then fewest
    generator instances, then lowest class index and power, so the result
    is deterministic for a fixed enumeration.
    """
    terms = [e.terms[0][1] for e in ts.spanning]
    summaries = _summaries(ts.spanning)
    identity = [_leaf_summary(Id(ts.object))]
    value = _chi_products(chi)

    def row(s, partners):
        return _pairing_row([(ONE, s)], partners, value)

    best = None
    best_key = None
    for idx, s in enumerate(summaries):
        tr1 = next(row(s, identity))
        if not tr1:
            continue
        powers = [s]
        for _ in range(_SCAN_POWER_CAP - 1):
            powers.append(compose_summaries(powers[-1], s))
        @cache
        def is_perp(j, powers=powers):
            return not any(row(powers[j - 1], summaries))

        first_perp = next((j for j in range(2, _SCAN_POWER_CAP + 1) if is_perp(j)), None)
        if first_perp is None:
            continue
        for j in range(1, first_perp):
            # powers below first_perp are known not perp: the base pairs
            # with the identity class and the search above found a nonzero
            # pairing for the rest
            tr = tr1 if j == 1 else next(row(powers[j - 1], identity))
            if not tr:
                continue
            degree = next((m for m in range(2, _SCAN_POWER_CAP // j + 1)
                           if j * m >= first_perp and is_perp(j * m)), None)
            if degree is None:
                continue
            key = (-abs(tr), -degree, _gen_count(terms[idx]), idx, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (idx, j, degree, tr)
    if best is None:
        return None
    idx, power, degree, trace = best
    coords = tuple(ONE if i == idx else ZERO for i in range(len(terms)))
    element = reduce(Compose, [terms[idx]] * power)
    return Witness(ts.object, coords, lc(element), degree, trace, "terms", power)


def nilpotent_trace_obstruction(obj: str, chi, size_budget: int):
    """Search for a nilpotent endomorphism with nonzero categorical trace.

    Enumerates the endomorphism classes of the object within the budget.
    A small family goes through the quotient algebra: Jacobson radical as
    the radical of the regular-representation trace form, first radical
    vector with nonzero trace, nilpotency degree verified in the quotient
    and re-verified on terms when the power expansion is affordable.  A
    family too large for the exact quotient, or one the quotient
    construction rejects as not multiplicatively closed, falls back to
    the direct scan over single classes; if the scan also comes up empty
    after a quotient rejection the incomplete-spanning error is re-raised
    and the budget must grow.  Absence of a witness is never a goodness
    certificate: the enumerated spanning set is only a lower bound.
    """
    ts = enumerate_end_terms(obj, size_budget)
    if len(ts.spanning) <= _EXACT_QUOTIENT_LIMIT:
        try:
            return _quotient_witness(ts, chi)
        except IncompleteSpanningError:
            found = _scan_witness(ts, chi)
            if found is None:
                raise
            return found
    return _scan_witness(ts, chi)
