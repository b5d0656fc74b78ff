"""Textual language for open-closed surface diagrams.

Generators (with domain -> codomain over the alphabet {I, S}):

    uI: -> I    eI: I ->    mI: II -> I    dI: I -> II
    uS: -> S    eS: S ->    mS: SS -> S    dS: S -> SS
    z : S -> I  (zipper)    zs: I -> S     (cozipper)

Grammar: term := factor { ";" factor } ; factor := atom { "*" atom } ;
atom := GEN | "id:" WORD | "sw:" LETTER "," LETTER | "(" term ")".
";" composes in diagram order (left factor applied first) and "*" binds
tighter.  Whitespace is insignificant.

Besides parsing, printing and evaluation against a concrete structure,
the module summarizes terms combinatorially.  The summary of a term (see
DiagramSummary) is a fold over fixed summaries of its generators, identities
and swaps; gluing two summaries into a closed surface gives the (genus,
windows) type of every connected component, from an Euler count plus an
exact count of free boundary circles.  The summary is the one identity of a
term outside printing and evaluation: typecheck reads its domain and
codomain off the summary's shape, and the fold that builds it rejects an
ill-typed composite.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .numkit import Matrix, ONE
from .frobenius import ConsistencyError

if TYPE_CHECKING:
    from .kfa import KFA


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class TermTypeError(ValueError):
    """A composition or precondition on domains/codomains fails."""


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Id:
    word: str


@dataclass(frozen=True)
class Swap:
    left: str
    right: str


@dataclass(frozen=True)
class Compose:
    first: object
    second: object


@dataclass(frozen=True)
class Tensor:
    left: object
    right: object


CobTerm = object  # Gen | Id | Swap | Compose | Tensor


@dataclass
class LinComb:
    """Formal rational combination of terms with one common type.

    sids holds the interned summary id of each term.  Terms given without
    them are summarized here, once; gram's lc_* operations pass their
    operands' ids through and keep one term per id.  The signature is read
    off the summaries' shapes, and an ill-typed term raises TermTypeError
    from summarize."""

    terms: list
    sids: list = field(default=None, repr=False, compare=False)
    _signature: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sids is None:
            self.sids = [summary_id(t) for _, t in self.terms]
        sigs = {_SHAPES.shapes[_SUMMARIES[sid].shape][:2] for sid in self.sids}  # (dom, cod)
        if len(sigs) > 1:
            raise TermTypeError(f"mixed types in linear combination: {sorted(sigs)}")
        if sigs:
            self._signature = sigs.pop()

    def signature(self):
        return self._signature

    def summary_ids(self):
        """(coefficient, interned summary id) per term."""
        return [(c, sid) for (c, _), sid in zip(self.terms, self.sids)]


GEN_SIGNATURES = {
    "uI": ("", "I"),
    "eI": ("I", ""),
    "mI": ("II", "I"),
    "dI": ("I", "II"),
    "uS": ("", "S"),
    "eS": ("S", ""),
    "mS": ("SS", "S"),
    "dS": ("S", "SS"),
    "z": ("S", "I"),
    "zs": ("I", "S"),
}

# Euler characteristic of each generator surface: caps/cups and open pairs
# of pants are disks (+1), closed pairs of pants are thrice-punctured
# spheres (-1), the zipper and cozipper are annuli (0).
GEN_EULER = {
    "uS": 1, "eS": 1, "uI": 1, "eI": 1, "mI": 1, "dI": 1,
    "mS": -1, "dS": -1, "z": 0, "zs": 0,
}


# ---------------------------------------------------------------------------
# parser


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c in ";*(),:":
            tokens.append((c, c, line, col))
            col += 1
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


def _check_word(word, line, col):
    if not word or any(c not in "IS" for c in word):
        raise ParseError(f"object word must be nonempty over I/S, got {word!r}", line, col)
    return word


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse_term(self):
        t = self.parse_factor()
        while self.peek()[0] == ";":
            self.next()
            t = Compose(t, self.parse_factor())
        return t

    def parse_factor(self):
        t = self.parse_atom()
        while self.peek()[0] == "*":
            self.next()
            t = Tensor(t, self.parse_atom())
        return t

    def parse_atom(self):
        tok = self.next()
        kind, val, line, col = tok
        if kind == "(":
            t = self.parse_term()
            self.expect(")")
            return t
        if kind != "name":
            raise ParseError(f"expected a generator, id:, sw: or '(', got {val!r}", line, col)
        if val == "id":
            self.expect(":")
            wtok = self.expect("name")
            return Id(_check_word(wtok[1], wtok[2], wtok[3]))
        if val == "sw":
            self.expect(":")
            ltok = self.expect("name")
            left = _check_word(ltok[1], ltok[2], ltok[3])
            self.expect(",")
            rtok = self.expect("name")
            right = _check_word(rtok[1], rtok[2], rtok[3])
            if len(left) != 1 or len(right) != 1:
                raise ParseError("sw: takes two single letters", line, col)
            return Swap(left, right)
        if val in GEN_SIGNATURES:
            return Gen(val)
        raise ParseError(f"unknown generator {val!r}", line, col)


def parse(text: str) -> CobTerm:
    p = _Parser(text)
    t = p.parse_term()
    end = p.peek()
    if end[0] != "end":
        raise ParseError(f"unexpected {end[1]!r} after complete term", end[2], end[3])
    return t


def pretty(t: CobTerm) -> str:
    """Canonical text: ';' chains unparenthesized, tensor operands that are
    compositions get parentheses."""
    return _fold(t, _leaf_text, _join_text)


def _leaf_text(node):
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Id):
        return f"id:{node.word}"
    return f"sw:{node.left},{node.right}"


def _join_text(node, a, b):
    if isinstance(node, Compose):
        return f"{a} ; {b}"
    if isinstance(node.left, Compose):
        a = f"({a})"
    if isinstance(node.right, Compose):
        b = f"({b})"
    return f"{a} * {b}"


# ---------------------------------------------------------------------------
# folds and evaluation


_JOIN = object()            # stack marker: the node below it has both operands folded


def _fold(t: CobTerm, leaf, join):
    """Bottom-up fold of term t: leaf(node) for a Gen, Id or Swap node,
    join(node, a, b) for a Compose or Tensor node whose two operands folded
    to a and b.  Walks an explicit stack, operands left to right, so a term
    of any depth folds without recursion, in the order of a recursive walk."""
    done = []               # results of the finished subterms
    stack = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if node is _JOIN:
            node = stack.pop()
            b = done.pop()
            done.append(join(node, done.pop(), b))
        elif kind is Compose:
            stack += [node, _JOIN, node.second, node.first]
        elif kind is Tensor:
            stack += [node, _JOIN, node.right, node.left]
        elif kind is Gen or kind is Id or kind is Swap:
            done.append(leaf(node))
        else:
            raise TypeError(f"not a term: {node!r}")
    return done[0]


def typecheck(t: CobTerm):
    """Return (domain, codomain) as words over I/S, read off the shape of
    the summary of t; an ill-typed composite raises TermTypeError from
    summarize."""
    s = summarize(t)
    return s.dom, s.cod


def word_dim(word: str, k: KFA) -> int:
    d = 1
    for c in word:
        d *= k.open.dim if c == "I" else k.closed.dim
    return d


def _gen_matrix(name: str, k: KFA) -> Matrix:
    if name == "uI":
        return k.open.unit_matrix()
    if name == "eI":
        return k.open.counit_matrix()
    if name == "mI":
        return k.open.product_matrix()
    if name == "dI":
        return k.open.coproduct_matrix()
    if name == "uS":
        return k.closed.unit_matrix()
    if name == "eS":
        return k.closed.counit_matrix()
    if name == "mS":
        return k.closed.product_matrix()
    if name == "dS":
        return k.closed.coproduct_matrix()
    if name == "z":
        return k.zipper
    if name == "zs":
        return k.cozipper
    raise ValueError(f"unknown generator {name}")


def _eval_matrix(t: CobTerm, k: KFA) -> Matrix:
    return _fold(t, lambda node: _leaf_matrix(node, k), _join_matrix)


def _leaf_matrix(node, k: KFA) -> Matrix:
    if isinstance(node, Gen):
        return _gen_matrix(node.name, k)
    if isinstance(node, Id):
        return Matrix.identity(word_dim(node.word, k))
    d1 = word_dim(node.left, k)
    d2 = word_dim(node.right, k)
    m = Matrix.zeros(d1 * d2, d1 * d2)
    for i in range(d1):
        for j in range(d2):
            m[j * d1 + i, i * d2 + j] = ONE
    return m


def _join_matrix(node, a: Matrix, b: Matrix) -> Matrix:
    return b * a if isinstance(node, Compose) else a.kron(b)


def evaluate(t, k: KFA):
    """Linear map induced by substituting the structure tensors of k.

    Returns a Matrix indexed [codomain x domain]; a term typed empty ->
    empty returns the scalar instead.  Accepts a LinComb or a single term,
    which is read as the one-term LinComb; either way the type is that of
    the summaries (LinComb.signature).
    """
    if not isinstance(t, LinComb):
        t = LinComb([(ONE, t)])
    if not t.terms:
        raise ValueError("empty linear combination has no intrinsic type")
    dom, cod = t.signature()
    acc = Matrix.zeros(word_dim(cod, k), word_dim(dom, k))
    for coeff, term in t.terms:
        acc = acc + _eval_matrix(term, k).scale(coeff)
    if dom == "" and cod == "":
        return acc[0, 0]
    return acc


# ---------------------------------------------------------------------------
# diagram summaries
#
# A summary keeps just the topological data needed to go on gluing an open
# diagram, as a shape and its labels.  Boundary positions are numbered
# domain first, then codomain; the two side endpoints T and B of position p
# are numbered 2p and 2p + 1.  The shape (Shape) is the domain and codomain
# words, the component of each position and how the free-boundary arcs pair
# up the side endpoints of the interval positions.  The labels are the
# Euler characteristic and window count of each component that reaches the
# boundary, and the (genus, windows) types of the components that are
# already closed.  Components are numbered by first appearance along the
# positions, so diagrams that glue alike have equal summaries.  Shapes are
# interned to small ids, and a summary is the triple (shape id, boundary
# labels, closed types), its own hash key.
#
# Which components two summaries glue into, and what the gluing adds to
# their Euler characteristics and windows, depends on the two shapes alone.
# The shape table builds that once per pair of shape ids, as a plan; the
# gluing functions then only sum labels along it, in one loop (_sum_labels).
# The union-find and the walks along the arcs run while a plan is built;
# the genus of every component that closes is checked on every call.
#
# summarize folds fixed leaf summaries, one per generator plus the bare
# wires of identities and swaps, under compose_summaries and
# tensor_summaries.  Each join takes time in the boundary size only, so
# pairing large endomorphism families never walks whole composite terms.

# free-boundary arcs of each generator on its interval ports, as pairs of
# (dir, slot, side) endpoints with side "T" (top) or "B" (bottom)
GEN_ARCS = {
    "uI": ((("out", 0, "T"), ("out", 0, "B")),),
    "eI": ((("in", 0, "T"), ("in", 0, "B")),),
    "z": ((("out", 0, "T"), ("out", 0, "B")),),
    "zs": ((("in", 0, "T"), ("in", 0, "B")),),
    "mI": (
        (("in", 0, "T"), ("out", 0, "T")),
        (("in", 1, "B"), ("out", 0, "B")),
        (("in", 0, "B"), ("in", 1, "T")),
    ),
    "dI": (
        (("in", 0, "T"), ("out", 0, "T")),
        (("in", 0, "B"), ("out", 1, "B")),
        (("out", 0, "B"), ("out", 1, "T")),
    ),
    "uS": (), "eS": (), "mS": (), "dS": (),
}

# Euler characteristic carried by a bare boundary-to-boundary wire: an
# interval wire is a square patch, a circle wire is a cylinder.
WIRE_EULER = {"I": 1, "S": 0}


class Shape(NamedTuple):
    dom: str            # domain word
    cod: str            # codomain word
    comp: tuple         # per boundary position: its component
    match: tuple        # per side endpoint: its arc partner, -1 on circle positions

    def ncomps(self):
        return max(self.comp, default=-1) + 1


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _glue(a: Shape, b: Shape, pairs):
    """Union-find over the components of a (numbered first) and of b, glued
    at the (position of a, position of b, letter) pairs.  Returns the parent
    array and the Euler correction per component: a glued interval wire
    takes one from the Euler characteristic."""
    ka = a.ncomps()
    parent = list(range(ka + b.ncomps()))
    euler = [0] * len(parent)
    for p, q, letter in pairs:
        x = a.comp[p]
        parent[_find(parent, x)] = _find(parent, ka + b.comp[q])
        if letter == "I":
            euler[x] -= 1
    return parent, euler


class _ShapeTable:
    """Interned shapes and the gluing plans between them, each plan built on
    first use and kept in the row of its first shape.

    A root (members, euler, windows) is one component of a gluing: members
    index the boundary labels of the first summary followed by those of the
    second, and euler and windows are what the gluing adds, minus one Euler
    characteristic per glued interval wire and one window per cycle of
    free-boundary arcs.  A closure plan is the tuple of roots of the trace
    closure of (a then b).  That closure is also the one of (b then a), so
    a pair of shapes has one closure plan, in the row of the smaller id at
    the offset of the larger.  Nearly every pair of enumerated classes is
    closed, so those rows are lists.  A composition plan is (result shape
    id, the roots on the boundary in the order of the result's components,
    the roots that close).  Equal plans and roots are stored once.  Each
    closure plan is kept with its split plan (closure_plan), which the Gram
    fill and the row plans of closure_row read."""

    def __init__(self):
        self.shapes = []        # shape id -> Shape
        self.ids = {}           # Shape -> shape id
        self.closure = []       # per shape id i: closure plan with shape i + k at [k]
        self.compose = []       # per shape id: {partner id: composition plan}
        self.plans = {}         # every distinct plan and root

    def intern(self, shape: Shape) -> int:
        sid = self.ids.get(shape)
        if sid is None:
            sid = self.ids[shape] = len(self.shapes)
            self.shapes.append(shape)
            self.closure.append([])
            self.compose.append({})
        return sid

    def closure_plan(self, i: int, j: int):
        """(plan, side i, side j): the closure plan of shapes i <= j and its
        split plan, the roots once more with the members split by side.  A
        side holds per root the members that index the labels of a summary
        of its shape, and the root's offsets (euler, windows)."""
        row, k = self.closure[i], j - i
        if k >= len(row):
            row += [None] * (len(self.shapes) - i - len(row))
        plan = row[k]
        if plan is None:
            plan = row[k] = self._keep(self._split(self.shapes[i].ncomps(), self._closure(i, j)))
        return plan

    def _split(self, k, roots):
        lo, hi = [], []
        for members, e, w in roots:
            m = bisect_left(members, k)         # members ascend (_roots)
            lo.append((members[:m], e, w))
            hi.append((tuple([x - k for x in members[m:]]), e, w))
        return roots, tuple(lo), tuple(hi)

    def compose_plan(self, i: int, j: int):
        """The composition plan of shape i then shape j."""
        plan = self.compose[i].get(j)
        if plan is None:
            plan = self.compose[i][j] = self._keep(self._composition(i, j))
        return plan

    def _keep(self, value):
        return self.plans.setdefault(value, value)

    def _roots(self, parent, euler, windows):
        """root -> (members, euler, windows) of the glued components"""
        members = {}
        for x in range(len(parent)):
            members.setdefault(_find(parent, x), []).append(x)
        return {r: self._keep((tuple(xs), sum(euler[x] for x in xs), sum(windows[x] for x in xs)))
                for r, xs in members.items()}

    def _closure(self, i, j):
        a, b = self.shapes[i], self.shapes[j]
        if a.cod != b.dom or b.cod != a.dom:
            raise ConsistencyError(
                f"cannot close {a.dom!r} -> {a.cod!r} against {b.dom!r} -> {b.cod!r}")
        n, m = len(a.dom), len(a.cod)
        parent, euler = _glue(a, b, [(n + k, k, c) for k, c in enumerate(a.cod)]
                              + [(k, m + k, c) for k, c in enumerate(a.dom)])

        # an arc of a, the step across into b, an arc of b and the step back
        # lead from one endpoint of a to the next on the same cycle: a's
        # endpoint e < 2n meets b's e + 2m, a's e >= 2n meets b's e - 2n
        windows = [0] * len(parent)
        dn, dm = 2 * n, 2 * m
        seen = bytearray(len(a.match))
        for start, f in enumerate(a.match):
            if f < 0 or seen[start]:
                continue
            windows[a.comp[start >> 1]] += 1
            e = start
            while not seen[e]:
                f = a.match[e]
                seen[e] = seen[f] = 1
                g = b.match[f + dm if f < dn else f - dn]
                e = g + dn if g < dm else g - dm
        return tuple(self._roots(parent, euler, windows).values())

    def _composition(self, i, j):
        a, b = self.shapes[i], self.shapes[j]
        if a.cod != b.dom:
            raise TermTypeError(
                f"cannot compose: codomain {a.cod or 'empty'!r} does not match domain {b.dom or 'empty'!r}")
        na, m = len(a.dom), len(a.cod)
        # a's codomain position na + k meets b's domain position k
        parent, euler = _glue(a, b, [(na + k, k, c) for k, c in enumerate(a.cod)])
        windows = [0] * len(parent)

        # splice the arcs across the interface: a's endpoint off + e meets b's
        # endpoint e; outer endpoints keep their number in a, b's codomain
        # endpoints shift by off - 2m
        off, bm = 2 * na, 2 * m
        seen = bytearray(bm)        # interface endpoints already on a path
        match = [-1] * (off + len(b.match) - bm)

        def walk(e, in_a):
            while True:
                if in_a:
                    e = a.match[e] - off
                    if e < 0:
                        return e + off
                else:
                    e = b.match[e]
                    if e >= bm:
                        return e - bm + off
                seen[e] = 1
                in_a = not in_a
                e += off if in_a else 0

        for start in range(off):
            if a.match[start] >= 0 and match[start] < 0:
                end = walk(start, True)
                match[start], match[end] = end, start
        for start in range(bm, len(b.match)):
            here = start - bm + off
            if b.match[start] >= 0 and match[here] < 0:
                end = walk(start, False)
                match[here], match[end] = end, here

        # arc cycles trapped at the interface become windows
        for start in range(bm):
            if seen[start] or a.match[off + start] < 0:
                continue
            windows[a.comp[na + start // 2]] += 1
            e = start
            while not seen[e]:
                f = a.match[off + e] - off
                seen[e] = seen[f] = 1
                e = b.match[f]

        ka = a.ncomps()
        raw = [_find(parent, c) for c in a.comp[:na]] + [_find(parent, ka + c) for c in b.comp[m:]]
        order = {}
        comp = tuple([order.setdefault(r, len(order)) for r in raw])
        roots = self._roots(parent, euler, windows)
        return (self.intern(Shape(a.dom, b.cod, comp, tuple(match))),
                tuple([roots[r] for r in order]),
                tuple([root for r, root in roots.items() if r not in order]))


_SHAPES = _ShapeTable()


class DiagramSummary(tuple):
    """(shape id, comps, closed): the interned Shape of a summary and its
    labels, comps giving (euler, windows) per boundary component and closed
    the sorted (genus, windows) of the closed components.  Built from the
    fields of the shape and the labels; the fields of the shape read
    through the table."""

    __slots__ = ()

    def __new__(cls, dom, cod, comp, comps, match, closed):
        return tuple.__new__(cls, (_SHAPES.intern(Shape(dom, cod, comp, match)), comps, closed))

    shape = property(itemgetter(0))
    comps = property(itemgetter(1))
    closed = property(itemgetter(2))
    dom = property(lambda s: _SHAPES.shapes[s[0]].dom)
    cod = property(lambda s: _SHAPES.shapes[s[0]].cod)
    comp = property(lambda s: _SHAPES.shapes[s[0]].comp)
    match = property(lambda s: _SHAPES.shapes[s[0]].match)

    def __repr__(self):
        return (f"DiagramSummary(dom={self.dom!r}, cod={self.cod!r}, comp={self.comp}, "
                f"comps={self.comps}, match={self.match}, closed={self.closed})")


def _summary(dom, cod, raw, data, match, closed):
    """The summary whose position p lies on raw component raw[p], with data
    giving (euler, windows) per raw component; renumbers the components by
    first appearance."""
    order = {}
    comp = tuple([order.setdefault(c, len(order)) for c in raw])
    return DiagramSummary(dom, cod, comp, tuple([data[c] for c in order]),
                          tuple(match), tuple(sorted(closed)))


def _gen_summary(name):
    dom, cod = GEN_SIGNATURES[name]
    n = len(dom) + len(cod)
    match = [-1] * (2 * n)
    for ends in GEN_ARCS[name]:
        e, f = (2 * (slot + len(dom) * (d == "out")) + (side == "B") for d, slot, side in ends)
        match[e], match[f] = f, e
    return _summary(dom, cod, [0] * n, [(GEN_EULER[name], 0)], match, ())


_GEN_SUMMARIES = {name: _gen_summary(name) for name in GEN_SIGNATURES}


def _wire_summary(dom, cod, perm):
    """Summary of bare wires, domain position i running to codomain
    position perm[i]."""
    n = len(dom)
    raw = list(range(n)) * 2
    match = [-1] * (4 * n)
    for i, j in enumerate(perm):
        raw[n + j] = i
        if dom[i] == "I":
            for s in (0, 1):
                e, f = 2 * i + s, 2 * (n + j) + s
                match[e], match[f] = f, e
    return _summary(dom, cod, raw, [(WIRE_EULER[c], 0) for c in dom], match, ())


def _leaf_summary(node):
    if isinstance(node, Gen):
        return _GEN_SUMMARIES[node.name]
    if isinstance(node, Id):
        return _wire_summary(node.word, node.word, range(len(node.word)))
    return _wire_summary(node.left + node.right, node.right + node.left, (1, 0))


def _join_summary(node, a, b):
    if isinstance(node, Compose):
        return compose_summaries(a, b)
    return tensor_summaries(a, b)


def summarize(term) -> DiagramSummary:
    """Topological summary of a well-typed term; raises TermTypeError on an
    ill-typed composite."""
    return _fold(term, _leaf_summary, _join_summary)


def tensor_summaries(a: DiagramSummary, b: DiagramSummary) -> DiagramSummary:
    """Summary of a placed beside b (a * b)."""
    da, db, ca = len(a.dom), len(b.dom), len(a.cod)
    place = ([p if p < da else p + db for p in range(len(a.comp))],
             [q + da if q < db else q + da + ca for q in range(len(b.comp))])
    raw = [0] * (len(a.comp) + len(b.comp))
    match = [-1] * (2 * len(raw))
    for s, pos, shift in ((a, place[0], 0), (b, place[1], len(a.comps))):
        for p, c in enumerate(s.comp):
            raw[pos[p]] = c + shift
        for e, f in enumerate(s.match):
            if f >= 0:
                match[2 * pos[e >> 1] + (e & 1)] = 2 * pos[f >> 1] + (f & 1)
    return _summary(a.dom + b.dom, a.cod + b.cod, raw, a.comps + b.comps, match,
                    a.closed + b.closed)


def _closed_type(e, w):
    """(genus, windows) of a closed component with Euler characteristic e
    and w windows."""
    rem = 2 - e - w
    if rem < 0 or rem % 2:
        raise ConsistencyError(
            f"component with Euler characteristic {e} and {w} windows has no valid genus")
    return rem // 2, w


def _sum_labels(roots, labels, out: list, closed: bool) -> list:
    """Append to out, per root of a plan, its offsets plus the labels of its
    members: (euler, windows), or the (genus, windows) type when the root
    closes.  The one loop that sums labels along a plan."""
    for members, e, w in roots:
        for x in members:
            ce, cw = labels[x]
            e += ce
            w += cw
        out.append(_closed_type(e, w) if closed else (e, w))
    return out


def compose_summaries(a: DiagramSummary, b: DiagramSummary) -> DiagramSummary:
    """Summary of the composite (a then b)."""
    shape, boundary, interior = _SHAPES.compose_plan(a.shape, b.shape)
    labels = a.comps + b.comps
    closed = _sum_labels(interior, labels, list(a.closed + b.closed), True)
    closed.sort()
    return tuple.__new__(DiagramSummary, (shape, tuple(_sum_labels(boundary, labels, [], False)),
                                          tuple(closed)))


def closure_roots(a: DiagramSummary, b: DiagramSummary) -> list:
    """(genus, windows) of each component that the trace closure of (a then
    b) glues from the boundary components of a and b.  With a.closed and
    b.closed they are the components of the closure."""
    if a.shape > b.shape:       # the closure of (b then a), which is the same
        a, b = b, a
    return _sum_labels(_SHAPES.closure_plan(a.shape, b.shape)[0], a.comps + b.comps, [], True)


def summary_closure(a: DiagramSummary, b: DiagramSummary):
    """Sorted (genus, windows) types of the trace closure of (a then b):
    a.cod glued to b.dom and b.cod to a.dom."""
    return tuple(sorted(a.closed + b.closed + tuple(closure_roots(a, b))))


def closure_row(a: DiagramSummary, summaries):
    """Yield summary_closure(a, b) for each b of summaries, one at a time, so
    that a caller may stop early.  The closure plan is read once per shape
    of b, with the labels of a summed into it (_row_plan), so that each b
    adds only its own labels.  This is the lazy engine of the pairing rows
    (gram._pairing_row); a full Gram matrix is filled per pair of shapes
    from the split plans (_split_plan) instead."""
    plans = {}              # shape of b -> its row plan
    shape, comps, closed = a
    for b_shape, b_comps, b_closed in summaries:
        plan = plans.get(b_shape)
        if plan is None:
            plan = plans[b_shape] = _row_plan(shape, comps, b_shape)
        types = _sum_labels(plan, b_comps, [*closed, *b_closed], True)
        types.sort()
        yield tuple(types)


def _split_plan(a_shape, b_shape):
    """(side a, side b): the closure plan of shapes a_shape and b_shape with
    the members of each root split by side, as the shape table keeps it
    (_ShapeTable.closure_plan).  Per root, side a holds the members that
    index the labels of a summary of shape a_shape and side b those of one
    of shape b_shape, each with the root's offsets (euler, windows)."""
    if a_shape <= b_shape:
        return _SHAPES.closure_plan(a_shape, b_shape)[1:]
    _, b_side, a_side = _SHAPES.closure_plan(b_shape, a_shape)
    return a_side, b_side


def _row_plan(shape, comps, b_shape) -> list:
    """The closure plan of shapes shape and b_shape with the labels comps of
    the first summed in: per root, the members that index the labels of the
    second, and its offsets plus the labels of the first."""
    a_side, b_side = _split_plan(shape, b_shape)
    sums = _sum_labels(a_side, comps, [], False)
    return [(bm, e, w) for (bm, _, _), (e, w) in zip(b_side, sums)]


# summaries are interned so that a linear combination, an enumerated class
# or a pairing names one by a small id; equal summaries mean equal closure
# behaviour against every partner
_SUMMARIES = []
_SUMMARY_IDS = {}


def intern_summary(s: DiagramSummary) -> int:
    """Interned id of summary s: the id of the first interned summary equal
    to it."""
    sid = _SUMMARY_IDS.get(s)
    if sid is None:
        sid = _SUMMARY_IDS[s] = len(_SUMMARIES)
        _SUMMARIES.append(s)
    return sid


def summary_id(t) -> int:
    """Interned id of the summary of term t."""
    return intern_summary(summarize(t))


# ---------------------------------------------------------------------------
# the defining relations, as pairs of equal terms

RELATION_FAMILIES = {
    "closed_unit": [
        ("(uS * id:S) ; mS", "id:S"),
        ("(id:S * uS) ; mS", "id:S"),
    ],
    "closed_counit": [
        ("dS ; (eS * id:S)", "id:S"),
        ("dS ; (id:S * eS)", "id:S"),
    ],
    "closed_assoc": [("(mS * id:S) ; mS", "(id:S * mS) ; mS")],
    "closed_coassoc": [("dS ; (dS * id:S)", "dS ; (id:S * dS)")],
    "closed_frobenius": [
        ("mS ; dS", "(id:S * dS) ; (mS * id:S)"),
        ("mS ; dS", "(dS * id:S) ; (id:S * mS)"),
    ],
    "closed_commutative": [("sw:S,S ; mS", "mS")],
    "closed_cocommutative": [("dS ; sw:S,S", "dS")],
    "open_unit": [
        ("(uI * id:I) ; mI", "id:I"),
        ("(id:I * uI) ; mI", "id:I"),
    ],
    "open_counit": [
        ("dI ; (eI * id:I)", "id:I"),
        ("dI ; (id:I * eI)", "id:I"),
    ],
    "open_assoc": [("(mI * id:I) ; mI", "(id:I * mI) ; mI")],
    "open_coassoc": [("dI ; (dI * id:I)", "dI ; (id:I * dI)")],
    "open_frobenius": [
        ("mI ; dI", "(id:I * dI) ; (mI * id:I)"),
        ("mI ; dI", "(dI * id:I) ; (id:I * mI)"),
    ],
    "open_symmetric": [("sw:I,I ; mI ; eI", "mI ; eI")],
    "open_cosymmetric": [("uI ; dI ; sw:I,I", "uI ; dI")],
    "zipper_unit": [("uS ; z", "uI")],
    "zipper_multiplicative": [("mS ; z", "(z * z) ; mI")],
    "duality": [("(id:S * zs) ; mS ; eS", "(z * id:I) ; mI ; eI")],
    "knowledge": [("(z * id:I) ; mI", "(z * id:I) ; sw:I,I ; mI")],
    "cardy": [("zs ; z", "dI ; sw:I,I ; mI")],
}


def check_relations(k: KFA):
    """Evaluate both sides of every defining relation under k.

    Returns a dict family -> bool; a valid structure satisfies all of them.
    """
    out = {}
    for family, pairs in RELATION_FAMILIES.items():
        ok = True
        for lhs, rhs in pairs:
            tl = parse(lhs)
            tr = parse(rhs)
            if typecheck(tl) != typecheck(tr):
                raise TermTypeError(f"relation {family} sides have different types")
            if evaluate(tl, k) != evaluate(tr, k):
                ok = False
                break
        out[family] = ok
    return out
