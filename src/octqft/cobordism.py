"""Textual language for open-closed surface diagrams.

Generators (with domain -> codomain over the alphabet {I, S}):

    uI: -> I    eI: I ->    mI: II -> I    dI: I -> II
    uS: -> S    eS: S ->    mS: SS -> S    dS: S -> SS
    z : S -> I  (zipper)    zs: I -> S     (cozipper)

Grammar: term := factor { ";" factor } ; factor := atom { "*" atom } ;
atom := GEN | "id:" WORD | "sw:" LETTER "," LETTER | "(" term ")".
";" composes in diagram order (left factor applied first) and "*" binds
tighter.  Whitespace is insignificant.

Besides parsing, typechecking and evaluation against a concrete structure,
the module analyses closed terms combinatorially: connected components of
the wire graph, Euler characteristics, and the (genus, windows) type of
every component, obtained from the Euler count plus an exact count of free
boundary circles.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .numkit import Matrix, Rat, ZERO, ONE, rat
from .frobenius import ConsistencyError
from .kfa import KFA, make_semisimple_kfa
from .character import CharacterForm, eval_character


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
    """Formal rational combination of terms with one common type."""

    terms: list
    _signature: tuple = field(default=None, init=False, repr=False, compare=False)
    _sids: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        sigs = {typecheck(t) for _, t in self.terms}
        if len(sigs) > 1:
            raise TermTypeError(f"mixed types in linear combination: {sorted(sigs)}")
        if sigs:
            self._signature = sigs.pop()

    def signature(self):
        return self._signature

    @classmethod
    def interned(cls, term, sid):
        """The combination 1·term, for a term whose interned summary id is
        already known."""
        e = cls([(ONE, term)])
        e._sids = [(ONE, sid)]
        return e

    def summary_ids(self):
        """(coefficient, interned summary id) per term, computed on first use."""
        if self._sids is None:
            self._sids = [(c, summary_id(t)) for c, t in self.terms]
        return self._sids


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
# typechecking and evaluation


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


def _leaf_signature(node):
    if isinstance(node, Gen):
        return GEN_SIGNATURES[node.name]
    if isinstance(node, Id):
        return (node.word, node.word)
    return (node.left + node.right, node.right + node.left)


def _join_signature(node, a, b):
    (d1, c1), (d2, c2) = a, b
    if isinstance(node, Tensor):
        return (d1 + d2, c1 + c2)
    if c1 != d2:
        raise TermTypeError(
            f"cannot compose: codomain {c1 or 'empty'!r} does not match domain {d2 or 'empty'!r}"
        )
    return (d1, c2)


def typecheck(t: CobTerm):
    """Return (domain, codomain) as words over I/S; raise TermTypeError."""
    return _fold(t, _leaf_signature, _join_signature)


def is_closed(t: CobTerm) -> bool:
    return typecheck(t) == ("", "")


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
    empty returns the scalar instead.  Accepts a single term or a LinComb.
    """
    if isinstance(t, LinComb):
        if not t.terms:
            raise ValueError("empty linear combination has no intrinsic type")
        dom, cod = t.signature()
        acc = Matrix.zeros(word_dim(cod, k), word_dim(dom, k))
        for coeff, term in t.terms:
            acc = acc + _eval_matrix(term, k).scale(coeff)
        if dom == "" and cod == "":
            return acc[0, 0]
        return acc
    dom, cod = typecheck(t)
    m = _eval_matrix(t, k)
    if dom == "" and cod == "":
        return m[0, 0]
    return m


# ---------------------------------------------------------------------------
# wire graphs


class _Net:
    """Port-level wiring of a term.

    Ports are integers; union-find classes are wires.  Generator instances
    are nodes; identity and swap wires are contracted implicitly by sharing
    or uniting ports.
    """

    def __init__(self):
        self.gens = []        # generator name per node
        self.node_in = []     # per node: list of port ids
        self.node_out = []
        self.port_type = []   # per port: "I" or "S"
        self.parent = []
        self.loops = []       # letters of nodeless loops formed at closure
        self.dom = []
        self.cod = []

    def new_port(self, letter):
        p = len(self.parent)
        self.parent.append(p)
        self.port_type.append(letter)
        return p

    def find(self, p):
        while self.parent[p] != p:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            # the wire closes on itself: a loop with no generators on it
            self.loops.append(self.port_type[ra])
        else:
            self.parent[ra] = rb

    def add_node(self, name):
        dom_word, cod_word = GEN_SIGNATURES[name]
        ins = [self.new_port(c) for c in dom_word]
        outs = [self.new_port(c) for c in cod_word]
        self.gens.append(name)
        self.node_in.append(ins)
        self.node_out.append(outs)
        return ins, outs

    def close(self):
        """Glue the codomain back onto the domain (categorical trace)."""
        for a, b in zip(self.cod, self.dom):
            self.union(a, b)
        self.dom = []
        self.cod = []

    def wires(self):
        """dict wire-root -> list of (node, dir, slot) attachment points."""
        out = {}
        for node in range(len(self.gens)):
            for slot, p in enumerate(self.node_in[node]):
                out.setdefault(self.find(p), []).append((node, "in", slot))
            for slot, p in enumerate(self.node_out[node]):
                out.setdefault(self.find(p), []).append((node, "out", slot))
        return out


def _build_net(t, net):
    """Add the wiring of t to net and return its (domain, codomain) ports."""
    def leaf(node):
        if isinstance(node, Gen):
            return net.add_node(node.name)
        if isinstance(node, Id):
            ports = [net.new_port(c) for c in node.word]
            return ports, ports
        p = net.new_port(node.left)
        q = net.new_port(node.right)
        return [p, q], [q, p]

    def join(node, a, b):
        (d1, c1), (d2, c2) = a, b
        if isinstance(node, Tensor):
            return d1 + d2, c1 + c2
        for x, y in zip(c1, d2):
            net.union(x, y)
        return d1, c2

    return _fold(t, leaf, join)


def network(t: CobTerm) -> _Net:
    net = _Net()
    dom, cod = _build_net(t, net)
    net.dom = dom
    net.cod = cod
    return net


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


class _DictUF:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _analyze(net: _Net):
    """Per-component data of a fully closed net.

    Returns a list of (genus, windows) pairs, one per connected component,
    including (1, 0) for each nodeless closed loop and (0, 2) for each
    nodeless interval loop.
    """
    wires = net.wires()
    for root, ends in wires.items():
        if len(ends) != 2:
            raise ConsistencyError(f"wire with {len(ends)} attachment points in a closed diagram")

    nodes_uf = _DictUF()
    for node in range(len(net.gens)):
        nodes_uf.find(node)
    for root, ends in wires.items():
        nodes_uf.union(ends[0][0], ends[1][0])

    # Euler characteristic: generator values minus internal interval wires
    euler = {}
    for node, name in enumerate(net.gens):
        c = nodes_uf.find(node)
        euler[c] = euler.get(c, 0) + GEN_EULER[name]
    iwires = {}
    for root, ends in wires.items():
        if net.port_type[root] == "I":
            c = nodes_uf.find(ends[0][0])
            euler[c] = euler.get(c, 0) - 1

    # free boundary circles: arcs inside generators, side-preserving gluing
    # along interval wires
    ends_uf = _DictUF()
    for node, name in enumerate(net.gens):
        for a, b in GEN_ARCS[name]:
            ends_uf.union((node,) + a, (node,) + b)
    for root, ends in wires.items():
        if net.port_type[root] != "I":
            continue
        (n1, d1, s1), (n2, d2, s2) = ends
        ends_uf.union((n1, d1, s1, "T"), (n2, d2, s2, "T"))
        ends_uf.union((n1, d1, s1, "B"), (n2, d2, s2, "B"))
    circles = {}
    seen = set()
    for key in list(ends_uf.parent):
        r = ends_uf.find(key)
        if r in seen:
            continue
        seen.add(r)
        c = nodes_uf.find(r[0])
        circles[c] = circles.get(c, 0) + 1

    out = []
    roots = sorted({nodes_uf.find(n) for n in range(len(net.gens))})
    for c in roots:
        e = euler.get(c, 0)
        w = circles.get(c, 0)
        rem = 2 - e - w
        if rem < 0 or rem % 2:
            raise ConsistencyError(
                f"component has Euler characteristic {e} with {w} windows; no valid genus"
            )
        out.append((rem // 2, w))
    for letter in net.loops:
        out.append((1, 0) if letter == "S" else (0, 2))
    return out


def _closed_net(t: CobTerm) -> _Net:
    if not is_closed(t):
        dom, cod = typecheck(t)
        raise TermTypeError(f"term must be closed, has type {dom or 'empty'!r} -> {cod or 'empty'!r}")
    return network(t)


def components(t: CobTerm):
    """Partition of the generator instances of a closed term into connected
    components; instances are numbered in parse order."""
    net = _closed_net(t)
    wires = net.wires()
    uf = _DictUF()
    for node in range(len(net.gens)):
        uf.find(node)
    for root, ends in wires.items():
        if len(ends) == 2:
            uf.union(ends[0][0], ends[1][0])
    groups = {}
    for node in range(len(net.gens)):
        groups.setdefault(uf.find(node), []).append(node)
    return sorted(groups.values())


def euler_characteristic(t: CobTerm) -> int:
    """Sum of the generator Euler values minus the number of internal
    interval wires; equals 2 - 2g - w on connected closed terms."""
    net = _closed_net(t)
    total = sum(GEN_EULER[name] for name in net.gens)
    for root, ends in net.wires().items():
        if net.port_type[root] == "I":
            total -= 1
    return total


def surface_types(t: CobTerm):
    """(genus, windows) of every connected component of a closed term."""
    return _analyze(_closed_net(t))


# ---------------------------------------------------------------------------
# open-diagram summaries
#
# A summary keeps just the topological data needed to continue gluing an open
# diagram: which boundary positions share a connected component, the Euler
# characteristic and window count accumulated per component, how the
# free-boundary arcs pair up the T/B side endpoints of interval boundary
# positions, and the (genus, windows) types of components that are already
# closed.  Summaries compose and trace in time depending only on boundary
# size, so repeated pairing computations on large endomorphism families avoid
# reanalyzing whole composite networks.

# Euler characteristic carried by a bare boundary-to-boundary wire: an
# interval wire is a square patch, a circle wire is a cylinder.
WIRE_EULER = {"I": 1, "S": 0}


class DiagramSummary:
    __slots__ = ("dom", "cod", "comp", "comps", "match", "closed", "_key")

    def __init__(self, dom, cod, comp, comps, match, closed):
        self.dom = dom          # domain word
        self.cod = cod          # codomain word
        self.comp = comp        # boundary position ("d", i) / ("c", i) -> component id
        self.comps = comps      # component id -> (euler, windows)
        self.match = match      # arc matching on side endpoints (position, "T"/"B")
        self.closed = closed    # sorted tuple of (genus, windows) of closed parts
        self._key = None

    def positions(self):
        return [("d", i) for i in range(len(self.dom))] + \
               [("c", i) for i in range(len(self.cod))]

    def key(self):
        """Canonical hashable form; equal keys mean the same summary."""
        if self._key is None:
            order = {}
            ids = []
            for pos in self.positions():
                c = self.comp[pos]
                if c not in order:
                    order[c] = len(order)
                    ids.append(c)
            compkey = tuple(order[self.comp[pos]] for pos in self.positions())
            compdata = tuple(self.comps[c] for c in ids)
            mk = []
            for pos in self.positions():
                for side in ("T", "B"):
                    e = (pos, side)
                    if e in self.match:
                        mk.append((pos, side, self.match[e][0], self.match[e][1]))
            self._key = (self.dom, self.cod, compkey, compdata, tuple(mk), self.closed)
        return self._key


def _finish_component(e, w, closed):
    rem = 2 - e - w
    if rem < 0 or rem % 2:
        raise ConsistencyError(
            f"component with Euler characteristic {e} and {w} windows has no valid genus")
    closed.append((rem // 2, w))


def summarize(term) -> DiagramSummary:
    """Topological summary of an arbitrary well-typed term."""
    dom_w, cod_w = typecheck(term)
    net = network(term)
    wires = net.wires()

    droots = [net.find(p) for p in net.dom]
    croots = [net.find(p) for p in net.cod]
    bpos = {}
    for i, r in enumerate(droots):
        bpos.setdefault(r, []).append(("d", i))
    for i, r in enumerate(croots):
        bpos.setdefault(r, []).append(("c", i))

    uf = _DictUF()
    for node in range(len(net.gens)):
        uf.find(("n", node))
    for r in bpos:
        uf.find(("w", r))
    for root, ends in wires.items():
        na = len(ends)
        nb = len(bpos.get(root, []))
        if na + nb != 2:
            raise ConsistencyError(f"wire with {na} node ends and {nb} boundary ends")
        keys = [("n", e[0]) for e in ends] + ([("w", root)] if nb else [])
        for k in keys[1:]:
            uf.union(keys[0], k)

    euler = {}
    for node, name in enumerate(net.gens):
        c = uf.find(("n", node))
        euler[c] = euler.get(c, 0) + GEN_EULER[name]
    for root, ends in wires.items():
        if len(ends) == 2 and not bpos.get(root):
            if net.port_type[root] == "I":
                c = uf.find(("n", ends[0][0]))
                euler[c] = euler.get(c, 0) - 1
    for root, poss in bpos.items():
        if root not in wires:
            if len(poss) != 2:
                raise ConsistencyError("bare wire must touch exactly two boundary positions")
            c = uf.find(("w", root))
            euler[c] = euler.get(c, 0) + WIRE_EULER[net.port_type[root]]

    # chase the free-boundary arcs through the generators
    ends_uf = _DictUF()
    for node, name in enumerate(net.gens):
        for a, b in GEN_ARCS[name]:
            ends_uf.union((node,) + a, (node,) + b)
    open_ends = {}
    for root, ends in wires.items():
        if net.port_type[root] != "I":
            continue
        here = bpos.get(root, [])
        if len(ends) == 2:
            (n1, d1, s1), (n2, d2, s2) = ends
            ends_uf.union((n1, d1, s1, "T"), (n2, d2, s2, "T"))
            ends_uf.union((n1, d1, s1, "B"), (n2, d2, s2, "B"))
        elif len(ends) == 1:
            (n1, d1, s1), = ends
            pos = here[0]
            open_ends[(pos, "T")] = (n1, d1, s1, "T")
            open_ends[(pos, "B")] = (n1, d1, s1, "B")

    comp = {}
    for r, poss in bpos.items():
        c = uf.find(("w", r))
        for pos in poss:
            comp[pos] = c

    windows = {}
    match = {}
    for root, poss in bpos.items():
        if len(poss) == 2 and net.port_type[root] == "I":
            a, b = poss
            match[(a, "T")] = (b, "T")
            match[(b, "T")] = (a, "T")
            match[(a, "B")] = (b, "B")
            match[(b, "B")] = (a, "B")
    cls = {}
    for bend, nend in open_ends.items():
        cls.setdefault(ends_uf.find(nend), []).append(bend)
    for r, bends in cls.items():
        if len(bends) != 2:
            raise ConsistencyError(f"arc chain with {len(bends)} open endpoints")
        a, b = bends
        match[a] = b
        match[b] = a
    openroots = set(cls)
    seen = set()
    for kk in list(ends_uf.parent):
        r = ends_uf.find(kk)
        if r in seen or r in openroots:
            continue
        seen.add(r)
        c = uf.find(("n", r[0]))
        windows[c] = windows.get(c, 0) + 1

    closed = []
    bcomps = set(comp.values())
    comps = {}
    for c in set(euler) | bcomps:
        e = euler.get(c, 0)
        w = windows.get(c, 0)
        if c in bcomps:
            comps[c] = (e, w)
        else:
            _finish_component(e, w, closed)
    for letter in net.loops:
        closed.append((1, 0) if letter == "S" else (0, 2))
    return DiagramSummary(dom_w, cod_w, comp, comps, match, tuple(sorted(closed)))


def compose_summaries(a: DiagramSummary, b: DiagramSummary) -> DiagramSummary:
    """Summary of the composite (a then b)."""
    if a.cod != b.dom:
        raise ConsistencyError(f"cannot compose codomain {a.cod!r} with domain {b.dom!r}")
    uf = _DictUF()
    for c in a.comps:
        uf.find(("a", c))
    for c in b.comps:
        uf.find(("b", c))
    for i in range(len(a.cod)):
        uf.union(("a", a.comp[("c", i)]), ("b", b.comp[("d", i)]))

    merged_e = {}
    merged_w = {}
    for tag, s in (("a", a), ("b", b)):
        for c, (e, w) in s.comps.items():
            r = uf.find((tag, c))
            merged_e[r] = merged_e.get(r, 0) + e
            merged_w[r] = merged_w.get(r, 0) + w
    for i in range(len(a.cod)):
        if a.cod[i] == "I":
            r = uf.find(("a", a.comp[("c", i)]))
            merged_e[r] -= 1

    # splice arcs across the glued interface; endpoints are (tag, pos, side)
    def inner(tag, e):
        m = a.match if tag == "a" else b.match
        nxt = m.get(e)
        if nxt is None:
            return None
        return (tag, nxt[0], nxt[1])

    def across(pt):
        tag, pos, side = pt
        kind, i = pos
        if tag == "a" and kind == "c":
            return ("b", ("d", i), side)
        if tag == "b" and kind == "d":
            return ("a", ("c", i), side)
        return None

    outer = []
    for i in range(len(a.dom)):
        if a.dom[i] == "I":
            outer.append(("a", ("d", i), "T"))
            outer.append(("a", ("d", i), "B"))
    for i in range(len(b.cod)):
        if b.cod[i] == "I":
            outer.append(("b", ("c", i), "T"))
            outer.append(("b", ("c", i), "B"))

    match = {}
    visited = set()

    def outpos(pt):
        tag, pos, side = pt
        kind, i = pos
        if tag == "a":
            return (("d", i), side)
        return (("c", i), side)

    for start in outer:
        if start in visited:
            continue
        visited.add(start)
        cur = start
        while True:
            tag, pos, side = cur
            nxt = inner(tag, (pos, side))
            if nxt is None:
                raise ConsistencyError("missing arc at boundary endpoint")
            jump = across(nxt)
            if jump is None:
                visited.add(nxt)
                match[outpos(start)] = outpos(nxt)
                match[outpos(nxt)] = outpos(start)
                break
            visited.add(nxt)
            visited.add(jump)
            cur = jump

    # arc cycles trapped at the interface become windows
    for i in range(len(a.cod)):
        if a.cod[i] != "I":
            continue
        for side in ("T", "B"):
            k = ("a", ("c", i), side)
            if k in visited:
                continue
            r = uf.find(("a", a.comp[("c", i)]))
            merged_w[r] = merged_w.get(r, 0) + 1
            cur = k
            while cur not in visited:
                visited.add(cur)
                tag, pos, sd = cur
                nxt = inner(tag, (pos, sd))
                visited.add(nxt)
                jump = across(nxt)
                if jump is None:
                    raise ConsistencyError("interface circle reached the outer boundary")
                cur = jump

    comp = {}
    for i in range(len(a.dom)):
        comp[("d", i)] = uf.find(("a", a.comp[("d", i)]))
    for i in range(len(b.cod)):
        comp[("c", i)] = uf.find(("b", b.comp[("c", i)]))

    closed = list(a.closed) + list(b.closed)
    bcomps = set(comp.values())
    comps = {}
    for r in set(merged_e):
        e = merged_e[r]
        w = merged_w.get(r, 0)
        if r in bcomps:
            comps[r] = (e, w)
        else:
            _finish_component(e, w, closed)
    return DiagramSummary(a.dom, b.cod, comp, comps, match, tuple(sorted(closed)))


def summary_closure(a: DiagramSummary, b: DiagramSummary):
    """(genus, windows) types of the trace closure of (a then b).

    a.cod is glued to b.dom and b.cod to a.dom in one union-find pass over
    the boundary components of both summaries; every cycle of free-boundary
    arcs through the glued interfaces is a window.  Agrees with
    surface_types of the closed-up composite term.
    """
    if a.cod != b.dom or b.cod != a.dom:
        raise ConsistencyError(
            f"cannot close {a.dom!r} -> {a.cod!r} against {b.dom!r} -> {b.cod!r}")
    index = {}              # (0 for a / 1 for b, component id) -> slot
    euler = []
    windows = []
    for tag, s in enumerate((a, b)):
        for c, (e, w) in s.comps.items():
            index[tag, c] = len(euler)
            euler.append(e)
            windows.append(w)
    parent = list(range(len(euler)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # a.cod meets b.dom, b.cod meets a.dom; a glued interval wire takes one
    # from the Euler characteristic
    for tag_s, s, tag_t, t in ((0, a, 1, b), (1, b, 0, a)):
        for i, letter in enumerate(s.cod):
            x = index[tag_s, s.comp["c", i]]
            parent[find(x)] = find(index[tag_t, t.comp["d", i]])
            if letter == "I":
                euler[x] -= 1

    # an arc of a, the step across into b, an arc of b and the step back
    # lead from one endpoint of a to the next on the same cycle
    flip = {"c": "d", "d": "c"}
    seen = set()
    for end in a.match:
        if end in seen:
            continue
        windows[index[0, a.comp[end[0]]]] += 1
        while end not in seen:
            (kind, i), side = a.match[end]
            seen.add(end)
            seen.add(((kind, i), side))
            (kind, i), side = b.match[(flip[kind], i), side]
            end = ((flip[kind], i), side)

    totals = {}
    for x in range(len(euler)):
        r = find(x)
        e, w = totals.get(r, (0, 0))
        totals[r] = (e + euler[x], w + windows[x])
    closed = list(a.closed) + list(b.closed)
    for e, w in totals.values():
        _finish_component(e, w, closed)
    return tuple(sorted(closed))


# summaries are interned so that closure types can be cached under a pair of
# small ids; equal summaries mean equal closure behaviour against every
# partner
_SUMMARIES = []
_SUMMARY_IDS = {}


def intern_summary(s: DiagramSummary) -> int:
    """Interned id of summary s: the id of the first interned summary with
    the same key."""
    k = s.key()
    sid = _SUMMARY_IDS.get(k)
    if sid is None:
        sid = _SUMMARY_IDS[k] = len(_SUMMARIES)
        _SUMMARIES.append(s)
    return sid


def summary_id(t) -> int:
    """Interned id of the summary of term t."""
    return intern_summary(summarize(t))


_REFS = None


def _reference_kfas():
    global _REFS
    if _REFS is None:
        _REFS = (make_semisimple_kfa(3, 1), make_semisimple_kfa(2, 2))
    return _REFS


def _exact_power(value, base):
    """Exponent k with base**k == value, or None."""
    value = rat(value)
    if value <= 0:
        return None
    k = 0
    while value.numerator % base == 0 and value.denominator == 1:
        value /= base
        k += 1
    while value.denominator % base == 0:
        value *= base
        k -= 1
    return k if value == 1 else None


def classify_closed_connected(t: CobTerm):
    """(genus, windows) of a closed connected term.

    Normative method: evaluate under two reference structures whose
    invariants are 3^w and 2^(2-2g), then extract the exponents; the
    combinatorial Euler characteristic must agree with 2 - 2g - w.
    """
    net = _closed_net(t)
    if len(_analyze(net)) != 1:
        raise TermTypeError("term must have exactly one connected component")
    r1, r2 = _reference_kfas()
    w = _exact_power(evaluate(t, r1), 3)
    k2 = _exact_power(evaluate(t, r2), 2)
    if w is None or w < 0 or k2 is None or (2 - k2) % 2 or (2 - k2) < 0:
        raise ConsistencyError(
            f"reference evaluations are not the expected powers (3-exponent {w}, 2-exponent {k2})"
        )
    g = (2 - k2) // 2
    if euler_characteristic(t) != 2 - 2 * g - w:
        raise ConsistencyError(
            f"Euler characteristic {euler_characteristic(t)} disagrees with classification ({g},{w})"
        )
    return (g, w)


def chi_value(t: CobTerm, chi: CharacterForm):
    """Value of the character on a closed term: the product over connected
    components of the character at that component's (genus, windows)."""
    total = ONE
    for g, w in surface_types(t):
        total *= eval_character(chi, g, w)
    return total


def sigma_term(g: int, w: int) -> CobTerm:
    """Normal form of the connected surface with genus g and w windows:
    a closed tube with g handle loops and w zipper-cozipper excursions."""
    if g < 0 or w < 0:
        raise ValueError("genus and window count must be >= 0")
    parts = ["uS"] + ["dS ; mS"] * g + ["z ; zs"] * w + ["eS"]
    return parse(" ; ".join(parts))


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
