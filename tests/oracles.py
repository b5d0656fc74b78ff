"""Independent implementations that the tests check the program against.

- fold_signature: the (domain, codomain) of a term as a fold of generator
  signatures over the tree; the oracle for cobordism.typecheck, which reads
  the shape of the term's summary.  The wire-graph oracles type their
  terms with it, so they do not rest on the summary engine.
- The wire graph of a term (network, _analyze): generator instances are
  nodes, identity and swap wires are contracted into shared ports, and the
  (genus, windows) type of every component of a closed term comes from an
  Euler count plus an exact count of free boundary circles.
- network_summary: the topological summary of an open term read off its
  wire graph, in the form of a canonical key; the oracle for
  cobordism.summarize, which folds leaf summaries instead.
- closure_by_gluing, compose_by_gluing: the trace closure and the
  composite of two diagram summaries by a fresh union-find and arc walk on
  every call, from all six fields; the oracles for cobordism's
  summary_closure and compose_summaries, which sum labels along a plan
  built once per pair of shapes.
- classify_closed_connected: the type of a closed connected term from its
  values under two reference structures whose invariants are 3^w and
  2^(2-2g).
- curated_exponents, _curated_types: the entries of the curated spanning
  sets of S and I as exponent tuples, and the closure types of a pair of
  them as sums of exponents; the oracle for the curated Gram, which
  gram._gram_rows closes along the plans of the entries' summaries.
- gram_rows_by_rows: the coded Gram a row at a time, one closure_row per
  entry over the entries from the diagonal on, one code per closure-types
  tuple; the oracle for gram._gram_rows, which fills a block per pair of
  shape groups from per-root tables of label sums and codes each value.
- pair_by_pairs: the pairing of two linear combinations as a double loop
  over their terms, one summary_closure per pair of terms summarized from
  their trees; the oracle for gram.pair, is_negligible and the quotient
  algebra, which read rows of gram._pairing_row.
- reference_select: the symmetric pivot's acceptance order as a plain
  list loop, without the heap and breeding of gram._SymPivot.select.
- enumerate_with_twins: the greedy probe enumeration that queues every new
  summary class, twins of a key included (same shape and boundary labels,
  so a probe row proportional to the key's), and leaves each to the pivot
  to reject; the oracle for gram.enumerate_end_terms, which drops a twin
  before it is given a text, a heap slot or a pairing.
- certified_keys_after_select, with scaled_gram and
  schur_vanishes_by_entries: the Gram rank as the whole modular selection,
  a final pair scan included, then the exact certificate with one dot
  product per entry, after a rescale of every entry; the oracle for
  gram._certified_keys, which certifies at each stall and stops once the
  certificate holds, on a Gram scaled once per distinct value.
- ListPivot: the symmetric pivot with its forward substitution over Z/p
  as one reduced dot product per key over lists of coordinates; the oracle
  for the packed big-int columns of gram._SymPivot.
- classify_rational_full: classification of a rational generating function
  on the table sized from its unsimplified degrees alone, without the
  small certified first try of character.classify_rational.
- frobenius_json_by_index: the JSON of a Frobenius algebra read one tensor
  index at a time; the oracle for FrobeniusAlgebra.to_json, which renders
  each flat entry list once and slices it.
- invariant_rows: the invariant table of a KFA as one matrix-vector product
  per cell, over Fraction matrices, without the integer row and column
  vectors of kfa.invariant_table.
- recurrence_by_orders: the shared minimal recurrence of some sequences as
  one Fraction solve per order 1, 2, ..., max_order; the oracle for
  numkit.recurrence_from_sequences, which eliminates one integer window
  matrix fraction-free and certifies the first dependent column.
- eval_character_by_fractions: a character's value at one cell as a sum of
  Fraction terms; the oracle for character.eval_character, which sums
  integer numerators over one denominator.
- check_frobenius_by_fractions, check_kfa_by_fractions,
  unital_violation_by_fractions, associative_violation_by_fractions and
  central_transition_by_fractions: the axiom checks with every identity
  summed as Fraction contributions; the oracles for frobenius and kfa,
  which sum integer numerators with both sides over one denominator.
- rational_series_by_fractions: the power series of num/den, one Fraction
  sum per coefficient divided by den(0, 0); the oracle for
  character.rational_character, which fills integer numerators over powers
  of the scaled den(0, 0).
- is_squarefree_by_fractions, rational_roots_by_fractions: gcd(p, p') and
  the rational roots by Fraction division and evaluation, with poly_gcd,
  poly_divmod and derivative; the oracles for numkit's primitive integer
  remainder sequence, homogeneous Horner test and exact integer deflation.
- rank_by_fractions, solve_by_fractions, nullspace_by_fractions and
  inverse_by_fractions: Fraction Gauss-Jordan on {col: value} rows, each
  new row reduced by the pivot rows and normalized to 1 at its pivot; the
  oracles for numkit.eliminate, the fraction-free core behind Matrix.rank,
  solve, nullspace and inverse.  The other oracles above that rank, solve
  or invert use these, so they do not rest on the core they check.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import getitem, mul

from octqft.character import (
    CharacterForm, SequenceTable, classify_table, eval_character, rational_character,
)
from octqft.cobordism import (
    GEN_ARCS,
    GEN_EULER,
    GEN_SIGNATURES,
    WIRE_EULER,
    CobTerm,
    Compose,
    Gen,
    Id,
    LinComb,
    Tensor,
    TermTypeError,
    DiagramSummary,
    _SUMMARIES,
    _closed_type,
    closure_row,
    compose_summaries,
    _fold,
    evaluate,
    intern_summary,
    pretty,
    summarize,
    summary_closure,
    summary_id,
)
from octqft.frobenius import STRUCTURAL_FLAGS, ConsistencyError
from octqft.gram import (
    MOD_P1, TermSpace, _SymPivot, _atom_terms, _gen_count, _probe_product, _probe_val,
)
from octqft.kfa import KFA_FLAGS, make_semisimple_kfa, structural_endos
from octqft.numkit import ONE, ZERO, Matrix, Poly, rat, rat_to_str


# ---------------------------------------------------------------------------
# signatures


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


def fold_signature(t: CobTerm):
    """(domain, codomain) of t as words over I/S, folded from the signatures
    of its leaves; raises TermTypeError on an ill-typed composite."""
    return _fold(t, _leaf_signature, _join_signature)


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
    dom, cod = fold_signature(t)
    if dom or cod:
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
# summaries of open terms, read off the wire graph


def network_summary(term):
    """Canonical key of the topological summary of a well-typed term: (dom,
    cod, component of each boundary position numbered by first appearance,
    (euler, windows) per component in that order, the arc matching as
    (position, side, partner position, partner side) in position order, the
    sorted closed types).  Positions are ("d", i) and ("c", i); sides are
    "T" and "B"."""
    dom_w, cod_w = fold_signature(term)
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
            closed.append(_closed_type(e, w))
    for letter in net.loops:
        closed.append((1, 0) if letter == "S" else (0, 2))

    positions = [("d", i) for i in range(len(dom_w))] + [("c", i) for i in range(len(cod_w))]
    order = {}
    for pos in positions:
        order.setdefault(comp[pos], len(order))
    mk = tuple((pos, side) + match[pos, side]
               for pos in positions for side in ("T", "B") if (pos, side) in match)
    return (dom_w, cod_w, tuple(order[comp[pos]] for pos in positions),
            tuple(comps[c] for c in order), mk, tuple(sorted(closed)))


def summary_key(s):
    """The network_summary key of a cobordism.DiagramSummary."""
    positions = [("d", i) for i in range(len(s.dom))] + [("c", i) for i in range(len(s.cod))]
    mk = tuple((positions[e // 2], "TB"[e % 2], positions[f // 2], "TB"[f % 2])
               for e, f in enumerate(s.match) if f >= 0)
    return (s.dom, s.cod, s.comp, s.comps, mk, s.closed)


# ---------------------------------------------------------------------------
# summaries glued call by call


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _glue(a, b, pairs):
    """Union-find over the components of summaries a (numbered first) and
    b, glued at the (position of a, position of b, letter) pairs, with the
    Euler characteristic and window count per component; a glued interval
    wire takes one from the Euler characteristic."""
    ka = len(a.comps)
    comps = a.comps + b.comps
    parent = list(range(len(comps)))
    euler = [e for e, _ in comps]
    windows = [w for _, w in comps]
    for p, q, letter in pairs:
        x = a.comp[p]
        parent[_find(parent, x)] = _find(parent, ka + b.comp[q])
        if letter == "I":
            euler[x] -= 1
    return parent, euler, windows


def _totals(parent, euler, windows):
    """root -> (euler, windows) summed over its glued components."""
    out = {}
    for x in range(len(parent)):
        r = _find(parent, x)
        e, w = out.get(r, (0, 0))
        out[r] = (e + euler[x], w + windows[x])
    return out


def compose_by_gluing(a, b):
    """Summary of the composite (a then b)."""
    if a.cod != b.dom:
        raise TermTypeError(f"cannot compose {a.cod!r} with {b.dom!r}")
    na, m = len(a.dom), len(a.cod)
    parent, euler, windows = _glue(a, b, [(na + i, i, c) for i, c in enumerate(a.cod)])
    off, bm = 2 * na, 2 * m
    seen = bytearray(bm)
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
    for start in range(bm):
        if seen[start] or a.match[off + start] < 0:
            continue
        windows[a.comp[na + start // 2]] += 1
        e = start
        while not seen[e]:
            f = a.match[off + e] - off
            seen[e] = seen[f] = 1
            e = b.match[f]

    ka = len(a.comps)
    raw = [_find(parent, c) for c in a.comp[:na]] + [_find(parent, ka + c) for c in b.comp[m:]]
    data = _totals(parent, euler, windows)
    closed = list(a.closed + b.closed)
    for r, (e, w) in data.items():
        if r not in raw:
            closed.append(_closed_type(e, w))
    order = {}
    comp = tuple([order.setdefault(r, len(order)) for r in raw])
    return DiagramSummary(a.dom, b.cod, comp, tuple(data[r] for r in order),
                          tuple(match), tuple(sorted(closed)))


def closure_by_gluing(a, b):
    """Sorted (genus, windows) types of the trace closure of (a then b)."""
    if a.cod != b.dom or b.cod != a.dom:
        raise ConsistencyError(
            f"cannot close {a.dom!r} -> {a.cod!r} against {b.dom!r} -> {b.cod!r}")
    n, m = len(a.dom), len(a.cod)
    parent, euler, windows = _glue(a, b, [(n + i, i, c) for i, c in enumerate(a.cod)]
                                   + [(j, m + j, c) for j, c in enumerate(a.dom)])
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
    closed = list(a.closed + b.closed)
    for e, w in _totals(parent, euler, windows).values():
        closed.append(_closed_type(e, w))
    return tuple(sorted(closed))


# ---------------------------------------------------------------------------
# classification by evaluation in reference structures

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

    Evaluates under two reference structures whose invariants are 3^w and
    2^(2-2g), then extracts the exponents; the combinatorial Euler
    characteristic must agree with 2 - 2g - w.
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


# ---------------------------------------------------------------------------
# the curated spanning sets as exponent tuples


def curated_exponents(obj, gb, wb):
    """Per entry of gram.spanning_end(obj, ·) with bounds gb and wb, in its
    order: ("id",), ("sig", g, w) or ("cap", x, y, z, t), the exponents of
    its constructor."""
    grid = [(g, w) for g in range(gb + 1) for w in range(wb + 1)]
    head = [("id",)] if obj == "I" else []
    return (head + [("sig", g, w) for g, w in grid]
            + [("cap", x, y, z, t) for x, y in grid for z, t in grid])


def _curated_types(obj, a, b):
    """Closure types of the pairing of two curated entries of S or I, given
    by their exponent tuples a and b: the multiset closure_types returns for
    their summaries, as sums of exponents.  In End(I) the zipper sandwiches
    add two windows to the one component of a σ·σ or σ·cap pairing and one
    to each of the two components of a cap·cap pairing."""
    if a[0] > b[0]:             # kinds in the order "cap" < "id" < "sig"
        a, b = b, a
    s = 1 if obj == "I" else 0
    kinds = (a[0], b[0])
    if kinds == ("sig", "sig"):
        return ((a[1] + b[1] + 1, a[2] + b[2] + 2 * s),)
    if kinds == ("id", "id"):
        return ((0, 2),)
    if kinds == ("id", "sig"):
        return ((b[1] + 1, b[2] + 1),)
    x, y, z, t = a[1:]
    if kinds == ("cap", "sig"):
        return ((x + z + b[1], y + t + b[2] + 2 * s),)
    if kinds == ("cap", "id"):
        return ((x + z, y + t + 1),)
    p, q, r, u = b[1:]
    return tuple(sorted(((x + r, y + u + s), (z + p, t + q + s))))


def gram_rows_by_rows(ts, chi):
    """The coded Gram of the term space ts under chi a row at a time: the
    upper part of row i is one closure_row of its summary over the
    summaries from i on, one code per distinct closure-types tuple, mirrored
    below the diagonal, and the value of a code is the product of chi over
    its types; the oracle for gram._gram_rows, which fills a block per pair
    of shape groups and codes each distinct value."""
    summaries = [_SUMMARIES[e.sids[0]] for e in ts.spanning]
    codes = {}
    upper = [[codes.setdefault(types, len(codes)) for types in closure_row(s, summaries[i:])]
             for i, s in enumerate(summaries)]
    # row i left of the diagonal is column i of the rows above: upper[k][i - k]
    rows = [list(map(getitem, upper, range(i, 0, -1))) + up for i, up in enumerate(upper)]
    values = []
    for types in codes:
        value = ONE
        for genus, windows in types:
            value *= chi.value(genus, windows)
        values.append(value)
    return rows, values


# ---------------------------------------------------------------------------
# the pairing


def pair_by_pairs(f, g, chi):
    """Character value of the trace closure of f ∘ g, extended bilinearly:
    for every term of f and every term of g, the product of chi over the
    closure types of their two summaries."""
    total = 0
    for cf, tf in f.terms:
        for cg, tg in g.terms:
            value = ONE
            for genus, windows in summary_closure(summarize(tg), summarize(tf)):
                value *= chi.value(genus, windows)
            total += cf * cg * value
    return total


# ---------------------------------------------------------------------------
# the pivot acceptance order


def reference_select(piv, cands):
    """Run piv's acceptance order over cands in the given order: singles,
    pass after pass, until they stall, then the first pair; repeat until
    no pair extends the block."""
    remaining = list(cands)
    while True:
        progressed = True
        while progressed:
            progressed = False
            rem = []
            for h in remaining:
                if piv.accept_single(h):
                    progressed = True
                else:
                    rem.append(h)
            remaining = rem
        found = piv.first_pair(remaining)
        if found is None:
            return
        remaining = [h for pos, h in enumerate(remaining) if pos not in found]


class ListPivot(_SymPivot):
    """_SymPivot with every key's coordinates kept as a list over Z/p as
    over Q: w is extended by one dot product per key, reduced mod p."""

    def __init__(self, pairfn, p=0):
        super().__init__(pairfn, p)
        self._dinv = {}     # first key index of a block -> inverse block Gram
        self._kz = []       # per key: its coordinates along the earlier blocks

    def _coords(self, h):
        rec = self._h.get(h)
        if rec is None:
            rec = self._h[h] = [[], [], self._red(self.pairfn(h, h))]
        w, z, r = rec
        keys = self.keys
        while len(w) < len(keys):
            start = len(w)
            dinv = self._dinv[start]
            for i in range(start, start + len(dinv)):
                w.append(self._red(self.pairfn(keys[i], h) - sum(map(mul, self._kz[i], w))))
            wb = w[start:]
            for row in dinv:
                z.append(self._red(sum(map(mul, row, wb))))
            r = self._red(r - sum(map(mul, z[start:], wb)))
        rec[2] = r
        return rec

    def _push(self, handles, dinv):
        self._dinv[len(self.keys)] = dinv
        for h in handles:
            self._kz.append(self._h.pop(h)[1])
            self.keys.append(h)


def scaled_gram(rows):
    """The symmetric rational Gram rows scaled to integers by the lcm of
    every entry's denominator, entry by entry."""
    scale = lcm(*{v.denominator for row in rows for v in row})
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


def schur_vanishes_by_entries(a, keys) -> bool:
    """The exact certificate as one dot product per entry: with D the common
    denominator of B^-1, B = a[keys, keys], D a[i][j] = c_i . a[j, keys]
    for every i <= j, where c_i = D a[i, keys] B^-1."""
    if keys:
        binv = inverse_by_fractions(Matrix.from_rows([[a[i][j] for j in keys] for i in keys]))
        if binv is None:
            return False
        d = lcm(*(v.denominator for v in binv.entries))
        dinv = [[int(v * d) for v in row] for row in binv.to_rows()]
    else:
        d, dinv = 1, []
    side = [[row[k] for k in keys] for row in a]
    coef = [[sum(map(mul, s, col)) for col in dinv] for s in side]
    for i, (row, c) in enumerate(zip(a, coef)):
        for j in range(i, len(a)):
            if d * row[j] != sum(map(mul, c, side[j])):
                return False
    return True


def certified_keys_after_select(rows) -> list:
    """Keys of a maximal invertible block of the symmetric rational Gram
    rows: the whole modular selection first, with a pair sought at every
    stall until none extends the block, and the certificate after it; the
    keys are picked again over Q when it fails."""
    a = scaled_gram(rows)
    piv = _SymPivot(lambda i, j: a[i][j], MOD_P1)
    piv.select(range(len(a)))
    if not schur_vanishes_by_entries(a, piv.keys):
        piv = _SymPivot(lambda i, j: a[i][j])
        piv.select(range(len(a)))
    return piv.keys


# ---------------------------------------------------------------------------
# the probe enumeration, twins queued


def enumerate_with_twins(obj: str, size_budget: int) -> TermSpace:
    """enumerate_end_terms with every new summary class queued as a
    candidate: each gets its text, a heap slot and its probe pairings, and
    the pivot rejects the twins of a key by their zero residual."""
    terms = {}              # sid -> the first term found in its class
    accepted = []           # (gens, sid) in acceptance order

    def offer(out, term, gens, sid):
        if sid not in terms:
            terms[sid] = term
            out.append((gens, pretty(term), sid, _probe_product(_SUMMARIES[sid].closed)))

    def breed(h):
        gens, _, sid, _ = h
        accepted.append((gens, sid))
        term, s = terms[sid], _SUMMARIES[sid]
        out = []
        for ogens, osid in accepted:
            total = ogens + gens
            if total <= size_budget:
                other, o = terms[osid], _SUMMARIES[osid]
                offer(out, Compose(other, term), total, intern_summary(compose_summaries(o, s)))
                offer(out, Compose(term, other), total, intern_summary(compose_summaries(s, o)))
        return out

    atoms = []
    for a in _atom_terms(obj):
        gens = _gen_count(a)
        if gens <= size_budget:
            offer(atoms, a, gens, summary_id(a))
    piv = _SymPivot(_probe_val, MOD_P1)
    piv.select(atoms, breed)
    return TermSpace(obj, [LinComb([(ONE, terms[sid])], [sid]) for _, _, sid, _ in piv.keys])


# ---------------------------------------------------------------------------
# classification of rational generating functions


def classify_rational_full(num: dict, den: dict):
    """Classify num/den on one table, sized from the degrees of num and den
    as given: rank bound dx*dy + dx + dy + deg(num)."""
    chi = rational_character(num, den)
    den_keys = [k for k, v in den.items() if v]
    dx = max((i for i, _ in den_keys), default=0)
    dy = max((j for _, j in den_keys), default=0)
    r = dx * dy + dx + dy + max((i + j for (i, j), v in num.items() if v), default=0)
    size = 2 * r + 4
    chi.value(size, size)
    rows = [[chi.value(g, w) for w in range(size + 1)] for g in range(size + 1)]
    return classify_table(SequenceTable.from_rows(rows), r)


# ---------------------------------------------------------------------------
# structure JSON


def frobenius_json_by_index(fa):
    """FrobeniusAlgebra.to_json one entry at a time: a bounds-checked tensor
    read and rat_to_str per entry, product as [c][a][b] and coproduct as
    [a][b][c]."""
    n = fa.dim
    return {
        "dim": n,
        "product": [
            [[rat_to_str(fa.product[(c, a, b)]) for b in range(n)] for a in range(n)]
            for c in range(n)
        ],
        "unit": [rat_to_str(fa.unit[(a,)]) for a in range(n)],
        "coproduct": [
            [[rat_to_str(fa.coproduct[(a, b, c)]) for c in range(n)] for b in range(n)]
            for a in range(n)
        ],
        "counit": [rat_to_str(fa.counit[(a,)]) for a in range(n)],
    }


# ---------------------------------------------------------------------------
# invariant tables


def invariant_rows(k, g_max: int, w_max: int):
    """rows[g][w] = eps * window^w * handle^g * unit, one matrix-vector
    product per cell."""
    endos = structural_endos(k)
    eps = k.closed.counit_matrix()
    rows = []
    gvec = k.closed.unit_matrix()
    for g in range(g_max + 1):
        if g:
            gvec = endos.handle * gvec
        vec = gvec
        row = []
        for w in range(w_max + 1):
            if w:
                vec = endos.window * vec
            row.append((eps * vec)[0, 0])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# recurrences and cell values


def recurrence_by_orders(seqs, max_order: int):
    """Minimal monic recurrence shared by seqs: for d = 1..max_order, the
    particular solution (free coordinates zero) of the system of every
    window of length d + 1 of every sequence, or None."""
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
    for d in range(1, max_order + 1):
        rows = []
        rhs = []
        for s in seqs:
            for k in range(len(s) - d):
                rows.append(s[k:k + d])
                rhs.append(-s[k + d])
        sol = solve_by_fractions(Matrix.from_rows(rows), rhs)
        if sol is not None:
            return Poly(list(sol) + [ONE])
    return None


def eval_character_by_fractions(form: CharacterForm, g: int, w: int):
    """poly_value(g, w) + sum of c * lam^g * mu^w in Fraction arithmetic,
    with 0^0 = 1."""
    if g < 0 or w < 0:
        raise ValueError("genus and window count must be nonnegative")
    total = form.poly_value(g, w)
    for lam, mu, c in form.exp_terms:
        total += c * (ONE if g == 0 else lam ** g) * (ONE if w == 0 else mu ** w)
    return total


# ---------------------------------------------------------------------------
# axiom checks, series and roots in Fraction arithmetic


def _first_difference_by_fractions(lhs, rhs):
    diff = {}
    for k, v in lhs:
        diff[k] = diff.get(k, ZERO) + v
    for k, v in rhs:
        diff[k] = diff.get(k, ZERO) - v
    return min((k for k, v in diff.items() if v), default=None)


def _violation_by_fractions(lhs, rhs, message):
    key = _first_difference_by_fractions(lhs, rhs)
    return None if key is None else message(*key)


def _pairing_by_fractions(fa):
    """counit(e_a e_b) as an n x n Matrix."""
    n = fa.dim
    out = [ZERO] * (n * n)
    for (c, a, b), v in fa.product.iter_nonzeros():
        out[a * n + b] += fa.counit[(c,)] * v
    return Matrix(n, n, out)


def unital_violation_by_fractions(n, product, unit):
    u = dict(unit.nonzeros())
    prod = list(product.iter_nonzeros())
    return _violation_by_fractions(
        [((b, 0, c), u[a] * v) for (c, a, b), v in prod if a in u]
        + [((a, 1, c), u[b] * v) for (c, a, b), v in prod if b in u],
        [((a, side, a), ONE) for a in range(n) for side in (0, 1)],
        lambda a, side, c: f"unit * e_{a} != e_{a}" if side == 0 else f"e_{a} * unit != e_{a}",
    )


def associative_violation_by_fractions(product):
    prod = list(product.iter_nonzeros())
    by_in1 = {}
    by_out = {}
    for (d, x, y), v in prod:
        by_in1.setdefault(x, []).append((d, y, v))
        by_out.setdefault(d, []).append((x, y, v))
    return _violation_by_fractions(
        (((a, b, c, e), v1 * v2) for a, terms in by_in1.items() for d, b, v1 in terms
         for e, c, v2 in by_in1.get(d, ())),
        (((a, b, c, e), v1 * v2) for a, terms in by_in1.items() for e, d, v2 in terms
         for b, c, v1 in by_out.get(d, ())),
        lambda a, b, c, e: f"(e_{a} e_{b}) e_{c} and e_{a} (e_{b} e_{c}) differ in the e_{e} component",
    )


def check_frobenius_by_fractions(fa):
    """(flags, first_violation, details) of check_frobenius, every identity
    summed in Fraction arithmetic."""
    n = fa.dim
    prod = list(fa.product.iter_nonzeros())
    cop = list(fa.coproduct.iter_nonzeros())
    cmap = {}
    for (a, b, c), v in cop:
        cmap.setdefault(c, []).append((a, b, v))
    by_in1, by_in2 = {}, {}
    for (d, x, y), v in prod:
        by_in1.setdefault(x, []).append((d, y, v))
        by_in2.setdefault(y, []).append((d, x, v))
    e = dict(fa.counit.nonzeros())
    beta = _pairing_by_fractions(fa)

    counital = _violation_by_fractions(
        [((c, 0, b), e[a] * v) for (a, b, c), v in cop if a in e]
        + [((c, 1, a), e[b] * v) for (a, b, c), v in cop if b in e],
        [((a, side, a), ONE) for a in range(n) for side in (0, 1)],
        lambda c, side, x: (f"(counit x id) o coproduct != id at basis {c}" if side == 0
                            else f"(id x counit) o coproduct != id at basis {c}"),
    )
    coassociative = _violation_by_fractions(
        (((p, q, y, c), v1 * v2) for c, terms in cmap.items() for x, y, v1 in terms
         for p, q, v2 in cmap.get(x, ())),
        (((x, p, q, c), v1 * v2) for c, terms in cmap.items() for x, y, v1 in terms
         for p, q, v2 in cmap.get(y, ())),
        lambda p, q, r, c: f"coassociativity fails on basis {c} at component ({p},{q},{r})",
    )
    m1 = [((a, b, x, y), v1 * v2) for (d, a, b), v1 in prod for x, y, v2 in cmap.get(d, ())]
    m2 = [((a, b, d, y), v2 * v3) for b, terms in cmap.items() for x, y, v2 in terms
          for d, a, v3 in by_in2.get(x, ())]
    m3 = [((a, b, x, d), v2 * v3) for a, terms in cmap.items() for x, y, v2 in terms
          for d, b, v3 in by_in1.get(y, ())]
    frobenius = _violation_by_fractions(m1, m2, lambda a, b, x, y: (
        f"coproduct o product and (product x id)(id x coproduct) differ at input ({a},{b}) component ({x},{y})"
    )) or _violation_by_fractions(m1, m3, lambda a, b, x, y: (
        f"coproduct o product and (id x product)(coproduct x id) differ at input ({a},{b}) component ({x},{y})"
    ))
    r = rank_by_fractions(beta)
    commutative = next((f"e_{a} e_{b} and e_{b} e_{a} differ in the e_{c} component"
                        for (c, a, b), v in prod if a != b and fa.product[(c, b, a)] != v), None)
    symmetric = next((f"pairing(e_{b}, e_{a}) != pairing(e_{a}, e_{b})"
                      for a in range(n) for b in range(a) if beta[a, b] != beta[b, a]), None)
    checks = {
        "unital": unital_violation_by_fractions(n, fa.product, fa.unit),
        "counital": counital,
        "associative": associative_violation_by_fractions(fa.product),
        "coassociative": coassociative,
        "frobenius": frobenius,
        "pairing_nondegenerate": None if r == n else f"pairing has rank {r} of {n}",
        "commutative": commutative,
        "symmetric": symmetric,
    }
    return _report_by_fractions(checks, STRUCTURAL_FLAGS)


def _report_by_fractions(checks, ordered):
    flags = {name: v is None for name, v in checks.items()}
    details = {name: v for name, v in checks.items() if v is not None}
    first = next((f"{name}: {details[name]}" for name in ordered if name in details), None)
    return flags, first, details


def check_kfa_by_fractions(k):
    """(flags, first_violation, details) of check_kfa, every identity as a
    sum of Fraction contributions and every map as a Fraction Matrix."""
    def entries(m):
        return (((i, j), v) for i, row in enumerate(m.nonzero_rows()) for j, v in row)

    checks = {}
    for sector in ("open", "closed"):
        checks[f"{sector}_frobenius"] = check_frobenius_by_fractions(getattr(k, sector))[1]
    cprod = list(k.closed.product.iter_nonzeros())
    checks["closed_commutative"] = next(
        (f"e_{a} e_{b} and e_{b} e_{a} differ in the e_{c} component"
         for (c, a, b), v in cprod if a != b and k.closed.product[(c, b, a)] != v), None)
    checks["closed_cocommutative"] = next(
        (f"coproduct of basis {c} is not swap-invariant at component ({a},{b})"
         for (a, b, c), v in k.closed.coproduct.iter_nonzeros()
         if a != b and k.closed.coproduct[(b, a, c)] != v), None)
    beta = _pairing_by_fractions(k.open)
    n = beta.rows
    checks["open_symmetric"] = next(
        (f"pairing(e_{b}, e_{a}) != pairing(e_{a}, e_{b})"
         for a in range(n) for b in range(a) if beta[a, b] != beta[b, a]), None)
    cop_m = Matrix(n * n, n, list(k.open.coproduct.entries))
    gamma = cop_m * Matrix(n, 1, list(k.open.unit.entries))
    checks["open_cosymmetric"] = next(
        (f"copairing component ({b},{a}) != ({a},{b})"
         for a in range(n) for b in range(a) if gamma[a * n + b, 0] != gamma[b * n + a, 0]), None)
    unit_ok = k.zipper * Matrix(k.closed.dim, 1, list(k.closed.unit.entries)) \
        == Matrix(n, 1, list(k.open.unit.entries))
    checks["zipper_unital"] = None if unit_ok else "zipper(closed unit) != open unit"
    zrows = k.zipper.nonzero_rows()
    zcols = k.zipper.transpose().nonzero_rows()
    oprod = list(k.open.product.iter_nonzeros())
    checks["zipper_homomorphism"] = _violation_by_fractions(
        (((s, t, i), v * z) for (c, s, t), v in cprod for i, z in zcols[c]),
        (((s, t, i), zs * zt * v) for (i, a, b), v in oprod for s, zs in zrows[a]
         for t, zt in zrows[b]),
        lambda s, t, i: f"zipper(e_{s} e_{t}) != zipper(e_{s}) zipper(e_{t})",
    )
    checks["zipper_central"] = _violation_by_fractions(
        (((s, b, c), z * v) for (c, a, b), v in oprod for s, z in zrows[a]),
        (((s, b, c), z * v) for (c, b, a), v in oprod for s, z in zrows[a]),
        lambda s, b, c: f"zipper(e_{s}) does not commute with open basis {b}",
    )
    checks["duality"] = _violation_by_fractions(
        entries(_pairing_by_fractions(k.closed) * k.cozipper),
        entries(k.zipper.transpose() * beta),
        lambda i, j: f"pairing duality fails at closed {i}, open {j}",
    )
    omult = {}
    for (c, a, b), v in oprod:
        omult.setdefault((a, b), []).append((c, v))
    checks["cardy"] = _violation_by_fractions(
        (((d, c), v * v2) for (a, b, c), v in k.open.coproduct.iter_nonzeros()
         for d, v2 in omult.get((b, a), ())),
        entries(k.zipper * k.cozipper),
        lambda d, c: f"Cardy relation fails at open entry ({d},{c})",
    )
    return _report_by_fractions(checks, KFA_FLAGS)


def central_transition_by_fractions(f_from, f_to):
    """central_transition's two identity checks on its solved element, in
    Fraction arithmetic: the name of the first that fails, or None."""
    n = f_from.dim
    beta = _pairing_by_fractions(f_to)
    sol = solve_by_fractions(beta.transpose(), [f_from.counit[(x,)] for x in range(n)])
    if sol is None:
        return "degenerate"
    a = {i: sol[i] for i in range(n) if sol[i]}
    prod = list(f_to.product.iter_nonzeros())
    if _first_difference_by_fractions(
        ((x, a[c] * v * f_to.counit[(d,)]) for (d, c, x), v in prod if c in a),
        ((x, f_from.counit[(x,)]) for x in range(n)),
    ) is not None:
        return "counit"
    if _first_difference_by_fractions(
        (((b, d), a[c] * v) for (d, c, b), v in prod if c in a),
        (((b, d), a[c] * v) for (d, b, c), v in prod if c in a),
    ) is not None:
        return "central"
    return None


def rational_series_by_fractions(num: dict, den: dict, g_max: int, w_max: int):
    """Coefficients [g][w] of num/den for g <= g_max, w <= w_max, each one
    Fraction sum divided by den(0, 0)."""
    num = {k: rat(v) for k, v in num.items() if v}
    den = {k: rat(v) for k, v in den.items() if v}
    d00 = den[(0, 0)]
    rows = [[ZERO] * (w_max + 1) for _ in range(g_max + 1)]
    for i in range(g_max + 1):
        for j in range(w_max + 1):
            s = num.get((i, j), ZERO)
            for (a, b), v in den.items():
                if (a, b) != (0, 0) and a <= i and b <= j:
                    s -= v * rows[i - a][j - b]
            rows[i][j] = s / d00
    return rows


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b by Fraction division (a itself when both
    are zero)."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a if a.is_zero() else a.scale(1 / a.coeffs[-1])


def is_squarefree_by_fractions(p: Poly) -> bool:
    """gcd(p, p') over Q by Fraction division."""
    return p.degree <= 0 or poly_gcd(p, derivative(p)).degree == 0


def rational_roots_by_fractions(p: Poly):
    """rational_roots by Fraction evaluation and division: every candidate
    s * u / v with u | a_0, v | a_d of the integerized polynomial."""
    roots = []
    cs = list(p.coeffs)
    k = 0
    while not cs[0]:
        cs.pop(0)
        k += 1
    if k:
        roots.append((ZERO, k))
    q = Poly(cs)
    if q.degree >= 1:
        den = lcm(*[c.denominator for c in q.coeffs])
        ints = [int(c * den) for c in q.coeffs]
        g = gcd(*ints)
        a0, ad = abs(ints[0]) // g, abs(ints[-1]) // g

        def divisors(m):
            small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
            return sorted(set(small + [m // d for d in small]))

        for u in divisors(a0):
            for v in divisors(ad):
                for s in (1, -1):
                    cand = Fraction(s * u, v)
                    mult = 0
                    while q.degree >= 1 and not q(cand):
                        q = poly_divmod(q, Poly([-cand, 1]))[0]
                        mult += 1
                    if mult:
                        roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, q.degree <= 0


def poly_divmod(a: Poly, b: Poly):
    """(quotient, remainder) of a by b by Fraction long division."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    d = b.degree
    lead = b.coeffs[-1]
    q = [ZERO] * max(0, len(rem) - d)
    while len(rem) - 1 >= d and rem:
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < d:
            break
        f = rem[-1] / lead
        k = len(rem) - 1 - d
        q[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
        rem.pop()
    return Poly(q), Poly(rem)


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan


def _echelon(drows):
    """Reduce {col: value} rows to echelon form.  Returns (pivot_rows,
    pivot_cols) where pivot_rows[k] is normalized to have 1 at
    pivot_cols[k]."""
    prows = {}         # pivot col -> row dict
    for d in drows:
        d = dict(d)
        while d:
            c = min(d)
            if c in prows:
                f = d.pop(c)
                for cc, v in prows[c].items():
                    if cc == c:
                        continue
                    w = d.get(cc, ZERO) - f * v
                    if w:
                        d[cc] = w
                    elif cc in d:
                        del d[cc]
            else:
                f = d[c]
                if f != 1:
                    d = {cc: v / f for cc, v in d.items()}
                prows[c] = d
                break
    pivots = sorted(prows)
    return [prows[c] for c in pivots], pivots


def _rref(drows):
    """(rows, pivots) of the reduced row echelon form of {col: value} rows."""
    ech, piv = _echelon(drows)
    rref = [dict(r) for r in ech]
    for k in range(len(piv) - 1, -1, -1):
        c = piv[k]
        for j in range(k):
            f = rref[j].get(c, ZERO)
            if f:
                for cc, v in rref[k].items():
                    w = rref[j].get(cc, ZERO) - f * v
                    if w:
                        rref[j][cc] = w
                    elif cc in rref[j]:
                        del rref[j][cc]
    return rref, piv


def _dict_rows(m: Matrix, extra=None):
    """The rows of m as {col: value} dicts, with extra[i] (a {col: value}
    dict of columns past m.cols) joined to row i."""
    out = []
    for i, row in enumerate(m.to_rows()):
        d = {j: v for j, v in enumerate(row) if v}
        if extra is not None:
            d.update((j, rat(v)) for j, v in extra[i].items() if v)
        out.append(d)
    return out


def rank_by_fractions(m: Matrix) -> int:
    """The rank of m by Fraction Gauss-Jordan; the oracle for Matrix.rank."""
    return len(_echelon(_dict_rows(m))[1])


def solve_by_fractions(m: Matrix, rhs):
    """The solution of m x = rhs with free coordinates zero, or None, by
    Fraction Gauss-Jordan on m with rhs joined as column m.cols."""
    n = m.cols
    rref, piv = _rref(_dict_rows(m, [{n: b} for b in rhs]))
    if piv and piv[-1] == n:
        return None
    x = [ZERO] * n
    for row, c in zip(rref, piv):
        x[c] = row.get(n, ZERO)
    return x


def nullspace_by_fractions(m: Matrix):
    """The nullspace basis of m with 1 at one free column and 0 at the
    others, read off the Fraction reduced row echelon form."""
    n = m.cols
    rref, piv = _rref(_dict_rows(m))
    basis = []
    for free in range(n):
        if free in piv:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for row, c in zip(rref, piv):
            v[c] = -row.get(free, ZERO)
        basis.append(v)
    return basis


def inverse_by_fractions(m: Matrix):
    """The inverse of the square m, or None, by Fraction Gauss-Jordan on
    m joined with the identity."""
    n = m.rows
    rref, piv = _rref(_dict_rows(m, [{n + i: ONE} for i in range(n)]))
    if [c for c in piv if c < n] != list(range(n)):
        return None
    out = [ZERO] * (n * n)
    for row, c in zip(rref, piv):
        for cc, v in row.items():
            if cc >= n:
                out[c * n + cc - n] = v
    return Matrix(n, n, out)
