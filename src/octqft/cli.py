"""Command line front end.

Every subcommand reads JSON (from a file, inline, or stdin via "-"), runs
one pipeline operation, and prints a JSON report with sorted keys, so the
output is byte-identical across runs.  Exit codes: 0 on success, 1 when a
verification fails (the report still prints), 2 on usage or input errors.

The argument parser is built once per process, on the first call of main,
and reused by every later call: parsing mutates no parser state, and an
in-process caller such as a test suite or a benchmark would otherwise pay
for building it on every call.  A shell invocation builds it once anyway.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .numkit import Matrix, rat, rat_to_str
from .frobenius import ConsistencyError
from .kfa import (
    KFA,
    IrrationalSpectrumError,
    check_kfa,
    character_of,
    invariant_table,
    scale_kfa,
)
from .character import (
    CharacterForm,
    ExprError,
    Good,
    SequenceTable,
    classify_rational,
    classify_table,
    parse_rational_expr,
    rational_character,
)
from .cobordism import TermTypeError, evaluate, parse
from .gram import (
    IncompleteSpanningError,
    _coded_gram_rank,
    nilpotent_trace_obstruction,
    spanning_end,
    verify_splitting,
)

DSL_HELP = """\
Diagram terms are built from the generators
  uI eI mI dI   unit / counit / product / coproduct of the open sector (I)
  uS eS mS dS   the same for the closed sector (S)
  z zs          zipper S -> I and cozipper I -> S
  id:W sw:A,B   identity on the word W, swap of the single letters A and B
combined with ";" (left to right composition) and "*" (side by side),
with parentheses; example: "uS ; z ; eI".

Characters in closed form are JSON objects
  {"poly": {"1": r, "X": r, "Y": r, "Y2": r},
   "exp": [{"lambda": r, "mu": r, "coeff": r}, ...]}
and value tables are {"values": [[r, ...], ...]} with rows indexed by the
genus and columns by the window count.  Rationals r are strings "p/q" or
"p".  Generating functions use the expression grammar with tokens
integer, X, Y, + - * / ( ), e.g. "1/((1-2X)(1-3Y))" written with explicit
products: "1/((1-2*X)*(1-3*Y))".

Structures are {"open": F, "closed": F, "zipper": M, "cozipper": M} where
F = {"dim": n, "product": [[[r]]], "unit": [r], "coproduct": [[[r]]],
"counit": [r]} and M is a matrix as nested row lists.
"""


def _read_source(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    if spec.lstrip().startswith(("{", "[")):
        return spec
    with open(spec) as fh:
        return fh.read()


def _read(reader, spec: str, what: str):
    """reader applied to the JSON at spec.  Valid JSON of the wrong shape,
    which a reader indexes or calls wrongly or which lacks a key the reader
    needs, is an input error."""
    obj = json.loads(_read_source(spec))
    try:
        return reader(obj)
    except KeyError as e:
        raise ValueError(f"{what} JSON has the wrong shape: missing key {e}") from e
    except (TypeError, AttributeError, IndexError) as e:
        raise ValueError(f"{what} JSON has the wrong shape: {e}") from e


def _load_kfa(spec: str) -> KFA:
    return _read(KFA.from_json, spec, "structure")


def _names_json(spec: str) -> bool:
    """Whether _read_source reads spec as JSON: -, inline, or a file."""
    return spec == "-" or spec.lstrip().startswith(("{", "[")) or os.path.exists(spec)


def _load_char_form(spec: str) -> CharacterForm:
    """A closed-form character; a generating function is refused by name."""
    if not _names_json(spec):
        try:
            parse_rational_expr(spec)
        except ExprError:
            pass
        else:
            raise ValueError(f"{spec!r} is a generating function, but this command needs a "
                             "closed-form character JSON; `octqft classify --rational` "
                             "prints the closed form of a good one")
    return _read(CharacterForm.from_json, spec, "character")


def _load_character(spec: str):
    """A character for the pairing: closed-form JSON, or a generating
    function expression which may lie outside the good class."""
    if _names_json(spec):
        return _load_char_form(spec)
    num, den = parse_rational_expr(spec)
    return rational_character(num, den)


def _encode(x, indent="\n"):
    """The text of json.dumps(x, sort_keys=True, indent=2), with indent the
    line break and indentation of the level of x.  A list of strings is one
    join over encode_basestring_ascii; in any other list an element object
    that repeats, such as a shared Gram row, is encoded once.  A value json
    cannot encode raises TypeError, as json does."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        try:
            body = ("," + inner).join(map(encode_basestring_ascii, x))
        except TypeError:   # not all strings
            ids = list(map(id, x))
            if len(set(ids)) == len(x):
                body = ("," + inner).join([_encode(v, inner) for v in x])
            else:           # per element object, its text at this level
                texts = {i: _encode(v, inner) for i, v in dict(zip(ids, x)).items()}
                body = ("," + inner).join(map(texts.__getitem__, ids))
        return "[" + inner + body + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ("," + inner).join([f"{_encode_key(k)}: {_encode(v, inner)}"
                                   for k, v in sorted(x.items())])
        return "{" + inner + body + indent + "}"
    if x is None or isinstance(x, (int, float)):
        return json.dumps(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _encode_key(k):
    """A dict key as json writes it: a string, or the JSON text of a
    number, bool or None as a string."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def _emit(payload, out_path):
    """Print the report, or write it to out_path, as
    json.dumps(payload, sort_keys=True, indent=2) and a newline (_encode)."""
    text = _encode(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_check_kfa(args):
    report = check_kfa(_load_kfa(args.kfa))
    payload = report.to_json()
    payload["valid"] = report.valid
    _emit(payload, args.output)
    return 0 if report.valid else 1


def _cmd_invariants(args):
    table = invariant_table(_load_kfa(args.kfa), args.gmax, args.wmax)
    _emit(table.to_json(), args.output)
    return 0


def _cmd_character(args):
    try:
        form = character_of(_load_kfa(args.kfa))
    except IrrationalSpectrumError as e:
        _emit({"status": "indeterminate", "reason": str(e)}, args.output)
        return 1
    _emit(form.to_json(), args.output)
    return 0


def _cmd_classify(args):
    if args.form:
        form = _load_char_form(args.form)
        result = Good(form)
    elif args.rational:
        num, den = parse_rational_expr(args.rational)
        result = classify_rational(num, den)
    else:
        table = _read(SequenceTable.from_json, args.table, "value table")
        bound = args.rank_bound
        if bound is None:
            bound = min((table.g_max - 4) // 2, (table.w_max - 4) // 2)
            if bound < 0:
                raise ValueError(f"table too small for any rank bound: g_max {table.g_max} and "
                                 f"w_max {table.w_max}, both must be at least 4")
        result = classify_table(table, bound)
    _emit(result.to_json(), args.output)
    return 0 if isinstance(result, Good) else 1


def _cmd_eval(args):
    value = evaluate(parse(args.term), _load_kfa(args.kfa))
    if isinstance(value, Matrix):
        _emit(value.to_json(), args.output)
    else:
        _emit(rat_to_str(value), args.output)
    return 0


def _cmd_gram(args):
    chi = _load_char_form(args.char)
    rows, values, rank = _coded_gram_rank(spanning_end(args.object, chi), chi, not args.no_matrix)
    gram = None
    if not args.no_matrix:
        # each distinct value rendered once, and each distinct row object
        # (the shared row of a feature class) once; an entry is a list
        # lookup.  The codes are freed before the report is encoded, the
        # peak of memory
        text = list(map(rat_to_str, values))
        distinct = {id(row): row for row in rows}
        rendered = {i: list(map(text.__getitem__, row)) for i, row in distinct.items()}
        gram = [rendered[id(row)] for row in rows]
        del rows, distinct, rendered
    payload = {
        "object": args.object,
        "rank": rank,
        "gram": gram,
        "witness": None,
    }
    _emit(payload, args.output)
    return 0


def _cmd_idempotents(args):
    chi = _load_char_form(args.char)
    report = verify_splitting(chi, args.gmax, args.wmax)
    idem = report.idempotents
    payload = {
        "passed": report.passed,
        "residual_ok": report.residual_ok,
        "components": {
            f"{rat_to_str(lam)},{rat_to_str(mu)}": ok
            for (lam, mu), ok in report.components.items()
        },
        "e_lambda_sizes": {
            rat_to_str(lam): len(e.terms) for lam, e in idem.e_lambda.items()
        },
        "g_max": args.gmax,
        "w_max": args.wmax,
    }
    _emit(payload, args.output)
    return 0 if report.passed else 1


def _cmd_witness(args):
    chi = _load_character(args.char)
    witness = nilpotent_trace_obstruction(args.object, chi, args.budget)
    payload = {
        "object": args.object,
        "budget": args.budget,
        "witness": witness.to_json() if witness else None,
    }
    _emit(payload, args.output)
    return 1 if witness else 0


def _cmd_scale(args):
    scaled = scale_kfa(_load_kfa(args.kfa), rat(Fraction(args.s)))
    _emit(scaled.to_json(), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="octqft",
        description="Exact invariants of open-closed field theories.",
        epilog=DSL_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--output", "-o", help="write the report here instead of stdout")
        return p

    p = add("check-kfa", _cmd_check_kfa, "verify every axiom of a structure")
    p.add_argument("--kfa", required=True, help="structure JSON (path, inline, or -)")

    p = add("invariants", _cmd_invariants, "table of closed surface invariants")
    p.add_argument("--kfa", required=True)
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--wmax", type=int, default=5)

    p = add("character", _cmd_character, "closed form of the invariant table")
    p.add_argument("--kfa", required=True)

    p = add("classify", _cmd_classify, "decide whether a generating function is good")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rational", help="generating function expression")
    g.add_argument("--table", help="value table JSON")
    g.add_argument("--form", help="closed-form JSON to validate and echo")
    p.add_argument("--rank-bound", type=int, default=None,
                   help="max geometric terms for --table (default: largest the table supports)")

    p = add("eval", _cmd_eval, "evaluate a diagram term in a structure")
    p.add_argument("--term", required=True, help="diagram term text")
    p.add_argument("--kfa", required=True)

    p = add("gram", _cmd_gram, "pairing matrix and hom-space dimension")
    p.add_argument("--object", required=True, choices=["S", "I"])
    p.add_argument("--char", required=True, help="closed-form character JSON")
    p.add_argument("--no-matrix", action="store_true",
                   help="omit the full pairing matrix from the report")

    p = add("idempotents", _cmd_idempotents, "spectral idempotents and splitting check")
    p.add_argument("--char", required=True, help="closed-form character JSON")
    p.add_argument("--gmax", type=int, default=3)
    p.add_argument("--wmax", type=int, default=3)

    p = add("witness", _cmd_witness, "search for a nilpotent with nonzero trace")
    p.add_argument("--object", required=True,
                   help="object word such as S, I, or III")
    p.add_argument("--char", required=True,
                   help="closed-form JSON or a generating function expression")
    p.add_argument("--budget", type=int, required=True,
                   help="composition length budget of the enumerated spanning set")

    p = add("scale", _cmd_scale, "rescale the counits of a structure")
    p.add_argument("--kfa", required=True)
    p.add_argument("--s", required=True, help="nonzero rational scale")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConsistencyError, IrrationalSpectrumError, IncompleteSpanningError) as e:
        _emit({"error": str(e)}, getattr(args, "output", None))
        return 1
    except (json.JSONDecodeError, OSError, ExprError, TermTypeError,
            KeyError, ValueError, ZeroDivisionError) as e:
        print(f"octqft: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        print(f"octqft: input too large: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
