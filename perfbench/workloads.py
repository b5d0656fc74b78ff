"""The three workloads: their operations and the known answer of each.

Every workload is a list of ``Op``.  ``run`` performs one call into the
program and returns what it produced; ``check`` runs after the timed pass
and returns ``(status, reason)``, status being ``OK``, ``ERROR`` (the call
raised or exited 2: a clean failure) or ``WRONG`` (it completed with a
wrong answer or exit code).  Only ``WRONG`` makes a run incorrect; both
count as failed operations.

Workloads are built after ``octqft`` is imported, so building them is part
of the set-up time.  Calls go through module attributes (``cli.main``,
``gram.quotient_algebra``) looked up at call time, so a traced pass sees
the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import octqft
from octqft import character, cli, cobordism, gram, kfa

OK, ERROR, WRONG = "ok", "error", "wrong"

# chi_1 = 2 / ((1 - X)(1 - 3Y)): value 2 * 3^w at every genus
CHI_1 = octqft.CharacterForm.make(exp_terms=[(1, 3, 2)])

# sha256 of the exact stdout of `octqft gram --object S|I --char <chi_1>` at
# the commit that introduced this benchmark; the CLI promises byte-identical
# reports, so any change of these bytes is a wrong answer
GRAM_DIGEST = {
    "S": "650fba55b8af495110145403848d1d4900aea83c65552d618caa0433317fd404",
    "I": "95d60368758a257fe23fbb62811d98bbc339dcdd2f9f37eecdd85ba34451802b",
}
GRAM_RANK = {"S": 2, "I": 3}

# (object, generating function, degree, trace) of the witness found at
# budget 6; the CLI exits 1 when it finds one
WITNESS_CASES = (
    ("II", "1/(1-X*Y)", 5, "1"),
    ("S", "1/(1-X*Y)", 4, "1"),
    ("I", "1/(1-X*Y)", 2, "1"),
    ("I", "1/((1-Y)*(1-Y))", 2, "-1"),
)

# generator counts of the deep terms (dS ; mS)^k; the trace closure of the
# k-fold handle is the genus k + 1 surface, where chi_1 is 2, and the handle
# acts as the identity on the closed sector of make_semisimple_kfa(2, 1)
DEEP_GENERATORS = (250, 500, 1000)


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    traced: bool = True     # False: run with the tracer removed


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_op(name, argv, expect_rc, answer, **kw):
    """An Op running the CLI on argv, or calling argv when it is a callable
    that returns a CliResult.  ``answer(stdout)`` returns None when the
    report is right, else a reason."""
    def run():
        return argv() if callable(argv) else call_cli(argv)

    def check(res):
        if res.rc == 2:
            return ERROR, f"exit 2: {res.err.strip()[:120]}"
        if res.rc != expect_rc:
            return WRONG, f"exit {res.rc}, expected {expect_rc}"
        reason = answer(res.out)
        return (OK, "") if reason is None else (WRONG, reason)
    return Op(name, run, check, **kw)


def value_op(name, fn, expected, **kw):
    def check(value):
        if value == expected:
            return OK, ""
        return WRONG, f"got {value!r}, expected {expected!r}"
    return Op(name, fn, check, **kw)


def json_equals(expected):
    """Answer check: the report parses to ``expected``, or to what it
    returns when it is a callable (evaluated after the timed pass)."""
    def answer(out):
        want = expected() if callable(expected) else expected
        return None if json.loads(out) == want else f"report differs: {out[:120]!r}"
    return answer


# ---------------------------------------------------------------------------
# gram-curated


def gram_curated():
    chi_json = json.dumps(CHI_1.to_json())

    def gram_answer(obj):
        def answer(out):
            rank = json.loads(out)["rank"]
            if rank != GRAM_RANK[obj]:
                return f"rank {rank}, expected {GRAM_RANK[obj]}"
            digest = hashlib.sha256(out.encode()).hexdigest()
            return None if digest == GRAM_DIGEST[obj] else f"stdout digest {digest}"
        return answer

    ops = [cli_op(f"gram-{obj}", ["gram", "--object", obj, "--char", chi_json], 0,
                  gram_answer(obj)) for obj in "SI"]
    ops.append(value_op(
        "quotient-S",
        lambda: gram.quotient_algebra(gram.spanning_end("S", CHI_1), CHI_1).dim, 2))
    return ops


# ---------------------------------------------------------------------------
# witness-enum


def witness_enum():
    def witness_answer(degree, trace):
        def answer(out):
            w = json.loads(out)["witness"]
            got = (w["degree"], w["trace"]) if w else None
            return None if got == (degree, trace) else f"witness {got}, expected {(degree, trace)}"
        return answer

    return [cli_op(f"witness-{obj}-{expr}",
                   ["witness", "--object", obj, "--char", expr, "--budget", "6"], 1,
                   witness_answer(degree, trace))
            for obj, expr, degree, trace in WITNESS_CASES]


# ---------------------------------------------------------------------------
# structures

# closed-sector dimension stays at most 4 so every operation takes 1-50 ms;
# the seed draws parameters and the order of the KFAs, while the shapes and
# the size-setting arguments are fixed, so that the work per pass barely
# depends on the seed
SHAPES = (
    ("ss", 1), ("ss", 2), ("ss", 3),
    ("ns", 0, 1), ("ns", 1, 1), ("ns", 2, 2),
    ("sum", ("ss", 1), ("ss", 2)), ("sum", ("ss", 2), ("ss", 3)),
    ("sum", ("ss", 1), ("ns", 1, 1)), ("sum", ("sum", ("ss", 1), ("ss", 2)), ("ss", 1)),
    ("product", ("ss", 2), ("ss", 1)), ("product", ("ss", 1), ("ns", 1, 1)),
    ("scale", ("ss", 2)), ("scale", ("sum", ("ss", 1), ("ss", 2))), ("scale", ("ns", 1, 1)),
)
GROUPS = 170            # KFAs per pass, six operations each
ALPHAS = (1, 2, -1, Fraction(1, 2), 3, Fraction(-2, 3))
SMALL = (0, 1, -1, 2, Fraction(1, 3))
SCALES = (2, Fraction(1, 2), -1, 3, Fraction(2, 3))
GF_VALUES = (1, 2, 3, -1, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3))


def _build_kfa(shape, rng):
    kind = shape[0]
    if kind == "ss":
        return kfa.make_semisimple_kfa(shape[1], rng.choice(ALPHAS))
    if kind == "ns":
        return kfa.make_nonsemisimple_kfa(shape[1], shape[2], rng.choice(ALPHAS),
                                          rng.choice(SMALL), rng.choice(SMALL))
    if kind == "scale":
        return kfa.scale_kfa(_build_kfa(shape[1], rng), rng.choice(SCALES))
    combine = kfa.kfa_sum if kind == "sum" else kfa.kfa_product
    return combine(_build_kfa(shape[1], rng), _build_kfa(shape[2], rng))


def _expr(x):
    x = Fraction(x)
    text = str(x)
    return text if x.denominator == 1 and x >= 0 else f"({text})"


def _gf(index, rng):
    """A generating function alpha_1 + alpha_X X + c / ((1 - lam X)(1 - mu Y))
    and the closed form it must classify to.  Which of alpha_1, alpha_X are
    nonzero cycles with the index: a polynomial part raises the rank bound
    classify_rational works with, and so the cost of the call."""
    lam, mu, c = (rng.choice(GF_VALUES) for _ in range(3))
    a1 = rng.choice((1, 2)) if index % 2 else 0
    ax = rng.choice((3, Fraction(1, 2))) if index // 2 % 2 else 0
    text = f"{_expr(a1)} + {_expr(ax)}*X + {_expr(c)}/((1-{_expr(lam)}*X)*(1-{_expr(mu)}*Y))"
    return text, octqft.CharacterForm.make(alpha_1=a1, alpha_X=ax, exp_terms=[(lam, mu, c)])


def _kfa_group(index, k, rng):
    """check-kfa, invariants, character, classify --table on the invariants
    just printed, eval of a closed surface, and classify --rational.

    The reference closed form is the printed character when its table
    equals the printed invariants: two layers agreeing.  Otherwise it is
    character_of(k), recomputed after the pass, and each report is judged
    against that.
    """
    kj = json.dumps(k.to_json())
    r = k.closed.dim
    size = 2 * r + 4
    # the surface's genus and windows cycle with the index, as its length
    # sets the cost of eval
    g, w = index // 4 % 4, index // 16 % 4
    surface = " ; ".join(["uS"] + ["dS ; mS"] * g + ["z ; zs"] * w + ["eS"])
    gf_text, gf_form = _gf(index, rng)
    printed = {}
    memo = []

    def agreed_form():
        try:
            form = octqft.CharacterForm.from_json(json.loads(printed["character"]))
            table = json.loads(printed["invariants"])
        except (KeyError, TypeError, ValueError):
            return None
        return form if character.to_table(form, size, size).to_json() == table else None

    def form():
        if not memo:
            memo.append(agreed_form() or kfa.character_of(k))
        return memo[0]

    def printing(key, argv):
        def run():
            res = call_cli(argv)
            if res.rc == 0:
                printed[key] = res.out
            return res
        return run

    def is_valid(out):
        return None if json.loads(out)["valid"] is True else "not valid"

    tag = f"kfa{index}"
    return [
        cli_op(f"{tag}-check-kfa", ["check-kfa", "--kfa", kj], 0, is_valid),
        cli_op(f"{tag}-invariants",
               printing("invariants", ["invariants", "--kfa", kj,
                                       "--gmax", str(size), "--wmax", str(size)]),
               0, json_equals(lambda: character.to_table(form(), size, size).to_json())),
        cli_op(f"{tag}-character", printing("character", ["character", "--kfa", kj]), 0,
               json_equals(lambda: form().to_json())),
        cli_op(f"{tag}-classify-table",
               lambda: call_cli(["classify", "--table", printed["invariants"],
                                 "--rank-bound", str(r)]),
               0, json_equals(lambda: character.Good(form()).to_json())),
        cli_op(f"{tag}-eval", ["eval", "--term", surface, "--kfa", kj], 0,
               json_equals(lambda: octqft.rat_to_str(character.eval_character(form(), g, w)))),
        cli_op(f"{tag}-classify-rational", ["classify", "--rational", gf_text], 0,
               json_equals(character.Good(gf_form).to_json())),
    ]


def _deep_ops():
    ss = json.dumps(kfa.make_semisimple_kfa(2, 1).to_json())
    ops = []
    for n in DEEP_GENERATORS:
        text = " ; ".join(["dS ; mS"] * (n // 2))
        ops.append(value_op(
            f"deep-trace-{n}",
            lambda text=text: gram.categorical_trace(cobordism.parse(text), CHI_1),
            character.eval_character(CHI_1, n // 2 + 1, 0), traced=False))
        ops.append(cli_op(f"deep-eval-{n}", ["eval", "--term", text, "--kfa", ss], 0,
                          json_equals([["1"]]), traced=False))
    return ops


def structures(seed, groups=GROUPS):
    rng = random.Random(seed)
    shapes = [SHAPES[i % len(SHAPES)] for i in range(groups)]
    rng.shuffle(shapes)
    ops = []
    for index, shape in enumerate(shapes):
        ops += _kfa_group(index, _build_kfa(shape, rng), rng)
    return ops + _deep_ops()


def build(workload, seed, groups=GROUPS):
    """The operations of one pass.  Only structures uses the seed."""
    if workload == "gram-curated":
        return gram_curated()
    if workload == "witness-enum":
        return witness_enum()
    if workload == "structures":
        return structures(seed, groups)
    raise ValueError(f"unknown workload {workload!r}")
