"""End-to-end tests of the command line front end."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octqft.cli import _encode, build_parser, main
from octqft.kfa import make_semisimple_kfa


@pytest.fixture()
def kfa_path(tmp_path):
    p = tmp_path / "k21.json"
    p.write_text(json.dumps(make_semisimple_kfa(2, 1).to_json()))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_kfa_valid(capsys, kfa_path):
    code, out = run(capsys, ["check-kfa", "--kfa", kfa_path])
    report = json.loads(out)
    assert code == 0
    assert report["valid"] is True
    assert report["first_violation"] is None


def test_check_kfa_invalid_exits_one(capsys, tmp_path):
    obj = make_semisimple_kfa(2, 1).to_json()
    obj["zipper"][0][0] = "7"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, ["check-kfa", "--kfa", str(p)])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_invariants_table(capsys, kfa_path):
    code, out = run(capsys, ["invariants", "--kfa", kfa_path, "--gmax", "2", "--wmax", "3"])
    assert code == 0
    values = json.loads(out)["values"]
    assert values[0] == ["1", "2", "4", "8"]
    assert values[2][1] == "2"


def test_character_roundtrips_through_classify(capsys, kfa_path, tmp_path):
    code, out = run(capsys, ["character", "--kfa", kfa_path])
    assert code == 0
    form_path = tmp_path / "form.json"
    form_path.write_text(out)
    code2, out2 = run(capsys, ["classify", "--form", str(form_path)])
    assert code2 == 0
    echoed = json.loads(out2)
    original = json.loads(out)
    assert echoed["status"] == "good"
    assert echoed["poly"] == original["poly"]
    assert echoed["exp"] == original["exp"]


def test_classify_rational_good(capsys):
    code, out = run(capsys, ["classify", "--rational", "1/((1-2X)(1-3Y))"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "good"
    assert report["exp"] == [{"coeff": "1", "lambda": "2", "mu": "3"}]


def test_classify_rational_bad_exits_one(capsys):
    code, out = run(capsys, ["classify", "--rational", "1/(1-Y)"])
    assert code == 1
    assert json.loads(out)["status"] == "not_good"


def test_classify_table_from_file(capsys, tmp_path):
    rows = [[str(2 ** w) for w in range(9)] for g in range(9)]
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"values": rows}))
    code, out = run(capsys, ["classify", "--table", str(p)])
    assert code == 0
    report = json.loads(out)
    assert report["exp"] == [{"coeff": "1", "lambda": "1", "mu": "2"}]


def test_eval_scalar(capsys, kfa_path):
    code, out = run(capsys, ["eval", "--term", "uS ; z ; eI", "--kfa", kfa_path])
    assert code == 0
    assert json.loads(out) == "2"


def test_eval_matrix(capsys, kfa_path):
    code, out = run(capsys, ["eval", "--term", "dI ; mI", "--kfa", kfa_path])
    assert code == 0
    m = json.loads(out)
    assert len(m) == 4 and len(m[0]) == 4


def test_eval_bad_term_usage_error(capsys, kfa_path):
    code = main(["eval", "--term", "uS ;; eI", "--kfa", kfa_path])
    capsys.readouterr()
    assert code == 2


def test_eval_deep_term(capsys, kfa_path):
    # 1,000 generators nest past the interpreter's recursion limit, so
    # evaluation must not recurse on the term
    term = " ; ".join(["dS ; mS"] * 500)
    code, out = run(capsys, ["eval", "--term", term, "--kfa", kfa_path])
    assert code == 0
    assert json.loads(out) == [["1"]]


def test_recursion_error_exits_two(capsys, kfa_path, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("octqft.cli.evaluate", too_deep)
    code = main(["eval", "--term", "uS ; eS", "--kfa", kfa_path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("octqft: ") and err.count("\n") == 1


def test_out_of_memory_exits_two(capsys, kfa_path, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("octqft.cli.evaluate", exhausted)
    code = main(["eval", "--term", "uS ; eS", "--kfa", kfa_path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("octqft: ") and err.count("\n") == 1


def test_gram_rank_report(capsys):
    chi = json.dumps({"exp": [{"lambda": "1", "mu": "3", "coeff": "2"}]})
    code, out = run(capsys, ["gram", "--object", "S", "--char", chi, "--no-matrix"])
    assert code == 0
    report = json.loads(out)
    assert report == {"gram": None, "object": "S", "rank": 2, "witness": None}


def test_idempotents_report(capsys):
    chi = json.dumps({"exp": [{"lambda": "1", "mu": "2", "coeff": "1"}]})
    code, out = run(capsys, ["idempotents", "--char", chi, "--gmax", "2", "--wmax", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["components"] == {"1,2": True}


def test_witness_report_exits_one(capsys):
    code, out = run(capsys, ["witness", "--object", "S", "--char", "1/(1-X*Y)",
                             "--budget", "4"])
    assert code == 1
    witness = json.loads(out)["witness"]
    assert (witness["degree"], witness["trace"]) == (4, "1")
    assert witness["element"] == [["1", "z ; zs"]]


@pytest.mark.parametrize("word", ["X", "I S", ""])
def test_witness_rejects_bad_object_words(capsys, word):
    code = main(["witness", "--object", word, "--char", "1/(1-X*Y)", "--budget", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"object word must be nonempty over I/S, got {word!r}" in captured.err


def test_scale_output_reloads(capsys, kfa_path):
    code, out = run(capsys, ["scale", "--kfa", kfa_path, "--s", "1/2"])
    assert code == 0
    original = json.loads(open(kfa_path).read())
    scaled = json.loads(out)
    from fractions import Fraction

    # counits pick up s^-1 (open) and s^-2 (closed)
    for sector, power in (("open", 2), ("closed", 4)):
        got = [Fraction(x) for x in scaled[sector]["counit"]]
        want = [Fraction(x) * power for x in original[sector]["counit"]]
        assert got == want


def test_scale_composes_with_character(capsys, kfa_path, tmp_path):
    code, out = run(capsys, ["scale", "--kfa", kfa_path, "--s", "2"])
    p = tmp_path / "scaled.json"
    p.write_text(out)
    code, out = run(capsys, ["character", "--kfa", str(p)])
    assert code == 0


def test_output_deterministic(capsys, kfa_path):
    _, out1 = run(capsys, ["character", "--kfa", kfa_path])
    _, out2 = run(capsys, ["character", "--kfa", kfa_path])
    assert out1 == out2


def test_output_file(capsys, kfa_path, tmp_path):
    dest = tmp_path / "report.json"
    code = main(["check-kfa", "--kfa", kfa_path, "-o", str(dest)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(dest.read_text())["valid"] is True


def test_inline_json_and_stdin(capsys, kfa_path, monkeypatch):
    import io

    blob = open(kfa_path).read()
    code, out = run(capsys, ["invariants", "--kfa", blob, "--gmax", "1", "--wmax", "1"])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code2, out2 = run(capsys, ["invariants", "--kfa", "-", "--gmax", "1", "--wmax", "1"])
    assert code2 == 0
    assert out == out2


def test_missing_file_usage_error(capsys):
    code = main(["check-kfa", "--kfa", "/nonexistent/nowhere.json"])
    capsys.readouterr()
    assert code == 2


def test_malformed_json_usage_error(capsys):
    code = main(["check-kfa", "--kfa", "{not json"])
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_malformed_rational_exits_two(capsys):
    obj = make_semisimple_kfa(2, 1).to_json()
    obj["closed"]["counit"][0] = "1/x"
    code = main(["check-kfa", "--kfa", json.dumps(obj)])
    assert capsys.readouterr().err.startswith("octqft: ")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--table", '{"values":[]}'],
    ["classify", "--table", '{"values":5}'],
    ["classify", "--table", "[]"],
    ["invariants", "--kfa", "[]"],
    ["check-kfa", "--kfa", '{"open":1,"closed":2,"zipper":3,"cozipper":4}'],
    ["gram", "--object", "S", "--char", '{"poly":[1]}'],
    ["gram", "--object", "S", "--char", "[]"],
], ids=["table-empty", "table-number", "table-list", "invariants-list", "kfa-numbers",
        "char-poly-list", "char-list"])
def test_json_of_the_wrong_shape_exits_two(capsys, argv):
    # valid JSON that the reader cannot use is an input error, not a
    # failed verification and not a traceback
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("octqft: ")


@pytest.mark.parametrize("argv, line", [
    (["eval", "--term", "uS ; eS", "--kfa", "{}"],
     "octqft: structure JSON has the wrong shape: missing key 'open'"),
    (["gram", "--object", "S", "--char", '{"exp":[{"lambda":"2"}]}'],
     "octqft: character JSON has the wrong shape: missing key 'mu'"),
    (["classify", "--table", '{"vals":[]}'],
     "octqft: value table JSON has the wrong shape: missing key 'values'"),
], ids=["kfa", "char", "table"])
def test_json_missing_key_names_its_input(capsys, argv, line):
    # a bare KeyError message would print only the key, not which input lacks it
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_classify_table_too_small_names_its_bounds(capsys):
    # a 4 x 5 table supports no rank bound; the error names the table's
    # sizes, not an offset into an expression
    table = json.dumps({"values": [[str(2 ** w) for w in range(5)] for g in range(4)]})
    code = main(["classify", "--table", table])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("octqft: table too small for any rank bound: g_max 3 and w_max 4, "
                            "both must be at least 4\n")


@pytest.mark.parametrize("bound", ["--gmax", "--wmax"])
def test_idempotents_rejects_negative_bounds(capsys, bound):
    # a negative bound checks no cell, so it must not report a pass
    code = main(["idempotents", "--char", "{}", bound, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "octqft: bounds must be >= 0\n"


def test_reused_parser_leaks_no_state(capsys, kfa_path, tmp_path):
    # the parser is built once per process; each command run after others
    # must behave as when it runs alone in a fresh process
    chi = json.dumps({"exp": [{"lambda": "1", "mu": "3", "coeff": "2"}]})
    table = json.dumps({"values": [[str(2 ** w) for w in range(9)] for g in range(9)]})
    dest = tmp_path / "gram.json"
    commands = [
        ["check-kfa", "--kfa", kfa_path],
        ["invariants", "--kfa", kfa_path, "--gmax", "2", "--wmax", "3"],
        ["classify", "--rational", "1/((1-2X)(1-3Y))"],
        ["classify", "--table", table],
        ["eval", "--term", "dI ; mI", "--kfa", kfa_path],
        ["gram", "--object", "S", "--char", chi, "-o", str(dest)],
        ["classify", "--rank-bound", "1"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        written = None
        if dest.exists():
            written = dest.read_text()
            dest.unlink()
        return code, captured.out, captured.err, written

    alone = []
    for argv in commands:
        build_parser.cache_clear()
        alone.append(call(argv))
    assert alone[-1][0] == 2 and "usage:" in alone[-1][2]
    assert alone[-2][3] is not None
    build_parser.cache_clear()
    assert [call(argv) for argv in commands * 2] == alone * 2
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# the report encoder

_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('χ∘"\\\n\t\x00\x1f\x7f ')),
                max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 40, 10 ** 40),
    st.floats(), _TEXT)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=4).map(tuple),
                            st.lists(_TEXT, max_size=5), st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_encoder_matches_json_dumps(payload):
    assert _encode(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], {"a": {}}, "", "χ∘", ["a", 1, None, True, "b"], [1.5, -0.0, float("inf")],
    {2: "x", 10: "y"}, {None: 1}, {True: [], False: {}}, {1.5: "z"},
    {"gram": [["1", "2/3"], ["-2/3", "1"]], "rank": 2, "witness": None},
])
def test_encoder_matches_json_dumps_on_examples(payload):
    assert _encode(payload) == json.dumps(payload, sort_keys=True, indent=2)


_ROW = ["1", "2/3", "-5"]
_NESTED = [_ROW, [1, None]]


@pytest.mark.parametrize("payload", [
    {"gram": [_ROW, _ROW, ["0"], _ROW], "rank": 1},
    [_NESTED, _NESTED, {"b": _NESTED}],
    {"a": [_ROW, _ROW], "b": [[_ROW, _ROW], _ROW], "c": {"d": [[[_ROW]], _ROW]}},
    [_ROW, [_ROW, [_ROW, _ROW]], _ROW],
], ids=["repeated-rows", "repeated-nested", "two-depths", "three-depths"])
def test_encoder_matches_json_dumps_on_shared_lists(payload):
    # a list object that repeats in one list is encoded once per call; the
    # same object at another depth is indented for that depth
    assert _encode(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [
    {1, 2}, Fraction(1, 2), b"x", ["a", object()], {"a": {1}}, {(1, 2): "x"}, {"a": 1, 2: "b"},
])
def test_encoder_raises_type_error_as_json_does(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _encode(payload)


def test_gram_without_matrix_builds_no_full_matrix(capsys, monkeypatch):
    # --no-matrix reads the rank off the coded Gram: no n x n Matrix is
    # built, only the small blocks of the certificate
    from octqft import numkit

    shapes = []
    real_init = numkit.Matrix.__init__
    monkeypatch.setattr(numkit.Matrix, "__init__",
                        lambda self, rows, cols, entries: shapes.append((rows, cols))
                        or real_init(self, rows, cols, entries))
    chi = json.dumps({"exp": [{"lambda": "1", "mu": "3", "coeff": "2"}]})
    assert main(["gram", "--object", "S", "--char", chi, "--no-matrix"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 2
    assert shapes and max(shapes) < (272, 272)
