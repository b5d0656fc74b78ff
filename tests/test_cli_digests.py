"""The CLI promises byte-identical reports: the exit code, the sha256 of
stdout and the whole of stderr of every subcommand are pinned here, and so
are the bytes a report writes to a file with --output.  A change of the
pairing, rank, typing or evaluation engine, or of the JSON rendering, that
alters one byte fails."""

import hashlib
import json
from fractions import Fraction

import pytest

from oracles import invariant_rows
from octqft.cli import main
from octqft.frobenius import frobenius_from_form
from octqft.kfa import (
    KFA_FLAGS, interpolated_gl_character, kfa_product, kfa_sum, make_closed_only,
    make_nonsemisimple_kfa, make_semisimple_kfa, scale_kfa,
)
from octqft.numkit import Tensor


def _char(exp, **poly):
    return json.dumps({"poly": poly,
                       "exp": [{"lambda": str(l), "mu": str(m), "coeff": str(c)}
                               for l, m, c in exp]})


KFA21 = json.dumps(make_semisimple_kfa(2, 1).to_json())
CHI1 = '{"exp":[{"lambda":"1","mu":"3","coeff":"2"}]}'
# a geometric term plus a polynomial part with denominators, so that the
# curated Grams are scaled to integers and print fractions
CHI_POLY_FRACTIONS = _char([(2, 3, 1)], **{"1": "1/2"}, X="3/4", Y2="-2/3")
# the interpolated GL family at d = 7/2 (handle eigenvalue 1), whose curated
# entries share a few feature classes, and a lone term with a negative handle
# eigenvalue and window eigenvalue 0, so that 0^0 = 1 decides the classes
CHI_GL_7_2 = json.dumps(interpolated_gl_character(Fraction(7, 2), 1).to_json())
CHI_NEG_ZERO = _char([(-1, 0, 3)])


def _broken_kfa():
    obj = make_semisimple_kfa(2, 1).to_json()
    obj["zipper"][0][0] = "7"
    return json.dumps(obj)


def _irrational_kfa():
    # multiplication by 2x on Q[x]/(x^2 - 2): eigenvalues +-2*sqrt(2)
    prod = Tensor.from_entries((2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (0, 1, 1): 2})
    fa = frobenius_from_form(prod, Tensor.from_entries((2,), {(0,): 1}),
                             Tensor.from_entries((2,), {(1,): 1}))
    return json.dumps(make_closed_only(fa).to_json())


def _table(fn, n=9):
    return json.dumps({"values": [[str(fn(g, w)) for w in range(n)] for g in range(n)]})


# structures whose operators, tables and forms all carry denominators: a
# product at alpha = 1/2 and -2/3 with a polynomial and a geometric part, and
# a sum rescaled by 2/3 with two geometric terms
PRODUCT_KFA = kfa_product(
    make_semisimple_kfa(2, Fraction(1, 2)),
    kfa_sum(make_semisimple_kfa(1, Fraction(-2, 3)),
            make_nonsemisimple_kfa(0, 1, 3, Fraction(1, 3), -1)))
SCALED_KFA = scale_kfa(
    kfa_sum(make_semisimple_kfa(1, 3), make_semisimple_kfa(2, Fraction(-2, 3))), Fraction(2, 3))


def _fractional_cases(k, digests):
    """invariants, character and classify --table (on the oracle's table) of
    k, each at the table size character_of uses."""
    kj = json.dumps(k.to_json())
    r = k.closed.dim
    size = 2 * r + 4
    table = json.dumps({"values": [[str(v) for v in row] for row in invariant_rows(k, size, size)]})
    argvs = (["invariants", "--kfa", kj, "--gmax", str(size), "--wmax", str(size)],
             ["character", "--kfa", kj],
             ["classify", "--table", table, "--rank-bound", str(r)])
    return [(argv, 0, digest) for argv, digest in zip(argvs, digests)]


@pytest.mark.parametrize("argv, code, digest, err", [
    (["witness", "--object", "II", "--char", "1/(1-X*Y)", "--budget", "6"], 1,
     "c3ebdb2909728223101920529f52496ff7eab4bbade41ec9d9612da9dc20df3c", ""),
    (["witness", "--object", "S", "--char", "1/(1-X*Y)", "--budget", "6"], 1,
     "284d7c3b4da4f98f422e50b5bfe2be068d8e6f331afdf520ce7b7b4e8ddfea27", ""),
    (["witness", "--object", "I", "--char", "1/(1-X*Y)", "--budget", "6"], 1,
     "e007dda939bfce93370149c5a3790bdb712497400212703841f4f7e910bb9bfc", ""),
    (["witness", "--object", "I", "--char", "1/((1-Y)*(1-Y))", "--budget", "6"], 1,
     "0d4a00f4929cbb168933aa9e27c792cbcedc6743f891a9dde7a5d7d1bb182794", ""),
    (["idempotents", "--char", _char([(1, 3, 2)])], 0,
     "e3356a6d83a007d9a5e0f4e30b82285fccf2fefe02971011ccffbed01c02b6e4", ""),
    (["idempotents", "--char", _char([(2, 3, 1), (4, 5, 1)])], 0,
     "67b9fe1b0159bd05a718939caa3ab1faeab02eaa0921aacb9a8275c45cf1d480", ""),
    (["idempotents", "--char", _char([(2, 3, 1), (4, 3, 1)], Y="1")], 0,
     "51a2f7d4afeb7bf7b3a567b63bd168d4146f2a7fc0bccfda5700384a8b404841", ""),
    (["witness", "--object", "SI", "--char", "1/(1-X*Y)", "--budget", "4"], 1,
     "dc2c1fe0b581171fd43a261875dd6baa3051c4d4a3a4bdd8f0ba7e55612c949c", ""),
    (["gram", "--object", "S", "--char", CHI1], 0,
     "650fba55b8af495110145403848d1d4900aea83c65552d618caa0433317fd404", ""),
    (["gram", "--object", "I", "--char", CHI1], 0,
     "95d60368758a257fe23fbb62811d98bbc339dcdd2f9f37eecdd85ba34451802b", ""),
    (["gram", "--object", "S", "--char", _char([(2, 3, 1), (4, 5, 1)]), "--no-matrix"], 0,
     "1ae264ec5cf4ea9badbb5f08efaf005774f1b21dab9212e82ea54fe017c051f2", ""),
    (["gram", "--object", "I", "--char", _char([(2, 3, 1), (4, 5, 1)]), "--no-matrix"], 0,
     "622713e402bd0b118cadfb324b7c759d259f3e1468f93db267cf7e9d610912fc", ""),
    (["gram", "--object", "S", "--char", CHI_POLY_FRACTIONS], 0,
     "f9cdfae1cb8b8ea9b4ae7ce9e04a146d1bbcba3ee3e22a3e212b71486564010c", ""),
    (["gram", "--object", "I", "--char", CHI_POLY_FRACTIONS], 0,
     "c62b8cd55153f83490fe348235b521f57a947cf22e708e167df525b59d44b6a1", ""),
    (["gram", "--object", "S", "--char", CHI_GL_7_2], 0,
     "8f8cd1e975a262076a17e062bb885f3400976c63a8eaf8a626f71bb62c2f8a89", ""),
    (["gram", "--object", "I", "--char", CHI_GL_7_2], 0,
     "d43ad9209049d204d1e47212c78bfe0fcc5a236c7a7c7eec2d42bf1feb647625", ""),
    (["gram", "--object", "S", "--char", CHI_NEG_ZERO], 0,
     "f15c8785b20734429221533837715169cb25a7de451983f80fe5dca126bb43bd", ""),
    (["gram", "--object", "I", "--char", CHI_NEG_ZERO], 0,
     "7e8c8f82865527f80e4a24a55d60cde361532378d205446d35f89f4099fc8455", ""),
    (["eval", "--term", "uS ; dS ; mS ; z ; zs ; eS", "--kfa", KFA21], 0,
     "31c3ffb47faa9d2a058d6ec92d0cf295fa0f2dc1ec52890b51d538d6d30f0815", ""),
    (["eval", "--term", "(z * id:I) ; mI ; dI", "--kfa", KFA21], 0,
     "ac0c19202f729343c99e6ccc22cd359da4232ac8292362c509e8dd9da750c242", ""),
    (["eval", "--term", "z ; mS", "--kfa", KFA21], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "octqft: cannot compose: codomain 'I' does not match domain 'SS'\n"),
], ids=["witness-II-xy", "witness-S-xy", "witness-I-xy", "witness-I-y2",
        "idempotents-chi1", "idempotents-two-blocks", "idempotents-one-window-root",
        "witness-SI-xy", "gram-S-chi1", "gram-I-chi1", "gram-S-two-blocks-rank",
        "gram-I-two-blocks-rank", "gram-S-poly-fractions", "gram-I-poly-fractions",
        "gram-S-gl-7/2", "gram-I-gl-7/2", "gram-S-neg-handle-zero-window",
        "gram-I-neg-handle-zero-window",
        "eval-closed-surface", "eval-open-matrix", "eval-ill-typed"])
def test_cli_report_bytes_pinned(argv, code, digest, err, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err


@pytest.mark.parametrize("argv, code, digest", [
    (["check-kfa", "--kfa", KFA21], 0,
     "eec7a67337febb914cf5a1e196def1340b58ef0e9e0f6505e16262b254c379f4"),
    (["check-kfa", "--kfa", _broken_kfa()], 1,
     "ebd5a6d385f5b59ba21be579ba7295436aeb2916e69eb4c91ead040017456530"),
    (["invariants", "--kfa", KFA21], 0,
     "7e8e36d4ba56fc8d1aa6ad32b06e245897a92547c9e89eb8f7c1fcbc04e1408f"),
    (["invariants", "--kfa", KFA21, "--gmax", "2", "--wmax", "3"], 0,
     "85168adef4520e6c3409ea421defdf9135c898ea2ceb7e20dde70b4f46034ffd"),
    (["character", "--kfa", KFA21], 0,
     "361bd38a580217014a42cbf4feb79c8f8d05b52bc43d58524a06caa41ffc5731"),
    (["character", "--kfa", _irrational_kfa()], 1,
     "43917ad84bbe2e5cfd15bf2af13dff848a26947a341503bfa077bda37261c776"),
    (["classify", "--table", _table(lambda g, w: 2 ** w)], 0,
     "922807be4487c6e7657a4439aa910a416692d7d718625a5d2c61d277c1658184"),
    (["classify", "--table", _table(lambda g, w: int(g == 0))], 1,
     "c2bc42f5eca85485bd4b0987e16ce721d07ba8d6f60ae511eac8bdd8ae60a741"),
    (["classify", "--table", _table(lambda g, w: 2 ** w + (g == w == 7))], 1,
     "080120cbadf2fa4714deeb887051bc0de70b545b09abbb1859f3674c050a0788"),
    (["classify", "--table", _table(lambda g, w: 2 ** (g // 2) if w == 0 and g % 2 == 0 else 0)],
     1,
     "43917ad84bbe2e5cfd15bf2af13dff848a26947a341503bfa077bda37261c776"),
    (["classify", "--rational", "1/((1-2*X)*(1-3*Y))"], 0,
     "354a735c9c3c12fec7115cbf70e004f7d2fe65228527d2525ed2a53db52c1c6c"),
    (["classify", "--rational", "1/(1-Y)"], 1,
     "c2bc42f5eca85485bd4b0987e16ce721d07ba8d6f60ae511eac8bdd8ae60a741"),
    (["classify", "--form", _char([(2, 3, 1), (4, 5, 1)], Y="1", X="-1/2")], 0,
     "b79331c3fc2cb869586a96e7569060c5b5d0043c5a48b1612168b47a9b6a6e59"),
    (["scale", "--kfa", KFA21, "--s", "1/2"], 0,
     "8bcbe0063795d695b4176823ca2955bf501956388ef7ae0c3397fc1644ebdc40"),
    (["witness", "--object", "S", "--char", "Y*Y*Y", "--budget", "4"], 1,
     "ceeabb2d0a0c9158bce2d2f336689804f5b02a47f7cec77e1a739dbc502ca983"),
    *_fractional_cases(PRODUCT_KFA, (
        "9fcbc4fcd36d9f50430690aebcb621a686a8ceb08d4ab11b785e70bbc13c7303",
        "04a61fe786dda89218c6125ba8dde2127abbfde3074c3fe4197aaf6c50048d89",
        "03e194c4250ada0c73d84cb3f5e9b5cea1904d1e4a96c8805b8b64a3a9663d61")),
    *_fractional_cases(SCALED_KFA, (
        "c3756ee15b8f346d26f4265d34e95b21dddd97b8bd1b4368fdd9d81ea0de3b0d",
        "31b17d8c3cc81b44c468c3021e7b80e3c6294afb7553deefe4e4cfce8e5ffc28",
        "4f2547d7e7d30e67b162946804afb3e9e291a7f06278a57db7d9ff1d89e08c8c")),
], ids=["check-kfa-valid", "check-kfa-invalid", "invariants-default", "invariants-2x3",
        "character", "character-indeterminate", "classify-table-good",
        "classify-table-not-good-witness", "classify-table-not-good-no-recurrence",
        "classify-table-indeterminate", "classify-rational-good",
        "classify-rational-not-good-witness", "classify-form", "scale", "error-payload",
        "invariants-product-fractional", "character-product-fractional",
        "classify-table-product-fractional", "invariants-scaled-2/3",
        "character-scaled-2/3", "classify-table-scaled-2/3"])
def test_structure_and_classify_report_bytes_pinned(argv, code, digest, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == ""


# a valid structure whose every tensor carries denominators: a sum of a
# semisimple and a nilpotent structure, rescaled by 3/7
FRACTIONAL_KFA = scale_kfa(
    kfa_sum(make_semisimple_kfa(2, Fraction(1, 2)),
            make_nonsemisimple_kfa(1, 1, Fraction(2, 3), Fraction(1, 5), 3)), Fraction(3, 7))


def _perturbed_kfa(path, delta):
    """FRACTIONAL_KFA as JSON with the entry at path moved by delta; product
    planes are indexed [c][a][b], coproduct planes [a][b][c]."""
    obj = FRACTIONAL_KFA.to_json()
    *head, last = path
    node = obj
    for key in head:
        node = node[key]
    node[last] = str(Fraction(node[last]) + delta)
    return json.dumps(obj)


# (path, delta, failed flags): together the cases fail every KFA flag
PERTURBED_KFA_CASES = [
    (("open", "product", 0, 4, 5), Fraction(-1, 13),
     {"open_frobenius", "open_symmetric", "zipper_homomorphism", "zipper_central", "duality",
      "cardy"},
     "a8c708980dd3fa958f6afa65e257ad9186ab1f1489463599f54b0aaac30bdf3d"),
    (("open", "coproduct", 1, 2, 3), Fraction(1, 11),
     {"open_frobenius", "open_cosymmetric", "cardy"},
     "26596bbe7623b325d13b7fad712e5cde78f920ee537a3982ec1a9fb7383ed4ad"),
    (("closed", "product", 1, 1, 2), Fraction(-1, 17),
     {"closed_frobenius", "closed_commutative", "zipper_homomorphism", "duality"},
     "c5b99b34f583f6862a8d61be41ea3589a1732512d73af2f43be10e741faa7fe5"),
    (("closed", "coproduct", 3, 2, 2), Fraction(-1, 13),
     {"closed_frobenius", "closed_cocommutative"},
     "31aa2ef993d3161db92b7142d6c07812b764fe06eb55a4a730304d7e7ac7d27c"),
    (("zipper", 0, 0), Fraction(1, 13),
     {"zipper_unital", "zipper_homomorphism", "zipper_central", "duality", "cardy"},
     "ebd5a6d385f5b59ba21be579ba7295436aeb2916e69eb4c91ead040017456530"),
    (("zipper", 0, 2), Fraction(1, 13),
     {"zipper_homomorphism", "zipper_central", "duality", "cardy"},
     "a5648a9b35f45378820ad38fd46257c3fa007557b07b00d6e492afcd39597f77"),
    (("cozipper", 3, 0), Fraction(1, 13),
     {"duality", "cardy"},
     "d9d81c6c488c869e8032798b5dfc231cd61a1d5f64412b89770596cf4bbe2277"),
]


def test_perturbed_kfa_cases_fail_every_flag():
    assert main(["check-kfa", "--kfa", json.dumps(FRACTIONAL_KFA.to_json())]) == 0
    assert set().union(*(failed for _, _, failed, _ in PERTURBED_KFA_CASES)) == set(KFA_FLAGS)


@pytest.mark.parametrize("path, delta, failed, digest", PERTURBED_KFA_CASES,
                         ids=["open-product", "open-coproduct", "closed-product",
                              "closed-coproduct", "zipper-unit-column", "zipper",
                              "cozipper"])
def test_check_kfa_invalid_report_bytes_pinned(path, delta, failed, digest, capsys):
    assert main(["check-kfa", "--kfa", _perturbed_kfa(path, delta)]) == 1
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == ""
    flags = json.loads(captured.out)["flags"]
    assert {name for name, ok in flags.items() if not ok} == failed


@pytest.mark.parametrize("argv, code, digest", [
    (["check-kfa", "--kfa", KFA21], 0,
     "eec7a67337febb914cf5a1e196def1340b58ef0e9e0f6505e16262b254c379f4"),
    (["gram", "--object", "S", "--char", CHI1], 0,
     "650fba55b8af495110145403848d1d4900aea83c65552d618caa0433317fd404"),
    (["witness", "--object", "S", "--char", "Y*Y*Y", "--budget", "4"], 1,
     "ceeabb2d0a0c9158bce2d2f336689804f5b02a47f7cec77e1a739dbc502ca983"),
], ids=["check-kfa", "gram-S-chi1", "error-payload"])
def test_output_file_bytes_pinned(argv, code, digest, capsys, tmp_path):
    # --output writes the report and one newline to the file, nothing to stdout
    dest = tmp_path / "report.json"
    assert main(argv + ["--output", str(dest)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "")
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest
