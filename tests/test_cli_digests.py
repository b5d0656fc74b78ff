"""The CLI promises byte-identical reports: the exit code, the sha256 of
stdout and the whole of stderr of the witness, idempotents, gram and eval
commands are pinned here, so a change of the pairing, rank, typing or
evaluation engine that alters one byte fails."""

import hashlib
import json

import pytest

from octqft.cli import main
from octqft.kfa import make_semisimple_kfa


def _char(exp, **poly):
    return json.dumps({"poly": poly,
                       "exp": [{"lambda": str(l), "mu": str(m), "coeff": str(c)}
                               for l, m, c in exp]})


KFA21 = json.dumps(make_semisimple_kfa(2, 1).to_json())
CHI1 = '{"exp":[{"lambda":"1","mu":"3","coeff":"2"}]}'


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
        "eval-closed-surface", "eval-open-matrix", "eval-ill-typed"])
def test_cli_report_bytes_pinned(argv, code, digest, err, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err
