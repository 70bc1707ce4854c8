"""A recorded suite of multiplicity certificates.

Every input is a triple (q, c, P): q runs over seven maps, c over six
targets, and P over the distinct monic irreducible factors of q^(n) - c for
n <= 3, plus t - 5 and t^2 - 2, which most orbits never reach.
tests/data/cert_suite.json holds ``to_json_dict()`` of
``multiplicity_bound(q, c, NumberField(P))`` for each, or the class name of
the exception it raises, so a change to the certificate layer must give the
same certificates field by field.  The suite reaches every case tag, an
exceptional n on each of the superattracting, u1-nontorsion and u1-torsion
branches, the orbit size-cap note and a torsion order s = 2.

To record the file again, from the repository root and only at a commit
whose certificates are trusted:

    PYTHONPATH=src python tests/test_cert_suite.py
"""

import json
import pathlib
import sys

import pytest

from itergcd.errors import ItergcdError
from itergcd.factoring import factor_irreducible
from itergcd.multiplicity import multiplicity_bound
from itergcd.numfield import NumberField
from itergcd.parser import parse_poly
from itergcd.polys import Poly, iterate, render_poly

DATA = pathlib.Path(__file__).parent / "data" / "cert_suite.json"
X = Poly.x()

MAPS = ("x^2-2", "x^2-1", "x^2-3/4", "x^2+1/4", "x^2+1/3", "x^2", "x^3+x^2")
TARGETS = ("0", "2", "x", "x-1", "x^3", "-16*x-30")
EXTRA_MODULI = (X - 5, X ** 2 - 2)
SIZE_CAP_NOTE = "no-hit conclusion relies on the orbit size cap"


def cases():
    """[(label, q, c, P)] in a fixed order."""
    out = []
    for q_text in MAPS:
        q = parse_poly(q_text)
        for c_text in TARGETS:
            c = parse_poly(c_text)
            moduli = []
            for n in (1, 2, 3):
                for p, _ in factor_irreducible(iterate(q, n) - c).factors:
                    if p not in moduli:
                        moduli.append(p)
            moduli += [p for p in EXTRA_MODULI if p not in moduli]
            for p in moduli:
                label = "q=%s c=%s P=%s" % (q_text, c_text, render_poly(p, "t"))
                out.append((label, q, c, p))
    return out


def certify(q: Poly, c: Poly, p: Poly):
    """The certificate's JSON dict, or the class name of the library error
    it raises; any other exception fails the suite."""
    # every P is irreducible by construction, so the field skips its check
    try:
        return multiplicity_bound(q, c, NumberField(p, check=False)).to_json_dict()
    except ItergcdError as exc:
        return {"raises": type(exc).__name__}


_CACHE: dict = {}


def _recorded() -> dict:
    if not _CACHE:
        _CACHE.update(json.loads(DATA.read_text()))
    return _CACHE


_CASES = cases()


@pytest.mark.parametrize("label,q,c,p", _CASES,
                         ids=[case[0] for case in _CASES])
def test_certificate_is_the_recorded_one(label, q, c, p):
    assert certify(q, c, p) == _recorded()[label], label


def test_suite_covers_every_recorded_case():
    assert [case[0] for case in _CASES] == list(_recorded())


def test_recorded_suite_reaches_every_branch():
    certs = [v for v in _recorded().values() if "raises" not in v]
    assert {v["case"] for v in certs} == {
        "not-periodic", "constant-c", "superattracting", "u1-nontorsion",
        "u1-torsion"}
    for tag in ("superattracting", "u1-nontorsion", "u1-torsion"):
        assert any(v["case"] == tag and v["exceptional"] for v in certs), tag
    assert any(note.startswith(SIZE_CAP_NOTE)
               for v in certs for note in v["notes"])
    assert any(v["case"] == "u1-torsion" and v["s"] == 2 for v in certs)
    assert any("raises" in v for v in _recorded().values())


def _record():
    data = {label: certify(q, c, p) for label, q, c, p in cases()}
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print("recorded %d certificates in %s" % (len(data), DATA), file=sys.stderr)


if __name__ == "__main__":
    _record()
