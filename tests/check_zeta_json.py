"""Check a JSON ``zeta`` document on stdin against the truncation bound of its series.

    ipszeta zeta --model qca2 --params 0.3,0.7 --n 12 --rmax 20 --format json \
        | python tests/check_zeta_json.py

Exits 0 when the document is strict JSON (no NaN or Infinity constant),
its ``empirical_radius`` is 1.0, and each evaluation's ``difference``
between the series and the spectral mean is at most
1e-10 + |u|^(R+1) / ((R+1)(1 - |u|)): the tail past r = R of a log series
whose C_r have modulus at most 1.  Otherwise it exits 1 and names what failed.
"""

import json
import sys


def refuse(constant):
    sys.exit(f"non-finite JSON constant {constant}")


def main() -> None:
    doc = json.load(sys.stdin, parse_constant=refuse)
    if doc["empirical_radius"] != 1.0:
        sys.exit(f"empirical_radius is {doc['empirical_radius']!r}, not 1.0")
    t = doc["r_max"] + 1

    def bound(a):
        return 1e-10 + a ** t / (t * (1 - a))

    bad = [e for e in doc["evaluations"] if not e["difference"] <= bound(abs(complex(*e["u"])))]
    if bad:
        sys.exit(f"differences past the truncation bound: {bad}")


if __name__ == "__main__":
    main()
