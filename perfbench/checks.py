"""Output checks that share no code with kostka_forge.

Each checker takes the raw stdout bytes of one invocation and returns a
list of failure messages (empty when the output is correct).  Only the
standard library's JSON parser reads the output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import factorial

ONE = [[0, 0, "1"]]  # the polynomial 1 in the CLI's term-list form


def check_sha256(data, expected):
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected:
        return [f"stdout sha256 {digest} != pinned {expected}"]
    return []


def partitions(total, max_parts):
    """Partitions of total with at most max_parts parts, padded with zeros."""

    def rec(rem, largest, parts):
        if rem == 0:
            yield ()
            return
        if parts == 0:
            return
        for first in range(min(rem, largest), 0, -1):
            for tail in rec(rem - first, first, parts - 1):
                yield (first,) + tail

    return [p + (0,) * (max_parts - len(p)) for p in rec(total, total, max_parts)]


def standard_tableaux(shape):
    """f^shape by the hook-length formula."""
    shape = [x for x in shape if x]
    conj = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


def _parse(data, errors):
    try:
        return json.loads(data)
    except ValueError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


def check_kostka(data, degree, n):
    """K(q,t) for partitions of degree in n variables.

    Every entry lies in N[q,t] (denominator 1, non-negative integer
    coefficients: Haiman's positivity, checked over this range only),
    K_{lam,mu}(1,1) = f^mu by the hook-length formula, and K(0,0) is the
    identity.
    """
    errors = []
    doc = _parse(data, errors)
    if doc is None:
        return errors
    labels = sorted(partitions(degree, n), reverse=True)
    if doc.get("degree") != degree or doc.get("n") != n:
        errors.append(f"header degree={doc.get('degree')} n={doc.get('n')}, expected {degree}, {n}")
    if [tuple(l) for l in doc.get("labels", [])] != labels:
        return errors + [f"labels are not the {len(labels)} partitions of {degree} in {n} parts"]
    entries = doc.get("entries", [])
    if len(entries) != len(labels) or any(len(row) != len(labels) for row in entries):
        return errors + ["matrix is not square over the labels"]
    for i, (lam, row) in enumerate(zip(labels, entries)):
        for j, (mu, entry) in enumerate(zip(labels, row)):
            where = f"K[{''.join(map(str, lam))},{''.join(map(str, mu))}]"
            if entry["den"] != ONE:
                errors.append(f"{where} has denominator {entry['den']}")
                continue
            coeffs = {(a, b): int(c) for a, b, c in entry["num"]}
            if any(c < 0 for c in coeffs.values()):
                errors.append(f"{where} has a negative coefficient")
            if sum(coeffs.values()) != standard_tableaux(mu):
                errors.append(f"{where}(1,1) = {sum(coeffs.values())} != f^mu = {standard_tableaux(mu)}")
            if coeffs.get((0, 0), 0) != (1 if i == j else 0):
                errors.append(f"{where}(0,0) = {coeffs.get((0, 0), 0)}, K(0,0) is not the identity")
    if any(not all(row) for row in doc.get("integral", [[False]])):
        errors.append("an integrality flag is false")
    return errors


def compositions(maxdeg, n):
    """All compositions of weight <= maxdeg with n parts, by (weight, lex)."""
    out = [c for c in itertools.product(range(maxdeg + 1), repeat=n) if sum(c) <= maxdeg]
    return sorted(out, key=lambda c: (sum(c), c))


def check_table(data, n, maxdeg):
    """One integral form per composition; every coefficient in Z[q,t]
    (Knop's integrality theorem) and the leading monomial z^lam present."""
    errors = []
    doc = _parse(data, errors)
    if doc is None:
        return errors
    if doc.get("n") != n or doc.get("maxdeg") != maxdeg:
        errors.append(f"header n={doc.get('n')} maxdeg={doc.get('maxdeg')}, expected {n}, {maxdeg}")
    entries = doc.get("entries", [])
    lams = compositions(maxdeg, n)
    if [tuple(e["lambda"]) for e in entries] != lams:
        return errors + [f"entries are not the {len(lams)} compositions, got {len(entries)}"]
    for entry in entries:
        lam = entry["lambda"]
        poly = entry["calE"]
        if poly["n"] != n:
            errors.append(f"calE{lam} has n={poly['n']}")
        if not any(term["z"] == lam for term in poly["terms"]):
            errors.append(f"calE{lam} lacks its leading monomial")
        bad = [term["z"] for term in poly["terms"] if term["den"] != ONE]
        if bad:
            errors.append(f"calE{lam} has non-integral coefficients at {bad[:3]}")
    return errors


def check_verify(data, suite):
    """A passing report of the named suite that ran at least one check."""
    errors = []
    doc = _parse(data, errors)
    if doc is None:
        return errors
    if doc.get("suite") != suite:
        errors.append(f"report is for suite {doc.get('suite')!r}, expected {suite!r}")
    checks = doc.get("checks", [])
    if not checks:
        errors.append(f"suite {suite} ran zero checks")
    errors += [f"check {c.get('name')} failed: {c.get('detail')}" for c in checks if c.get("passed") is not True]
    if doc.get("passed") is not True:
        errors.append(f"suite {suite} reports passed={doc.get('passed')}")
    return errors
