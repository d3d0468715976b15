"""Readers of JSON input: object keys, integer arrays and graph specs.

They check the shape and types of what a file holds and build nothing, so
that a command which needs only a graph's parameters (a closed-form
distribution over a generator spec) reads them without loading
:mod:`eqpart.graphs`; that module re-exports every name here.
"""
from __future__ import annotations

from collections.abc import Iterable

from .errors import EqpartError


def read_key(doc, key: str, what: str):
    """``doc[key]``, where ``doc`` is a JSON object read from a ``what``
    (say "coloring file"); anything else raises EqpartError."""
    if not isinstance(doc, dict):
        raise EqpartError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise EqpartError(f"{what} has no {key!r} key")
    return doc[key]


def read_ints(values, what: str) -> list[int]:
    """``values`` as a list of ints, where ``values`` is a JSON array read as
    ``what`` (say "colors"); an entry that is not a JSON integer (a bool, a
    string or a float) raises EqpartError naming its index."""
    if isinstance(values, (str, bytes, dict)) or not isinstance(values, Iterable):
        raise EqpartError(f"{what} must be an array of integers, got {type(values).__name__}")
    values = list(values)
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise EqpartError(f"{what} entry {i} is not an integer: {v!r}")
    return values


def _int_key(spec: dict, key: str) -> int:
    value = read_key(spec, key, f"{spec.get('gen', 'edge-list')} graph spec")
    if isinstance(value, bool) or not isinstance(value, int):
        raise EqpartError(f"graph spec key {key!r} must be an integer, got {value!r}")
    return value


def _is_int_pair(e) -> bool:
    return isinstance(e, list) and len(e) == 2 and all(
        isinstance(x, int) and not isinstance(x, bool) for x in e
    )


def read_spec(spec) -> tuple:
    """Check the keys and types of a JSON graph spec and return it as a tuple:
    ("hamming", n, q), ("johnson", n, k), ("halved", n, sign), ("product",
    left, right) with the factor specs not yet read, or ("edges", n, edges).

    Accepted forms: {"gen":"hamming","n":..,"q":..}, {"gen":"johnson","n":..,
    "k":..}, {"gen":"halved","n":..,"sign":"even"|"odd"}, {"gen":"product",
    "left":<spec>,"right":<spec>}, or {"n_vertices":N,"edges":[[u,v],...]}.
    A missing or mistyped key raises EqpartError.  Parameter ranges are
    checked by the generators and by the closed-form intersection arrays.
    """
    if not isinstance(spec, dict):
        raise EqpartError(f"graph spec must be a JSON object, got {type(spec).__name__}")
    if "edges" in spec:
        n, edges = _int_key(spec, "n_vertices"), spec["edges"]
        if n < 1:
            raise EqpartError(f"edge-list graph needs n_vertices >= 1, got {n}")
        if not isinstance(edges, list) or not all(_is_int_pair(e) for e in edges):
            raise EqpartError("graph spec edges must be a list of [u, v] integer pairs")
        return ("edges", n, edges)
    gen = spec.get("gen")
    if gen == "hamming":
        return (gen, _int_key(spec, "n"), _int_key(spec, "q"))
    if gen == "johnson":
        return (gen, _int_key(spec, "n"), _int_key(spec, "k"))
    if gen == "halved":
        sign = spec.get("sign", "even")
        if sign not in ("even", "odd"):
            raise EqpartError(f"halved cube sign must be 'even' or 'odd', got {sign!r}")
        return (gen, _int_key(spec, "n"), sign)
    if gen == "product":
        what = "product graph spec"
        return (gen, read_key(spec, "left", what), read_key(spec, "right", what))
    raise EqpartError(f"unknown graph spec: {spec!r}")


def spec_key(spec) -> tuple:
    """:func:`read_spec` with the factors of a product read as well and an
    edge list as a tuple of pairs, so that the key is hashable: two specs
    with equal keys describe the same graph, vertex order included."""
    kind, a, b = read_spec(spec)
    if kind == "product":
        return (kind, spec_key(a), spec_key(b))
    if kind == "edges":
        return (kind, a, tuple(map(tuple, b)))
    return (kind, a, b)
