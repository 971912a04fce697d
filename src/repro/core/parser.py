"""Textual syntax for dependencies.

Grammar (whitespace-insensitive)::

    list OD            [A,B] -> [C,D]
    order equivalence  [A,B] <-> [C]          (parsed as two list ODs)
    order compat.      [A] ~ [B,C]
    canonical FD       {A,B}: [] -> C
    canonical OCD      {A}: B ~ C

``|->`` is accepted as a synonym of ``->`` (the paper's ``↦``), and
unicode ``↦``/``↔`` are accepted too.  The printers on the dependency
classes produce exactly this syntax, so ``parse(str(dep)) == dep``.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Tuple, Union

from repro.core.od import (
    CanonicalFD,
    CanonicalOCD,
    ListOD,
    OrderCompatibility,
)
from repro.errors import ParseError
from repro.relation.schema import Schema

Dependency = Union[ListOD, OrderCompatibility, CanonicalFD, CanonicalOCD]

_ARROW = re.compile(r"\|?->|↦")
_EQUIV = re.compile(r"<->|↔")


def _strip(text: str) -> str:
    return "".join(text.split())


def _parse_name_list(text: str, opener: str, closer: str,
                     original: str) -> List[str]:
    if not (text.startswith(opener) and text.endswith(closer)):
        raise ParseError(
            f"expected {opener}...{closer} in {original!r}, got {text!r}")
    body = text[1:-1]
    if not body:
        return []
    names = body.split(",")
    if any(not name for name in names):
        raise ParseError(f"empty attribute name in {original!r}")
    return names


def parse_order_spec(text: str) -> List[str]:
    """Parse ``[A,B,C]`` into a list of names; ``[]`` is the empty spec."""
    return _parse_name_list(_strip(text), "[", "]", text)


def parse_context(text: str) -> List[str]:
    """Parse ``{A,B}`` into a list of names; ``{}`` is the empty context."""
    return _parse_name_list(_strip(text), "{", "}", text)


def _split_once(text: str, pattern: re.Pattern,
                original: str) -> Tuple[str, str]:
    parts = pattern.split(text, maxsplit=1)
    if len(parts) != 2:
        raise ParseError(f"could not split {original!r}")
    return parts[0], parts[1]


def parse(text: str) -> Dependency:
    """Parse any dependency; the shape decides which class comes back.

    >>> parse("{A}: [] -> B")
    CanonicalFD(['A'], 'B')
    >>> parse("[A] ~ [B]")
    OrderCompatibility(['A'], ['B'])
    """
    compact = _strip(text)
    if not compact:
        raise ParseError("empty dependency string")
    if compact.startswith("{"):
        return _parse_canonical(compact, text)
    if compact.startswith("["):
        return _parse_list_form(compact, text)
    raise ParseError(
        f"a dependency starts with '{{' (canonical) or '[' (list): {text!r}")


def _parse_canonical(compact: str, original: str) -> Dependency:
    closer = compact.find("}")
    if closer < 0 or len(compact) <= closer + 1 \
            or compact[closer + 1] != ":":
        raise ParseError(f"expected '{{context}}:' prefix in {original!r}")
    context = parse_context(compact[:closer + 1])
    body = compact[closer + 2:]
    if _ARROW.search(body):
        lhs, rhs = _split_once(body, _ARROW, original)
        if _strip(lhs) != "[]":
            raise ParseError(
                f"canonical FDs read '{{X}}: [] -> A', got {original!r}")
        if not rhs or "," in rhs:
            raise ParseError(
                f"canonical FD right side must be one attribute: {original!r}")
        return CanonicalFD(context, rhs)
    if "~" in body:
        left, right = _split_once(body, re.compile(r"~"), original)
        if not left or not right:
            raise ParseError(f"malformed canonical OCD: {original!r}")
        return CanonicalOCD(context, left, right)
    raise ParseError(f"expected '->' or '~' in {original!r}")


def _parse_list_form(compact: str, original: str) -> Dependency:
    if _EQUIV.search(compact):
        raise ParseError(
            "order equivalence 'X <-> Y' is two ODs; use "
            "parse_equivalence() to obtain both directions")
    if _ARROW.search(compact):
        lhs, rhs = _split_once(compact, _ARROW, original)
        return ListOD(parse_order_spec(lhs), parse_order_spec(rhs))
    if "~" in compact:
        lhs, rhs = _split_once(compact, re.compile(r"~"), original)
        return OrderCompatibility(parse_order_spec(lhs),
                                  parse_order_spec(rhs))
    raise ParseError(f"expected '->', '<->' or '~' in {original!r}")


def parse_equivalence(text: str) -> Tuple[ListOD, ListOD]:
    """Parse ``[X] <-> [Y]`` into the OD pair (X ↦ Y, Y ↦ X)."""
    compact = _strip(text)
    if not _EQUIV.search(compact):
        raise ParseError(f"expected '<->' in {text!r}")
    lhs, rhs = _split_once(compact, _EQUIV, text)
    forward = ListOD(parse_order_spec(lhs), parse_order_spec(rhs))
    return forward, forward.reversed()


def _attribute_names(dependency: Dependency) -> FrozenSet[str]:
    """Every attribute name ``dependency`` mentions."""
    if isinstance(dependency, CanonicalFD):
        return dependency.context | {dependency.attribute}
    if isinstance(dependency, CanonicalOCD):
        return dependency.context | {dependency.left, dependency.right}
    return frozenset(dependency.lhs.attrs + dependency.rhs.attrs)


def parse_for(text: str, schema: Schema) -> Dependency:
    """:func:`parse` for one relation: a name ``schema`` lacks raises
    :class:`~repro.errors.SchemaError` here, at the edge, instead of a
    ``KeyError`` deep in validation."""
    dependency = parse(text)
    schema.indices(sorted(_attribute_names(dependency)))
    return dependency
