"""The one decoder of typed JSON values: the rows of the work-directory
artifacts and the values of the configuration file.

A row type is a dataclass deriving from ``Row``. Attribute ``patient_id`` is
the JSON key ``patientId``; a field declared ``= json_key(name)`` has the key
``name`` instead. Its annotation (``str``, ``int``, ``float``, ``bool``,
``dict``, ``list[T]``, ``tuple[T, ...]``, ``set[str]``, ``T | None``, a row
type or a union of row types) is the JSON type ``from_dict`` requires: a JSON
integer reads as a float, a boolean as neither, a ``dict`` is any object, a
tuple is read from an array, and a set is written as a sorted array. A union
of row types reads an object as the one member whose own keys (those no other
member declares) it holds. Keys a row type does not declare are ignored.
``decode`` reads one value of such a type; the configuration decodes each
setting through it.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

from .errors import DataError

_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}
_JSON_NAMES.update({list: "an array", dict: "an object", type(None): "null"})


def _fail(where: tuple, problem: str) -> DataError:
    """The error for the field that the keys and indexes ``where`` lead to."""
    if not where:
        return DataError("not an object")
    path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in where)
    return DataError(f"field {path[1:]!r} {problem}")


def _wrong(value: object, expected: type, where: tuple) -> DataError:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return _fail(where, f"is {got}, not {_JSON_NAMES[expected]}")


def json_key(name: str) -> typing.Any:
    """A row field whose JSON key is ``name`` as written, not its camelCase."""
    return dataclasses.field(metadata={"key": name})


class Row:
    """Base of the artifact row types."""

    def to_dict(self) -> dict:
        return {key: enc(getattr(self, a)) for key, a, _, enc in _fields(type(self))}

    @classmethod
    def from_dict(cls, d: object):
        """The row ``d`` holds. A DataError names the field, as in
        ``field 'mentions[0].start' is a string, not an integer``."""
        return _decode_row(cls, d, ())


def decode(tp: typing.Any, value: object, where: tuple) -> typing.Any:
    """``value`` as the annotated type ``tp``; a DataError names the field that
    the keys and indexes ``where`` lead to."""
    return _codec(tp)[0](value, where)


def _decode_row(cls: type, value: object, where: tuple) -> Row:
    if type(value) is not dict:
        raise _wrong(value, dict, where)
    args = []
    for key, _, decode, _ in _fields(cls):
        if key not in value:
            raise _fail((*where, key), "is missing")
        args.append(decode(value[key], (*where, key)))
    return cls(*args)


@functools.cache
def _fields(cls: type) -> tuple[tuple, ...]:
    """The (JSON key, attribute, decode, encode) of each field, built once per class."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        head, *rest = f.name.split("_")
        name = f.metadata.get("key", head + "".join(word.capitalize() for word in rest))
        fields.append((name, f.name, *_codec(hints[f.name])))
    return tuple(fields)


def _decode_union(members: tuple[type, ...], value: object, where: tuple) -> Row:
    if type(value) is not dict:
        raise _wrong(value, dict, where)
    keys = [{k for k, *_ in _fields(m)} for m in members]
    own = [k.difference(*keys[:i], *keys[i + 1 :]) for i, k in enumerate(keys)]
    held = [m for m, k in zip(members, own) if k & value.keys()]
    if len(held) != 1:
        shapes = " or ".join("{" + ", ".join(sorted(k)) + "}" for k in own)
        raise _fail(where, f"does not hold the keys of exactly one of {shapes}")
    return _decode_row(held[0], value, where)


def _codec(tp: typing.Any) -> tuple[typing.Callable, typing.Callable]:
    """The decode and encode functions of one annotated type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        decode_inner, encode_inner = _codec(inner)
        return (lambda v, where: None if v is None else decode_inner(v, where)), (
            lambda v: None if v is None else encode_inner(v)
        )
    if origin in (list, set) or (origin is tuple and args[1:] == (...,)):
        decode_item, encode_item = _codec(args[0])

        def decode_list(value, where):
            if type(value) is not list:
                raise _wrong(value, list, where)
            out = [decode_item(item, (*where, i)) for i, item in enumerate(value)]
            return out if origin is list else origin(out)

        if origin is set:
            return decode_list, sorted
        return decode_list, lambda v: [encode_item(x) for x in v]
    if dataclasses.is_dataclass(tp):
        return functools.partial(_decode_row, tp), tp.to_dict
    all_rows = all(map(dataclasses.is_dataclass, args))
    if origin in (typing.Union, types.UnionType) and all_rows:
        return functools.partial(_decode_union, args), lambda row: row.to_dict()
    if tp not in (str, int, float, bool, dict):
        raise TypeError(f"no JSON row codec for {tp!r}")

    def decode(value, where):
        if type(value) is tp:
            return value
        if tp is float and type(value) is int:
            return float(value)
        raise _wrong(value, tp, where)

    return decode, lambda value: value


@dataclasses.dataclass
class PatientTerms(Row):
    """One patient's term list, a row of the standardized, rankings and external
    rankings files. Rankings rows add per-term ``scores``, which nothing reads."""

    patient_id: str
    terms: list[str]
