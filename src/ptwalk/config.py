"""The one JSON codec of the config dataclasses, derived from their field annotations.

``to_dict`` writes the fields in declaration order, leaving out None; tuples
become lists, nested configs objects and complex numbers [re, im] pairs.
``from_dict`` inverts it and refuses anything else, naming the path (such as
``config.metrics[0].seed``) in a ConfigInvalid: an unknown key at any level,
or a value whose JSON type does not match its annotation (a bool is never a
number; an int is accepted for a float and kept as given). A ValueError the
dataclass raises itself becomes a ConfigInvalid too.
"""

import dataclasses
import functools
import types
import typing

from .errors import ConfigInvalid

_hints = functools.cache(typing.get_type_hints)  # each class's annotations, resolved once


class Config:
    """Base of the frozen config dataclasses."""

    def to_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))
        return {name: _encode(v) for name, v in values if v is not None}

    @classmethod
    def from_dict(cls, d: dict):
        return _decode(cls, d, "config")


def _encode(value):
    if isinstance(value, Config):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _refuse(path: str, expected: str, value) -> ConfigInvalid:
    return ConfigInvalid([(path, f"expected {expected}, got {value!r}")])


def _decode(tp, value, path: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _refuse(path, "a list", value)
        args = typing.get_args(tp)
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise _refuse(path, f"a list of {len(items)}", value)
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if isinstance(tp, type) and issubclass(tp, Config):
        if not isinstance(value, dict):
            raise _refuse(path, "an object", value)
        hints = _hints(tp)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigInvalid([(path, f"unknown fields {unknown}")])
        kwargs = {k: _decode(hints[k], v, f"{path}.{k}") for k, v in value.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ConfigInvalid([(path, str(exc))]) from exc
    if tp is complex:
        return complex(*_decode(tuple[float, float], value, path))
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise _refuse(path, tp.__name__, value)
    return value
