"""The toolkit's exceptions and its checks on JSON objects, config keys and field types.
It imports no numpy, so ``advise`` runs without it; ``core`` imports each name back."""

from __future__ import annotations

import functools
import json
import sys
import types
import typing
from dataclasses import fields


class ForevalError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ForevalError):
    """Input violates a documented invariant (domain error)."""


class DataValidationError(ValidationError):
    """Input data is malformed: non-finite values, or keys that do not line up."""


class InsufficientHistoryError(ValidationError):
    """The requested operation needs more observations than are available."""


def json_object(text: str, what: str) -> dict:
    """Parse a JSON object; bad JSON or another JSON type is a ``ValidationError``."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past Python's digit limit, or deep nesting
        raise ValidationError(f"{what} JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} JSON must be an object")
    return data


def from_fields(cls, data: dict, what: str):
    """Dataclass ``cls`` from a parsed JSON object; a key that names no field (so a misspelt
    key is not ignored) and a missing field are each a ``ValidationError``."""
    allowed = [f.name for f in fields(cls)]
    if unknown := [k for k in data if k not in allowed]:
        raise ValidationError(f"{what} has unknown key {unknown[0]!r}; allowed keys are {allowed}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ValidationError(f"bad {what}: {exc}") from None


# per type: the classes it accepts, the numpy scalar classes it accepts (looked up by name at each check, as
# none exists before numpy is imported), and one value and several described; a bool is not a number
_TYPES = {bool: ((bool,), ("bool_",), "true or false", "booleans"),
          int: ((int,), ("integer",), "an integer", "integers"),
          float: ((int, float), ("integer", "floating"), "a number", "numbers"),
          str: ((str,), (), "a string", "strings"),
          dict: ((dict,), (), "an object", "objects")}


@functools.cache
def _type_check(hint) -> tuple:
    """``(classes, predicate, description)`` for values of type ``hint``: a ``_TYPES`` key,
    a union (``X | None`` lets None through), or ``tuple[X, ...]`` or ``frozenset[X]``, given
    as a list or tuple of X values (the frozenset also as a set), X a ``_TYPES`` key or a union
    of them. A value whose exact class is in ``classes`` passes without the slower ``predicate``."""
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        classes, oks, what = zip(*(_type_check(a) for a in args if a is not type(None)))
        none = {type(None)} if len(oks) < len(args) else set()
        return frozenset(none).union(*classes), lambda v: any(ok(v) for ok in oks), " or ".join(what)
    if origin:
        each = _type_check(args[0])[1]
        several = " or ".join(_TYPES[a][3] for a in typing.get_args(args[0]) or args[:1])
        seq = (list, tuple) if origin is tuple else (list, tuple, set, frozenset)
        return frozenset(), lambda v: isinstance(v, seq) and all(map(each, v)), f"a list of {several}"
    accepted, numpy_names, what, _ = _TYPES[hint]
    bool_ok = hint is bool

    def ok(v) -> bool:
        np = sys.modules.get("numpy")
        return (isinstance(v, accepted) and (bool_ok or type(v) is not bool)
                or np is not None and isinstance(v, tuple(getattr(np, name) for name in numpy_names)))
    return frozenset(accepted), ok, what


def check_type(what: str, value, hint) -> None:
    """A ``ValidationError`` naming ``what`` unless ``value`` is of type ``hint``."""
    classes, ok, description = _type_check(hint)
    if type(value) not in classes and not ok(value):
        raise ValidationError(f"{what} must be {description}, got {value!r}")


@functools.cache
def _field_checks(cls) -> tuple:
    return tuple((name, *_type_check(hint)) for name, hint in typing.get_type_hints(cls).items())


def check_fields(obj, owner: str) -> None:
    """``check_type`` on each field of the dataclass ``obj``, naming ``owner`` and the field.
    Each class's annotations are resolved once."""
    for name, classes, ok, description in _field_checks(type(obj)):
        value = getattr(obj, name)
        if type(value) not in classes and not ok(value):
            raise ValidationError(f"{owner} {name} must be {description}, got {value!r}")
