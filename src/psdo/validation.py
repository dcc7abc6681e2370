"""Published JSON schemas for manifests, descriptors and reports, plus a
small validator covering the schema subset those files use (type,
required, properties, enum, items, minimum)."""

import functools
import json
import math
from importlib import resources

from .errors import ValidationError

__all__ = ["load_schema", "validate", "SCHEMA_NAMES"]

SCHEMA_NAMES = ("manifest", "arrayfile_header", "weight", "scheme", "verify_report")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValidationError(f"unknown schema {name!r}; have {SCHEMA_NAMES}")
    ref = resources.files("psdo").joinpath(f"schemas/{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


# validate() reads each schema once per process and never mutates it;
# load_schema() keeps handing callers a fresh dict.
_cached_schema = functools.cache(load_schema)


def _type_ok(value, typename: str) -> bool:
    if typename == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if typename == "number":
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and not (isinstance(value, float) and math.isnan(value)))
    cls = _TYPES.get(typename)
    if cls is None:
        raise ValidationError(f"schema uses unsupported type {typename!r}")
    return isinstance(value, cls)


def _validate(value, schema: dict, path: str):
    t = schema.get("type")
    if t is not None:
        options = t if isinstance(t, list) else [t]
        if not any(_type_ok(value, o) for o in options):
            raise ValidationError(f"{path}: expected type {t}, got {type(value).__name__}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValidationError(f"{path}: {value!r} not one of {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            raise ValidationError(f"{path}: {value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValidationError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]")


def validate(value, schema_name: str) -> None:
    """Raise :class:`ValidationError` if value does not match the schema."""
    _validate(value, _cached_schema(schema_name), schema_name)
