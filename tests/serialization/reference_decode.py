"""The generic, field-by-field ``WireMessage`` decoder -- the oracle.

This is the decode loop ``repro.serialization.schema`` shipped before
``WireMessage.decode`` became one table-driven loop: read a tag with
``wire.decode_tag``, look the field up by number, let the field's kind
check the wire type and decode its value, and rebuild the list of a
repeated field on every element.  It is kept (here, not under ``src/``)
because it is obviously right and shares no code with the fast decoder
beyond the ``wire`` primitives: ``test_decoder_differential.py`` requires
the two to agree on every input -- the same value, or the same
``DecodingError`` text.
"""

from __future__ import annotations

from typing import Any, Tuple, Type

from repro.errors import DecodingError
from repro.serialization import schema, wire
from repro.serialization.wire import WireType


def _check_wire_type(field: schema.Field, wire_type: WireType) -> None:
    if wire_type is not field.wire_type:
        raise DecodingError(
            f"field {field.number} ({field.name}): expected wire type "
            f"{field.wire_type.name}, got {wire_type.name}"
        )


def _decode_field(
    field: schema.Field, data: bytes, offset: int, wire_type: WireType
) -> Tuple[Any, int]:
    if isinstance(field, schema.RepeatedField):
        return _decode_field(field.element, data, offset, wire_type)
    if isinstance(field, schema.MessageField):
        if wire_type is not WireType.LEN:
            raise DecodingError(f"field {field.number}: nested messages use LEN")
        payload, pos = wire.decode_length_delimited(data, offset)
        return reference_decode(field.message_type, payload), pos
    _check_wire_type(field, wire_type)
    if isinstance(field, schema.UInt64Field):
        return wire.decode_varint(data, offset)
    if isinstance(field, schema.SInt64Field):
        raw, pos = wire.decode_varint(data, offset)
        return wire.zigzag_decode(raw), pos
    if isinstance(field, schema.BoolField):
        raw, pos = wire.decode_varint(data, offset)
        return bool(raw), pos
    if isinstance(field, schema.EnumField):
        raw, pos = wire.decode_varint(data, offset)
        try:
            return field.enum_type(raw), pos
        except ValueError as exc:
            raise DecodingError(
                f"field {field.number}: {raw} is not a valid "
                f"{field.enum_type.__name__}"
            ) from exc
    if isinstance(field, schema.DoubleField):
        return wire.decode_double(data, offset)
    if isinstance(field, schema.StringField):
        payload, pos = wire.decode_length_delimited(data, offset)
        try:
            return payload.decode("utf-8"), pos
        except UnicodeDecodeError as exc:
            raise DecodingError(f"field {field.number}: invalid UTF-8") from exc
    if isinstance(field, schema.BytesField):
        return wire.decode_length_delimited(data, offset)
    raise AssertionError(f"unhandled field kind {type(field).__name__}")


def reference_decode(cls: Type[schema.WireMessage], data: bytes):
    """Parse a ``cls`` from wire format, skipping unknown fields."""
    instance = cls()
    offset = 0
    while offset < len(data):
        number, wire_type, offset = wire.decode_tag(data, offset)
        field = cls._fields_by_number.get(number)
        if field is None:
            offset = wire.skip_field(data, offset, wire_type)
            continue
        value, offset = _decode_field(field, data, offset, wire_type)
        if isinstance(field, schema.RepeatedField):
            current = instance.__dict__.get(field.name)
            value = (list(current) if current else []) + [value]
        instance.__dict__[field.name] = value
    return instance
