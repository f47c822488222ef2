"""Declarative protobuf-style messages.

A message class declares numbered fields; instances encode to (and decode
from) protobuf wire format.  Example::

    class LogRecord(WireMessage):
        component = string(1)
        seq = uint64(2)
        payload = bytes_(3)
        timestamp = double(4)

    raw = LogRecord(component="camera", seq=7, payload=b"...", timestamp=1.5).encode()
    rec = LogRecord.decode(raw)

Semantics follow proto3: fields at their default value (0, "", b"", False)
are omitted on the wire; unknown fields are skipped on decode.

A set field lives in the instance ``__dict__``, so reading it is a plain
attribute lookup; the class's :class:`Field` only supplies the default of
an unset one.  Every write -- constructor keyword or attribute
assignment -- is coerced by the field, and ``vars(msg)`` holds exactly
the fields that were set.

Encoding builds one list of chunks for the whole message, nested messages
included: a bytes field contributes its short header and then the value
object itself.  :meth:`WireMessage.encode_parts` joins only the short runs
between values of :data:`LARGE_VALUE` bytes or more, which stay their own
buffers, so a scatter-gather send copies no payload at all;
:meth:`WireMessage.encode` joins those parts, so it copies a large
payload exactly once.
"""

from __future__ import annotations

import enum as _enum
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import DecodingError, SchemaError
from repro.serialization import wire
from repro.serialization.wire import WireType

# Value decoders of :meth:`WireMessage.decode`, ordered so one comparison
# separates the varint-coded kinds from the length-delimited ones.
_UINT, _SINT, _BOOL, _ENUM, _DOUBLE, _BYTES, _STRING, _MESSAGE = range(8)

#: Chunks at least this long stay their own part in
#: :meth:`WireMessage.encode_parts`; shorter ones are joined.
LARGE_VALUE = 64 * 1024


class Field:
    """A numbered field of a :class:`WireMessage`: a non-data descriptor
    that answers for the field only while the instance has not set it."""

    def __init__(self, number: int, default: Any):
        if number < 1:
            raise SchemaError("field numbers start at 1")
        self.number = number
        self.default = default
        self.name: str = "<unbound>"

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        return self if instance is None else self.default_value()

    def default_value(self) -> Any:
        return self.default

    def coerce(self, value: Any) -> Any:
        """Validate/convert an assigned value; subclasses override."""
        return value

    def _convert(self, convert: Callable[[Any], Any], value: Any) -> Any:
        """``convert(value)``; a failure is a SchemaError naming the field."""
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{self.name}: {exc}") from exc

    def is_default(self, value: Any) -> bool:
        return value == self.default_value()

    # -- wire interface -------------------------------------------------
    def encode(self, value: Any, out: List[bytes]) -> None:
        """Append tag + value to ``out`` as chunks, default or not (the
        message skips a default singular field; a repeated element is
        always written)."""
        raise NotImplementedError

    def mismatch(self, wire_type: WireType) -> DecodingError:
        """The rejection for this field arriving as ``wire_type``."""
        raise NotImplementedError


class _ScalarField(Field):
    """Shared machinery for the scalar field kinds: ``kind`` names the
    value decoder, ``tag`` is the encoded field tag, fixed at declaration."""

    wire_type: WireType
    kind: int

    def __init__(self, number: int, default: Any):
        super().__init__(number, default)
        self.tag = wire.encode_tag(number, self.wire_type)

    def mismatch(self, wire_type: WireType) -> DecodingError:
        return DecodingError(
            f"field {self.number} ({self.name}): expected wire type "
            f"{self.wire_type.name}, got {wire_type.name}"
        )


class UInt64Field(_ScalarField):
    """Unsigned 64-bit varint field."""

    wire_type = WireType.VARINT
    kind = _UINT

    def __init__(self, number: int):
        super().__init__(number, default=0)

    def coerce(self, value: Any) -> int:
        value = self._convert(int, value)
        if not 0 <= value < 1 << 64:
            raise SchemaError(f"{self.name}: value out of uint64 range")
        return value

    def encode(self, value: int, out: List[bytes]) -> None:
        out.append(self.tag + wire.encode_varint(value))


class SInt64Field(_ScalarField):
    """Signed 64-bit field, zigzag-encoded varint."""

    wire_type = WireType.VARINT
    kind = _SINT

    def __init__(self, number: int):
        super().__init__(number, default=0)

    def coerce(self, value: Any) -> int:
        value = self._convert(int, value)
        if not -(1 << 63) <= value < 1 << 63:
            raise SchemaError(f"{self.name}: value out of int64 range")
        return value

    def encode(self, value: int, out: List[bytes]) -> None:
        out.append(self.tag + wire.encode_varint(wire.zigzag_encode(value)))


class BoolField(_ScalarField):
    """Boolean field encoded as a 0/1 varint."""

    wire_type = WireType.VARINT
    kind = _BOOL

    def __init__(self, number: int):
        super().__init__(number, default=False)

    def coerce(self, value: Any) -> bool:
        return bool(value)

    def encode(self, value: bool, out: List[bytes]) -> None:
        out.append(self.tag + (b"\x01" if value else b"\x00"))


class DoubleField(_ScalarField):
    """IEEE-754 double field (I64 wire type)."""

    wire_type = WireType.I64
    kind = _DOUBLE

    def __init__(self, number: int):
        super().__init__(number, default=0.0)

    def coerce(self, value: Any) -> float:
        return self._convert(float, value)

    def encode(self, value: float, out: List[bytes]) -> None:
        # -0.0 equals the default, so it is written as the default is
        out.append(self.tag + wire.encode_double(value or 0.0))


class BytesField(_ScalarField):
    """Raw bytes field (LEN wire type)."""

    wire_type = WireType.LEN
    kind = _BYTES

    def __init__(self, number: int):
        super().__init__(number, default=b"")

    def coerce(self, value: Any) -> bytes:
        if isinstance(value, (bytearray, memoryview)):
            return bytes(value)
        if not isinstance(value, bytes):
            raise SchemaError(f"{self.name}: expected bytes, got {type(value).__name__}")
        return value

    def encode(self, value: bytes, out: List[bytes]) -> None:
        out.append(self.tag + wire.encode_varint(len(value)))
        out.append(value)


class StringField(BytesField):
    """UTF-8 string field (LEN wire type)."""

    kind = _STRING

    def __init__(self, number: int):
        _ScalarField.__init__(self, number, default="")

    def coerce(self, value: Any) -> str:
        if not isinstance(value, str):
            raise SchemaError(f"{self.name}: expected str, got {type(value).__name__}")
        return value

    def encode(self, value: str, out: List[bytes]) -> None:
        raw = value.encode("utf-8")
        out.append(self.tag + wire.encode_varint(len(raw)) + raw)


class EnumField(_ScalarField):
    """Field holding a Python :class:`enum.IntEnum` value as a varint."""

    wire_type = WireType.VARINT
    kind = _ENUM

    def __init__(self, number: int, enum_type: Type[_enum.IntEnum]):
        self.enum_type = enum_type
        #: wire value -> member, so decoding skips the ``Enum`` call machinery
        self.members = {member.value: member for member in enum_type}
        default = list(enum_type)[0]
        super().__init__(number, default=default)

    def coerce(self, value: Any) -> _enum.IntEnum:
        return self._convert(self.enum_type, value)

    def encode(self, value: _enum.IntEnum, out: List[bytes]) -> None:
        out.append(self.tag + wire.encode_varint(int(value)))


class MessageField(Field):
    """Nested-message field (LEN wire type).

    The message type may be given lazily as a zero-argument callable to break
    declaration cycles.
    """

    wire_type = WireType.LEN
    kind = _MESSAGE

    def __init__(self, number: int, message_type):
        super().__init__(number, default=None)
        self.tag = wire.encode_tag(number, WireType.LEN)
        self._message_type = message_type

    @property
    def message_type(self) -> Type["WireMessage"]:
        if not isinstance(self._message_type, type):
            self._message_type = self._message_type()
        return self._message_type

    def coerce(self, value: Any) -> Any:
        if value is not None and not isinstance(value, self.message_type):
            raise SchemaError(
                f"{self.name}: expected {self.message_type.__name__} or None"
            )
        return value

    def encode(self, value: "WireMessage", out: List[bytes]) -> None:
        at = len(out)
        value._encode_into(out)
        out.insert(at, self.tag + wire.encode_varint(sum(map(len, out[at:]))))

    def mismatch(self, wire_type: WireType) -> DecodingError:
        return DecodingError(f"field {self.number}: nested messages use LEN")


class RepeatedField(Field):
    """Repeated (list) field wrapping an element field.

    Encoded unpacked (one tag per element), which is valid protobuf for all
    element types and keeps the implementation simple.
    """

    def __init__(self, element: Field):
        super().__init__(element.number, default=None)
        self.element = element

    def __set_name__(self, owner: type, name: str) -> None:
        super().__set_name__(owner, name)
        self.element.name = name

    def default_value(self) -> List[Any]:
        return []

    def is_default(self, value: Any) -> bool:
        return not value

    def coerce(self, value: Any) -> List[Any]:
        if value is None:
            return []
        return [self.element.coerce(v) for v in value]

    def encode(self, value: List[Any], out: List[bytes]) -> None:
        for item in value:
            self.element.encode(item, out)

    def mismatch(self, wire_type: WireType) -> DecodingError:
        return self.element.mismatch(wire_type)


class WireMessage:
    """Base class for declaratively defined wire messages."""

    _fields_by_name: Dict[str, Field]
    _fields_by_number: Dict[int, Field]
    #: fields in number order, the order :meth:`encode` emits them
    _encode_order: Tuple[Field, ...]
    #: tag value -> (kind, name, repeated, element field): every tag
    #: :meth:`decode` accepts; any other tag is skipped or rejected
    _decode_table: Dict[int, Tuple[int, str, bool, Field]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields_by_name: Dict[str, Field] = {}
        fields_by_number: Dict[int, Field] = {}
        # Walk the MRO so subclassed messages inherit parent fields.
        for klass in reversed(cls.__mro__):
            for name, attr in vars(klass).items():
                if isinstance(attr, Field):
                    if attr.number in fields_by_number and fields_by_number[attr.number].name != name:
                        raise SchemaError(
                            f"{cls.__name__}: duplicate field number {attr.number}"
                        )
                    fields_by_name[name] = attr
                    fields_by_number[attr.number] = attr
        cls._fields_by_name = fields_by_name
        cls._fields_by_number = fields_by_number
        cls._encode_order = tuple(
            sorted(fields_by_number.values(), key=lambda f: f.number)
        )
        cls._decode_table = {}
        for field in cls._encode_order:
            element = getattr(field, "element", field)
            cls._decode_table[(field.number << 3) | element.wire_type] = (
                element.kind, field.name, element is not field, element
            )

    def __init__(self, **kwargs: Any) -> None:
        values = self.__dict__
        for name, value in kwargs.items():
            field = self._fields_by_name.get(name)
            if field is None:
                raise SchemaError(f"{type(self).__name__} has no field {name!r}")
            values[name] = field.coerce(value)

    def __setattr__(self, name: str, value: Any) -> None:
        field = self._fields_by_name.get(name)
        if field is None:
            object.__setattr__(self, name, value)
        else:
            self.__dict__[name] = field.coerce(value)

    def encode(self) -> bytes:
        """Serialize to protobuf wire format (fields in number order)."""
        return b"".join(self.encode_parts())

    def encode_parts(self) -> List[bytes]:
        """The wire format as a list of buffers whose concatenation is
        :meth:`encode`: each value of :data:`LARGE_VALUE` bytes or more
        is its own part, uncopied, and the runs between them are joined."""
        out: List[bytes] = []
        self._encode_into(out)
        if not out or max(map(len, out)) < LARGE_VALUE:
            return [b"".join(out)]
        parts: List[bytes] = []
        run: List[bytes] = []
        for chunk in out:
            if len(chunk) < LARGE_VALUE:
                run.append(chunk)
                continue
            if run:
                parts.append(b"".join(run))
                run = []
            parts.append(chunk)
        if run:
            parts.append(b"".join(run))
        return parts

    def _encode_into(self, out: List[bytes]) -> None:
        """Append every non-default field's chunks to ``out``."""
        values = self.__dict__
        for field in self._encode_order:
            value = values.get(field.name)
            if value is not None and not field.is_default(value):
                field.encode(value, out)

    @classmethod
    def decode(cls, data: bytes):
        """Parse an instance from wire format, skipping unknown fields.

        One loop over :attr:`_decode_table`; ``tests/serialization/
        reference_decode.py`` holds the field-by-field decoder it must
        agree with on every input, value or error text.
        """
        instance = cls()
        values = instance.__dict__
        table = cls._decode_table
        decode_varint = wire.decode_varint
        size = len(data)
        pos = 0
        while pos < size:
            start = pos
            tag = data[pos]
            if tag < 0x80:
                pos += 1
            else:
                tag, pos = decode_varint(data, pos)
            entry = table.get(tag)
            if entry is None:
                # malformed tag, known field on another wire type, or a
                # field this schema does not know (skipped)
                number, wire_type, pos = wire.decode_tag(data, start)
                field = cls._fields_by_number.get(number)
                if field is not None:
                    raise field.mismatch(wire_type)
                pos = wire.skip_field(data, pos, wire_type)
                continue
            kind, name, repeated, field = entry
            if kind == _DOUBLE:
                value, pos = wire.decode_double(data, pos)
            else:
                # the value itself, or the length of a LEN payload
                if pos < size and data[pos] < 0x80:
                    value = data[pos]
                    pos += 1
                else:
                    value, pos = decode_varint(data, pos)
                if kind >= _BYTES:
                    end = pos + value
                    if end > size:
                        raise DecodingError("truncated length-delimited payload")
                    value = data[pos:end]
                    pos = end
                    if kind == _STRING:
                        try:
                            # str(), not .decode(): a decode over a
                            # memoryview slices memoryviews
                            value = str(value, "utf-8")
                        except UnicodeDecodeError as exc:
                            raise DecodingError(
                                f"field {field.number}: invalid UTF-8"
                            ) from exc
                    elif kind == _MESSAGE:
                        value = field.message_type.decode(value)
                elif kind == _SINT:
                    value = wire.zigzag_decode(value)
                elif kind == _BOOL:
                    value = bool(value)
                elif kind == _ENUM:
                    try:
                        value = field.members[value]
                    except KeyError:
                        raise DecodingError(
                            f"field {field.number}: {value} is not a valid "
                            f"{field.enum_type.__name__}"
                        ) from None
            if not repeated:
                values[name] = value
            elif name in values:
                values[name].append(value)
            else:
                values[name] = [value]
        return instance

    def encoded_size(self) -> int:
        """Size in bytes of :meth:`encode` output."""
        return len(self.encode())

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._fields_by_name
        )

    def __repr__(self) -> str:
        parts = []
        for name, field in self._fields_by_name.items():
            value = getattr(self, name)
            if field.is_default(value):
                continue
            shown = value
            if isinstance(value, bytes) and len(value) > 16:
                shown = value[:16] + b"..."
            parts.append(f"{name}={shown!r}")
        return f"{type(self).__name__}({', '.join(parts)})"


# ---------------------------------------------------------------------------
# Declaration helpers (the public schema DSL).
# ---------------------------------------------------------------------------

def uint64(number: int) -> UInt64Field:
    """Declare an unsigned 64-bit varint field."""
    return UInt64Field(number)


def sint64(number: int) -> SInt64Field:
    """Declare a signed 64-bit zigzag varint field."""
    return SInt64Field(number)


def double(number: int) -> DoubleField:
    """Declare an IEEE-754 double field."""
    return DoubleField(number)


def boolean(number: int) -> BoolField:
    """Declare a boolean field."""
    return BoolField(number)


def string(number: int) -> StringField:
    """Declare a UTF-8 string field."""
    return StringField(number)


def bytes_(number: int) -> BytesField:
    """Declare a raw bytes field."""
    return BytesField(number)


def enum(number: int, enum_type: Type[_enum.IntEnum]) -> EnumField:
    """Declare an IntEnum-valued field."""
    return EnumField(number, enum_type)


def message(number: int, message_type) -> MessageField:
    """Declare a nested-message field; ``message_type`` may be lazy."""
    return MessageField(number, message_type)


def repeated(element: Field) -> RepeatedField:
    """Declare a repeated field from an element declaration, e.g.
    ``repeated(string(3))``."""
    return RepeatedField(element)
