import enum

import pytest

from repro.core.entries import LogEntry
from repro.errors import SchemaError
from repro.serialization import (
    WireMessage,
    boolean,
    bytes_,
    double,
    enum as enum_field,
    message,
    repeated,
    sint64,
    string,
    uint64,
)
from repro.serialization.schema import Field
from repro.serialization.wire import WireType, encode_tag, encode_varint


class Color(enum.IntEnum):
    RED = 0
    GREEN = 1
    BLUE = 2


class Inner(WireMessage):
    value = uint64(1)
    label = string(2)


class Sample(WireMessage):
    count = uint64(1)
    delta = sint64(2)
    ratio = double(3)
    flag = boolean(4)
    name = string(5)
    blob = bytes_(6)
    color = enum_field(7, Color)
    inner = message(8, Inner)
    tags = repeated(string(9))
    values = repeated(uint64(10))


class TestRoundtrip:
    def test_full_message(self):
        msg = Sample(
            count=7,
            delta=-42,
            ratio=2.5,
            flag=True,
            name="hello",
            blob=b"\x00\x01\x02",
            color=Color.BLUE,
            inner=Inner(value=5, label="in"),
            tags=["a", "b"],
            values=[1, 2, 3],
        )
        assert Sample.decode(msg.encode()) == msg

    def test_empty_message_is_zero_bytes(self):
        assert Sample().encode() == b""
        assert Sample.decode(b"") == Sample()

    def test_defaults_omitted_from_wire(self):
        # only non-default fields cost bytes (proto3 semantics)
        small = Sample(count=1).encode()
        assert len(small) == 2  # tag + varint

    def test_default_values_after_decode(self):
        msg = Sample.decode(b"")
        assert msg.count == 0
        assert msg.name == ""
        assert msg.blob == b""
        assert msg.flag is False
        assert msg.color is Color.RED
        assert msg.inner is None
        assert msg.tags == []

    def test_repeated_preserves_defaults_and_order(self):
        msg = Sample(tags=["x", "", "y"], values=[0, 5, 0])
        decoded = Sample.decode(msg.encode())
        assert decoded.tags == ["x", "", "y"]
        assert decoded.values == [0, 5, 0]

    def test_nested_message_roundtrip(self):
        msg = Sample(inner=Inner(value=9))
        assert Sample.decode(msg.encode()).inner.value == 9

    def test_unknown_fields_skipped(self):
        raw = Sample(count=3).encode()
        raw += encode_tag(99, WireType.VARINT) + encode_varint(1234)
        assert Sample.decode(raw).count == 3

    def test_encoded_size(self):
        msg = Sample(name="abc")
        assert msg.encoded_size() == len(msg.encode())


class TestValidation:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(SchemaError):
            Sample(nope=1)

    def test_uint_range(self):
        with pytest.raises(SchemaError):
            Sample(count=-1)
        with pytest.raises(SchemaError):
            Sample(count=1 << 64)

    def test_string_type_enforced(self):
        with pytest.raises(SchemaError):
            Sample(name=b"bytes")

    def test_bytes_type_enforced(self):
        with pytest.raises(SchemaError):
            Sample(blob="text")

    def test_bytearray_coerced(self):
        msg = Sample(blob=bytearray(b"ok"))
        assert msg.blob == b"ok"

    def test_nested_type_enforced(self):
        with pytest.raises(SchemaError):
            Sample(inner=Sample())

    def test_duplicate_field_numbers_rejected(self):
        with pytest.raises(SchemaError):

            class Bad(WireMessage):
                a = uint64(1)
                b = string(1)

    def test_enum_coercion(self):
        msg = Sample(color=2)
        assert msg.color is Color.BLUE

    @pytest.mark.parametrize(
        "cls, name, value",
        [
            (LogEntry, "direction", 7),
            (LogEntry, "seq", "x"),
            (LogEntry, "timestamp", "a"),
            (Sample, "color", 7),
            (Sample, "count", "x"),
            (Sample, "delta", "x"),
            (Sample, "ratio", "a"),
            (Sample, "values", ["x"]),
        ],
    )
    def test_unconvertible_value_names_the_field(self, cls, name, value):
        with pytest.raises(SchemaError, match=f"^{name}: ") as raised:
            cls(**{name: value})
        assert isinstance(raised.value.__cause__, ValueError)
        msg = cls()
        with pytest.raises(SchemaError, match=f"^{name}: "):
            setattr(msg, name, value)


class TestStorageModel:
    """A set field lives in the instance ``__dict__``; the class's
    :class:`Field` supplies only the default of an unset one."""

    def test_class_access_returns_the_field(self):
        assert isinstance(Sample.count, Field)
        assert Sample.count is Sample._fields_by_name["count"]
        assert Sample.tags.number == 9

    def test_unset_fields_read_their_defaults(self):
        msg = Sample()
        assert (msg.count, msg.name, msg.ratio, msg.color) == (0, "", 0.0, Color.RED)
        assert msg.inner is None

    def test_unset_repeated_field_reads_a_fresh_list(self):
        a, b = Sample(), Sample()
        assert a.tags == [] and a.tags is not b.tags
        a.tags.append("dropped")  # the fresh list is not stored
        assert a.tags == [] and b.tags == []

    def test_constructor_and_assignment_both_coerce(self):
        built = Sample(count=True, ratio=2, color=1, blob=bytearray(b"x"), values=(1, 2))
        assigned = Sample()
        assigned.count = True
        assigned.ratio = 2
        assigned.color = 1
        assigned.blob = bytearray(b"x")
        assigned.values = (1, 2)
        for msg in (built, assigned):
            assert type(msg.count) is int and type(msg.ratio) is float
            assert msg.color is Color.GREEN
            assert type(msg.blob) is bytes and msg.values == [1, 2]
        assert built == assigned

    def test_constructor_and_assignment_both_reject(self):
        with pytest.raises(SchemaError):
            Sample(count=-1)
        msg = Sample(count=3)
        with pytest.raises(SchemaError):
            msg.count = -1
        with pytest.raises(SchemaError):
            msg.name = b"bytes"
        assert msg.count == 3 and vars(msg) == {"count": 3}

    def test_non_field_attribute_can_be_set(self):
        msg = Sample(count=1)
        msg.note = object()
        assert msg.note is vars(msg)["note"]
        assert msg.encode() == Sample(count=1).encode()

    def test_vars_holds_only_set_fields(self):
        msg = Sample(name="n")
        msg.count = 0  # set at its default: held, still omitted on the wire
        assert vars(msg) == {"name": "n", "count": 0}
        assert msg.encode() == (
            encode_tag(5, WireType.LEN) + encode_varint(1) + b"n"
        )
        decoded = Sample.decode(msg.encode())
        assert vars(decoded) == {"name": "n"}
        assert decoded.encode() == msg.encode()


class TestInheritance:
    def test_subclass_inherits_fields(self):
        class Extended(Sample):
            extra = string(11)

        msg = Extended(count=1, extra="more")
        decoded = Extended.decode(msg.encode())
        assert decoded.count == 1 and decoded.extra == "more"


class TestRepr:
    def test_repr_shows_nondefault_fields(self):
        rep = repr(Sample(count=5, name="x"))
        assert "count=5" in rep and "name='x'" in rep and "delta" not in rep

    def test_repr_truncates_long_bytes(self):
        rep = repr(Sample(blob=b"z" * 100))
        assert "..." in rep
