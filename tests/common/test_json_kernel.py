"""The canonical JSON kernel gives the stdlib's bytes and errors, with
orjson bound and with orjson unimportable.

Every case runs twice (``kernel`` fixture): on ``repro.common.encoding``
as imported — orjson serving plain values when it is installed — and on
a fresh copy of the module loaded while ``import orjson`` fails.  The
reference is ``json.dumps(sort_keys=True, separators=(",", ":"),
ensure_ascii=False)``; an encode gives the reference's text, or an
``EncodingError`` exactly when the reference raises ``TypeError`` /
``ValueError``.  A decode gives equal values of equal types.
"""

import datetime
import enum
import importlib.util
import json
import math
import sys
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import encoding
from repro.common.errors import EncodingError


def stdlib_kernel(monkeypatch):
    """A copy of the encoding module loaded with orjson unimportable."""
    monkeypatch.setitem(sys.modules, "orjson", None)
    spec = importlib.util.spec_from_file_location("encoding_without_orjson", encoding.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._orjson is None and module.json_kernel() == "json (stdlib)"
    return module


@pytest.fixture(params=["as-imported", "orjson-unimportable"])
def kernel(request, monkeypatch):
    if request.param == "as-imported":
        return encoding
    return stdlib_kernel(monkeypatch)


def reference(value):
    """The stdlib's verdict: the canonical text, or the error class."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    except (TypeError, ValueError):
        return EncodingError


def outcome(kernel, value):
    try:
        return kernel.canonical_serialize(value)
    except EncodingError:
        return EncodingError


def assert_same_types(left, right, path="$"):
    """Equal values of equal types, all the way down."""
    assert type(left) is type(right), f"{path}: {type(left).__name__} != {type(right).__name__}"
    if isinstance(left, dict):
        assert list(left) == list(right), path
        for key in left:
            assert_same_types(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, list):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            assert_same_types(a, b, f"{path}[{index}]")
    elif isinstance(left, float) and math.isnan(left):
        assert math.isnan(right), path
    else:
        assert left == right, path


class Colour(enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


class Text(str):
    pass


class Number(int):
    pass


class Mapping(dict):
    pass


EDGE_CASES = [
    # floats: exponent forms orjson writes differently, NaN and infinities
    # (orjson writes null), and -0.0
    1e16, 1.5e-05, 1e22, 5e-324, 1e-7, 0.1, 123.456, -0.0, float("nan"),
    float("inf"), float("-inf"), {"price": 1e16}, [1.0, 2.5],
    # ints at orjson's bounds
    2**63 - 1, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64), 10**30,
    {"big": 2**64}, [2**64 - 1, -(2**63)],
    # keys json coerces or refuses
    {1: "a"}, {True: 1}, {None: 2}, {1.5: 3}, {"a": 1, 2: "b"}, {(1, 2): 3},
    # subclasses and tuples
    Text("x"), {"k": Text("x")}, Number(5), {"k": Number(5)}, Mapping(a=1),
    {"k": Mapping(b=2)}, (1, 2), {"k": (1, [2, (3,)])}, {Text("k"): 1},
    True, False, None, {"t": True, "f": False, "n": None},
    # what orjson accepts and json refuses
    datetime.date(2024, 1, 2), datetime.datetime(2024, 1, 2, 3, 4),
    uuid.UUID(int=7), Colour.RED, Level.HIGH, {"k": Colour.RED}, {"k": Level.HIGH},
    {"when": datetime.date(2024, 1, 2)}, [uuid.UUID(int=7)], object(), b"bytes", {1, 2},
    # text: lone surrogates, control characters, U+2028/9, astral keys
    "\ud800", {"k": "\udfff"}, {"\ud800": 1}, "\x00\x1f\x7f\b\f\n\r\t\"\\/",
    {"k": "  "}, {"😀": 1, "z": 2, "￿": 3, "é": 4, "": 5},
    "naïve", {"k": "a\u0085b"},
    # nesting and empties
    {}, [], {"a": {}, "b": [], "c": [{}]}, [[[[[]]]]],
]


@pytest.mark.parametrize("value", EDGE_CASES, ids=[repr(v)[:40] for v in EDGE_CASES])
def test_edge_cases_encode_as_the_stdlib(kernel, value):
    assert outcome(kernel, value) == reference(value)


def test_only_plain_values_are_plain():
    plain = [{"a": [1, "x", None, True, (2, 3)]}, 2**64 - 1, -(2**63), "\ud800", {}]
    for value in plain:
        assert encoding.is_plain(value), value
    for value in [1.0, 2**64, -(2**63) - 1, {1: 2}, Text("x"), Mapping(), Colour.RED,
                  uuid.UUID(int=1), datetime.date(2024, 1, 1), {"k": [0.5]}, object()]:
        assert not encoding.is_plain(value), value


def test_too_deep_values_fail_as_the_stdlib_does(kernel):
    value: list = []
    for _ in range(100_000):
        value = [value]
    with pytest.raises(RecursionError):
        json.dumps(value)
    assert not kernel.is_plain(value)
    with pytest.raises(RecursionError):
        kernel.canonical_serialize(value)


def test_a_cycle_is_an_encoding_error(kernel):
    value: dict = {}
    value["self"] = value
    assert reference(value) is EncodingError
    assert outcome(kernel, value) is EncodingError


def test_canonical_bytes_of_a_lone_surrogate_fail_alike(kernel):
    with pytest.raises(UnicodeEncodeError):
        "\ud800".encode("utf-8")
    with pytest.raises(UnicodeEncodeError):
        kernel.canonical_bytes({"k": "\ud800"})


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_generated_values_encode_as_the_stdlib(value):
    assert outcome(encoding, value) == reference(value)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_generated_values_encode_as_the_stdlib_without_orjson(value):
    with pytest.MonkeyPatch.context() as patch:
        kernel = stdlib_kernel(patch)
    assert outcome(kernel, value) == reference(value)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_plain_bytes_decode_to_equal_values_of_equal_types(value):
    if not encoding.is_plain(value):
        return
    try:
        data = encoding.canonical_bytes(value)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 bytes
        return
    assert_same_types(encoding.decode_plain(data), json.loads(data))


@pytest.mark.parametrize(
    "value",
    [{"big": 2**64 - 1, "small": -(2**63)}, [0, 1, -1, True, None, "x", {"a": []}]],
)
def test_decode_keeps_int_types_at_the_bounds(kernel, value):
    data = kernel.canonical_bytes(value)
    assert_same_types(kernel.decode_plain(data), json.loads(data))


class TestFrozenBytes:
    def test_encodes_once_and_knows_plainness(self, monkeypatch):
        calls = []
        real = encoding.canonical_serialize
        monkeypatch.setattr(encoding, "canonical_serialize", lambda v: calls.append(1) or real(v))
        plain, mixed = {"a": [1, "x"]}, {"a": 1.5}
        assert encoding.frozen_bytes(plain) == encoding.frozen_bytes(plain) == b'{"a":[1,"x"]}'
        assert encoding.frozen_bytes(mixed) == b'{"a":1.5}'
        assert len(calls) == 2
        assert encoding.known_plain(plain) is (encoding._orjson is not None)
        assert not encoding.known_plain(mixed)
        assert not encoding.known_plain({"a": [1, "x"]})  # equal, not the same object

    def test_an_error_is_not_kept(self):
        with pytest.raises(EncodingError):
            encoding.frozen_bytes({"k": object()})

    def test_the_memo_is_bounded_and_identity_checked(self):
        memo = encoding.FrozenMemo(2)
        first, second, third = {"n": 1}, {"n": 2}, {"n": 3}
        for value in (first, second, third):
            memo.put(value, value["n"])
        assert (memo.get(first), memo.get(second), memo.get(third)) == (None, 2, 3)
        assert memo.get({"n": 2}) is None
