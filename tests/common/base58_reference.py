"""The base58 loops ``repro.common.encoding`` used before its chunked
kernel: one ``divmod`` per digit out, one multiply-add per digit in.
Kept as the reference of ``test_base58_kernel.py``."""

from repro.common.encoding import BASE58_ALPHABET
from repro.common.errors import EncodingError

_INDEX = {char: index for index, char in enumerate(BASE58_ALPHABET)}


def base58_encode(data: bytes) -> str:
    leading_zeros = 0
    for byte in data:
        if byte == 0:
            leading_zeros += 1
        else:
            break
    number = int.from_bytes(data, "big")
    digits: list[str] = []
    while number > 0:
        number, remainder = divmod(number, 58)
        digits.append(BASE58_ALPHABET[remainder])
    return "1" * leading_zeros + "".join(reversed(digits))


def base58_decode(text: str) -> bytes:
    leading_ones = 0
    for char in text:
        if char == "1":
            leading_ones += 1
        else:
            break
    number = 0
    for char in text:
        try:
            number = number * 58 + _INDEX[char]
        except KeyError:
            raise EncodingError(f"invalid base58 character: {char!r}") from None
    body = b"" if number == 0 else number.to_bytes((number.bit_length() + 7) // 8, "big")
    return b"\x00" * leading_ones + body
