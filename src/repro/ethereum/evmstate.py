"""EVM-style world state: accounts, balances and 2^256-slot storage.

The paper's analysis (Section 5.2.1) pins ETH-SC's latency growth on "the
smart contract's storage structure, comprising a vast array of 2^256
slots" with keccak-placed mapping entries.  This module models exactly
that: per-account sparse storage keyed by 256-bit slot indices, with
mapping entries living at ``keccak(key . base_slot)`` and dynamic-array
elements at ``keccak(base_slot) + i`` — so that contract-level data
structures pay per-slot gas for every word they touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import RevertError
from repro.crypto.hashing import keccak_like_slot
from repro.ethereum.gas import (
    G_SLOAD_COLD,
    G_SLOAD_WARM,
    G_SSTORE_CLEAR_REFUND,
    G_SSTORE_RESET,
    G_SSTORE_SET,
    GasMeter,
    keccak_gas,
    words,
)

WORD_BYTES = 32


@dataclass
class Account:
    """One address's state."""

    balance: int = 0
    nonce: int = 0
    storage: dict[int, int] = field(default_factory=dict)


class WorldState:
    """Addresses -> accounts, with metered storage access helpers."""

    def __init__(self) -> None:
        self._accounts: dict[str, Account] = {}

    def account(self, address: str) -> Account:
        entry = self._accounts.get(address)
        if entry is None:
            entry = Account()
            self._accounts[address] = entry
        return entry

    def balance(self, address: str) -> int:
        return self.account(address).balance

    def credit(self, address: str, amount: int) -> None:
        self.account(address).balance += amount

    def debit(self, address: str, amount: int) -> None:
        """Raises RevertError on insufficient balance."""
        account = self.account(address)
        if account.balance < amount:
            raise RevertError(
                f"insufficient balance: {account.balance} < {amount} at {address[:10]}"
            )
        account.balance -= amount


class StorageView:
    """Gas-metered storage access for one contract account.

    Tracks warm slots per execution (EIP-2929-style warm/cold pricing).
    """

    def __init__(self, state: WorldState, address: str, meter: GasMeter):
        self._account = state.account(address)
        self._meter = meter
        self._warm: set[int] = set()

    def sload(self, slot: int) -> int:
        """Read a storage word (cold reads cost 21x warm reads)."""
        if slot in self._warm:
            self._meter.charge(G_SLOAD_WARM)
        else:
            self._meter.charge(G_SLOAD_COLD)
            self._warm.add(slot)
        return self._account.storage.get(slot, 0)

    def sstore(self, slot: int, value: int) -> None:
        """Write a storage word (set/reset/clear pricing)."""
        current = self._account.storage.get(slot, 0)
        if current == 0 and value != 0:
            self._meter.charge(G_SSTORE_SET)
        elif current != 0 and value == 0:
            self._meter.charge(G_SSTORE_RESET)
            self._meter.add_refund(G_SSTORE_CLEAR_REFUND)
        else:
            self._meter.charge(G_SSTORE_RESET)
        if value == 0:
            self._account.storage.pop(slot, None)
        else:
            self._account.storage[slot] = value
        self._warm.add(slot)

    # -- Solidity layout helpers ---------------------------------------------------

    def mapping_slot(self, base_slot: int, key: str | int) -> int:
        """Slot of ``mapping[key]`` at ``base_slot`` (keccak-placed).

        Charges the keccak gas Solidity pays to compute the location.
        """
        key_bytes = key.to_bytes(32, "big") if isinstance(key, int) else str(key).encode()
        self._meter.charge(keccak_gas(len(key_bytes) + WORD_BYTES))
        return keccak_like_slot(key_bytes + base_slot.to_bytes(32, "big"))

    def array_data_slot(self, base_slot: int, index: int) -> int:
        """Slot of dynamic array element ``i`` (keccak(base) + i)."""
        self._meter.charge(keccak_gas(WORD_BYTES))
        return (keccak_like_slot(base_slot.to_bytes(32, "big")) + index) % (1 << 256)

    def store_string(self, slot: int, text: str) -> None:
        """Write a string: length word + one word per 32 bytes."""
        data = text.encode()
        self.sstore(slot, len(data))
        for index in range(words(len(data))):
            chunk = data[index * WORD_BYTES : (index + 1) * WORD_BYTES]
            word_slot = self.array_data_slot(slot, index)
            self.sstore(word_slot, int.from_bytes(chunk.ljust(WORD_BYTES, b"\0"), "big"))

    def load_string_gas(self, slot: int, text_len: int) -> None:
        """Charge the reads needed to materialise a stored string."""
        self.sload(slot)
        for index in range(words(text_len)):
            self.sload(self.array_data_slot(slot, index))
