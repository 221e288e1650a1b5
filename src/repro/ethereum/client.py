"""Web3-style client for the baseline chain.

Wraps :class:`~repro.ethereum.chain.QuorumChain` with the ergonomic calls
a Truffle test suite would make: deploy, method transactions, native
transfers, and read-only views.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import EvmError
from repro.ethereum.chain import EthTxRecord, QuorumChain
from repro.ethereum.contract import CallContext
from repro.ethereum.evmstate import StorageView
from repro.ethereum.gas import GasMeter


class Web3Client:
    """Client bound to one QuorumChain deployment."""

    def __init__(self, chain: QuorumChain):
        self.chain = chain

    # -- transactions ------------------------------------------------------------------

    def deploy(self, contract_class_name: str, name: str, sender: str) -> EthTxRecord:
        """Deploy a registered contract class under a deployment name."""
        return self.chain.submit_and_settle(
            {
                "type": "deploy",
                "contract": contract_class_name,
                "name": name,
                "from": sender,
                "args": [],
            }
        )

    def transact(
        self,
        contract_name: str,
        method: str,
        args: list[Any],
        sender: str,
        value: int = 0,
        estimate_hints: dict[str, int] | None = None,
        settle: bool = True,
    ) -> EthTxRecord | str:
        """Send a contract-method transaction.

        Args:
            estimate_hints: extra size hints for the gas oracle (e.g.
                capability counts for ``create_bid``).
            settle: when True, run the chain to idle and return the full
                record; when False, return the tx id immediately (used by
                throughput workloads that batch submissions).
        """
        payload: dict[str, Any] = {
            "type": "call",
            "contract": contract_name,
            "method": method,
            "args": args,
            "from": sender,
            "value": value,
        }
        if estimate_hints:
            payload["estimate_hints"] = estimate_hints
        if settle:
            return self.chain.submit_and_settle(payload)
        return self.chain.submit(payload)

    def native_transfer(self, sender: str, recipient: str, value: int, settle: bool = True) -> EthTxRecord | str:
        """The native TRANSFER primitive (Fig. 2's left bar)."""
        payload = {"type": "transfer", "from": sender, "to": recipient, "value": value}
        if settle:
            return self.chain.submit_and_settle(payload)
        return self.chain.submit(payload)

    # -- reads --------------------------------------------------------------------------

    def call_view(self, contract_name: str, method: str, args: list[Any], sender: str = "0xview") -> Any:
        """Execute a view function locally (no consensus, gas not billed).

        Raises:
            EvmError: if the contract is not deployed.
        """
        application = self.chain.any_application()
        address = application.deployed.get(contract_name)
        contract = application.runtime.contracts.get(address) if address else None
        if contract is None:
            raise EvmError(f"contract {contract_name!r} is not deployed")
        meter = GasMeter()
        ctx = CallContext(
            sender=sender,
            value=0,
            meter=meter,
            storage=StorageView(application.runtime.state, address, meter),
        )
        return contract.dispatch(ctx, method, list(args))

    def balance(self, address: str) -> int:
        """Account balance on the canonical node."""
        return self.chain.any_application().runtime.state.balance(address)
