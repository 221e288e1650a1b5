"""The Quorum-style baseline chain: IBFT + sequential contract execution.

Wires the shared BFT engine (IBFT configuration: no pipelining, block gas
limit, minimum block period) to an :class:`EthApplication` that executes
native transfers and contract calls with full gas metering.  Execution is
**sequential** — the paper's Section 1 observation that "most platforms,
including Ethereum, adopt sequential execution, which lowers throughput"
is reproduced structurally: blocks are gas-bounded and every validator
re-executes every transaction before voting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.consensus.abci import envelope_for
from repro.consensus.bft import BftConfig, BftEngine
from repro.consensus.ibft import ibft_config, make_ibft_cluster
from repro.consensus.types import Block, TxEnvelope
from repro.ethereum import auction
from repro.ethereum.contract import Contract, EvmRuntime, ExecutionResult
from repro.ethereum.gas import DEFAULT_TX_GAS_LIMIT, G_TRANSACTION, execution_seconds
from repro.sim.events import EventLoop
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import SeededRng

#: Contract classes deployable by name (payloads must be plain data).
CONTRACT_CLASSES: dict[str, type[Contract]] = {
    "ReverseAuctionMarketplace": auction.ReverseAuctionMarketplace,
}


class EthApplication:
    """Replicated EVM application behind IBFT."""

    def __init__(self, node_id: str, initial_balances: dict[str, int] | None = None):
        self.node_id = node_id
        self.runtime = EvmRuntime()
        #: Deterministic deployment addresses, name -> address.
        self.deployed: dict[str, str] = {}
        self.results: dict[str, ExecutionResult] = {}
        for address, balance in (initial_balances or {}).items():
            self.runtime.state.credit(address, balance)

    # -- Application protocol -------------------------------------------------------

    def check_tx(self, envelope: TxEnvelope) -> bool:
        payload = envelope.payload
        return isinstance(payload, dict) and payload.get("type") in (
            "transfer",
            "call",
            "deploy",
        )

    def deliver_tx(self, envelope: TxEnvelope) -> bool:
        payload = envelope.payload
        kind = payload["type"]
        if kind == "transfer":
            result = self.runtime.native_transfer(
                payload["from"], payload["to"], payload.get("value", 0)
            )
        elif kind == "deploy":
            contract_class = CONTRACT_CLASSES[payload["contract"]]
            address, result = self.runtime.deploy(
                contract_class, payload["from"], payload.get("args", [])
            )
            self.deployed[payload["name"]] = address
        else:
            address = payload.get("to") or self.deployed.get(payload["contract"])
            if address is None:
                return False
            result = self.runtime.execute_call(
                address,
                payload["method"],
                payload.get("args", []),
                sender=payload["from"],
                value=payload.get("value", 0),
                gas_limit=payload.get("gas_limit", DEFAULT_TX_GAS_LIMIT),
            )
        self.results[envelope.tx_id] = result
        return result.success

    def commit_block(self, block: Block, delivered: list[TxEnvelope]) -> None:
        # World state was mutated in deliver_tx (sequential execution);
        # block commit persists headers only.
        pass

    def execution_cost(self, envelope: TxEnvelope) -> float:
        """Gas-proportional simulated compute (envelope.weight is gas)."""
        return execution_seconds(envelope.weight)

    def commit_cost(self, block: Block) -> float:
        return 0.002 + block.size_bytes * 5e-9

    # -- local views ------------------------------------------------------------------

    def registry_counts(self, contract_name: str) -> dict[str, int]:
        """Current registry sizes, feeding the gas oracle."""
        address = self.deployed.get(contract_name)
        contract = self.runtime.contracts.get(address) if address else None
        if contract is None or not hasattr(contract, "_mirror"):
            return {"assets": 0, "requests": 0, "bids": 0}
        mirror = contract._mirror  # type: ignore[attr-defined]
        return {
            "assets": len(mirror.get("assets", [])),
            "requests": len(mirror.get("requests", [])),
            "bids": len(mirror.get("bids", [])),
        }


@dataclass
class EthTxRecord:
    """Lifecycle record mirroring the SmartchainDB side's TxRecord."""

    tx_id: str
    kind: str
    method: str | None
    size_bytes: int
    gas_estimate: int
    submitted_at: float
    committed_at: float | None = None
    gas_used: int | None = None
    success: bool | None = None

    @property
    def latency(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


@dataclass
class QuorumChainConfig:
    """Deployment knobs for the baseline network."""

    n_validators: int = 4
    seed: int = 2024
    consensus: BftConfig = field(default_factory=ibft_config)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    initial_balance: int = 10**21


class QuorumChain:
    """A permissioned Ethereum network running the marketplace contract."""

    def __init__(self, config: QuorumChainConfig | None = None, accounts: list[str] | None = None):
        self.config = config or QuorumChainConfig()
        self.loop = EventLoop()
        self.rng = SeededRng(self.config.seed)
        self.network = Network(self.loop, self.rng, self.config.network)
        self.applications: dict[str, EthApplication] = {}
        balances = {account: self.config.initial_balance for account in (accounts or [])}

        def factory(node_id: str) -> EthApplication:
            application = EthApplication(node_id, initial_balances=balances)
            self.applications[node_id] = application
            return application

        self.engine: BftEngine = make_ibft_cluster(
            self.loop,
            self.network,
            factory,
            n_validators=self.config.n_validators,
            config=self.config.consensus,
        )
        self.records: dict[str, EthTxRecord] = {}
        self._tx_counter = 0
        self.engine.commit_listeners.append(self._on_commit)

    # -- submission --------------------------------------------------------------------

    def _next_tx_id(self, payload: dict[str, Any]) -> str:
        from repro.crypto.hashing import hash_document

        self._tx_counter += 1
        return hash_document({"n": self._tx_counter, "payload": repr(payload)})

    def submit(self, payload: dict[str, Any], gas_estimate: int | None = None) -> str:
        """Submit a transaction to a random validator; returns its id."""
        from repro.common.encoding import canonical_bytes

        tx_id = self._next_tx_id(payload)
        receiver = self.rng.choice("eth-receiver", self.engine.validator_order)
        size_bytes = len(canonical_bytes({k: repr(v) for k, v in payload.items()}))
        if gas_estimate is None:
            gas_estimate = self.estimate_gas(payload)
        envelope = envelope_for(payload, tx_id, size_bytes, weight=gas_estimate)
        self.records[tx_id] = EthTxRecord(
            tx_id=tx_id,
            kind=payload["type"],
            method=payload.get("method"),
            size_bytes=size_bytes,
            gas_estimate=gas_estimate,
            submitted_at=self.loop.clock.now,
        )
        self.engine.validator(receiver).submit_transaction(envelope)
        return tx_id

    def estimate_gas(self, payload: dict[str, Any]) -> int:
        """Gas oracle: native transfers are fixed; calls use the contract's
        structural estimator against current registry sizes."""
        if payload["type"] == "transfer":
            return G_TRANSACTION
        if payload["type"] == "deploy":
            return 1_200_000
        application = self.applications[self.engine.validator_order[0]]
        counts = application.registry_counts(payload.get("contract", ""))
        counts.update(payload.get("estimate_hints", {}))
        return auction.estimate_gas(
            payload["method"], payload.get("args", []), counts, payload.get("value", 0)
        )

    # -- commit tracking ----------------------------------------------------------------

    def _on_commit(self, record) -> None:
        application = self.applications[record.node_id]
        for envelope in record.block.transactions:
            tx_record = self.records.get(envelope.tx_id)
            if tx_record is None or tx_record.committed_at is not None:
                continue
            tx_record.committed_at = record.committed_at
            result = application.results.get(envelope.tx_id)
            if result is not None:
                tx_record.gas_used = result.gas_used
                tx_record.success = result.success

    # -- convenience ---------------------------------------------------------------------

    def run(self, duration: float | None = None, max_events: int = 5_000_000) -> None:
        if duration is None:
            self.loop.run_until_idle(max_events=max_events)
        else:
            self.loop.run(until=self.loop.clock.now + duration, max_events=max_events)

    def submit_and_settle(self, payload: dict[str, Any]) -> EthTxRecord:
        tx_id = self.submit(payload)
        self.loop.run_until_idle(max_events=5_000_000)
        return self.records[tx_id]

    def any_application(self) -> EthApplication:
        return self.applications[self.engine.validator_order[0]]

    def committed_records(self) -> list[EthTxRecord]:
        return [record for record in self.records.values() if record.committed_at is not None]
