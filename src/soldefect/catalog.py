"""The 20-defect catalog, as data: each defect's D-code, slug, name,
category (9 security, 4 availability, 3 performance, 2 maintainability,
2 reusability), impact, description, advice and the frontends that detect
it, in D01..D20 order.

Reading the catalog loads no detector: ``cli``, ``config``, ``report`` and
``corpus`` read it, and ``soldefect.detectors`` registers each defect's
readers by slug (tests check that the readers match ``frontends``).
"""

from __future__ import annotations

from .records import record

SOURCE = frozenset({"source"})
BOTH = frozenset({"source", "bytecode"})


@record(frozen=True)
class DetectorDescriptor:
    code: str        # stable short id, D01..D20
    id: str          # stable slug used in reports, manifests and the CLI
    name: str
    category: str    # security | availability | performance | maintainability | reusability
    impact: str      # IP1..IP5
    description: str
    advice: str
    # IP3 splits into two informational sub-types (critical-but-internal vs
    # major-and-triggerable); carried as a note, never as a distinct level.
    impact_note: str = ""
    frontends: frozenset[str] = SOURCE  # BOTH for the four dual-mode defects


REGISTRY: list[DetectorDescriptor] = [
    DetectorDescriptor(
        code="D01", id="unchecked-external-calls", name="Unchecked External Calls",
        category="security", impact="IP3",
        impact_note="IP3 type 2: major unwanted behavior (partial ether loss)",
        description="The boolean result of a low-level external call "
                    "(send/call/call.value/delegatecall) is ignored.",
        advice="Check the boolean result of send/call/delegatecall, or use "
               "transfer so a failed send reverts.",
    ),
    DetectorDescriptor(
        code="D02", id="dos-under-external-influence",
        name="DoS Under External Influence",
        category="security", impact="IP2",
        description="A statement that can revert the whole transaction sits "
                    "inside a loop whose bound is not a compile-time constant.",
        advice="Avoid statements that can revert inside unbounded loops; check a "
               "boolean send result and continue instead of reverting.",
    ),
    DetectorDescriptor(
        code="D03", id="strict-balance-equality", name="Strict Balance Equality",
        category="security", impact="IP2",
        description="The contract balance is compared with == in a branch "
                    "condition; forced ether transfers break exact checks.",
        advice="Compare the balance with a range (>= and <) instead of strict "
               "equality; anyone can force ether into a contract.",
        frontends=BOTH,
    ),
    DetectorDescriptor(
        code="D04", id="unmatched-type-assignment", name="Unmatched Type Assignment",
        category="security", impact="IP2",
        description="A loop counter is narrower than its bound, so incrementing "
                    "it can overflow and the loop never terminates.",
        advice="Declare the loop counter as uint256 (or match the bound's type) "
               "so the counter cannot wrap around.",
    ),
    DetectorDescriptor(
        code="D05", id="transaction-state-dependency",
        name="Transaction State Dependency",
        category="security", impact="IP1",
        description="tx.origin is used for a permission check; intermediary "
                    "contracts can make the check pass for an attacker.",
        advice="Use msg.sender for permission checks; tx.origin names the "
               "transaction originator, not the immediate caller.",
    ),
    DetectorDescriptor(
        code="D06", id="block-info-dependency", name="Block Info Dependency",
        category="security", impact="IP3",
        impact_note="IP3 type 2: major unwanted behavior, externally triggerable",
        description="Miner-controllable block data (blockhash, timestamp, "
                    "number, ...) flows into a branch condition, array index, "
                    "or ether transfer.",
        advice="Do not derive control flow or randomness from miner-influenced "
               "block data; use commit-reveal schemes or oracle input.",
    ),
    DetectorDescriptor(
        code="D07", id="reentrancy", name="Reentrancy",
        category="security", impact="IP1",
        description="A call.value external call runs before the storage the "
                    "call was guarded by is updated, so the callee can re-enter.",
        advice="Update state before making the external call, or use "
               "transfer/send whose gas stipend prevents re-entrant calls.",
    ),
    DetectorDescriptor(
        code="D08", id="nested-call", name="Nested Call",
        category="security", impact="IP2",
        description="An external call executes inside a loop whose iteration "
                    "count is not bounded by a constant; gas use is unbounded.",
        advice="Bound the number of loop iterations before performing external "
               "calls inside the loop.",
        frontends=BOTH,
    ),
    DetectorDescriptor(
        code="D09", id="misleading-data-location", name="Misleading Data Location",
        category="security", impact="IP2",
        description="A reference-typed local (array/mapping/bytes/string) has no "
                    "explicit data location and silently aliases storage slot 0.",
        advice="Declare the data location (memory) explicitly for array, struct "
               "and mapping locals; they default to storage pointers.",
    ),
    DetectorDescriptor(
        code="D10", id="unmatched-erc20", name="Unmatched ERC-20 Standard",
        category="availability", impact="IP4",
        description="A token-like contract deviates from the ERC-20 interface: "
                    "missing mandatory functions, wrong return types, or missing "
                    "Transfer/Approval events.",
        advice="Match the ERC-20 interface exactly: the six mandatory functions, "
               "their bool/uint256 return types, and the Transfer/Approval events.",
        frontends=BOTH,
    ),
    DetectorDescriptor(
        code="D11", id="missing-reminder", name="Missing Reminder",
        category="availability", impact="IP4",
        description="A payable function changes state or conditionally reverts "
                    "but never emits an event, so callers cannot observe the "
                    "outcome.",
        advice="Emit an event so callers can observe whether the function "
               "succeeded.",
    ),
    DetectorDescriptor(
        code="D12", id="missing-return-statement", name="Missing Return Statement",
        category="availability", impact="IP4",
        description="A function declares return values but some path reaches the "
                    "end without returning, so callers observe the zero default.",
        advice="Return an explicit value on every path; callers otherwise "
               "observe the zero default.",
    ),
    DetectorDescriptor(
        code="D13", id="greedy-contract", name="Greedy Contract",
        category="availability", impact="IP3",
        impact_note="IP3 type 1: critical unwanted behavior, not externally "
                    "triggerable",
        description="The contract can receive ether (payable function) but has "
                    "no transfer/send/call.value/selfdestruct to move it out.",
        advice="Add a withdrawal path (transfer/send/call.value or selfdestruct) "
               "to any contract that can receive ether.",
    ),
    DetectorDescriptor(
        code="D14", id="unused-statement", name="Unused Statement",
        category="performance", impact="IP5",
        description="A parameter or local variable never affects contract state, "
                    "conditions, or return values.",
        advice="Remove parameters and locals that never affect state or return "
               "values.",
    ),
    DetectorDescriptor(
        code="D15", id="high-gas-function-type",
        name="High Gas Consumption Function Type",
        category="performance", impact="IP5",
        description="A public function with array parameters is never called "
                    "internally; external would read calldata instead of copying "
                    "to memory.",
        advice="Declare externally-used functions with array parameters as "
               "external; calldata access is cheaper than copying to memory.",
    ),
    DetectorDescriptor(
        code="D16", id="high-gas-data-type", name="High Gas Consumption Data Type",
        category="performance", impact="IP5",
        description="byte[] pads every element to a 32-byte slot; bytes packs "
                    "tightly and is cheaper.",
        advice="Use bytes instead of byte[]; byte[] wastes 31 bytes of storage "
               "per element.",
    ),
    DetectorDescriptor(
        code="D17", id="hard-code-address", name="Hard Code Address",
        category="maintainability", impact="IP3",
        impact_note="IP3 type 2: major unwanted behavior (partial ether loss)",
        description="An address literal is baked into the code; it cannot be "
                    "corrected after deployment and may not even pass the "
                    "EIP-55 checksum.",
        advice="Pass addresses as parameters or configuration instead of "
               "hard-coding them; validate the EIP-55 checksum.",
        frontends=BOTH,
    ),
    DetectorDescriptor(
        code="D18", id="missing-interrupter", name="Missing Interrupter",
        category="maintainability", impact="IP4",
        description="A contract that can hold ether has neither a selfdestruct "
                    "escape hatch nor an owner-gated circuit breaker to stop it "
                    "in an emergency.",
        advice="Provide an emergency stop: a selfdestruct escape hatch or an "
               "owner-controlled circuit breaker.",
    ),
    DetectorDescriptor(
        code="D19", id="deprecated-apis", name="Deprecated APIs",
        category="reusability", impact="IP5",
        description="The code uses constructs the language has replaced (throw, "
                    "suicide, sha3, callcode, msg.gas, constant mutability).",
        advice="Replace deprecated constructs (throw, suicide, sha3, callcode, "
               "msg.gas, constant) with their modern equivalents.",
    ),
    DetectorDescriptor(
        code="D20", id="unspecified-compiler-version",
        name="Unspecified Compiler Version",
        category="reusability", impact="IP5",
        description="The file has no solidity pragma, or the pragma accepts a "
                    "range of compiler versions instead of pinning one.",
        advice="Pin the pragma to one compiler version (pragma solidity 0.4.25;) "
               "so future compilers cannot change behavior.",
    ),
]

BY_ID: dict[str, DetectorDescriptor] = {d.id: d for d in REGISTRY}
BY_CODE: dict[str, DetectorDescriptor] = {d.code: d for d in REGISTRY}


def resolve_detector_id(name: str) -> str | None:
    """Accept either the slug id or the short D-code."""
    if name in BY_ID:
        return name
    if name in BY_CODE:
        return BY_CODE[name].id
    return None
