#!/usr/bin/env python3
"""The full third-party investigation workflow (the paper's NTSB story).

1. The *operator* runs components that push entries to a remote log server
   over TCP (components and logger in separate failure domains).
2. After an incident, the evidence is exported as a tamper-evident **case
   bundle** -- a log-store directory (the logger's own WAL + checkpoint
   format) plus a MANIFEST, which any investigator can take away.
3. The *investigator*, with no access to the live system, opens the
   bundle in place, re-verifies the hash chain and Merkle commitment,
   audits every entry, and resolves the dispute -- using only registered
   public keys.

The same steps are scriptable via ``python -m repro.tools {verify,inspect,
audit,trace} DIR``.

Run:  python examples/investigation_workflow.py
"""

import subprocess
import sys
import tempfile
import time

from repro import AdlpConfig, LogServer, Master, Node
from repro.adversary import GroundTruth, SubscriberBehavior, UnfaithfulAdlpProtocol
from repro.adversary.behaviors import flip_first_byte
from repro.core import LogServerEndpoint, RemoteLogger
from repro.middleware.msgtypes import StringMsg
from repro.tools.caseio import export_case


def operate_system(log_server: LogServer) -> None:
    """Phase 1: the operator's system runs, logging over TCP."""
    endpoint = LogServerEndpoint(log_server)
    print(f"log server listening at {endpoint.address}")

    master = Master()
    truth = GroundTruth()
    config = AdlpConfig(key_bits=1024)
    # Components talk to the logger through sockets only.
    pub_logger = RemoteLogger(endpoint.address)
    sub_logger = RemoteLogger(endpoint.address)
    pub_protocol = UnfaithfulAdlpProtocol(
        "/flight_controller", pub_logger, truth, config=config
    )
    # the telemetry recorder falsifies what it received
    sub_protocol = UnfaithfulAdlpProtocol(
        "/telemetry_recorder",
        sub_logger,
        truth,
        subscriber_behavior=SubscriberBehavior(falsify=flip_first_byte),
        config=config,
    )
    pub_node = Node("/flight_controller", master, protocol=pub_protocol)
    sub_node = Node("/telemetry_recorder", master, protocol=sub_protocol)
    try:
        sub_node.subscribe("/commands", StringMsg, lambda m: None)
        pub = pub_node.advertise("/commands", StringMsg)
        pub.wait_for_subscribers(1)
        for i in range(4):
            pub.publish(StringMsg(data=f"command {i}"))
            time.sleep(0.05)
        time.sleep(0.4)
        pub_protocol.flush()
        sub_protocol.flush()
    finally:
        pub_node.shutdown()
        sub_node.shutdown()
        pub_logger.close()
        sub_logger.close()
        endpoint.close()
    print(f"operation done; the logger holds {len(log_server)} entries")


def investigate(case_dir: str) -> None:
    """Phase 3: an independent investigator works from the bundle alone."""
    for command in (
        ["verify", case_dir],
        ["inspect", case_dir, "--limit", "4"],
        ["audit", case_dir, "--publisher", "/commands=/flight_controller"],
    ):
        print(f"\n$ python -m repro.tools {' '.join(command)}")
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", *command],
            capture_output=True,
            text=True,
        )
        print(result.stdout.rstrip())
        if command[0] in ("verify", "inspect"):
            assert result.returncode == 0, result.stderr
        if command[0] == "audit":
            assert result.returncode == 1, "audit must flag the falsifier"
            assert "/telemetry_recorder" in result.stdout
            assert "FLAGGED" in result.stdout


def main() -> None:
    log_server = LogServer()
    print("=== phase 1: operation (remote logging over TCP) ===")
    operate_system(log_server)

    print("\n=== phase 2: export the evidence as a case bundle ===")
    with tempfile.TemporaryDirectory(prefix="adlp_case_") as case_dir:
        export_case(log_server, case_dir)
        print(f"case bundle written to {case_dir}")

        print("\n=== phase 3: independent investigation via the CLI ===")
        investigate(case_dir)
    print("\nOK: the falsifying telemetry recorder was convicted from the "
          "bundle alone.")


if __name__ == "__main__":
    main()
