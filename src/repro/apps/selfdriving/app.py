"""Application wiring: the full Figure 11(b) system under one roof.

:class:`SelfDrivingApp` instantiates the world, all eight nodes, and -- per
the chosen scheme -- a logging protocol for each node:

- ``scheme="none"``  -> plain transport, no logging (Table II "No Logging");
- ``scheme="naive"`` -> Definition 2's base logging (Table II "Base");
- ``scheme="adlp"``  -> the full protocol (Table II "ADLP").

All nodes share one process (the paper's nodes share one NUC) and one
master; data still crosses the configured transport per link.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.selfdriving import nodes as app_nodes
from repro.apps.selfdriving.track import Track, World
from repro.core.adlp_protocol import AdlpProtocol
from repro.core.log_server import LogServer
from repro.core.naive_protocol import NaiveProtocol
from repro.core.policy import AdlpConfig
from repro.crypto.keys import KeyPair, generate_keypair
from repro.middleware.master import Master
from repro.middleware.transport.base import Transport, TransportProtocol

SCHEMES = ("none", "naive", "adlp")


@dataclass
class AppMetrics:
    """What a run of the application produced."""

    duration_s: float
    distance_m: float
    laps: float
    final_offset_m: float
    messages_by_node: Dict[str, int]
    log_entries: int
    log_bytes: int


class SelfDrivingApp:
    """Builds, runs, and tears down the self-driving application.

    :param scheme: logging scheme, one of :data:`SCHEMES`.
    :param log_server: required for ``naive``/``adlp`` schemes; created
        automatically when omitted.
    :param transport: middleware transport (in-process by default).
    :param adlp_config: protocol knobs for the ``adlp`` scheme.
    :param keypairs: optional pre-generated keys per node name (tests use
        seeded keys to avoid ~1 s of RSA generation per node).
    :param camera_hz: camera rate; the paper runs 20 Hz.
    """

    def __init__(
        self,
        scheme: str = "adlp",
        log_server: Optional[LogServer] = None,
        transport: Optional[Transport] = None,
        adlp_config: Optional[AdlpConfig] = None,
        keypairs: Optional[Dict[str, KeyPair]] = None,
        track: Optional[Track] = None,
        camera_hz: float = 20.0,
        naive_stores_hash: bool = False,
        protocol_overrides: Optional[Dict[str, TransportProtocol]] = None,
    ):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        self.scheme = scheme
        # note: `or` would discard an *empty* LogServer (it is falsy via
        # __len__), so test identity explicitly
        if log_server is not None:
            self.log_server = log_server
        else:
            self.log_server = LogServer() if scheme != "none" else None
        self.master = Master(transport=transport)
        self.world = World(track=track)
        self.adlp_config = adlp_config or AdlpConfig()
        self.naive_stores_hash = naive_stores_hash
        #: per-node replacement protocols, e.g. an adversarial
        #: :class:`~repro.adversary.harness.UnfaithfulAdlpProtocol` for one
        #: node while the rest run plain ADLP
        self._protocol_overrides = protocol_overrides or {}
        self._keypairs = keypairs or {}
        self._protocols: Dict[str, TransportProtocol] = {}

        factory = self._protocol_for
        self.nodes: List[app_nodes.AppNode] = [
            app_nodes.VehicleNode(self.master, factory, self.world),
            app_nodes.ControllerNode(self.master, factory),
            app_nodes.PlannerNode(self.master, factory),
            app_nodes.ObstacleDetectorNode(self.master, factory),
            app_nodes.LaneDetectorNode(self.master, factory),
            app_nodes.SignRecognizerNode(self.master, factory),
            app_nodes.LidarNode(self.master, factory, self.world),
            app_nodes.ImageFeederNode(
                self.master, factory, self.world, hz=camera_hz
            ),
        ]
        self._started = False

    def _protocol_for(self, node_name: str) -> Optional[TransportProtocol]:
        override = self._protocol_overrides.get(node_name)
        if override is not None:
            self._protocols[node_name] = override
            return override
        if self.scheme == "none":
            return None
        assert self.log_server is not None
        if self.scheme == "naive":
            protocol: TransportProtocol = NaiveProtocol(
                node_name,
                self.log_server.submit_batch,
                subscriber_stores_hash=self.naive_stores_hash,
            )
        else:
            protocol = AdlpProtocol(
                node_name,
                self.log_server,
                config=self.adlp_config,
                keypair=self._keypairs.get(node_name),
            )
        self._protocols[node_name] = protocol
        return protocol

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start all periodic node activity (sensors, vehicle physics)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.start()

    def run_for(self, seconds: float) -> AppMetrics:
        """Start (if needed), run for ``seconds``, and report metrics.

        The application keeps running afterwards; call :meth:`shutdown` to
        stop it.
        """
        self.start()
        t0 = time.monotonic()
        time.sleep(seconds)
        duration = time.monotonic() - t0
        return self.metrics(duration)

    def metrics(self, duration_s: float) -> AppMetrics:
        """Snapshot of application-level and logging-level counters."""
        messages = {}
        for node in self.nodes:
            published = sum(p.stats.published for p in node.node._publishers)
            messages[node.NAME] = published
        return AppMetrics(
            duration_s=duration_s,
            distance_m=self.world.distance_traveled,
            laps=self.world.laps,
            final_offset_m=self.world.lateral_offset(),
            messages_by_node=messages,
            log_entries=len(self.log_server) if self.log_server else 0,
            log_bytes=self.log_server.total_bytes if self.log_server else 0,
        )

    def flush_logs(self, timeout: float = 5.0) -> None:
        """Wait for every node's logging thread to drain."""
        for protocol in self._protocols.values():
            flush = getattr(protocol, "flush", None)
            if callable(flush):
                flush(timeout)

    def shutdown(self, drain_s: float = 0.5) -> None:
        """Quiesce, then tear down.

        Stopping the sensor/vehicle timers first lets in-flight messages and
        their ADLP acknowledgements complete, so a faithful run's log audits
        clean: abrupt teardown would leave one-sided entries that look like
        hiding (the 'connection permanently lost' case the paper excludes).
        """
        if self._started:
            for node in self.nodes:
                node.node.stop_timers()
            time.sleep(drain_s)
        for node in self.nodes:
            node.shutdown()

    def __enter__(self) -> "SelfDrivingApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def seeded_keypairs(bits: int = 1024, base_seed: int = 7000) -> Dict[str, KeyPair]:
    """Deterministic keys for every app node (test/benchmark convenience)."""
    return {
        name: generate_keypair(bits, seed=base_seed + i)
        for i, name in enumerate(sorted(app_nodes.GRAPH))
    }
