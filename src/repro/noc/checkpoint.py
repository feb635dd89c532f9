"""Checkpoint/restore for the cycle-level NoC simulator.

A checkpoint is one ``.npz`` archive holding the complete simulation
state in an **engine-neutral** layout, so a run checkpointed on the
reference engine can resume on the vector engine (or vice versa) and continue
bit-identically:

* a flat **packet table** — one row per live or delivered packet, with a
  ``where`` code locating it (buffered in a FIFO, queued for injection,
  a pending response, or already delivered) plus the in-structure
  position, so every queue is rebuilt in its exact order;
* the per-router **round-robin pointers** and **forwarded counts**;
* a JSON **manifest** (schema tag, engine, cycle, full
  :class:`~repro.config.SystemConfig`, fault map, aggregate counters,
  and an arbitrary caller ``extra`` dict) protected by a SHA-256
  content hash over the manifest and every array.

Any truncation, bit-flip or hand-edit fails the hash (or the packet
accounting cross-check) and raises
:class:`~repro.errors.CheckpointError` instead of resuming silently
wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..config import SystemConfig
from ..errors import CheckpointError
from ..obs.telemetry import Telemetry
from .dualnetwork import NetworkId
from .faults import FaultMap
from .packets import Packet, PacketKind, ensure_packet_ids_above

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.invariants import InvariantChecker
    from .simulator import NocSimulator

#: Schema tag written into (and required from) every checkpoint manifest.
SCHEMA = "repro.noc-checkpoint/1"

# ``where`` codes of the packet table.
_IN_FIFO = 0
_PENDING_INJECTION = 1
_PENDING_RESPONSE = 2
_DELIVERED = 3

#: Packet-table column names, in file order.
_PACKET_FIELDS = (
    "pk_kind", "pk_src_r", "pk_src_c", "pk_dst_r", "pk_dst_c",
    "pk_addr", "pk_payload", "pk_id", "pk_inj", "pk_del", "pk_req",
    "pk_where", "pk_net", "pk_a", "pk_b", "pk_c",
)


def _state_hash(manifest: dict, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the manifest (sans hash) and every array's bytes."""
    digest = hashlib.sha256()
    clean = {k: v for k, v in manifest.items() if k != "state_hash"}
    digest.update(json.dumps(clean, sort_keys=True).encode())
    for name in sorted(arrays):
        arr = arrays[name]
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _opt(value: int | None) -> int:
    return -1 if value is None else value


def save_noc_state(sim: "NocSimulator", path, extra: dict | None = None) -> None:
    """Serialize a simulator to ``path`` (see module docstring).

    Called through :meth:`NocSimulator.save_state`; works on every
    engine because the engine-private part goes through the
    engine-neutral :meth:`~NocSimulator._snapshot_engine_state` layout.
    """
    engine_state = sim._snapshot_engine_state()
    n = sim.config.tiles

    rows: list[tuple] = []   # (packet, where, net, a, b, c)
    for net_i in range(2):
        for idx in range(n):
            for port in range(5):
                for pos, packet in enumerate(
                    engine_state["fifos"][net_i][idx][port]
                ):
                    rows.append((packet, _IN_FIFO, net_i, idx, port, pos))
    for pos, (packet, net) in enumerate(sim._pending_injection_list()):
        rows.append((packet, _PENDING_INJECTION, net.value, pos, -1, -1))
    for pos, (due, packet, net) in enumerate(sim._pending_response_list()):
        rows.append((packet, _PENDING_RESPONSE, net.value, pos, due, -1))
    for pos, packet in enumerate(sim.delivered_packets):
        rows.append((packet, _DELIVERED, -1, pos, -1, -1))

    count = len(rows)
    cols: dict[str, np.ndarray] = {
        name: np.zeros(count, dtype=np.uint64 if name == "pk_payload" else np.int64)
        for name in _PACKET_FIELDS
    }
    for i, (packet, where, net, a, b, c) in enumerate(rows):
        cols["pk_kind"][i] = packet.kind.value
        cols["pk_src_r"][i] = packet.src[0]
        cols["pk_src_c"][i] = packet.src[1]
        cols["pk_dst_r"][i] = packet.dst[0]
        cols["pk_dst_c"][i] = packet.dst[1]
        cols["pk_addr"][i] = packet.address
        cols["pk_payload"][i] = packet.payload
        cols["pk_id"][i] = packet.packet_id
        cols["pk_inj"][i] = _opt(packet.injected_cycle)
        cols["pk_del"][i] = _opt(packet.delivered_cycle)
        cols["pk_req"][i] = _opt(packet.request_id)
        cols["pk_where"][i] = where
        cols["pk_net"][i] = net
        cols["pk_a"][i] = a
        cols["pk_b"][i] = b
        cols["pk_c"][i] = c

    arrays = dict(cols)
    arrays["rr"] = np.asarray(engine_state["rr"], dtype=np.int64)
    arrays["fwd"] = np.asarray(engine_state["fwd"], dtype=np.int64)

    manifest = {
        "schema": SCHEMA,
        "engine": sim.engine,
        "cycle": sim.cycle,
        "config": asdict(sim.config),
        "fifo_depth": sim.fifo_depth,
        "response_delay": sim.response_delay,
        "faulty": sim.fault_map.faulty_flat_indices(),
        "counters": {
            "injected": sim.injected_count,
            "dropped_unreachable": sim.dropped_unreachable,
            "dropped_in_flight": sim.dropped_in_flight,
            "link_stalls": sim.link_stalls,
            "in_flight": sim._in_flight,
            "per_network_delivered": {
                net.name: sim._per_network_delivered[net] for net in NetworkId
            },
            "net_occupancy": {
                net.name: sim._net_occupancy[net] for net in NetworkId
            },
        },
        "extra": extra or {},
    }
    manifest["state_hash"] = _state_hash(manifest, arrays)
    arrays["manifest"] = np.array(json.dumps(manifest, sort_keys=True))

    # Write through a buffer then one atomic-ish file write, so a crash
    # mid-save cannot leave a half-written npz under the target name.
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    Path(path).write_bytes(buffer.getvalue())


def _load_archive(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and authenticate a checkpoint; returns (manifest, arrays)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path} does not exist") from None
    except Exception as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    blob = arrays.pop("manifest", None)
    if blob is None:
        raise CheckpointError(f"checkpoint {path} has no manifest")
    try:
        manifest = json.loads(str(blob[()]))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path} manifest is corrupt: {exc}") from exc
    if manifest.get("schema") != SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema {manifest.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    missing = [
        name
        for name in (*_PACKET_FIELDS, "rr", "fwd")
        if name not in arrays
    ]
    if missing:
        raise CheckpointError(f"checkpoint {path} is missing arrays {missing}")
    if manifest.get("state_hash") != _state_hash(manifest, arrays):
        raise CheckpointError(
            f"checkpoint {path} failed its content hash — truncated or corrupted"
        )
    return manifest, arrays


def read_checkpoint_manifest(path) -> dict:
    """The authenticated manifest of a checkpoint (no simulator built)."""
    manifest, _ = _load_archive(path)
    return manifest


def load_noc_state(
    path,
    engine: str | None = None,
    telemetry: Telemetry | None = None,
    checkers: "Iterable[InvariantChecker] | None" = None,
) -> "NocSimulator":
    """Rebuild a simulator from a checkpoint (see module docstring).

    Called through :meth:`NocSimulator.load_state`.  ``engine=None``
    resumes on the engine recorded in the manifest.
    """
    from .simulator import NocSimulator

    manifest, arrays = _load_archive(path)
    try:
        config = SystemConfig(**manifest["config"])
    except Exception as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    cols = config.cols
    fault_map = FaultMap(
        config,
        frozenset(divmod(int(i), cols) for i in manifest["faulty"]),
    )
    sim = NocSimulator(
        config,
        fault_map=fault_map,
        fifo_depth=int(manifest["fifo_depth"]),
        response_delay=int(manifest["response_delay"]),
        telemetry=telemetry,
        engine=engine or manifest["engine"],
        checkers=checkers,
    )

    counters = manifest["counters"]
    sim.cycle = int(manifest["cycle"])
    sim.injected_count = int(counters["injected"])
    sim.dropped_unreachable = int(counters["dropped_unreachable"])
    sim.dropped_in_flight = int(counters["dropped_in_flight"])
    sim.link_stalls = int(counters["link_stalls"])
    sim._in_flight = int(counters["in_flight"])
    for net in NetworkId:
        sim._per_network_delivered[net] = int(
            counters["per_network_delivered"][net.name]
        )
        sim._net_occupancy[net] = int(counters["net_occupancy"][net.name])

    # Materialize the packet table and scatter rows back into their
    # structures, restoring each queue's exact order.
    n = config.tiles
    fifos: list = [
        [[[] for _ in range(5)] for _ in range(n)] for _ in range(2)
    ]
    injections: list[tuple[int, Packet, NetworkId]] = []
    responses: list[tuple[int, int, Packet, NetworkId]] = []
    delivered: list[tuple[int, Packet]] = []
    max_id = -1
    count = int(arrays["pk_kind"].shape[0])
    get = {name: arrays[name] for name in _PACKET_FIELDS}
    try:
        for i in range(count):
            packet = Packet(
                kind=PacketKind(int(get["pk_kind"][i])),
                src=(int(get["pk_src_r"][i]), int(get["pk_src_c"][i])),
                dst=(int(get["pk_dst_r"][i]), int(get["pk_dst_c"][i])),
                address=int(get["pk_addr"][i]),
                payload=int(get["pk_payload"][i]),
                packet_id=int(get["pk_id"][i]),
            )
            inj, dlv, req = (
                int(get["pk_inj"][i]),
                int(get["pk_del"][i]),
                int(get["pk_req"][i]),
            )
            packet.injected_cycle = None if inj < 0 else inj
            packet.delivered_cycle = None if dlv < 0 else dlv
            packet.request_id = None if req < 0 else req
            max_id = max(max_id, packet.packet_id)

            where = int(get["pk_where"][i])
            net_code = int(get["pk_net"][i])
            a, b, c = (
                int(get["pk_a"][i]),
                int(get["pk_b"][i]),
                int(get["pk_c"][i]),
            )
            if where == _IN_FIFO:
                fifos[net_code][a][b].append((c, packet))
            elif where == _PENDING_INJECTION:
                injections.append((a, packet, NetworkId(net_code)))
            elif where == _PENDING_RESPONSE:
                responses.append((a, b, packet, NetworkId(net_code)))
            elif where == _DELIVERED:
                delivered.append((a, packet))
            else:
                raise CheckpointError(f"unknown packet placement code {where}")
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"checkpoint packet table is invalid: {exc}") from exc

    buffered = 0
    for net_i in range(2):
        for idx in range(n):
            for port in range(5):
                entries = fifos[net_i][idx][port]
                entries.sort(key=lambda item: item[0])
                fifos[net_i][idx][port] = [packet for _, packet in entries]
                buffered += len(entries)
    if buffered != sim._in_flight:
        raise CheckpointError(
            f"checkpoint accounting mismatch: {buffered} buffered packets "
            f"vs in_flight counter {sim._in_flight}"
        )
    injections.sort(key=lambda item: item[0])
    responses.sort(key=lambda item: item[0])
    delivered.sort(key=lambda item: item[0])
    sim._pending_injections = [(p, net) for _, p, net in injections]
    sim._set_pending_responses([(due, p, net) for _, due, p, net in responses])
    sim.delivered_packets = [p for _, p in delivered]

    rr = arrays["rr"]
    fwd = arrays["fwd"]
    if rr.shape != (2, n, 5) or fwd.shape != (2, n):
        raise CheckpointError(
            f"checkpoint router arrays have shapes {rr.shape}/{fwd.shape}, "
            f"expected {(2, n, 5)}/{(2, n)}"
        )
    sim._restore_engine_state(
        {"fifos": fifos, "rr": rr.tolist(), "fwd": fwd.tolist()}
    )
    if max_id >= 0:
        ensure_packet_ids_above(max_id)
    return sim
