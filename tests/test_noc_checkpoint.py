"""Checkpoint/restore determinism: resuming must be unobservable.

The contract: run K cycles, ``save_state``, ``load_state`` (same or a
different engine, same or a fresh process), run K more — the result must
equal an uninterrupted 2K-cycle run *field for field*, including latency
lists in delivery order.  Tampered or truncated checkpoint files must be
rejected with :class:`~repro.errors.CheckpointError`, never loaded.
"""

import json
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import CheckpointError
from repro.noc.checkpoint import _state_hash, read_checkpoint_manifest
from repro.noc.dualnetwork import NetworkId
from repro.noc.faults import random_fault_map
from repro.noc.simulator import NocSimulator
from repro.workloads.traffic import TrafficPattern, generate_traffic

ENGINES_UNDER_TEST = ("reference", "vector")

#: A 6x6 checkpoint written by the struct-of-arrays ``"fast"`` engine
#: before that engine was folded into an alias of ``"reference"``; its
#: manifest records ``"engine": "fast"`` (see ``extra`` for the run).
FAST_ENGINE_CHECKPOINT = Path(__file__).parent / "data" / "noc_fast_engine_6x6.npz"

#: ``TestCorruptedCheckpoints._rewrite`` edit result: store no manifest.
_NO_MANIFEST = object()


def _drive_window(sim, traffic, start, stop):
    """Inject the schedule entries in [start, stop) and step to `stop`."""
    for cycle, packet in traffic:
        if cycle < start or cycle >= stop:
            continue
        while sim.cycle < cycle:
            sim.step()
        sim.inject(packet, NetworkId.XY)
    while sim.cycle < stop:
        sim.step()


def _observable(sim):
    return (
        sim.report(),
        sim.cycle,
        sim.link_stalls,
        sim.injected_count,
        [
            (p.src, p.dst, p.kind, p.injected_cycle, p.delivered_cycle)
            for p in sim.delivered_packets
        ],
    )


class TestCheckpointDeterminism:
    """K cycles + checkpoint + K more == uninterrupted 2K, every engine."""

    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    def test_split_run_equals_uninterrupted(self, engine, tmp_path):
        cfg = SystemConfig(rows=8, cols=8)
        fmap = random_fault_map(cfg, 5, rng=3)
        k = 40

        def traffic():
            return generate_traffic(
                cfg, TrafficPattern.UNIFORM, 0.1, 2 * k, seed=21
            )

        whole = NocSimulator(cfg, fault_map=fmap, engine=engine)
        _drive_window(whole, traffic(), 0, 2 * k)
        whole.drain(max_cycles=100_000)

        first = NocSimulator(cfg, fault_map=fmap, engine=engine)
        _drive_window(first, traffic(), 0, k)
        path = tmp_path / "mid.npz"
        first.save_state(path)

        second = NocSimulator.load_state(path)
        assert second.engine == engine
        assert second.cycle == k
        _drive_window(second, traffic(), k, 2 * k)
        second.drain(max_cycles=100_000)

        assert _observable(second) == _observable(whole)

    @pytest.mark.parametrize(
        "engine_pair", [("reference", "vector"), ("vector", "reference")]
    )
    def test_cross_engine_restore(self, engine_pair, tmp_path):
        """Halt on one engine, resume on the other: still bit-identical."""
        save_engine, resume_engine = engine_pair
        cfg = SystemConfig(rows=8, cols=8)
        k = 30

        def traffic():
            return generate_traffic(
                cfg, TrafficPattern.TRANSPOSE, 0.1, 2 * k, seed=8
            )

        whole = NocSimulator(cfg, engine=resume_engine)
        _drive_window(whole, traffic(), 0, 2 * k)
        whole.drain(max_cycles=100_000)

        first = NocSimulator(cfg, engine=save_engine)
        _drive_window(first, traffic(), 0, k)
        path = tmp_path / "cross.npz"
        first.save_state(path)

        second = NocSimulator.load_state(path, engine=resume_engine)
        assert second.engine == resume_engine
        _drive_window(second, traffic(), k, 2 * k)
        second.drain(max_cycles=100_000)
        assert _observable(second) == _observable(whole)

    @pytest.mark.parametrize(
        "engine_pair", [("reference", "vector"), ("vector", "reference")]
    )
    def test_unstepped_injections_resume_in_order(self, engine_pair, tmp_path):
        """A burst injected but not yet stepped into the LOCAL FIFOs is
        saved as the pending backlog and admitted first on resume."""
        save_engine, resume_engine = engine_pair
        cfg = SystemConfig(rows=4, cols=4)

        def burst(sim):
            # Rate 1.0 over 3 cycles: three packets per source at once,
            # more than one LOCAL FIFO slot can take in a cycle.
            for _, packet in generate_traffic(
                cfg, TrafficPattern.UNIFORM, 1.0, 3, seed=5
            ):
                sim.inject(packet, NetworkId.XY)

        whole = NocSimulator(cfg, engine=resume_engine)
        burst(whole)
        whole.drain(max_cycles=10_000)

        first = NocSimulator(cfg, engine=save_engine)
        burst(first)
        path = tmp_path / "burst.npz"
        first.save_state(path)
        second = NocSimulator.load_state(path, engine=resume_engine)
        assert not second.idle()
        second.drain(max_cycles=10_000)
        assert _observable(second) == _observable(whole)

    def test_manifest_round_trips_extra(self, tmp_path):
        cfg = SystemConfig(rows=4, cols=4)
        sim = NocSimulator(cfg, engine="fast")
        path = tmp_path / "meta.npz"
        sim.save_state(path, extra={"pattern": "uniform", "rate": 0.05})
        manifest = read_checkpoint_manifest(path)
        assert manifest["extra"] == {"pattern": "uniform", "rate": 0.05}
        assert manifest["engine"] == "fast"

    def test_fast_engine_checkpoint_resumes_on_reference(self):
        """A checkpoint recording ``"engine": "fast"`` still loads: it
        resumes on the reference engine (``"fast"`` is its alias) and
        continues bit-identically to an uninterrupted reference run."""
        manifest = read_checkpoint_manifest(FAST_ENGINE_CHECKPOINT)
        assert manifest["engine"] == "fast"
        run = manifest["extra"]
        cfg = SystemConfig(rows=6, cols=6)
        fmap = random_fault_map(cfg, run["faults"], rng=run["fault_rng"])
        k = manifest["cycle"]

        def traffic():
            return generate_traffic(
                cfg, TrafficPattern.UNIFORM, run["rate"], 2 * k, seed=run["seed"]
            )

        whole = NocSimulator(cfg, fault_map=fmap, engine="reference")
        _drive_window(whole, traffic(), 0, 2 * k)
        whole.drain(max_cycles=100_000)

        resumed = NocSimulator.load_state(FAST_ENGINE_CHECKPOINT)
        assert type(resumed) is NocSimulator
        assert resumed.engine == "fast"
        assert resumed.fault_map.faulty == fmap.faulty
        assert resumed.cycle == k
        _drive_window(resumed, traffic(), k, 2 * k)
        resumed.drain(max_cycles=100_000)
        assert _observable(resumed) == _observable(whole)


class TestCorruptedCheckpoints:
    def _checkpoint(self, tmp_path) -> Path:
        cfg = SystemConfig(rows=4, cols=4)
        sim = NocSimulator(cfg, engine="vector")
        _drive_window(
            sim,
            generate_traffic(cfg, TrafficPattern.UNIFORM, 0.2, 20, seed=2),
            0,
            20,
        )
        path = tmp_path / "good.npz"
        sim.save_state(path)
        return path

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            NocSimulator.load_state(tmp_path / "nope.npz")

    def test_truncated_file_rejected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            NocSimulator.load_state(path)

    def test_tampered_manifest_rejected(self, tmp_path):
        """Flipping a counter in the manifest breaks the state hash."""
        path = self._checkpoint(tmp_path)
        with zipfile.ZipFile(path) as zf:
            names = {n: zf.read(n) for n in zf.namelist()}
        manifest_name = next(n for n in names if "manifest" in n)
        # npz stores the manifest as a 0-d numpy string array; edit the
        # raw .npy bytes, which must invalidate the content hash.
        raw = names[manifest_name]
        # The manifest is a <U... unicode scalar: characters are
        # UTF-32-LE code units inside the .npy payload.
        needle = '"cycle"'.encode("utf-32-le")
        assert needle in raw
        names[manifest_name] = raw.replace(
            needle, '"cycl_"'.encode("utf-32-le"), 1
        )
        tampered = tmp_path / "tampered.npz"
        with zipfile.ZipFile(tampered, "w") as zf:
            for name, blob in names.items():
                zf.writestr(name, blob)
        with pytest.raises(CheckpointError):
            NocSimulator.load_state(tampered)

    @staticmethod
    def _rewrite(src, dst, edit, resign=False):
        """Copy checkpoint ``src`` to ``dst`` through ``edit(manifest, arrays)``.

        ``edit`` edits both in place; it may return a replacement for
        the stored manifest blob, or ``_NO_MANIFEST`` to store none.
        ``resign`` recomputes the content hash, so only the semantic
        checks behind it can catch the edit.
        """
        with np.load(src, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        manifest = json.loads(str(arrays.pop("manifest")[()]))
        blob = edit(manifest, arrays)
        if blob is None:
            if resign:
                manifest["state_hash"] = _state_hash(manifest, arrays)
            blob = np.array(json.dumps(manifest, sort_keys=True))
        if blob is not _NO_MANIFEST:
            arrays["manifest"] = blob
        np.savez(dst, **arrays)
        return dst

    def test_archive_without_manifest_rejected(self, tmp_path):
        path = self._rewrite(
            self._checkpoint(tmp_path), tmp_path / "bare.npz",
            lambda manifest, arrays: _NO_MANIFEST,
        )
        with pytest.raises(CheckpointError, match="has no manifest"):
            NocSimulator.load_state(path)

    def test_unparseable_manifest_rejected(self, tmp_path):
        path = self._rewrite(
            self._checkpoint(tmp_path), tmp_path / "garbled.npz",
            lambda manifest, arrays: np.array('{"schema": '),
        )
        with pytest.raises(CheckpointError, match="manifest is corrupt"):
            NocSimulator.load_state(path)

    def test_foreign_schema_rejected(self, tmp_path):
        def edit(manifest, arrays):
            manifest["schema"] = "repro.noc-checkpoint/0"

        path = self._rewrite(
            self._checkpoint(tmp_path), tmp_path / "old.npz", edit, resign=True
        )
        with pytest.raises(CheckpointError, match="has schema"):
            read_checkpoint_manifest(path)

    def test_missing_router_arrays_rejected(self, tmp_path):
        def edit(manifest, arrays):
            del arrays["rr"]

        path = self._rewrite(self._checkpoint(tmp_path), tmp_path / "norr.npz", edit)
        with pytest.raises(CheckpointError, match=r"missing arrays \['rr'\]"):
            NocSimulator.load_state(path)

    @staticmethod
    def _bad_config(manifest, arrays):
        manifest["config"]["rows"] = 0

    @staticmethod
    def _bad_placement(manifest, arrays):
        arrays["pk_where"] = np.full_like(arrays["pk_where"], 9)

    @staticmethod
    def _bad_packet_kind(manifest, arrays):
        arrays["pk_kind"] = np.full_like(arrays["pk_kind"], 99)

    @staticmethod
    def _bad_in_flight(manifest, arrays):
        manifest["counters"]["in_flight"] += 1

    @staticmethod
    def _bad_router_shape(manifest, arrays):
        arrays["rr"] = arrays["rr"][:, :-1]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_bad_config, "config is invalid"),
            (_bad_placement, "unknown packet placement code 9"),
            (_bad_packet_kind, "packet table is invalid"),
            (_bad_in_flight, "accounting mismatch"),
            (_bad_router_shape, "router arrays have shapes"),
        ],
        ids=["config", "placement", "packet-kind", "in-flight", "router-shape"],
    )
    def test_resigned_inconsistent_state_rejected(self, tmp_path, edit, message):
        """A correctly hashed checkpoint whose content cannot describe a
        simulator is rejected, never half-restored."""
        path = self._rewrite(
            self._checkpoint(tmp_path), tmp_path / "resigned.npz",
            edit.__func__, resign=True,
        )
        with pytest.raises(CheckpointError, match=message):
            NocSimulator.load_state(path)


class TestCliCheckpointResume:
    """Fresh-process resume through `repro noc --checkpoint/--resume`."""

    REPO = Path(__file__).resolve().parents[1]

    def _run(self, *args):
        env_src = str(self.REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True,
            text=True,
            cwd=self.REPO,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        return payload.get("result", payload)

    def test_halt_then_resume_matches_uninterrupted(self, tmp_path):
        common = (
            "noc", "--rows", "6", "--cols", "6", "--cycles", "60",
            "--rate", "0.1", "--seed", "4", "--engine", "vector", "--json",
        )
        ckpt = str(tmp_path / "run.npz")
        uninterrupted = self._run(*common)
        halted = self._run(*common, "--checkpoint", ckpt, "--halt-at", "30")
        assert halted["halted"] is True
        resumed = self._run(*common, "--resume", ckpt)
        assert resumed["resumed_at_cycle"] == 30

        volatile = {
            "checkpoint", "checkpoints_written", "resumed_from",
            "resumed_at_cycle", "halted",
        }
        trimmed = lambda r: {k: v for k, v in r.items() if k not in volatile}
        assert trimmed(resumed) == trimmed(uninterrupted)

    def test_resume_rejects_mismatched_parameters(self, tmp_path):
        ckpt = str(tmp_path / "run.npz")
        self._run(
            "noc", "--rows", "6", "--cols", "6", "--cycles", "40",
            "--rate", "0.1", "--seed", "4", "--engine", "fast", "--json",
            "--checkpoint", ckpt, "--halt-at", "20",
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "noc",
                "--rows", "6", "--cols", "6", "--cycles", "40",
                "--rate", "0.2",   # differs from the checkpointed run
                "--seed", "4", "--engine", "fast", "--json",
                "--resume", ckpt,
            ],
            capture_output=True,
            text=True,
            cwd=self.REPO,
            env={"PYTHONPATH": str(self.REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro: error: cannot resume: ")
        assert "disagree" in proc.stderr
