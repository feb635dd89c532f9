"""Test infrastructure: JTAG, DAP chains, unrolling, multi-chain (Sec. VII)."""

from .assembly import (
    AssemblyPolicy,
    assemble_wafer,
    evaluate_policy,
    sweep_check_intervals,
)
from .broadcast import BroadcastLoader, LoadMode
from .dap import CoreDap, TileDapChain
from .jtag import JtagChain, JtagDevice
from .mbist import (
    FaultKind,
    FaultyBank,
    InjectedFault,
    march_c_minus,
)
from .multichain import ChainPlan, MultiChainPlan, load_time_model
from .probe import PadSet, ProbeCard, can_probe, probe_plan
from .unrolling import ChainTestSession, TileUnderTest, locate_faulty_tiles

__all__ = [
    "AssemblyPolicy",
    "assemble_wafer",
    "evaluate_policy",
    "sweep_check_intervals",
    "BroadcastLoader",
    "LoadMode",
    "CoreDap",
    "TileDapChain",
    "JtagChain",
    "JtagDevice",
    "FaultKind",
    "FaultyBank",
    "InjectedFault",
    "march_c_minus",
    "ChainPlan",
    "MultiChainPlan",
    "load_time_model",
    "PadSet",
    "ProbeCard",
    "can_probe",
    "probe_plan",
    "ChainTestSession",
    "TileUnderTest",
    "locate_faulty_tiles",
]
