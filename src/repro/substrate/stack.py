"""The four-metal-layer Si-IF substrate stack (paper Section VIII).

Yield pressure capped the substrate at four metal layers: the bottom two
are dense slotted power planes (VDD and ground), the top two are sparse
signal layers for inter-chiplet routing.  Signal wiring runs at 5um pitch
(2um width / 3um space inside a reticle; fattened to 3um/2um where a wire
crosses a reticle stitching boundary).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .. import params
from ..errors import SubstrateError


class LayerRole(enum.Enum):
    """What a metal layer is used for."""

    POWER = "power"
    SIGNAL = "signal"


@dataclass(frozen=True)
class MetalLayer:
    """One substrate metal layer."""

    index: int                  # 1 = bottom
    name: str
    role: LayerRole
    thickness_um: float
    min_width_um: float
    min_space_um: float

    def __post_init__(self) -> None:
        if self.index < 1:
            raise SubstrateError("layer index starts at 1")
        if self.thickness_um <= 0:
            raise SubstrateError("thickness must be positive")
        if self.min_width_um <= 0 or self.min_space_um <= 0:
            raise SubstrateError("width/space rules must be positive")

    @property
    def pitch_um(self) -> float:
        """Minimum wiring pitch on this layer."""
        return self.min_width_um + self.min_space_um

    @property
    def tracks_per_mm(self) -> float:
        """Routing tracks per millimetre of channel."""
        return 1000.0 / self.pitch_um


@dataclass(frozen=True)
class LayerStack:
    """The full substrate stack."""

    layers: tuple[MetalLayer, ...]

    def __post_init__(self) -> None:
        indices = [layer.index for layer in self.layers]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise SubstrateError("layer indices must be unique and ordered")
        # Derived once per stack (not a field: equality and hash still
        # compare ``layers`` only); ``signal_layer`` runs once per wire.
        object.__setattr__(
            self,
            "_signal_layers",
            tuple(l for l in self.layers if l.role is LayerRole.SIGNAL),
        )

    @property
    def power_layers(self) -> tuple[MetalLayer, ...]:
        """Layers dedicated to power planes."""
        return tuple(l for l in self.layers if l.role is LayerRole.POWER)

    @property
    def signal_layers(self) -> tuple[MetalLayer, ...]:
        """Layers dedicated to inter-chiplet signal routing."""
        return self._signal_layers

    def signal_layer(self, routing_layer: int) -> MetalLayer:
        """The nth signal layer (1-based)."""
        sigs = self._signal_layers
        if not 1 <= routing_layer <= len(sigs):
            raise SubstrateError(
                f"routing layer {routing_layer} not in 1..{len(sigs)}"
            )
        return sigs[routing_layer - 1]

    def edge_wire_density_per_mm(self) -> float:
        """Escape wires per mm of chiplet edge over all signal layers.

        The paper quotes 400 wires/mm with two 5um-pitch layers.
        """
        return sum(l.tracks_per_mm for l in self.signal_layers)


def default_stack(signal_layers: int = params.SIGNAL_LAYERS) -> LayerStack:
    """The prototype's stack: two power planes below two signal layers.

    ``signal_layers=1`` models the degraded single-routing-layer wafer.
    """
    if signal_layers not in (1, 2):
        raise SubstrateError("prototype stack supports 1 or 2 signal layers")
    layers = [
        MetalLayer(1, "PWR-GND", LayerRole.POWER,
                   params.MAX_METAL_THICKNESS_UM, 10.0, 2.0),
        MetalLayer(2, "PWR-VDD", LayerRole.POWER,
                   params.MAX_METAL_THICKNESS_UM, 10.0, 2.0),
    ]
    for i in range(signal_layers):
        layers.append(
            MetalLayer(
                3 + i,
                f"SIG{i + 1}",
                LayerRole.SIGNAL,
                params.MAX_METAL_THICKNESS_UM,
                params.INTRA_RETICLE_WIRE_WIDTH_UM,
                params.INTRA_RETICLE_WIRE_SPACE_UM,
            )
        )
    return LayerStack(layers=tuple(layers))
