"""Behavioural wide-input LDO model (paper Section III).

Each compute chiplet regulates its own logic supply with a custom low-
dropout regulator because edge power delivery leaves the unregulated input
anywhere between ~1.4V (array centre, peak draw) and 2.5V (edge).  The LDO
must produce 1.1V nominal — guaranteed between 1.0V and 1.2V across PVT —
while supporting 350mW peak and 200mA load steps within a few cycles.

A linear regulator passes its load current straight through, so its
efficiency is simply ``V_out / V_in``; the centre tiles are therefore *more*
efficient than the edge tiles (smaller voltage to burn), which is the
counter-intuitive upside of the paper's scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import params
from ..errors import PdnError


@dataclass(frozen=True)
class LdoModel:
    """Wide-input-range LDO behavioural model."""

    v_out_nominal: float = params.LDO_OUTPUT_NOMINAL
    v_out_min: float = params.LDO_OUTPUT_MIN
    v_out_max: float = params.LDO_OUTPUT_MAX
    v_in_min: float = params.LDO_INPUT_MIN
    v_in_max: float = params.LDO_INPUT_MAX
    dropout_v: float = 0.2      # minimum headroom for regulation
    quiescent_a: float = 1e-3   # ground-pin current of the control loop

    def __post_init__(self) -> None:
        if not self.v_out_min <= self.v_out_nominal <= self.v_out_max:
            raise PdnError("nominal output outside guaranteed band")
        if self.v_in_min < self.v_out_max + self.dropout_v:
            raise PdnError(
                "input range floor leaves no dropout headroom: "
                f"{self.v_in_min} < {self.v_out_max} + {self.dropout_v}"
            )

    def in_range(self, v_in: float) -> bool:
        """True when the unregulated input is within the tracking range."""
        return self.v_in_min <= v_in <= self.v_in_max

    def regulate(self, v_in: float) -> float:
        """Output voltage for a given input voltage.

        Inside the tracking range the loop holds the nominal output.  Below
        the range the output follows the input minus dropout (degraded
        regulation); above the range the model raises, since the paper's
        LDO was only designed to track up to 2.5V.
        """
        if v_in > self.v_in_max:
            raise PdnError(
                f"LDO input {v_in:.3f}V above tracking range "
                f"(max {self.v_in_max}V)"
            )
        if v_in >= self.v_out_nominal + self.dropout_v:
            return self.v_out_nominal
        return max(v_in - self.dropout_v, 0.0)

    def regulation_ok(self, v_in: float) -> bool:
        """True when the output stays inside the guaranteed 1.0-1.2V band."""
        try:
            v_out = self.regulate(v_in)
        except PdnError:
            return False
        return self.v_out_min <= v_out <= self.v_out_max

    def efficiency(self, v_in: float, load_a: float) -> float:
        """Power efficiency at a given input voltage and load current.

        ``P_out / P_in`` with the pass-through load current plus quiescent
        draw: ``(V_out * I) / (V_in * (I + I_q))``.
        """
        if load_a < 0:
            raise PdnError("load current must be non-negative")
        if v_in <= 0:
            raise PdnError("input voltage must be positive")
        v_out = self.regulate(v_in)
        if load_a == 0:
            return 0.0
        return (v_out * load_a) / (v_in * (load_a + self.quiescent_a))

    def pass_device_dissipation_w(self, v_in: float, load_a: float) -> float:
        """Heat burned in the pass device: ``(V_in - V_out) * I``."""
        v_out = self.regulate(v_in)
        return max(v_in - v_out, 0.0) * load_a
