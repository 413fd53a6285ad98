"""Uncertain vectorized map: typed polyline elements over a ground-truth drivable area.

The drivable area is deliberately exempt from perturbation: it is the metric
ground truth, while the elements model what online perception would report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import MultiPolygon
from .uncertainty import UncertainPolyline

MAX_ELEMENTS = 100  # cap on vectorized elements per map


class MapElementKind(enum.Enum):
    BOUNDARY = "Boundary"
    LANE_DIVIDER = "LaneDivider"
    PED_CROSSING = "PedCrossing"


@dataclass(frozen=True)
class MapElement:
    polyline: UncertainPolyline
    kind: MapElementKind


@dataclass(frozen=True)
class UncertainMap:
    elements: tuple[MapElement, ...]
    drivable_area: MultiPolygon

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if len(elements) > MAX_ELEMENTS:
            raise ValueError(f"map holds {len(elements)} elements, cap is {MAX_ELEMENTS}")


def boundary_elements(m: UncertainMap) -> list[UncertainPolyline]:
    """All Boundary-kind element polylines, preserving map order."""
    return [e.polyline for e in m.elements if e.kind is MapElementKind.BOUNDARY]


def perturb_map(
    m: UncertainMap, noise_scale: float, seed: int, calibrated: bool = True
) -> UncertainMap:
    """Displace every element vertex with iid per-axis Laplace noise.

    With calibrated=True each vertex's b is rewritten to noise_scale, so the
    map advertises exactly the error statistics it carries; otherwise b is
    left unchanged. The drivable area is never touched. Deterministic for a
    given seed.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    rng = np.random.Generator(np.random.PCG64(seed))
    new_elements = []
    for element in m.elements:
        table = np.array(element.polyline.table)
        n = len(table)
        # adding zeros too, as -0.0 + 0.0 is 0.0
        table[:, :2] += rng.laplace(0.0, noise_scale, size=(n, 2)) if noise_scale > 0 else np.zeros((n, 2))
        if calibrated:
            table[:, 2:] = noise_scale
        new_elements.append(MapElement(UncertainPolyline(table), element.kind))
    return UncertainMap(tuple(new_elements), m.drivable_area)
