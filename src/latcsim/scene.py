"""World model: room, optical anchors, RIS panels, AP, and codebooks."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .channel import OpticalAnchor
from .errors import InvalidVector
from .geometry import Room, Vec3
from .ris import Codebook, RisPanel


@dataclass(frozen=True)
class Scene:
    """Immutable environment every measurement and protocol run reads.

    codebooks is a read-only copy of the mapping passed in, so scenes built
    from one shared dict never see each other's changes. A rule on one
    anchor or panel names it first, as "anchor <id> <field>" or
    "panel <id> <field>", so a config loader can point at its entry.
    """

    room: Room
    anchors: tuple[OpticalAnchor, ...]
    panels: tuple[RisPanel, ...]
    ap: Vec3
    codebooks: Mapping[int, Codebook] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "panels", tuple(self.panels))
        object.__setattr__(self, "codebooks", MappingProxyType(dict(self.codebooks)))
        extents = self.room.extents
        panels: dict[int, RisPanel] = {}
        for p in self.panels:
            if p.id in panels:
                raise InvalidVector(f"panel {p.id} id is not unique")
            if not extents.contains(p.center):
                raise InvalidVector(f"panel {p.id} center must lie inside the room")
            panels[p.id] = p
        for prev, a in zip(self.anchors, self.anchors[1:]):
            if a.id <= prev.id:
                raise InvalidVector(f"anchor {a.id} id must be unique, and anchors listed in id order")
        by_panel: dict[int, int] = {}
        for a in self.anchors:
            if not extents.contains(a.position):
                raise InvalidVector(f"anchor {a.id} position must lie inside the room")
            if a.mount.startswith("leris:"):
                pid = int(a.mount.split(":", 1)[1])
                if pid not in panels:
                    raise InvalidVector(f"anchor {a.id} mount references unknown panel {pid}")
                panel = panels[pid]
                off = (a.position - panel.center).as_array()
                if abs(float(off @ panel.normal.as_array())) > 1e-9:
                    raise InvalidVector(f"anchor {a.id} position is off its panel plane")
                by_panel[pid] = by_panel.get(pid, 0) + 1
        for pid, count in by_panel.items():
            if count != 4:
                raise InvalidVector(f"panel {pid} must carry exactly 4 LERIS LEDs, has {count}")

    def panel(self, panel_id: int) -> RisPanel:
        for p in self.panels:
            if p.id == panel_id:
                return p
        raise InvalidVector(f"no panel with id {panel_id}")
