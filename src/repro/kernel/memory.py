"""Shared-memory image of the synthetic kernel.

The kernel's global state is a flat array of integer cells. Named variables
map to addresses; the builder allocates variables per subsystem so that
inter-thread data flow (two syscalls touching the same subsystem state) is
common but not universal, mirroring real kernels where most races live
inside a subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["MemoryImage", "MemoryState"]


@dataclass
class MemoryImage:
    """Static memory layout plus initial values.

    ``names`` maps a variable name (e.g. ``"net.v3"``) to its address;
    ``initial`` maps an address to its boot-time value.
    """

    names: Dict[str, int] = field(default_factory=dict)
    initial: Dict[int, int] = field(default_factory=dict)

    def allocate(self, name: str, initial_value: int = 0) -> int:
        """Allocate a new cell for ``name`` and return its address."""
        if name in self.names:
            raise ValueError(f"variable {name!r} already allocated")
        address = len(self.initial)
        self.names[name] = address
        self.initial[address] = initial_value
        return address

    def address_of(self, name: str) -> int:
        return self.names[name]

    @property
    def size(self) -> int:
        return len(self.initial)

    def fresh_state(self) -> "MemoryState":
        return MemoryState(self)


class MemoryState:
    """A mutable runtime copy of a :class:`MemoryImage`.

    Executors create one per dynamic test, so tests never contaminate each
    other ("reboot the VM between tests"). ``cells`` maps address to value
    (absent reads as 0); the interpreter's sequentially consistent fast
    path reads and writes it directly.
    """

    __slots__ = ("cells",)

    def __init__(self, image: MemoryImage) -> None:
        self.cells = dict(image.initial)

    def load(self, address: int) -> int:
        return self.cells.get(address, 0)

    def store(self, address: int, value: int) -> None:
        self.cells[address] = value

    def snapshot(self) -> Dict[int, int]:
        return dict(self.cells)
