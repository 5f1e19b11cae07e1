"""Simulated System V shared memory.

The paper (§II-B) stores graph data neither on the agent side nor on the
daemon side but in a shared memory space created via UNIX System V kernel
calls: "a daemon has a unique System V key pointing to its specific shared
memory space, while an agent has multiple keys to communicate with all
daemons attached to it."

This module reproduces those semantics in-process:

* segments are created/attached through integer *keys* held in a
  :class:`ShmRegistry` (the simulated kernel);
* both attached parties observe mutations immediately (shared object);
* reads/writes are instrumented so benchmarks can show that shared-memory
  exchange avoids the copy costs of plain message passing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

from ..errors import ShmCorruption, ShmError

IPC_PRIVATE = 0


class SharedMemorySegment:
    """A keyed shared memory area holding named *regions*.

    A region is an arbitrary Python object (typically a numpy array or a
    :class:`~repro.core.blocks.BlockArea`).  Because the segment object is
    shared between its attachers, an update by one side is immediately
    visible to the other — exactly the "immediately perceived by the other
    end without extra sensing efforts" property of §II-B.
    """

    __slots__ = ("key", "size_hint", "_regions", "_attached", "_destroyed",
                 "_corrupted", "bytes_written", "bytes_read")

    def __init__(self, key: int, size_hint: int = 0) -> None:
        self.key = key
        self.size_hint = size_hint
        self._regions: Dict[str, Any] = {}
        self._attached: List[str] = []
        self._destroyed = False
        self._corrupted: set = set()
        self.bytes_written = 0
        self.bytes_read = 0

    # -- attachment lifecycle ---------------------------------------------

    def attach(self, who: str) -> "SharedMemorySegment":
        if self._destroyed:
            raise ShmError(f"attach to destroyed segment key={self.key}")
        self._attached.append(who)
        return self

    @property
    def attached(self) -> List[str]:
        return list(self._attached)

    # -- region access ------------------------------------------------------

    def put(self, name: str, value: Any, nbytes: int = 0) -> None:
        """Write/overwrite a named region (in place, no copy is modeled).

        A full rewrite of a corrupted region restores its integrity.
        """
        if self._destroyed:
            raise ShmError(f"write to destroyed segment key={self.key}")
        self._regions[name] = value
        self._corrupted.discard(name)
        self.bytes_written += int(nbytes)

    def get(self, name: str, nbytes: int = 0) -> Any:
        """Read a named region; raises :class:`ShmError` if absent."""
        if self._destroyed:
            raise ShmError(f"read from destroyed segment key={self.key}")
        if name not in self._regions:
            raise ShmError(f"segment key={self.key} has no region {name!r}")
        if name in self._corrupted:
            raise ShmCorruption(
                f"segment key={self.key} region {name!r} failed its "
                f"integrity check"
            )
        self.bytes_read += int(nbytes)
        return self._regions[name]

    # -- integrity (fault injection / detection) ----------------------------

    def corrupt(self, name: str) -> None:
        """Mark a region corrupted (fault injection).

        Reads of the region — and :meth:`verify` — raise
        :class:`~repro.errors.ShmCorruption` until it is rewritten or the
        segment is rebuilt.
        """
        if name not in self._regions:
            raise ShmError(
                f"cannot corrupt missing region {name!r} of segment "
                f"key={self.key}"
            )
        self._corrupted.add(name)

    @property
    def corrupted_regions(self) -> List[str]:
        return sorted(self._corrupted)

    def verify(self) -> None:
        """Integrity-check every region; raises on the first corruption."""
        if self._corrupted:
            raise ShmCorruption(
                f"segment key={self.key}: corrupted regions "
                f"{sorted(self._corrupted)}"
            )

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def regions(self) -> Iterator[str]:
        return iter(self._regions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SharedMemorySegment(key={self.key}, "
                f"regions={sorted(self._regions)}, attached={self._attached})")


class ShmRegistry:
    """The simulated kernel's table of System V shared memory segments."""

    def __init__(self) -> None:
        self._segments: Dict[int, SharedMemorySegment] = {}
        self._next_private_key = 0x6000
        self._next_daemon_id = 0

    def allocate_daemon_id(self) -> int:
        """Allocate the next daemon id *within this registry*.

        Daemon ids number the simulated kernel's SysV keys
        (``DAEMON_KEY_BASE + id``), so their scope is the registry — one
        per middleware deployment — not the process.  Keeping the
        counter here (instead of on a class attribute) makes
        back-to-back ``deploy()`` calls in one process start from id 0
        every time: key layouts, trace ids and fault-plan targets stay
        reproducible run over run, which the serving layer's long-lived
        process depends on.
        """
        daemon_id = self._next_daemon_id
        self._next_daemon_id += 1
        return daemon_id

    def shmget(self, key: int, size_hint: int = 0,
               create: bool = True) -> SharedMemorySegment:
        """Look up (or create) the segment for ``key``.

        ``key == IPC_PRIVATE`` always creates a fresh segment with a
        generated key, mirroring ``shmget(IPC_PRIVATE, ...)``.
        """
        if key == IPC_PRIVATE:
            key = self._next_private_key
            self._next_private_key += 1
            seg = SharedMemorySegment(key, size_hint)
            self._segments[key] = seg
            return seg
        if key in self._segments:
            return self._segments[key]
        if not create:
            raise ShmError(f"no segment with key={key}")
        seg = SharedMemorySegment(key, size_hint)
        self._segments[key] = seg
        return seg

    def shmrm(self, key: int) -> None:
        """Destroy the segment for ``key`` (IPC_RMID)."""
        seg = self._segments.pop(key, None)
        if seg is None:
            raise ShmError(f"cannot remove unknown segment key={key}")
        seg._destroyed = True

    def __len__(self) -> int:
        return len(self._segments)

    def keys(self) -> List[int]:
        return sorted(self._segments)
