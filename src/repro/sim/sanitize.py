"""Dynamic shadow-memory race sanitizer (``SimOptions.sanitize``).

When sanitizing, every warp of a TB shares one :class:`ShadowState`: a
word-granularity shadow map recording, per (space, word) and per barrier
epoch, the last writing thread and a representative reading thread.  Two
accesses to overlapping words by *distinct threads of the same TB* in the
*same barrier epoch*, at least one of them a write and not both atomic,
constitute a data race and produce a :class:`RaceRecord`.

The barrier epoch is counted per warp (``WarpInterpreter.san_epoch``,
incremented at every ``__syncthreads()``); because barriers are TB-wide,
every warp of a TB agrees on the numbering, which makes "same epoch" exactly
the dynamic may-happen-in-parallel relation the static barrier-interval
analysis (:mod:`repro.analysis.dataflow.races`) approximates.  Shared *and*
global accesses are checked, both scoped intra-TB — inter-TB global ordering
is scheduler-defined and not a property the static pass claims.

The sanitizer is a functional-correctness oracle, not a timing model: it
never contributes events and is only consulted when a shadow is attached
(``warp.sanitizer`` stays ``None`` otherwise, a single attribute test per
memory operation).  Both functional engines attach it — the interpreter
per TB, the tape per chunk of TBs — and both execute every (TB, warp) slot
for real, so the sanitizer sees every access.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

WORD_BYTES = 4
# Per-TB report cap: enough to show the pattern, bounded so a racy kernel
# touching megabytes of shared memory cannot balloon the result object.
MAX_REPORTS_PER_TB = 50

_WARP_SIZE = 32


@dataclass(frozen=True)
class RaceRecord:
    """One detected same-epoch conflict."""

    kernel: str
    tb: tuple[int, int, int]
    space: str                 # "shared" | "global"
    array: str                 # resolved name, or hex address when unknown
    kind: str                  # "write-write" | "read-write" | "write-read"
    epoch: int                 # barrier epoch (syncs passed before access)
    word: int                  # byte address of the conflicting 4-byte word
    first: tuple[int, int, str]    # (warp, lane, "read"/"write"/"atomic")
    second: tuple[int, int, str]

    def describe(self) -> str:
        (w1, l1, k1), (w2, l2, k2) = self.first, self.second
        return (f"{self.kind} race on {self.space} {self.array!r} "
                f"(kernel {self.kernel}, tb {self.tb}, epoch {self.epoch}, "
                f"word {self.word:#x}): {k1} by warp {w1} lane {l1} vs "
                f"{k2} by warp {w2} lane {l2}")


@dataclass(frozen=True)
class SanitizerResult:
    """Aggregated sanitizer outcome of one launch."""

    reports: tuple[RaceRecord, ...]
    accesses: int              # shadow-checked accesses (all TBs)
    truncated: bool            # some TB hit MAX_REPORTS_PER_TB

    @property
    def report_count(self) -> int:
        return len(self.reports)

    def describe(self) -> str:
        if not self.reports:
            return f"sanitizer: clean ({self.accesses} accesses checked)"
        head = (f"sanitizer: {len(self.reports)} race report(s)"
                f"{' (truncated)' if self.truncated else ''}, "
                f"{self.accesses} accesses checked")
        return "\n".join([head] + [f"  {r.describe()}" for r in self.reports])


class ShadowState:
    """Shadow memory for one TB, shared by all of its warps."""

    def __init__(
        self,
        kernel: str,
        tb: tuple[int, int, int],
        shared_layout: dict[str, tuple[int, object, tuple[int, ...]]],
        global_bases: list[tuple[int, str]],
    ):
        self.kernel = kernel
        self.tb = tb
        self.accesses = 0
        self.truncated = False
        self.reports: list[RaceRecord] = []
        # (space, word) -> [epoch, writer_tid, writer_atomic, reader_tid]
        self._words: dict[tuple[str, int], list] = {}
        self._seen: set[tuple] = set()
        # Shared resolution: sorted (offset, name); offsets are unique.
        self._shared = sorted(
            (off, name) for name, (off, _ctype, _dims) in shared_layout.items()
        )
        self._shared_offs = [off for off, _ in self._shared]
        # Global resolution: sorted (device base address, param name).
        self._globals = sorted(global_bases)
        self._global_offs = [base for base, _ in self._globals]

    # -- recording ----------------------------------------------------------
    def record(self, space: str, addrs, itemsize: int, warp_id: int,
               lanes, write: bool, atomic: bool, epoch: int) -> None:
        """Check one warp memory operation (active lanes only)."""
        self.accesses += int(addrs.size)
        for pos in range(addrs.size):
            addr = int(addrs[pos])
            tid = warp_id * _WARP_SIZE + int(lanes[pos])
            first_w = addr // WORD_BYTES
            last_w = (addr + itemsize - 1) // WORD_BYTES
            for word in range(first_w, last_w + 1):
                self._check(space, word, tid, write, atomic, epoch)

    def _check(self, space: str, word: int, tid: int,
               write: bool, atomic: bool, epoch: int) -> None:
        state = self._words.get((space, word))
        if state is None or state[0] != epoch:
            state = [epoch, None, False, None]
            self._words[(space, word)] = state
        _, writer, writer_atomic, reader = state
        if write:
            if writer is not None and writer != tid \
                    and not (atomic and writer_atomic):
                self._report(space, word, epoch, "write-write",
                             (writer, "atomic" if writer_atomic else "write"),
                             (tid, "atomic" if atomic else "write"))
            if reader is not None and reader != tid:
                self._report(space, word, epoch, "read-write",
                             (reader, "read"),
                             (tid, "atomic" if atomic else "write"))
            state[1] = tid
            state[2] = atomic
        else:
            if writer is not None and writer != tid:
                self._report(space, word, epoch, "write-read",
                             (writer, "atomic" if writer_atomic else "write"),
                             (tid, "read"))
            state[3] = tid

    def _report(self, space: str, word: int, epoch: int, kind: str,
                first: tuple[int, str], second: tuple[int, str]) -> None:
        array = self._resolve(space, word * WORD_BYTES)
        key = (space, array, kind)
        if key in self._seen:
            return
        if len(self.reports) >= MAX_REPORTS_PER_TB:
            self.truncated = True
            return
        self._seen.add(key)
        t1, k1 = first
        t2, k2 = second
        self.reports.append(RaceRecord(
            kernel=self.kernel, tb=self.tb, space=space, array=array,
            kind=kind, epoch=epoch, word=word * WORD_BYTES,
            first=(t1 // _WARP_SIZE, t1 % _WARP_SIZE, k1),
            second=(t2 // _WARP_SIZE, t2 % _WARP_SIZE, k2),
        ))

    # -- provenance ---------------------------------------------------------
    def _resolve(self, space: str, addr: int) -> str:
        if space == "shared":
            table, offs = self._shared, self._shared_offs
        else:
            table, offs = self._globals, self._global_offs
        i = bisect_right(offs, addr) - 1
        if i < 0:
            return hex(addr)
        return table[i][1]


def merge_shadows(shadows: list[ShadowState]) -> SanitizerResult:
    """Aggregate the per-TB shadows of one launch."""
    reports: list[RaceRecord] = []
    accesses = 0
    truncated = False
    for s in shadows:
        reports.extend(s.reports)
        accesses += s.accesses
        truncated |= s.truncated
    return SanitizerResult(tuple(reports), accesses, truncated)
