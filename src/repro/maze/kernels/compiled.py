"""The compiled kernel backend: C inner loops behind ctypes.

``_kernels.c`` (same directory) holds line-for-line C mirrors of the
pure-python A* and Lee loops.  At import this module compiles it with the
system C compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a shared
object cached in the temp directory, keyed by a hash of the source — so a
source edit rebuilds, an unchanged source reuses, and concurrent
processes (e.g. a bench worker pool) race benignly: each compiles to a
private temp name and atomically renames over the same cache path.

Import failure (no compiler, sandboxed tempdir, …) simply makes this
backend unavailable: the dispatch in :mod:`repro.maze.kernels` records
the reason and ``auto`` falls back to ``pure``.  Nothing here is a hard
dependency — this is the "optional compiled extra" slot the docs
describe; numba or Cython could provide the same entry points, but
neither is shipped with the repo, and a stock C toolchain is the lowest
common denominator.

Marshalling: each plane set keeps one argument block (:class:`_Call`),
an int64 array whose slots hold the address of every buffer a search
reads plus the search's scalars, laid out by the enum in ``_kernels.c``.
A search copies its sources into a reusable buffer, sets its few target
cells and frozen/penalty entries with scalar writes (and clears them
after), writes its slots with one slice assignment and passes C a single
pointer; the grid's buffer addresses are cached on the grid.  The net
tables index by *net id*, guarded in C by their lengths, so sparse dict
lookups become branchless loads in the hot loop.  On the batch-mixed
draw (seed 1, 2-vCPU Xeon VM, CPython 3.11) marshalling takes about
8 µs per search next to a 6 µs C loop; building arrays and reading
``.ctypes.data`` on every call took about 49 µs
(``benchmarks/search_call_split.py``, docs/PERFORMANCE.md §6).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional, Tuple

from repro.maze.kernels.pure import g_overflow_error

__all__ = ["astar_search", "lee_search"]

_ST_FOUND = 0
_ST_NOPATH = 1
_ST_EXHAUSTED = 2
_ST_OVERFLOW = 3
_ST_NOMEM = 4

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")


def _find_compiler() -> str:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")


def _build_library() -> ctypes.CDLL:
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = os.path.join(
        tempfile.gettempdir(), f"repro_kernels_{digest}.so"
    )
    if not os.path.exists(cache):
        cc = _find_compiler()
        tmp = f"{cache}.{os.getpid()}.tmp"
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE],
                check=True,
                capture_output=True,
                text=True,
            )
            os.replace(tmp, cache)
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(
                f"kernel compile failed with {cc}: {exc.stderr.strip()}"
            ) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(cache)


# Argument block slots, in the order of the enum in ``_kernels.c``.
(
    _A_WIDTH, _A_HEIGHT, _A_BEST, _A_PARENT, _A_STAMP, _A_TARGET, _A_PATH,
    _A_SRC, _A_FROZEN, _A_PENALTIES,
    _A_OCC, _A_PIN, _A_NET, _A_NSRC, _A_GEN,
    _A_CONFLICTS, _A_FROZEN_LEN, _A_PEN_LEN,
    _A_COST_X0, _A_COST_Y0, _A_COST_V0, _A_COST_X1, _A_COST_Y1, _A_COST_V1,
    _A_STEP, _A_PENALTY, _A_TX0, _A_TX1, _A_TY0, _A_TY1, _A_MAX_EXPANSIONS,
    _A_OUT_COST, _A_OUT_EXPANSIONS, _A_OUT_LEN,
    _A_SLOTS,
) = range(35)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_slots.restype = ctypes.c_int64
    lib.repro_slots.argtypes = []
    if lib.repro_slots() != _A_SLOTS:
        raise RuntimeError(
            f"kernel library has {lib.repro_slots()} argument slots, "
            f"this module lays out {_A_SLOTS}"
        )
    for entry in (lib.repro_astar, lib.repro_lee):
        entry.restype = ctypes.c_int64
        entry.argtypes = [ctypes.c_void_p]
    return lib


_lib = _declare(_build_library())
_astar = _lib.repro_astar
_lee = _lib.repro_lee


class _Call:
    """One plane set's argument block and the buffers only this backend uses.

    The block is built once per plane set with every buffer address in
    it; a search writes only its own slots.  The target mask and the net
    tables are all-zero between searches: a search sets its few entries
    and clears them again before it returns.
    """

    __slots__ = ("args", "address", "target", "path", "src", "frozen",
                 "penalties")

    def __init__(self, np_planes, width: int, height: int) -> None:
        n_nodes = 2 * width * height
        self.args = args = (ctypes.c_int64 * _A_SLOTS)()
        self.address = ctypes.addressof(args)
        self.target = (ctypes.c_uint8 * n_nodes)()
        self.path = (ctypes.c_int32 * n_nodes)()
        self.src = (ctypes.c_int64 * 64)()
        self.frozen = (ctypes.c_uint8 * 64)()
        self.penalties = (ctypes.c_int64 * 64)()
        args[_A_WIDTH] = width
        args[_A_HEIGHT] = height
        args[_A_BEST] = np_planes.best.ctypes.data
        args[_A_PARENT] = np_planes.parent.ctypes.data
        args[_A_STAMP] = np_planes.stamp.ctypes.data
        args[_A_TARGET] = ctypes.addressof(self.target)
        args[_A_PATH] = ctypes.addressof(self.path)
        args[_A_SRC] = ctypes.addressof(self.src)
        args[_A_FROZEN] = ctypes.addressof(self.frozen)
        args[_A_PENALTIES] = ctypes.addressof(self.penalties)

    def _grow(self, name: str, slot: int, size: int):
        """Replace buffer ``name`` by a zeroed one of at least ``size``
        entries and point its slot at it."""
        old = getattr(self, name)
        buf = (old._type_ * max(size, 2 * len(old)))()
        setattr(self, name, buf)
        self.args[slot] = ctypes.addressof(buf)
        return buf

    def load_sources(self, indices) -> int:
        """Copy the source indices into the block's source buffer."""
        n_src = len(indices)
        src = self.src
        if n_src > len(src):
            src = self._grow("src", _A_SRC, n_src)
        src[:n_src] = indices
        return n_src

    def load_frozen(self, frozen_nets) -> int:
        """Mark the frozen nets in the dense by-net-id table; its length."""
        top = max(frozen_nets, default=-1)
        if top < 0:
            return 0
        table = self.frozen
        if top >= len(table):
            table = self._grow("frozen", _A_FROZEN, top + 1)
        for nid in frozen_nets:
            if nid >= 0:
                table[nid] = 1
        return top + 1

    def load_penalties(self, net_penalties: dict) -> int:
        """Write the per-net penalties into the dense table; its length."""
        top = max(net_penalties, default=-1)
        if top < 0:
            return 0
        table = self.penalties
        if top >= len(table):
            table = self._grow("penalties", _A_PENALTIES, top + 1)
        for nid, pen in net_penalties.items():
            if nid >= 0:
                table[nid] = pen
        return top + 1

    def clear(self, target_idx, frozen_nets=(), net_penalties=()) -> None:
        """Zero every entry the target marking and the ``load_*`` calls
        may have set."""
        target = self.target
        for index in target_idx:
            target[index] = 0
        if frozen_nets:
            _zero(self.frozen, frozen_nets)
        if net_penalties:
            _zero(self.penalties, net_penalties)


def _zero(table, net_ids) -> None:
    size = len(table)
    for nid in net_ids:
        if 0 <= nid < size:
            table[nid] = 0


def _call_for(planes, grid) -> _Call:
    np_planes = planes.numpy_planes()
    call = np_planes.call
    if call is None:
        call = np_planes.call = _Call(np_planes, grid.width, grid.height)
    return call


def astar_search(
    grid,
    net_id: int,
    sources,
    target_idx,
    bbox: Tuple[int, int, int, int],
    model,
    allow_conflicts: bool,
    frozen_nets,
    net_penalties: dict,
    max_expansions: int,
    planes,
    gen: int,
) -> Tuple[int, int, bool, Optional[List[int]]]:
    """C A* inner loop via ctypes (bit-identical to the pure reference)."""
    call = _call_for(planes, grid)
    args = call.args
    occ_addr, pin_addr = grid.buffer_addresses()
    (cost_x0, cost_y0, cost_v0), (cost_x1, cost_y1, cost_v1) = (
        model.axis_cost_table
    )
    tx0, tx1, ty0, ty1 = bbox
    target = call.target
    try:
        n_src = call.load_sources(sources)
        frozen_len = call.load_frozen(frozen_nets) if frozen_nets else 0
        pen_len = call.load_penalties(net_penalties) if net_penalties else 0
        for index in target_idx:
            target[index] = 1
        args[_A_OCC:_A_OUT_COST] = (
            occ_addr, pin_addr, net_id, n_src, gen,
            1 if allow_conflicts else 0, frozen_len, pen_len,
            cost_x0, cost_y0, cost_v0, cost_x1, cost_y1, cost_v1,
            model.step_cost, model.conflict_penalty,
            tx0, tx1, ty0, ty1, max_expansions,
        )
        status = _astar(call.address)
    finally:
        call.clear(target_idx, frozen_nets, net_penalties)

    if status == _ST_FOUND:
        return (args[_A_OUT_COST], args[_A_OUT_EXPANSIONS], False,
                call.path[: args[_A_OUT_LEN]])
    if status == _ST_NOPATH:
        return 0, args[_A_OUT_EXPANSIONS], False, None
    if status == _ST_EXHAUSTED:
        return 0, args[_A_OUT_EXPANSIONS], True, None
    if status == _ST_OVERFLOW:
        raise g_overflow_error(args[_A_OUT_COST])
    raise MemoryError("compiled A* kernel ran out of memory")


def lee_search(
    grid,
    net_id: int,
    source_indices,
    target_idx,
    planes,
    gen: int,
) -> Optional[List[int]]:
    """C Lee wavefront via ctypes (bit-identical to the pure reference)."""
    call = _call_for(planes, grid)
    args = call.args
    occ_addr, pin_addr = grid.buffer_addresses()
    target = call.target
    try:
        n_src = call.load_sources(source_indices)
        for index in target_idx:
            target[index] = 1
        args[_A_OCC:_A_CONFLICTS] = (occ_addr, pin_addr, net_id, n_src, gen)
        status = _lee(call.address)
    finally:
        call.clear(target_idx)

    if status == _ST_FOUND:
        return call.path[: args[_A_OUT_LEN]]
    if status == _ST_NOPATH:
        return None
    raise MemoryError("compiled Lee kernel ran out of memory")
