"""Warp-vectorized SIMT interpreter over the CUDA-subset AST.

Each warp executes as a Python generator (:func:`WarpInterpreter.run`) whose
32 lanes are NumPy vectors.  Divergent control flow is handled with lane
masks, exactly like a real SIMT pipeline serializes divergent paths.  The
generator yields :mod:`repro.sim.events` events; all *data* movement happens
eagerly against the backing NumPy buffers, so functional results are
independent of the timing model.

Design notes
------------
* Every variable is a 32-lane vector even when warp-uniform — simple and,
  thanks to NumPy, fast enough (the guides' "vectorize the inner loop" rule).
* Loads only gather the *active* lanes' addresses; inactive lanes may hold
  garbage indices (e.g. out-of-range ``i`` after an ``if (i < N)`` guard).
* Per-thread (non-``__shared__``) arrays live in registers/local memory and
  do not reach the L1D, mirroring how nvcc places small constant-indexed
  arrays; they cost only compute cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..frontend.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    BoolLit,
    BreakStmt,
    Call,
    Cast,
    ContinueStmt,
    CType,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    FloatLit,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IntLit,
    MemberRef,
    PostIncDec,
    ReturnStmt,
    Stmt,
    SyncthreadsStmt,
    Ternary,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
)
from .events import SYNC_EVENT, Event, MemEvent, compute_event
from .memory import GlobalMemory

WARP_SIZE = 32

# CUDA arithmetic never traps: overflow wraps, 1/0 produces inf, 0/0 NaN.
# The interpreter reproduces that by silencing NumPy's FP error reporting
# process-wide, once, instead of entering an ``np.errstate`` context around
# every lane-vector operation — the context-manager protocol alone used to
# account for several percent of end-to-end simulation time.
np.seterr(all="ignore")


class SimulationError(Exception):
    """Kernel used a construct the interpreter does not support."""


# ---------------------------------------------------------------------------
# Typed values
# ---------------------------------------------------------------------------

_NP_TYPES: dict[str, np.dtype] = {
    "bool": np.dtype(np.bool_),
    "char": np.dtype(np.int8),
    "short": np.dtype(np.int16),
    "int": np.dtype(np.int32),
    "unsigned int": np.dtype(np.uint32),
    "long": np.dtype(np.int64),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}


_PTR_DTYPE = np.dtype(np.int64)


def np_dtype_for(ctype: CType) -> np.dtype:
    # Hottest interpreter path (every binop, cast and memory access).  The
    # resolved dtype is cached directly on the (frozen) CType instance —
    # AST nodes reuse the same CType objects for the whole process, so the
    # fast path is one instance-dict lookup with no hashing of the fields.
    dt = getattr(ctype, "_np_dtype", None)
    if dt is not None:
        return dt
    if ctype.pointer_depth:
        dt = _PTR_DTYPE
    else:
        try:
            dt = _NP_TYPES[ctype.base]
        except KeyError:
            raise SimulationError(
                f"unsupported type {ctype.base!r}") from None
    object.__setattr__(ctype, "_np_dtype", dt)
    return dt


_RANK = {"bool": 0, "char": 1, "short": 2, "int": 3, "unsigned int": 4,
         "long": 5, "float": 6, "double": 7}


def promote(a: CType, b: CType) -> CType:
    """C usual arithmetic conversions, reduced to our scalar set."""
    # Memoized per left-operand instance, keyed by id(b); the entry keeps a
    # strong reference to ``b`` so its id cannot be recycled.  This avoids
    # building and hashing an (a, b) tuple on every binop.
    memo = getattr(a, "_promote_memo", None)
    if memo is None:
        memo = {}
        object.__setattr__(a, "_promote_memo", memo)
    ent = memo.get(id(b))
    if ent is not None:
        return ent[1]
    if a.pointer_depth:
        out = a
    elif b.pointer_depth:
        out = b
    else:
        base = a.base if _RANK[a.base] >= _RANK[b.base] else b.base
        if _RANK[base] < _RANK["int"]:
            base = "int"  # integer promotion
        out = CType(base)
    memo[id(b)] = (b, out)
    return out


INT = CType("int")
FLOAT = CType("float")
BOOL = CType("bool")


@dataclass(slots=True)
class TypedValue:
    """A 32-lane vector plus its C type and address-space tag."""

    values: np.ndarray
    ctype: CType
    space: str = "none"  # "global" | "shared" | "none" for non-pointers
    # Set for shared/local array designators still carrying dimensions.
    dims: tuple[int, ...] = ()

    def cast(self, target: CType) -> "TypedValue":
        dtype = np_dtype_for(target)
        if self.values.dtype == dtype:
            return TypedValue(self.values, target, self.space, self.dims)
        if dtype.kind in "iu" and self.values.dtype.kind == "f":
            vals = np.nan_to_num(np.trunc(self.values), nan=0.0,
                                 posinf=0.0, neginf=0.0).astype(dtype)
        else:
            vals = self.values.astype(dtype)
        return TypedValue(vals, target, self.space, self.dims)


_CMP_FNS = {"==": np.equal, "!=": np.not_equal, "<": np.less,
            ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal}


def arith(op: str, left: TypedValue, right: TypedValue) -> TypedValue:
    """The shared ALU: C-semantics binary arithmetic over lane vectors.

    Single source of truth for operator semantics across both engines — the
    AST interpreter and the tape executor both call this, so a semantics
    fix lands in both at once.
    """
    cmp_fn = _CMP_FNS.get(op)
    if cmp_fn is not None:
        ctype = promote(left.ctype, right.ctype)
        dtype = np_dtype_for(ctype)
        a = left.values
        if a.dtype != dtype:
            a = a.astype(dtype)
        b = right.values
        if b.dtype != dtype:
            b = b.astype(dtype)
        return TypedValue(cmp_fn(a, b), BOOL)
    # pointer arithmetic
    if left.ctype.pointer_depth or right.ctype.pointer_depth:
        lp = left.ctype.pointer_depth
        ptr, off = (left, right) if lp else (right, left)
        if op == "-" and lp and right.ctype.pointer_depth:
            size = np_dtype_for(left.ctype.pointee()).itemsize
            return TypedValue(
                ((left.values - right.values) // size).astype(np.int64),
                CType("long"),
            )
        if op not in ("+", "-"):
            raise SimulationError(f"pointer operator {op!r} unsupported")
        size = np_dtype_for(ptr.ctype.pointee()).itemsize
        delta = off.values.astype(np.int64) * size
        vals = ptr.values + (delta if op == "+" else -delta)
        return TypedValue(vals, ptr.ctype, ptr.space, ptr.dims)
    ctype = promote(left.ctype, right.ctype)
    dtype = np_dtype_for(ctype)
    a = left.values
    if a.dtype != dtype:
        a = a.astype(dtype)
    b = right.values
    if b.dtype != dtype:
        b = b.astype(dtype)
    if op == "+":
        out = a + b
    elif op == "-":
        out = a - b
    elif op == "*":
        out = a * b
    elif op == "/":
        if dtype.kind in "iu":
            bf = b.astype(np.float64)
            bf[bf == 0] = 1.0
            out = np.trunc(a.astype(np.float64) / bf).astype(dtype)
        else:
            out = a / b
    elif op == "%":
        if dtype.kind in "iu":
            bb = b.copy()
            bb[bb == 0] = 1
            q = np.trunc(a.astype(np.float64) / bb.astype(np.float64))
            out = (a - q.astype(dtype) * bb).astype(dtype)
        else:
            out = np.fmod(a, b)
    elif op == "<<":
        out = a << (b & (dtype.itemsize * 8 - 1))
    elif op == ">>":
        out = a >> (b & (dtype.itemsize * 8 - 1))
    elif op == "&":
        out = a & b
    elif op == "|":
        out = a | b
    elif op == "^":
        out = a ^ b
    else:
        raise SimulationError(f"unsupported operator {op!r}")
    return TypedValue(out, ctype)


@dataclass(slots=True)
class Var:
    """A named slot in a warp's environment."""

    ctype: CType
    values: np.ndarray            # (32,) scalars/pointers, (32, N) local arrays
    kind: str = "scalar"          # "scalar" | "local_array" | "shared_array"
    space: str = "none"
    dims: tuple[int, ...] = ()
    shared_offset: int = 0        # byte offset into the TB's shared block
    # Cached read view for scalar loads (see the tape's OP_LDVAR); valid
    # while ``values``/``space`` are unchanged — assignments write into
    # ``values`` in place, so the cache survives them.
    tv: "TypedValue | None" = None


# ---------------------------------------------------------------------------
# Shared memory block (one per TB)
# ---------------------------------------------------------------------------


class SharedBlock:
    """Per-TB scratchpad; a bump allocator over a byte buffer."""

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.buffer = np.zeros(max(capacity_bytes, 1), dtype=np.uint8)
        self.used = 0

    def alloc(self, nbytes: int, align: int = 8) -> int:
        offset = (self.used + align - 1) & ~(align - 1)
        if offset + nbytes > self.capacity:
            raise SimulationError(
                f"shared memory overflow: need {offset + nbytes} B, "
                f"carveout is {self.capacity} B"
            )
        self.used = offset + nbytes
        return offset

    def load(self, offsets: np.ndarray, dtype: np.dtype) -> np.ndarray:
        itemsize = dtype.itemsize
        out = np.empty(offsets.shape, dtype=dtype)
        raw = out.view(np.uint8).reshape(offsets.size, itemsize)
        for b in range(itemsize):
            raw[:, b] = self.buffer[offsets + b]
        return out

    def store(self, offsets: np.ndarray, values: np.ndarray) -> None:
        itemsize = values.dtype.itemsize
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(
            offsets.size, itemsize)
        for b in range(itemsize):
            self.buffer[offsets + b] = raw[:, b]


# ---------------------------------------------------------------------------
# Math intrinsics
# ---------------------------------------------------------------------------

_UNARY_MATH: dict[str, tuple[Callable, bool]] = {
    # name -> (numpy function, is_sfu)
    "sqrtf": (np.sqrt, True), "sqrt": (np.sqrt, True),
    "rsqrtf": (lambda x: 1.0 / np.sqrt(x), True),
    "expf": (np.exp, True), "exp": (np.exp, True),
    "logf": (np.log, True), "log": (np.log, True),
    "log2f": (np.log2, True), "log10f": (np.log10, True),
    "sinf": (np.sin, True), "sin": (np.sin, True),
    "cosf": (np.cos, True), "cos": (np.cos, True),
    "tanf": (np.tan, True), "atanf": (np.arctan, True),
    "fabsf": (np.abs, False), "fabs": (np.abs, False), "abs": (np.abs, False),
    "floorf": (np.floor, False), "floor": (np.floor, False),
    "ceilf": (np.ceil, False), "ceil": (np.ceil, False),
    "__expf": (np.exp, True), "__logf": (np.log, True),
}

_BINARY_MATH: dict[str, tuple[Callable, bool]] = {
    "min": (np.minimum, False), "max": (np.maximum, False),
    "fminf": (np.minimum, False), "fmaxf": (np.maximum, False),
    "fmin": (np.minimum, False), "fmax": (np.maximum, False),
    "powf": (np.power, True), "pow": (np.power, True),
    "atan2f": (np.arctan2, True),
    "__fdividef": (lambda a, b: a / b, True),
}


# ---------------------------------------------------------------------------
# Warp interpreter
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _LoopFrame:
    broke: np.ndarray
    continued: np.ndarray


@dataclass
class KernelArgs:
    """Resolved launch arguments: name -> (scalar-or-address, CType)."""

    bindings: tuple[tuple[str, float | int, CType], ...]


class WarpInterpreter:
    """Executes one warp of one TB of a kernel launch."""

    # Shadow-memory race sanitizer (repro.sim.sanitize): the launcher attaches
    # one per-TB ShadowState to every warp when SimOptions.sanitize is on.
    # Class attributes so subclasses and the common case pay one attribute
    # read per memory op; ``san_epoch += 1`` shadows with an instance attr.
    sanitizer = None
    san_epoch = 0

    def __init__(
        self,
        unit: TranslationUnit,
        kernel: FunctionDef,
        memory: GlobalMemory,
        shared: SharedBlock,
        shared_layout: dict[str, tuple[int, CType, tuple[int, ...]]],
        args: KernelArgs,
        block_idx: tuple[int, int, int],
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        warp_id: int,
    ):
        self.unit = unit
        self.kernel = kernel
        self.memory = memory
        self.shared = shared
        self.shared_layout = shared_layout
        self.warp_id = warp_id
        self.env: dict[str, Var] = {}
        self.pending: list[Event] = []
        self.ops = 0
        self.sfu_ops = 0
        self.returned = np.zeros(WARP_SIZE, dtype=bool)
        # Literal nodes evaluate to the same lane vector every time; caching
        # them removes an np.full per evaluation from the hot loop.  The
        # cached arrays are treated as read-only by convention.
        self._const_cache: dict[int, TypedValue] = {}
        # Return-value capture for inlined __device__ calls (None in kernels).
        self._ret_store: np.ndarray | None = None

        threads_per_block = block_dim[0] * block_dim[1] * block_dim[2]
        flat = warp_id * WARP_SIZE + np.arange(WARP_SIZE)
        self.alive0 = flat < threads_per_block
        flat = np.minimum(flat, threads_per_block - 1)
        tx = flat % block_dim[0]
        ty = (flat // block_dim[0]) % block_dim[1]
        tz = flat // (block_dim[0] * block_dim[1])
        self.builtins: dict[tuple[str, str], np.ndarray] = {
            ("threadIdx", "x"): tx.astype(np.int32),
            ("threadIdx", "y"): ty.astype(np.int32),
            ("threadIdx", "z"): tz.astype(np.int32),
            ("blockIdx", "x"): np.full(WARP_SIZE, block_idx[0], dtype=np.int32),
            ("blockIdx", "y"): np.full(WARP_SIZE, block_idx[1], dtype=np.int32),
            ("blockIdx", "z"): np.full(WARP_SIZE, block_idx[2], dtype=np.int32),
            ("blockDim", "x"): np.full(WARP_SIZE, block_dim[0], dtype=np.int32),
            ("blockDim", "y"): np.full(WARP_SIZE, block_dim[1], dtype=np.int32),
            ("blockDim", "z"): np.full(WARP_SIZE, block_dim[2], dtype=np.int32),
            ("gridDim", "x"): np.full(WARP_SIZE, grid_dim[0], dtype=np.int32),
            ("gridDim", "y"): np.full(WARP_SIZE, grid_dim[1], dtype=np.int32),
            ("gridDim", "z"): np.full(WARP_SIZE, grid_dim[2], dtype=np.int32),
        }
        for name, value, ctype in args.bindings:
            dtype = np_dtype_for(ctype)
            space = "global" if ctype.is_pointer else "none"
            self.env[name] = Var(
                ctype, np.full(WARP_SIZE, value, dtype=dtype), "scalar", space
            )
        for name, (offset, ctype, dims) in shared_layout.items():
            self.env[name] = Var(
                ctype, np.zeros(WARP_SIZE, dtype=np.int64), "shared_array",
                "shared", dims, offset,
            )

    # ------------------------------------------------------------------
    # Sanitizer plumbing
    # ------------------------------------------------------------------
    def _san_access(self, active_addr: np.ndarray, itemsize: int,
                    mask: np.ndarray, write: bool, atomic: bool,
                    space: str) -> None:
        shadow = self.sanitizer
        if shadow is None or space == "local":
            return
        lanes = np.nonzero(mask)[0] % WARP_SIZE
        shadow.record(space, active_addr, itemsize, self.warp_id, lanes,
                      write, atomic, self.san_epoch)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _flush(self) -> Iterator[Event]:
        """Emit queued memory events and the accumulated compute cost."""
        if self.ops or self.sfu_ops:
            yield compute_event(self.ops, self.sfu_ops)
            self.ops = 0
            self.sfu_ops = 0
        if self.pending:
            pending, self.pending = self.pending, []
            yield from pending

    # ------------------------------------------------------------------
    # Top-level run
    # ------------------------------------------------------------------
    def run(self) -> Iterator[Event]:
        mask = self.alive0.copy()
        if not mask.any():
            return
        frame = _LoopFrame(np.zeros(WARP_SIZE, bool), np.zeros(WARP_SIZE, bool))
        yield from self._exec_block(self.kernel.body, mask, frame)
        yield from self._flush()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _active(self, mask: np.ndarray, frame: _LoopFrame) -> np.ndarray:
        return mask & ~self.returned & ~frame.broke & ~frame.continued

    def _exec_block(self, block: Block, mask: np.ndarray,
                    frame: _LoopFrame) -> Iterator[Event]:
        for stmt in block.statements:
            active = self._active(mask, frame)
            if not active.any():
                return
            yield from self._exec_stmt(stmt, active, frame)

    def _exec_stmt(self, stmt: Stmt, mask: np.ndarray,
                   frame: _LoopFrame) -> Iterator[Event]:
        if isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, mask)
            yield from self._flush()
        elif isinstance(stmt, DeclStmt):
            self._exec_decl(stmt, mask)
            yield from self._flush()
        elif isinstance(stmt, Block):
            yield from self._exec_block(stmt, mask, frame)
        elif isinstance(stmt, IfStmt):
            cond = self._truthy(self._eval(stmt.cond, mask))
            yield from self._flush()
            then_mask = mask & cond
            if then_mask.any():
                yield from self._exec_stmt(stmt.then, then_mask, frame)
            if stmt.otherwise is not None:
                else_mask = mask & ~cond & ~self.returned
                else_mask &= ~frame.broke & ~frame.continued
                if else_mask.any():
                    yield from self._exec_stmt(stmt.otherwise, else_mask, frame)
        elif isinstance(stmt, ForStmt):
            yield from self._exec_for(stmt, mask, frame)
        elif isinstance(stmt, WhileStmt):
            yield from self._exec_while(stmt, mask, frame, do_first=False)
        elif isinstance(stmt, DoWhileStmt):
            yield from self._exec_while(stmt, mask, frame, do_first=True)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                tv = self._eval(stmt.value, mask)
                if self._ret_store is not None:
                    self._ret_store[mask] = tv.values.astype(
                        self._ret_store.dtype)[mask]
            self.returned |= mask
            yield from self._flush()
        elif isinstance(stmt, BreakStmt):
            frame.broke |= mask
        elif isinstance(stmt, ContinueStmt):
            frame.continued |= mask
        elif isinstance(stmt, SyncthreadsStmt):
            self.san_epoch += 1
            yield from self._flush()
            yield SYNC_EVENT
        elif isinstance(stmt, EmptyStmt):
            pass
        else:
            raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _exec_decl(self, stmt: DeclStmt, mask: np.ndarray) -> None:
        for d in stmt.declarators:
            dtype = np_dtype_for(stmt.type)
            if stmt.is_shared:
                # Shared arrays were pre-allocated by the launcher; scalars
                # declared __shared__ get one slot.
                if d.name not in self.env:
                    raise SimulationError(
                        f"shared variable {d.name!r} missing from layout"
                    )
                continue
            if d.array_sizes:
                total = int(np.prod(d.array_sizes))
                self.env[d.name] = Var(
                    stmt.type, np.zeros((WARP_SIZE, total), dtype=dtype),
                    "local_array", "none", tuple(d.array_sizes),
                )
                continue
            if d.name not in self.env or self.env[d.name].kind != "scalar" \
                    or self.env[d.name].values.dtype != dtype:
                self.env[d.name] = Var(
                    stmt.type, np.zeros(WARP_SIZE, dtype=dtype), "scalar",
                    "global" if stmt.type.is_pointer else "none",
                )
            if d.init is not None:
                value = self._eval(d.init, mask).cast(stmt.type)
                var = self.env[d.name]
                var.values[mask] = value.values[mask]
                if stmt.type.is_pointer:
                    var.space = value.space if value.space != "none" else "global"
                self.ops += 1

    def _exec_for(self, stmt: ForStmt, mask: np.ndarray,
                  frame: _LoopFrame) -> Iterator[Event]:
        inner = _LoopFrame(np.zeros(WARP_SIZE, bool), np.zeros(WARP_SIZE, bool))
        if stmt.init is not None:
            yield from self._exec_stmt(stmt.init, mask, inner)
        while True:
            alive = mask & ~self.returned & ~inner.broke
            if not alive.any():
                break
            if stmt.cond is not None:
                cond = self._truthy(self._eval(stmt.cond, alive))
                self.ops += 1
                yield from self._flush()
                alive = alive & cond
                if not alive.any():
                    break
            inner.continued[:] = False
            yield from self._exec_stmt(stmt.body, alive, inner)
            step_mask = alive & ~self.returned & ~inner.broke
            if stmt.step is not None and step_mask.any():
                self._eval(stmt.step, step_mask)
                yield from self._flush()
            if stmt.cond is None and not step_mask.any():
                break

    def _exec_while(self, stmt: WhileStmt | DoWhileStmt, mask: np.ndarray,
                    frame: _LoopFrame, do_first: bool) -> Iterator[Event]:
        inner = _LoopFrame(np.zeros(WARP_SIZE, bool), np.zeros(WARP_SIZE, bool))
        first = True
        while True:
            alive = mask & ~self.returned & ~inner.broke
            if not alive.any():
                break
            if not (do_first and first):
                cond = self._truthy(self._eval(stmt.cond, alive))
                self.ops += 1
                yield from self._flush()
                alive = alive & cond
                if not alive.any():
                    break
            inner.continued[:] = False
            yield from self._exec_stmt(stmt.body, alive, inner)
            if do_first:
                # do/while evaluates the condition after the body
                post = alive & ~self.returned & ~inner.broke
                if not post.any():
                    break
                cond = self._truthy(self._eval(stmt.cond, post))
                self.ops += 1
                yield from self._flush()
                if not (post & cond).any():
                    break
                mask = post & cond
            first = False

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _truthy(self, tv: TypedValue) -> np.ndarray:
        return tv.values.astype(bool)

    def _eval(self, expr: Expr, mask: np.ndarray) -> TypedValue:
        if isinstance(expr, (IntLit, FloatLit, BoolLit)):
            cached = self._const_cache.get(id(expr))
            if cached is not None:
                return cached
            if isinstance(expr, IntLit):
                base = "long" if abs(expr.value) > 2**31 - 1 else "int"
                tv = TypedValue(
                    np.full(WARP_SIZE, expr.value, dtype=np_dtype_for(CType(base))),
                    CType(base),
                )
            elif isinstance(expr, FloatLit):
                is_double = bool(expr.text) and not expr.text.lower().endswith("f")
                ctype = CType("double" if is_double else "float")
                tv = TypedValue(
                    np.full(WARP_SIZE, expr.value, dtype=np_dtype_for(ctype)), ctype
                )
            else:
                tv = TypedValue(np.full(WARP_SIZE, expr.value, dtype=np.bool_), BOOL)
            self._const_cache[id(expr)] = tv
            return tv
        if isinstance(expr, Ident):
            return self._eval_ident(expr)
        if isinstance(expr, MemberRef):
            return self._eval_member(expr)
        if isinstance(expr, ArrayRef):
            return self._load(expr, mask)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, mask)
        if isinstance(expr, UnaryOp):
            return self._eval_unary(expr, mask)
        if isinstance(expr, PostIncDec):
            old = self._eval(expr.operand, mask)
            one = TypedValue(np.ones(WARP_SIZE, old.values.dtype), old.ctype)
            new = self._arith("+" if expr.op == "++" else "-", old, one)
            snapshot = TypedValue(old.values.copy(), old.ctype, old.space)
            self._assign_to(expr.operand, new, mask)
            return snapshot
        if isinstance(expr, Assign):
            return self._eval_assign(expr, mask)
        if isinstance(expr, Ternary):
            cond = self._truthy(self._eval(expr.cond, mask))
            then_mask = mask & cond
            else_mask = mask & ~cond
            ctype = None
            out = None
            if then_mask.any():
                tv = self._eval(expr.then, then_mask)
                ctype = tv.ctype
                out = tv.values.copy()
            if else_mask.any():
                ev = self._eval(expr.otherwise, else_mask)
                if out is None:
                    out = ev.values.copy()
                    ctype = ev.ctype
                else:
                    ctype = promote(ctype, ev.ctype)
                    out = out.astype(np_dtype_for(ctype), copy=True)
                    out[else_mask] = ev.values.astype(np_dtype_for(ctype))[else_mask]
            if out is None:  # no active lane took either branch
                out = np.zeros(WARP_SIZE, dtype=np.int32)
                ctype = INT
            self.ops += 1
            return TypedValue(out, ctype)
        if isinstance(expr, Cast):
            return self._eval(expr.operand, mask).cast(expr.type)
        if isinstance(expr, Call):
            return self._eval_call(expr, mask)
        raise SimulationError(f"cannot evaluate {type(expr).__name__}")

    def _eval_ident(self, expr: Ident) -> TypedValue:
        var = self.env.get(expr.name)
        if var is None:
            raise SimulationError(f"undefined variable {expr.name!r}")
        if var.kind == "shared_array":
            return TypedValue(
                np.full(WARP_SIZE, var.shared_offset, dtype=np.int64),
                CType(var.ctype.base, var.ctype.pointer_depth + 1),
                "shared", var.dims,
            )
        if var.kind == "local_array":
            return TypedValue(var.values, var.ctype, "local", var.dims)
        return TypedValue(var.values, var.ctype, var.space)

    def _eval_member(self, expr: MemberRef) -> TypedValue:
        if isinstance(expr.base, Ident):
            key = (expr.base.name, expr.member)
            if key in self.builtins:
                return TypedValue(self.builtins[key], INT)
        raise SimulationError(
            f"unsupported member access .{expr.member} (only thread builtins)"
        )

    # -- loads/stores ------------------------------------------------------
    def _address_of(self, expr: ArrayRef, mask: np.ndarray
                    ) -> tuple[np.ndarray, CType, str, tuple[int, ...], Var | None]:
        """Resolve an ArrayRef chain to byte addresses (or local-array slot)."""
        # Collect the index chain: base[e1][e2]...
        indices: list[Expr] = []
        node: Expr = expr
        while isinstance(node, ArrayRef):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        base = self._eval(node, mask) if not isinstance(node, Ident) \
            else self._eval_ident(node)
        if base.space == "local":
            var = self.env[node.name]  # type: ignore[union-attr]
            flat = self._flat_index(indices, var.dims, mask)
            return flat, var.ctype, "local", var.dims, var
        if not base.ctype.is_pointer:
            raise SimulationError("subscript on a non-pointer value")
        elem = base.ctype.pointee()
        if base.dims:
            flat = self._flat_index(indices, base.dims, mask)
            addr = base.values + flat * np_dtype_for(elem).itemsize
            return addr, elem, base.space, base.dims, None
        if len(indices) != 1:
            raise SimulationError("multi-level subscript on a flat pointer")
        idx = self._eval(indices[0], mask).cast(CType("long"))
        self.ops += 1  # address computation
        addr = base.values + idx.values * np_dtype_for(elem).itemsize
        return addr, elem, base.space, (), None

    def _flat_index(self, indices: list[Expr], dims: tuple[int, ...],
                    mask: np.ndarray) -> np.ndarray:
        if len(indices) != len(dims):
            raise SimulationError(
                f"expected {len(dims)} subscripts, got {len(indices)}"
            )
        flat = np.zeros(WARP_SIZE, dtype=np.int64)
        for idx_expr, dim_stride in zip(indices, _strides(dims)):
            idx = self._eval(idx_expr, mask).cast(CType("long"))
            flat = flat + idx.values * dim_stride
            self.ops += 1
        return flat

    def _load(self, expr: ArrayRef, mask: np.ndarray) -> TypedValue:
        addr, elem, space, _dims, var = self._address_of(expr, mask)
        dtype = np_dtype_for(elem)
        if space == "local":
            out = np.zeros(WARP_SIZE, dtype=dtype)
            lanes = np.nonzero(mask)[0]
            idx = np.clip(addr[lanes], 0, var.values.shape[1] - 1)
            out[lanes] = var.values[lanes, idx]
            self.ops += 1
            return TypedValue(out, elem)
        active = addr[mask]
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        if space == "shared":
            data = self.shared.load(active, dtype)
        else:
            data = self.memory.load(active, dtype)
        out = np.zeros(WARP_SIZE, dtype=dtype)
        out[mask] = data
        self._san_access(active, dtype.itemsize, mask, False, False, space)
        # ``active`` is a fresh gather copy; the event may alias it directly.
        self.pending.append(MemEvent(active, dtype.itemsize, False, space))
        return TypedValue(out, elem)

    def _store(self, expr: ArrayRef, value: TypedValue, mask: np.ndarray) -> None:
        addr, elem, space, _dims, var = self._address_of(expr, mask)
        value = value.cast(elem)
        if space == "local":
            lanes = np.nonzero(mask)[0]
            idx = np.clip(addr[lanes], 0, var.values.shape[1] - 1)
            var.values[lanes, idx] = value.values[lanes]
            self.ops += 1
            return
        active = addr[mask]
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        if space == "shared":
            self.shared.store(active, value.values[mask])
        else:
            self.memory.store(active, value.values[mask])
        self._san_access(active, np_dtype_for(elem).itemsize, mask,
                         True, False, space)
        self.pending.append(
            MemEvent(active, np_dtype_for(elem).itemsize, True, space)
        )

    # -- operators -----------------------------------------------------------
    def _eval_binop(self, expr: BinOp, mask: np.ndarray) -> TypedValue:
        op = expr.op
        if op == ",":
            self._eval(expr.left, mask)
            return self._eval(expr.right, mask)
        if op in ("&&", "||"):
            left = self._truthy(self._eval(expr.left, mask))
            # Short-circuit: evaluate RHS only for lanes that need it.
            need = mask & (left if op == "&&" else ~left)
            out = left.copy()
            if need.any():
                right = self._truthy(self._eval(expr.right, need))
                if op == "&&":
                    out = left & np.where(need, right, True)
                else:
                    out = left | np.where(need, right, False)
            self.ops += 1
            return TypedValue(out, BOOL)
        left = self._eval(expr.left, mask)
        right = self._eval(expr.right, mask)
        self.ops += 1
        return self._arith(op, left, right)

    _CMP_FNS = {"==": np.equal, "!=": np.not_equal, "<": np.less,
                ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal}

    def _arith(self, op: str, left: TypedValue, right: TypedValue) -> TypedValue:
        return arith(op, left, right)

    def _eval_unary(self, expr: UnaryOp, mask: np.ndarray) -> TypedValue:
        if expr.op in ("++", "--"):
            old = self._eval(expr.operand, mask)
            one = TypedValue(np.ones(WARP_SIZE, old.values.dtype), old.ctype)
            new = self._arith("+" if expr.op == "++" else "-", old, one)
            self._assign_to(expr.operand, new, mask)
            return new
        operand = self._eval(expr.operand, mask)
        self.ops += 1
        if expr.op == "-":
            return TypedValue(-operand.values, operand.ctype)
        if expr.op == "!":
            return TypedValue(~operand.values.astype(bool), BOOL)
        if expr.op == "~":
            return TypedValue(~operand.values, operand.ctype)
        if expr.op == "&":
            raise SimulationError("address-of is not supported")
        if expr.op == "*":
            # *p == p[0]
            fake = ArrayRef(expr.operand, IntLit(0))
            return self._load(fake, mask)
        raise SimulationError(f"unsupported unary operator {expr.op!r}")

    def _eval_assign(self, expr: Assign, mask: np.ndarray) -> TypedValue:
        if expr.op == "=":
            value = self._eval(expr.value, mask)
            self._assign_to(expr.target, value, mask)
            self.ops += 1
            return value
        binop = expr.op[:-1]
        old = self._eval(expr.target, mask)
        delta = self._eval(expr.value, mask)
        new = self._arith(binop, old, delta)
        self._assign_to(expr.target, new, mask)
        self.ops += 1
        return new

    def _assign_to(self, target: Expr, value: TypedValue, mask: np.ndarray) -> None:
        if isinstance(target, Ident):
            var = self.env.get(target.name)
            if var is None:
                # Benchmarks never assign to undeclared names, but the C
                # subset tolerates it as an implicit int/float definition.
                var = Var(value.ctype,
                          np.zeros(WARP_SIZE, dtype=np_dtype_for(value.ctype)),
                          "scalar", value.space)
                self.env[target.name] = var
            cast = value.cast(var.ctype)
            var.values[mask] = cast.values[mask]
            if var.ctype.is_pointer and value.space != "none":
                var.space = value.space
            return
        if isinstance(target, ArrayRef):
            self._store(target, value, mask)
            return
        if isinstance(target, UnaryOp) and target.op == "*":
            self._store(ArrayRef(target.operand, IntLit(0)), value, mask)
            return
        raise SimulationError(f"cannot assign to {type(target).__name__}")

    # -- calls ---------------------------------------------------------------
    def _eval_call(self, expr: Call, mask: np.ndarray) -> TypedValue:
        name = expr.func
        if name in _UNARY_MATH:
            fn, sfu = _UNARY_MATH[name]
            arg = self._eval(expr.args[0], mask)
            out_t = arg.ctype if arg.ctype.base in ("float", "double") else FLOAT
            if name in ("abs",) and arg.ctype.base not in ("float", "double"):
                out_t = arg.ctype
            vals = fn(arg.values.astype(np_dtype_for(out_t), copy=False))
            if sfu:
                self.sfu_ops += 1
            else:
                self.ops += 1
            return TypedValue(vals.astype(np_dtype_for(out_t), copy=False), out_t)
        if name in _BINARY_MATH:
            fn, sfu = _BINARY_MATH[name]
            a = self._eval(expr.args[0], mask)
            b = self._eval(expr.args[1], mask)
            ctype = promote(a.ctype, b.ctype)
            dtype = np_dtype_for(ctype)
            vals = fn(a.values.astype(dtype, copy=False),
                      b.values.astype(dtype, copy=False))
            if sfu:
                self.sfu_ops += 1
            else:
                self.ops += 1
            return TypedValue(vals.astype(dtype, copy=False), ctype)
        if name == "atomicAdd":
            return self._atomic_add(expr, mask)
        # user __device__ function: inline-interpret
        try:
            func = self.unit.device_function(name)
        except KeyError:
            raise SimulationError(f"unknown function {name!r}") from None
        return self._call_device_sync(func, expr, mask)

    def _call_device_sync(self, func: FunctionDef, expr: Call,
                          mask: np.ndarray) -> TypedValue:
        """Inline a __device__ function call (events queue into pending)."""
        if len(expr.args) != len(func.params):
            raise SimulationError(
                f"{func.name} expects {len(func.params)} args, got {len(expr.args)}"
            )
        saved_env = self.env
        saved_ret = self.returned
        saved_store = self._ret_store
        self.env = dict(saved_env)  # callee sees globals/shared; copies scalars
        self.returned = np.zeros(WARP_SIZE, dtype=bool)
        for param, arg in zip(func.params, expr.args):
            tv = self._eval_in_env(arg, mask, saved_env).cast(param.type)
            self.env[param.name] = Var(
                param.type, tv.values.copy(), "scalar",
                tv.space if param.type.is_pointer else "none", tv.dims,
            )
        ret_store = np.zeros(WARP_SIZE, dtype=np_dtype_for(
            func.return_type if func.return_type.base != "void" else INT))
        self._ret_store = ret_store
        frame = _LoopFrame(np.zeros(WARP_SIZE, bool), np.zeros(WARP_SIZE, bool))
        # Execute synchronously, discarding event *ordering* inside the call
        # (events still queue into self.pending via loads/stores).
        for _ in self._exec_block(func.body, mask, frame):
            pass
        self.env = saved_env
        self.returned = saved_ret
        self._ret_store = saved_store
        self.ops += 2  # call overhead
        if func.return_type.base == "void":
            return TypedValue(np.zeros(WARP_SIZE, np.int32), INT)
        return TypedValue(ret_store, func.return_type)

    def _eval_in_env(self, expr: Expr, mask: np.ndarray,
                     env: dict[str, Var]) -> TypedValue:
        current = self.env
        self.env = env
        try:
            return self._eval(expr, mask)
        finally:
            self.env = current

    def _atomic_add(self, expr: Call, mask: np.ndarray) -> TypedValue:
        target = expr.args[0]
        # atomicAdd(&arr[idx], val)
        if isinstance(target, UnaryOp) and target.op == "&" and \
                isinstance(target.operand, ArrayRef):
            ref = target.operand
        elif isinstance(target, ArrayRef):
            ref = target
        else:
            raise SimulationError("atomicAdd target must be &array[index]")
        addr, elem, space, _dims, var = self._address_of(ref, mask)
        val = self._eval(expr.args[1], mask).cast(elem)
        dtype = np_dtype_for(elem)
        active_addr = addr[mask].astype(np.int64)
        active_val = val.values[mask]
        if space == "shared":
            old = self.shared.load(active_addr, dtype)
            # Serial read-modify-write so colliding lanes accumulate correctly.
            for pos in range(active_addr.size):
                a = active_addr[pos : pos + 1]
                cur = self.shared.load(a, dtype)
                self.shared.store(a, cur + active_val[pos])
        else:
            old = self.memory.load(active_addr, dtype)
            for pos in range(active_addr.size):
                a = active_addr[pos : pos + 1]
                cur = self.memory.load(a, dtype)
                self.memory.store(a, cur + active_val[pos])
        self._san_access(active_addr, dtype.itemsize, mask, True, True, space)
        self.pending.append(MemEvent(active_addr.copy(), dtype.itemsize, False, space))
        self.pending.append(MemEvent(active_addr.copy(), dtype.itemsize, True, space))
        out = np.zeros(WARP_SIZE, dtype=dtype)
        out[mask] = old
        return TypedValue(out, elem)


def _strides(dims: tuple[int, ...]) -> list[int]:
    """Row-major strides in elements for constant dims."""
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    return list(reversed(strides))

