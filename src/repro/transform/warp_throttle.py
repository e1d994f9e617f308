"""Warp-level throttling transform (Fig. 4).

Splits a throttled loop into ``N`` copies, each guarded so that only one
group of ``#Warps_TB / N`` warps executes it, with ``__syncthreads()``
barriers serializing the groups::

    if (wid >= 0 && wid < G)  { <loop> }  __syncthreads();
    if (wid >= G && wid < 2G) { <loop> }  __syncthreads();
    ...

The guard operates at warp granularity (``wid = linear_tid / 32``), so the
transformation adds no intra-warp control divergence (§4.3).

When the caller passes the outcome of the split's union proof, each
guard carries a :class:`~repro.frontend.ast_nodes.WarpGroupTag`.  The tag
changes neither the emitted source nor statement equality; it lets the tape
engine run a proved split's loop once for all groups.
"""

from __future__ import annotations

from ..errors import WarpSplitError
from ..frontend.ast_nodes import (
    BinOp,
    Block,
    FunctionDef,
    IfStmt,
    IntLit,
    Stmt,
    SyncthreadsStmt,
    WarpGroupTag,
)
from .utils import linear_warp_id_expr, replace_stmt, with_body


def split_loop_for_warp_groups(
    kernel: FunctionDef,
    loop_stmt: Stmt,
    n: int,
    warps_per_tb: int,
    block_dim: tuple[int, int, int],
    warp_size: int = 32,
    grid: tuple[int, int, int] | None = None,
    proved: bool | None = None,
) -> FunctionDef:
    """Return ``kernel`` with ``loop_stmt`` split into ``n`` warp groups.

    ``loop_stmt`` must be a statement object from ``kernel``'s body (identity
    matching).  ``n`` must divide ``warps_per_tb``; violations raise
    :class:`repro.errors.WarpSplitError` (a ``ValueError`` subclass).

    ``proved`` is whether the union proof
    (:func:`repro.analysis.dataflow.safety.warp_split_union_safe`) holds for
    the launch ``(block_dim, grid)``; the guards are tagged with it.  None
    (the default) leaves them untagged.
    """
    if n <= 1:
        return kernel
    if warps_per_tb % n != 0:
        raise WarpSplitError(f"N={n} does not divide warps/TB={warps_per_tb}")
    group = warps_per_tb // n
    wid = linear_warp_id_expr(block_dim, warp_size)
    pieces: list[Stmt] = []
    for g in range(n):
        lo, hi = g * group, (g + 1) * group
        cond = BinOp(
            "&&",
            BinOp(">=", wid, IntLit(lo)),
            BinOp("<", wid, IntLit(hi)),
        )
        tag = None
        if proved is not None:
            tag = WarpGroupTag(g, n, warps_per_tb, tuple(block_dim), grid,
                               proved)
        pieces.append(IfStmt(cond, _as_block(loop_stmt), split=tag))
        pieces.append(SyncthreadsStmt())
    try:
        new_body = replace_stmt(kernel.body, loop_stmt, pieces)
    except ValueError as exc:
        # The loop object is no longer in the body — an earlier transform
        # (e.g. tiling) restructured it.
        raise WarpSplitError(str(exc)) from exc
    assert isinstance(new_body, Block)
    return with_body(kernel, new_body)


def _as_block(stmt: Stmt) -> Block:
    return stmt if isinstance(stmt, Block) else Block((stmt,))
