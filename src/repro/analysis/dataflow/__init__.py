"""Forward dataflow framework over the frontend AST.

Three clients:

* :mod:`.affineprop` — constant & affine-form propagation plus
  induction-variable recognition, feeding precise Eq. 5 index forms into
  :func:`repro.analysis.loops.find_loops`;
* :mod:`.safety` — the static transform-safety verifier behind
  ``catt lint`` and the pipeline's static validation pre-gate;
* :mod:`.races` — the barrier-interval race proofs behind ``catt race``.

:mod:`.cfg` and :mod:`.solver` are the shared framework underneath.
"""

from .affineprop import AffineFlow, FlowEnv, LoopMeta, PtrState, ptr_state_of
from .cfg import CFG, BasicBlock, CFGLoop, build_cfg
from .solver import solve_forward

__all__ = [
    "AffineFlow",
    "FlowEnv",
    "LoopMeta",
    "PtrState",
    "ptr_state_of",
    "CFG",
    "BasicBlock",
    "CFGLoop",
    "build_cfg",
    "solve_forward",
]
