"""The published flop model.

Machine-independent cost accounting used by the optimizers and the benchmark
CLI.  The model is deliberately simple and fully auditable:

* every scalar add/sub/mul/div counts as 1 flop;
* every transcendental evaluation (sin, cos, cosh, sinh, exp, log, arccosh,
  sqrt) counts as 8 flops;
* a coordinate update's cost is split into a *derivative* part (computing
  theta from the gradient) and an *update* part (applying the retraction);
  when a step is skipped because |theta| < ZERO_DERIVATIVE_SKIP, only the
  derivative part is charged;
* for the rotation families (Stiefel, Grassmann, hyperbolic), the per-update
  coefficient setup (scaling the angle and evaluating its two trig values)
  is a fixed overhead identical for every rotation step; the model assigns
  it zero cost so the published per-update count is exactly linear in the
  row width (derivative 4p, update 6p).  Element-type families charge their
  transcendentals in full, which is where the 8-flop rule matters;
* the gradient oracle is charged separately per invocation with a per-problem
  formula; a constant-gradient objective (materialized once at problem build)
  has oracle cost 0;
* instrumentation (objective values recorded in the trace, gradient-norm and
  feasibility logging) is off the ledger and itemized separately, so logging
  cadence never distorts cost curves.

The per-update formulas by family and coordinate label are the table that
``render_table`` prints (``manifold-cd flops``); each family's
``flop_parts`` implements its row.
"""

from __future__ import annotations

# Steps with |theta| below this are skipped: the retraction returns the input
# bitwise and only the derivative flops are charged.
ZERO_DERIVATIVE_SKIP = 1e-300
# Why a coordinate step is refused, the same text on every path that steps.
NONFINITE_DERIVATIVE = "non-finite coordinate derivative"


def step_overflow(t: float) -> str:
    return f"coordinate step overflow (|t|={abs(t):.3g})"


class StepRefused(ArithmeticError):
    """A coordinate step that cannot be taken, with one of the reasons above
    as its message.  A kernel that takes many steps in one call gives ``s``,
    the step it reached; the epoch loop reports the refusal as
    ``OptimizeAbort(k, s, reason)``."""

    def __init__(self, reason: str, s: int | None = None):
        super().__init__(reason)
        self.s = s


# An exp, cosh or sinh step with |t| above this is refused (overflow is near 710).
MAX_EXP_STEP = 500.0


def render_table() -> str:
    """Human-readable flop model table for the ``flops`` CLI subcommand."""
    lines = [
        "flop model",
        "  scalar add/sub/mul/div ........ 1 flop",
        "  transcendental (sin, cos, cosh, sinh, exp, log, arccosh, sqrt) ... 8 flops",
        "  rotation coefficient setup .... 0 (fixed per-step overhead, excluded)",
        "  gradient oracle ............... charged per invocation, per-problem formula",
        "  constant-gradient objectives .. oracle cost 0 (materialized at build)",
        "  instrumentation (f, |grad|, feasibility logging) ... off the ledger",
        "",
        "per-update cost (derivative + update) by family",
        "  stiefel, grassmann   pair         4p   + 6p",
        "  hyperbolic           pair         4p   + 6p",
        "  symplectic (2p wide) pair i<j     8p   + 8p",
        "                       diag i=j     4p+1 + 4p+1",
        "                       scale j=i+n  8p   + 4p+17",
        "  doubly stochastic    entry        3    + 122",
        "  multinomial          entry        1    + 26",
        "  factored SPSD        entry        1    + 2",
        "  SPD (BW metric)      pair i<j     4n+2 + 4n+17",
        "                       diag i=j     2n+1 + n+4",
        "  columnwise stiefel   pair         4n   + 6n",
        "                       column       4np+n + 6n+9",
    ]
    return "\n".join(lines)
