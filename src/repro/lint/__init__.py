"""Order(1) conformance: declarations, one static engine, fitters.

The paper's thesis is that every memory-management operation should cost
constant time regardless of operand size.  This package turns that claim
into a machine-checked invariant:

* :mod:`repro.lint.decorators` — the :func:`o1` / :func:`complexity`
  decorators hot paths use to *declare* their simulated-cost class, and
  the :func:`allocfree` / :func:`allocbound` decorators that declare the
  orthogonal wall-clock contract (how many Python-level allocations a
  call may perform).  Declaring is free at runtime (attributes set at
  import time, no wrapper).
* The static passes, all over one parse of the package
  (:mod:`repro.lint.callgraph` keeps each module's source, AST and
  allow-comment maps; :func:`repro.lint.flow.run_lint` drives them):

  - :mod:`repro.lint.astcheck` — the intraprocedural cost-shape rules:
    size-dependent loops, charges inside them and recursion that
    contradict a declared class;
  - :mod:`repro.lint.engine` — one SCC-condensed, bottom-up summary
    table generic over a lattice, with the declared-bound check and the
    hot-entry coverage walk.  Its two instances are simulated cost
    (:mod:`repro.lint.summaries`: a declaration is judged against
    everything it can reach, and every function reachable from a
    hot-path entry must be declared or constant-shaped) and heap
    allocation (:mod:`repro.lint.alloc`, AllocSan: displays,
    comprehensions, closures, materializing builtins, ... judged against
    ``@allocfree`` / ``@allocbound``, with the four hot access entries'
    closure declared or allocation-free);
  - :mod:`repro.lint.protocols` — two must-call protocols through one
    statement walker: page-table mutation must reach a TLB invalidation
    before the syscall returns, and a journal commit must precede every
    apply;
  - :mod:`repro.lint.controls` — planted mislabeled functions each pass
    must flag on every run.

  Known exceptions carry inline ``# o1: allow(...)`` /
  ``# alloc: allow(...)`` comments (an unused one is itself a finding)
  or live in the one baseline, ``src/repro/lint/o1_baseline.json``
  (:mod:`repro.lint.findings`; ships empty).
* The empirical checks (``--fit``): :mod:`repro.lint.fit` +
  :mod:`repro.lint.ops` run registered operations at geometrically
  spaced operand sizes on the simulated clock and fit cost-vs-size to
  constant/log/linear/linearithmic, catching dynamic O(n) behaviour the
  AST cannot see; :mod:`repro.lint.allocfit` re-runs the
  allocation-certified hot ops under ``tracemalloc``, so a static
  certificate that lies about steady-state allocation fails the gate.

Run them via ``repro-o1 lint [--fit]``; CI gates on a clean run.

Only the declaration half is imported here: the checkers and fitters pull
in the whole simulator, and annotated modules (buddy, TLB, syscalls, ...)
import ``repro.lint`` at module load, so this ``__init__`` must stay
dependency-free to avoid import cycles.
"""

from repro.lint.decorators import (
    AllocDeclaration,
    ComplexityClass,
    Declaration,
    allocbound,
    allocfree,
    complexity,
    declared_alloc,
    declared_complexity,
    iter_alloc_declarations,
    iter_declarations,
    o1,
)

__all__ = [
    "AllocDeclaration",
    "ComplexityClass",
    "Declaration",
    "allocbound",
    "allocfree",
    "complexity",
    "declared_alloc",
    "declared_complexity",
    "iter_alloc_declarations",
    "iter_declarations",
    "o1",
]
