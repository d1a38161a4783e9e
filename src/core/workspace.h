// Per-thread reusable solver scratch.
//
// One kRSP solve allocates the same large structures over and over: the
// min-cost-flow network behind every phase-1 LARAC iteration and the
// bicameral finder's layered Bellman–Ford tables. A SolveWorkspace keeps
// those alive across solves so the hot paths become allocation-free on
// repeat solves — the contract the engine (engine/engine.cc) relies on for
// throughput.
//
// Semantics: a workspace NEVER changes results. Every component re-checks
// dimensions/topology and rebuilds when they do not match, so a workspace
// can be handed instances of any shape in any order; reuse is purely a
// performance property (engine_test asserts reused == fresh on randomized
// instances). Not thread-safe: use one workspace per thread.
#pragma once

#include "core/bicameral.h"
#include "flow/min_cost_flow.h"

namespace krsp::core {

struct SolveWorkspace {
  /// Cached min-cost-flow network for phase 1's repeated Lagrangian calls.
  flow::McfWorkspace mcmf;
  /// Bicameral finder scratch: the flat rolling dist rows + packed parent
  /// records and the per-find SCC structure, grown high-water across
  /// calls. Also pins the finder to its serial scan; see
  /// BicameralWorkspace.
  BicameralWorkspace finder;
};

}  // namespace krsp::core
