// Batch evaluation: many points evaluated against one run-scoped
// SolveMemo (package/solve_memo.hpp), so points that request the same
// distribution solve share it. Same-operator points — sink-map variants,
// fault load scalings, two-stage intermediate currents — differ only in
// the sink vector; value-identical sink vectors share one solve outright.
//
// Correctness contract: every entry is bit-identical to a lone
// evaluate_with_exclusion of the same point without a memo. A shared
// answer is the result of the very solve the point would run, and the
// solver is deterministic in its inputs.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "vpd/core/explorer.hpp"
#include "vpd/package/solve_memo.hpp"

namespace vpd {

/// One point of a batch: the same coordinates evaluate_with_exclusion
/// takes. `options.mesh_cache` is honoured; `options.solve_memo` is
/// overwritten with the batch's memo.
struct EvaluationPoint {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;  // nullopt only for A0
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  EvaluationOptions options;
};

/// Deterministic accounting of one run's shared solves, read off its
/// SolveMemo at the end of the run. An operator is the stamped mesh with
/// its VR legs and solve options; its requests differ only in the sink
/// vector.
struct BatchStats {
  std::size_t points{0};          // points in the run
  std::size_t groups{0};          // operators requested at least twice
  std::size_t grouped_points{0};  // requests on those operators
  std::size_t scalar_points{0};   // points - grouped_points
  /// Distinct sink vectors solved on operators that drew at least two (an
  /// operator whose requests all drew one sink vector counts under
  /// deduped_solves only).
  std::size_t panel_columns{0};
  /// Requests whose sink vector matched an earlier request's exactly and
  /// shared its solve (bit-identical to solving twice).
  std::size_t deduped_solves{0};

  BatchStats& operator+=(const BatchStats& other);

  /// The accounting of a run of `points` points that solved through
  /// `memo`.
  static BatchStats of(const SolveMemo& memo, std::size_t points);
};

/// Evaluates the points serially, in input order, with the explorer's
/// exclusion rule against one private SolveMemo, wiring a private
/// MeshSolveCache into points that have none (cached assembly is
/// numerically identical to per-call assembly, and the memo shares
/// operators by pointer). Returns entries in input order; the first
/// error in input order propagates. `stats`, when non-null, receives the
/// batch accounting.
std::vector<ExplorationEntry> evaluate_batch_with_exclusion(
    const PowerDeliverySpec& spec, std::vector<EvaluationPoint> points,
    BatchStats* stats = nullptr);

}  // namespace vpd
