// Batch-first evaluation: the group-detecting front end that evaluates
// many points with one distribution solve per distinct same-operator
// request instead of one solve per point.
//
// An EvaluationBatch runs in three phases:
//
//   1. probe   — each point's evaluation runs up to its distribution solve;
//                a DistributionSolveHook records the fully assembled solve
//                request (operator, VR legs, sink vector, solve options)
//                and aborts the evaluation. Points that never reach a
//                distribution solve (A0, pre-solve exclusions) finish
//                outright here.
//   2. plan    — probed requests are grouped by stamped operator: identical
//                assembled mesh and VR legs with identical solve options,
//                differing only in the sink vector (sink-map variants,
//                fault load scalings, two-stage intermediate currents).
//                Grouping is deterministic in input order and independent
//                of thread count or mesh-cache wiring. Within a group,
//                value-identical sink vectors deduplicate onto one shared
//                solve.
//   3. execute — each multi-point group solves its distinct sink vectors
//                one by one with solve_irdrop on the probe-time assembly
//                and replays every member's evaluation with the injected
//                result. Singleton groups take the plain scalar path.
//
// Correctness contract: every entry is bit-identical to a scalar
// evaluate_with_exclusion of the same point — each injected result is the
// solve the un-hooked evaluation would run, and the solver is
// deterministic in its inputs, so a shared solve equals solving each copy.
// Errors surface per point, the first one in input order rethrown by
// rethrow_first_error().
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <vector>

#include "vpd/core/explorer.hpp"

namespace vpd {

/// One point of a batch: the same coordinates evaluate_with_exclusion
/// takes. `options.mesh_cache` is honoured (a shared cache makes probe
/// grouping cheap via pointer identity, but grouping works without one);
/// `options.solve_hook` is overwritten by the batch engine.
struct EvaluationPoint {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;  // nullopt only for A0
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  EvaluationOptions options;
};

/// Deterministic accounting of one batch run (plan() fills every field;
/// execute() never changes them).
struct BatchStats {
  std::size_t points{0};          // batch size
  std::size_t groups{0};          // multi-point same-operator groups
  std::size_t grouped_points{0};  // points solved through a group
  std::size_t scalar_points{0};   // singletons + pre-solve completions
  /// Distinct right-hand sides solved by same-operator groups that have
  /// at least two (a group whose members all drew one sink vector counts
  /// under deduped_solves only).
  std::size_t panel_columns{0};
  /// Group members whose sink vector matched another member's exactly and
  /// shared its solve (bit-identical to solving twice).
  std::size_t deduped_solves{0};

  BatchStats& operator+=(const BatchStats& other);
};

class EvaluationBatch {
 public:
  /// Validates the spec and takes ownership of the points.
  EvaluationBatch(PowerDeliverySpec spec, std::vector<EvaluationPoint> points);

  EvaluationBatch(const EvaluationBatch&) = delete;
  EvaluationBatch& operator=(const EvaluationBatch&) = delete;

  std::size_t size() const { return points_.size(); }

  /// Phase 1: probe point `index`. Thread-safe for distinct indices; call
  /// exactly once per point before plan(). Never throws — failures land in
  /// error(index).
  void probe(std::size_t index);

  /// Phase 2: group the probed requests. Single-threaded; call after every
  /// probe() has returned. Returns the number of execution units.
  std::size_t plan();

  std::size_t unit_count() const { return units_.size(); }

  /// Phase 3: execute unit `unit` (a whole group or one scalar point).
  /// Thread-safe for distinct units. Never throws — failures land in the
  /// error slots of the points the unit covers.
  void execute(std::size_t unit);

  /// Serial convenience: probe everything, plan, execute every unit.
  void run();

  /// The finished entry for point `index`; valid once the point's unit has
  /// executed and error(index) is null. Mutable so callers can move it out.
  ExplorationEntry& entry(std::size_t index);
  std::exception_ptr error(std::size_t index) const;
  /// Wall time attributed to the point: its probe plus its share of the
  /// group's solves plus its replay. Scheduling-dependent, like SweepStats.
  double wall_seconds(std::size_t index) const;

  /// Valid after plan().
  const BatchStats& stats() const { return stats_; }

  /// Rethrows the first recorded per-point error in input order (the
  /// deterministic choice, unlike completion order). No-op when clean.
  void rethrow_first_error() const;

 private:
  /// What the probe hook captured at the point's distribution-solve site.
  struct ProbeRecord {
    /// The evaluation finished (or failed) during probe without reaching a
    /// distribution solve: A0, pre-solve exclusions, pre-solve errors.
    bool completed{false};
    bool has_request{false};
    std::shared_ptr<const AssembledMesh> assembled;
    std::vector<VrAttachment> legs;
    Vector sinks;
    IrDropOptions solve_options;
  };
  /// A same-operator group: members in input order, each mapped onto the
  /// deduplicated distinct right-hand sides (owned by their first member).
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::size_t> rhs_of_member;  // member slot -> distinct slot
    std::vector<std::size_t> distinct;       // distinct slot -> owning member
  };
  struct Unit {
    bool is_group{false};
    std::size_t index{0};  // group index when is_group, else point index
  };

  void execute_scalar(std::size_t index);
  void execute_group(const Group& group);
  void replay(std::size_t index, IrDropResult result);

  PowerDeliverySpec spec_;
  std::vector<EvaluationPoint> points_;
  std::vector<ProbeRecord> records_;
  std::vector<ExplorationEntry> entries_;
  std::vector<std::exception_ptr> errors_;
  std::vector<double> wall_seconds_;
  std::vector<Group> groups_;
  std::vector<Unit> units_;
  BatchStats stats_;
};

/// One-call batch evaluation with the explorer's exclusion rule: probes,
/// groups and executes serially on the calling thread, wiring a private
/// MeshSolveCache into points that have none (cached assembly is
/// numerically identical to per-call assembly). Returns entries in input
/// order; rethrows the first per-point error in input order. `stats`, when
/// non-null, receives the batch accounting.
std::vector<ExplorationEntry> evaluate_batch_with_exclusion(
    const PowerDeliverySpec& spec, std::vector<EvaluationPoint> points,
    BatchStats* stats = nullptr);

}  // namespace vpd
