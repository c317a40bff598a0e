#include "vpd/core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "vpd/common/error.hpp"

namespace vpd {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Internal control flow of the probe phase: thrown by the probe hook
/// after it records the solve request, unwinding the evaluation before
/// any solve work happens. Deliberately not derived from std::exception —
/// nothing between the solve site and EvaluationBatch::probe may catch it.
struct ProbeCaptured {};

/// Records the distribution-solve request and aborts the evaluation.
class ProbeHook final : public DistributionSolveHook {
 public:
  ProbeHook(std::shared_ptr<const AssembledMesh>* assembled,
            std::vector<VrAttachment>* legs, Vector* sinks,
            IrDropOptions* solve_options, bool* has_request)
      : assembled_(assembled), legs_(legs), sinks_(sinks),
        solve_options_(solve_options), has_request_(has_request) {}

  bool solve(const std::shared_ptr<const AssembledMesh>& assembled,
             const std::vector<VrAttachment>& legs, const Vector& sinks,
             const IrDropOptions& options, IrDropResult&) override {
    *assembled_ = assembled;
    *legs_ = legs;
    *sinks_ = sinks;
    *solve_options_ = options;
    *has_request_ = true;
    throw ProbeCaptured{};
  }

 private:
  std::shared_ptr<const AssembledMesh>* assembled_;
  std::vector<VrAttachment>* legs_;
  Vector* sinks_;
  IrDropOptions* solve_options_;
  bool* has_request_;
};

/// Injects a result solved outside the evaluation (a group's solve or the
/// point's own scalar solve), along with the probe-time operator assembly
/// so the replayed evaluation touches the mesh cache exactly once per
/// point. A second solve in one evaluation is unexpected; it falls through
/// to the scalar path, which is always correct.
class ReplayHook final : public DistributionSolveHook {
 public:
  ReplayHook(std::shared_ptr<const AssembledMesh> assembled,
             IrDropResult result)
      : assembled_(std::move(assembled)), result_(std::move(result)) {}

  std::shared_ptr<const AssembledMesh> assembled_mesh() override {
    return used_ ? nullptr : assembled_;
  }

  bool solve(const std::shared_ptr<const AssembledMesh>&,
             const std::vector<VrAttachment>&, const Vector&,
             const IrDropOptions&, IrDropResult& out) override {
    if (used_) return false;
    used_ = true;
    out = std::move(result_);
    return true;
  }

 private:
  std::shared_ptr<const AssembledMesh> assembled_;
  IrDropResult result_;
  bool used_{false};
};

}  // namespace

BatchStats& BatchStats::operator+=(const BatchStats& other) {
  points += other.points;
  groups += other.groups;
  grouped_points += other.grouped_points;
  scalar_points += other.scalar_points;
  panel_columns += other.panel_columns;
  deduped_solves += other.deduped_solves;
  return *this;
}

EvaluationBatch::EvaluationBatch(PowerDeliverySpec spec,
                                 std::vector<EvaluationPoint> points)
    : spec_(spec), points_(std::move(points)) {
  spec_.validate();
  records_.resize(points_.size());
  entries_.resize(points_.size());
  errors_.resize(points_.size());
  wall_seconds_.assign(points_.size(), 0.0);
}

void EvaluationBatch::probe(std::size_t index) {
  const auto start = std::chrono::steady_clock::now();
  const EvaluationPoint& point = points_[index];
  ProbeRecord& record = records_[index];
  ProbeHook hook(&record.assembled, &record.legs, &record.sinks,
                 &record.solve_options, &record.has_request);
  EvaluationOptions options = point.options;
  options.solve_hook = &hook;
  try {
    entries_[index] = evaluate_with_exclusion(
        spec_, point.architecture, point.topology, point.tech, options);
    record.completed = true;  // no distribution solve on this path
  } catch (const ProbeCaptured&) {
    // Request recorded; the point finishes in execute().
  } catch (...) {
    errors_[index] = std::current_exception();
    record.completed = true;  // failed before any solve; nothing to run
  }
  wall_seconds_[index] += seconds_since(start);
}

std::size_t EvaluationBatch::plan() {
  stats_ = BatchStats{};
  stats_.points = points_.size();
  groups_.clear();
  units_.clear();

  // Same stamped operator: identical solve options, identical VR legs,
  // identical mesh operator. Mesh identity is the shared-cache pointer
  // when available, falling back to a value comparison of the Laplacian so
  // grouping does not depend on cache wiring (cached and per-call
  // assemblies are bit-identical by construction).
  const auto same_operator = [this](std::size_t a, std::size_t b) {
    const ProbeRecord& ra = records_[a];
    const ProbeRecord& rb = records_[b];
    if (ra.solve_options.relative_tolerance !=
            rb.solve_options.relative_tolerance ||
        ra.solve_options.warm_start_voltage !=
            rb.solve_options.warm_start_voltage ||
        ra.solve_options.preconditioner != rb.solve_options.preconditioner) {
      return false;
    }
    if (ra.legs.size() != rb.legs.size()) return false;
    for (std::size_t k = 0; k < ra.legs.size(); ++k) {
      if (ra.legs[k].node != rb.legs[k].node ||
          ra.legs[k].source_voltage.value !=
              rb.legs[k].source_voltage.value ||
          ra.legs[k].series.value != rb.legs[k].series.value) {
        return false;
      }
    }
    if (ra.assembled.get() == rb.assembled.get()) return true;
    const CsrMatrix& la = ra.assembled->laplacian;
    const CsrMatrix& lb = rb.assembled->laplacian;
    return la.rows() == lb.rows() &&
           la.row_offsets() == lb.row_offsets() &&
           la.col_indices() == lb.col_indices() &&
           la.values() == lb.values();
  };

  // Group discovery in input order: a point joins the first group whose
  // lead member shares its operator. Deterministic in the input alone —
  // independent of thread count, execution order and cache state.
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (records_[i].completed || !records_[i].has_request) continue;
    bool placed = false;
    for (Group& g : groups_) {
      if (same_operator(g.members.front(), i)) {
        g.members.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      Group g;
      g.members.push_back(i);
      groups_.push_back(std::move(g));
    }
  }

  // Keep multi-member groups as group units; everything else (singleton
  // operators) takes the scalar path. Within a kept group, value-identical
  // sink vectors collapse onto one shared solve — the solver is
  // deterministic in its inputs, so sharing is bit-identical to solving
  // each copy separately.
  std::vector<Group> kept;
  std::vector<char> scalar(points_.size(), 0);
  for (Group& g : groups_) {
    if (g.members.size() < 2) {
      for (std::size_t m : g.members) scalar[m] = 1;
      continue;
    }
    for (std::size_t m : g.members) {
      const Vector& sinks = records_[m].sinks;
      std::size_t d = 0;
      for (; d < g.distinct.size(); ++d) {
        if (records_[g.distinct[d]].sinks == sinks) break;
      }
      if (d == g.distinct.size()) {
        g.distinct.push_back(m);
      } else {
        ++stats_.deduped_solves;
      }
      g.rhs_of_member.push_back(d);
    }
    ++stats_.groups;
    stats_.grouped_points += g.members.size();
    if (g.distinct.size() >= 2) stats_.panel_columns += g.distinct.size();
    kept.push_back(std::move(g));
  }
  groups_ = std::move(kept);

  units_.reserve(groups_.size() + points_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    units_.push_back(Unit{true, g});
  }
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (scalar[i]) units_.push_back(Unit{false, i});
  }
  stats_.scalar_points = stats_.points - stats_.grouped_points;
  return units_.size();
}

void EvaluationBatch::execute(std::size_t unit) {
  const Unit& u = units_[unit];
  if (u.is_group) {
    execute_group(groups_[u.index]);
  } else {
    execute_scalar(u.index);
  }
}

void EvaluationBatch::run() {
  for (std::size_t i = 0; i < size(); ++i) probe(i);
  plan();
  for (std::size_t u = 0; u < unit_count(); ++u) execute(u);
}

void EvaluationBatch::replay(std::size_t index, IrDropResult result) {
  const EvaluationPoint& point = points_[index];
  ReplayHook hook(records_[index].assembled, std::move(result));
  EvaluationOptions options = point.options;
  options.solve_hook = &hook;
  try {
    entries_[index] = evaluate_with_exclusion(
        spec_, point.architecture, point.topology, point.tech, options);
  } catch (...) {
    errors_[index] = std::current_exception();
  }
}

void EvaluationBatch::execute_scalar(std::size_t index) {
  const ProbeRecord& record = records_[index];
  if (!record.has_request) return;  // finished (or failed) during probe
  const auto start = std::chrono::steady_clock::now();
  try {
    // The recorded request solves exactly as the un-hooked evaluation
    // would (same operator object, legs, sinks and options), so injecting
    // its result into the replay is bit-identical to the legacy scalar
    // path — and the mesh cache sees one get per point, from the probe.
    IrDropResult result = solve_irdrop(*record.assembled, record.legs,
                                       record.sinks, record.solve_options);
    replay(index, std::move(result));
  } catch (...) {
    errors_[index] = std::current_exception();
  }
  wall_seconds_[index] += seconds_since(start);
}

void EvaluationBatch::execute_group(const Group& group) {
  const auto solve_start = std::chrono::steady_clock::now();
  const ProbeRecord& lead = records_[group.members.front()];
  std::vector<IrDropResult> solved;
  solved.reserve(group.distinct.size());
  try {
    // Members share the lead's operator, legs and options, so each
    // distinct sink vector solves exactly as its owner's un-hooked
    // evaluation would.
    for (std::size_t m : group.distinct) {
      solved.push_back(solve_irdrop(*lead.assembled, lead.legs,
                                    records_[m].sinks, lead.solve_options));
    }
  } catch (...) {
    // Group solve failed: take the scalar path per member, which
    // reproduces the legacy behaviour — and its per-point errors —
    // exactly.
    for (std::size_t m : group.members) execute_scalar(m);
    return;
  }
  const double shared_seconds =
      seconds_since(solve_start) /
      static_cast<double>(group.members.size());
  for (std::size_t k = 0; k < group.members.size(); ++k) {
    const std::size_t m = group.members[k];
    const auto start = std::chrono::steady_clock::now();
    replay(m, solved[group.rhs_of_member[k]]);
    wall_seconds_[m] += shared_seconds + seconds_since(start);
  }
}

ExplorationEntry& EvaluationBatch::entry(std::size_t index) {
  return entries_[index];
}

std::exception_ptr EvaluationBatch::error(std::size_t index) const {
  return errors_[index];
}

double EvaluationBatch::wall_seconds(std::size_t index) const {
  return wall_seconds_[index];
}

void EvaluationBatch::rethrow_first_error() const {
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<ExplorationEntry> evaluate_batch_with_exclusion(
    const PowerDeliverySpec& spec, std::vector<EvaluationPoint> points,
    BatchStats* stats) {
  // A shared assembly cache makes same-operator detection cheap (pointer
  // identity) and mesh assembly once-per-geometry; wiring it here changes
  // no bits (cached assembly is identical to per-call assembly).
  MeshSolveCache cache;
  for (EvaluationPoint& point : points) {
    if (point.options.mesh_cache == nullptr) {
      point.options.mesh_cache = &cache;
    }
  }
  EvaluationBatch batch(spec, std::move(points));
  batch.run();
  batch.rethrow_first_error();
  if (stats != nullptr) *stats = batch.stats();
  std::vector<ExplorationEntry> entries;
  entries.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    entries.push_back(std::move(batch.entry(i)));
  }
  return entries;
}

}  // namespace vpd
