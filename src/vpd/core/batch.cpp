#include "vpd/core/batch.hpp"

#include <utility>

namespace vpd {

BatchStats& BatchStats::operator+=(const BatchStats& other) {
  points += other.points;
  groups += other.groups;
  grouped_points += other.grouped_points;
  scalar_points += other.scalar_points;
  panel_columns += other.panel_columns;
  deduped_solves += other.deduped_solves;
  return *this;
}

BatchStats BatchStats::of(const SolveMemo& memo, std::size_t points) {
  const SolveMemo::Stats table = memo.stats();
  BatchStats stats;
  stats.points = points;
  stats.groups = table.shared_operators;
  stats.grouped_points = table.shared_requests;
  stats.scalar_points = points - table.shared_requests;
  stats.panel_columns = table.distinct_sinks;
  stats.deduped_solves = table.hits;
  return stats;
}

std::vector<ExplorationEntry> evaluate_batch_with_exclusion(
    const PowerDeliverySpec& spec, std::vector<EvaluationPoint> points,
    BatchStats* stats) {
  spec.validate();
  MeshSolveCache cache;
  SolveMemo memo;
  std::vector<ExplorationEntry> entries;
  entries.reserve(points.size());
  for (EvaluationPoint& point : points) {
    if (point.options.mesh_cache == nullptr) point.options.mesh_cache = &cache;
    point.options.solve_memo = &memo;
    entries.push_back(evaluate_with_exclusion(spec, point.architecture,
                                              point.topology, point.tech,
                                              point.options));
  }
  if (stats != nullptr) *stats = BatchStats::of(memo, points.size());
  return entries;
}

}  // namespace vpd
