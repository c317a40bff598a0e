#include "vpd/core/explorer.hpp"

#include "vpd/common/error.hpp"
#include "vpd/core/batch.hpp"

namespace vpd {

const ExplorationEntry& ExplorationResult::find(
    ArchitectureKind arch, std::optional<TopologyKind> topo) const {
  for (const ExplorationEntry& e : entries) {
    if (e.architecture == arch && e.topology == topo) return e;
  }
  throw InvalidArgument(detail::concat(
      "no exploration entry for ", to_string(arch),
      topo ? std::string(" / ") + to_string(*topo) : std::string()));
}

ArchitectureExplorer::ArchitectureExplorer(PowerDeliverySpec spec,
                                           EvaluationOptions options)
    : spec_(spec), options_(options) {
  spec_.validate();
}

ExplorationEntry evaluate_with_exclusion(
    const PowerDeliverySpec& spec, ArchitectureKind architecture,
    std::optional<TopologyKind> topology, DeviceTechnology tech,
    const EvaluationOptions& options) {
  ExplorationEntry entry;
  entry.architecture = architecture;
  entry.topology = topology;

  if (architecture == ArchitectureKind::kA0_PcbConversion) {
    entry.evaluation = evaluate_architecture(
        architecture, spec, TopologyKind::kDpmih, tech, options);
    return entry;
  }
  VPD_REQUIRE(topology.has_value(),
              "VPD architectures need a topology selection");

  ArchitectureEvaluation eval;
  try {
    eval = evaluate_architecture(architecture, spec, *topology, tech,
                                 options);
  } catch (const InfeasibleDesign& err) {
    entry.exclusion_reason = err.what();
    return entry;
  }
  if (eval.within_rating) {
    entry.evaluation = std::move(eval);
  } else {
    // The paper's Fig. 7 rule: no published efficiency at the required
    // per-VR current -> the combination is not plotted.
    entry.extrapolated = std::move(eval);
    entry.exclusion_reason = detail::concat(
        to_string(*topology),
        ": required per-VR current exceeds the published rating; "
        "efficiency at that load is not reported (paper excludes this "
        "combination from Fig. 7)");
  }
  return entry;
}

ExplorationEntry ArchitectureExplorer::evaluate(
    ArchitectureKind architecture, std::optional<TopologyKind> topology,
    DeviceTechnology tech) const {
  return evaluate_with_exclusion(spec_, architecture, topology, tech,
                                 options_);
}

ExplorationResult ArchitectureExplorer::explore(DeviceTechnology tech) const {
  // Serial exploration shares solves through one memo like the parallel
  // sweep (core/batch.hpp): same results for the same point list.
  std::vector<EvaluationPoint> points;
  points.push_back(EvaluationPoint{ArchitectureKind::kA0_PcbConversion,
                                   std::nullopt, tech, options_});
  for (ArchitectureKind arch : all_architectures()) {
    if (arch == ArchitectureKind::kA0_PcbConversion) continue;
    for (TopologyKind topo : all_topologies()) {
      points.push_back(EvaluationPoint{arch, topo, tech, options_});
    }
  }
  ExplorationResult result;
  result.spec = spec_;
  result.entries = evaluate_batch_with_exclusion(spec_, std::move(points));
  return result;
}

}  // namespace vpd
