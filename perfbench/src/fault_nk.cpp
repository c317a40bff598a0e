// fault_nk: N-1 + N-k fault campaigns of the four vertical architectures
// (DSCH final stage, GaN, paper mode, default 41x41 mesh) through
// FaultCampaignRunner. One round runs the four campaigns against one fresh
// mesh cache, the way a user runs a survivability study.
#include <algorithm>
#include <random>

#include "campaign_round.hpp"
#include "vpd/fault/campaign.hpp"

namespace perfbench {

namespace {

using namespace vpd;

constexpr ArchitectureKind kArchitectures[] = {
    ArchitectureKind::kA1_InterposerPeriphery,
    ArchitectureKind::kA2_InterposerBelowDie,
    ArchitectureKind::kA3_TwoStage12V,
    ArchitectureKind::kA3_TwoStage6V,
};
constexpr std::size_t kCampaigns = 4;
constexpr std::size_t kNkSamples = 32;
/// Order k of each campaign's sampled N-k scenarios; the seed draws the
/// scenarios themselves.
constexpr std::size_t kNkOrders[kCampaigns] = {2, 3, 2, 3};
/// Scenarios per campaign re-evaluated through the plain reference path.
constexpr std::size_t kReferenceSamples = 6;

struct Inputs {
  PowerDeliverySpec spec;
  EvaluationOptions options;
  std::vector<FaultCampaignConfig> configs;  // one per architecture
};

Inputs make_inputs(std::uint64_t seed, std::size_t threads) {
  Inputs in;
  in.spec = paper_system();
  in.options.below_die_area_fraction = 1.6;  // paper mode (A2's 48 VRs)
  std::mt19937_64 rng(seed);
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    FaultCampaignConfig config;
    config.nk_samples = kNkSamples;
    config.nk_order = kNkOrders[c];
    config.seed = rng();
    config.sweep.threads = threads;
    in.configs.push_back(config);
  }
  return in;
}

struct RoundOutput {
  std::vector<FaultCampaignReport> reports;
  MeshSolveCache::Stats cache;
};

RoundOutput run_round(const Inputs& in, obs::TraceContext trace) {
  RoundOutput out;
  MeshSolveCache cache;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    FaultCampaignConfig config = in.configs[c];
    config.sweep.cache = &cache;
    EvaluationOptions options = in.options;
    obs::Span span("bench.fault.run", trace);
    options.trace = span.context();
    out.reports.push_back(FaultCampaignRunner(in.spec, config)
                              .run(kArchitectures[c], TopologyKind::kDsch,
                                   DeviceTechnology::kGalliumNitride,
                                   options));
  }
  out.cache = cache.stats();
  return out;
}

/// Wire dumps of every scenario outcome, in campaign and scenario order.
std::vector<std::string> outcome_dumps(const FaultCampaignReport& report) {
  std::vector<std::string> dumps;
  for (const FaultScenarioOutcome& o : report.outcomes) {
    std::string d = o.evaluated ? "1" : "0";
    d += o.survives() ? "S" : "F";
    if (o.evaluation) d += dump_evaluation(*o.evaluation);
    dumps.push_back(std::move(d));
  }
  return dumps;
}

}  // namespace

Result run_fault_nk(const Args& args) {
  Result result;
  const Inputs inputs = make_inputs(args.seed, args.threads);

  // Set-up: generate the inputs and evaluate the four nominal designs on
  // a fresh cache (the first answer a campaign user waits for).
  SetupTimer setup([&] {
    const Inputs in = make_inputs(args.seed, args.threads);
    MeshSolveCache cache;
    EvaluationOptions options = in.options;
    options.mesh_cache = &cache;
    for (ArchitectureKind arch : kArchitectures) {
      evaluate_with_exclusion(in.spec, arch, TopologyKind::kDsch,
                              DeviceTechnology::kGalliumNitride, options);
    }
  });
  setup.sample(5);

  // --- Rounds, each checked against round 0 ---------------------------------
  std::vector<std::vector<std::string>> reference_dumps;
  std::size_t items_per_round = 0;
  RoundCounters counters;
  const auto inspect = [&](std::size_t k, const RoundOutput& round) {
    SolverCounters solver;
    for (const FaultCampaignReport& r : round.reports) {
      solver = solver + r.solver;
      if (k == 0) {
        reference_dumps.push_back(outcome_dumps(r));
        items_per_round += r.scenario_count();
      }
    }
    counters.add(k, solver, round.cache, result.gate);
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const FaultCampaignReport& r = round.reports[c];
      const std::vector<std::string> dumps =
          k == 0 ? reference_dumps[c] : outcome_dumps(r);
      result.gate.attempt(r.scenario_count());
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const FaultScenarioOutcome& o = r.outcomes[i];
        std::string problem;
        if (i >= reference_dumps[c].size() ||
            dumps[i] != reference_dumps[c][i]) {
          problem = "output differs from round 0";
        } else if (o.evaluation) {
          problem = check_invariants(*o.evaluation, inputs.spec);
        }
        if (!problem.empty()) {
          result.gate.fail(std::string(to_string(r.architecture)) + " " +
                           o.scenario.label + ": " + problem);
        }
      }
    }
  };
  CampaignRounds<RoundOutput> rounds;
  rounds.run(
      args,
      [&](obs::TraceContext trace) { return run_round(inputs, trace); },
      inspect, setup);
  const RoundOutput& first = rounds.first();

  // Reference: a seeded subset of each campaign through the plain scalar
  // path (serial, uncached, unbatched evaluate_with_exclusion).
  std::mt19937_64 pick(args.seed ^ 0x5ca1ab1eULL);
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    const FaultCampaignReport& r = first.reports[c];
    for (std::size_t s = 0; s < kReferenceSamples; ++s) {
      const FaultScenarioOutcome& o = r.outcomes[pick() % r.outcomes.size()];
      EvaluationOptions options = inputs.options;
      options.faults = o.injection;
      std::string problem;
      try {
        const ExplorationEntry entry = evaluate_with_exclusion(
            inputs.spec, r.architecture, TopologyKind::kDsch,
            DeviceTechnology::kGalliumNitride, options);
        const ArchitectureEvaluation* ref = evaluation_of(entry);
        if ((ref != nullptr) != o.evaluation.has_value()) {
          problem = "evaluated/unevaluated differs from the reference";
        } else if (ref != nullptr) {
          problem = compare_to_reference(*o.evaluation, *ref);
        }
      } catch (const std::exception& e) {
        if (o.evaluated) problem = std::string("reference threw: ") + e.what();
      }
      if (!problem.empty()) {
        result.gate.fail(std::string(to_string(r.architecture)) + " " +
                         o.scenario.label + " vs reference: " + problem);
      }
    }
  }

  // Serial vs parallel: one seeded campaign rerun on one thread must be
  // bit-identical to its parallel round-0 run.
  const std::size_t serial_campaign = pick() % kCampaigns;
  {
    FaultCampaignConfig config = inputs.configs[serial_campaign];
    config.sweep.threads = 1;
    const FaultCampaignReport serial =
        FaultCampaignRunner(inputs.spec, config)
            .run(kArchitectures[serial_campaign], TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, inputs.options);
    if (outcome_dumps(serial) != reference_dumps[serial_campaign]) {
      result.gate.fail_extra("serial rerun of campaign " +
                             std::to_string(serial_campaign) +
                             " is not bit-identical to the parallel run");
    }
  }

  // --- Metrics --------------------------------------------------------------
  rounds.fill_end_to_end(result, static_cast<double>(items_per_round),
                        setup);

  std::size_t survivors = 0;
  SolverCounters solver;
  BatchStats batch;
  std::uint64_t digest = fnv1a("");
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    const FaultCampaignReport& r = first.reports[c];
    survivors += r.survivor_count();
    solver = solver + r.solver;
    batch += r.batch;
    for (const std::string& d : reference_dumps[c]) digest = fnv1a(d, digest);
  }
  result.deterministic.set("fault.scenarios", items_per_round);
  result.deterministic.set("fault.survivors", survivors);
  result.deterministic.set("common.cg_solves", solver.cg_solves);
  result.deterministic.set("common.cg_iterations", solver.cg_iterations);
  result.deterministic.set("package.mesh_assemblies", first.cache.misses);
  result.deterministic.set("core.deduped_solves", batch.deduped_solves);
  result.deterministic.set("core.panel_columns", batch.panel_columns);
  result.deterministic.set("output_digest", hex64(digest));
  result.record.set("campaigns", kCampaigns);
  result.record.set("nk_samples_per_campaign", kNkSamples);
  result.record.set("scenarios_per_round", items_per_round);
  result.record.set("mesh_nodes", inputs.options.mesh_nodes);
  // Every scenario perturbs the stamped operator; same-operator groups
  // (stage-2 dropouts, load scalings) share one.
  result.record.set("distinct_operators",
                    batch.points - batch.grouped_points + batch.groups);
  result.record.set("serial_check_campaign", serial_campaign);

  if (args.trace) {
    std::map<std::string, double>& L = result.layers;
    counters.fill(L);
    L["package.mesh_assemblies"] = static_cast<double>(first.cache.misses);
    L["common.cg_solves"] = static_cast<double>(solver.cg_solves);
    L["common.cg_iterations"] = static_cast<double>(solver.cg_iterations);
    L["core.dedup_ratio"] = static_cast<double>(batch.deduped_solves) /
                            static_cast<double>(items_per_round);
    L["core.panel_columns"] = static_cast<double>(batch.panel_columns);
    L["fault.scenarios"] = static_cast<double>(items_per_round);
    L["fault.survivors"] = static_cast<double>(survivors);
    rounds.fill_trace_layers(result);
  }
  return result;
}

}  // namespace perfbench
