// droop_mix: DroopCampaignRunner over the four vertical architectures (DSCH,
// GaN, paper mode). Load-step, burst and ramp shapes and the dropout event
// timing are drawn from the seed per architecture. The work is the MNA
// transient step loop and the shared dense LU factor cache; mesh CG runs
// only for the per-scenario DC operating points.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "campaign_round.hpp"
#include "vpd/workload/droop_campaign.hpp"

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
/// Band around the DC prediction the settled rail must reach, as a share
/// of the rail (the droop campaign tests' band for load scenarios).
constexpr double kSettleBand = 0.02;

struct Inputs {
  PowerDeliverySpec spec;
  EvaluationOptions options;
  std::vector<DroopCampaignConfig> configs;
};

Inputs make_inputs(std::uint64_t seed, std::size_t threads) {
  Inputs in;
  in.spec = paper_system();
  in.options.below_die_area_fraction = 1.6;
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    DroopCampaignConfig config;
    config.tile_grid = 2;
    config.max_dropout_sites = 4;
    config.base_fraction = uniform(0.3, 0.55);
    config.step_fraction = uniform(0.25, 0.45);
    config.tile_sigma = uniform(0.1, 0.2);
    config.tile_background = uniform(0.2, 0.4);
    config.t_event = Seconds{uniform(1e-6, 3e-6)};
    config.burst_frequency = Frequency{uniform(1e6, 3e6)};
    config.burst_duty = uniform(0.3, 0.6);
    // A burst edge may take at most half the on-window.
    const double on = config.burst_duty / config.burst_frequency.value;
    config.edge = Seconds{std::min(200e-9, uniform(0.2, 0.45) * on)};
    config.sweep.threads = threads;
    config.validate();
    in.configs.push_back(config);
  }
  return in;
}

struct RoundOutput {
  std::vector<DroopCampaignReport> reports;
  MeshSolveCache::Stats cache;
};

RoundOutput run_round(const Inputs& in, obs::TraceContext trace) {
  RoundOutput out;
  MeshSolveCache cache;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    obs::Span span("bench.droop.run", trace);
    DroopCampaignConfig config = in.configs[c];
    config.sweep.cache = &cache;
    config.trace = span.context();
    out.reports.push_back(DroopCampaignRunner(in.spec, config)
                              .run(kArchitectures[c], TopologyKind::kDsch,
                                   DeviceTechnology::kGalliumNitride,
                                   in.options));
  }
  out.cache = cache.stats();
  return out;
}

/// Bit-exact text of one scenario outcome (hex floats).
std::string outcome_dump(const TransientScenarioOutcome& o) {
  const DroopMetrics& m = o.metrics;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%d|%a|%a|%a|%a|%a|%zu|%zu|%zu|%a",
                o.evaluated ? 1 : 0, m.v_min, m.v_settled, m.v_predicted,
                m.undershoot_fraction, m.settling_time.value, m.samples,
                m.steady_cycle.value_or(0), o.violations.size(), o.margin);
  return o.scenario.label + "|" + buf;
}

std::vector<std::string> report_dumps(const DroopCampaignReport& r) {
  std::vector<std::string> dumps{dump_evaluation(r.nominal)};
  for (const TransientScenarioOutcome& o : r.outcomes) {
    dumps.push_back(outcome_dump(o));
  }
  return dumps;
}

/// Physical checks of one scenario: it integrated over the whole window,
/// its worst excursion is at least its settled droop, and the settled
/// rail converged onto the scenario's DC prediction.
std::string check_scenario(const TransientScenarioOutcome& o,
                           const DroopCampaignConfig& config) {
  if (!o.evaluated) return "not evaluated: " + o.failure_reason;
  const DroopMetrics& m = o.metrics;
  const std::size_t steps = static_cast<std::size_t>(
      std::llround(config.t_stop.value / config.dt.value));
  if (m.samples != steps + 1) return "transient record is truncated";
  if (m.undershoot_fraction < m.settled_droop_fraction - 1e-12) {
    return "worst excursion is shallower than the settled droop";
  }
  if (!(std::fabs(m.v_settled - m.v_predicted) <= kSettleBand * m.rail)) {
    return "settled rail misses the DC prediction";
  }
  return "";
}

}  // namespace

Result run_droop_mix(const Args& args) {
  Result result;
  const Inputs inputs = make_inputs(args.seed, args.threads);

  // Set-up: generate the configurations and evaluate the four nominal
  // operating points on a fresh cache.
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

  std::vector<std::vector<std::string>> reference;
  std::size_t scenarios_per_round = 0;
  RoundCounters counters;
  const auto inspect = [&](std::size_t k, const RoundOutput& round) {
    SolverCounters solver;
    std::uint64_t steps = 0;
    std::uint64_t lu_misses = 0;
    for (const DroopCampaignReport& r : round.reports) {
      solver = solver + r.solver;
      steps += r.transient_steps;
      lu_misses += r.factors.misses;
      if (k == 0) {
        reference.push_back(report_dumps(r));
        scenarios_per_round += r.scenario_count();
      }
    }
    counters.add(k, solver, round.cache, result.gate,
                 "/" + std::to_string(steps) + "/" +
                     std::to_string(lu_misses));
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const DroopCampaignReport& r = round.reports[c];
      const std::vector<std::string> dumps =
          k == 0 ? reference[c] : report_dumps(r);
      const std::string arch = to_string(r.architecture);
      if (dumps != reference[c]) {
        result.gate.fail_extra(arch + ": round output differs from round 0");
      }
      std::string problem = check_invariants(r.nominal, inputs.spec);
      result.gate.attempt(1);
      if (!problem.empty()) result.gate.fail(arch + " nominal: " + problem);
      result.gate.attempt(r.scenario_count());
      for (const TransientScenarioOutcome& o : r.outcomes) {
        problem = check_scenario(o, inputs.configs[c]);
        if (!problem.empty()) {
          result.gate.fail(arch + " " + o.scenario.label + ": " + problem);
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

  // Reference: each nominal operating point through the plain uncached
  // scalar path.
  for (const DroopCampaignReport& r : first.reports) {
    const ExplorationEntry entry = evaluate_with_exclusion(
        inputs.spec, r.architecture, TopologyKind::kDsch,
        DeviceTechnology::kGalliumNitride, inputs.options);
    const ArchitectureEvaluation* ref = evaluation_of(entry);
    const std::string problem =
        ref == nullptr ? "reference is unevaluated"
                       : compare_to_reference(r.nominal, *ref);
    if (!problem.empty()) {
      result.gate.fail_extra(std::string(to_string(r.architecture)) +
                             " nominal vs reference: " + problem);
    }
  }

  // Serial vs parallel: one seeded campaign rerun on one thread.
  std::mt19937_64 pick(args.seed ^ 0x5ca1ab1eULL);
  const std::size_t serial_campaign = pick() % kCampaigns;
  {
    DroopCampaignConfig config = inputs.configs[serial_campaign];
    config.sweep.threads = 1;
    const DroopCampaignReport serial =
        DroopCampaignRunner(inputs.spec, config)
            .run(kArchitectures[serial_campaign], TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, inputs.options);
    if (report_dumps(serial) != reference[serial_campaign]) {
      result.gate.fail_extra("serial rerun of campaign " +
                             std::to_string(serial_campaign) +
                             " is not bit-identical to the parallel run");
    }
  }

  // --- Metrics --------------------------------------------------------------
  rounds.fill_end_to_end(result, static_cast<double>(scenarios_per_round),
                        setup);

  SolverCounters solver;
  std::uint64_t steps = 0;
  TransientFactorCache::Stats factors;
  std::size_t passes = 0;
  std::uint64_t digest = fnv1a("");
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    const DroopCampaignReport& r = first.reports[c];
    solver = solver + r.solver;
    steps += r.transient_steps;
    factors.hits += r.factors.hits;
    factors.misses += r.factors.misses;
    passes += r.pass_count();
    for (const std::string& d : reference[c]) digest = fnv1a(d, digest);
  }
  result.deterministic.set("workload.scenarios", scenarios_per_round);
  result.deterministic.set("workload.passes", passes);
  result.deterministic.set("circuit.transient_steps", steps);
  result.deterministic.set("circuit.lu_factorizations", factors.misses);
  result.deterministic.set("circuit.lu_hits", factors.hits);
  result.deterministic.set("common.cg_solves", solver.cg_solves);
  result.deterministic.set("common.cg_iterations", solver.cg_iterations);
  result.deterministic.set("output_digest", hex64(digest));

  result.record.set("campaigns", kCampaigns);
  result.record.set("scenarios_per_round", scenarios_per_round);
  result.record.set("steps_per_scenario",
                    steps / std::max<std::size_t>(1, scenarios_per_round));
  result.record.set("mesh_nodes", inputs.options.mesh_nodes);
  // Each scenario's DC operating point is its own operator (a hotspot map
  // or a dropped VR) on top of each campaign's nominal probe.
  result.record.set("distinct_operators", scenarios_per_round + kCampaigns);

  if (args.trace) {
    std::map<std::string, double>& L = result.layers;
    counters.fill(L);
    L["package.mesh_assemblies"] = static_cast<double>(first.cache.misses);
    L["common.cg_solves"] = static_cast<double>(solver.cg_solves);
    L["common.cg_iterations"] = static_cast<double>(solver.cg_iterations);
    L["circuit.transient_steps"] = static_cast<double>(steps);
    L["circuit.lu_factorizations"] = static_cast<double>(factors.misses);
    const double lookups = static_cast<double>(factors.hits + factors.misses);
    L["circuit.lu_hit_ratio"] =
        static_cast<double>(factors.hits) / std::max(1.0, lookups);
    rounds.fill_trace_layers(result);
    // Integration time per accepted step: the droop.scenario spans cover
    // each scenario's netlist lowering and integration.
    const double traced = static_cast<double>(rounds.traced_rounds());
    L["circuit.us_per_step"] =
        rounds.span_total("droop.scenario") /
        (static_cast<double>(steps) * std::max(1.0, traced)) * 1e6;
  }
  return result;
}

}  // namespace perfbench
