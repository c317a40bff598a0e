// sweep_fine: the Fig. 7 design grid (A0 + four vertical architectures x
// three topologies x GaN/Si, paper mode) at two fine meshes, each point with
// its own seeded hotspot power map, through one SweepRunner call per round.
// One mesh lies between the ~128-per-edge direct/CG crossover and
// kAutoMultigridMeshNodes (IC(0)-CG); the other at kAutoMultigridMeshNodes
// (multigrid-CG). Every point is a distinct operator with one right-hand
// side (a seeded VR attach resistance per point keeps GaN/Si twins apart),
// so solver iterations dominate and nothing is shared but assembly.
#include <random>

#include "campaign_round.hpp"
#include "vpd/sweep/sweep.hpp"
#include "vpd/workload/power_map.hpp"

namespace perfbench {

namespace {

using namespace vpd;

constexpr std::size_t kMeshes[] = {161, kAutoMultigridMeshNodes};
constexpr std::size_t kReferencePoints = 3;
constexpr std::size_t kSerialPoints = 4;

struct Inputs {
  PowerDeliverySpec spec;
  std::vector<SweepPoint> points;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.spec = paper_system();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> center(0.2, 0.8);
  std::uniform_real_distribution<double> sigma(0.08, 0.25);
  std::uniform_real_distribution<double> background(0.2, 0.5);
  std::uniform_real_distribution<double> attach(80e-6, 120e-6);
  for (std::size_t nodes : kMeshes) {
    EvaluationOptions base;
    base.below_die_area_fraction = 1.6;  // paper mode
    base.mesh_nodes = nodes;
    const std::vector<SweepPoint> grid =
        SweepGridBuilder(base)
            .architectures(all_architectures())
            .topologies(all_topologies())
            .technologies({DeviceTechnology::kGalliumNitride,
                           DeviceTechnology::kSilicon})
            .build();
    for (SweepPoint point : grid) {
      const double cx = center(rng);
      const double cy = center(rng);
      const double s = sigma(rng);
      const double bg = background(rng);
      // A per-point VR attach resistance makes every point its own stamped
      // operator on the shared mesh geometry.
      point.options.vr_attach_series = Resistance{attach(rng)};
      point.options.sink_map = [cx, cy, s, bg](const GridMesh& mesh,
                                               Current total) {
        return hotspot_power_map(mesh, total, cx, cy, s, bg);
      };
      point.label += "/" + std::to_string(nodes);
      in.points.push_back(std::move(point));
    }
  }
  return in;
}

SweepReport run_points(const Inputs& in, const std::vector<SweepPoint>& points,
                       std::size_t threads, obs::TraceContext trace) {
  MeshSolveCache cache;
  SweepConfig config;
  config.threads = threads;
  config.cache = &cache;
  obs::Span span("bench.sweep.run", trace);
  std::vector<SweepPoint> traced = points;
  for (SweepPoint& p : traced) p.options.trace = span.context();
  return SweepRunner(in.spec, config).run(traced);
}

std::string entry_dump(const ExplorationEntry& entry) {
  const ArchitectureEvaluation* eval = evaluation_of(entry);
  std::string d = entry.excluded() ? "X" : "I";
  if (eval != nullptr) d += dump_evaluation(*eval);
  return d;
}

}  // namespace

Result run_sweep_fine(const Args& args) {
  Result result;
  const Inputs inputs = make_inputs(args.seed);
  const std::size_t n_points = inputs.points.size();

  // Set-up: generate the grid and evaluate its first point on each mesh
  // (one fine-mesh assembly and solve each) on a fresh cache.
  SetupTimer setup([&] {
    const Inputs in = make_inputs(args.seed);
    MeshSolveCache cache;
    for (std::size_t m = 0; m < std::size(kMeshes); ++m) {
      const SweepPoint& p = in.points[m * (n_points / 2) + 1];
      EvaluationOptions options = p.options;
      options.mesh_cache = &cache;
      evaluate_with_exclusion(in.spec, p.architecture, p.topology, p.tech,
                              options);
    }
  });
  setup.sample(3);

  std::vector<std::string> reference;
  RoundCounters counters;
  const auto inspect = [&](std::size_t k, const SweepReport& r) {
    counters.add(k, r.solver, r.cache_stats, result.gate);
    result.gate.attempt(r.outcomes.size());
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      const ExplorationEntry& entry = r.outcomes[i].entry;
      std::string d = entry_dump(entry);
      std::string problem;
      if (k == 0) {
        reference.push_back(std::move(d));
      } else if (d != reference[i]) {
        problem = "output differs from round 0";
      }
      const ArchitectureEvaluation* eval = evaluation_of(entry);
      if (problem.empty() && eval != nullptr) {
        problem = check_invariants(*eval, inputs.spec);
      }
      if (!problem.empty()) {
        result.gate.fail(r.outcomes[i].point.label + ": " + problem);
      }
    }
  };
  CampaignRounds<SweepReport> rounds;
  rounds.run(
      args,
      [&](obs::TraceContext trace) {
        return run_points(inputs, inputs.points, args.threads, trace);
      },
      inspect, setup);
  const SweepReport& first = rounds.first();

  // Reference: seeded points through the plain uncached scalar path.
  std::mt19937_64 pick(args.seed ^ 0x5ca1ab1eULL);
  for (std::size_t s = 0; s < kReferencePoints; ++s) {
    const std::size_t i = pick() % n_points;
    const SweepPoint& p = inputs.points[i];
    const ExplorationEntry entry = evaluate_with_exclusion(
        inputs.spec, p.architecture, p.topology, p.tech, p.options);
    const ArchitectureEvaluation* ref = evaluation_of(entry);
    const ArchitectureEvaluation* got = evaluation_of(first.outcomes[i].entry);
    std::string problem;
    if ((ref == nullptr) != (got == nullptr) ||
        entry.excluded() != first.outcomes[i].entry.excluded()) {
      problem = "exclusion differs from the reference";
    } else if (ref != nullptr) {
      problem = compare_to_reference(*got, *ref);
    }
    if (!problem.empty()) {
      result.gate.fail(p.label + " vs reference: " + problem);
    }
  }

  // Serial vs parallel: a seeded subset of points, run on one thread and
  // on the pool, must agree bit for bit.
  std::vector<SweepPoint> subset;
  for (std::size_t s = 0; s < kSerialPoints; ++s) {
    subset.push_back(inputs.points[pick() % n_points]);
  }
  {
    const SweepReport serial = run_points(inputs, subset, 1, {});
    const SweepReport parallel = run_points(inputs, subset, args.threads, {});
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (entry_dump(serial.outcomes[i].entry) !=
          entry_dump(parallel.outcomes[i].entry)) {
        result.gate.fail_extra(subset[i].label +
                               ": serial and parallel runs differ");
      }
    }
  }

  // --- Metrics --------------------------------------------------------------
  rounds.fill_end_to_end(result, static_cast<double>(n_points), setup);

  std::uint64_t digest = fnv1a("");
  for (const std::string& d : reference) digest = fnv1a(d, digest);
  result.deterministic.set("sweep.points", n_points);
  result.deterministic.set("common.cg_solves", first.solver.cg_solves);
  result.deterministic.set("common.cg_iterations", first.solver.cg_iterations);
  result.deterministic.set("package.mesh_assemblies", first.cache_stats.misses);
  result.deterministic.set("core.deduped_solves", first.batch.deduped_solves);
  result.deterministic.set("core.panel_columns", first.batch.panel_columns);
  result.deterministic.set("output_digest", hex64(digest));

  io::Value meshes = io::Value::array();
  for (std::size_t nodes : kMeshes) meshes.push_back(nodes);
  result.record.set("mesh_nodes", std::move(meshes));
  result.record.set("points_per_round", n_points);
  result.record.set("distinct_operators", first.batch.points -
                                              first.batch.grouped_points +
                                              first.batch.groups);

  if (args.trace) {
    std::map<std::string, double>& L = result.layers;
    counters.fill(L);
    L["package.mesh_assemblies"] =
        static_cast<double>(first.cache_stats.misses);
    L["common.cg_solves"] = static_cast<double>(first.solver.cg_solves);
    L["common.cg_iterations"] =
        static_cast<double>(first.solver.cg_iterations);
    L["core.dedup_ratio"] = static_cast<double>(first.batch.deduped_solves) /
                            static_cast<double>(n_points);
    L["core.panel_columns"] = static_cast<double>(first.batch.panel_columns);
    rounds.fill_trace_layers(result);
  }
  return result;
}

}  // namespace perfbench
