// Shared solves through a run-scoped SolveMemo (core/batch.hpp,
// package/solve_memo.hpp): same-operator accounting and sink-vector
// deduplication, the bit-identity contract (every entry equals a lone
// evaluate_with_exclusion of the same point without a memo, on the
// sweep, fault-campaign, optimizer, explorer and evaluate_batch paths),
// one evaluation per point, concurrent requesters of one solve, error
// transport, and the accounting those reports surface. Runs in its own
// ctest executable labelled `batch` so the shared paths join the
// sanitizer matrix (ctest -L batch).
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "vpd/common/error.hpp"
#include "vpd/common/sparse.hpp"
#include "vpd/core/batch.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/fault/campaign.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/opt/optimizer.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/sweep/sweep.hpp"

namespace vpd {
namespace {

/// The paper-mode options every sweep/explorer test pins (A2's published
/// 48 below-die VRs need the relaxed area budget), at a mesh coarse
/// enough to keep the solves cheap.
EvaluationOptions paper_options(std::size_t mesh_nodes = 31) {
  EvaluationOptions o;
  o.below_die_area_fraction = 1.6;
  o.mesh_nodes = mesh_nodes;
  return o;
}

/// A3@12V/DSCH evaluation point; a stage-2 dropout scales the
/// intermediate-rail current — the stage-1 deployment is sized at design
/// time — so faulted variants share the nominal point's stamped operator
/// and differ only in the sink vector. The canonical group case.
EvaluationPoint a3_point(std::vector<std::size_t> dropped_stage2 = {}) {
  EvaluationPoint p;
  p.architecture = ArchitectureKind::kA3_TwoStage12V;
  p.topology = TopologyKind::kDsch;
  p.options = paper_options();
  p.options.faults.dropped_stage2 = std::move(dropped_stage2);
  return p;
}

ExplorationEntry scalar_reference(const EvaluationPoint& p) {
  return evaluate_with_exclusion(paper_system(), p.architecture, p.topology,
                                 p.tech, p.options);
}

void expect_identical(const ExplorationEntry& a, const ExplorationEntry& b,
                      const std::string& label) {
  ASSERT_EQ(a.excluded(), b.excluded()) << label;
  ASSERT_EQ(a.evaluation.has_value(), b.evaluation.has_value()) << label;
  ASSERT_EQ(a.extrapolated.has_value(), b.extrapolated.has_value()) << label;
  const auto check = [&](const ArchitectureEvaluation& x,
                         const ArchitectureEvaluation& y) {
    // Exact equality on doubles is the point: bit-identical results.
    EXPECT_EQ(x.total_loss().value, y.total_loss().value) << label;
    EXPECT_EQ(x.vertical_loss.value, y.vertical_loss.value) << label;
    EXPECT_EQ(x.horizontal_loss.value, y.horizontal_loss.value) << label;
    EXPECT_EQ(x.input_power.value, y.input_power.value) << label;
    EXPECT_EQ(x.cg_iterations, y.cg_iterations) << label;
    ASSERT_EQ(x.min_distribution_voltage.has_value(),
              y.min_distribution_voltage.has_value())
        << label;
    if (x.min_distribution_voltage) {
      EXPECT_EQ(x.min_distribution_voltage->value,
                y.min_distribution_voltage->value)
          << label;
    }
  };
  if (a.evaluation) check(*a.evaluation, *b.evaluation);
  if (a.extrapolated) check(*a.extrapolated, *b.extrapolated);
}

// ---------------------------------------------------------------------------
// evaluate_batch_with_exclusion: accounting, dedup, bit-identity, errors
// ---------------------------------------------------------------------------

TEST(EvaluationBatch, GroupsSameOperatorPointsAndDedupsIdenticalSinks) {
  std::vector<EvaluationPoint> points;
  points.push_back(a3_point());     // group lead
  points.push_back(a3_point({0}));  // same operator, scaled sinks
  points.push_back(a3_point());     // identical sinks -> deduped solve
  {
    EvaluationPoint a1;  // different operator (1 V rail, own legs)
    a1.architecture = ArchitectureKind::kA1_InterposerPeriphery;
    a1.topology = TopologyKind::kDsch;
    a1.options = paper_options();
    points.push_back(a1);
  }
  {
    EvaluationPoint a0;  // never reaches a distribution solve
    a0.architecture = ArchitectureKind::kA0_PcbConversion;
    a0.options = paper_options();
    points.push_back(a0);
  }

  BatchStats stats;
  const std::vector<ExplorationEntry> entries = evaluate_batch_with_exclusion(
      paper_system(), points, &stats);

  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(stats.points, 5u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.grouped_points, 3u);
  EXPECT_EQ(stats.scalar_points, 2u);
  EXPECT_EQ(stats.panel_columns, 2u);
  EXPECT_EQ(stats.deduped_solves, 1u);
  // The deduplicated twin shares its lead's solve bit for bit.
  expect_identical(entries[0], entries[2], "dedup twin");
  EXPECT_FALSE(entries[0].excluded());
  EXPECT_FALSE(entries[4].excluded());  // A0 evaluates fine without a mesh
}

TEST(EvaluationBatch, LoopModeIsBitIdenticalToScalarEvaluation) {
  // Dropping one vs two stage-2 VRs changes the survivor count, hence the
  // intermediate-rail current: three genuinely distinct right-hand sides.
  // (Dropping site 0 vs site 1 would NOT — survivors split uniformly, so
  // those sinks are value-identical and deduplicate.)
  const std::vector<EvaluationPoint> points = {a3_point(), a3_point({0}),
                                               a3_point({0, 1})};
  BatchStats stats;
  const std::vector<ExplorationEntry> entries =
      evaluate_batch_with_exclusion(paper_system(), points, &stats);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.panel_columns, 3u);
  ASSERT_EQ(entries.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(entries[i], scalar_reference(points[i]),
                     "loop-mode point " + std::to_string(i));
  }
}

TEST(EvaluationBatch, BlockPanelsCertifyEachColumn) {
  // The same three distinct right-hand sides under multigrid, the
  // preconditioner whose V-cycle a multi-RHS solver would share most.
  std::vector<EvaluationPoint> points = {a3_point(), a3_point({0}),
                                         a3_point({0, 1})};
  for (EvaluationPoint& p : points) {
    p.options.irdrop_preconditioner = CgPreconditioner::kMultigrid;
  }
  const SolverCounters before = solver_counters();
  BatchStats stats;
  const std::vector<ExplorationEntry> entries =
      evaluate_batch_with_exclusion(paper_system(), points, &stats);
  const SolverCounters delta = solver_counters() - before;

  // The group solves each distinct sink vector once, no more.
  EXPECT_EQ(stats.panel_columns, 3u);
  EXPECT_EQ(delta.cg_solves, stats.panel_columns);

  // Every column equals the scalar reference solve bit for bit.
  ASSERT_EQ(entries.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(entries[i], scalar_reference(points[i]),
                     "grouped point " + std::to_string(i));
  }
}

TEST(EvaluationBatch, ErrorsSurfacePerPointFirstInInputOrder) {
  EvaluationPoint bad_tolerance = a3_point();
  bad_tolerance.options.irdrop_relative_tolerance = -1.0;  // invalid
  EvaluationPoint no_topology = a3_point();
  no_topology.topology.reset();  // a VPD architecture needs one

  // Both bad points throw InvalidArgument; the message tells which one
  // surfaced. The first in input order wins on the serial batch and on
  // a parallel sweep alike, whichever worker failed first.
  const auto first_error = [](const auto& run) {
    try {
      run();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const bool tolerance_first : {true, false}) {
    std::vector<EvaluationPoint> points = {a3_point(), a3_point({0})};
    points.insert(points.begin() + 1,
                  tolerance_first ? bad_tolerance : no_topology);
    points.push_back(tolerance_first ? no_topology : bad_tolerance);
    const std::string expected_word =
        tolerance_first ? "tolerance" : "topology";

    const std::string batch_error = first_error(
        [&] { evaluate_batch_with_exclusion(paper_system(), points); });
    EXPECT_NE(batch_error.find(expected_word), std::string::npos)
        << batch_error;

    std::vector<SweepPoint> sweep_points;
    for (const EvaluationPoint& p : points) {
      SweepPoint sp;
      sp.architecture = p.architecture;
      sp.topology = p.topology;
      sp.options = p.options;
      sweep_points.push_back(sp);
    }
    SweepConfig config;
    config.threads = 4;
    const std::string sweep_error = first_error(
        [&] { SweepRunner(paper_system(), config).run(sweep_points); });
    EXPECT_EQ(sweep_error, batch_error);
  }
}

TEST(EvaluationBatch, ExplorerEntriesMatchLoneEvaluations) {
  // ArchitectureExplorer::explore shares solves through one memo; each must
  // equal a lone evaluation of its grid point.
  const ExplorationResult explored =
      ArchitectureExplorer(paper_system(), paper_options()).explore();
  ASSERT_FALSE(explored.entries.empty());
  for (const ExplorationEntry& entry : explored.entries) {
    EvaluationPoint p;
    p.architecture = entry.architecture;
    p.topology = entry.topology;
    p.options = paper_options();
    expect_identical(entry, scalar_reference(p),
                     sweep_point_label(p.architecture, p.topology, p.tech));
  }
}

// ---------------------------------------------------------------------------
// SweepRunner: batch accounting, bit-identity, counter deltas
// ---------------------------------------------------------------------------

/// The default grid plus stage-2-dropout variants of the two-stage
/// points: guaranteed same-operator pairs on top of whatever the default
/// grid already groups.
std::vector<SweepPoint> grid_with_fault_variants() {
  std::vector<SweepPoint> points = SweepGridBuilder(paper_options()).build();
  for (ArchitectureKind arch : {ArchitectureKind::kA3_TwoStage12V,
                                ArchitectureKind::kA3_TwoStage6V}) {
    SweepPoint p;
    p.architecture = arch;
    p.topology = TopologyKind::kDsch;
    p.options = paper_options();
    p.options.faults.dropped_stage2 = {0};
    p.label = sweep_point_label(arch, p.topology, p.tech, "stage2-drop");
    points.push_back(p);
  }
  return points;
}

EvaluationPoint evaluation_point(const SweepPoint& p) {
  return EvaluationPoint{p.architecture, p.topology, p.tech, p.options};
}

TEST(SweepBatch, LoopModeIsBitIdenticalToTheScalarLoop) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig config;
  config.threads = 2;
  const SweepReport with = SweepRunner(paper_system(), config).run(points);
  ASSERT_EQ(with.outcomes.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(with.outcomes[i].entry,
                     scalar_reference(evaluation_point(points[i])),
                     points[i].label);
  }
  // The sweep shares solves among same-operator points.
  EXPECT_GT(with.batch.grouped_points, 0u);
  EXPECT_GT(with.batch.panel_columns, 0u);
}

TEST(SweepBatch, TracedSweepEvaluatesEachPointOnce) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig config;
  config.threads = 2;
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  const SweepReport report = SweepRunner(paper_system(), config).run(points);
  obs::set_tracing_enabled(false);
  ASSERT_EQ(obs::trace_events_dropped(), 0u);
  std::istringstream lines(obs::trace_ndjson());
  obs::clear_trace();
  std::size_t evaluate_spans = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\":\"vpd.evaluate\"") != std::string::npos) {
      ++evaluate_spans;
    }
  }
  // One evaluator run per point, solving or not; shared solves happen
  // inside that one run.
  EXPECT_EQ(evaluate_spans, points.size());
  EXPECT_GT(report.batch.deduped_solves + report.batch.panel_columns, 0u);
}

TEST(SweepBatch, ConcurrentRequestersOfOneSolveShareIt) {
  // Eight points request one solve; two more points request two other
  // ones (a scaled sink vector on the same operator, and another
  // operator). Four workers race for the shared key.
  std::vector<SweepPoint> points;
  for (int i = 0; i < 8; ++i) {
    SweepPoint p;
    p.architecture = ArchitectureKind::kA3_TwoStage12V;
    p.topology = TopologyKind::kDsch;
    p.options = paper_options();
    points.push_back(p);
  }
  {
    SweepPoint p = points.front();
    p.options.faults.dropped_stage2 = {0, 1};
    points.insert(points.begin() + 3, p);
  }
  {
    SweepPoint p = points.front();
    p.architecture = ArchitectureKind::kA1_InterposerPeriphery;
    points.insert(points.begin() + 6, p);
  }
  constexpr std::size_t kDistinctSolves = 3;

  SweepConfig parallel;
  parallel.threads = 4;
  const SweepReport report =
      SweepRunner(paper_system(), parallel).run(points);
  EXPECT_EQ(report.solver.cg_solves, kDistinctSolves);

  SweepConfig serial;
  serial.threads = 1;
  const SweepReport reference =
      SweepRunner(paper_system(), serial).run(points);
  EXPECT_EQ(report.batch.points, reference.batch.points);
  EXPECT_EQ(report.batch.groups, reference.batch.groups);
  EXPECT_EQ(report.batch.grouped_points, reference.batch.grouped_points);
  EXPECT_EQ(report.batch.scalar_points, reference.batch.scalar_points);
  EXPECT_EQ(report.batch.panel_columns, reference.batch.panel_columns);
  EXPECT_EQ(report.batch.deduped_solves, reference.batch.deduped_solves);
  EXPECT_EQ(report.batch.deduped_solves, points.size() - kDistinctSolves);

  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(report.outcomes[i].entry,
                     scalar_reference(evaluation_point(points[i])),
                     "point " + std::to_string(i));
  }
}

TEST(SweepBatch, BlockSweepReportsPanelsInReportAndSnapshot) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig config;
  config.threads = 2;
  const SweepReport report = SweepRunner(paper_system(), config).run(points);

  EXPECT_EQ(report.batch.points, points.size());
  EXPECT_GT(report.batch.groups, 0u);
  EXPECT_GT(report.batch.grouped_points, 0u);
  EXPECT_GT(report.batch.panel_columns, 0u);
  // Every distinct sink vector is one solve.
  EXPECT_GE(report.solver.cg_solves, report.batch.panel_columns);

  const obs::Snapshot snap = report.snapshot();
  const std::uint64_t* grouped = snap.counter("sweep.batch_grouped_points");
  const std::uint64_t* columns = snap.counter("sweep.batch_panel_columns");
  const std::uint64_t* solves = snap.counter("solver.cg_solves");
  ASSERT_NE(grouped, nullptr);
  ASSERT_NE(columns, nullptr);
  ASSERT_NE(solves, nullptr);
  EXPECT_EQ(*grouped, report.batch.grouped_points);
  EXPECT_EQ(*columns, report.batch.panel_columns);
  EXPECT_EQ(*solves, report.solver.cg_solves);

  // Each grouped outcome equals a lone evaluation of its point.
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(report.outcomes[i].entry,
                     scalar_reference(evaluation_point(points[i])),
                     points[i].label);
  }
}

TEST(SweepBatch, BatchedParallelIsBitIdenticalToBatchedSerial) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig serial;
  serial.threads = 1;
  SweepConfig parallel;
  parallel.threads = 4;
  const SweepReport a = SweepRunner(paper_system(), serial).run(points);
  const SweepReport b = SweepRunner(paper_system(), parallel).run(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(a.outcomes[i].entry, b.outcomes[i].entry,
                     points[i].label);
  }
  // The accounting is read off the memo's table, whichever worker
  // solved each request: it cannot depend on scheduling.
  EXPECT_EQ(a.batch.groups, b.batch.groups);
  EXPECT_EQ(a.batch.grouped_points, b.batch.grouped_points);
  EXPECT_EQ(a.batch.panel_columns, b.batch.panel_columns);
  EXPECT_EQ(a.batch.deduped_solves, b.batch.deduped_solves);
}

// ---------------------------------------------------------------------------
// FaultCampaignRunner: batch accounting and bit-exactness
// ---------------------------------------------------------------------------

TEST(FaultCampaignBatch, StageTwoCampaignPanelsAndBitExactNominal) {
  FaultCampaignConfig config;
  // Stage-2 dropouts only: every scenario shares the nominal operator, so
  // the whole campaign rides one panel family. All N-1 dropouts leave the
  // same survivor count — value-identical sinks that deduplicate onto one
  // shared solve — so the order-2 samples are what add a second distinct
  // sink vector to the group.
  config.include_dropouts = false;
  config.include_derates = false;
  config.include_attach_faults = false;
  config.include_mesh_regions = false;
  config.nk_samples = 4;
  config.nk_order = 2;
  config.sweep.threads = 2;
  const FaultCampaignRunner runner(paper_system(), config);
  const FaultCampaignReport report =
      runner.run(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, paper_options(21));

  ASSERT_GT(report.outcomes.size(), 1u);
  EXPECT_GT(report.batch.grouped_points, 0u);
  EXPECT_GT(report.batch.deduped_solves, 0u);
  EXPECT_GT(report.batch.panel_columns, 0u);

  // Every scenario equals a lone evaluation of its injection.
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const FaultScenarioOutcome& a = report.outcomes[i];
    EvaluationPoint p = a3_point();
    p.options = paper_options(21);
    p.options.faults = a.injection;
    const ExplorationEntry lone = scalar_reference(p);
    const ArchitectureEvaluation* b =
        lone.evaluation ? &*lone.evaluation
                        : (lone.extrapolated ? &*lone.extrapolated : nullptr);
    ASSERT_EQ(a.evaluation.has_value(), b != nullptr) << i;
    if (a.evaluation) {
      EXPECT_EQ(io::dump(io::to_json(*a.evaluation)),
                io::dump(io::to_json(*b)))
          << "scenario " << i;
    }
  }

  // The N-0 outcome reuses the nominal evaluation outright.
  const FaultScenarioOutcome& baseline = report.outcomes.front();
  ASSERT_TRUE(baseline.evaluation.has_value());
  EXPECT_EQ(baseline.evaluation->total_loss().value,
            report.nominal.total_loss().value);
  EXPECT_EQ(baseline.evaluation->cg_iterations,
            report.nominal.cg_iterations);

  const obs::Snapshot snap = report.snapshot();
  const std::uint64_t* columns = snap.counter("fault.batch_panel_columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(*columns, report.batch.panel_columns);
}

// ---------------------------------------------------------------------------
// DesignOptimizer: generations share solves through the sweep memo
// ---------------------------------------------------------------------------

TEST(OptimizerBatch, ReportAccumulatesBatchStatsAcrossGenerations) {
  opt::DesignSpace space;
  space.architectures = {ArchitectureKind::kA3_TwoStage12V,
                         ArchitectureKind::kA3_TwoStage6V};
  space.topologies = {TopologyKind::kDsch};
  space.vr_count = {36, 48};
  opt::OptimizerConfig config;
  config.population = 6;
  config.generations = 2;
  config.survivability.max_elites = 0;
  config.base_options.mesh_nodes = 11;
  config.sweep.threads = 2;

  const opt::OptimizeReport report =
      opt::DesignOptimizer(paper_system(), space, config).run();
  // Every generation's sweep reports its shared-solve accounting.
  EXPECT_GT(report.batch.points, 0u);
  // Every front entry's objectives equal those of a lone evaluation of
  // its design point.
  ASSERT_FALSE(report.front.empty());
  for (std::size_t i = 0; i < report.front.size(); ++i) {
    const opt::DesignPoint& point = report.front[i].candidate.point;
    const ExplorationEntry lone = evaluate_with_exclusion(
        paper_system(), point.architecture, point.topology, point.tech,
        opt::lower(point, config.base_options));
    ASSERT_TRUE(lone.evaluation.has_value()) << "front entry " << i;
    EXPECT_EQ(report.front[i].objectives,
              opt::cheap_objectives_of(paper_system(), point,
                                       *lone.evaluation))
        << "front entry " << i;
  }
  const obs::Snapshot snap = report.snapshot();
  const std::uint64_t* groups = snap.counter("opt.batch_groups");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(*groups, report.batch.groups);
  const std::uint64_t* columns = snap.counter("opt.batch_panel_columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(*columns, report.batch.panel_columns);
}

// ---------------------------------------------------------------------------
// EvaluationService::evaluate_batch: dedup, LRU, shared solves, errors
// ---------------------------------------------------------------------------

io::EvaluationRequest make_request(ArchitectureKind arch,
                                   std::optional<TopologyKind> topo) {
  io::EvaluationRequest request;
  request.architecture = arch;
  request.topology = topo;
  request.options = paper_options();
  return request;
}

TEST(ServeBatch, DedupsCachesPartitionsAndSurfacesErrors) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);

  // Pre-warm the result LRU through the queued path.
  const io::EvaluationRequest warm = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  ASSERT_EQ(service.evaluate(warm).status, serve::ResponseStatus::kOk);

  const io::EvaluationRequest a3 =
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);
  io::EvaluationRequest a3_faulted = a3;
  a3_faulted.options.faults.dropped_stage2 = {0};
  io::EvaluationRequest bad = a3;
  bad.options.irdrop_relative_tolerance = -1.0;
  io::EvaluationRequest other_spec = a3;
  other_spec.spec.total_power = Power{900.0};

  const std::vector<io::EvaluationRequest> requests = {
      warm,        // 0: LRU hit
      a3,          // 1: leader, groups with 2
      a3_faulted,  // 2: same operator -> group with 1, distinct sinks
      a3,          // 3: in-batch duplicate of 1
      bad,         // 4: per-member error
      other_spec,  // 5: another spec on a3's operator, distinct sinks
  };
  const std::vector<serve::ServiceResponse> responses =
      service.evaluate_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(responses[0].status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(responses[0].from_cache);
  EXPECT_EQ(responses[1].status, serve::ResponseStatus::kOk);
  EXPECT_EQ(responses[2].status, serve::ResponseStatus::kOk);
  EXPECT_EQ(responses[3].status, serve::ResponseStatus::kOk);
  // The duplicate shares its leader's published entry, like coalescing.
  EXPECT_EQ(responses[3].entry, responses[1].entry);
  EXPECT_EQ(responses[4].status, serve::ResponseStatus::kError);
  EXPECT_FALSE(responses[4].error.empty());
  EXPECT_EQ(responses[5].status, serve::ResponseStatus::kOk);

  // A later lone evaluate() of a batched request is served from the LRU:
  // batch results publish into the same cache.
  EXPECT_TRUE(service.evaluate(a3).from_cache);

  // The serve.batch.* instruments carry the batch accounting.
  const obs::Snapshot snap = service.registry().snapshot();
  const auto counter = [&](const char* name) {
    const std::uint64_t* value = snap.counter(name);
    return value == nullptr ? std::uint64_t{0} : *value;
  };
  EXPECT_EQ(counter("serve.batch.requests"), requests.size());
  EXPECT_EQ(counter("serve.batch.cache_hits"), 1u);
  EXPECT_EQ(counter("serve.batch.errors"), 1u);
  // Leaders evaluated: a3, a3_faulted, bad, other_spec.
  EXPECT_EQ(counter("serve.batch.evaluated"), 4u);
  // One memo serves the whole call: the 900 W spec keeps a3's stage-1
  // deployment (same mesh, legs and options), so its request joins a3's
  // operator with a third sink vector.
  EXPECT_EQ(counter("serve.batch.groups"), 1u);
  EXPECT_EQ(counter("serve.batch.grouped_points"), 3u);
  EXPECT_EQ(counter("serve.batch.panel_columns"), 3u);

  // Sharing an operator across specs changes no bits.
  serve::EvaluationService fresh(config);
  const serve::ServiceResponse lone = fresh.evaluate(other_spec);
  ASSERT_NE(lone.entry, nullptr);
  ASSERT_NE(responses[5].entry, nullptr);
  EXPECT_EQ(io::dump(io::to_json(*responses[5].entry)),
            io::dump(io::to_json(*lone.entry)));
}

TEST(ServeBatch, ResponsesMatchLoneEvaluates) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);
  // A derating at which the pair's two sink vectors are far from
  // parallel, so a solver that iterated them jointly would not reproduce
  // the lone solves bit for bit.
  io::EvaluationRequest a3 =
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);
  a3.options.derating = 0.6;
  io::EvaluationRequest a3_faulted = a3;
  a3_faulted.options.faults.dropped_stage2 = {0};
  const std::vector<io::EvaluationRequest> requests = {
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDsch),
      make_request(ArchitectureKind::kA2_InterposerBelowDie,
                   TopologyKind::kDpmih),
      make_request(ArchitectureKind::kA0_PcbConversion, std::nullopt),
      // Excluded by the paper's rule, not an error.
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDickson),
      // Same operator, distinct sink vectors: one group, two solves.
      a3,
      a3_faulted,
  };
  const std::vector<serve::ServiceResponse> responses =
      service.evaluate_batch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(responses[3].status, serve::ResponseStatus::kExcluded);
  const obs::Snapshot snap = service.registry().snapshot();
  const std::uint64_t* groups = snap.counter("serve.batch.groups");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(*groups, 1u);

  // The reference is a fresh service's lone evaluate(): the batch body and
  // a later evaluate() served from the batch-filled LRU must both match
  // it bit for bit.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    serve::EvaluationService fresh(config);
    const serve::ServiceResponse lone = fresh.evaluate(requests[i]);
    ASSERT_NE(lone.entry, nullptr) << "request " << i;
    const std::string reference = io::dump(io::to_json(*lone.entry));
    ASSERT_NE(responses[i].entry, nullptr) << "request " << i;
    EXPECT_EQ(io::dump(io::to_json(*responses[i].entry)), reference)
        << "batch body " << i;
    const serve::ServiceResponse cached = service.evaluate(requests[i]);
    EXPECT_TRUE(cached.from_cache) << "request " << i;
    ASSERT_NE(cached.entry, nullptr) << "request " << i;
    EXPECT_EQ(io::dump(io::to_json(*cached.entry)), reference)
        << "LRU-served evaluate " << i;
  }
}

}  // namespace
}  // namespace vpd
