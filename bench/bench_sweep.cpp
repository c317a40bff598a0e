// Sweep-engine bench: the sweep, which shares solves among its points
// through one SolveMemo per run, against a loop of lone evaluations, on
// the default evaluation grid plus stage-2-dropout variants of the
// two-stage points (the canonical same-operator case: identical stamped
// mesh, sink scaling only).
//
// Two evaluations of the same point list, both on 4 threads with one
// shared mesh cache:
//   scalar  a loop of lone evaluate_with_exclusion calls, one solve per
//           point — the bit-identity reference
//   batch   SweepRunner — one solve per distinct solve request
//
// Modes:
//   (default)  human-readable comparison table
//   --json     one JSON document through benchio::JsonReport (per-mode
//              wall clock, shared-solve accounting, batch-vs-scalar
//              speedup)
//   --check    regression guard (exit 1 on violation): the sweep must
//              share solves among same-operator points (accounting
//              nonzero), and must reproduce the lone loop bit for bit
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_output.hpp"
#include "vpd/common/table.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/sweep/sweep.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace {

using namespace vpd;

/// The default grid in paper mode (A2's published 48 below-die VRs need
/// the relaxed area budget) plus stage-2-dropout variants per two-stage
/// architecture — the N-1 slice of a fault sweep. The dropout scales the
/// intermediate-rail current while the stage-1 deployment is sized at
/// design time, so every variant shares its nominal point's operator.
/// The survivors re-split the load uniformly, which makes all N-1
/// dropouts share ONE right-hand side (the sweep solves it once),
/// while the N-2 variant's different survivor count adds a genuinely
/// distinct one. A finer mesh keeps the distribution solve a
/// meaningful slice of each evaluation, so the dedup shows on the wall
/// clock.
std::vector<SweepPoint> bench_grid() {
  EvaluationOptions options;
  options.below_die_area_fraction = 1.6;
  options.mesh_nodes = 81;
  std::vector<SweepPoint> points = SweepGridBuilder(options).build();
  for (ArchitectureKind arch : {ArchitectureKind::kA3_TwoStage12V,
                                ArchitectureKind::kA3_TwoStage6V}) {
    for (std::size_t site = 0; site < 6; ++site) {
      SweepPoint p;
      p.architecture = arch;
      p.topology = TopologyKind::kDsch;
      p.options = options;
      p.options.faults.dropped_stage2 = {site};
      p.label = sweep_point_label(arch, p.topology, p.tech,
                                  "stage2-drop-" + std::to_string(site));
      points.push_back(p);
    }
    SweepPoint p2;
    p2.architecture = arch;
    p2.topology = TopologyKind::kDsch;
    p2.options = options;
    p2.options.faults.dropped_stage2 = {0, 1};
    p2.label = sweep_point_label(arch, p2.topology, p2.tech, "stage2-drop-n2");
    points.push_back(p2);
  }
  return points;
}

constexpr std::size_t kThreads = 4;

struct ModeSample {
  std::vector<ExplorationEntry> entries;
  std::size_t cg_iterations{0};
  /// The sweep's first run; empty (all accounting zero) for the loop.
  SweepReport report;
  double best_seconds{0.0};
};

template <class Run>
double best_of(int repetitions, Run run) {
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    run(rep);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

std::size_t cg_iterations_of(const ExplorationEntry& entry) {
  if (entry.evaluation) return entry.evaluation->cg_iterations;
  if (entry.extrapolated) return entry.extrapolated->cg_iterations;
  return 0;
}

ModeSample run_sweep(const PowerDeliverySpec& spec,
                     const std::vector<SweepPoint>& points,
                     int repetitions) {
  SweepConfig config;
  config.threads = kThreads;
  const SweepRunner runner(spec, config);
  ModeSample sample;
  sample.best_seconds = best_of(repetitions, [&](int rep) {
    SweepReport report = runner.run(points);
    if (rep == 0) sample.report = std::move(report);
  });
  for (const SweepOutcome& o : sample.report.outcomes) {
    sample.entries.push_back(o.entry);
  }
  sample.cg_iterations = sample.report.total_cg_iterations();
  return sample;
}

/// Lone evaluate_with_exclusion per point (no solve memo) on a pool of
/// the sweep's size, with the same kind of shared mesh cache, so the
/// wall-clock difference is the solve sharing alone.
ModeSample run_lone_loop(const PowerDeliverySpec& spec,
                         const std::vector<SweepPoint>& points,
                         int repetitions) {
  ModeSample sample;
  sample.best_seconds = best_of(repetitions, [&](int) {
    MeshSolveCache cache;
    std::vector<ExplorationEntry> entries(points.size());
    ThreadPool pool(kThreads);
    for (std::size_t i = 0; i < points.size(); ++i) {
      pool.submit([&, i] {
        EvaluationOptions options = points[i].options;
        options.mesh_cache = &cache;
        entries[i] = evaluate_with_exclusion(spec, points[i].architecture,
                                             points[i].topology,
                                             points[i].tech, options);
      });
    }
    pool.wait_idle();
    sample.entries = std::move(entries);
  });
  for (const ExplorationEntry& entry : sample.entries) {
    sample.cg_iterations += cg_iterations_of(entry);
  }
  return sample;
}

std::string entry_dump(const ExplorationEntry& entry) {
  return io::dump(io::to_json(entry));
}

std::string format_ms(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f ms", seconds * 1e3);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--check]\n", argv[0]);
      return 2;
    }
  }
  const int repetitions = 3;

  const PowerDeliverySpec spec = paper_system();
  const std::vector<SweepPoint> points = bench_grid();

  const ModeSample scalar = run_lone_loop(spec, points, repetitions);
  const ModeSample batch = run_sweep(spec, points, repetitions);

  // --- Guards ---------------------------------------------------------------
  // The sweep must reproduce the lone loop bit for bit: the full wire
  // dump of every entry, not a tolerance comparison.
  bool bit_identical = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (entry_dump(batch.entries[i]) != entry_dump(scalar.entries[i])) {
      bit_identical = false;
      std::fprintf(stderr, "bench_sweep: sweep entry differs from the "
                           "lone loop at %s\n",
                   points[i].label.c_str());
    }
  }
  // The sweep must actually share solves among same-operator points.
  const bool groups_engaged = batch.report.batch.groups > 0 &&
                              batch.report.batch.grouped_points > 0 &&
                              batch.report.batch.panel_columns > 0;
  const bool guard_ok = bit_identical && groups_engaged;
  const double batch_speedup = batch.best_seconds > 0.0
                                   ? scalar.best_seconds / batch.best_seconds
                                   : 0.0;

  const auto mode_row = [&](const char* name, const ModeSample& sample) {
    io::Value row = io::Value::object();
    row.set("mode", name);
    row.set("wall_seconds", sample.best_seconds);
    row.set("cg_iterations", sample.cg_iterations);
    row.set("batch_groups", sample.report.batch.groups);
    row.set("grouped_points", sample.report.batch.grouped_points);
    row.set("panel_columns", sample.report.batch.panel_columns);
    row.set("deduped_solves", sample.report.batch.deduped_solves);
    return row;
  };

  if (json) {
    benchio::JsonReport report("bench_sweep");
    io::Value modes = io::Value::array();
    modes.push_back(mode_row("scalar", scalar));
    modes.push_back(mode_row("batch", batch));
    report.add("points", points.size());
    report.add("modes", std::move(modes));
    report.add("batch_speedup_vs_scalar", batch_speedup);
    report.add("bit_identical", bit_identical);
    report.add("groups_engaged", groups_engaged);
    report.add("guard_ok", guard_ok);
    report.set_mesh_cache(batch.report.cache_stats);
    report.set_solver(batch.report.solver);
    report.set_observability(batch.report.snapshot());
    report.print();
    return guard_ok ? 0 : 1;
  }

  TextTable table({"Mode", "Wall (best of 3)", "CG its", "Groups",
                   "Grouped", "Panel cols", "Deduped"});
  const auto add_row = [&](const char* name, const ModeSample& sample) {
    table.add_row({name, format_ms(sample.best_seconds),
                   std::to_string(sample.cg_iterations),
                   std::to_string(sample.report.batch.groups),
                   std::to_string(sample.report.batch.grouped_points),
                   std::to_string(sample.report.batch.panel_columns),
                   std::to_string(sample.report.batch.deduped_solves)});
  };
  std::printf("=== Shared-solve sweep vs lone evaluations (%zu points, "
              "%zu threads) ===\n\n",
              points.size(), kThreads);
  add_row("scalar", scalar);
  add_row("batch", batch);
  std::cout << table << '\n';
  std::printf("Batch-vs-scalar wall speedup: %.2fx\n", batch_speedup);
  if (check) {
    std::printf("\nGuard: the sweep %s the lone loop bit for bit; "
                "groups %s.\n",
                bit_identical ? "reproduces" : "DIVERGES FROM",
                groups_engaged ? "engaged" : "DID NOT ENGAGE");
  }
  return guard_ok ? 0 : 1;
}
