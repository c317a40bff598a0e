// The measurement loop shared by the in-process campaign workloads
// (fault_nk, sweep_fine, droop_mix). A round is one fixed unit of work on
// fresh caches; rounds repeat until the run's time budget is spent. The
// first round is the warm-up: its outputs are kept as the run's reference
// and its time is not measured. Every later round is compared against it.
//
// In a traced run the rounds alternate between tracing off and on: the
// traced rounds feed the span aggregate, and the ratio of their median
// wall time to that of the untraced rounds is the tracing overhead.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace_stats.hpp"
#include "vpd/common/sparse.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace perfbench {

/// Solver and mesh-cache accounting of the campaign rounds. The
/// deterministic counters (CG solves and iterations, mesh assemblies, and
/// any the workload adds) must repeat exactly in every round; the
/// scheduling-dependent ones are summed for the traced run's ratios.
class RoundCounters {
 public:
  void add(std::size_t round, const vpd::SolverCounters& solver,
           const vpd::MeshSolveCache::Stats& cache, Gate& gate,
           const std::string& extra = "") {
    const std::string exact = std::to_string(solver.cg_solves) + "/" +
                              std::to_string(solver.cg_iterations) + "/" +
                              std::to_string(cache.misses) + extra;
    if (round == 0) first_ = exact;
    if (exact != first_) {
      gate.fail_extra("round " + std::to_string(round) + " counters " +
                      exact + " differ from round 0's " + first_);
    }
    factorizations_ += static_cast<double>(solver.precond_factorizations);
    reuses_ += static_cast<double>(solver.precond_reuses);
    hits_ += static_cast<double>(cache.hits);
    misses_ += static_cast<double>(cache.misses);
    ++rounds_;
  }

  void fill(std::map<std::string, double>& layers) const {
    layers["package.mesh_cache_hit_ratio"] =
        hits_ / std::max(1.0, hits_ + misses_);
    layers["common.precond_factorizations"] =
        factorizations_ / std::max<double>(1.0, rounds_);
    layers["common.precond_reuse_ratio"] =
        reuses_ / std::max(1.0, factorizations_ + reuses_);
  }

 private:
  std::string first_;
  double factorizations_{0.0};
  double reuses_{0.0};
  double hits_{0.0};
  double misses_{0.0};
  std::size_t rounds_{0};
};

template <class Output>
class CampaignRounds {
 public:
  /// `produce(trace)` runs one round under the benchmark span context
  /// `trace`. `inspect(index, output)` checks the round's outputs; it runs
  /// outside the timed region, and only round 0's output is retained.
  /// `setup` takes one sample after every measured untraced round.
  void run(const Args& args,
           const std::function<Output(vpd::obs::TraceContext)>& produce,
           const std::function<void(std::size_t, const Output&)>& inspect,
           SetupTimer& setup) {
    threads_ = args.threads;
    constexpr std::size_t kMinMeasuredRounds = 4;
    double spent = 0.0;
    for (std::size_t k = 0;; ++k) {
      const bool traced = args.trace && k % 2 == 0 && k > 0;
      if (traced) {
        vpd::obs::clear_trace();
        vpd::obs::set_tracing_enabled(true);
      }
      const bool peak_reset = !traced && k > 0 && reset_peak_rss();
      const auto start = Clock::now();
      Output output;
      {
        vpd::obs::Span span("bench.round");
        output = produce(span.context());
      }
      const double wall = seconds_since(start);
      if (traced) {
        vpd::obs::set_tracing_enabled(false);
        dropped_ += vpd::obs::trace_events_dropped();
        trace_.add(events_from_chrome(vpd::obs::chrome_trace_json()));
        vpd::obs::clear_trace();
        traced_seconds_.push_back(wall);
      } else if (k > 0) {
        round_seconds_.push_back(wall);
        if (peak_reset) round_peak_mb_.push_back(peak_rss_since_reset_mb());
        setup.sample();
      }
      inspect(k, output);
      if (k == 0) first_ = std::move(output);
      if (k > 0) spent += wall;
      const std::size_t measured = round_seconds_.size();
      if (spent >= args.seconds && measured >= kMinMeasuredRounds &&
          (!args.trace || traced_seconds_.size() >= kMinMeasuredRounds)) {
        break;
      }
    }
  }

  const Output& first() const { return *first_; }
  std::size_t traced_rounds() const { return traced_seconds_.size(); }
  /// Summed duration of the `name` spans over the traced rounds [s].
  double span_total(const char* name) const {
    return trace_.span(name).total_s;
  }

  /// items_per_s and peak_rss_mb over the measured untraced rounds,
  /// setup_s, and the round-time quartiles for the record.
  void fill_end_to_end(Result& result, double items_per_round,
                       const SetupTimer& setup) const {
    std::vector<double> ms;
    for (double s : round_seconds_) ms.push_back(s * 1e3);
    result.end_to_end["items_per_s"] =
        steady_rate(items_per_round, round_seconds_);
    result.end_to_end["setup_s"] = setup.median_seconds();
    result.record.set("setup_samples", setup.samples());
    result.record.set("round_ms_p25", percentile(ms, 0.25));
    result.record.set("round_ms_p50", median(ms));
    // The median of the rounds' peaks: the whole run's peak is one
    // extreme of how the threads' allocations happened to overlap.
    result.end_to_end["peak_rss_mb"] = round_peak_mb_.empty()
                                           ? peak_rss_mb(/*children=*/false)
                                           : median(round_peak_mb_);
    result.record.set("measured_rounds", round_seconds_.size());
  }

  /// Span-derived per-module metrics, averaged per traced round.
  void fill_trace_layers(Result& result) const {
    std::map<std::string, double>& L = result.layers;
    const double n = std::max<double>(1.0, traced_seconds_.size());
    double wall = 0.0;
    for (double s : traced_seconds_) wall += s;
    const auto total = [&](const char* name) {
      return trace_.span(name).total_s;
    };
    const auto self = [&](const char* name) {
      return trace_.span(name).self_total_s;
    };
    L["package.mesh_assemble_s"] = total("mesh.assemble") / n;
    L["package.irdrop_self_s"] =
        (self("irdrop.solve") + self("irdrop.solve_batch")) / n;
    L["common.cg_s"] = (total("solve.cg") + total("solve.cg_block")) / n;
    L["arch.evaluations"] =
        static_cast<double>(trace_.span("vpd.evaluate").count) / n;
    L["arch.evaluate_self_ms_p50"] =
        median(trace_.span("vpd.evaluate").self_s) * 1e3;
    L["workload.scenario_ms_p50"] =
        median(trace_.span("droop.scenario").dur_s) * 1e3;
    L["workload.scenario_ms_p99"] =
        percentile(trace_.span("droop.scenario").dur_s, 0.99) * 1e3;
    L["sweep.utilization"] =
        trace_.busy_seconds() / (wall * static_cast<double>(threads_));
    L["obs.trace_overhead"] =
        median(traced_seconds_) / median(round_seconds_);
    L["obs.dropped_events"] = static_cast<double>(dropped_);
    if (dropped_ != 0) {
      result.gate.fail_extra("trace buffer dropped " +
                             std::to_string(dropped_) + " events");
    }
    result.record.set("traced_rounds", traced_seconds_.size());
    result.record.set("trace_events", trace_.events());
  }

 private:
  std::optional<Output> first_;
  std::vector<double> round_seconds_;
  std::vector<double> traced_seconds_;
  /// Peak resident set of each measured untraced round [MiB].
  std::vector<double> round_peak_mb_;
  TraceAggregate trace_;
  std::uint64_t dropped_{0};
  std::size_t threads_{1};
};

}  // namespace perfbench
