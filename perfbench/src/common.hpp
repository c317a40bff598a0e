// Shared pieces of the perfbench program: arguments, timing and percentile
// helpers, the correctness gate, the physical-invariant and tolerance
// checks applied to every evaluation, and the per-run result record.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "vpd/arch/report.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/io/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// The vpdd binary (vpdd_mixed only).
  std::string vpdd;
  /// Scratch directory for files the run writes (vpdd trace files).
  std::string work_dir;
  /// Worker threads for every pool the benchmark creates: min(nproc, 4).
  std::size_t threads{1};
};

double seconds_since(Clock::time_point start);

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Throughput of a run made of equal units of work: `items_per_unit` over
/// the lower quartile of the units' wall times. Other tenants of a shared
/// host only ever lengthen a unit, so the lower quartile holds while a
/// slow spell covers up to three quarters of the run, where the median
/// moves once one covers half of it.
double steady_rate(double items_per_unit, std::vector<double> unit_seconds);

/// Peak resident set of this process, or with `children` of the largest
/// waited-for child process [MiB].
double peak_rss_mb(bool children);

/// Restarts this process's peak resident set from its current one
/// (Linux /proc/self/clear_refs). False where that is not possible.
bool reset_peak_rss();
/// Peak resident set of this process since reset_peak_rss() [MiB], from
/// /proc/self/status; 0 where that is not readable.
double peak_rss_since_reset_mb();

/// 64-bit FNV-1a, chained through `hash`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

/// Wall-time samples of a workload's set-up. The set-up is timed a few
/// times before the measurement and once more after each measured round
/// or burst, so that the samples span the run as the measurement does and
/// a slow spell of the shared host moves setup_s no more than it moves
/// the throughput. setup_s is the median of the samples.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup)
      : setup_(std::move(setup)) {}
  /// Runs the set-up `reps` times, timing each.
  void sample(int reps = 1);
  double median_seconds() const { return median(samples_); }
  std::size_t samples() const { return samples_.size(); }

 private:
  std::function<void()> setup_;
  std::vector<double> samples_;
};

/// Counts attempted and failed outputs and keeps the first few reasons.
struct Gate {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;

  void attempt(std::uint64_t n = 1) { attempted += n; }
  /// Records one failed output (already counted as attempted).
  void fail(const std::string& why);
  /// Records a failed check that is not tied to one counted output: it
  /// adds an attempted output as well, so `failed <= attempted` holds.
  void fail_extra(const std::string& why);
};

/// Relative tolerance for outputs compared against the reference path. A
/// solve certified to the evaluator's 1e-12 normwise backward error moves
/// a mesh-level output by at most cond(A) * 1e-12, orders of magnitude
/// below this; a wrong answer (a dropped shunt, a lost sink, a stale
/// factor) moves losses and currents by far more.
inline constexpr double kReferenceTolerance = 1e-6;

/// Physical invariants every evaluation must satisfy: input power equals
/// delivered power plus every modeled loss, and the distribution VRs
/// together source exactly the load the mesh serves (the die current for
/// single-stage architectures, the stage-2 input current on the
/// intermediate rail for two-stage ones). Returns "" when both hold.
std::string check_invariants(const vpd::ArchitectureEvaluation& eval,
                             const vpd::PowerDeliverySpec& spec);

/// Compares the checked outputs of `eval` against `reference` within
/// kReferenceTolerance. Returns "" on agreement.
std::string compare_to_reference(const vpd::ArchitectureEvaluation& eval,
                                 const vpd::ArchitectureEvaluation& reference);

/// The evaluation an entry carries: the in-rating one, else the flagged
/// extrapolation, else nullptr.
const vpd::ArchitectureEvaluation* evaluation_of(
    const vpd::ExplorationEntry& entry);

/// Canonical wire dump used for the bit-identity checks.
std::string dump_evaluation(const vpd::ArchitectureEvaluation& eval);

/// What one benchmark run reports.
struct Result {
  Gate gate;
  /// End-to-end metrics by name (untraced measurement).
  std::map<std::string, double> end_to_end;
  /// Per-module metrics by name (traced run only).
  std::map<std::string, double> layers;
  /// Workload sizes and properties for the run record.
  vpd::io::Value record = vpd::io::Value::object();
  /// Counters and output digests that must repeat exactly for a seed.
  vpd::io::Value deterministic = vpd::io::Value::object();
};

Result run_fault_nk(const Args& args);
Result run_sweep_fine(const Args& args);
Result run_droop_mix(const Args& args);
Result run_vpdd_mixed(const Args& args);

}  // namespace perfbench
