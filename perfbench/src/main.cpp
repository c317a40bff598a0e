// The perfbench program: runs one workload for a time budget, checks its
// outputs, and prints every metric with its unit, a run record, and as
// the last line one JSON result object. See perfbench/README.md.
//
//   perfbench --workload fault_nk|sweep_fine|droop_mix|vpdd_mixed
//             --seed N --seconds S --trace 0|1
//             [--vpdd PATH] [--work-dir DIR] [--commit ID]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "vpd/io/json.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"package.mesh_assemblies", "count"},
    {"package.mesh_assemble_s", "s"},
    {"package.mesh_cache_hit_ratio", "ratio"},
    {"package.irdrop_self_s", "s"},
    {"common.precond_factorizations", "count"},
    {"common.precond_reuse_ratio", "ratio"},
    {"common.cg_solves", "count"},
    {"common.cg_iterations", "count"},
    {"common.cg_s", "s"},
    {"core.dedup_ratio", "ratio"},
    {"core.panel_columns", "count"},
    {"arch.evaluations", "count"},
    {"arch.evaluate_self_ms_p50", "ms"},
    {"fault.scenarios", "count"},
    {"fault.survivors", "count"},
    {"workload.scenario_ms_p50", "ms"},
    {"workload.scenario_ms_p99", "ms"},
    {"circuit.transient_steps", "count"},
    {"circuit.us_per_step", "us"},
    {"circuit.lu_factorizations", "count"},
    {"circuit.lu_hit_ratio", "ratio"},
    {"sweep.utilization", "ratio"},
    {"io.parse_us", "us"},
    {"io.serialize_us", "us"},
    {"io.bytes_out", "bytes"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.evaluated", "count"},
    {"serve.coalesced", "count"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.batch_cache_nonbitwise", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.dropped_events", "count"},
    {"bench.gen_late_ms_p99", "ms"},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fault_nk|sweep_fine|droop_mix|vpdd_mixed "
               "--seed N --seconds S --trace 0|1 [--vpdd PATH] "
               "[--work-dir DIR] [--commit ID]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  args.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--vpdd") {
      args.vpdd = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      usage(argv[0]);
    }
  }
  if (!(args.seconds > 0.0)) usage(argv[0]);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  args.threads = std::min<std::size_t>(nproc, 4);

  Result result;
  try {
    if (args.workload == "fault_nk") {
      result = perfbench::run_fault_nk(args);
    } else if (args.workload == "sweep_fine") {
      result = perfbench::run_sweep_fine(args);
    } else if (args.workload == "droop_mix") {
      result = perfbench::run_droop_mix(args);
    } else if (args.workload == "vpdd_mixed") {
      if (args.vpdd.empty()) usage(argv[0]);
      result = perfbench::run_vpdd_mixed(args);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  using vpd::io::Value;
  const perfbench::Gate& gate = result.gate;
  const bool correct = gate.failed == 0 && gate.attempted > 0;
  for (const std::string& p : gate.problems) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 p.c_str());
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Value metrics = Value::object();
  const auto emit = [&](const MetricSpec& spec,
                        const std::map<std::string, double>& values) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("  %-30s %14.6g %s\n", spec.name, v, spec.unit);
    Value m = Value::object();
    m.set("value", v);
    m.set("unit", spec.unit);
    metrics.set(spec.name, std::move(m));
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, result.layers);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, result.end_to_end);
  }
  const double fail_frac =
      gate.attempted == 0 ? 1.0
                          : static_cast<double>(gate.failed) /
                                static_cast<double>(gate.attempted);
  std::printf("  %-30s %14.6g (failed %llu of %llu attempted)\n", "fail_frac",
              fail_frac, static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));

  Value record = Value::object();
  record.set("workload", args.workload);
  record.set("seed", static_cast<double>(args.seed));
  record.set("seconds", args.seconds);
  record.set("trace", args.trace);
  record.set("nproc", nproc);
  record.set("threads", args.threads);
  record.set("build_type", PERFBENCH_BUILD_TYPE);
  record.set("compiler", PERFBENCH_COMPILER);
  record.set("commit", commit);
  record.set("fail_frac", fail_frac);
  record.set("sizes", result.record);
  record.set("deterministic", result.deterministic);
  std::printf("record %s\n", vpd::io::dump(record).c_str());

  Value out = Value::object();
  out.set("correct", correct);
  out.set("attempted", static_cast<double>(std::max<std::uint64_t>(
                           gate.attempted, 1)));
  out.set("failed", static_cast<double>(gate.failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", vpd::io::dump(out).c_str());
  return correct ? 0 : 1;
}
