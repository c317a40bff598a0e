#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "vpd/common/statistics.hpp"
#include "vpd/io/schema.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> samples, double q) {
  return samples.empty() ? 0.0 : vpd::percentile(std::move(samples), q);
}

double steady_rate(double items_per_unit, std::vector<double> unit_seconds) {
  const double seconds = percentile(std::move(unit_seconds), 0.25);
  return seconds > 0.0 ? items_per_unit / seconds : 0.0;
}

double peak_rss_mb(bool children) {
  struct rusage usage {};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_since_reset_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void SetupTimer::sample(int reps) {
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    setup_();
    samples_.push_back(seconds_since(start));
  }
}

void Gate::fail(const std::string& why) {
  ++failed;
  if (problems.size() < 20) problems.push_back(why);
}

void Gate::fail_extra(const std::string& why) {
  ++attempted;
  fail(why);
}

namespace {

bool close(double a, double b, double scale) {
  return std::fabs(a - b) <= kReferenceTolerance * scale;
}

std::string mismatch(const char* field, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s = %.17g, reference %.17g", field, got,
                want);
  return buf;
}

}  // namespace

std::string check_invariants(const vpd::ArchitectureEvaluation& eval,
                             const vpd::PowerDeliverySpec& spec) {
  const double delivered = spec.total_power.value;
  const double loss = eval.total_loss().value;
  const double input = eval.input_power.value;
  if (!std::isfinite(input) ||
      std::fabs(input - (delivered + loss)) > 1e-9 * input) {
    return mismatch("power balance: input_power", input, delivered + loss);
  }
  if (!eval.vr_current_spread || !eval.distribution_rail) return "";
  // Current the distribution mesh serves: the die current when the mesh
  // is the POL rail, the stage-2 input current on an intermediate rail.
  const double rail = eval.distribution_rail->value;
  const bool pol_rail = rail == spec.die_voltage.value;
  const double served =
      pol_rail ? spec.die_current().value
               : (delivered + eval.conversion_stage2.value) / rail;
  const vpd::Summary& s = *eval.vr_current_spread;
  const double sourced = s.mean * static_cast<double>(s.count);
  if (!std::isfinite(sourced) || std::fabs(sourced - served) > 1e-6 * served) {
    return mismatch("VR current balance: sum of VR currents", sourced,
                    served);
  }
  return "";
}

std::string compare_to_reference(
    const vpd::ArchitectureEvaluation& eval,
    const vpd::ArchitectureEvaluation& reference) {
  if (eval.vr_count_stage1 != reference.vr_count_stage1 ||
      eval.vr_count_stage2 != reference.vr_count_stage2) {
    return "VR counts differ from the reference";
  }
  if (eval.within_rating != reference.within_rating ||
      eval.used_extrapolation != reference.used_extrapolation) {
    return "rating/extrapolation flags differ from the reference";
  }
  const double power = reference.input_power.value;
  const struct {
    const char* name;
    double got;
    double want;
  } losses[] = {
      {"input_power", eval.input_power.value, reference.input_power.value},
      {"vertical_loss", eval.vertical_loss.value,
       reference.vertical_loss.value},
      {"horizontal_loss", eval.horizontal_loss.value,
       reference.horizontal_loss.value},
      {"conversion_stage1", eval.conversion_stage1.value,
       reference.conversion_stage1.value},
      {"conversion_stage2", eval.conversion_stage2.value,
       reference.conversion_stage2.value},
  };
  for (const auto& l : losses) {
    if (!close(l.got, l.want, power)) return mismatch(l.name, l.got, l.want);
  }
  if (eval.min_distribution_voltage.has_value() !=
      reference.min_distribution_voltage.has_value()) {
    return "distribution voltage presence differs from the reference";
  }
  if (reference.min_distribution_voltage) {
    const double rail = reference.distribution_rail->value;
    if (!close(eval.min_distribution_voltage->value,
               reference.min_distribution_voltage->value, rail)) {
      return mismatch("min_distribution_voltage",
                      eval.min_distribution_voltage->value,
                      reference.min_distribution_voltage->value);
    }
  }
  if (eval.vr_current_spread.has_value() !=
      reference.vr_current_spread.has_value()) {
    return "VR current spread presence differs from the reference";
  }
  if (reference.vr_current_spread) {
    const vpd::Summary& a = *eval.vr_current_spread;
    const vpd::Summary& b = *reference.vr_current_spread;
    const double scale = std::fabs(b.mean);
    if (a.count != b.count || !close(a.min, b.min, scale) ||
        !close(a.max, b.max, scale) || !close(a.mean, b.mean, scale)) {
      return mismatch("vr_current_spread.max", a.max, b.max);
    }
    if (eval.fault_site_currents.size() !=
        reference.fault_site_currents.size()) {
      return "fault site current count differs from the reference";
    }
    for (std::size_t i = 0; i < eval.fault_site_currents.size(); ++i) {
      if (!close(eval.fault_site_currents[i],
                 reference.fault_site_currents[i], scale)) {
        return mismatch("fault_site_currents[i]",
                        eval.fault_site_currents[i],
                        reference.fault_site_currents[i]);
      }
    }
  }
  return "";
}

const vpd::ArchitectureEvaluation* evaluation_of(
    const vpd::ExplorationEntry& entry) {
  if (entry.evaluation) return &*entry.evaluation;
  if (entry.extrapolated) return &*entry.extrapolated;
  return nullptr;
}

std::string dump_evaluation(const vpd::ArchitectureEvaluation& eval) {
  return vpd::io::dump(vpd::io::to_json(eval));
}

}  // namespace perfbench
