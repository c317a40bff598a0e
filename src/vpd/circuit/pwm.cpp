#include "vpd/circuit/pwm.hpp"

#include <cmath>

#include "vpd/common/error.hpp"

namespace vpd {

PwmSignal::PwmSignal(Frequency frequency, double duty, double phase) {
  VPD_REQUIRE(frequency.value > 0.0, "frequency must be positive, got ",
              frequency.value);
  VPD_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty ", duty, " outside [0,1]");
  VPD_REQUIRE(phase >= 0.0 && phase < 1.0, "phase ", phase, " outside [0,1)");
  period_ = 1.0 / frequency.value;
  phase_ = phase;
  on_ = 0.0;
  off_ = duty;
}

PwmSignal::PwmSignal(double period, double phase, double on, double off)
    : period_(period), phase_(phase), on_(on), off_(off) {}

bool PwmSignal::is_high(double time) const {
  double u = std::fmod(time / period_ - phase_, 1.0);
  if (u < 0.0) u += 1.0;
  if (u < on_) u += 1.0;  // the window may wrap past the period end
  return u < off_;
}

PwmSignal PwmSignal::complement(Seconds dead_time) const {
  VPD_REQUIRE(dead_time.value >= 0.0, "negative dead time");
  const double guard = dead_time.value / period_;
  VPD_REQUIRE(2.0 * guard < 1.0 - duty(),
              "dead time ", dead_time.value, " s leaves no on-time for the "
              "complementary switch at duty ", duty());
  // The complement occupies [off, on + 1) of the same carrier, shrunk by
  // the guard on both edges. Same carrier phase, so with no guard the two
  // windows split every phase fraction exactly.
  double on = off_ + guard;
  double off = on_ + 1.0 - guard;
  if (on >= 1.0) {
    on -= 1.0;
    off -= 1.0;
  }
  return PwmSignal(period_, phase_, on, off);
}

GateDrive::GateDrive(const Netlist& netlist)
    : netlist_(&netlist), switch_ids_(netlist.switches()) {
  assignments_.resize(switch_ids_.size());
}

void GateDrive::assign(const std::string& switch_name, PwmSignal signal) {
  const ElementId id = netlist_->element_id(switch_name);
  VPD_REQUIRE(netlist_->element(id).kind == ElementKind::kSwitch, "element '",
              switch_name, "' is not a switch");
  for (std::size_t pos = 0; pos < switch_ids_.size(); ++pos) {
    if (switch_ids_[pos] == id) {
      VPD_REQUIRE(assignments_[pos].empty(), "switch '", switch_name,
                  "' already has a drive signal");
      assignments_[pos].push_back(signal);
      return;
    }
  }
  throw InvalidArgument(detail::concat("switch '", switch_name,
                                       "' not found in netlist"));
}

void GateDrive::assign_pair(const std::string& high_switch,
                            const std::string& low_switch, PwmSignal signal,
                            Seconds dead_time) {
  assign(high_switch, signal);
  assign(low_switch, signal.complement(dead_time));
}

bool GateDrive::fully_assigned() const {
  for (const auto& a : assignments_)
    if (a.empty()) return false;
  return true;
}

std::function<void(double, SwitchStates&)> GateDrive::controller() const {
  // Copy assignment table by value so the controller outlives this object.
  auto assignments = assignments_;
  return [assignments](double time, SwitchStates& states) {
    for (std::size_t pos = 0; pos < assignments.size() && pos < states.size();
         ++pos) {
      if (!assignments[pos].empty())
        states[pos] = assignments[pos].front().is_high(time);
    }
  };
}

}  // namespace vpd
