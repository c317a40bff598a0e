// PWM gate-signal generation for switching-converter simulation: phase-
// shifted carriers, complementary pairs with dead time, and helpers that
// bind PWM signals to netlist switches as a transient SwitchController.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "vpd/circuit/mna.hpp"
#include "vpd/circuit/netlist.hpp"
#include "vpd/common/units.hpp"

namespace vpd {

/// Rectangular PWM signal: high during [phase, phase + duty) of each
/// normalized period.
class PwmSignal {
 public:
  /// duty in [0, 1]; phase in [0, 1) as a fraction of the period.
  PwmSignal(Frequency frequency, double duty, double phase = 0.0);

  bool is_high(double time) const;
  /// Fraction of the period the signal is high.
  double duty() const { return off_ - on_; }
  /// Carrier phase the high window is measured from (for a complement,
  /// the phase of the signal it complements).
  double phase() const { return phase_; }
  double period() const { return period_; }

  /// Complementary signal with symmetric dead time: low a little after this
  /// signal falls and high a little before it rises, never overlapping.
  /// It shares this signal's carrier phase, so both edges are decided by
  /// the same phase fraction: with zero dead time exactly one of the pair
  /// is high at every instant.
  PwmSignal complement(Seconds dead_time = Seconds{0.0}) const;

 private:
  PwmSignal(double period, double phase, double on, double off);

  double period_;
  double phase_;
  // High window [on_, off_) as fractions of the period past phase_, with
  // 0 <= on_ < 1 and on_ <= off_ <= on_ + 1 (a complement's window may
  // run past the period end).
  double on_;
  double off_;
};

/// Assigns PWM signals to switches of a netlist and exposes the
/// SwitchController the transient engine consumes.
class GateDrive {
 public:
  explicit GateDrive(const Netlist& netlist);

  /// Drives switch `switch_name` with `signal`.
  void assign(const std::string& switch_name, PwmSignal signal);

  /// Drives a complementary pair (high-side, low-side) from one signal with
  /// dead time on both edges.
  void assign_pair(const std::string& high_switch,
                   const std::string& low_switch, PwmSignal signal,
                   Seconds dead_time);

  /// True if every switch in the netlist has a driving signal.
  bool fully_assigned() const;

  /// Controller callback: writes each assigned switch's state; unassigned
  /// switches keep their previous state.
  std::function<void(double, SwitchStates&)> controller() const;

 private:
  const Netlist* netlist_;
  std::vector<ElementId> switch_ids_;                 // netlist switch order
  std::vector<std::vector<PwmSignal>> assignments_;   // per switch position
};

}  // namespace vpd
