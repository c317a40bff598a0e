#include "vpd/circuit/pwm.hpp"

#include <gtest/gtest.h>

#include "vpd/common/error.hpp"

namespace vpd {
namespace {

using namespace vpd::literals;

TEST(PwmSignal, BasicDutyWindow) {
  const PwmSignal s(1.0_MHz, 0.25);
  EXPECT_TRUE(s.is_high(0.0));
  EXPECT_TRUE(s.is_high(0.2e-6));
  EXPECT_FALSE(s.is_high(0.3e-6));
  EXPECT_FALSE(s.is_high(0.9e-6));
  // Next period repeats.
  EXPECT_TRUE(s.is_high(1.1e-6));
}

TEST(PwmSignal, DutyFractionMeasured) {
  const PwmSignal s(Frequency{1.0}, 0.3);
  int high = 0;
  const int samples = 10000;
  for (int i = 0; i < samples; ++i)
    if (s.is_high(static_cast<double>(i) / samples)) ++high;
  EXPECT_NEAR(high / static_cast<double>(samples), 0.3, 0.001);
}

TEST(PwmSignal, PhaseShiftsWindow) {
  const PwmSignal s(Frequency{1.0}, 0.25, 0.5);
  EXPECT_FALSE(s.is_high(0.0));
  EXPECT_TRUE(s.is_high(0.6));
  EXPECT_FALSE(s.is_high(0.8));
}

TEST(PwmSignal, NegativeTimeWrapsCleanly) {
  const PwmSignal s(Frequency{1.0}, 0.5);
  EXPECT_TRUE(s.is_high(-0.9));   // equivalent to t=0.1
  EXPECT_FALSE(s.is_high(-0.4));  // equivalent to t=0.6
}

TEST(PwmSignal, Validation) {
  EXPECT_THROW(PwmSignal(Frequency{0.0}, 0.5), InvalidArgument);
  EXPECT_THROW(PwmSignal(Frequency{1.0}, 1.5), InvalidArgument);
  EXPECT_THROW(PwmSignal(Frequency{1.0}, 0.5, 1.0), InvalidArgument);
}

TEST(PwmSignal, ComplementNeverOverlaps) {
  const PwmSignal hs(1.0_MHz, 0.4);
  const PwmSignal ls = hs.complement(10.0_ns);
  for (int i = 0; i < 2000; ++i) {
    const double t = 2e-6 * i / 2000.0;
    EXPECT_FALSE(hs.is_high(t) && ls.is_high(t)) << "overlap at t=" << t;
  }
}

TEST(PwmSignal, ComplementCoversOffTimeMinusDeadTime) {
  const PwmSignal hs(Frequency{1.0}, 0.4);
  const PwmSignal ls = hs.complement(Seconds{0.05});
  int high = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i)
    if (ls.is_high(static_cast<double>(i) / samples)) ++high;
  // On-window = (1 - 0.4) - 2*0.05 = 0.5 of the period.
  EXPECT_NEAR(high / static_cast<double>(samples), 0.5, 0.002);
}

TEST(PwmSignal, ComplementWithZeroDeadTimeIsExactComplement) {
  const PwmSignal hs(Frequency{1.0}, 0.3);
  const PwmSignal ls = hs.complement();
  for (int i = 1; i < 1000; ++i) {
    const double t = static_cast<double>(i) / 1000.0 + 1e-9;
    EXPECT_NE(hs.is_high(t), ls.is_high(t)) << "t=" << t;
  }
}

// The buck drive's pair (500 kHz, D = 0.4, no dead time) sampled exactly
// on a 10 ns transient grid: the complement must decide each edge on the
// same phase fraction as its signal, or rounding closes both switches at
// some edges (t = 4.8, 12, 14, 16 us ...) or opens both.
TEST(PwmSignal, ZeroDeadTimePairIsExactOnTheStepGrid) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  nl.add_switch("S_hi", a, b);
  nl.add_switch("S_lo", b, kGround);
  GateDrive drive(nl);
  drive.assign_pair("S_hi", "S_lo", PwmSignal(500.0_kHz, 0.4), Seconds{0.0});
  const auto ctrl = drive.controller();
  SwitchStates states(2, false);
  for (int k = 0; k <= 4000; ++k) {
    const double t = k * 10e-9;
    ctrl(t, states);
    EXPECT_NE(states[0], states[1]) << "k=" << k << " t=" << t;
  }
}

TEST(PwmSignal, ExcessiveDeadTimeThrows) {
  const PwmSignal hs(Frequency{1.0}, 0.9);
  EXPECT_THROW(hs.complement(Seconds{0.2}), InvalidArgument);
}

TEST(GateDrive, ControllerDrivesAssignedSwitches) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  nl.add_switch("S_hi", a, b);
  nl.add_switch("S_lo", b, kGround);
  GateDrive drive(nl);
  EXPECT_FALSE(drive.fully_assigned());
  drive.assign_pair("S_hi", "S_lo", PwmSignal(Frequency{1.0}, 0.25),
                    Seconds{0.01});
  EXPECT_TRUE(drive.fully_assigned());

  auto ctrl = drive.controller();
  SwitchStates states(2, false);
  ctrl(0.1, states);
  EXPECT_TRUE(states[0]);
  EXPECT_FALSE(states[1]);
  ctrl(0.5, states);
  EXPECT_FALSE(states[0]);
  EXPECT_TRUE(states[1]);
}

TEST(GateDrive, RejectsDuplicateAndUnknownAssignments) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add_switch("S1", a, kGround);
  nl.add_resistor("R1", a, kGround, 1.0_Ohm);
  GateDrive drive(nl);
  drive.assign("S1", PwmSignal(Frequency{1.0}, 0.5));
  EXPECT_THROW(drive.assign("S1", PwmSignal(Frequency{1.0}, 0.5)),
               InvalidArgument);
  EXPECT_THROW(drive.assign("R1", PwmSignal(Frequency{1.0}, 0.5)),
               InvalidArgument);
  EXPECT_THROW(drive.assign("missing", PwmSignal(Frequency{1.0}, 0.5)),
               InvalidArgument);
}

TEST(GateDrive, UnassignedSwitchesKeepState) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add_switch("S1", a, kGround);
  nl.add_switch("S2", a, kGround, Resistance{1e-3}, Resistance{1e9}, true);
  GateDrive drive(nl);
  drive.assign("S1", PwmSignal(Frequency{1.0}, 0.5));
  auto ctrl = drive.controller();
  SwitchStates states{false, true};
  ctrl(0.75, states);
  EXPECT_FALSE(states[0]);  // PWM low at 0.75
  EXPECT_TRUE(states[1]);   // untouched
}

}  // namespace
}  // namespace vpd
