#include "vpd/package/interconnect.hpp"

#include <cmath>

#include "vpd/common/error.hpp"

namespace vpd {

using namespace vpd::literals;

const char* to_string(InterconnectLevel level) {
  switch (level) {
    case InterconnectLevel::kPcbToPackage: return "PCB/PKG";
    case InterconnectLevel::kPackageToInterposer: return "PKG/Interposer";
    case InterconnectLevel::kThroughInterposer: return "Through-Interposer";
    case InterconnectLevel::kInterposerToDieBump: return "Interposer/Die (u-bump)";
    case InterconnectLevel::kInterposerToDiePad: return "Interposer/Die (Cu pad)";
  }
  return "unknown";
}

Resistance VerticalInterconnectSpec::per_via() const {
  VPD_REQUIRE(cross_section.value > 0.0 && height.value > 0.0,
              "interconnect '", type, "': non-positive geometry");
  return Resistance{resistivity.value * height.value / cross_section.value};
}

std::size_t VerticalInterconnectSpec::available_count() const {
  return available_count(platform_area);
}

std::size_t VerticalInterconnectSpec::available_count(Area over) const {
  VPD_REQUIRE(pitch.value > 0.0, "interconnect '", type,
              "': non-positive pitch");
  VPD_REQUIRE(over.value >= 0.0, "negative area");
  return static_cast<std::size_t>(over.value /
                                  (pitch.value * pitch.value));
}

std::size_t VerticalInterconnectSpec::vias_for_current(
    Current current) const {
  VPD_REQUIRE(current.value >= 0.0, "negative current");
  VPD_REQUIRE(max_current_per_via.value > 0.0, "interconnect '", type,
              "': no current limit set");
  return static_cast<std::size_t>(
      std::ceil(current.value / max_current_per_via.value));
}

Resistance VerticalInterconnectSpec::net_pair_resistance(
    std::size_t vias_per_net) const {
  VPD_REQUIRE(vias_per_net > 0, "need at least one via per net");
  return Resistance{2.0 * per_via().value /
                    static_cast<double>(vias_per_net)};
}

namespace {

/// Builds Table I; table_rows() serves the one shared copy.
std::vector<VerticalInterconnectSpec> build_table_one() {
  std::vector<VerticalInterconnectSpec> specs;
  {
    VerticalInterconnectSpec s;  // PCB/PKG: solder BGAs
    s.level = InterconnectLevel::kPcbToPackage;
    s.type = "BGA";
    s.material = "solder";
    s.platform_area = 1800.0_mm2;
    s.diameter = 400.0_um;
    s.cross_section = Area{125664e-12};  // 125,664 um^2
    s.height = 300.0_um;
    s.pitch = 800.0_um;
    s.resistivity = kSolderResistivity;
    s.max_current_per_via = 1.0_A;
    s.max_power_fraction = 0.60;  // paper Section IV
    specs.push_back(s);
  }
  {
    VerticalInterconnectSpec s;  // PKG/Interposer: solder C4 bumps
    s.level = InterconnectLevel::kPackageToInterposer;
    s.type = "C4";
    s.material = "solder";
    s.platform_area = 1200.0_mm2;
    s.diameter = 100.0_um;
    s.cross_section = Area{7854e-12};
    s.height = 70.0_um;
    s.pitch = 200.0_um;
    s.resistivity = kSolderResistivity;
    s.max_current_per_via = Current{0.040};
    s.max_power_fraction = 0.85;  // paper Section IV
    specs.push_back(s);
  }
  {
    VerticalInterconnectSpec s;  // Through-interposer: Cu TSVs
    s.level = InterconnectLevel::kThroughInterposer;
    s.type = "TSV";
    s.material = "Cu";
    s.platform_area = 1200.0_mm2;
    s.diameter = 5.0_um;
    s.cross_section = Area{20e-12};
    s.height = 50.0_um;
    s.pitch = 10.0_um;
    s.resistivity = kCopperResistivity;
    s.max_current_per_via = Current{0.85e-3};
    s.max_power_fraction = 1.0;
    specs.push_back(s);
  }
  {
    VerticalInterconnectSpec s;  // Interposer/Die: solder micro-bumps
    s.level = InterconnectLevel::kInterposerToDieBump;
    s.type = "u-bump";
    s.material = "solder";
    s.platform_area = 500.0_mm2;
    s.diameter = 30.0_um;
    s.cross_section = Area{707e-12};
    s.height = 25.0_um;
    s.pitch = 60.0_um;
    s.resistivity = kSolderResistivity;
    s.max_current_per_via = Current{0.050};
    s.max_power_fraction = 1.0;
    specs.push_back(s);
  }
  {
    VerticalInterconnectSpec s;  // Interposer/Die: advanced Cu-Cu pads
    s.level = InterconnectLevel::kInterposerToDiePad;
    s.type = "Cu pad";
    s.material = "Cu";
    s.platform_area = 500.0_mm2;
    s.diameter = Length{0.0};  // pads, no drawn diameter in Table I
    s.cross_section = Area{100e-12};
    s.height = 10.0_um;
    s.pitch = 20.0_um;
    s.resistivity = kCopperResistivity;
    s.max_current_per_via = Current{0.010};
    s.max_power_fraction = 1.0;
    specs.push_back(s);
  }
  return specs;
}

/// Table I, built once on first use: every evaluation looks its levels up
/// through interconnect_spec, so a per-call rebuild (strings included)
/// would dominate that lookup.
const std::vector<VerticalInterconnectSpec>& table_rows() {
  static const std::vector<VerticalInterconnectSpec> rows = build_table_one();
  return rows;
}

}  // namespace

std::vector<VerticalInterconnectSpec> table_one() { return table_rows(); }

VerticalInterconnectSpec interconnect_spec(InterconnectLevel level) {
  for (const VerticalInterconnectSpec& s : table_rows())
    if (s.level == level) return s;
  throw InvalidArgument("unknown interconnect level");
}

}  // namespace vpd
