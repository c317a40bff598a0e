#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {
namespace {

using namespace vpd::literals;

GridMesh die_mesh(std::size_t n = 15, double sheet = 2e-3) {
  // 22.36 mm square die (500 mm^2) as in the paper.
  return GridMesh(22.36_mm, 22.36_mm, n, n, sheet);
}

TEST(Mesh, NodeIndexingAndPositions) {
  const GridMesh m(10.0_mm, 20.0_mm, 5, 9, 1e-3);
  EXPECT_EQ(m.node_count(), 45u);
  EXPECT_EQ(m.node(0, 0), 0u);
  EXPECT_EQ(m.node(4, 8), 44u);
  EXPECT_NEAR(as_mm(m.x_of(m.node(4, 0))), 10.0, 1e-9);
  EXPECT_NEAR(as_mm(m.y_of(m.node(0, 8))), 20.0, 1e-9);
  EXPECT_EQ(m.nearest_node(Length{0.0}, Length{0.0}), 0u);
  EXPECT_EQ(m.nearest_node(10.0_mm, 20.0_mm), 44u);
  EXPECT_THROW(m.node(5, 0), InvalidArgument);
}

TEST(Mesh, PatchAttachmentMatchesABruteForceScanOfEveryNode) {
  // The windowed scan must pick exactly the nodes, in row-major order,
  // that testing every node's x_of/y_of against the patch square picks,
  // with the same per-leg resistance; a patch that covers no node falls
  // back to the nearest one. Non-square pitches (nx != ny, width !=
  // height) keep the two axes honest.
  const GridMesh m(10.0_mm, 7.0_mm, 41, 29, 1e-3);
  const auto brute = [&m](double cx, double cy, double side) {
    const double half = 0.5 * side;
    std::vector<std::size_t> nodes;
    for (std::size_t i = 0; i < m.node_count(); ++i) {
      const double dx = m.x_of(i).value - cx;
      const double dy = m.y_of(i).value - cy;
      if (std::fabs(dx) <= half + 1e-12 && std::fabs(dy) <= half + 1e-12)
        nodes.push_back(i);
    }
    if (nodes.empty())
      nodes.push_back(m.nearest_node(Length{cx}, Length{cy}));
    return nodes;
  };
  const double pitch_x = 10e-3 / 40.0;
  struct Patch {
    const char* where;
    double cx, cy, side;
  };
  const Patch patches[] = {
      {"corner", 0.0, 0.0, 1.5e-3},
      {"far corner", 10e-3, 7e-3, 2.0e-3},
      {"bottom edge", 5e-3, 0.0, 1.5e-3},
      {"left edge", 0.0, 3.5e-3, 1.0e-3},
      {"right edge", 10e-3, 2.2e-3, 1.3e-3},
      {"interior", 4.1e-3, 3.3e-3, 2.7e-3},
      {"interior on nodes", 20 * pitch_x, 3.5e-3, 4 * pitch_x},
      {"smaller than a pitch, between nodes", 4.1e-3, 3.3e-3,
       0.3 * pitch_x},
      {"smaller than a pitch, on a node", 12 * pitch_x, 0.0, 0.5 * pitch_x},
      {"larger than the die", 5e-3, 3.5e-3, 30e-3},
  };
  for (const Patch& p : patches) {
    const std::vector<VrAttachment> legs =
        patch_attachment(m, Length{p.cx}, Length{p.cy}, Length{p.side},
                         1.0_V, 2.0_mOhm);
    const std::vector<std::size_t> want = brute(p.cx, p.cy, p.side);
    ASSERT_EQ(legs.size(), want.size()) << p.where;
    if (p.side >= pitch_x) {
      EXPECT_GT(legs.size(), 1u) << p.where;
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(legs[k].node, want[k]) << p.where << " leg " << k;
      EXPECT_EQ(legs[k].source_voltage.value, 1.0) << p.where;
      EXPECT_EQ(legs[k].series.value,
                (2.0_mOhm).value * static_cast<double>(want.size()))
          << p.where;
    }
  }
}

TEST(Mesh, LaplacianIsSymmetricWithZeroRowSums) {
  const GridMesh m = die_mesh(6);
  const CsrMatrix a(m.laplacian());
  EXPECT_TRUE(a.is_symmetric(1e-12));
  // Row sums are zero for a pure Laplacian.
  Vector ones(m.node_count(), 1.0);
  const Vector rs = a.multiply(ones);
  EXPECT_LT(norm_inf(rs), 1e-9);
}

TEST(Mesh, UniformSheetPointToPointResistance) {
  // Two opposite mid-edge nodes on a square sheet: effective resistance is
  // on the order of the sheet resistance (dimensional sanity).
  const GridMesh m(10.0_mm, 10.0_mm, 21, 21, 1e-3);
  std::vector<VrAttachment> vr{{m.node(0, 10), 1.0_V, Resistance{1e-9}}};
  Vector sinks(m.node_count(), 0.0);
  sinks[m.node(20, 10)] = 1.0;  // draw 1 A at the far edge
  const IrDropResult r = solve_irdrop(m, vr, sinks);
  const double drop = 1.0 - r.node_voltages[m.node(20, 10)];
  EXPECT_GT(drop, 0.5e-3);
  EXPECT_LT(drop, 5e-3);
}

TEST(IrDrop, CurrentConservation) {
  const GridMesh m = die_mesh();
  std::vector<VrAttachment> vrs;
  for (std::size_t i : {m.node(0, 0), m.node(14, 0), m.node(0, 14),
                        m.node(14, 14)})
    vrs.push_back({i, 1.0_V, 1.0_mOhm});
  const Vector sinks = uniform_sinks(m, Current{100.0});
  const IrDropResult r = solve_irdrop(m, vrs, sinks);
  double sourced = 0.0;
  for (double i : r.vr_currents) sourced += i;
  EXPECT_NEAR(sourced, 100.0, 1e-6);
}

TEST(IrDrop, SymmetricPlacementSharesEqually) {
  const GridMesh m = die_mesh(15);
  std::vector<VrAttachment> vrs;
  for (std::size_t i : {m.node(0, 0), m.node(14, 0), m.node(0, 14),
                        m.node(14, 14)})
    vrs.push_back({i, 1.0_V, 1.0_mOhm});
  const IrDropResult r = solve_irdrop(m, vrs, uniform_sinks(m, Current{80.0}));
  for (double i : r.vr_currents) EXPECT_NEAR(i, 20.0, 1e-6);
}

TEST(IrDrop, CenterVoltageDroopsWithPeripheralSources) {
  const GridMesh m = die_mesh(15);
  std::vector<VrAttachment> vrs;
  // Sources along the left edge only.
  for (std::size_t iy = 0; iy < 15; iy += 2)
    vrs.push_back({m.node(0, iy), 1.0_V, 1.0_mOhm});
  const IrDropResult r =
      solve_irdrop(m, vrs, uniform_sinks(m, Current{200.0}));
  // Right edge is farthest: lowest voltage there.
  EXPECT_LT(r.node_voltages[m.node(14, 7)], r.node_voltages[m.node(0, 7)]);
  EXPECT_NEAR(r.min_node_voltage.value,
              *std::min_element(r.node_voltages.begin(),
                                r.node_voltages.end()),
              1e-15);
  EXPECT_GT(r.grid_loss.value, 0.0);
}

TEST(IrDrop, EnergyBalance) {
  // Power delivered by sources = grid loss + series loss + power into
  // sinks (at their node voltages).
  const GridMesh m = die_mesh(11);
  std::vector<VrAttachment> vrs{{m.node(0, 5), 1.0_V, 2.0_mOhm},
                                {m.node(10, 5), 1.0_V, 2.0_mOhm}};
  const Vector sinks = uniform_sinks(m, Current{50.0});
  const IrDropResult r = solve_irdrop(m, vrs, sinks);
  double source_power = 0.0;
  for (std::size_t k = 0; k < vrs.size(); ++k)
    source_power += r.vr_currents[k] * vrs[k].source_voltage.value;
  double sink_power = 0.0;
  for (std::size_t i = 0; i < sinks.size(); ++i)
    sink_power += sinks[i] * r.node_voltages[i];
  EXPECT_NEAR(source_power,
              sink_power + r.grid_loss.value + r.series_loss.value,
              1e-6 * source_power);
}

TEST(IrDrop, PeripheryVsCenterSpreadMatchesPaperShape) {
  // The paper: A1 (periphery VRs) sees a moderate per-VR spread; A2
  // (distributed below die) spreads much wider, with center VRs carrying
  // multiples of the edge VRs... in our mesh it is the *edge* placement
  // that concentrates load on VRs nearest the bulk of the sinks. The
  // robust, physical property: spread(max/min) is larger when sources sit
  // asymmetrically relative to the load.
  const GridMesh m = die_mesh(21, 5e-3);
  // Periphery ring of 16 VRs.
  std::vector<VrAttachment> ring;
  for (std::size_t k = 0; k < 21; k += 5) {
    ring.push_back({m.node(k, 0), 1.0_V, 2.0_mOhm});
    ring.push_back({m.node(k, 20), 1.0_V, 2.0_mOhm});
    if (k != 0 && k != 20) {
      ring.push_back({m.node(0, k), 1.0_V, 2.0_mOhm});
      ring.push_back({m.node(20, k), 1.0_V, 2.0_mOhm});
    }
  }
  const IrDropResult r =
      solve_irdrop(m, ring, uniform_sinks(m, Current{1000.0}));
  const Summary s = r.vr_current_summary();
  EXPECT_GT(s.max / s.min, 1.1);  // corners vs mid-edge differ
  EXPECT_LT(s.max / s.min, 4.0);
}

TEST(IrDrop, Validation) {
  const GridMesh m = die_mesh(5);
  EXPECT_THROW(solve_irdrop(m, {}, uniform_sinks(m, 1.0_A)),
               InvalidArgument);
  std::vector<VrAttachment> vrs{{0, 1.0_V, 1.0_mOhm}};
  EXPECT_THROW(solve_irdrop(m, vrs, Vector(3, 0.0)), InvalidArgument);
  std::vector<VrAttachment> bad{{999, 1.0_V, 1.0_mOhm}};
  EXPECT_THROW(solve_irdrop(m, bad, uniform_sinks(m, 1.0_A)),
               InvalidArgument);
}

// Mesh-refinement property: grid loss converges as the mesh refines.
class MeshRefinementSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MeshRefinementSweep, GridLossStableUnderRefinement) {
  // VRs attach over fixed physical footprints (patch_attachment), so the
  // solution converges as the mesh refines — point attachments would show
  // log-divergent spreading resistance instead.
  const std::size_t n = GetParam();
  const GridMesh coarse = die_mesh(n);
  const GridMesh fine = die_mesh(2 * n - 1);
  auto run = [](const GridMesh& m) {
    std::vector<VrAttachment> vrs;
    for (const auto& leg :
         patch_attachment(m, 2.0_mm, 11.18_mm, 4.0_mm, 1.0_V, 1.0_mOhm))
      vrs.push_back(leg);
    for (const auto& leg :
         patch_attachment(m, 20.36_mm, 11.18_mm, 4.0_mm, 1.0_V, 1.0_mOhm))
      vrs.push_back(leg);
    return solve_irdrop(m, vrs, uniform_sinks(m, Current{100.0}))
        .grid_loss.value;
  };
  const double lc = run(coarse);
  const double lf = run(fine);
  EXPECT_NEAR(lf, lc, 0.25 * lc) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshRefinementSweep,
                         ::testing::Values<std::size_t>(9, 13, 17, 21));

// Current-conservation property: for any mesh size, solver tolerance, and
// start vector, the solved VR currents must sum to the total sink current
// (Kirchhoff at the aggregate level — the Laplacian has zero row sums, so
// whatever enters through the VR shunts must leave through the sinks).
class CurrentConservationSweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CurrentConservationSweep, VrCurrentsSumToSinkTotal) {
  const std::size_t n = GetParam();
  const GridMesh m = die_mesh(n);
  std::vector<VrAttachment> vrs;
  for (const auto& leg :
       patch_attachment(m, 4.0_mm, 4.0_mm, 3.0_mm, 1.0_V, 2.0_mOhm))
    vrs.push_back(leg);
  for (const auto& leg :
       patch_attachment(m, 18.0_mm, 18.0_mm, 3.0_mm, 1.0_V, 2.0_mOhm))
    vrs.push_back(leg);
  // Non-uniform load: uniform background plus a hotspot node.
  Vector sinks = uniform_sinks(m, Current{150.0});
  sinks[m.node(n / 2, n / 2)] += 50.0;

  for (const double rtol : {1e-8, 1e-12}) {
    for (const bool warm : {false, true}) {
      IrDropOptions opts;
      opts.relative_tolerance = rtol;
      if (warm) opts.warm_start_voltage = 1.0;
      const IrDropResult r = solve_irdrop(m, vrs, sinks, opts);
      EXPECT_GT(r.cg_iterations, 0u);
      double sourced = 0.0;
      for (double i : r.vr_currents) sourced += i;
      // The residual bound transfers to the current sum: tolerance-scaled,
      // not machine-epsilon, at the loose setting.
      EXPECT_NEAR(sourced, 200.0, (rtol == 1e-8 ? 1e-3 : 1e-6) * 200.0)
          << "n=" << n << " rtol=" << rtol << " warm=" << warm;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CurrentConservationSweep,
                         ::testing::Values<std::size_t>(9, 15, 23, 31));

TEST(Mesh, PerturbationScalesEdgeConductancesInsideRegion) {
  // 11x11 nodes on a 10 mm square: 1 mm grid spacing, nodes at integer mm.
  const GridMesh nominal(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  const MeshPerturbation damage{
      EdgeScaleRegion{2.0_mm, 2.0_mm, 5.0_mm, 5.0_mm, 0.25}};
  const GridMesh damaged(10.0_mm, 10.0_mm, 11, 11, 2e-3, damage);
  EXPECT_FALSE(nominal.perturbed());
  EXPECT_TRUE(damaged.perturbed());
  // x-edge (2,3)-(3,3): midpoint (2.5, 3) mm inside the region -> scaled.
  EXPECT_DOUBLE_EQ(damaged.edge_conductance_x_at(2, 3),
                   0.25 * nominal.edge_conductance_x_at(2, 3));
  // y-edge (3,2)-(3,3): midpoint (3, 2.5) mm inside -> scaled.
  EXPECT_DOUBLE_EQ(damaged.edge_conductance_y_at(3, 2),
                   0.25 * nominal.edge_conductance_y_at(3, 2));
  // Edges outside the region keep the nominal conductance exactly.
  EXPECT_EQ(damaged.edge_conductance_x_at(0, 0),
            nominal.edge_conductance_x_at(0, 0));
  EXPECT_EQ(damaged.edge_conductance_y_at(9, 9),
            nominal.edge_conductance_y_at(9, 9));
  // An empty perturbation assembles the nominal operator bit for bit.
  const GridMesh empty_pert(10.0_mm, 10.0_mm, 11, 11, 2e-3,
                            MeshPerturbation{});
  EXPECT_FALSE(empty_pert.perturbed());
  EXPECT_EQ(CsrMatrix(empty_pert.laplacian()).values(),
            CsrMatrix(nominal.laplacian()).values());
  // The damaged operator differs from the nominal one.
  EXPECT_NE(CsrMatrix(damaged.laplacian()).values(),
            CsrMatrix(nominal.laplacian()).values());
}

TEST(IrDrop, DamagedRegionDeepensDownstreamDroop) {
  // Sources along the left edge, a low-conductance band across the middle:
  // the far side of the damage must droop deeper than the nominal mesh.
  const auto solve_with = [](const MeshPerturbation& perturbation) {
    const GridMesh m(10.0_mm, 10.0_mm, 21, 21, 2e-3, perturbation);
    std::vector<VrAttachment> vrs;
    for (std::size_t iy = 0; iy < 21; iy += 2)
      vrs.push_back({m.node(0, iy), 1.0_V, 1.0_mOhm});
    return solve_irdrop(m, vrs, uniform_sinks(m, Current{200.0}));
  };
  const IrDropResult nominal = solve_with({});
  const IrDropResult damaged = solve_with(
      {EdgeScaleRegion{4.0_mm, 0.0_mm, 6.0_mm, 10.0_mm, 0.1}});
  EXPECT_LT(damaged.min_node_voltage.value, nominal.min_node_voltage.value);
  double sourced = 0.0;
  for (double i : damaged.vr_currents) sourced += i;
  EXPECT_NEAR(sourced, 200.0, 1e-6);  // conservation survives the damage
}

TEST(IrDrop, WarmStartCertifiesTrueResidualOnPerturbedOperator) {
  // The CG convergence criterion certifies the normwise backward error
  // ||b - A x||_2 <= rtol * (||A||_inf ||x||_2 + ||b||_2) against the
  // *stamped* operator. A conductance perturbation changes A; both the
  // warm-started and the cold solve must still certify the true residual
  // of the perturbed system, reconstructed here independently.
  const MeshPerturbation damage{
      EdgeScaleRegion{8.0_mm, 8.0_mm, 14.0_mm, 14.0_mm, 0.1}};
  const auto assembled =
      assemble_mesh(22.36_mm, 22.36_mm, 21, 21, 2e-3, damage);
  const GridMesh& m = assembled->mesh;
  std::vector<VrAttachment> legs;
  for (const auto& leg :
       patch_attachment(m, 2.0_mm, 11.0_mm, 3.0_mm, 1.0_V, 1.0_mOhm))
    legs.push_back(leg);
  for (const auto& leg :
       patch_attachment(m, 20.0_mm, 11.0_mm, 3.0_mm, 1.0_V, 1.0_mOhm))
    legs.push_back(leg);
  const Vector sinks = uniform_sinks(m, Current{100.0});
  const double rtol = 1e-12;

  // Reconstruct the stamped system exactly as the solver does.
  CsrMatrix a = assembled->laplacian;
  Vector b(m.node_count(), 0.0);
  for (std::size_t i = 0; i < sinks.size(); ++i) b[i] -= sinks[i];
  for (const VrAttachment& leg : legs) {
    const double g = 1.0 / leg.series.value;
    a.add_to_entry(leg.node, leg.node, g);
    b[leg.node] += g * leg.source_voltage.value;
  }
  const double a_inf = a.infinity_norm();
  const double b_norm = norm2(b);

  IrDropOptions cold_opts;
  cold_opts.relative_tolerance = rtol;
  IrDropOptions warm_opts = cold_opts;
  warm_opts.warm_start_voltage = 1.0;
  const IrDropResult cold = solve_irdrop(*assembled, legs, sinks, cold_opts);
  const IrDropResult warm = solve_irdrop(*assembled, legs, sinks, warm_opts);

  for (const IrDropResult* r : {&cold, &warm}) {
    Vector residual = a.multiply(r->node_voltages);
    for (std::size_t i = 0; i < residual.size(); ++i)
      residual[i] = b[i] - residual[i];
    EXPECT_LE(norm2(residual),
              rtol * (a_inf * norm2(r->node_voltages) + b_norm));
  }
  // Both starts land on the same certified solution, and the rail-voltage
  // warm start still pays off on the perturbed operator.
  double max_dev = 0.0;
  for (std::size_t i = 0; i < cold.node_voltages.size(); ++i)
    max_dev = std::max(
        max_dev, std::fabs(cold.node_voltages[i] - warm.node_voltages[i]));
  EXPECT_LT(max_dev, 1e-9);
  EXPECT_LE(warm.cg_iterations, cold.cg_iterations);
}

}  // namespace
}  // namespace vpd
