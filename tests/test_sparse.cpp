#include "vpd/common/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>

#include "vpd/common/error.hpp"
#include "vpd/common/matrix.hpp"
#include "vpd/common/rng.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {
namespace {

TEST(Triplets, DuplicatesSumOnCompile) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.5);
  t.add(1, 1, 1.0);
  const CsrMatrix m(t);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 1.0);
  EXPECT_EQ(m.nonzero_count(), 2u);
}

TEST(Triplets, ZeroEntriesStayStructural) {
  // Exact-zero entries (a fully severed mesh edge) must stay in the
  // pattern: in-place stamping and cached symbolic factorizations key off
  // the nominal structure, so a scale=0 fault may not change it.
  TripletList t(2, 2);
  t.add(0, 0, 0.0);
  t.add(0, 1, 1.0);
  t.add(0, 1, -1.0);  // cancels to zero
  CsrMatrix m(t);
  EXPECT_EQ(m.nonzero_count(), 2u);  // stored zeros, both slots kept
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  // The retained slot accepts in-place stamps, exactly like its nominal
  // counterpart.
  m.add_to_entry(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
}

TEST(Triplets, CompiledMeshLaplacianHoldsNoDuplicateSlack) {
  // A mesh Laplacian stamps four triplets per edge, which merge to ~5
  // entries per row: the compiled arrays must hold the merged count, not
  // the triplet count.
  const GridMesh mesh(Length{10e-3}, Length{10e-3}, 41, 41, 2e-3);
  const TripletList triplets = mesh.laplacian();
  const CsrMatrix m(triplets);
  EXPECT_LT(m.nonzero_count(), triplets.entry_count());
  EXPECT_EQ(m.values().capacity(), m.values().size());
  EXPECT_EQ(m.col_indices().capacity(), m.col_indices().size());

  // Same pattern and bits as summing each (row, col) in insertion order.
  std::map<std::pair<std::size_t, std::size_t>, double> merged;
  for (const TripletList::Entry& e : triplets.entries()) {
    merged[{e.row, e.col}] += e.value;
  }
  ASSERT_EQ(m.nonzero_count(), merged.size());
  std::size_t k = 0;
  for (const auto& [at, value] : merged) {
    ASSERT_LT(k, m.row_offsets()[at.first + 1]);
    EXPECT_GE(k, m.row_offsets()[at.first]);
    EXPECT_EQ(m.col_indices()[k], at.second);
    EXPECT_EQ(m.values()[k], value);
    ++k;
  }
}

TEST(Triplets, OutOfRangeThrows) {
  TripletList t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), InvalidArgument);
  EXPECT_THROW(t.add(0, 2, 1.0), InvalidArgument);
}

TEST(Csr, MultiplyMatchesDense) {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(0, 2, -1.0);
  t.add(1, 1, 3.0);
  t.add(2, 0, -1.0);
  t.add(2, 2, 2.0);
  const CsrMatrix m(t);
  const Vector x{1.0, 2.0, 3.0};
  const Vector y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 5.0);
}

TEST(Csr, MultiplySizeMismatchThrows) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  const CsrMatrix m(t);
  EXPECT_THROW(m.multiply(Vector{1.0, 2.0, 3.0}), InvalidArgument);
}

TEST(Csr, DiagonalExtraction) {
  TripletList t(3, 3);
  t.add(0, 0, 4.0);
  t.add(2, 2, 5.0);
  t.add(0, 1, 1.0);
  const CsrMatrix m(t);
  const Vector d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Csr, SymmetryDetection) {
  TripletList sym(2, 2);
  sym.add(0, 0, 2.0);
  sym.add(0, 1, -1.0);
  sym.add(1, 0, -1.0);
  sym.add(1, 1, 2.0);
  EXPECT_TRUE(CsrMatrix(sym).is_symmetric());

  TripletList asym(2, 2);
  asym.add(0, 1, 1.0);
  EXPECT_FALSE(CsrMatrix(asym).is_symmetric());
}

// Builds the standard 1-D Poisson (tridiagonal 2,-1) SPD matrix.
CsrMatrix poisson1d(std::size_t n) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0);
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
      t.add(i + 1, i, -1.0);
    }
  }
  return CsrMatrix(t);
}

TEST(Cg, SolvesPoissonSystem) {
  const std::size_t n = 50;
  const CsrMatrix a = poisson1d(n);
  Vector b(n, 1.0);
  const CgResult r = solve_cg(a, b);
  EXPECT_TRUE(r.converged);
  const Vector residual = a.multiply(r.x) - b;
  EXPECT_LT(norm2(residual), 1e-8 * norm2(b));
}

TEST(Cg, MatchesDenseSolution) {
  const std::size_t n = 20;
  const CsrMatrix a = poisson1d(n);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) dense(i, j) = a.at(i, j);
  Vector b(n);
  Rng rng(7);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x_dense = solve_dense(dense, b);
  const CgResult r = solve_cg(a, b);
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(r.x[i], x_dense[i], 1e-7);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = poisson1d(10);
  const CgResult r = solve_cg(a, Vector(10, 0.0));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_DOUBLE_EQ(norm2(r.x), 0.0);
}

TEST(Cg, NonPositiveDiagonalThrows) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CsrMatrix a(t);
  EXPECT_THROW(solve_cg(a, Vector{1.0, 1.0}), NumericalError);
}

TEST(Cg, IndefiniteMatrixDetected) {
  // Positive diagonal but indefinite: [[1, 2], [2, 1]].
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 2.0);
  t.add(1, 0, 2.0);
  t.add(1, 1, 1.0);
  const CsrMatrix a(t);
  EXPECT_THROW(solve_cg(a, Vector{1.0, -1.0}), NumericalError);
}

TEST(Cg, ShapeMismatchThrows) {
  const CsrMatrix a = poisson1d(4);
  EXPECT_THROW(solve_cg(a, Vector(5, 1.0)), InvalidArgument);
}

TEST(Cg, RespectsIterationCap) {
  const CsrMatrix a = poisson1d(200);
  Vector b(200, 1.0);
  CgOptions opts;
  opts.max_iterations = 3;
  const CgResult r = solve_cg(a, b, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_GT(r.residual_norm, 0.0);
}

TEST(Csr, AddToEntryUpdatesInPlace) {
  const CsrMatrix base = poisson1d(4);
  CsrMatrix m = base;
  m.add_to_entry(1, 1, 2.5);   // diagonal shunt stamp
  m.add_to_entry(0, 1, -0.5);  // off-diagonal update
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.5);
  // The sparsity pattern is fixed: structural zeros cannot be created.
  EXPECT_THROW(m.add_to_entry(0, 3, 1.0), InvalidArgument);
  EXPECT_THROW(m.add_to_entry(4, 0, 1.0), InvalidArgument);
}

TEST(Csr, InfinityNormIsMaxAbsRowSum) {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(0, 2, -3.0);  // row 0: |2| + |-3| = 5
  t.add(1, 1, 4.0);   // row 1: 4
  t.add(2, 2, 1.0);   // row 2: 1
  EXPECT_DOUBLE_EQ(CsrMatrix(t).infinity_norm(), 5.0);
  EXPECT_DOUBLE_EQ(poisson1d(5).infinity_norm(), 4.0);  // 1+2+1 interior
}

TEST(Cg, WarmStartCutsIterationsWithoutChangingTheAnswer) {
  const std::size_t n = 100;
  const CsrMatrix a = poisson1d(n);
  Vector b(n, 1.0);
  const CgResult cold = solve_cg(a, b);
  ASSERT_TRUE(cold.converged);

  CgOptions warm_opts;
  warm_opts.x0 = cold.x;  // previous solution: residual starts tiny
  const CgResult warm = solve_cg(a, b, warm_opts);
  ASSERT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-6 * std::abs(cold.x[i]));

  CgOptions bad;
  bad.x0 = Vector(n + 1, 0.0);
  EXPECT_THROW(solve_cg(a, b, bad), InvalidArgument);
}

TEST(Cg, StiffSystemConvergesViaBackwardError) {
  // Conductances spanning nine decades (die sheet vs via shunts in the
  // stacked-mesh model). rtol * ||b|| sits below the rounding floor
  // eps * ||A|| * ||x||, so a pure relative-residual criterion can never
  // fire; the normwise backward-error criterion is attainable and honest.
  const std::size_t n = 40;
  TripletList t(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double g = (i % 2 == 0) ? 1e3 : 1e12;  // branch conductance
    t.add(i, i, g);
    t.add(i + 1, i + 1, g);
    t.add(i, i + 1, -g);
    t.add(i + 1, i, -g);
  }
  t.add(0, 0, 1e12);  // stiff ground shunt makes the Laplacian SPD
  const CsrMatrix a(t);
  Vector b(n, 1.0);
  CgOptions opts;
  opts.relative_tolerance = 1e-12;
  const CgResult r = solve_cg(a, b, opts);
  ASSERT_TRUE(r.converged);
  // The reported residual satisfies the backward-error bound.
  const double eta =
      r.residual_norm / (a.infinity_norm() * norm2(r.x) + norm2(b));
  EXPECT_LE(eta, 1e-12);
  // And the true residual matches what the solver reported.
  EXPECT_NEAR(norm2(a.multiply(r.x) - b), r.residual_norm,
              1e-6 * r.residual_norm + 1e-300);
}

// Property sweep: grounded resistive-grid Laplacians of varying size are
// SPD; CG must converge and satisfy current conservation (A x = b).
class CgGridSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgGridSweep, ConvergesOnGroundedGridLaplacian) {
  const std::size_t side = GetParam();
  const std::size_t n = side * side;
  TripletList t(n, n);
  auto id = [side](std::size_t r, std::size_t c) { return r * side + c; };
  Rng rng(1234 + side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        const double g = rng.uniform(0.5, 2.0);
        t.add(id(r, c), id(r, c), g);
        t.add(id(r, c + 1), id(r, c + 1), g);
        t.add(id(r, c), id(r, c + 1), -g);
        t.add(id(r, c + 1), id(r, c), -g);
      }
      if (r + 1 < side) {
        const double g = rng.uniform(0.5, 2.0);
        t.add(id(r, c), id(r, c), g);
        t.add(id(r + 1, c), id(r + 1, c), g);
        t.add(id(r, c), id(r + 1, c), -g);
        t.add(id(r + 1, c), id(r, c), -g);
      }
    }
  }
  t.add(0, 0, 1.0);  // ground shunt makes the Laplacian nonsingular
  const CsrMatrix a(t);
  ASSERT_TRUE(a.is_symmetric(1e-12));

  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const CgResult result = solve_cg(a, b);
  ASSERT_TRUE(result.converged) << "side=" << side;
  EXPECT_LT(norm2(a.multiply(result.x) - b), 1e-8 * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(GridSizes, CgGridSweep,
                         ::testing::Values<std::size_t>(2, 4, 8, 16, 32));

}  // namespace
}  // namespace vpd
