// Geometric multigrid preconditioner for regular 2-D mesh Laplacians.
//
// The PDN distribution operators are grid Laplacians (plus diagonal VR
// shunt stamps) on a regular nx x ny lattice, so geometric multigrid is
// nearly free to build: standard coarsening halves each grid dimension,
// prolongation is bilinear interpolation with dyadic weights, restriction
// is its transpose, and coarse operators are Galerkin triple products
// P^T A P. One V(1,1)-cycle with damped-Jacobi smoothing and a dense
// Cholesky coarsest solve is an SPD preconditioner (the damped-Jacobi
// smoother is A-self-adjoint and its damped spectrum stays inside (0, 2)
// on diagonally dominant Laplacians), so CG iteration counts become
// near-independent of mesh size where IC(0) counts grow with refinement.
//
// Mirrors the IC(0) split in sparse.hpp: MgSymbolic is the geometry-only
// analysis (level dimensions, operator patterns, transfer operators)
// cached alongside a mesh like IcSymbolic; MgPreconditioner is the numeric
// setup (Galerkin values, smoother diagonals, coarsest factor) that lives
// in a CgWorkspace and is reused across value-identical solves. The
// geometry is immutable and shared by ownership: a factor holds the
// hierarchy it was built on, so no per-factor copy of it is ever made.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "vpd/common/sparse.hpp"

namespace vpd {

/// Geometry-only multigrid hierarchy for an nx x ny grid operator:
/// per-level grid dimensions and operator patterns (the fine 5-point
/// stencil, then each symbolic Galerkin coarse pattern), bilinear
/// prolongation stencils and the restriction adjacency (the transpose
/// view). Depends only on (nx, ny) — never on matrix values — so one
/// MgSymbolic serves every operator stamped on that mesh and is cached
/// alongside the Laplacian exactly like IcSymbolic. The levels are
/// immutable once built; copies of an MgSymbolic, and every
/// MgPreconditioner factored over it, share them.
class MgSymbolic {
 public:
  /// Coarsening stops once a level has at most this many nodes (the
  /// remaining system is solved by a direct dense factorization).
  static constexpr std::size_t kCoarsestNodes = 64;

  MgSymbolic() = default;
  /// Builds the hierarchy for an nx x ny grid (nx, ny >= 2, row-major
  /// node numbering ix + iy * nx — the GridMesh convention).
  MgSymbolic(std::size_t nx, std::size_t ny);

  bool empty() const { return levels_ == nullptr; }
  /// Fine-grid unknowns (nx * ny); 0 when empty.
  std::size_t rows() const { return empty() ? 0 : levels_->front().n; }
  /// Number of grid levels, the fine grid included. At least 1.
  std::size_t level_count() const { return empty() ? 0 : levels_->size(); }

 private:
  friend class MgPreconditioner;

  /// One level of the hierarchy. Level 0 is the fine grid; the transfer
  /// members describe the transfer to level l+1 and are empty on the
  /// coarsest level.
  struct Level {
    std::size_t n{0};  // unknowns (nx * ny of this level's grid)
    // Operator pattern at this level, CSR with ascending columns: the
    // 5-point stencil on level 0, the symbolic Galerkin pattern of
    // P^T A P on deeper levels. a_diag names each row's diagonal slot.
    std::vector<std::uint32_t> a_offsets;  // n+1
    std::vector<std::uint32_t> a_cols;
    std::vector<std::uint32_t> a_diag;
    // Prolongation P (rows = this level's nodes, cols = coarse nodes),
    // CSR with dyadic weights {1, 1/2, 1/4}: each row interpolates a fine
    // node from its <= 4 surrounding coarse nodes (clamped at the
    // boundary so rows always sum to 1).
    std::vector<std::uint32_t> p_offsets;  // n+1
    std::vector<std::uint32_t> p_cols;
    std::vector<double> p_vals;
    // Transpose view (restriction): coarse node I gathers the fine nodes
    // listed in [r_offsets[I], r_offsets[I+1]), fine rows ascending.
    std::vector<std::uint32_t> r_offsets;  // coarse nodes+1
    std::vector<std::uint32_t> r_rows;
    std::vector<double> r_vals;
  };

  std::shared_ptr<const std::vector<Level>> levels_;
  // CsrMatrix::pattern_digest of the fine 5-point pattern: factor() takes
  // only operators whose compiled pattern is exactly this one.
  std::uint64_t fine_digest_{0};
};

/// Numeric multigrid setup over an MgSymbolic hierarchy. factor()
/// computes the Galerkin coarse values, the damped-Jacobi smoother
/// diagonals and the dense Cholesky factor of the coarsest operator;
/// apply() runs one V(1,1)-cycle, z = M^{-1} r. Both are allocation-free
/// once a factor of the same grid has sized the storage. Self-contained
/// after factor() like IcPreconditioner: apply reads only the values
/// owned by this object and the hierarchy it holds a share of, so a setup
/// cached in a CgWorkspace survives the MgSymbolic's owner (e.g. a mesh
/// cache entry).
class MgPreconditioner {
 public:
  /// Damped-Jacobi relaxation weight (the classic 4/5 for 2-D 5-point
  /// stencils; keeps omega * lambda(D^{-1} A) < 2 on any diagonally
  /// dominant SPD operator, which is what makes the V-cycle SPD).
  static constexpr double kJacobiDamping = 0.8;

  /// Factors `a` over the hierarchy `shared`, which must describe a's grid:
  /// shared.rows() == a.rows(), and a's compiled pattern must be exactly
  /// the grid's 5-point stencil (every mesh operator's is: the CSR compile
  /// keeps severed edges as stored zeros and VR shunts stamp diagonals).
  /// Throws InvalidArgument otherwise. Holds a share of the hierarchy, so
  /// `shared` may be destroyed afterwards.
  void factor(const CsrMatrix& a, const MgSymbolic& shared);

  /// z = M^{-1} r: one V(1,1)-cycle. Requires a prior factor(); z is
  /// resized to fit.
  void apply(const Vector& r, Vector& z);

  bool empty() const { return levels_.empty(); }
  std::size_t level_count() const { return levels_.size(); }

 private:
  using SymLevel = MgSymbolic::Level;

  /// Numeric state of one level, parallel to the hierarchy's levels.
  struct Level {
    std::vector<double> a_vals;  // operator values in the level's pattern
    // Smoother scaling omega / diag(A_l), the damped-Jacobi step size.
    std::vector<double> smooth;
    // V-cycle scratch: the residual, reused for the prolongated iterate
    // once restricted; on coarse levels also the restricted right-hand
    // side and the level's correction.
    Vector work, rhs, x;
  };

  /// One V-cycle on level l: out = M_l^{-1} rhs. On level 0 rhs and out
  /// are the caller's vectors; below, the level's own rhs and x.
  void cycle(std::size_t l, const double* rhs, double* out);

  std::shared_ptr<const std::vector<SymLevel>> hierarchy_;
  std::vector<Level> levels_;
  std::vector<double> acc_;  // Galerkin row accumulator, coarse-level sized
  // Dense lower-triangular Cholesky factor of the coarsest operator,
  // row-major n x n (strict upper ignored).
  std::vector<double> coarse_chol_;
  std::size_t coarse_n_{0};
};

}  // namespace vpd
