#include "vpd/common/multigrid.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"

namespace vpd {

namespace {

/// Coarsening keeps every node at even grid coordinates; a dimension of
/// size d shrinks to ceil(d / 2).
std::size_t coarse_dim(std::size_t d) { return (d + 1) / 2; }

/// Per-dimension bilinear interpolation stencil of a fine index: up to two
/// (coarse index, weight) pairs with dyadic weights. Boundary-clamped so
/// weights always sum to 1 (a fine node whose odd index has no right
/// coarse neighbour takes its left neighbour at full weight).
struct DimStencil {
  std::size_t idx[2];
  double w[2];
  std::size_t count;
};

DimStencil dim_stencil(std::size_t i, std::size_t coarse_count) {
  DimStencil s{};
  const std::size_t c = i / 2;
  if (i % 2 == 0) {
    s.idx[0] = c;
    s.w[0] = 1.0;
    s.count = 1;
  } else if (c + 1 < coarse_count) {
    s.idx[0] = c;
    s.w[0] = 0.5;
    s.idx[1] = c + 1;
    s.w[1] = 0.5;
    s.count = 2;
  } else {
    s.idx[0] = c;
    s.w[0] = 1.0;
    s.count = 1;
  }
  return s;
}

/// 5-point grid-Laplacian pattern of an nx x ny lattice (row-major
/// iy * nx + ix numbering — the GridMesh convention), ascending columns
/// per row. The finest operator a solve hands in is exactly this pattern
/// (VR shunt stamps only touch diagonals), and the symbolic Galerkin
/// chain below derives every coarse pattern from it.
void five_point_pattern(std::size_t nx, std::size_t ny,
                        std::vector<std::uint32_t>& offsets,
                        std::vector<std::uint32_t>& cols) {
  const std::size_t n = nx * ny;
  offsets.assign(n + 1, 0);
  cols.clear();
  cols.reserve(5 * n);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = iy * nx + ix;
      if (iy > 0) cols.push_back(static_cast<std::uint32_t>(i - nx));
      if (ix > 0) cols.push_back(static_cast<std::uint32_t>(i - 1));
      cols.push_back(static_cast<std::uint32_t>(i));
      if (ix + 1 < nx) cols.push_back(static_cast<std::uint32_t>(i + 1));
      if (iy + 1 < ny) cols.push_back(static_cast<std::uint32_t>(i + nx));
      offsets[i + 1] = static_cast<std::uint32_t>(cols.size());
    }
  }
}

/// Slot of each row's diagonal in a CSR pattern with every diagonal
/// structurally present (true of the 5-point stencil and, through it, of
/// every Galerkin pattern).
std::vector<std::uint32_t> diagonal_slots(
    const std::vector<std::uint32_t>& offsets,
    const std::vector<std::uint32_t>& cols) {
  const std::size_t n = offsets.size() - 1;
  std::vector<std::uint32_t> diag(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto first = cols.begin() + offsets[r];
    const auto last = cols.begin() + offsets[r + 1];
    diag[r] = static_cast<std::uint32_t>(
        std::lower_bound(first, last, static_cast<std::uint32_t>(r)) -
        cols.begin());
  }
  return diag;
}

}  // namespace

MgSymbolic::MgSymbolic(std::size_t nx, std::size_t ny) {
  VPD_REQUIRE(nx >= 2 && ny >= 2, "multigrid hierarchy needs an nx, ny >= 2 "
              "grid, got ", nx, "x", ny);
  auto levels = std::make_shared<std::vector<Level>>();
  // Level 0 carries the fine 5-point stencil; each pass below derives the
  // next level's pattern from the current one.
  levels->push_back({});
  levels->back().n = nx * ny;
  five_point_pattern(nx, ny, levels->back().a_offsets,
                     levels->back().a_cols);
  fine_digest_ =
      csr_pattern_digest(nx * ny, nx * ny, levels->back().a_offsets,
                         levels->back().a_cols);

  for (;;) {
    Level& level = levels->back();
    level.a_diag = diagonal_slots(level.a_offsets, level.a_cols);
    const std::size_t n = level.n;
    if (n <= kCoarsestNodes) break;  // coarsest level: solved directly

    const std::size_t cnx = coarse_dim(nx);
    const std::size_t cny = coarse_dim(ny);
    const std::size_t nc = cnx * cny;

    // Prolongation: tensor product of the per-dimension stencils. The y
    // stencil's outer position dominates the coarse index, so entries come
    // out in ascending column order.
    level.p_offsets.assign(n + 1, 0);
    level.p_cols.reserve(2 * n);
    level.p_vals.reserve(2 * n);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const DimStencil sy = dim_stencil(iy, cny);
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const DimStencil sx = dim_stencil(ix, cnx);
        const std::size_t i = iy * nx + ix;
        for (std::size_t a = 0; a < sy.count; ++a) {
          for (std::size_t b = 0; b < sx.count; ++b) {
            level.p_cols.push_back(
                static_cast<std::uint32_t>(sy.idx[a] * cnx + sx.idx[b]));
            level.p_vals.push_back(sy.w[a] * sx.w[b]);
          }
        }
        level.p_offsets[i + 1] = static_cast<std::uint32_t>(level.p_cols.size());
      }
    }

    // Restriction = P^T: counting sort by coarse column; row-major fine
    // traversal keeps fine rows ascending within each coarse node.
    level.r_offsets.assign(nc + 1, 0);
    for (std::uint32_t c : level.p_cols) ++level.r_offsets[c + 1];
    for (std::size_t c = 0; c < nc; ++c)
      level.r_offsets[c + 1] += level.r_offsets[c];
    level.r_rows.resize(level.p_cols.size());
    level.r_vals.resize(level.p_cols.size());
    {
      std::vector<std::uint32_t> cursor(level.r_offsets.begin(),
                                        level.r_offsets.end() - 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t k = level.p_offsets[i]; k < level.p_offsets[i + 1];
             ++k) {
          const std::uint32_t c = level.p_cols[k];
          level.r_rows[cursor[c]] = static_cast<std::uint32_t>(i);
          level.r_vals[cursor[c]] = level.p_vals[k];
          ++cursor[c];
        }
      }
    }

    // Symbolic Galerkin pattern of P^T A P, the next level's operator
    // pattern: coarse row I touches coarse column J whenever some fine
    // entry (i, j) has P(i, I) and P(j, J) nonzero. Marker-swept per
    // coarse row, columns emitted sorted.
    Level coarse;
    coarse.n = nc;
    coarse.a_offsets.assign(nc + 1, 0);
    std::vector<std::uint32_t> marker(nc, 0);
    std::vector<std::uint32_t> scratch;
    for (std::size_t I = 0; I < nc; ++I) {
      scratch.clear();
      const std::uint32_t stamp = static_cast<std::uint32_t>(I) + 1;
      for (std::uint32_t t = level.r_offsets[I]; t < level.r_offsets[I + 1];
           ++t) {
        const std::uint32_t i = level.r_rows[t];
        for (std::uint32_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
             ++k) {
          const std::uint32_t j = level.a_cols[k];
          for (std::uint32_t q = level.p_offsets[j];
               q < level.p_offsets[j + 1]; ++q) {
            const std::uint32_t J = level.p_cols[q];
            if (marker[J] != stamp) {
              marker[J] = stamp;
              scratch.push_back(J);
            }
          }
        }
      }
      std::sort(scratch.begin(), scratch.end());
      coarse.a_cols.insert(coarse.a_cols.end(), scratch.begin(),
                           scratch.end());
      coarse.a_offsets[I + 1] = static_cast<std::uint32_t>(coarse.a_cols.size());
    }
    levels->push_back(std::move(coarse));  // invalidates `level`
    nx = cnx;
    ny = cny;
  }
  levels_ = std::move(levels);
}

void MgPreconditioner::factor(const CsrMatrix& a, const MgSymbolic& shared) {
  VPD_REQUIRE(!shared.empty(), "MgPreconditioner::factor with an empty "
              "hierarchy");
  VPD_REQUIRE(shared.rows() == a.rows(), "multigrid hierarchy is for a ",
              shared.rows(), "-row grid, got ", a.rows());
  VPD_REQUIRE(a.rows() == a.cols(), "multigrid requires a square matrix");
  // The Galerkin chain below scatters only into the hierarchy's symbolic
  // patterns, which are exact for the grid's 5-point stencil; checking
  // the fine pattern once (by its compile-time digest) is what lets every
  // level skip per-term pattern bookkeeping.
  VPD_REQUIRE(a.pattern_digest() == shared.fine_digest_,
              "multigrid: matrix pattern is not the hierarchy's 5-point grid "
              "stencil (", a.rows(), " rows, ", a.nonzero_count(),
              " stored entries)");

  hierarchy_ = shared.levels_;
  const std::vector<SymLevel>& sym = *hierarchy_;
  const std::size_t depth = sym.size();
  levels_.resize(depth);  // keeps each level's storage across factors
  levels_.front().a_vals.assign(a.values().begin(), a.values().end());

  // Numeric Galerkin chain: A_{l+1}(I, J) = sum_i R(I, i) sum_j A_l(i, j)
  // P(j, J), accumulated into a dense scratch reset over the coarse row's
  // own pattern and gathered in pattern order, so the rounding order is a
  // fixed function of the hierarchy — deterministic.
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    const SymLevel& f = sym[l];
    const SymLevel& c = sym[l + 1];
    const double* fine_vals = levels_[l].a_vals.data();
    std::vector<double>& coarse_vals = levels_[l + 1].a_vals;
    coarse_vals.resize(c.a_cols.size());
    if (acc_.size() < c.n) acc_.resize(c.n);
    double* acc = acc_.data();
    for (std::size_t I = 0; I < c.n; ++I) {
      const std::uint32_t begin = c.a_offsets[I];
      const std::uint32_t end = c.a_offsets[I + 1];
      for (std::uint32_t s = begin; s < end; ++s) acc[c.a_cols[s]] = 0.0;
      for (std::uint32_t t = f.r_offsets[I]; t < f.r_offsets[I + 1]; ++t) {
        const std::uint32_t i = f.r_rows[t];
        const double w_i = f.r_vals[t];
        for (std::uint32_t k = f.a_offsets[i]; k < f.a_offsets[i + 1]; ++k) {
          const double contrib = w_i * fine_vals[k];
          const std::uint32_t j = f.a_cols[k];
          for (std::uint32_t q = f.p_offsets[j]; q < f.p_offsets[j + 1]; ++q)
            acc[f.p_cols[q]] += contrib * f.p_vals[q];
        }
      }
      for (std::uint32_t s = begin; s < end; ++s)
        coarse_vals[s] = acc[c.a_cols[s]];
    }
  }

  // Smoother scaling and V-cycle scratch. An SPD operator has a strictly
  // positive diagonal, and Galerkin products of SPD operators through
  // full-column-rank P stay SPD, so a non-positive pivot here means the
  // input was not SPD.
  for (std::size_t l = 0; l < depth; ++l) {
    const SymLevel& s = sym[l];
    Level& level = levels_[l];
    level.smooth.resize(s.n);
    for (std::size_t r = 0; r < s.n; ++r) {
      const double d = level.a_vals[s.a_diag[r]];
      VPD_CHECK_NUMERIC(d > 0.0, "multigrid level diagonal not positive at "
                        "row ", r, " (value ", d, "); system is not SPD");
      level.smooth[r] = kJacobiDamping * (1.0 / d);
    }
    if (l + 1 < depth) level.work.resize(s.n);
    if (l > 0) {
      level.rhs.resize(s.n);
      level.x.resize(s.n);
    }
  }

  // Dense Cholesky of the coarsest operator.
  {
    const SymLevel& bottom = sym.back();
    const std::vector<double>& vals = levels_.back().a_vals;
    coarse_n_ = bottom.n;
    coarse_chol_.assign(coarse_n_ * coarse_n_, 0.0);
    for (std::size_t r = 0; r < coarse_n_; ++r)
      for (std::uint32_t k = bottom.a_offsets[r]; k < bottom.a_offsets[r + 1];
           ++k)
        coarse_chol_[r * coarse_n_ + bottom.a_cols[k]] = vals[k];
    for (std::size_t j = 0; j < coarse_n_; ++j) {
      double d = coarse_chol_[j * coarse_n_ + j];
      for (std::size_t k = 0; k < j; ++k) {
        const double l_jk = coarse_chol_[j * coarse_n_ + k];
        d -= l_jk * l_jk;
      }
      VPD_CHECK_NUMERIC(d > 0.0, "multigrid coarse solve: non-positive "
                        "Cholesky pivot at row ", j, " (value ", d,
                        "); system is not SPD");
      const double l_jj = std::sqrt(d);
      coarse_chol_[j * coarse_n_ + j] = l_jj;
      for (std::size_t i = j + 1; i < coarse_n_; ++i) {
        double s = coarse_chol_[i * coarse_n_ + j];
        for (std::size_t k = 0; k < j; ++k)
          s -= coarse_chol_[i * coarse_n_ + k] *
               coarse_chol_[j * coarse_n_ + k];
        coarse_chol_[i * coarse_n_ + j] = s / l_jj;
      }
    }
  }
}

void MgPreconditioner::cycle(std::size_t l, const double* rhs, double* out) {
  const SymLevel& sym = (*hierarchy_)[l];
  Level& level = levels_[l];
  const std::size_t n = sym.n;

  if (l + 1 == levels_.size()) {
    // Coarsest: direct dense Cholesky solve, out = (L L^T)^{-1} rhs.
    const double* chol = coarse_chol_.data();
    for (std::size_t i = 0; i < n; ++i) {
      double s = rhs[i];
      for (std::size_t k = 0; k < i; ++k) s -= chol[i * n + k] * out[k];
      out[i] = s / chol[i * n + i];
    }
    for (std::size_t i = n; i-- > 0;) {
      double s = out[i];
      for (std::size_t k = i + 1; k < n; ++k) s -= chol[k * n + i] * out[k];
      out[i] = s / chol[i * n + i];
    }
    return;
  }

  const std::uint32_t* a_offsets = sym.a_offsets.data();
  const std::uint32_t* a_cols = sym.a_cols.data();
  const double* a_vals = level.a_vals.data();
  const double* smooth = level.smooth.data();
  double* work = level.work.data();
  // Pre-smooth (one damped-Jacobi sweep from a zero initial iterate,
  // x = omega D^{-1} rhs) fused into the residual work = rhs - A x: each
  // x term is recomputed in the same expression, so x is never stored.
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::uint32_t k = a_offsets[i]; k < a_offsets[i + 1]; ++k) {
      const std::uint32_t j = a_cols[k];
      s += a_vals[k] * (smooth[j] * rhs[j]);
    }
    work[i] = rhs[i] - s;
  }

  // Restrict into the coarse right-hand side and recurse.
  Level& coarse = levels_[l + 1];
  {
    const std::uint32_t* r_offsets = sym.r_offsets.data();
    const std::uint32_t* r_rows = sym.r_rows.data();
    const double* r_vals = sym.r_vals.data();
    double* coarse_rhs = coarse.rhs.data();
    const std::size_t nc = sym.r_offsets.size() - 1;
    for (std::size_t c = 0; c < nc; ++c) {
      double s = 0.0;
      for (std::uint32_t t = r_offsets[c]; t < r_offsets[c + 1]; ++t)
        s += r_vals[t] * work[r_rows[t]];
      coarse_rhs[c] = s;
    }
  }
  cycle(l + 1, coarse.rhs.data(), coarse.x.data());

  // Prolongate the coarse correction onto the pre-smoothed iterate; the
  // residual is spent, so work now holds the iterate.
  {
    const std::uint32_t* p_offsets = sym.p_offsets.data();
    const std::uint32_t* p_cols = sym.p_cols.data();
    const double* p_vals = sym.p_vals.data();
    const double* xc = coarse.x.data();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::uint32_t k = p_offsets[i]; k < p_offsets[i + 1]; ++k)
        s += p_vals[k] * xc[p_cols[k]];
      work[i] = smooth[i] * rhs[i] + s;
    }
  }

  // Post-smooth (the adjoint sweep, x + omega D^{-1} (rhs - A x)) in one
  // pass into out: Jacobi reads only the old iterate.
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::uint32_t k = a_offsets[i]; k < a_offsets[i + 1]; ++k)
      s += a_vals[k] * work[a_cols[k]];
    out[i] = work[i] + smooth[i] * (rhs[i] - s);
  }
}

void MgPreconditioner::apply(const Vector& r, Vector& z) {
  VPD_REQUIRE(!empty(), "MgPreconditioner::apply before factor()");
  const std::size_t n = hierarchy_->front().n;
  VPD_REQUIRE(r.size() == n, "preconditioner apply: vector has ", r.size(),
              " entries, expected ", n);
  z.resize(n);
  cycle(0, r.data(), z.data());
}

}  // namespace vpd
