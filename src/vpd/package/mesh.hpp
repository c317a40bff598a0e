// 2-D resistive grid model of an on-die / on-interposer power rail. Nodes
// sit on a regular nx x ny lattice over the die footprint; horizontal and
// vertical edges carry the sheet conductance. Used to compute the lateral
// distribution loss on the 1 V net and the per-VR load sharing that the
// paper reports for architectures A1 (16-27 A per VR) and A2 (10-93 A).
#pragma once

#include <cstddef>
#include <vector>

#include "vpd/common/sparse.hpp"
#include "vpd/common/units.hpp"

namespace vpd {

/// Scales the conductance of every mesh edge whose midpoint falls inside
/// the axis-aligned rectangle [x0, x1] x [y0, y1]. Models localized
/// distribution-metal degradation: a cracked or delaminated region of the
/// power plane (scale < 1), a void (scale = 0: fully severed copper —
/// severed edges stay in the sparsity pattern as stored zeros, and nodes
/// cut off from every VR are grounded out of the solve and report 0 V, a
/// dead rail with finite metrics), or a repaired/thickened region
/// (scale > 1).
struct EdgeScaleRegion {
  Length x0{};
  Length y0{};
  Length x1{};
  Length y1{};
  double scale{1.0};
};

/// A conductance perturbation of the package mesh: the composition of the
/// listed regions, applied in order (overlapping regions multiply).
/// Empty = the nominal, uniform sheet.
using MeshPerturbation = std::vector<EdgeScaleRegion>;

class GridMesh {
 public:
  /// A `width` x `height` sheet discretized into nx x ny nodes with sheet
  /// resistance `sheet_ohms_per_square` [Ohm/sq]. nx, ny >= 2.
  GridMesh(Length width, Length height, std::size_t nx, std::size_t ny,
           double sheet_ohms_per_square);

  /// Same sheet with a conductance perturbation applied. An empty
  /// perturbation is bit-identical to the unperturbed constructor.
  GridMesh(Length width, Length height, std::size_t nx, std::size_t ny,
           double sheet_ohms_per_square,
           const MeshPerturbation& perturbation);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t node_count() const { return nx_ * ny_; }
  Length width() const { return width_; }
  Length height() const { return height_; }
  double sheet_resistance() const { return sheet_; }

  /// Node index at grid coordinates (ix, iy).
  std::size_t node(std::size_t ix, std::size_t iy) const;

  /// Physical position of a node (cell centers, origin at the die corner).
  Length x_of(std::size_t node_index) const;
  Length y_of(std::size_t node_index) const;
  /// x of grid column ix and y of grid row iy, in meters: the expressions
  /// x_of/y_of evaluate, inline for scans over a window of the grid.
  double column_x(std::size_t ix) const {
    return width_.value * static_cast<double>(ix) /
           static_cast<double>(nx_ - 1);
  }
  double row_y(std::size_t iy) const {
    return height_.value * static_cast<double>(iy) /
           static_cast<double>(ny_ - 1);
  }

  /// Nearest node to a physical position.
  std::size_t nearest_node(Length x, Length y) const;

  /// Conductance of one horizontal/vertical edge (nominal, before any
  /// perturbation scaling).
  double edge_conductance_x() const;
  double edge_conductance_y() const;

  /// True if a non-trivial conductance perturbation is in effect.
  bool perturbed() const { return !scale_x_.empty(); }

  /// Conductance of the edge from (ix, iy) to (ix+1, iy) / (ix, iy+1),
  /// perturbation included.
  double edge_conductance_x_at(std::size_t ix, std::size_t iy) const;
  double edge_conductance_y_at(std::size_t ix, std::size_t iy) const;

  /// Grid Laplacian (no shunts): SPD after at least one shunt is added.
  TripletList laplacian() const;

  /// I^2 R loss summed over all edges for a given node-voltage solution.
  Power edge_loss(const Vector& node_voltages) const;

 private:
  Length width_;
  Length height_;
  std::size_t nx_;
  std::size_t ny_;
  double sheet_;
  double gx_;  // per-edge conductance, x-direction
  double gy_;
  // Per-edge scale factors; empty when the mesh is unperturbed (the
  // common case keeps the nominal uniform-conductance fast path).
  std::vector<double> scale_x_;  // (nx-1) * ny, row-major by iy
  std::vector<double> scale_y_;  // nx * (ny-1), row-major by iy
};

}  // namespace vpd
