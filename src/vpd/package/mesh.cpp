#include "vpd/package/mesh.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"

namespace vpd {

GridMesh::GridMesh(Length width, Length height, std::size_t nx,
                   std::size_t ny, double sheet_ohms_per_square)
    : width_(width), height_(height), nx_(nx), ny_(ny),
      sheet_(sheet_ohms_per_square) {
  VPD_REQUIRE(width.value > 0.0 && height.value > 0.0,
              "mesh extent must be positive");
  VPD_REQUIRE(nx >= 2 && ny >= 2, "mesh needs at least 2x2 nodes, got ", nx,
              "x", ny);
  VPD_REQUIRE(sheet_ohms_per_square > 0.0,
              "sheet resistance must be positive");
  // Edge resistances: a horizontal edge spans dx = width/(nx-1) and carries
  // a strip of height dy = height/(ny-1)... strip width is the node
  // spacing in the transverse direction.
  const double dx = width.value / static_cast<double>(nx - 1);
  const double dy = height.value / static_cast<double>(ny - 1);
  gx_ = dy / (sheet_ * dx);  // conductance = width / (Rs * length)
  gy_ = dx / (sheet_ * dy);
}

GridMesh::GridMesh(Length width, Length height, std::size_t nx,
                   std::size_t ny, double sheet_ohms_per_square,
                   const MeshPerturbation& perturbation)
    : GridMesh(width, height, nx, ny, sheet_ohms_per_square) {
  if (perturbation.empty()) return;
  for (const EdgeScaleRegion& r : perturbation) {
    VPD_REQUIRE(r.x1.value >= r.x0.value && r.y1.value >= r.y0.value,
                "perturbation region has negative extent");
    VPD_REQUIRE(r.scale >= 0.0, "edge conductance scale must be >= 0, got ",
                r.scale);
  }
  scale_x_.assign((nx_ - 1) * ny_, 1.0);
  scale_y_.assign(nx_ * (ny_ - 1), 1.0);
  const auto inside = [](const EdgeScaleRegion& r, double x, double y) {
    return x >= r.x0.value - 1e-12 && x <= r.x1.value + 1e-12 &&
           y >= r.y0.value - 1e-12 && y <= r.y1.value + 1e-12;
  };
  for (const EdgeScaleRegion& r : perturbation) {
    for (std::size_t iy = 0; iy < ny_; ++iy) {
      for (std::size_t ix = 0; ix + 1 < nx_; ++ix) {
        const double mx =
            0.5 * (x_of(node(ix, iy)).value + x_of(node(ix + 1, iy)).value);
        const double my = y_of(node(ix, iy)).value;
        if (inside(r, mx, my)) scale_x_[iy * (nx_ - 1) + ix] *= r.scale;
      }
    }
    for (std::size_t iy = 0; iy + 1 < ny_; ++iy) {
      for (std::size_t ix = 0; ix < nx_; ++ix) {
        const double mx = x_of(node(ix, iy)).value;
        const double my =
            0.5 * (y_of(node(ix, iy)).value + y_of(node(ix, iy + 1)).value);
        if (inside(r, mx, my)) scale_y_[iy * nx_ + ix] *= r.scale;
      }
    }
  }
}

std::size_t GridMesh::node(std::size_t ix, std::size_t iy) const {
  VPD_REQUIRE(ix < nx_ && iy < ny_, "grid index (", ix, ",", iy,
              ") outside ", nx_, "x", ny_);
  return iy * nx_ + ix;
}

Length GridMesh::x_of(std::size_t node_index) const {
  VPD_REQUIRE(node_index < node_count(), "node index out of range");
  return Length{column_x(node_index % nx_)};
}

Length GridMesh::y_of(std::size_t node_index) const {
  VPD_REQUIRE(node_index < node_count(), "node index out of range");
  return Length{row_y(node_index / nx_)};
}

std::size_t GridMesh::nearest_node(Length x, Length y) const {
  const double fx = std::clamp(x.value / width_.value, 0.0, 1.0);
  const double fy = std::clamp(y.value / height_.value, 0.0, 1.0);
  const auto ix = static_cast<std::size_t>(
      std::lround(fx * static_cast<double>(nx_ - 1)));
  const auto iy = static_cast<std::size_t>(
      std::lround(fy * static_cast<double>(ny_ - 1)));
  return node(ix, iy);
}

double GridMesh::edge_conductance_x() const { return gx_; }
double GridMesh::edge_conductance_y() const { return gy_; }

double GridMesh::edge_conductance_x_at(std::size_t ix, std::size_t iy) const {
  VPD_REQUIRE(ix + 1 < nx_ && iy < ny_, "x-edge index (", ix, ",", iy,
              ") outside ", nx_, "x", ny_);
  return scale_x_.empty() ? gx_ : gx_ * scale_x_[iy * (nx_ - 1) + ix];
}

double GridMesh::edge_conductance_y_at(std::size_t ix, std::size_t iy) const {
  VPD_REQUIRE(ix < nx_ && iy + 1 < ny_, "y-edge index (", ix, ",", iy,
              ") outside ", nx_, "x", ny_);
  return scale_y_.empty() ? gy_ : gy_ * scale_y_[iy * nx_ + ix];
}

TripletList GridMesh::laplacian() const {
  TripletList t(node_count(), node_count());
  t.reserve(8 * node_count());  // 4 stamps per edge, ~2 edges per node
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const std::size_t a = node(ix, iy);
      if (ix + 1 < nx_) {
        const std::size_t b = node(ix + 1, iy);
        const double g = edge_conductance_x_at(ix, iy);
        t.add(a, a, g);
        t.add(b, b, g);
        t.add(a, b, -g);
        t.add(b, a, -g);
      }
      if (iy + 1 < ny_) {
        const std::size_t b = node(ix, iy + 1);
        const double g = edge_conductance_y_at(ix, iy);
        t.add(a, a, g);
        t.add(b, b, g);
        t.add(a, b, -g);
        t.add(b, a, -g);
      }
    }
  }
  return t;
}

Power GridMesh::edge_loss(const Vector& node_voltages) const {
  VPD_REQUIRE(node_voltages.size() == node_count(),
              "solution has ", node_voltages.size(), " entries, mesh has ",
              node_count(), " nodes");
  double loss = 0.0;
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const std::size_t a = node(ix, iy);
      if (ix + 1 < nx_) {
        const double dv = node_voltages[a] - node_voltages[node(ix + 1, iy)];
        loss += dv * dv * edge_conductance_x_at(ix, iy);
      }
      if (iy + 1 < ny_) {
        const double dv = node_voltages[a] - node_voltages[node(ix, iy + 1)];
        loss += dv * dv * edge_conductance_y_at(ix, iy);
      }
    }
  }
  return Power{loss};
}

}  // namespace vpd
