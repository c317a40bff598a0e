#include "vpd/package/mesh_cache.hpp"

#include <cstring>
#include <exception>
#include <tuple>

#include "vpd/common/error.hpp"

namespace vpd {

namespace {

/// Compiles the (perturbed) grid Laplacian and attaches the pattern bundle
/// `pattern_for` returns for it: the one assembly routine behind both the
/// uncached and the cached path.
template <class PatternFor>
std::shared_ptr<const AssembledMesh> assemble(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation,
    PatternFor pattern_for) {
  GridMesh mesh(width, height, nx, ny, sheet_ohms, perturbation);
  CsrMatrix laplacian(mesh.laplacian());
  std::shared_ptr<const MeshPattern> pattern = pattern_for(laplacian);
  VPD_REQUIRE(pattern->digest == laplacian.pattern_digest(),
              "mesh pattern bundle does not match the ", nx, "x", ny,
              " Laplacian");
  return std::make_shared<const AssembledMesh>(AssembledMesh{
      std::move(mesh), std::move(laplacian), std::move(pattern)});
}

/// Builds the pattern bundle of `laplacian`, an nx x ny grid Laplacian.
std::shared_ptr<const MeshPattern> build_mesh_pattern(
    const CsrMatrix& laplacian, std::size_t nx, std::size_t ny) {
  // The hierarchy depends only on (nx, ny); the Galerkin values are
  // recomputed from the stamped operator at factor time.
  return std::make_shared<const MeshPattern>(
      MeshPattern{laplacian.pattern_digest(), IcSymbolic(laplacian),
                  MgSymbolic(nx, ny)});
}

}  // namespace

std::shared_ptr<const AssembledMesh> assemble_mesh(Length width,
                                                   Length height,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   double sheet_ohms) {
  return assemble_mesh(width, height, nx, ny, sheet_ohms, MeshPerturbation{});
}

std::shared_ptr<const AssembledMesh> assemble_mesh(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation) {
  return assemble(width, height, nx, ny, sheet_ohms, perturbation,
                  [nx, ny](const CsrMatrix& laplacian) {
                    return build_mesh_pattern(laplacian, nx, ny);
                  });
}

std::uint64_t mesh_perturbation_digest(const MeshPerturbation& perturbation) {
  if (perturbation.empty()) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  for (const EdgeScaleRegion& r : perturbation) {
    mix(r.x0.value);
    mix(r.y0.value);
    mix(r.x1.value);
    mix(r.y1.value);
    mix(r.scale);
  }
  // 0 is reserved for the nominal mesh: a non-empty perturbation must
  // never key onto the unperturbed operator.
  return h != 0 ? h : 1;
}

bool MeshSolveCache::Key::operator<(const Key& o) const {
  return std::tie(width, height, nx, ny, sheet, perturbation_digest) <
         std::tie(o.width, o.height, o.nx, o.ny, o.sheet,
                  o.perturbation_digest);
}

namespace {

/// Returns `key`'s value from `map`, building it on first use. Only the
/// slot lookup (and the hit/miss count, when `stats` is given) runs under
/// `mutex`: the caller that inserts the slot runs `build` with the mutex
/// released and publishes the result, every other caller waits on the
/// slot. A throwing build drops the slot from `map` — no value is cached,
/// so a later request retries — and hands the exception to every waiter
/// before rethrowing it here.
template <class Map, class Build>
auto find_or_build(std::mutex& mutex, Map& map,
                   const typename Map::key_type& key,
                   MeshSolveCache::Stats* stats, Build build) {
  typename Map::mapped_type slot;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = map.try_emplace(key);
    if (inserted)
      it->second =
          std::make_shared<typename Map::mapped_type::element_type>();
    slot = it->second;
    owner = inserted;
    if (stats != nullptr) ++(owner ? stats->misses : stats->hits);
  }
  if (!owner) return slot->wait();
  try {
    auto value = build();
    slot->finish(value, nullptr);
    return value;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto it = map.find(key);
      if (it != map.end() && it->second == slot) map.erase(it);
    }
    slot->finish(nullptr, std::current_exception());
    throw;
  }
}

}  // namespace

std::shared_ptr<const MeshPattern> MeshSolveCache::grid_pattern(
    const CsrMatrix& laplacian, std::size_t nx, std::size_t ny) {
  return find_or_build(mutex_, patterns_, Grid{nx, ny}, nullptr, [&] {
    return build_mesh_pattern(laplacian, nx, ny);
  });
}

std::shared_ptr<const AssembledMesh> MeshSolveCache::get(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, obs::TraceContext trace) {
  return get(width, height, nx, ny, sheet_ohms, MeshPerturbation{}, trace);
}

std::shared_ptr<const AssembledMesh> MeshSolveCache::get(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation,
    obs::TraceContext trace) {
  const Key key{width.value, height.value, nx, ny, sheet_ohms,
                mesh_perturbation_digest(perturbation)};
  return find_or_build(mutex_, entries_, key, &stats_, [&] {
    obs::Span span("mesh.assemble", trace);
    span.set_arg("nx", double(nx));
    span.set_arg("ny", double(ny));
    return assemble(width, height, nx, ny, sheet_ohms, perturbation,
                    [this, nx, ny](const CsrMatrix& laplacian) {
                      return grid_pattern(laplacian, nx, ny);
                    });
  });
}

MeshSolveCache::Stats MeshSolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t MeshSolveCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MeshSolveCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  patterns_.clear();
  stats_ = Stats{};
}

}  // namespace vpd
