// Keyed cache of assembled mesh solve operators. A distribution solve's
// matrix is the GridMesh Laplacian plus per-VR shunt stamps; the Laplacian
// depends only on (width, height, nx, ny, sheet resistance, perturbation),
// so across a design-space sweep or a fault campaign the expensive part of
// assembly — triplet generation, sort and CSR compilation — is identical
// for every point on the same mesh. The cache shares one immutable
// AssembledMesh per key; solves copy its value array and stamp their
// shunts via CsrMatrix::add_to_entry. The pattern-only data (IC pattern
// and wavefront schedule, multigrid hierarchy, pattern digest) depends on
// the grid alone, so it is built once per (nx, ny) and shared by every
// entry on that grid, nominal or perturbed.
//
// Thread-safe: one mutex guards only the key -> slot maps and the hit/miss
// counts. The first requester of a key assembles it with that mutex
// released; concurrent requesters of the same key wait on the key's slot,
// requesters of other keys proceed. Each key is still built exactly once
// (misses == distinct keys regardless of scheduling). A failed assembly
// rethrows to every waiter and leaves no entry behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "vpd/common/multigrid.hpp"
#include "vpd/common/once_slot.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {

/// Pattern-only data of one nx x ny grid: the digest of the compiled
/// Laplacian's pattern, the IC(0)/SSOR lower-triangle pattern with its
/// apply schedule, and the geometric multigrid hierarchy. Perturbations
/// keep severed edges as stored zeros and VR shunt stamps touch only
/// existing diagonal entries, so one bundle serves every operator on the
/// grid.
struct MeshPattern {
  std::uint64_t digest{0};  // CsrMatrix::pattern_digest of the Laplacian
  IcSymbolic ic_symbolic;
  MgSymbolic mg_symbolic;
};

/// An immutable, shareable mesh with its compiled Laplacian (no shunts)
/// and the grid's shared pattern bundle.
struct AssembledMesh {
  GridMesh mesh;
  CsrMatrix laplacian;
  std::shared_ptr<const MeshPattern> pattern;
};

/// Builds the AssembledMesh for the given geometry with a pattern bundle
/// of its own (the cache-miss path compiles the Laplacian the same way and
/// attaches the grid's shared bundle instead, so cached and uncached
/// solves are bit-identical). The perturbation overload applies a
/// conductance perturbation; an empty perturbation is bit-identical to the
/// plain overload.
std::shared_ptr<const AssembledMesh> assemble_mesh(Length width,
                                                   Length height,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   double sheet_ohms);
std::shared_ptr<const AssembledMesh> assemble_mesh(
    Length width, Length height, std::size_t nx, std::size_t ny,
    double sheet_ohms, const MeshPerturbation& perturbation);

/// Order-sensitive 64-bit FNV-1a digest of a conductance perturbation,
/// part of the MeshSolveCache key: two meshes with identical macro
/// geometry but different perturbations must never alias to the same
/// cache entry. Exactly 0 for the empty (nominal) perturbation and
/// guaranteed non-zero otherwise, so a perturbed mesh can never collide
/// with the nominal operator.
std::uint64_t mesh_perturbation_digest(const MeshPerturbation& perturbation);

class MeshSolveCache {
 public:
  struct Stats {
    std::size_t hits{0};
    std::size_t misses{0};
  };

  /// Returns the cached operator for the key, assembling it on first use
  /// (outside the cache mutex; see the file comment). A request that finds
  /// the key counts as a hit even while its assembly is still running, and
  /// rethrows if that assembly fails. `trace` parents the "mesh.assemble"
  /// span a miss records; it never affects what is returned.
  std::shared_ptr<const AssembledMesh> get(Length width, Length height,
                                           std::size_t nx, std::size_t ny,
                                           double sheet_ohms,
                                           obs::TraceContext trace = {});

  /// Same, keyed additionally by the perturbation digest. An empty
  /// perturbation shares the nominal entry.
  std::shared_ptr<const AssembledMesh> get(
      Length width, Length height, std::size_t nx, std::size_t ny,
      double sheet_ohms, const MeshPerturbation& perturbation,
      obs::TraceContext trace = {});

  Stats stats() const;
  /// Number of cached (or in-flight) operators.
  std::size_t size() const;
  void clear();

 private:
  struct Key {
    double width;
    double height;
    std::size_t nx;
    std::size_t ny;
    double sheet;
    std::uint64_t perturbation_digest;
    bool operator<(const Key& o) const;
  };
  using Grid = std::pair<std::size_t, std::size_t>;  // (nx, ny)

  /// The grid's pattern bundle, built from `laplacian` on first use.
  std::shared_ptr<const MeshPattern> grid_pattern(const CsrMatrix& laplacian,
                                                  std::size_t nx,
                                                  std::size_t ny);

  mutable std::mutex mutex_;  // guards the maps and stats_ only
  std::map<Key, std::shared_ptr<OnceSlot<AssembledMesh>>> entries_;
  std::map<Grid, std::shared_ptr<OnceSlot<MeshPattern>>> patterns_;
  Stats stats_;
};

}  // namespace vpd
