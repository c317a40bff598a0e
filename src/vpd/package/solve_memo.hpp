// Run-scoped memo of distribution IR-drop solves. A design-space sweep or
// a fault campaign asks for the same solve many times: sink-map variants
// and stage-2 dropouts keep the stamped operator and often the sink
// vector too. The memo answers each distinct request with one
// solve_irdrop call and hands the stored result to every later requester
// of the same request.
//
// A request is the full solve input. The operator is the AssembledMesh,
// compared by pointer identity (the memo holds the shared_ptr, so the
// address cannot be reused while the memo lives; one MeshSolveCache hands
// every requester of a geometry the same pointer), the VR legs and the
// numerics options (relative tolerance, warm start, preconditioner), all
// compared by value. The sink vector is compared by exact value; its
// digest only buckets the comparison. Trace, workspace and other
// observability plumbing are not part of the key: they never change the
// solve's numbers, so a shared answer is bit-identical to solving again.
//
// Thread-safe, on MeshSolveCache's per-key slot pattern: one mutex guards
// the table; the first requester of a request solves with it released,
// later requesters wait on that request's slot, and a throwing solve
// passes its exception to every requester of the request. Stored results
// drop node_voltages, which no memo client reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "vpd/common/once_slot.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {

class SolveMemo {
 public:
  /// Accounting of the table. Deterministic in the multiset of requests:
  /// independent of request order, thread count and which requester
  /// solved.
  struct Stats {
    /// Requests answered by another request's solve.
    std::size_t hits{0};
    /// Operators requested at least twice, and the requests on them.
    std::size_t shared_operators{0};
    std::size_t shared_requests{0};
    /// Distinct sink vectors on operators that drew at least two.
    std::size_t distinct_sinks{0};
  };

  SolveMemo() = default;
  SolveMemo(const SolveMemo&) = delete;
  SolveMemo& operator=(const SolveMemo&) = delete;

  /// solve_irdrop(*assembled, legs, sinks, options), once per distinct
  /// request; node_voltages is left empty. Rethrows the solve's exception
  /// to every requester of a failing request.
  IrDropResult solve(const std::shared_ptr<const AssembledMesh>& assembled,
                     const std::vector<VrAttachment>& legs,
                     const Vector& sinks, const IrDropOptions& options);

  Stats stats() const;

 private:
  struct Rhs {
    std::uint64_t digest{0};  // buckets the exact comparison only
    Vector sinks;
    std::shared_ptr<OnceSlot<IrDropResult>> slot;
  };
  struct Operator {
    std::shared_ptr<const AssembledMesh> assembled;
    std::vector<VrAttachment> legs;
    double relative_tolerance{0.0};
    std::optional<double> warm_start_voltage;
    CgPreconditioner preconditioner{};
    std::size_t requests{0};
    std::vector<Rhs> rhs;
  };

  mutable std::mutex mutex_;
  /// Operators bucketed by a digest of their key; identity is decided by
  /// the exact comparison.
  std::unordered_multimap<std::uint64_t, Operator> operators_;
};

}  // namespace vpd
