#include "vpd/package/solve_memo.hpp"

#include <cstring>
#include <exception>
#include <utility>

namespace vpd {
namespace {

/// Word-at-a-time multiplicative digest of the bit patterns of the values
/// mixed in (it only buckets exact comparisons, so speed beats
/// distribution quality). Zeros of either sign mix alike, so values that
/// compare equal digest alike.
class Digest {
 public:
  void mix(std::uint64_t bits) {
    h_ = (h_ ^ bits) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 32;
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    if (v != 0.0) std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

bool same_legs(const std::vector<VrAttachment>& a,
               const std::vector<VrAttachment>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].node != b[k].node ||
        a[k].source_voltage.value != b[k].source_voltage.value ||
        a[k].series.value != b[k].series.value) {
      return false;
    }
  }
  return true;
}

}  // namespace

IrDropResult SolveMemo::solve(
    const std::shared_ptr<const AssembledMesh>& assembled,
    const std::vector<VrAttachment>& legs, const Vector& sinks,
    const IrDropOptions& options) {
  Digest op_digest;
  op_digest.mix(reinterpret_cast<std::uintptr_t>(assembled.get()));
  op_digest.mix(options.relative_tolerance);
  op_digest.mix(options.warm_start_voltage.value_or(0.0));
  op_digest.mix(static_cast<std::uint64_t>(options.preconditioner));
  for (const VrAttachment& leg : legs) {
    op_digest.mix(static_cast<std::uint64_t>(leg.node));
    op_digest.mix(leg.source_voltage.value);
    op_digest.mix(leg.series.value);
  }
  Digest rhs_digest;
  for (double s : sinks) rhs_digest.mix(s);

  std::shared_ptr<OnceSlot<IrDropResult>> slot;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Operator* op = nullptr;
    auto [first, last] = operators_.equal_range(op_digest.value());
    for (auto it = first; it != last; ++it) {
      Operator& candidate = it->second;
      if (candidate.assembled == assembled &&
          candidate.relative_tolerance == options.relative_tolerance &&
          candidate.warm_start_voltage == options.warm_start_voltage &&
          candidate.preconditioner == options.preconditioner &&
          same_legs(candidate.legs, legs)) {
        op = &candidate;
        break;
      }
    }
    if (op == nullptr) {
      op = &operators_
                .emplace(op_digest.value(),
                         Operator{assembled, legs, options.relative_tolerance,
                                  options.warm_start_voltage,
                                  options.preconditioner, 0, {}})
                ->second;
    }
    ++op->requests;
    for (const Rhs& rhs : op->rhs) {
      if (rhs.digest == rhs_digest.value() && rhs.sinks == sinks) {
        slot = rhs.slot;
        break;
      }
    }
    if (slot == nullptr) {
      slot = std::make_shared<OnceSlot<IrDropResult>>();
      op->rhs.push_back(Rhs{rhs_digest.value(), sinks, slot});
      owner = true;
    }
  }

  if (owner) {
    try {
      IrDropResult result = solve_irdrop(*assembled, legs, sinks, options);
      result.node_voltages = Vector{};
      slot->finish(std::make_shared<const IrDropResult>(std::move(result)),
                   nullptr);
    } catch (...) {
      slot->finish(nullptr, std::current_exception());
      throw;
    }
  }
  return *slot->wait();
}

SolveMemo::Stats SolveMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  for (const auto& [digest, op] : operators_) {
    stats.hits += op.requests - op.rhs.size();
    if (op.requests >= 2) {
      ++stats.shared_operators;
      stats.shared_requests += op.requests;
    }
    if (op.rhs.size() >= 2) stats.distinct_sinks += op.rhs.size();
  }
  return stats;
}

}  // namespace vpd
