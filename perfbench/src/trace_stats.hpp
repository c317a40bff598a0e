// Aggregation of trace spans by name: count, total and self time (duration
// minus the part of the span's interval its child spans cover), and
// per-span duration samples for percentiles; plus per-thread busy time
// for pool utilization. Spans come from the in-process obs trace buffer
// (Chrome trace-event document) or from a vpdd --trace NDJSON file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vpd/io/json.hpp"

namespace perfbench {

struct TraceEvent {
  std::string name;
  double start_us{0.0};
  double dur_us{0.0};
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::uint32_t tid{0};
};

std::vector<TraceEvent> events_from_chrome(const vpd::io::Value& doc);
std::vector<TraceEvent> events_from_ndjson(const std::string& text);

struct SpanStats {
  std::size_t count{0};
  double total_s{0.0};
  double self_total_s{0.0};
  std::vector<double> dur_s;
  std::vector<double> self_s;
};

class TraceAggregate {
 public:
  /// Adds one self-contained batch of events: every child's parent is in
  /// the same batch (spans whose parent is missing count as roots).
  void add(const std::vector<TraceEvent>& events);

  /// Stats for `name`; an empty record when no such span was seen.
  const SpanStats& span(const std::string& name) const;
  /// Sum over threads of the union of intervals covered by library spans
  /// that stand for work on that thread (see counts_as_busy) [s].
  double busy_seconds() const { return busy_s_; }
  std::size_t events() const { return events_; }

 private:
  std::map<std::string, SpanStats> spans_;
  double busy_s_{0.0};
  std::size_t events_{0};
};

}  // namespace perfbench
