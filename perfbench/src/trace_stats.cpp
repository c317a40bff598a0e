#include "trace_stats.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

TraceEvent event_from_json(const vpd::io::Value& v) {
  TraceEvent e;
  e.name = v.at("name").as_string();
  e.start_us = v.at("ts").as_number();
  e.dur_us = v.at("dur").as_number();
  e.tid = static_cast<std::uint32_t>(v.at("tid").as_number());
  const vpd::io::Value& args = v.at("args");
  e.id = static_cast<std::uint64_t>(args.at("span_id").as_number());
  if (const vpd::io::Value* parent = args.find("parent_span_id")) {
    e.parent = static_cast<std::uint64_t>(parent->as_number());
  }
  return e;
}

using Interval = std::pair<double, double>;

/// Length of the union of `intervals` (sorted in place).
double union_length(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (!open || iv.first > hi) {
      if (open) covered += hi - lo;
      lo = iv.first;
      hi = iv.second;
      open = true;
    } else {
      hi = std::max(hi, iv.second);
    }
  }
  if (open) covered += hi - lo;
  return covered;
}

/// Spans that stand for work on their thread. Excluded: the benchmark's
/// own spans, whole-campaign spans that wait on a pool, and queue waits
/// (recorded by the worker that ends them, over time it spent elsewhere).
bool counts_as_busy(const std::string& name) {
  return name.rfind("bench.", 0) != 0 && name != "droop.campaign" &&
         name != "opt.run" && name != "serve.queue_wait";
}

}  // namespace

std::vector<TraceEvent> events_from_chrome(const vpd::io::Value& doc) {
  std::vector<TraceEvent> events;
  for (const vpd::io::Value& v : doc.at("traceEvents").as_array()) {
    events.push_back(event_from_json(v));
  }
  return events;
}

std::vector<TraceEvent> events_from_ndjson(const std::string& text) {
  std::vector<TraceEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    events.push_back(event_from_json(vpd::io::parse(line)));
  }
  return events;
}

void TraceAggregate::add(const std::vector<TraceEvent>& events) {
  events_ += events.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < events.size(); ++i) index[events[i].id] = i;

  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<Interval>> children(events.size());
  for (const TraceEvent& e : events) {
    if (e.parent == 0) continue;
    const auto it = index.find(e.parent);
    if (it == index.end()) continue;
    const TraceEvent& p = events[it->second];
    const double lo = std::max(e.start_us, p.start_us);
    const double hi =
        std::min(e.start_us + e.dur_us, p.start_us + p.dur_us);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }

  std::map<std::uint32_t, std::vector<Interval>> busy;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const double covered = union_length(children[i]);
    const double self_us = std::max(0.0, e.dur_us - covered);
    SpanStats& s = spans_[e.name];
    ++s.count;
    s.total_s += e.dur_us * 1e-6;
    s.self_total_s += self_us * 1e-6;
    s.dur_s.push_back(e.dur_us * 1e-6);
    s.self_s.push_back(self_us * 1e-6);
    if (counts_as_busy(e.name)) {
      busy[e.tid].push_back({e.start_us, e.start_us + e.dur_us});
    }
  }
  for (auto& [tid, intervals] : busy) busy_s_ += union_length(intervals) * 1e-6;
}

const SpanStats& TraceAggregate::span(const std::string& name) const {
  static const SpanStats empty;
  const auto it = spans_.find(name);
  return it == spans_.end() ? empty : it->second;
}

}  // namespace perfbench
