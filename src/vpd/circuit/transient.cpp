#include "vpd/circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "vpd/circuit/dc_solver.hpp"
#include "vpd/common/error.hpp"

namespace vpd {

const LuFactorization& TransientFactorCache::get(
    const std::string& key, const std::function<Matrix()>& build_matrix) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    return *it->second;
  }
  // Factor under the lock: factorizations are rare (a handful per netlist
  // per campaign) and this guarantees each key is factored exactly once,
  // from a matrix the key determines bit for bit.
  ++stats_.misses;
  it = entries_
           .emplace(key, std::make_unique<LuFactorization>(build_matrix()))
           .first;
  return *it->second;
}

TransientFactorCache::Stats TransientFactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t TransientFactorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

TransientResult::TransientResult(const Netlist& netlist,
                                 std::vector<double> times,
                                 std::vector<double> node_voltages,
                                 std::vector<double> element_currents)
    : netlist_(&netlist),
      times_(std::move(times)),
      node_voltages_(std::move(node_voltages)),
      element_currents_(std::move(element_currents)) {
  VPD_REQUIRE(node_voltages_.size() == times_.size() * netlist.node_count() &&
                  element_currents_.size() ==
                      times_.size() * netlist.element_count(),
              "inconsistent sample counts");
}

Trace TransientResult::voltage(NodeId node) const {
  const std::size_t n_nodes = netlist_->node_count();
  VPD_REQUIRE(node < n_nodes, "node id ", node, " out of range");
  std::vector<double> values(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i)
    values[i] = node_voltages_[i * n_nodes + node];
  return Trace("v(" + netlist_->node_name(node) + ")", times_, std::move(values));
}

Trace TransientResult::voltage(const std::string& node_name) const {
  return voltage(netlist_->node(node_name));
}

Trace TransientResult::current(ElementId element) const {
  const std::size_t n_elements = netlist_->element_count();
  VPD_REQUIRE(element < n_elements, "element id ", element, " out of range");
  std::vector<double> values(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i)
    values[i] = element_currents_[i * n_elements + element];
  return Trace("i(" + netlist_->element(element).name + ")", times_,
               std::move(values));
}

Trace TransientResult::current(const std::string& element_name) const {
  return current(netlist_->element_id(element_name));
}

Trace TransientResult::power(ElementId element) const {
  const Element& e = netlist_->element(element);
  const std::size_t n_nodes = netlist_->node_count();
  const std::size_t n_elements = netlist_->element_count();
  std::vector<double> values(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const double* v = &node_voltages_[i * n_nodes];
    values[i] = (v[e.node_a] - v[e.node_b]) *
                element_currents_[i * n_elements + element];
  }
  return Trace("p(" + e.name + ")", times_, std::move(values));
}

Trace TransientResult::power(const std::string& element_name) const {
  return power(netlist_->element_id(element_name));
}

Energy TransientResult::energy(const std::string& element_name) const {
  const Trace p = power(element_name);
  if (p.sample_count() < 2) return Energy{0.0};
  const double span = p.times().back() - p.times().front();
  return Energy{p.average() * span};
}

Power TransientResult::average_power(const std::string& element_name,
                                     Seconds window) const {
  const Trace p = power(element_name).tail(window.value);
  return Power{p.average()};
}

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Appends the bit pattern of a double to a cache key (exact match, no
/// formatting round-trip).
void append_bits(std::string& key, double value) {
  const std::uint64_t bits = bits_of(value);
  for (int shift = 0; shift < 64; shift += 8) {
    key.push_back(static_cast<char>((bits >> shift) & 0xff));
  }
}

/// Everything matrix-relevant about the netlist itself: element kinds,
/// terminals and values (sources excluded — they only enter the RHS) plus
/// gmin. Shared-cache keys prefix this so distinct netlists never alias.
std::string netlist_matrix_key(const Netlist& netlist, double gmin) {
  std::string key;
  key.reserve(netlist.element_count() * 24 + 16);
  append_bits(key, static_cast<double>(netlist.node_count()));
  append_bits(key, gmin);
  for (const Element& e : netlist.elements()) {
    key.push_back(static_cast<char>(e.kind));
    append_bits(key, static_cast<double>(e.node_a));
    append_bits(key, static_cast<double>(e.node_b));
    switch (e.kind) {
      case ElementKind::kResistor:
      case ElementKind::kCapacitor:
      case ElementKind::kInductor:
        append_bits(key, e.value);
        break;
      case ElementKind::kSwitch:
        append_bits(key, e.r_on);
        append_bits(key, e.r_off);
        break;
      case ElementKind::kVoltageSource:
      case ElementKind::kCurrentSource:
        break;
    }
  }
  return key;
}

// Step-loop element records, built once per simulate() call in netlist
// order. MNA rows are resolved up front (MnaLayout::kNoRow for ground) and
// the companion-model history lives inline.

struct ResistorRecord {
  ElementId id;
  NodeId a, b;
  double r;
};

struct SwitchRecord {  // position in this list == position in SwitchStates
  ElementId id;
  NodeId a, b;
  double r_on, r_off;
};

struct CapacitorRecord {
  ElementId id;
  NodeId a, b;
  double c;
  double v{0.0};   // v_ab history
  double i{0.0};   // i_ab history
  double g{0.0};   // companion conductance of the current step
  double i_eq{0.0};  // companion current injected b -> a this step
};

struct InductorRecord {
  ElementId id;
  NodeId a, b;
  std::size_t branch;
  double l;
  double i{0.0};  // i_ab history
  double v{0.0};  // v_ab history
};

struct VSourceRecord {
  ElementId id;
  std::size_t branch;
  const SourceFn* source;
  double i{0.0};  // branch current of the latest sample
};

struct ISourceRecord {
  ElementId id;
  const SourceFn* source;
  double i{0.0};  // source value of the latest sample
};

/// One RHS current injection `b[from] -= *amps; b[to] += *amps`, kept in
/// netlist order across capacitors and I sources so node rows accumulate
/// in the same sequence as a netlist walk.
struct Injection {
  std::size_t from, to;
  const double* amps;
};

/// A matrix pattern seen by this simulation and its factors (owned here
/// unless they live in the shared TransientFactorCache).
struct FactorPattern {
  IntegrationMethod method;
  std::uint64_t h_bits;
  SwitchStates switches;
  const LuFactorization* factors;
  std::unique_ptr<LuFactorization> owned;
};

}  // namespace

TransientResult simulate(const Netlist& netlist,
                         const TransientOptions& options) {
  const double t_stop = options.t_stop.value;
  const double dt = options.dt.value;
  VPD_REQUIRE(t_stop > 0.0, "t_stop must be positive, got ", t_stop);
  VPD_REQUIRE(dt > 0.0 && dt < t_stop, "dt must be in (0, t_stop), got ", dt);

  const MnaLayout layout(netlist);
  const std::size_t n_nodes = netlist.node_count();
  const std::size_t n_elements = netlist.element_count();

  SwitchStates states = initial_switch_states(netlist);

  // --- Element records ------------------------------------------------------
  std::vector<ResistorRecord> resistors;
  std::vector<SwitchRecord> switches;
  std::vector<CapacitorRecord> capacitors;
  std::vector<InductorRecord> inductors;
  std::vector<VSourceRecord> vsources;
  std::vector<ISourceRecord> isources;
  for (ElementId id = 0; id < n_elements; ++id) {
    const Element& e = netlist.element(id);
    switch (e.kind) {
      case ElementKind::kResistor:
        resistors.push_back({id, e.node_a, e.node_b, e.value});
        break;
      case ElementKind::kSwitch:
        switches.push_back({id, e.node_a, e.node_b, e.r_on, e.r_off});
        break;
      case ElementKind::kCapacitor:
        capacitors.push_back({id, e.node_a, e.node_b, e.value});
        break;
      case ElementKind::kInductor:
        inductors.push_back(
            {id, e.node_a, e.node_b, layout.branch_row(id), e.value});
        break;
      case ElementKind::kVoltageSource:
        vsources.push_back({id, layout.branch_row(id), &e.source});
        break;
      case ElementKind::kCurrentSource:
        isources.push_back({id, &e.source});
        break;
    }
  }
  // Built after the lists are final, so the value pointers stay valid.
  std::vector<Injection> injections;
  {
    std::size_t ci = 0;
    std::size_t si = 0;
    for (ElementId id = 0; id < n_elements; ++id) {
      const Element& e = netlist.element(id);
      if (e.kind == ElementKind::kCapacitor) {
        injections.push_back({layout.node_row(e.node_b),
                              layout.node_row(e.node_a),
                              &capacitors[ci++].i_eq});
      } else if (e.kind == ElementKind::kCurrentSource) {
        injections.push_back({layout.node_row(e.node_a),
                              layout.node_row(e.node_b), &isources[si++].i});
      }
    }
  }

  // --- Initial conditions ---------------------------------------------------
  // `v` holds the node voltages of the latest sample (v[kGround] == 0).
  Vector v(n_nodes, 0.0);
  const double dc_gmin = std::max(options.gmin, 1e-12);

  if (options.initialize_from_dc) {
    DcOptions dc;
    dc.gmin = dc_gmin;
    dc.switch_states = states;
    const DcSolution op = solve_dc(netlist, dc);
    for (NodeId n = 0; n < n_nodes; ++n) v[n] = op.voltage(n).value;
    for (CapacitorRecord& c : capacitors) c.v = v[c.a] - v[c.b];
    for (InductorRecord& l : inductors) l.i = op.current(l.id).value;
    for (VSourceRecord& s : vsources) s.i = op.current(s.id).value;
  } else {
    for (CapacitorRecord& c : capacitors) c.v = netlist.element(c.id).initial;
    for (InductorRecord& l : inductors) l.i = netlist.element(l.id).initial;
    // Consistent t = 0 node voltages: solve the network with capacitors
    // replaced by voltage sources at their initial voltage and inductors by
    // current sources at their initial current. The snapshot adds one
    // element per element in netlist order, so element ids carry over.
    Netlist snapshot;
    for (NodeId n = 1; n < n_nodes; ++n)
      snapshot.add_node(netlist.node_name(n));
    for (const Element& e : netlist.elements()) {
      switch (e.kind) {
        case ElementKind::kCapacitor:
          snapshot.add_vsource(e.name, e.node_a, e.node_b,
                               Voltage{e.initial});
          break;
        case ElementKind::kInductor:
          snapshot.add_isource(e.name, e.node_a, e.node_b,
                               Current{e.initial});
          break;
        case ElementKind::kResistor:
          snapshot.add_resistor(e.name, e.node_a, e.node_b,
                                Resistance{e.value});
          break;
        case ElementKind::kSwitch:
          snapshot.add_switch(e.name, e.node_a, e.node_b,
                              Resistance{e.r_on}, Resistance{e.r_off},
                              e.initially_closed);
          break;
        case ElementKind::kVoltageSource:
          snapshot.add_vsource(e.name, e.node_a, e.node_b, e.source);
          break;
        case ElementKind::kCurrentSource:
          snapshot.add_isource(e.name, e.node_a, e.node_b, e.source);
          break;
      }
    }
    DcOptions dc;
    dc.gmin = dc_gmin;
    const DcSolution t0 = solve_dc(snapshot, dc);
    for (NodeId n = 0; n < n_nodes; ++n) v[n] = t0.voltage(n).value;
    // Inrush current through each capacitor (its substitute V source) and
    // initial voltage across each inductor seed the trapezoidal history
    // with consistent values.
    for (CapacitorRecord& c : capacitors) c.i = t0.current(c.id).value;
    for (InductorRecord& l : inductors) l.v = v[l.a] - v[l.b];
    for (VSourceRecord& s : vsources) s.i = t0.current(s.id).value;
  }
  for (ISourceRecord& s : isources) s.i = (*s.source)(0.0);

  // --- Step schedule ---------------------------------------------------------
  // Full steps of dt plus, when dt does not divide t_stop, one shortened
  // final step, so the last sample lands exactly on t_stop. Step times are
  // multiples of dt (never accumulated), so long runs do not drift.
  std::size_t n_full = static_cast<std::size_t>(std::floor(t_stop / dt));
  double remainder = t_stop - static_cast<double>(n_full) * dt;
  if (remainder <= 1e-9 * dt) {
    // dt divides t_stop (up to FP slop): no partial step.
    remainder = 0.0;
  } else if (remainder >= (1.0 - 1e-9) * dt) {
    // floor() landed one full step short of an exact multiple.
    ++n_full;
    remainder = 0.0;
  }
  const std::size_t n_steps = n_full + (remainder > 0.0 ? 1 : 0);

  // --- Recording -------------------------------------------------------------
  // Flat row-major storage, reserved for every sample up front.
  std::vector<double> times;
  std::vector<double> node_voltages;
  std::vector<double> element_currents;
  times.reserve(n_steps + 1);
  node_voltages.reserve((n_steps + 1) * n_nodes);
  element_currents.reserve((n_steps + 1) * n_elements);

  // Appends the sample at time t from `v` and the element records; the
  // t = 0 currents come from the initialization solve (source inrush
  // currents included), so the energy bookkeeping starts consistent.
  auto record = [&](double t) {
    times.push_back(t);
    node_voltages.insert(node_voltages.end(), v.begin(), v.end());
    const std::size_t row = element_currents.size();
    element_currents.resize(row + n_elements);
    double* i = element_currents.data() + row;
    for (const ResistorRecord& r : resistors)
      i[r.id] = (v[r.a] - v[r.b]) / r.r;
    for (std::size_t k = 0; k < switches.size(); ++k) {
      const SwitchRecord& s = switches[k];
      i[s.id] = (v[s.a] - v[s.b]) / (states[k] ? s.r_on : s.r_off);
    }
    for (const CapacitorRecord& c : capacitors) i[c.id] = c.i;
    for (const InductorRecord& l : inductors) i[l.id] = l.i;
    for (const VSourceRecord& s : vsources) i[s.id] = s.i;
    for (const ISourceRecord& s : isources) i[s.id] = s.i;
  };
  record(0.0);

  // --- Factor lookup ---------------------------------------------------------
  // The MNA matrix depends only on (topology, h, method, switch states);
  // sources and history enter through the RHS. PWM simulations revisit a
  // handful of patterns thousands of times, so a step first compares its
  // (method, bit pattern of h, switch states) with the previous step's,
  // then scans the patterns this simulation has seen. Only a pattern's
  // first sighting builds a factorization, or — with a shared
  // factor_cache — the string key that cache is indexed by: the
  // netlist's matrix-relevant content as a prefix, so distinct netlists
  // never alias.
  std::vector<FactorPattern> patterns;
  std::size_t last_pattern = 0;
  const std::string base_key = options.factor_cache != nullptr
                                   ? netlist_matrix_key(netlist, options.gmin)
                                   : std::string();

  auto build_matrix = [&](IntegrationMethod method, double h,
                          const SwitchStates& sw) -> Matrix {
    MnaStamper stamper(layout);
    std::size_t sw_pos = 0;
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = netlist.element(i);
      switch (e.kind) {
        case ElementKind::kResistor:
          stamper.stamp_conductance(e.node_a, e.node_b, 1.0 / e.value);
          break;
        case ElementKind::kSwitch:
          stamper.stamp_conductance(e.node_a, e.node_b,
                                    1.0 / switch_resistance(e, sw[sw_pos]));
          ++sw_pos;
          break;
        case ElementKind::kCapacitor: {
          const double g = (method == IntegrationMethod::kBackwardEuler
                                ? e.value / h
                                : 2.0 * e.value / h);
          stamper.stamp_conductance(e.node_a, e.node_b, g);
          break;
        }
        case ElementKind::kInductor: {
          const double r_eq = (method == IntegrationMethod::kBackwardEuler
                                   ? e.value / h
                                   : 2.0 * e.value / h);
          stamper.stamp_inductor_branch(layout.branch_row(i), e.node_a,
                                        e.node_b, r_eq, 0.0);
          break;
        }
        case ElementKind::kVoltageSource:
          stamper.stamp_voltage_source(layout.branch_row(i), e.node_a,
                                       e.node_b, 0.0);
          break;
        case ElementKind::kCurrentSource:
          break;
      }
    }
    stamper.stamp_gmin(options.gmin);
    return stamper.matrix();
  };

  auto factorization_for = [&](IntegrationMethod method,
                               double h) -> const LuFactorization& {
    const std::uint64_t h_bits = bits_of(h);
    const auto matches = [&](const FactorPattern& p) {
      return p.method == method && p.h_bits == h_bits && p.switches == states;
    };
    if (last_pattern < patterns.size() && matches(patterns[last_pattern]))
      return *patterns[last_pattern].factors;
    for (std::size_t k = 0; k < patterns.size(); ++k) {
      if (matches(patterns[k])) {
        last_pattern = k;
        return *patterns[k].factors;
      }
    }
    FactorPattern pattern{method, h_bits, states, nullptr, nullptr};
    if (options.factor_cache != nullptr) {
      std::string key = base_key;
      key.push_back(method == IntegrationMethod::kBackwardEuler ? 'b' : 't');
      append_bits(key, h);
      for (bool closed : states) key.push_back(closed ? '1' : '0');
      pattern.factors = &options.factor_cache->get(
          key, [&] { return build_matrix(method, h, states); });
    } else {
      pattern.owned =
          std::make_unique<LuFactorization>(build_matrix(method, h, states));
      pattern.factors = pattern.owned.get();
    }
    last_pattern = patterns.size();
    patterns.push_back(std::move(pattern));
    return *patterns.back().factors;
  };

  // --- Time stepping ----------------------------------------------------------
  // A step reuses these buffers and the element records: it allocates
  // nothing, formats no key and looks nothing up through the netlist.
  Vector b(layout.unknown_count(), 0.0);
  Vector x(layout.unknown_count(), 0.0);
  for (std::size_t step = 1; step <= n_steps; ++step) {
    const bool final_partial = remainder > 0.0 && step == n_steps;
    const double h = final_partial ? remainder : dt;
    const double t_next =
        step == n_steps ? t_stop : static_cast<double>(step) * dt;
    // First step uses backward Euler: trapezoidal needs consistent initial
    // element currents, which the ICs do not provide.
    const bool backward_euler =
        step == 1 || options.method == IntegrationMethod::kBackwardEuler;
    const IntegrationMethod method =
        backward_euler ? IntegrationMethod::kBackwardEuler : options.method;

    if (options.controller) options.controller(t_next, states);

    const LuFactorization& factors = factorization_for(method, h);

    // RHS: companion-model history and source values.
    std::fill(b.begin(), b.end(), 0.0);
    for (CapacitorRecord& c : capacitors) {
      if (backward_euler) {
        c.g = c.c / h;
        c.i_eq = c.g * c.v;
      } else {
        c.g = 2.0 * c.c / h;
        c.i_eq = c.g * c.v + c.i;
      }
    }
    for (ISourceRecord& s : isources) s.i = (*s.source)(t_next);
    for (const Injection& inj : injections) {
      if (inj.from != MnaLayout::kNoRow) b[inj.from] -= *inj.amps;
      if (inj.to != MnaLayout::kNoRow) b[inj.to] += *inj.amps;
    }
    for (const InductorRecord& l : inductors) {
      b[l.branch] = backward_euler ? -(l.l / h) * l.i
                                   : -(2.0 * l.l / h) * l.i - l.v;
    }
    for (const VSourceRecord& s : vsources) b[s.branch] = (*s.source)(t_next);

    factors.solve(b, x);
    for (NodeId n = 1; n < n_nodes; ++n) v[n] = x[n - 1];

    // Update reactive histories and branch currents.
    for (CapacitorRecord& c : capacitors) {
      const double v_ab = v[c.a] - v[c.b];
      c.i = backward_euler ? c.g * (v_ab - c.v) : c.g * (v_ab - c.v) - c.i;
      c.v = v_ab;
    }
    for (InductorRecord& l : inductors) {
      l.i = x[l.branch];
      l.v = v[l.a] - v[l.b];
    }
    for (VSourceRecord& s : vsources) s.i = x[s.branch];

    if (options.observer) options.observer(t_next, v);
    record(t_next);
  }

  return TransientResult(netlist, std::move(times), std::move(node_voltages),
                         std::move(element_currents));
}

std::vector<double> cycle_averages(const Trace& trace, double period) {
  VPD_REQUIRE(period > 0.0, "period must be positive");
  const double t0 = trace.times().front();
  const double t_end = trace.times().back();
  // Each window is anchored at t0 + i * period (never accumulated with
  // repeated += period, which drifts by an ulp per cycle and loses or
  // gains windows over thousands of MHz-burst cycles). The tolerance is
  // relative to the period, not absolute, for the same reason.
  const double tol = 1e-9 * period;
  std::vector<double> averages;
  for (std::size_t i = 0;; ++i) {
    const double start = t0 + static_cast<double>(i) * period;
    const double end = start + period;
    if (end > t_end + tol) break;
    const double clamped_end = std::min(end, t_end);
    VPD_REQUIRE(start >= t0 && start < clamped_end,
                "cycle window [", start, ", ", clamped_end,
                ") escaped the trace span [", t0, ", ", t_end, "]");
    averages.push_back(trace.average(start, clamped_end));
  }
  return averages;
}

std::optional<std::size_t> first_steady_cycle(const Trace& trace,
                                              double period, double tol) {
  const std::vector<double> averages = cycle_averages(trace, period);
  for (std::size_t i = 0; i + 1 < averages.size(); ++i)
    if (std::fabs(averages[i + 1] - averages[i]) < tol) return i;
  return std::nullopt;
}

}  // namespace vpd
