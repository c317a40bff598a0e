// vpdd_mixed: a seeded NDJSON stream written into one vpdd process over one
// pipe. Mostly single-point `evaluate` lines, some `evaluate_batch` and
// fault-variant requests, a repeated share, and a few invalid lines whose
// correct answer is an error. The stream runs as saturating bursts into
// fresh daemons whose queue is sized so nothing is rejected, then as an
// open loop (Poisson arrivals at one fixed offered rate well below
// saturation, each request timed from its due time).
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"
#include "trace_stats.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/net/socket.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/sweep/thread_pool.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace vpd;

/// Offered rate of the open-loop phase [requests/s], about an eighth of
/// the saturated throughput on a 4-core host.
constexpr double kOfferedRate = 400.0;
/// The open loop's p99 is taken in this many consecutive windows (each
/// of about 450 requests in a 15 s run) and reported as their median, so
/// that a stall of the host in one window does not set it.
constexpr std::size_t kLatencyWindows = 4;
/// Lines per saturating burst.
constexpr std::size_t kBurstLines = 2000;
// The request mix. There is no recorded vpdd traffic to derive it from:
// except for the fault share, every value here is an assumption, and
// README.md names each one as such.
//  * Design points: the four VPD architectures of the Fig. 7 grid (A1, A2,
//    A3@12V, A3@6V) x its three topologies, uniform; paper mode, default
//    mesh and technology. The derating is drawn on a 1e-4 grid in
//    [0.6, 0.8] only so that fresh requests are distinct points.
//  * Fault variants: 2 in 12, the share of fault scenarios among the
//    distinct requests of bench/bench_serve.cpp. Like there and in
//    fault_nk they are DSCH designs with one dropped VR.
//  * Repeats: kRepeatShare of the evaluate lines resend an earlier
//    request; the run record carries the measured share.
//  * Every kBatchEvery-th line is an evaluate_batch of a design and
//    kBatchMembers - 1 of its fault variants, and every kInvalidEvery-th
//    line is invalid, at fixed positions so that every seed has the same
//    number of each; their content is seeded.
constexpr double kFaultShare = 2.0 / 12.0;
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kBatchEvery = 20;
constexpr std::size_t kBatchMembers = 3;
constexpr std::size_t kInvalidEvery = 50;
/// Share of the run's seconds spent in the open-loop phase; bursts use
/// the rest.
constexpr double kOpenLoopShare = 0.3;
constexpr std::size_t kMinBursts = 3;
/// Latency recorded for a request that failed or got no valid answer.
constexpr double kFailedLatencyMs = 1e6;

// --- The daemon process ------------------------------------------------------

/// One vpdd child driven over its stdin/stdout pipes, framed by a
/// net::Connection. The destructor closes stdin (vpdd drains and exits on
/// EOF) and reaps the process.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path) {
    int in[2];
    int out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    pipe_ = net::Connection(out[0], in[1]);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }

  ~Daemon() { finish(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  net::Connection& pipe() { return pipe_; }

  /// Closes stdin, waits for the exit (killing the daemon if it has not
  /// exited 60 s after EOF) and returns the exit status.
  int finish() {
    pipe_.shutdown_write();
    if (pid_ <= 0) return status_;
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) break;
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    pipe_.close();
    status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    return status_;
  }

 private:
  pid_t pid_{-1};
  int status_{-1};
  net::Connection pipe_;
};

// --- The request stream ------------------------------------------------------

struct Line {
  enum class Kind { kEvaluate, kBatch, kInvalid };
  Kind kind{Kind::kEvaluate};
  std::string text;
  /// The id the response must echo (null for an unparseable line).
  io::Value id;
  /// Canonical text of each evaluation request the line carries.
  std::vector<std::string> members;
  /// An evaluate line whose request was a member of an earlier
  /// evaluate_batch line (see check_response).
  bool after_batch{false};
};

struct Stream {
  std::vector<Line> lines;
  std::size_t evaluations{0};
  std::size_t repeated{0};
  double repeat_share() const {
    return evaluations == 0 ? 0.0
                            : static_cast<double>(repeated) /
                                  static_cast<double>(evaluations);
  }
};

class StreamGenerator {
 public:
  explicit StreamGenerator(std::uint64_t seed) : rng_(seed) {}

  Stream make(std::size_t count, std::uint64_t first_id) {
    Stream s;
    std::unordered_set<std::string> seen;
    std::unordered_set<std::string> batched;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t id = first_id + i;
      Line line;
      if (i % kInvalidEvery == kInvalidEvery / 2) {
        line = invalid_line(id);
      } else if (i % kBatchEvery == kBatchEvery / 2) {
        line.kind = Line::Kind::kBatch;
        line.id = io::Value(id);
        io::Value doc = io::Value::object();
        doc.set("id", id);
        doc.set("cmd", "evaluate_batch");
        io::Value requests = io::Value::array();
        // Members share one design (a same-operator group when the fault
        // is a stage-2 dropout) and vary only by their injected fault.
        io::Value base = fresh_request(/*allow_faults=*/false);
        base.set("topology", "DSCH");
        for (std::size_t m = 0; m < kBatchMembers; ++m) {
          io::Value member = base;
          if (m > 0) add_fault(member);
          const std::string text = io::dump(member);
          line.members.push_back(text);
          requests.push_back(std::move(member));
        }
        doc.set("requests", std::move(requests));
        line.text = io::dump(doc);
        batched.insert(line.members.begin(), line.members.end());
      } else {
        line.kind = Line::Kind::kEvaluate;
        line.id = io::Value(id);
        io::Value request = (unit() < kRepeatShare && !pool_.empty())
                                ? io::parse(pool_[rng_() % pool_.size()])
                                : fresh_request(/*allow_faults=*/true);
        line.members.push_back(io::dump(request));
        line.after_batch = batched.count(line.members.front()) != 0;
        io::Value doc = std::move(request);
        doc.set("id", id);
        line.text = io::dump(doc);
      }
      for (const std::string& m : line.members) {
        ++s.evaluations;
        if (!seen.insert(m).second) ++s.repeated;
        pool_.push_back(m);
      }
      s.lines.push_back(std::move(line));
    }
    return s;
  }

 private:
  double unit() { return std::uniform_real_distribution<double>(0, 1)(rng_); }

  io::Value fresh_request(bool allow_faults) {
    static const char* const kArchs[] = {"A1", "A2", "A3@12V", "A3@6V"};
    static const char* const kTopologies[] = {"DSCH", "DPMIH", "3LHD"};
    io::Value r = io::Value::object();
    r.set("architecture", kArchs[rng_() % 4]);
    r.set("topology", kTopologies[rng_() % 3]);
    io::Value options = io::Value::object();
    // Derating on a 1e-4 grid: fresh requests practically never collide,
    // so the repeated share is the generator's own.
    options.set("derating",
                static_cast<double>(6000 + rng_() % 2001) / 1e4);
    options.set("below_die_area_fraction", 1.6);
    r.set("options", std::move(options));
    if (allow_faults && unit() < kFaultShare) {
      r.set("topology", "DSCH");
      add_fault(r);
    }
    return r;
  }

  /// One dropped VR: a final-stage VR below the die for the two-stage
  /// architectures (whose stage-1 deployment can be as small as two
  /// VRs), a distribution VR otherwise.
  void add_fault(io::Value& request) {
    const std::string& arch = request.at("architecture").as_string();
    io::Value fault = io::Value::object();
    fault.set("kind", arch.rfind("A3", 0) == 0 ? "stage2-dropout"
                                                : "vr-dropout");
    fault.set("site", static_cast<double>(rng_() % 4));
    io::Value faults = io::Value::array();
    faults.push_back(std::move(fault));
    io::Value scenario = io::Value::object();
    scenario.set("faults", std::move(faults));
    request.set("fault_scenario", std::move(scenario));
  }

  Line invalid_line(std::uint64_t id) {
    Line line;
    line.kind = Line::Kind::kInvalid;
    const std::string sid = std::to_string(id);
    switch (rng_() % 3) {
      case 0:  // not JSON, no recoverable id
        line.text = "this line is not JSON {{{ " + sid;
        break;
      case 1:  // unknown architecture
        line.text = "{\"id\":" + sid +
                    ",\"architecture\":\"A9\",\"topology\":\"DSCH\"}";
        line.id = io::Value(id);
        break;
      default:  // truncated mid-object; the id is recovered from the bytes
        line.text = "{\"id\":" + sid + ",\"architecture\":";
        line.id = io::Value(id);
        break;
    }
    return line;
  }

  std::mt19937_64 rng_;
  std::vector<std::string> pool_;
};

// --- References --------------------------------------------------------------

struct Reference {
  std::shared_ptr<const ExplorationEntry> entry;
  std::string dump;  // io::dump(to_json(entry))
  std::string problem;
};

using References = std::unordered_map<std::string, Reference>;

/// Evaluates every distinct request of the streams in-process through
/// evaluate_with_exclusion and checks each answer's invariants.
References make_references(const std::vector<const Stream*>& streams,
                           std::size_t threads) {
  References refs;
  for (const Stream* s : streams) {
    for (const Line& line : s->lines) {
      for (const std::string& m : line.members) refs.emplace(m, Reference{});
    }
  }
  std::vector<std::pair<const std::string*, Reference*>> work;
  for (auto& [text, ref] : refs) work.push_back({&text, &ref});
  ThreadPool pool(threads);
  for (auto& [text, ref] : work) {
    pool.submit([text = text, ref = ref] {
      try {
        const io::EvaluationRequest request =
            io::evaluation_request_from_json(io::parse(*text));
        auto entry = std::make_shared<ExplorationEntry>(evaluate_with_exclusion(
            request.spec, request.architecture, request.topology,
            request.tech, request.options));
        ref->dump = io::dump(io::to_json(*entry));
        if (const ArchitectureEvaluation* eval = evaluation_of(*entry)) {
          ref->problem = check_invariants(*eval, request.spec);
        }
        ref->entry = std::move(entry);
      } catch (const std::exception& e) {
        ref->problem = std::string("reference evaluation threw: ") + e.what();
      }
    });
  }
  pool.wait_idle();
  return refs;
}

/// Structural equality with numbers equal within kReferenceTolerance,
/// relative to the larger magnitude or to 1 (watts, amperes, volts), so
/// that near-zero spreads compare absolutely. Solver work counts are not
/// answers and are skipped.
bool json_close(const io::Value& a, const io::Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_number()) {
    const double x = a.as_number();
    const double y = b.as_number();
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return std::fabs(x - y) <= kReferenceTolerance * scale;
  }
  if (a.is_array()) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!json_close(a.as_array()[i], b.as_array()[i])) return false;
    }
    return true;
  }
  if (a.is_object()) {
    if (a.size() != b.size()) return false;
    for (const auto& [key, value] : a.as_object()) {
      if (key == "cg_iterations") continue;
      const io::Value* other = b.find(key);
      if (other == nullptr || !json_close(value, *other)) return false;
    }
    return true;
  }
  return a == b;
}

/// Checks one answer body against the in-process evaluation of its
/// request: bit for bit when `bit_identical`, else within
/// kReferenceTolerance, counting answers that are not bit-identical in
/// `*nonbitwise` when given.
std::string check_member(const io::Value& body, const Reference& ref,
                         bool bit_identical,
                         std::size_t* nonbitwise = nullptr) {
  if (!ref.problem.empty()) return ref.problem;
  const std::string want = ref.entry->excluded() ? "excluded" : "ok";
  const io::Value* status = body.find("status");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != want) {
    return "status is not " + want;
  }
  const io::Value* result = body.find("result");
  if (result == nullptr) return "answer has no result";
  if (bit_identical) {
    if (io::dump(*result) != ref.dump) {
      return "result is not bit-identical to the in-process evaluation";
    }
  } else if (!json_close(*result, io::parse(ref.dump))) {
    return "result differs from the in-process evaluation beyond tolerance";
  } else if (nonbitwise != nullptr && io::dump(*result) != ref.dump) {
    ++*nonbitwise;
  }
  return "";
}

/// "" when `response` is the correct answer to `line`.
///
/// A single evaluation must be bit-identical to the in-process
/// evaluate_with_exclusion of its request. Batch members may share a
/// block-CG panel and answer within kReferenceTolerance. The service
/// stores batch answers in the result cache it also serves `evaluate`
/// from, so an evaluate line whose request was an earlier batch member may
/// receive the panel answer: such lines are held to the tolerance, and
/// those not bit-identical are counted in `*nonbitwise`.
std::string check_response(const Line& line, const std::string& response,
                           const References& refs, std::size_t* nonbitwise) {
  io::Value doc;
  try {
    doc = io::parse(response);
  } catch (const std::exception& e) {
    return std::string("response is not JSON: ") + e.what();
  }
  const io::Value* id = doc.find("id");
  if (id == nullptr || *id != line.id) return "response id does not echo";
  const io::Value* status = doc.find("status");
  if (status == nullptr || !status->is_string()) {
    return "response has no status";
  }
  switch (line.kind) {
    case Line::Kind::kInvalid:
      return status->as_string() == "error" ? "" : "invalid line not refused";
    case Line::Kind::kEvaluate:
      return check_member(doc, refs.at(line.members.front()),
                          !line.after_batch, nonbitwise);
    case Line::Kind::kBatch: {
      if (status->as_string() != "ok") return "batch status is not ok";
      const io::Value* results = doc.find("results");
      if (results == nullptr || !results->is_array() ||
          results->size() != line.members.size()) {
        return "batch result count differs from its request count";
      }
      for (std::size_t m = 0; m < line.members.size(); ++m) {
        const std::string problem =
            check_member(results->as_array()[m], refs.at(line.members[m]),
                         false);
        if (!problem.empty()) return "batch member: " + problem;
      }
      return "";
    }
  }
  return "unknown line kind";
}

// --- One daemon session ------------------------------------------------------

struct Session {
  std::vector<std::string> responses;
  /// Per line: response time minus due time (open loop) or minus the
  /// burst's start (burst) [ms].
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  double wall_s{0.0};
  std::uint64_t bytes_out{0};
  io::Value metrics;
  double trace_dropped{0.0};
  std::string trace_path;
  int exit_status{0};
  /// Why writing to or reading from the daemon failed ("" when it did not).
  std::string pipe_error;
};

/// vpdd workers: one core fewer than the benchmark's thread budget, which
/// leaves a core to the daemon's reader and response threads and to the
/// load generator.
std::size_t daemon_threads(const Args& args) {
  return std::max<std::size_t>(1, args.threads - 1);
}

/// Drives one fresh daemon with `stream`. With `due` the lines are written
/// on that schedule (seconds after the start); without it all at once.
Session run_session(const Args& args, const Stream& stream,
                    const std::vector<double>* due, bool traced,
                    const std::string& tag) {
  Session out;
  std::vector<std::string> flags = {"--threads",
                                    std::to_string(daemon_threads(args)),
                                    "--queue", "1000000", "--cache",
                                    "1000000"};
  if (traced) {
    out.trace_path = args.work_dir + "/vpdd_" + tag + ".ndjson";
    std::remove(out.trace_path.c_str());
    flags.push_back("--trace");
    flags.push_back(out.trace_path);
  }
  Daemon daemon(args.vpdd, flags, args.work_dir + "/vpdd.log");
  const std::size_t n = stream.lines.size();
  out.late_ms.assign(n, 0.0);
  std::vector<Clock::time_point> due_at(n);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    due_at[i] = due ? t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>((*due)[i]))
                    : t0;
  }

  std::string write_error;
  std::thread writer([&] {
    try {
      if (due) {
        for (std::size_t i = 0; i < n; ++i) {
          std::this_thread::sleep_until(due_at[i]);
          out.late_ms[i] =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        due_at[i])
                  .count();
          daemon.pipe().write_line(stream.lines[i].text);
        }
      } else {
        std::string all;
        for (const Line& line : stream.lines) {
          if (!all.empty()) all += '\n';
          all += line.text;
        }
        std::this_thread::sleep_until(t0);
        daemon.pipe().write_line(all);
      }
    } catch (const std::exception& e) {
      write_error = e.what();
    }
  });

  std::string line;
  std::string read_error;
  Clock::time_point last = t0;
  try {
    net::Connection& pipe = daemon.pipe();
    for (std::size_t i = 0; i < n && pipe.read_line(&line); ++i) {
      last = Clock::now();
      out.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(last - due_at[i]).count());
      out.bytes_out += line.size() + 1;
      out.responses.push_back(std::move(line));
    }
  } catch (const std::exception& e) {
    read_error = e.what();
  }
  writer.join();
  out.wall_s = std::chrono::duration<double>(last - t0).count();

  if (read_error.empty()) {
    try {
      net::Connection& pipe = daemon.pipe();
      pipe.write_line(R"({"id":"metrics","cmd":"metrics"})");
      if (pipe.read_line(&line)) out.metrics = io::parse(line).at("metrics");
      if (traced) {
        pipe.write_line(R"({"id":"trace","cmd":"trace"})");
        if (pipe.read_line(&line)) {
          out.trace_dropped =
              io::parse(line).at("trace").at("dropped").as_number();
        }
      }
    } catch (const std::exception& e) {
      read_error = e.what();
    }
  }
  out.exit_status = daemon.finish();
  out.pipe_error = write_error.empty() ? read_error : write_error;
  return out;
}

/// Checks every response of a session; returns how many evaluate answers
/// were served a batch answer that is not bit-identical (see
/// check_response).
std::size_t check_session(const Stream& stream, Session& session,
                          const References& refs, Gate& gate,
                          const std::string& tag) {
  std::size_t nonbitwise = 0;
  gate.attempt(stream.lines.size());
  for (std::size_t i = 0; i < stream.lines.size(); ++i) {
    const std::string problem =
        i < session.responses.size()
            ? check_response(stream.lines[i], session.responses[i], refs,
                             &nonbitwise)
            : "no response";
    if (!problem.empty()) {
      gate.fail(tag + " line " + std::to_string(i) + ": " + problem);
      if (i < session.latency_ms.size()) {
        session.latency_ms[i] = kFailedLatencyMs;
      }
    }
  }
  for (std::size_t i = session.latency_ms.size(); i < stream.lines.size();
       ++i) {
    session.latency_ms.push_back(kFailedLatencyMs);
  }
  if (session.exit_status != 0) {
    gate.fail_extra(tag + ": vpdd exited with status " +
                    std::to_string(session.exit_status));
  }
  if (!session.pipe_error.empty()) {
    gate.fail_extra(tag + ": " + session.pipe_error);
  }
  return nonbitwise;
}

double counter(const io::Value& metrics, const char* name) {
  if (metrics.is_null()) return 0.0;
  const io::Value* v = metrics.at("counters").find(name);
  return v == nullptr ? 0.0 : v->as_number();
}

}  // namespace

Result run_vpdd_mixed(const Args& args) {
  signal(SIGPIPE, SIG_IGN);
  Result result;

  // --- Inputs ----------------------------------------------------------------
  const double open_loop_s = kOpenLoopShare * args.seconds;
  std::mt19937_64 arrivals(args.seed ^ 0xa5a5a5a5ULL);
  std::exponential_distribution<double> gap(kOfferedRate);
  std::vector<double> due;
  for (double t = gap(arrivals); t < open_loop_s; t += gap(arrivals)) {
    due.push_back(t);
  }
  const Stream open_stream = StreamGenerator(args.seed).make(due.size(), 1);
  const Stream burst_stream =
      StreamGenerator(args.seed ^ 0xb0b57ULL).make(kBurstLines, 1);

  // In-process reference answers, computed before anything is timed.
  const References refs =
      make_references({&open_stream, &burst_stream}, args.threads);

  // Set-up: start a daemon and wait for the answer to its first request.
  Stream first;
  first.lines.push_back(open_stream.lines.front());
  SetupTimer setup([&] { run_session(args, first, nullptr, false, "setup"); });
  setup.sample(3);

  // --- Measurement -----------------------------------------------------------
  // A warm-up burst first (checked, not timed), then the timed bursts,
  // then the open loop: after a light phase the host needs a moment under
  // load before latencies settle, so no timed phase follows a light one.
  // Each session is checked as soon as it ends.
  std::size_t nonbitwise = 0;
  double dropped = 0.0;
  const auto check = [&](Session& s, const Stream& stream,
                         const std::string& tag) {
    nonbitwise += check_session(stream, s, refs, result.gate, tag);
    dropped += s.trace_dropped;
    s.responses = {};
  };
  {
    Session warmup = run_session(args, burst_stream, nullptr, false, "warmup");
    check(warmup, burst_stream, "warm-up burst");
  }
  std::vector<double> traced_burst_s;
  std::vector<double> untraced_burst_s;
  double burst_spent = 0.0;
  const double burst_budget = args.seconds - open_loop_s;
  for (std::size_t k = 0;; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    Session s = run_session(args, burst_stream, nullptr, traced,
                            "burst" + std::to_string(k));
    burst_spent += s.wall_s;
    if (traced) {
      traced_burst_s.push_back(s.wall_s);
    } else {
      untraced_burst_s.push_back(s.wall_s);
    }
    check(s, burst_stream, "burst " + std::to_string(k));
    if (!traced) setup.sample();
    if (burst_spent >= burst_budget && untraced_burst_s.size() >= kMinBursts &&
        (!args.trace || traced_burst_s.size() >= kMinBursts)) {
      break;
    }
  }
  Session open = run_session(args, open_stream, &due, args.trace, "open");
  std::map<std::string, std::size_t> statuses;
  for (const std::string& response : open.responses) {
    const io::Value doc = io::parse(response);
    const io::Value* status = doc.find("status");
    ++statuses[status != nullptr && status->is_string() ? status->as_string()
                                                         : "missing"];
  }
  const std::size_t burst_nonbitwise = nonbitwise;
  check(open, open_stream, "open loop");
  const std::size_t open_nonbitwise = nonbitwise - burst_nonbitwise;
  if (nonbitwise != 0) {
    std::fprintf(stderr,
                 "perfbench: vpdd_mixed: %zu evaluate answers were cached "
                 "batch answers, within tolerance but not bit-identical to "
                 "a lone evaluation\n",
                 nonbitwise);
  }
  if (counter(open.metrics, "serve.rejected") != 0.0) {
    result.gate.fail_extra("the open-loop daemon rejected requests");
  }

  // --- Metrics ---------------------------------------------------------------
  result.end_to_end["items_per_s"] =
      steady_rate(static_cast<double>(kBurstLines), untraced_burst_s);
  result.end_to_end["setup_s"] = setup.median_seconds();
  const double p50_ms = median(open.latency_ms);
  std::vector<double> window_p99;
  const std::size_t window = open.latency_ms.size() / kLatencyWindows;
  for (std::size_t w = 0; w < kLatencyWindows; ++w) {
    const auto begin = open.latency_ms.begin() + w * window;
    window_p99.push_back(
        percentile(std::vector<double>(begin, begin + window), 0.99));
  }
  const double p99_ms = median(window_p99);
  // The daemon's memory, not the load generator's.
  result.end_to_end["peak_rss_mb"] = peak_rss_mb(/*children=*/true);

  std::uint64_t digest = fnv1a("");
  for (const Line& line : open_stream.lines) digest = fnv1a(line.text, digest);
  std::uint64_t answers = fnv1a("");
  for (const Line& line : open_stream.lines) {
    for (const std::string& m : line.members) {
      answers = fnv1a(refs.at(m).dump, answers);
    }
  }
  result.deterministic.set("stream_digest", hex64(digest));
  result.deterministic.set("output_digest", hex64(answers));
  result.deterministic.set("open_loop_lines", open_stream.lines.size());
  // Which submits evaluate and which hit the result cache depends on
  // when each evaluate_batch resolves, so serve.evaluated is not among the
  // deterministic counters; the answers and their statuses are.
  result.deterministic.set("serve.requests",
                           counter(open.metrics, "serve.requests"));
  result.deterministic.set("serve.batch.requests",
                           counter(open.metrics, "serve.batch.requests"));
  for (const auto& [status, n] : statuses) {
    result.deterministic.set("responses." + status, n);
  }

  result.record.set("offered_rate_rps", kOfferedRate);
  result.record.set("open_loop_lines", open_stream.lines.size());
  result.record.set("open_loop_evaluations", open_stream.evaluations);
  result.record.set("open_loop_repeat_share", open_stream.repeat_share());
  result.record.set("burst_lines", kBurstLines);
  result.record.set("burst_repeat_share", burst_stream.repeat_share());
  result.record.set("bursts", untraced_burst_s.size());
  result.record.set("setup_samples", setup.samples());
  result.record.set("latency_samples", open.latency_ms.size());
  result.record.set("open_loop_p50_ms", p50_ms);
  result.record.set("open_loop_p99_ms", p99_ms);
  result.record.set("distinct_requests", refs.size());
  result.record.set("batch_cache_nonbitwise", nonbitwise);

  if (args.trace) {
    std::map<std::string, double>& L = result.layers;
    const io::Value& m = open.metrics;
    TraceAggregate trace;
    {
      std::ifstream in(open.trace_path);
      std::stringstream text;
      text << in.rdbuf();
      trace.add(events_from_ndjson(text.str()));
    }
    const double hits = counter(m, "mesh_cache.hits");
    const double misses = counter(m, "mesh_cache.misses");
    const double factorizations = counter(m, "solver.precond_factorizations");
    const double reuses = counter(m, "solver.precond_reuses");
    const double cache_hits = counter(m, "serve.result_cache_hits");
    const double cache_misses = counter(m, "serve.result_cache_misses");
    L["package.mesh_assemblies"] = misses;
    L["package.mesh_assemble_s"] = trace.span("mesh.assemble").total_s;
    L["package.mesh_cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
    L["package.irdrop_self_s"] = trace.span("irdrop.solve").self_total_s +
                                 trace.span("irdrop.solve_batch").self_total_s;
    L["common.precond_factorizations"] = factorizations;
    L["common.precond_reuse_ratio"] =
        reuses / std::max(1.0, factorizations + reuses);
    L["common.cg_solves"] = counter(m, "solver.cg_solves");
    L["common.cg_iterations"] = counter(m, "solver.cg_iterations");
    L["common.cg_s"] =
        trace.span("solve.cg").total_s + trace.span("solve.cg_block").total_s;
    const double batch_members = counter(m, "serve.batch.requests");
    L["core.dedup_ratio"] = counter(m, "serve.batch.deduped_solves") /
                            std::max(1.0, batch_members);
    L["core.panel_columns"] = counter(m, "serve.batch.panel_columns");
    L["arch.evaluations"] =
        static_cast<double>(trace.span("vpd.evaluate").count);
    L["arch.evaluate_self_ms_p50"] =
        median(trace.span("vpd.evaluate").self_s) * 1e3;
    L["sweep.utilization"] =
        trace.busy_seconds() /
        (open.wall_s * static_cast<double>(daemon_threads(args)));
    L["serve.queue_wait_ms_p99"] =
        percentile(trace.span("serve.queue_wait").dur_s, 0.99) * 1e3;
    L["serve.evaluated"] = counter(m, "serve.evaluated");
    L["serve.coalesced"] = counter(m, "serve.coalesced");
    L["serve.result_cache_hit_ratio"] =
        cache_hits / std::max(1.0, cache_hits + cache_misses);
    L["serve.rejected"] = counter(m, "serve.rejected");
    L["serve.p50_ms"] = p50_ms;
    L["serve.p99_ms"] = p99_ms;
    L["serve.batch_cache_nonbitwise"] = static_cast<double>(open_nonbitwise);
    L["obs.trace_overhead"] = median(traced_burst_s) / median(untraced_burst_s);
    L["obs.dropped_events"] = dropped;
    if (dropped != 0.0) {
      result.gate.fail_extra("vpdd dropped trace events");
    }
    L["bench.gen_late_ms_p99"] = percentile(open.late_ms, 0.99);

    // io: parse + schema of every open-loop line, and to_json + dump of
    // the in-process response to every evaluate line, timed here.
    double parse_s = 0.0;
    for (const Line& line : open_stream.lines) {
      const auto start = Clock::now();
      try {
        const io::Value doc = io::parse(line.text);
        if (line.kind == Line::Kind::kBatch) {
          for (const io::Value& r : doc.at("requests").as_array()) {
            io::evaluation_request_from_json(r);
          }
        } else {
          io::evaluation_request_from_json(doc);
        }
      } catch (const std::exception&) {
        // Invalid lines fail here, as they do in the daemon.
      }
      parse_s += seconds_since(start);
    }
    double serialize_s = 0.0;
    std::size_t serialized = 0;
    for (const Line& line : open_stream.lines) {
      if (line.kind != Line::Kind::kEvaluate) continue;
      const Reference& ref = refs.at(line.members.front());
      if (ref.entry == nullptr) continue;
      const auto start = Clock::now();
      serve::ServiceResponse response;
      response.status = ref.entry->excluded() ? serve::ResponseStatus::kExcluded
                                              : serve::ResponseStatus::kOk;
      response.entry = ref.entry;
      [[maybe_unused]] const std::string body =
          io::dump(serve::to_json(response));
      serialize_s += seconds_since(start);
      ++serialized;
    }
    L["io.parse_us"] =
        parse_s / static_cast<double>(open_stream.lines.size()) * 1e6;
    L["io.serialize_us"] =
        serialize_s / std::max<double>(1.0, static_cast<double>(serialized)) *
        1e6;
    L["io.bytes_out"] = static_cast<double>(open.bytes_out);
    result.record.set("trace_events", trace.events());
  }
  return result;
}

}  // namespace perfbench
