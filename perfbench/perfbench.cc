// The repository benchmark: one process runs one workload.
//
//   perfbench --workload <power|adhoc-sql|serving|pressure> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Phases: set-up (repeated kSetupReps times, median reported), a timed
// phase with tracing off, reference results computed outside every timed
// interval, and a traced pass. The last stdout line is the result JSON:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// See README.md for what each workload and metric means.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/query_catalog.h"
#include "api/session.h"
#include "common/cpu_info.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/perf_counters.h"
#include "runtime/resource_governor.h"
#include "runtime/trace.h"
#include "sql/reference_queries.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace rt = vcq::runtime;
using vcq::Engine;
using vcq::PreparedQuery;
using vcq::Query;
using vcq::Session;

constexpr double kScaleFactor = 1.0;
// Set-up is short next to the timed phase, so it is repeated and its
// median reported: a single sample of it would be mostly noise.
constexpr size_t kSetupReps = 3;
// Below Q9's and Q18's in-memory peak (~107 / ~68 MB) and above Q3's
// (~18 MB): Q9/Q18 descend to the spill rung while Q3 fits.
constexpr size_t kPressureBudget = size_t{24} << 20;
// serving's open-loop rate: well below the point where the short backlog
// grows on a 4-core machine while the long stream runs at QueryThreads().
// Two senders keep the short queries in flight at one, rarely two, so the
// mix never runs more query threads than there are cores.
constexpr double kShortRatePerSec = 20;
constexpr size_t kShortSenders = 2;
// A run is invalid when the short stream's in-flight count at the end
// exceeds the count at the middle by more than this.
constexpr size_t kBacklogSlack = 4;
constexpr size_t kAloneRepsPerClass = 10;
constexpr double kServingTracedSeconds = 2;
// Runs of each hand-plan reference behind sql.vs_hand's denominator.
constexpr size_t kHandReps = 5;
constexpr double kMiB = 1024.0 * 1024.0;

uint64_t NowNs() { return rt::QueryTrace::NowNs(); }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
const char* EngineKey(Engine e) {
  return e == Engine::kTyper ? "typer" : "tectorwise";
}

// ---------------------------------------------------------------------------
// Metric tables. The output carries exactly these names; run.py checks them
// against BENCHMARK.json.
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};

const std::vector<Query> kAllQueries = {
    Query::kQ1,     Query::kQ6,     Query::kQ3,     Query::kQ9,    Query::kQ18,
    Query::kSsbQ11, Query::kSsbQ21, Query::kSsbQ31, Query::kSsbQ41};
const std::vector<Query> kJoinQueries = {Query::kQ3, Query::kQ9, Query::kQ18,
                                         Query::kSsbQ21, Query::kSsbQ41};
const std::vector<Query> kSqlJoinRowQueries = {
    Query::kQ3, Query::kQ9, Query::kQ18, Query::kSsbQ31, Query::kSsbQ41};
const std::vector<std::string> kOperatorKinds = {"scan", "select", "map",
                                                 "join", "group", "agg"};

std::vector<MetricDef> EndToEndMetrics() {
  return {{"setup_s", "s", "lower"},
          {"throughput_qps", "1/s", "higher"},
          {"geomean_ms", "ms", "lower"},
          {"peak_query_mb", "MB", "lower"}};
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> m = {
      {"datagen.tpch_s", "s", "lower"},
      {"datagen.ssb_s", "s", "lower"},
      {"api.prepare_ms", "ms", "lower"},
      {"api.first_execute_ms", "ms", "lower"},
      {"sql.catalog_ms", "ms", "lower"},
      {"sql.prepare_ms.p50", "ms", "lower"},
      {"sql.prepare_ms.tail", "ms", "lower"},
      {"sql.parse_us", "us", "lower"},
      {"sql.bind_us", "us", "lower"},
      {"sql.optimize_us", "us", "lower"},
      {"sql.lower_us", "us", "lower"}};
  for (Query q : kAllQueries)
    m.push_back({std::string("sql.vs_hand.") + vcq::QueryName(q), "ratio",
                 "lower"});
  for (Query q : kSqlJoinRowQueries)
    m.push_back({std::string("sql.join_rows.") + vcq::QueryName(q), "count",
                 "lower"});
  for (const char* name :
       {"sched.admission_wait_ms.p50", "sched.admission_wait_ms.tail",
        "sched.gang_wait_ms.p50", "sched.gang_wait_ms.tail"})
    m.push_back({name, "ms", "lower"});
  m.push_back({"sched.queue_depth_max", "count", "lower"});
  m.push_back({"sched.short_interference", "ratio", "lower"});
  m.push_back({"serving.short_p50_ms", "ms", "lower"});
  m.push_back({"serving.short_tail_ms", "ms", "lower"});
  m.push_back({"serving.long_qps", "1/s", "higher"});
  m.push_back({"loadgen.lag_ms.tail", "ms", "lower"});
  m.push_back({"loadgen.inflight_mid", "count", "lower"});
  m.push_back({"loadgen.inflight_end", "count", "lower"});
  for (Engine e : {Engine::kTyper, Engine::kTectorwise})
    for (Query q : kJoinQueries)
      m.push_back({std::string("join.build_ms.") + EngineKey(e) + "." +
                       vcq::QueryName(q),
                   "ms", "lower"});
  for (Engine e : {Engine::kTyper, Engine::kTectorwise})
    for (Query q : kJoinQueries)
      m.push_back({std::string("join.probe_ms.") + EngineKey(e) + "." +
                       vcq::QueryName(q),
                   "ms", "lower"});
  for (Engine e : {Engine::kTyper, Engine::kTectorwise})
    m.push_back({std::string("join.build_ns_per_row.") + EngineKey(e), "ns",
                 "lower"});
  m.push_back({"join.builds_q1_q6", "count", "lower"});
  for (Engine e : {Engine::kTyper, Engine::kTectorwise})
    for (Query q : {Query::kQ9, Query::kQ18})
      m.push_back({std::string("spill.mb.") + EngineKey(e) + "." +
                       vcq::QueryName(q),
                   "MB", "lower"});
  m.push_back({"spill.write_ms", "ms", "lower"});
  m.push_back({"spill.read_ms", "ms", "lower"});
  m.push_back({"governor.trips", "count", "lower"});
  m.push_back({"ladder.rung_mean", "rung", "lower"});
  for (const std::string& kind : kOperatorKinds)
    m.push_back({"tw.self_ms." + kind, "ms", "lower"});
  for (Query q : kAllQueries)
    m.push_back({std::string("tw.density.") + vcq::QueryName(q), "ratio",
                 "higher"});
  for (Engine e : {Engine::kTyper, Engine::kTectorwise})
    for (Query q : kAllQueries)
      m.push_back({std::string("latency_ms.") + EngineKey(e) + "." +
                       vcq::QueryName(q),
                   "ms", "lower"});
  for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
    m.push_back({std::string("geomean_ms.") + EngineKey(e), "ms", "lower"});
    m.push_back({std::string("exec.busy_frac.") + EngineKey(e), "ratio",
                 "higher"});
    m.push_back({std::string("exec.serial_ms.") + EngineKey(e), "ms",
                 "lower"});
  }
  m.push_back({"trace.overhead", "ratio", "lower"});
  m.push_back({"trace.accounted_frac", "ratio", "higher"});
  return m;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans around its calls into each layer. Kept in memory;
// written out with the program's spans when the run ends.
// ---------------------------------------------------------------------------

struct BenchSpan {
  std::string name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t tid;
};

class SpanLog {
 public:
  void Add(std::string name, uint64_t start_ns, uint64_t end_ns,
           uint32_t tid = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns, tid});
  }
  std::vector<BenchSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;  // guarded by mu_
};

// Runs fn inside a benchmark span and returns its duration in ns.
template <typename F>
uint64_t Span(SpanLog& log, std::string name, F&& fn) {
  const uint64_t start = NowNs();
  fn();
  const uint64_t end = NowNs();
  log.Add(std::move(name), start, end);
  return end - start;
}

// ---------------------------------------------------------------------------
// Set-up: datagen, sessions, SQL catalog, Prepare, one warm-up per handle.
// ---------------------------------------------------------------------------

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// Timed queries run on half the cores. On a virtual machine that shares its
// host, a query as wide as the machine waits for every core another tenant
// holds (steal time): power's throughput spread 20% between runs at nproc
// threads, 5-9% at nproc / 2.
size_t QueryThreads() { return std::max<size_t>(1, Nproc() / 2); }

struct World {
  std::unique_ptr<rt::Database> tpch;
  std::unique_ptr<rt::Database> ssb;
  std::unique_ptr<Session> tpch_session;
  std::unique_ptr<Session> ssb_session;
  std::unique_ptr<Session> short_session;  // serving only
  std::vector<PreparedQuery> handles;        // per spec.classes
  std::vector<PreparedQuery> short_handles;  // per spec.short_classes

  Session& SessionFor(Query q) const {
    return vcq::IsSsbQuery(q) ? *ssb_session : *tpch_session;
  }
};

struct SetupTimes {
  double total_s = 0;
  double tpch_s = 0;
  double ssb_s = 0;
  double catalog_ms = 0;
  double prepare_ms = 0;
  double first_execute_ms = 0;
};

rt::QueryOptions HandleOptions(Workload w, bool short_stream = false) {
  rt::QueryOptions opt;
  opt.threads = short_stream ? 1 : QueryThreads();
  if (w == Workload::kPressure) opt.memory_budget = kPressureBudget;
  return opt;
}

void Apply(PreparedQuery& q, const Bindings& bindings) {
  for (const Binding& b : bindings) {
    if (b.type == rt::ParamType::kInt)
      q.Set(b.name, b.int_value);
    else
      q.Set(b.name, b.text);
  }
}

// One execution of a prepared (catalog or SQL) handle as the workload
// sends it.
rt::QueryResult Execute(Workload w, PreparedQuery& q, const Bindings& b) {
  if (w == Workload::kPressure) {
    Apply(q, b);
    return q.ExecuteWithDegradation();
  }
  return q.Execute(ToParams(b));
}

SetupTimes SetUp(const WorkloadSpec& spec, World& world, SpanLog& log) {
  SetupTimes t;
  const Workload w = spec.workload;
  const uint64_t start = NowNs();
  t.tpch_s = Ms(Span(log, "datagen.tpch", [&] {
               world.tpch = std::make_unique<rt::Database>(
                   vcq::datagen::GenerateTpch(kScaleFactor));
             })) /
             1e3;
  if (spec.needs_ssb) {
    t.ssb_s = Ms(Span(log, "datagen.ssb", [&] {
                world.ssb = std::make_unique<rt::Database>(
                    vcq::datagen::GenerateSsb(kScaleFactor));
              })) /
              1e3;
  }
  Span(log, "api.sessions", [&] {
    world.tpch_session = std::make_unique<Session>(*world.tpch);
    if (world.ssb) world.ssb_session = std::make_unique<Session>(*world.ssb);
    if (w == Workload::kServing)
      world.short_session = std::make_unique<Session>(*world.tpch);
  });

  if (w == Workload::kAdhocSql) {
    // The first PrepareSql of a session builds its catalog statistics.
    for (Session* s : {world.tpch_session.get(), world.ssb_session.get()}) {
      const Query q = s == world.tpch_session.get() ? Query::kQ6
                                                    : Query::kSsbQ11;
      t.catalog_ms += Ms(Span(log, "sql.catalog", [&] {
        s->PrepareSql(vcq::sql::SqlTextFor(vcq::QueryName(q)),
                      Engine::kTectorwise, HandleOptions(w));
      }));
    }
  }

  for (const RequestClass& c : spec.classes) {
    t.prepare_ms += Ms(Span(log, "api.prepare " + c.name, [&] {
      Session& s = world.SessionFor(c.query);
      world.handles.push_back(
          w == Workload::kAdhocSql
              ? s.PrepareSql(vcq::sql::SqlTextFor(vcq::QueryName(c.query)),
                             Engine::kTectorwise, HandleOptions(w))
              : s.Prepare(c.engine, c.query, HandleOptions(w)));
    }));
  }
  for (const RequestClass& c : spec.short_classes) {
    t.prepare_ms += Ms(Span(log, "api.prepare " + c.name, [&] {
      world.short_handles.push_back(world.short_session->Prepare(
          c.engine, c.query, HandleOptions(w, /*short_stream=*/true)));
    }));
  }
  const auto warm = [&](const std::vector<RequestClass>& classes,
                        std::vector<PreparedQuery>& handles) {
    for (size_t i = 0; i < classes.size(); ++i) {
      t.first_execute_ms += Ms(Span(log, "api.first_execute " + classes[i].name,
                                    [&] {
                                      Execute(w, handles[i],
                                              spec.BindingsFor(
                                                  classes[i].query, 0));
                                    }));
    }
  };
  warm(spec.classes, world.handles);
  warm(spec.short_classes, world.short_handles);
  t.total_s = Ms(NowNs() - start) / 1e3;
  log.Add("setup", start, NowNs());
  return t;
}

// One execution whose trace the per-layer arithmetic reads.
struct TracedRun {
  RequestClass cls;
  rt::QueryResult result;
  uint64_t call_start = 0;
  uint64_t call_end = 0;
  size_t threads = 1;
  double untraced_ms = 0;  // the class's median in the timed phase
};

// ---------------------------------------------------------------------------
// Timed phase.
// ---------------------------------------------------------------------------

uint64_t Digest(const rt::QueryResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = Fnv1a(h, std::to_string(static_cast<int>(r.status)));
  for (const std::string& c : r.column_names) h = Fnv1a(h, c);
  for (const auto& row : r.rows)
    for (const std::string& v : row) h = Fnv1a(h, v);
  return h;
}

struct Sample {
  bool is_short = false;
  uint32_t cls = 0;
  uint32_t binding = 0;
  double latency_ms = 0;  // what the client waited (closed loop) or
                          // completion minus due time (open loop)
  double prepare_ms = 0;  // adhoc-sql: the PrepareSql part
  double execute_ms = 0;  // adhoc-sql: the Execute part
  bool ok = false;
  uint8_t rung = 0;
  uint64_t digest = 0;
  OpenLoopSample open;  // serving short stream only
  uint64_t start_ns = 0;  // the client's call, on the trace clock
  uint64_t end_ns = 0;
};

struct TimedPhase {
  std::vector<Sample> samples;
  std::map<uint32_t, Request> first_request;  // closed-loop / long classes
  // Closed-loop (serving: long) completions in whole rounds, and the time
  // from the start to the end of the last whole round: throughput_qps.
  size_t closed_done = 0;
  double elapsed_s = 0;
  double peak_mb = 0;
  // serving only
  size_t inflight_mid = 0;
  size_t inflight_end = 0;
  size_t queue_depth_max = 0;
};

size_t QueueDepth() {
  const std::string snap = Session::MetricsSnapshot();
  const std::string key = "\"vcq.sched.queue_depth\":";
  const size_t pos = snap.find(key);
  return pos == std::string::npos
             ? 0
             : std::strtoull(snap.c_str() + pos + key.size(), nullptr, 10);
}

// Counts closed-loop completions for throughput_qps. Only whole rounds
// count: a round runs every class once, and a partial last round would
// weigh the classes it happened to reach (SQL Q9 is half an adhoc-sql
// round). A run too short for one round counts what it completed.
class RoundCount {
 public:
  RoundCount(size_t classes, uint64_t start)
      : classes_(classes), start_(start), last_(start), round_end_(start) {}

  void Done(uint64_t end) {
    last_ = end;
    if (++done_ % classes_ == 0) {
      in_rounds_ = done_;
      round_end_ = end;
    }
  }
  size_t completions() const { return in_rounds_ > 0 ? in_rounds_ : done_; }
  double seconds() const {
    return Ms((in_rounds_ > 0 ? round_end_ : last_) - start_) / 1e3;
  }

 private:
  size_t classes_;
  uint64_t start_, last_, round_end_;
  size_t done_ = 0, in_rounds_ = 0;
};

// One closed-loop request: runs it and fills in the sample.
Sample RunClosed(const WorkloadSpec& spec, World& world,
                 const std::vector<PreparedQuery>& handles, const Request& r,
                 SpanLog& log, uint32_t tid,
                 rt::QueryResult* keep = nullptr) {
  const Workload w = spec.workload;
  const RequestClass& c = spec.classes[r.cls];
  const Bindings& b = spec.BindingsFor(c.query, r.binding);
  Sample s;
  s.cls = r.cls;
  s.binding = r.binding;
  const uint64_t start = NowNs();
  rt::QueryResult result;
  if (w == Workload::kAdhocSql) {
    PreparedQuery q = world.SessionFor(c.query).PrepareSql(
        r.sql, Engine::kTectorwise, HandleOptions(w));
    const uint64_t prepared = NowNs();
    s.prepare_ms = Ms(prepared - start);
    result = q.Execute(ToParams(b));
    s.execute_ms = Ms(NowNs() - prepared);
  } else {
    PreparedQuery q = handles[r.cls];
    result = Execute(w, q, b);
  }
  const uint64_t end = NowNs();
  log.Add("request " + c.name, start, end, tid);
  s.latency_ms = Ms(end - start);
  s.ok = result.ok();
  s.rung = result.degraded_rung;
  s.digest = Digest(result);
  s.start_ns = start;
  s.end_ns = end;
  if (keep != nullptr) *keep = std::move(result);
  return s;
}

TimedPhase RunClosedLoop(const WorkloadSpec& spec, World& world,
                         double seconds, SpanLog& log) {
  TimedPhase phase;
  RequestStream stream = spec.Stream();
  rt::ResourceGovernor::Global().ResetPeak();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  RoundCount rounds(spec.classes.size(), start);
  uint64_t last_end = start;
  while (NowNs() < deadline) {
    const Request r = stream.Next();
    phase.first_request.emplace(r.cls, r);
    phase.samples.push_back(RunClosed(spec, world, world.handles, r, log, 0));
    last_end = NowNs();
    rounds.Done(last_end);
  }
  phase.peak_mb = rt::ResourceGovernor::Global().peak() / kMiB;
  phase.closed_done = rounds.completions();
  phase.elapsed_s = rounds.seconds();
  log.Add("timed_phase", start, last_end);
  return phase;
}

// serving: a closed-loop long client plus an open-loop short stream at
// kShortRatePerSec, sent by a pool of sender threads so a slow request
// does not delay the next one's send.
// A non-null `keep` collects every result with its call interval (the
// traced replay).
TimedPhase RunServing(const WorkloadSpec& spec, World& world,
                      const std::vector<PreparedQuery>& long_handles,
                      const std::vector<PreparedQuery>& short_handles,
                      double seconds, SpanLog& log,
                      std::vector<TracedRun>* keep = nullptr) {
  TimedPhase phase;
  std::mutex mu;  // guards phase.samples, queue, busy, stop
  std::condition_variable cv;
  struct Due {
    Request r;
    uint64_t due_ns;
  };
  std::deque<Due> queue;
  size_t busy = 0;
  bool stop = false;

  rt::ResourceGovernor::Global().ResetPeak();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const auto ms_since_start = [start](uint64_t t) { return Ms(t - start); };

  std::vector<std::thread> senders;
  for (size_t i = 0; i < kShortSenders; ++i) {
    senders.emplace_back([&, tid = static_cast<uint32_t>(2 + i)] {
      for (;;) {
        Due d;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return stop || !queue.empty(); });
          if (queue.empty()) return;
          d = queue.front();
          queue.pop_front();
          ++busy;
        }
        const RequestClass& c = spec.short_classes[d.r.cls];
        const uint64_t sent = NowNs();
        PreparedQuery q = short_handles[d.r.cls];
        rt::QueryResult result =
            q.Execute(ToParams(spec.BindingsFor(c.query, d.r.binding)));
        const uint64_t done = NowNs();
        log.Add("short " + c.name, sent, done, tid);
        Sample s;
        s.is_short = true;
        s.cls = d.r.cls;
        s.binding = d.r.binding;
        s.open = {ms_since_start(d.due_ns), ms_since_start(sent),
                  ms_since_start(done)};
        s.latency_ms = s.open.latency_ms();
        s.ok = result.ok();
        s.digest = Digest(result);
        std::lock_guard<std::mutex> lock(mu);
        --busy;
        phase.samples.push_back(s);
        if (keep != nullptr)
          keep->push_back({c, std::move(result), sent, done,
                           q.options().threads});
      }
    });
  }

  std::thread long_client([&] {
    RequestStream stream = spec.Stream();
    RoundCount rounds(spec.classes.size(), start);
    while (NowNs() < deadline) {
      const Request r = stream.Next();
      {
        std::lock_guard<std::mutex> lock(mu);
        phase.first_request.emplace(r.cls, r);
      }
      rt::QueryResult result;
      Sample s = RunClosed(spec, world, long_handles, r, log, 1, &result);
      rounds.Done(s.end_ns);
      std::lock_guard<std::mutex> lock(mu);
      phase.samples.push_back(s);
      if (keep != nullptr)
        keep->push_back({spec.classes[r.cls], std::move(result), s.start_ns,
                         s.end_ns, long_handles[r.cls].options().threads});
    }
    phase.closed_done = rounds.completions();
    phase.elapsed_s = rounds.seconds();
  });

  // The dispatcher: request i is due at start + i / rate.
  RequestStream short_stream = spec.ShortStream();
  const double interval_ns = 1e9 / kShortRatePerSec;
  bool mid_sampled = false;
  uint64_t next_depth_sample = start;
  for (size_t i = 0;; ++i) {
    const uint64_t due = start + static_cast<uint64_t>(i * interval_ns);
    if (due >= deadline) break;
    while (NowNs() < due) {
      if (NowNs() >= next_depth_sample) {
        phase.queue_depth_max = std::max(phase.queue_depth_max, QueueDepth());
        next_depth_sample = NowNs() + 50'000'000;
      }
      const uint64_t now = NowNs();
      if (due > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<uint64_t>(due - now, 5'000'000)));
    }
    const Request r = short_stream.Next();
    std::lock_guard<std::mutex> lock(mu);
    if (!mid_sampled && due >= start + (deadline - start) / 2) {
      phase.inflight_mid = queue.size() + busy;
      mid_sampled = true;
    }
    queue.push_back({r, due});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    phase.inflight_end = queue.size() + busy;
    stop = true;
  }
  cv.notify_all();
  for (std::thread& t : senders) t.join();
  long_client.join();
  phase.peak_mb = rt::ResourceGovernor::Global().peak() / kMiB;
  log.Add("timed_phase", start, NowNs());
  return phase;
}

// ---------------------------------------------------------------------------
// References, computed after the timed phase, outside every timed interval.
// ---------------------------------------------------------------------------

struct Check {
  size_t attempted = 0;
  size_t failed = 0;
  bool references_agree = true;
  // adhoc-sql: catalog Tectorwise median wall ms per (query, binding),
  // for sql.vs_hand.
  std::map<std::pair<Query, uint32_t>, double> hand_ms;
  std::vector<std::string> problems;
};

// The engines whose catalog plans serve as the reference: the SQL texts
// are checked against the hand-built Tectorwise plan; everything else
// against Typer and Tectorwise, which must agree with each other.
std::vector<Engine> ReferenceEngines(Workload w) {
  if (w == Workload::kAdhocSql) return {Engine::kTectorwise};
  return {Engine::kTyper, Engine::kTectorwise};
}

// Each reference runs `hand_reps` times; hand_ms is the median.
Check CheckResults(const WorkloadSpec& spec, World& world,
                   const TimedPhase& phase, size_t hand_reps, SpanLog& log) {
  Check check;
  const auto query_of = [&](const Sample& s) {
    return (s.is_short ? spec.short_classes : spec.classes)[s.cls].query;
  };
  std::set<std::pair<Query, uint32_t>> keys;
  for (const Sample& s : phase.samples) keys.insert({query_of(s), s.binding});

  // In-memory handles at full width, no budget: on pressure this is the
  // in-memory run the spilled results must equal.
  std::map<std::pair<Engine, Query>, PreparedQuery> refs;
  std::map<std::pair<Query, uint32_t>, uint64_t> expected;
  for (const auto& key : keys) {
    std::optional<uint64_t> agreed;
    for (Engine e : ReferenceEngines(spec.workload)) {
      auto it = refs.find({e, key.first});
      if (it == refs.end()) {
        rt::QueryOptions opt;
        opt.threads = Nproc();
        it = refs.emplace(std::make_pair(e, key.first),
                          world.SessionFor(key.first).Prepare(e, key.first,
                                                              opt))
                 .first;
      }
      const std::string name = std::string("reference ") + EngineKey(e) +
                               "." + vcq::QueryName(key.first);
      std::vector<double> wall_ms;
      for (size_t rep = 0; rep < hand_reps; ++rep) {
        rt::QueryResult r;
        // Timed as the SQL requests' Execute part is, from the client.
        wall_ms.push_back(Ms(Span(log, name, [&] {
          r = it->second.Execute(
              ToParams(spec.BindingsFor(key.first, key.second)));
        })));
        const uint64_t d = Digest(r);
        if (!r.ok() || (agreed && *agreed != d)) {
          check.references_agree = false;
          check.problems.push_back(name + " disagrees (" +
                                   ToString(spec.BindingsFor(key.first,
                                                             key.second)) +
                                   ")");
        }
        if (!agreed) agreed = d;
      }
      if (e == Engine::kTectorwise) check.hand_ms[key] = Median(wall_ms);
    }
    expected[key] = *agreed;
  }
  for (const Sample& s : phase.samples) {
    ++check.attempted;
    const auto key = std::make_pair(query_of(s), s.binding);
    if (!s.ok || s.digest != expected[key] || !check.references_agree) {
      ++check.failed;
      if (check.problems.size() < 10)
        check.problems.push_back(
            std::string(s.ok ? "result mismatch: " : "failed: ") +
            vcq::QueryName(key.first) + " " +
            ToString(spec.BindingsFor(key.first, key.second)));
    }
  }
  return check;
}

// ---------------------------------------------------------------------------
// Traced pass.
// ---------------------------------------------------------------------------

rt::QueryOptions Traced(rt::QueryOptions opt) {
  opt.trace = rt::TraceLevel::kSpans;
  return opt;
}

std::vector<TracedRun> TracedPass(const WorkloadSpec& spec, World& world,
                                  const TimedPhase& phase, SpanLog& log) {
  std::vector<TracedRun> runs;
  const Workload w = spec.workload;
  for (uint32_t i = 0; i < spec.classes.size(); ++i) {
    const RequestClass& c = spec.classes[i];
    Request r;
    r.cls = i;
    if (auto it = phase.first_request.find(i); it != phase.first_request.end())
      r = it->second;
    else if (w == Workload::kAdhocSql)
      r.sql = vcq::sql::SqlTextFor(vcq::QueryName(c.query));
    const Bindings& b = spec.BindingsFor(c.query, r.binding);
    TracedRun run;
    run.cls = c;
    Session& s = world.SessionFor(c.query);
    PreparedQuery q;
    if (w != Workload::kAdhocSql) {
      // The timed phase runs on warm handles (a Typer handle fills its
      // column cache on its first execution), so the traced handle runs
      // once, untimed and discarded, before the measured call. adhoc-sql
      // prepares a fresh handle per request, timed and traced alike.
      q = s.Prepare(c.engine, c.query, Traced(HandleOptions(w)));
      Execute(w, q, b);
    }
    run.call_start = NowNs();
    if (w == Workload::kAdhocSql)
      q = s.PrepareSql(r.sql, Engine::kTectorwise, Traced(HandleOptions(w)));
    run.result = Execute(w, q, b);
    run.call_end = NowNs();
    run.threads = q.options().threads;
    log.Add("traced " + c.name, run.call_start, run.call_end);
    runs.push_back(std::move(run));
  }
  return runs;
}

// serving's traced pass replays the mix (both streams) with tracing on, so
// admission and gang waits are measured under the contention they exist
// for. The replay uses the timed phase's seed, so each class's first
// traced request has the bindings of its first timed request.
std::vector<TracedRun> ServingTracedPass(const WorkloadSpec& spec,
                                         World& world, SpanLog& log) {
  std::vector<PreparedQuery> long_handles, short_handles;
  for (const RequestClass& c : spec.classes)
    long_handles.push_back(world.tpch_session->Prepare(
        c.engine, c.query, Traced(HandleOptions(spec.workload))));
  for (const RequestClass& c : spec.short_classes)
    short_handles.push_back(world.short_session->Prepare(
        c.engine, c.query, Traced(HandleOptions(spec.workload, true))));
  // Warm each handle once, as set-up does for the timed phase's handles.
  for (size_t i = 0; i < spec.classes.size(); ++i)
    long_handles[i].Execute(ToParams(spec.BindingsFor(spec.classes[i].query, 0)));
  for (size_t i = 0; i < spec.short_classes.size(); ++i)
    short_handles[i].Execute(
        ToParams(spec.BindingsFor(spec.short_classes[i].query, 0)));
  std::vector<TracedRun> runs;
  SpanLog replay_log;
  RunServing(spec, world, long_handles, short_handles, kServingTracedSeconds,
             replay_log, &runs);
  for (const BenchSpan& s : replay_log.spans())
    log.Add("traced " + s.name, s.start_ns, s.end_ns, s.tid);
  return runs;
}

// ---------------------------------------------------------------------------
// Per-layer arithmetic over traces.
// ---------------------------------------------------------------------------

std::string OperatorKind(const std::string& label) {
  if (label.rfind("scan", 0) == 0) return "scan";
  if (label == "select") return "select";
  if (label == "map") return "map";
  if (label == "hash-join") return "join";
  if (label == "hash-group") return "group";
  if (label == "fixed-agg" || label == "ordered-agg") return "agg";
  return "";
}

// Plan-node parents recovered from how operator spans nest on each worker
// lane: in a pull pipeline a child's first Next() runs inside its
// parent's, so the nearest enclosing span (by start time) is the parent.
std::map<uint32_t, std::set<uint32_t>> OperatorChildren(
    const std::vector<rt::TraceSpan>& spans) {
  std::map<uint32_t, std::vector<const rt::TraceSpan*>> lanes;
  for (const rt::TraceSpan& s : spans)
    if (std::strcmp(s.cat, "operator") == 0) lanes[s.lane].push_back(&s);
  std::map<uint32_t, std::set<uint32_t>> children;
  for (auto& [lane, ops] : lanes) {
    std::sort(ops.begin(), ops.end(),
              [](const rt::TraceSpan* a, const rt::TraceSpan* b) {
                return a->start_ns != b->start_ns
                           ? a->start_ns < b->start_ns
                           : a->end_ns > b->end_ns;
              });
    std::vector<const rt::TraceSpan*> stack;
    for (const rt::TraceSpan* op : ops) {
      while (!stack.empty() && stack.back()->end_ns <= op->start_ns)
        stack.pop_back();
      if (!stack.empty()) children[stack.back()->site].insert(op->site);
      stack.push_back(op);
    }
  }
  return children;
}

using Metrics = std::map<std::string, double>;

void LayerMetricsFromTraces(const WorkloadSpec& spec,
                            const std::vector<TracedRun>& runs, Metrics& m) {
  std::vector<double> admission, gang, overhead;
  uint64_t accounted = 0, wall_total = 0;
  std::map<Engine, double> build_ns, build_rows, busy_ns, capacity_ns,
      serial_ns;
  // serving's replay traces a class many times: waits, overhead and
  // accounting use every run, the per-class numbers the first one.
  std::set<std::string> seen;
  for (const TracedRun& run : runs) {
    if (!run.result.trace) continue;
    const bool first = seen.insert(run.cls.name).second;
    const rt::QueryTrace& trace = *run.result.trace;
    const std::vector<rt::TraceSpan> spans = trace.Spans();
    const Engine e = run.cls.engine;
    const std::string q = vcq::QueryName(run.cls.query);
    const std::string ek = EngineKey(e);
    const Interval call{run.call_start, run.call_end};
    const uint64_t call_ns = run.call_end - run.call_start;

    std::vector<Interval> workers, coordinator;
    uint64_t join_rows = 0;
    for (const rt::TraceSpan& s : spans) {
      const std::string_view cat = s.cat;
      const Interval iv{s.start_ns, s.end_ns};
      if (cat == "pipeline") {
        workers.push_back(iv);
        if (first) busy_ns[e] += static_cast<double>(s.duration_ns());
        if (s.lane == 0) coordinator.push_back(iv);
      } else if (s.name == "admission.wait") {
        admission.push_back(Ms(s.duration_ns()));
        coordinator.push_back(iv);
      } else if (s.name.rfind("gang.dispatch#", 0) == 0) {
        gang.push_back(Ms(s.duration_ns()));
        if (s.lane == 0) coordinator.push_back(iv);
      } else if (cat == "sql") {
        coordinator.push_back(iv);
        if (first)
          m[s.name + "_us"] += static_cast<double>(s.duration_ns()) / 1e3;
      } else if (!first) {
        continue;
      } else if (s.name == "spill.write") {
        m["spill.write_ms"] += Ms(s.duration_ns());
      } else if (s.name == "spill.read") {
        m["spill.read_ms"] += Ms(s.duration_ns());
      } else if (s.name == "governor.trip") {
        m["governor.trips"] += 1;
      } else if (cat == "operator" && s.name == "hash-join") {
        join_rows += s.tuples;
      }
    }
    accounted += CoveredNs(coordinator, call);
    wall_total += call_ns;
    if (run.untraced_ms > 0)
      overhead.push_back(Ms(call_ns) / run.untraced_ms);
    if (!first) continue;
    capacity_ns[e] += static_cast<double>(run.threads) * call_ns;
    serial_ns[e] += static_cast<double>(SelfNs(call, workers));

    // Join build vs probe, from the per-site build spans the join-build
    // protocol records into the trace.
    const rt::NodeTelemetry& tel = trace.node_telemetry();
    uint64_t build = 0, rows = 0, sites = 0;
    for (uint32_t site = 0; site < rt::NodeTelemetry::kMaxSites; ++site) {
      if (!tel.HasSpan(site)) continue;
      build += tel.SpanNs(site);
      rows += tel.SpanTuples(site);
      ++sites;
    }
    build_ns[e] += static_cast<double>(build);
    build_rows[e] += static_cast<double>(rows);
    if (run.cls.query == Query::kQ1 || run.cls.query == Query::kQ6)
      m["join.builds_q1_q6"] += static_cast<double>(sites);
    if (std::find(kJoinQueries.begin(), kJoinQueries.end(), run.cls.query) !=
        kJoinQueries.end()) {
      m["join.build_ms." + ek + "." + q] = Ms(build);
      m["join.probe_ms." + ek + "." + q] =
          Ms(run.result.wall_ns > build ? run.result.wall_ns - build : 0);
    }
    if (spec.workload == Workload::kAdhocSql &&
        std::find(kSqlJoinRowQueries.begin(), kSqlJoinRowQueries.end(),
                  run.cls.query) != kSqlJoinRowQueries.end())
      m["sql.join_rows." + q] = static_cast<double>(join_rows);
    if ((run.cls.query == Query::kQ9 || run.cls.query == Query::kQ18) &&
        spec.workload == Workload::kPressure)
      m["spill.mb." + ek + "." + q] = run.result.spilled_bytes / kMiB;

    if (e == Engine::kTectorwise) {
      // Operator self time as EXPLAIN ANALYZE computes it: a node's
      // inclusive busy time minus its children's.
      const auto children = OperatorChildren(spans);
      std::set<uint32_t> sites_seen;
      for (const rt::TraceSpan& s : spans)
        if (std::strcmp(s.cat, "operator") == 0) sites_seen.insert(s.site);
      std::map<uint32_t, std::string> labels;
      for (const rt::TraceSpan& s : spans)
        if (std::strcmp(s.cat, "operator") == 0) labels[s.site] = s.name;
      double rows_out = 0, capacity = 0;
      for (const uint32_t site : sites_seen) {
        const rt::QueryTrace::OperatorStats st = trace.OperatorAt(site);
        uint64_t child_ns = 0;
        if (auto it = children.find(site); it != children.end())
          for (const uint32_t c : it->second) child_ns += trace.OperatorAt(c).ns;
        const uint64_t self = st.ns > child_ns ? st.ns - child_ns : 0;
        const std::string kind = OperatorKind(labels[site]);
        if (!kind.empty()) m["tw.self_ms." + kind] += Ms(self);
        rows_out += static_cast<double>(st.rows);
        capacity += static_cast<double>(st.batches) *
                    static_cast<double>(rt::QueryOptions{}.vector_size);
      }
      if (capacity > 0) m["tw.density." + q] = rows_out / capacity;
    }
  }
  const Tail admission_tail = TailPercentile(admission);
  const Tail gang_tail = TailPercentile(gang);
  m["sched.admission_wait_ms.p50"] = Median(admission);
  m["sched.admission_wait_ms.tail"] = admission_tail.value;
  m["sched.gang_wait_ms.p50"] = Median(gang);
  m["sched.gang_wait_ms.tail"] = gang_tail.value;
  for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
    const std::string ek = EngineKey(e);
    if (build_rows[e] > 0)
      m["join.build_ns_per_row." + ek] = build_ns[e] / build_rows[e];
    if (capacity_ns[e] > 0)
      m["exec.busy_frac." + ek] = busy_ns[e] / capacity_ns[e];
    m["exec.serial_ms." + ek] = serial_ns[e] / 1e6;
  }
  m["trace.overhead"] = Geomean(overhead);
  if (wall_total > 0)
    m["trace.accounted_frac"] =
        static_cast<double>(accounted) / static_cast<double>(wall_total);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string MachineHeader() {
  const auto cache_kib = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? v / 1024 : 0;
  };
  rt::PerfCounters perf;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%zu,\"query_threads\":%zu,\"l1d_kib\":%ld,"
                "\"l2_kib\":%ld,\"l3_kib\":%ld,\"avx512\":%s,"
                "\"perf_events\":%s,\"sf\":%s,\"cpu\":\"%s\"}",
                Nproc(), QueryThreads(), cache_kib(_SC_LEVEL1_DCACHE_SIZE),
                cache_kib(_SC_LEVEL2_CACHE_SIZE),
                cache_kib(_SC_LEVEL3_CACHE_SIZE),
                vcq::CpuInfo::HasAvx512() ? "true" : "false",
                perf.available() ? "true" : "false",
                Num(kScaleFactor).c_str(),
                JsonEscape(vcq::CpuInfo::ModelName()).c_str());
  return buf;
}

// Chrome-tracing JSON: the benchmark's own spans (pid 0, one tid per client or
// sender thread) and each traced execution's spans (one pid each).
void WriteTrace(const std::string& path, const SpanLog& log,
                const std::vector<TracedRun>& runs) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const std::string& name, const char* cat,
                         uint64_t start, uint64_t end, size_t pid,
                         uint32_t tid) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << JsonEscape(name)
        << "\",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"ts\":"
        << Num(start / 1e3) << ",\"dur\":" << Num((end - start) / 1e3)
        << ",\"pid\":" << pid << ",\"tid\":" << tid << "}";
    first = false;
  };
  for (const BenchSpan& s : log.spans())
    event(s.name, "bench", s.start_ns, s.end_ns, 0, s.tid);
  for (size_t i = 0; i < runs.size(); ++i) {
    out << (first ? "" : ",\n")
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << i + 1
        << ",\"args\":{\"name\":\"" << JsonEscape(runs[i].cls.name) << "\"}}";
    first = false;
    if (!runs[i].result.trace) continue;
    for (const rt::TraceSpan& s : runs[i].result.trace->Spans())
      event(s.name, s.cat, s.start_ns, s.end_ns, i + 1, s.lane);
  }
  out << "]}\n";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out") a->out_dir = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <power|adhoc-sql|serving|"
                 "pressure> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  Workload workload;
  if (!ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!args.out_dir.empty()) {
    // Spill files stay inside the output directory, not the system temp.
    const std::filesystem::path spill =
        std::filesystem::absolute(args.out_dir) / "spill";
    std::filesystem::create_directories(spill);
    setenv("VCQ_SPILL_DIR", spill.c_str(), 1);
  }
  const WorkloadSpec spec = MakeSpec(workload, args.seed);
  std::printf("# machine %s\n", MachineHeader().c_str());
  std::fflush(stdout);

  SpanLog log;
  // Set-up, kSetupReps times; the last world is the one measured.
  std::vector<SetupTimes> setups;
  auto world = std::make_unique<World>();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    world = std::make_unique<World>();
    setups.push_back(SetUp(spec, *world, log));
  }
  const auto setup_median = [&](double SetupTimes::* field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };

  // serving: short-query latency alone, before the backlog exists.
  std::vector<double> alone_ms;
  if (workload == Workload::kServing) {
    for (size_t rep = 0; rep < kAloneRepsPerClass; ++rep) {
      for (uint32_t i = 0; i < spec.short_classes.size(); ++i) {
        const uint64_t t0 = NowNs();
        world->short_handles[i].Execute(ToParams(spec.BindingsFor(
            spec.short_classes[i].query, rep % kBindingsPerQuery)));
        alone_ms.push_back(Ms(NowNs() - t0));
      }
    }
  }

  const TimedPhase phase =
      workload == Workload::kServing
          ? RunServing(spec, *world, world->handles, world->short_handles,
                       args.seconds, log)
          : RunClosedLoop(spec, *world, args.seconds, log);
  const Check check = CheckResults(
      spec, *world, phase,
      args.trace && workload == Workload::kAdhocSql ? kHandReps : 1, log);

  // Per-class latency samples from the timed phase.
  std::vector<std::vector<double>> latency(spec.classes.size()),
      short_latency(spec.short_classes.size());
  std::vector<double> short_all, lag, prepare;
  std::map<std::pair<Query, uint32_t>, std::vector<double>> sql_exec;
  double rung_sum = 0;
  for (const Sample& s : phase.samples) {
    if (s.is_short) {
      short_latency[s.cls].push_back(s.latency_ms);
      short_all.push_back(s.latency_ms);
      lag.push_back(s.open.lag_ms());
      continue;
    }
    latency[s.cls].push_back(s.latency_ms);
    rung_sum += s.rung;
    if (workload == Workload::kAdhocSql) {
      prepare.push_back(s.prepare_ms);
      sql_exec[{spec.classes[s.cls].query, s.binding}].push_back(s.execute_ms);
    }
  }

  Metrics m;
  m["setup_s"] = setup_median(&SetupTimes::total_s);
  m["throughput_qps"] =
      phase.elapsed_s > 0 ? phase.closed_done / phase.elapsed_s : 0;
  m["geomean_ms"] = GeomeanOfMedians(
      workload == Workload::kServing ? short_latency : latency);
  m["peak_query_mb"] = phase.peak_mb;

  std::vector<TracedRun> traced;
  if (args.trace) {
    m["datagen.tpch_s"] = setup_median(&SetupTimes::tpch_s);
    m["datagen.ssb_s"] = setup_median(&SetupTimes::ssb_s);
    m["api.prepare_ms"] = setup_median(&SetupTimes::prepare_ms);
    m["api.first_execute_ms"] = setup_median(&SetupTimes::first_execute_ms);
    m["sql.catalog_ms"] = setup_median(&SetupTimes::catalog_ms);
    m["sql.prepare_ms.p50"] = Median(prepare);
    m["sql.prepare_ms.tail"] = TailPercentile(prepare).value;
    std::map<Engine, std::vector<std::vector<double>>> by_engine;
    for (size_t i = 0; i < spec.classes.size(); ++i) {
      const RequestClass& c = spec.classes[i];
      m[std::string("latency_ms.") + EngineKey(c.engine) + "." +
        vcq::QueryName(c.query)] = Median(latency[i]);
      by_engine[c.engine].push_back(latency[i]);
    }
    for (size_t i = 0; i < spec.short_classes.size(); ++i) {
      const RequestClass& c = spec.short_classes[i];
      m[std::string("latency_ms.") + EngineKey(c.engine) + "." +
        vcq::QueryName(c.query)] = Median(short_latency[i]);
      by_engine[c.engine].push_back(short_latency[i]);
    }
    for (auto& [e, classes] : by_engine)
      m[std::string("geomean_ms.") + EngineKey(e)] = GeomeanOfMedians(classes);
    if (workload == Workload::kAdhocSql) {
      // SQL execute median over the catalog Tectorwise plan's time for the
      // same bindings, geomean over the bindings used.
      std::map<Query, std::vector<double>> ratios;
      for (const auto& [key, exec] : sql_exec)
        if (check.hand_ms.count(key) && check.hand_ms.at(key) > 0)
          ratios[key.first].push_back(Median(exec) / check.hand_ms.at(key));
      for (const auto& [q, r] : ratios)
        m[std::string("sql.vs_hand.") + vcq::QueryName(q)] = Geomean(r);
    }
    if (workload == Workload::kPressure)
      m["ladder.rung_mean"] =
          phase.samples.empty() ? 0 : rung_sum / phase.samples.size();
    if (workload == Workload::kServing) {
      m["serving.short_p50_ms"] = Median(short_all);
      m["serving.short_tail_ms"] = TailPercentile(short_all).value;
      m["serving.long_qps"] = m["throughput_qps"];
      m["loadgen.lag_ms.tail"] = TailPercentile(lag).value;
      m["loadgen.inflight_mid"] = static_cast<double>(phase.inflight_mid);
      m["loadgen.inflight_end"] = static_cast<double>(phase.inflight_end);
      m["sched.queue_depth_max"] = static_cast<double>(phase.queue_depth_max);
      m["sched.short_interference"] =
          Median(alone_ms) > 0 ? Median(short_all) / Median(alone_ms) : 0;
    }

    traced = workload == Workload::kServing
                 ? ServingTracedPass(spec, *world, log)
                 : TracedPass(spec, *world, phase, log);
    for (TracedRun& run : traced) {
      for (size_t i = 0; i < spec.classes.size(); ++i)
        if (spec.classes[i].name == run.cls.name)
          run.untraced_ms = Median(latency[i]);
      for (size_t i = 0; i < spec.short_classes.size(); ++i)
        if (spec.short_classes[i].name == run.cls.name)
          run.untraced_ms = Median(short_latency[i]);
    }
    LayerMetricsFromTraces(spec, traced, m);
  }

  // Open-loop validity: the short backlog must not grow over the run.
  const bool backlog_grew =
      workload == Workload::kServing &&
      phase.inflight_end > phase.inflight_mid + kBacklogSlack;

  // Detail line: everything a reader needs to replay or audit the run.
  std::string detail = "{\"workload\":\"" + std::string(WorkloadName(workload)) +
                       "\",\"seed\":" + std::to_string(args.seed) +
                       ",\"sequence_hash\":\"" +
                       std::to_string(SequenceHash(spec)) +
                       "\",\"setup_reps\":" + std::to_string(kSetupReps) +
                       ",\"valid\":" + (backlog_grew ? "false" : "true");
  if (workload == Workload::kServing) {
    const Tail t = TailPercentile(short_all);
    detail += ",\"short_rate_per_s\":" + Num(kShortRatePerSec) +
              ",\"short_samples\":" + std::to_string(short_all.size()) +
              ",\"short_tail_pct\":" + Num(t.pct) +
              ",\"inflight_mid\":" + std::to_string(phase.inflight_mid) +
              ",\"inflight_end\":" + std::to_string(phase.inflight_end);
  }
  detail += ",\"classes\":{";
  bool first_class = true;
  const auto add_classes = [&](const std::vector<RequestClass>& classes,
                               const std::vector<std::vector<double>>& lat) {
    for (size_t i = 0; i < classes.size(); ++i) {
      detail += std::string(first_class ? "" : ",") + "\"" +
                classes[i].name + "\":{\"n\":" +
                std::to_string(lat[i].size()) +
                ",\"median_ms\":" + Num(Median(lat[i])) + "}";
      first_class = false;
    }
  };
  add_classes(spec.classes, latency);
  add_classes(spec.short_classes, short_latency);
  detail += "},\"problems\":[";
  for (size_t i = 0; i < check.problems.size(); ++i)
    detail += std::string(i ? "," : "") + "\"" +
              JsonEscape(check.problems[i]) + "\"";
  detail += "]}";
  std::printf("# run %s\n", detail.c_str());

  // Spans: the benchmark's own, plus the program's from the traced pass.
  if (!args.out_dir.empty()) {
    WriteTrace(args.out_dir + "/" + WorkloadName(workload) + "-seed" +
                   std::to_string(args.seed) + "-trace" +
                   (args.trace ? "1" : "0") + ".json",
               log, traced);
  }

  // An open-loop run whose backlog grew never reached a steady state: its
  // numbers are not a result.
  if (backlog_grew) {
    std::fflush(stdout);
    std::fprintf(stderr, "serving: short backlog grew (%zu -> %zu in flight)"
                 "; the run is invalid\n",
                 phase.inflight_mid, phase.inflight_end);
    return 3;
  }

  const bool correct = check.failed == 0 && check.references_agree;
  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(check.attempted) +
                    ",\"failed\":" + std::to_string(check.failed) +
                    ",\"metrics\":{";
  bool first = true;
  for (const MetricDef& d : args.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    out += std::string(first ? "" : ",") + "\"" + d.name +
           "\":{\"value\":" + Num(m.count(d.name) ? m[d.name] : 0) +
           ",\"unit\":\"" + d.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
