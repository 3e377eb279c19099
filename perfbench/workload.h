#ifndef VCQ_PERFBENCH_WORKLOAD_H_
#define VCQ_PERFBENCH_WORKLOAD_H_

// What each workload runs, and the seeded request sequence it runs it in.
// Everything here is a pure function of (workload, seed): the program
// under test only ever sees the generated bindings and SQL texts.

#include <cstdint>
#include <string>
#include <vector>

#include "api/vcq.h"
#include "datagen/rng.h"
#include "runtime/params.h"

namespace perfbench {

enum class Workload { kPower, kAdhocSql, kServing, kPressure };

/// Parses "power" / "adhoc-sql" / "serving" / "pressure"; false if unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// One (engine, query) pair the workload times separately. On adhoc-sql
/// the engine is Tectorwise through the SQL front door.
struct RequestClass {
  vcq::Engine engine;
  vcq::Query query;
  std::string name;  // "typer.Q9", "tectorwise.SSB-Q4.1"
};

/// One parameter binding, kept in a form that can be applied both as a
/// QueryParams bag and through PreparedQuery::Set.
struct Binding {
  std::string name;
  vcq::runtime::ParamType type;
  int64_t int_value = 0;
  std::string text;  // kString value or ISO date

  friend bool operator==(const Binding&, const Binding&) = default;
};
using Bindings = std::vector<Binding>;

vcq::runtime::QueryParams ToParams(const Bindings& bindings);
std::string ToString(const Bindings& bindings);

/// Draws one binding set for `query` from its TPC-H / SSB substitution
/// ranges (see README.md for the ranges used).
Bindings DrawBindings(vcq::Query query, vcq::datagen::Rng& rng);

/// The SQL text of `query` with its comma-separated FROM list permuted.
std::string PermuteFrom(vcq::Query query, vcq::datagen::Rng& rng);

/// Binding sets drawn per query. Requests pick among them, so each
/// distinct (query, binding) pair gets one reference result computed
/// outside the timed phase.
inline constexpr size_t kBindingsPerQuery = 2;

struct Request {
  uint32_t cls = 0;      // index into the stream's classes
  uint32_t binding = 0;  // index into the query's binding pool
  std::string sql;       // adhoc-sql only: the permuted text
};

/// An endless seeded request sequence over `classes`: rounds in which
/// every class appears once, in a fresh seeded order, each request with a
/// seeded binding choice (and, for SQL streams, a seeded FROM order).
class RequestStream {
 public:
  RequestStream(std::vector<RequestClass> classes, uint64_t seed, bool sql);

  Request Next();
  const std::vector<RequestClass>& classes() const { return classes_; }

 private:
  std::vector<RequestClass> classes_;
  vcq::datagen::Rng rng_;
  bool sql_;
  std::vector<uint32_t> round_;
  size_t pos_ = 0;
};

/// The workload's request classes and binding pools.
struct WorkloadSpec {
  Workload workload;
  uint64_t seed = 0;
  /// Closed-loop classes (power, adhoc-sql, pressure) or the long stream
  /// (serving).
  std::vector<RequestClass> classes;
  /// serving only: the open-loop short stream.
  std::vector<RequestClass> short_classes;
  bool needs_ssb = false;
  /// pool[query index in catalog order][binding index].
  std::vector<std::vector<Bindings>> pool;

  const Bindings& BindingsFor(vcq::Query query, uint32_t binding) const;
  RequestStream Stream() const;
  RequestStream ShortStream() const;
};

WorkloadSpec MakeSpec(Workload workload, uint64_t seed);

/// FNV-1a over the first `requests` requests of every stream of the
/// workload: class, bindings and SQL text. Equal seeds give equal hashes.
uint64_t SequenceHash(const WorkloadSpec& spec, size_t requests = 256);

/// Order-sensitive FNV-1a digest of a result (status, header, rows).
uint64_t Fnv1a(uint64_t h, const std::string& s);

}  // namespace perfbench

#endif  // VCQ_PERFBENCH_WORKLOAD_H_
