#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "api/query_catalog.h"
#include "common/check.h"
#include "runtime/types.h"
#include "sql/reference_queries.h"

namespace perfbench {
namespace {

using vcq::Engine;
using vcq::Query;
using vcq::datagen::Rng;
using vcq::runtime::ParamType;

// TPC-H P_NAME color words (spec clause 4.2.3): Q9's COLOR substitution
// range.
constexpr const char* kColors[] = {
    "almond",    "antique",   "aquamarine", "azure",      "beige",
    "bisque",    "black",     "blanched",   "blue",       "blush",
    "brown",     "burlywood", "burnished",  "chartreuse", "chiffon",
    "chocolate", "coral",     "cornflower", "cornsilk",   "cream",
    "cyan",      "dark",      "deep",       "dim",        "dodger",
    "drab",      "firebrick", "floral",     "forest",     "frosted",
    "gainsboro", "ghost",     "goldenrod",  "green",      "grey",
    "honeydew",  "hot",       "hotpink",    "indian",     "ivory",
    "khaki",     "lace",      "lavender",   "lawn",       "lemon",
    "light",     "lime",      "linen",      "magenta",    "maroon",
    "medium",    "metallic",  "midnight",   "mint",       "misty",
    "moccasin",  "navajo",    "navy",       "olive",      "orange",
    "orchid",    "pale",      "papaya",     "peach",      "peru",
    "pink",      "plum",      "powder",     "puff",       "purple",
    "red",       "rose",      "rosy",       "royal",      "saddle",
    "salmon",    "sandy",     "seashell",   "sienna",     "sky",
    "slate",     "smoke",     "snow",       "spring",     "steel",
    "tan",       "thistle",   "tomato",     "turquoise",  "violet",
    "wheat",     "white"};
constexpr const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "MACHINERY", "HOUSEHOLD"};
constexpr const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                    "MIDDLE EAST"};

template <size_t N>
const char* Pick(const char* const (&words)[N], Rng& rng) {
  return words[rng.Uniform(0, N - 1)];
}

Binding Int(std::string name, int64_t v) {
  return Binding{std::move(name), ParamType::kInt, v, ""};
}
Binding Str(std::string name, std::string v) {
  return Binding{std::move(name), ParamType::kString, 0, std::move(v)};
}
Binding Date(std::string name, int32_t days) {
  return Binding{std::move(name), ParamType::kDate, 0,
                 vcq::runtime::DateToString(days)};
}
int32_t Ymd(int y, int m, int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return vcq::runtime::DateFromString(buf);
}

size_t CatalogIndex(Query query) {
  const auto& catalog = vcq::QueryCatalog();
  for (size_t i = 0; i < catalog.size(); ++i)
    if (catalog[i].query == query) return i;
  VCQ_CHECK_MSG(false, "query missing from the catalog");
  return 0;
}

RequestClass Class(Engine engine, Query query) {
  return RequestClass{engine, query,
                      std::string(engine == Engine::kTyper ? "typer"
                                                           : "tectorwise") +
                          "." + vcq::QueryName(query)};
}

// Fisher-Yates with the benchmark's own generator, so orders do not
// depend on the standard library's distributions.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPower, Workload::kAdhocSql, Workload::kServing,
                     Workload::kPressure}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPower: return "power";
    case Workload::kAdhocSql: return "adhoc-sql";
    case Workload::kServing: return "serving";
    case Workload::kPressure: return "pressure";
  }
  return "?";
}

vcq::runtime::QueryParams ToParams(const Bindings& bindings) {
  vcq::runtime::QueryParams params;
  for (const Binding& b : bindings) {
    switch (b.type) {
      case ParamType::kInt: params.SetInt(b.name, b.int_value); break;
      case ParamType::kDate: params.SetDate(b.name, b.text); break;
      case ParamType::kString: params.SetString(b.name, b.text); break;
    }
  }
  return params;
}

std::string ToString(const Bindings& bindings) {
  return ToParams(bindings).ToString();
}

Bindings DrawBindings(Query query, Rng& rng) {
  switch (query) {
    case Query::kQ1:  // DELTA in [60, 120] days before 1998-12-01
      return {Date("shipdate", Ymd(1998, 12, 1) -
                                   static_cast<int32_t>(rng.Uniform(60, 120)))};
    case Query::kQ6: {  // YEAR in [1993, 1997], DISCOUNT in [0.02, 0.09]
      const int year = static_cast<int>(rng.Uniform(1993, 1997));
      const int64_t discount = rng.Uniform(2, 9);
      return {Date("shipdate_lo", Ymd(year, 1, 1)),
              Date("shipdate_hi", Ymd(year, 12, 31)),
              Int("discount_lo", discount - 1), Int("discount_hi", discount + 1),
              Int("quantity_max", rng.Uniform(24, 25) * 100)};
    }
    case Query::kQ3:  // SEGMENT, DATE in [1995-03-01, 1995-03-31]
      return {Str("segment", Pick(kSegments, rng)),
              Date("date", Ymd(1995, 3, static_cast<int>(rng.Uniform(1, 31))))};
    case Query::kQ9:
      return {Str("color", Pick(kColors, rng))};
    case Query::kQ18:  // QUANTITY in [312, 315]
      return {Int("quantity_min", rng.Uniform(312, 315) * 100)};
    case Query::kSsbQ11: {
      const int64_t discount = rng.Uniform(1, 3);
      return {Int("year", rng.Uniform(1993, 1997)),
              Int("discount_lo", discount), Int("discount_hi", discount + 2),
              Int("quantity_max", rng.Uniform(24, 26))};
    }
    case Query::kSsbQ21:
      return {Str("category", "MFGR#" + std::to_string(rng.Uniform(1, 5)) +
                                  std::to_string(rng.Uniform(1, 5))),
              Str("region", Pick(kRegions, rng))};
    case Query::kSsbQ31: {
      const int64_t year_lo = rng.Uniform(1992, 1993);
      return {Str("region", Pick(kRegions, rng)), Int("year_lo", year_lo),
              Int("year_hi", year_lo + 5)};
    }
    case Query::kSsbQ41: {
      const int64_t mfgr = rng.Uniform(1, 4);
      return {Str("region", Pick(kRegions, rng)),
              Str("mfgr_a", "MFGR#" + std::to_string(mfgr)),
              Str("mfgr_b", "MFGR#" + std::to_string(mfgr + 1))};
    }
  }
  VCQ_CHECK_MSG(false, "unknown query");
  return {};
}

std::string PermuteFrom(Query query, Rng& rng) {
  const std::string text = vcq::sql::SqlTextFor(vcq::QueryName(query));
  const size_t from = text.find("\nFROM ");
  VCQ_CHECK_MSG(from != std::string::npos, "SQL text has no FROM line");
  const size_t begin = from + 6;
  const size_t end = text.find('\n', begin);
  std::vector<std::string> tables;
  for (size_t pos = begin; pos < end;) {
    const size_t comma = std::min(text.find(", ", pos), end);
    tables.push_back(text.substr(pos, comma - pos));
    pos = comma == end ? end : comma + 2;
  }
  Shuffle(tables, rng);
  std::string list;
  for (const std::string& t : tables) list += (list.empty() ? "" : ", ") + t;
  return text.substr(0, begin) + list + text.substr(end);
}

RequestStream::RequestStream(std::vector<RequestClass> classes, uint64_t seed,
                             bool sql)
    : classes_(std::move(classes)), rng_(seed), sql_(sql) {}

Request RequestStream::Next() {
  if (pos_ == round_.size()) {
    round_.resize(classes_.size());
    for (uint32_t i = 0; i < round_.size(); ++i) round_[i] = i;
    Shuffle(round_, rng_);
    pos_ = 0;
  }
  Request r;
  r.cls = round_[pos_++];
  r.binding = static_cast<uint32_t>(
      rng_.Uniform(0, static_cast<int64_t>(kBindingsPerQuery) - 1));
  if (sql_) r.sql = PermuteFrom(classes_[r.cls].query, rng_);
  return r;
}

const Bindings& WorkloadSpec::BindingsFor(Query query, uint32_t binding) const {
  return pool[CatalogIndex(query)][binding];
}

RequestStream WorkloadSpec::Stream() const {
  return RequestStream(classes, vcq::datagen::SplitMix64(seed ^ 0x5157),
                       workload == Workload::kAdhocSql);
}

RequestStream WorkloadSpec::ShortStream() const {
  return RequestStream(short_classes,
                       vcq::datagen::SplitMix64(seed ^ 0x5407), false);
}

WorkloadSpec MakeSpec(Workload workload, uint64_t seed) {
  WorkloadSpec spec;
  spec.workload = workload;
  spec.seed = seed;
  const std::vector<Query> all = {Query::kQ1,     Query::kQ6,     Query::kQ3,
                                  Query::kQ9,     Query::kQ18,    Query::kSsbQ11,
                                  Query::kSsbQ21, Query::kSsbQ31, Query::kSsbQ41};
  switch (workload) {
    case Workload::kPower:
      for (Query q : all)
        for (Engine e : {Engine::kTyper, Engine::kTectorwise})
          spec.classes.push_back(Class(e, q));
      spec.needs_ssb = true;
      break;
    case Workload::kAdhocSql:
      for (Query q : all) spec.classes.push_back(Class(Engine::kTectorwise, q));
      spec.needs_ssb = true;
      break;
    case Workload::kServing:
      for (Query q : {Query::kQ9, Query::kQ18})
        for (Engine e : {Engine::kTyper, Engine::kTectorwise})
          spec.classes.push_back(Class(e, q));
      for (Engine e : {Engine::kTyper, Engine::kTectorwise})
        spec.short_classes.push_back(Class(e, Query::kQ6));
      break;
    case Workload::kPressure:
      for (Query q : {Query::kQ3, Query::kQ9, Query::kQ18})
        for (Engine e : {Engine::kTyper, Engine::kTectorwise})
          spec.classes.push_back(Class(e, q));
      break;
  }
  // Every query gets a pool, used or not, so a query's bindings depend on
  // the seed alone and not on which workload draws them.
  spec.pool.resize(vcq::QueryCatalog().size());
  for (Query q : all) {
    Rng rng(vcq::datagen::SplitMix64(seed) ^ (CatalogIndex(q) + 1) * 0x9e37);
    for (size_t b = 0; b < kBindingsPerQuery; ++b)
      spec.pool[CatalogIndex(q)].push_back(DrawBindings(q, rng));
  }
  return spec;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  h ^= 0xff;  // field separator, so ("ab","c") != ("a","bc")
  h *= 0x100000001b3ull;
  return h;
}

uint64_t SequenceHash(const WorkloadSpec& spec, size_t requests) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = Fnv1a(h, WorkloadName(spec.workload));
  std::vector<RequestStream> streams = {spec.Stream()};
  if (!spec.short_classes.empty()) streams.push_back(spec.ShortStream());
  for (RequestStream& stream : streams) {
    for (size_t i = 0; i < requests; ++i) {
      const Request r = stream.Next();
      const RequestClass& cls = stream.classes()[r.cls];
      h = Fnv1a(h, cls.name);
      h = Fnv1a(h, ToString(spec.BindingsFor(cls.query, r.binding)));
      h = Fnv1a(h, r.sql);
    }
  }
  return h;
}

}  // namespace perfbench
