#include "sql/catalog.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "runtime/types.h"

namespace vcq::sql {
namespace {

// Column-name → semantics annotations for the datagen schemas. Scale-2
// money columns and day-number date columns, per the TPC-H / SSB generators
// (datagen/tpch.cc, datagen/ssb.cc). Everything else integer is a plain
// scale-0 numeric (keys, quantities in SSB, years, ...).
const std::set<std::string_view>& Scale2Columns() {
  static const auto* cols = new std::set<std::string_view>{
      "l_quantity",      "l_extendedprice", "l_discount",   "l_tax",
      "o_totalprice",    "ps_supplycost",   "c_acctbal",    "p_retailprice",
      "lo_extendedprice", "lo_discount",    "lo_revenue",   "lo_supplycost"};
  return *cols;
}

const std::set<std::string_view>& DateColumns() {
  static const auto* cols = new std::set<std::string_view>{
      "l_shipdate", "l_commitdate", "l_receiptdate", "o_orderdate"};
  return *cols;
}

// Declared primary keys (one per table at most). The composite key is
// listed by its columns in order.
const std::vector<std::vector<std::string_view>>& DeclaredKeys() {
  static const auto* keys = new std::vector<std::vector<std::string_view>>{
      {"c_custkey"},   {"o_orderkey"},  {"p_partkey"},
      {"s_suppkey"},   {"n_nationkey"}, {"r_regionkey"},
      {"d_datekey"},   {"ps_partkey", "ps_suppkey"}};
  return *keys;
}

SqlType TypeFor(std::string_view name, runtime::TypeTag tag) {
  if (tag == runtime::TypeTag::kChar || tag == runtime::TypeTag::kVarchar)
    return SqlType{TypeKind::kString, 0};
  if (DateColumns().count(name)) return SqlType{TypeKind::kDate, 0};
  const int scale = Scale2Columns().count(name) ? 2 : 0;
  return SqlType{TypeKind::kNumeric, scale};
}

template <typename T>
ColumnStats ScanStats(std::span<const T> data) {
  ColumnStats s;
  if (data.empty()) return s;
  T lo = data[0];
  T hi = data[0];
  for (const T v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  s.min = static_cast<int64_t>(lo);
  s.max = static_cast<int64_t>(hi);
  s.valid = true;
  return s;
}

size_t SampledNdv(const Catalog& catalog, const TableDef& table,
                  const ColumnDef& col) {
  constexpr size_t kSample = 4096;
  const size_t n = table.tuple_count;
  const size_t sample = std::min(n, kSample);
  std::set<std::string> seen;
  for (size_t i = 0; i < sample; ++i)
    seen.insert(SampleString(catalog, table, col, i * n / sample));
  if (sample == n || seen.size() * 16 <= sample) return seen.size();
  return 0;
}

/// Calls `f(int64_t)` on every value of integer column `def`, in row order.
template <typename F>
void ForEachInt(const runtime::Relation& rel, const ColumnDef& def, F&& f) {
  if (def.tag == runtime::TypeTag::kInt32) {
    for (const int32_t v : rel.Col<int32_t>(def.name)) f(v);
  } else {
    for (const int64_t v : rel.Col<int64_t>(def.name)) f(v);
  }
}

/// True when no two rows of `rel` agree on every column of `key`. A key
/// whose domain is too wide for the check (a bitmap over more than 64 bits
/// per row, or a composite column spanning more than 32 bits) counts as
/// not unique: an unverified key is only a missed optimization.
bool IsUnique(const runtime::Relation& rel, const TableDef& table,
              const std::vector<uint32_t>& key) {
  const size_t n = rel.tuple_count();
  const auto span = [](const ColumnDef& c) {
    return static_cast<uint64_t>(c.stats.max) -
           static_cast<uint64_t>(c.stats.min);
  };
  if (key.size() == 1) {
    const ColumnDef& c = table.columns[key[0]];
    if (span(c) >= 64 * static_cast<uint64_t>(n)) return false;
    std::vector<uint64_t> seen(span(c) / 64 + 1);
    bool unique = true;
    ForEachInt(rel, c, [&](int64_t v) {
      const uint64_t bit = static_cast<uint64_t>(v - c.stats.min);
      uint64_t& word = seen[bit / 64];
      const uint64_t mask = uint64_t{1} << (bit % 64);
      unique &= (word & mask) == 0;
      word |= mask;
    });
    return unique;
  }
  // Composite: each row's two offsets from their minimums packed into one
  // word, sorted, checked for neighbours that repeat.
  const ColumnDef& a = table.columns[key[0]];
  const ColumnDef& b = table.columns[key[1]];
  if (span(a) > UINT32_MAX || span(b) > UINT32_MAX) return false;
  std::vector<uint64_t> packed;
  packed.reserve(n);
  ForEachInt(rel, a, [&](int64_t v) {
    packed.push_back(static_cast<uint64_t>(v - a.stats.min) << 32);
  });
  size_t i = 0;
  ForEachInt(rel, b, [&](int64_t v) {
    packed[i++] |= static_cast<uint64_t>(v - b.stats.min);
  });
  std::sort(packed.begin(), packed.end());
  return std::adjacent_find(packed.begin(), packed.end()) == packed.end();
}

/// The table's declared key, if all its columns exist as integer columns
/// and their values are unique; empty otherwise.
std::vector<uint32_t> VerifiedKey(const runtime::Relation& rel,
                                  const TableDef& table) {
  for (const auto& names : DeclaredKeys()) {
    std::vector<uint32_t> key;
    for (const std::string_view name : names) {
      const size_t i = table.IndexOf(name);
      if (i == SIZE_MAX || !table.columns[i].stats.valid) break;
      key.push_back(static_cast<uint32_t>(i));
    }
    if (key.size() != names.size()) continue;
    if (IsUnique(rel, table, key)) return key;
    return {};
  }
  return {};
}

}  // namespace

std::string TypeName(const SqlType& t) {
  switch (t.kind) {
    case TypeKind::kDate:
      return "date";
    case TypeKind::kString:
      return "string";
    case TypeKind::kNumeric:
      if (t.scale == 0) return "numeric";
      return "numeric(" + std::to_string(t.scale) + ")";
  }
  return "?";
}

const ColumnDef* TableDef::Find(std::string_view column) const {
  const size_t i = IndexOf(column);
  return i == SIZE_MAX ? nullptr : &columns[i];
}

size_t TableDef::IndexOf(std::string_view column) const {
  for (size_t i = 0; i < columns.size(); ++i)
    if (columns[i].name == column) return i;
  return SIZE_MAX;
}

Catalog::Catalog(const runtime::Database& db) : db_(&db) {
  for (const std::string& name : db.RelationNames()) {
    const runtime::Relation& rel = db[name];
    TableDef table;
    table.name = name;
    table.tuple_count = rel.tuple_count();
    for (const std::string& col : rel.ColumnNames()) {
      const runtime::Relation::ColumnMeta meta = rel.Meta(col);
      ColumnDef def;
      def.name = col;
      def.tag = meta.tag;
      def.elem_size = meta.elem_size;
      def.type = TypeFor(col, meta.tag);
      if (meta.tag == runtime::TypeTag::kInt32)
        def.stats = ScanStats(rel.Col<int32_t>(col));
      else if (meta.tag == runtime::TypeTag::kInt64)
        def.stats = ScanStats(rel.Col<int64_t>(col));
      else
        def.stats.string_ndv = SampledNdv(*this, table, def);
      table.columns.push_back(std::move(def));
    }
    table.key = VerifiedKey(rel, table);
    tables_.push_back(std::move(table));
  }
}

const TableDef* Catalog::Find(std::string_view table) const {
  for (const TableDef& t : tables_)
    if (t.name == table) return &t;
  return nullptr;
}

std::shared_ptr<const Catalog> MakeCatalog(const runtime::Database& db) {
  return std::make_shared<const Catalog>(db);
}

std::string SampleString(const Catalog& catalog, const TableDef& table,
                         const ColumnDef& col, size_t row) {
  VCQ_CHECK_MSG(col.type.kind == TypeKind::kString, col.name.c_str());
  const runtime::Relation& rel = catalog.db()[table.name];
  VCQ_CHECK(row < rel.tuple_count());
  using runtime::Char;
  using runtime::Varchar;
  switch (col.elem_size) {
    case 1:
      return std::string(rel.Col<Char<1>>(col.name)[row].View());
    case 6:
      return std::string(rel.Col<Char<6>>(col.name)[row].View());
    case 7:
      return std::string(rel.Col<Char<7>>(col.name)[row].View());
    case 9:
      return std::string(rel.Col<Char<9>>(col.name)[row].View());
    case 10:
      return std::string(rel.Col<Char<10>>(col.name)[row].View());
    case 12:
      return std::string(rel.Col<Char<12>>(col.name)[row].View());
    case 15:
      return std::string(rel.Col<Char<15>>(col.name)[row].View());
    case 25:
      return std::string(rel.Col<Char<25>>(col.name)[row].View());
    case sizeof(Varchar<55>): {
      const Varchar<55>& v = rel.Col<Varchar<55>>(col.name)[row];
      return std::string(v.View());
    }
    default:
      VCQ_CHECK_MSG(false, "unsupported string width");
  }
  return {};
}

}  // namespace vcq::sql
