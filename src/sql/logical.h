#ifndef VCQ_SQL_LOGICAL_H_
#define VCQ_SQL_LOGICAL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/params.h"
#include "sql/ast.h"
#include "sql/catalog.h"

// The typed logical plan: what the binder produces from a parsed AST, what
// the optimizer rearranges, and what both lowerings (lower.h) consume. The
// shape is intentionally normalized rather than general:
//
//   * WHERE is a conjunction of Predicates; each predicate is "scalar
//     expression CMP constant-or-param" (BETWEEN is split in the binder,
//     col-vs-col within one table becomes (a-b) CMP 0), an EqOr2
//     two-constant IN, or a substring Contains.
//   * Cross-table equalities become JoinEdges; the join tree itself is the
//     optimizer's output (optimizer.h), not part of BoundQuery.
//   * Group keys / projection outputs / aggregate arguments are Scalar
//     trees over {column, constant, +, -, *, year}.
//
// Every scalar carries its SqlType; the binder has already unified scales,
// so lowering never rescales.

namespace vcq::sql {

/// (table, column) — indexes into BoundQuery::tables and
/// TableDef::columns respectively.
struct ColumnId {
  uint32_t table = 0;
  uint32_t col = 0;

  friend bool operator==(const ColumnId& a, const ColumnId& b) {
    return a.table == b.table && a.col == b.col;
  }
};

enum class ScalarOp : uint8_t { kColumn, kConst, kAdd, kSub, kMul, kYear };

struct Scalar {
  ScalarOp op = ScalarOp::kConst;
  SqlType type;
  ast::Pos pos;
  ColumnId col;       // kColumn
  int64_t value = 0;  // kConst, at type.scale
  std::vector<Scalar> args;

  bool IsColumn() const { return op == ScalarOp::kColumn; }
  bool IsConst() const { return op == ScalarOp::kConst; }
  /// Bitmask of referenced BoundQuery::tables indices.
  uint32_t TableMask() const;
};

bool ScalarEqual(const Scalar& a, const Scalar& b);

/// `a op b` for op in {kAdd, kSub, kMul}, checked: a result outside int64
/// throws a SqlError positioned at `pos` ("integer overflow in constant
/// expression") instead of wrapping.
int64_t CheckedArith(ScalarOp op, int64_t a, int64_t b, ast::Pos pos);

/// Value of a table-free scalar (constants and + - * over them), with
/// CheckedArith at every node.
int64_t EvalConst(const Scalar& s);

/// Engine-independent comparison operator (mapped onto
/// tectorwise::CmpOp / closure predicates by the lowerings).
enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq };

const char* CmpOpName(CmpOp op);

/// Right-hand side of a predicate: a typed constant or a named parameter.
/// Numeric/date constants are raw fixed-point values at the lhs scale.
struct Operand {
  bool is_param = false;
  std::string param;  // name, when is_param
  int64_t num = 0;    // numeric/date constant
  std::string str;    // string constant
};

enum class PredKind : uint8_t {
  kCmp,      // lhs CMP rhs[0]
  kEqOr2,    // lhs == rhs[0] || lhs == rhs[1]  (IN of two values)
  kContains  // substring match, string column only
};

struct Predicate {
  PredKind kind = PredKind::kCmp;
  CmpOp cmp = CmpOp::kEq;
  Scalar lhs;                // plain column for string predicates
  std::vector<Operand> rhs;  // 1 for kCmp/kContains, 2 for kEqOr2
  bool is_string = false;
  ast::Pos pos;

  uint32_t TableMask() const { return lhs.TableMask(); }
};

/// Equi-join between two tables: one or two key-column pairs (both sides
/// share each pair's physical integer type).
struct JoinEdge {
  std::vector<std::array<ColumnId, 2>> keys;  // {left col, right col}
  uint32_t mask = 0;                          // the two tables' bits
};

struct Aggregate {
  ast::AggFn fn = ast::AggFn::kCount;  // kAvg never appears here: the
                                       // binder lowers AVG to SUM + a
                                       // shared hidden COUNT
  bool has_arg = false;                // false for COUNT(*)
  Scalar arg;
  SqlType type;  // result type (sum/min/max keep the arg type)
};

/// One result column. Slot layout convention shared by both lowerings and
/// the result writer: slots [0, values) hold the value/group-key scalars,
/// slots [values, values+aggs) the aggregates, in declaration order.
struct Output {
  enum class Src : uint8_t { kValue, kAgg, kAvg };
  std::string name;
  Src src = Src::kValue;
  uint32_t index = 0;        // into values (kValue) or aggs (kAgg/kAvg sum)
  uint32_t count_index = 0;  // kAvg: the companion COUNT aggregate
  SqlType type;
};

/// HAVING conjunct: aggregate CMP constant-or-param (the aggregate is by
/// index into BoundQuery::aggs; hidden aggregates are appended as needed).
struct HavingPred {
  uint32_t agg = 0;
  CmpOp cmp = CmpOp::kEq;
  Operand rhs;
  ast::Pos pos;
};

struct ParamDecl {
  std::string name;
  runtime::ParamType type;
};

struct BoundQuery {
  const Catalog* catalog = nullptr;
  std::vector<uint32_t> tables;  // indexes into catalog->tables()
  std::vector<Predicate> filters;
  std::vector<JoinEdge> joins;  // one edge per joined table pair
  /// Group keys when `grouped`, otherwise the projection expressions.
  std::vector<Scalar> values;
  bool grouped = false;
  std::vector<Aggregate> aggs;  // non-empty = aggregate query
  std::vector<Output> outputs;
  std::vector<HavingPred> having;
  std::vector<std::pair<uint32_t, bool>> order_by;  // (output idx, desc)
  uint64_t limit = UINT64_MAX;
  std::vector<ParamDecl> params;

  const TableDef& Table(uint32_t t) const {
    return catalog->tables()[tables[t]];
  }
  const ColumnDef& Column(ColumnId id) const {
    return Table(id.table).columns[id.col];
  }
};

/// Pretty-printer for the logical plan (EXPLAIN "logical" stage).
std::string ToString(const BoundQuery& q);
std::string ToString(const BoundQuery& q, const Scalar& s);

}  // namespace vcq::sql

#endif  // VCQ_SQL_LOGICAL_H_
