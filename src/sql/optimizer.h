#ifndef VCQ_SQL_OPTIMIZER_H_
#define VCQ_SQL_OPTIMIZER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sql/logical.h"

// The optimizer: turns a BoundQuery's table set + join edges into a
// concrete binary join tree, places the filter conjuncts, and decides
// whether to aggregate eagerly. Four independently switchable rewrites
// (bench/ablation_sql_optimizer.cc measures each):
//
//   fold_constants     evaluate constant subtrees of every scalar (checked:
//                      an int64 overflow is a positioned SqlError whether or
//                      not the subtree is folded).
//   pushdown           place each filter at the lowest subtree covering its
//                      tables (single-table filters at the scan); off = all
//                      filters above the last join.
//   join_order         greedy smallest-intermediate ordering (GOO):
//                      repeatedly join the connected pair with the smallest
//                      estimated output, smaller side as hash-table build.
//                      Off = left-deep in FROM order (skipping to the next
//                      connected table), accumulated side as build.
//   eager_aggregation  when every aggregate reads one join input, group that
//                      input below the joins (a pre-aggregate node) on the
//                      columns the plan above still reads — its join and
//                      GROUP BY columns — and keep the plan whose estimated
//                      cost is lower. When verified keys make
//                      each final group exactly one pre-aggregated row, the
//                      final aggregation is dropped and HAVING moves onto
//                      the pre-aggregate. Needs pushdown (the input's own
//                      filters must run below the pre-aggregate).
//
// Cardinality model. Per-column min/max stats from the catalog give
// ndv ≈ clamp(max-min+1, 1, |T|); a column equi-joined to a single-column
// verified key has ndv ≤ the rows of that key's table (a foreign key
// cannot take more values than it references). Selectivities:
//   * equality 1/ndv, a range its fraction of [min, max];
//   * a parameter's value is unknown at plan time: equality 1/ndv (0.1
//     without statistics), a range 0.3, and a lower plus an upper
//     parameter bound on the same expression (BETWEEN $lo AND $hi) 1/4 for
//     the pair (Selinger's guess), not 0.3²;
//   * strings: 1/ndv from the catalog's sampled ndv where it has one
//     (catalog.h), else 0.1 for equality; substring matches 0.05.
// A join whose key columns cover one side's full verified key (FK ⋈ PK)
// yields |other side| × (key side's estimate ÷ its table's rows): every
// other-side row finds at most one partner, present with the key side's
// filter selectivity. Other joins fall back to |A|·|B| / Π max(ndv) over
// their key pairs. A pre-aggregate yields min(Π ndv(group keys), input).
//
// Plan cost = Σ estimated rows materialized by joins and pre-aggregates
// (a pre-aggregate costs its input rows); the eager/no-eager choice adds
// the final aggregation's input to each side.

namespace vcq::sql {

struct OptimizerOptions {
  bool fold_constants = true;
  bool pushdown = true;
  bool join_order = true;
  bool eager_aggregation = true;
};

/// Plan tree node, one of three kinds:
///   * scan — `table` names a BoundQuery::tables index;
///   * hash join — `build` × `probe` on `keys` ({build column, probe
///     column} pairs);
///   * pre-aggregate — groups `input` on `group_keys` and computes every
///     BoundQuery::aggs entry per group; its output carries the group keys
///     (under their own ColumnIds) and one partial value per aggregate.
///     `having` = BoundQuery::having applies to these groups (set only when
///     the final aggregation is dropped).
/// `filters` are indexes into BoundQuery::filters applied at this node —
/// after the scan for scans, after the probe for joins.
struct JoinTree {
  int table = -1;
  std::unique_ptr<JoinTree> build;
  std::unique_ptr<JoinTree> probe;
  std::vector<std::array<ColumnId, 2>> keys;
  std::unique_ptr<JoinTree> input;
  std::vector<ColumnId> group_keys;
  bool having = false;
  std::vector<uint32_t> filters;
  /// Estimated output before `filters` and `having` (scan: table rows;
  /// join: join output; pre-aggregate: groups).
  double est_unfiltered = 0;
  double est_rows = 0;  // after this node's filters / HAVING
  uint32_t mask = 0;    // bit per BoundQuery::tables index

  bool IsLeaf() const { return table >= 0; }
  bool IsPreAgg() const { return input != nullptr; }
};

struct PhysicalPlan {
  BoundQuery query;
  OptimizerOptions options;
  std::unique_ptr<JoinTree> root;
  /// Σ estimated rows materialized by joins and pre-aggregates — the
  /// optimizer's plan cost (reported by EXPLAIN and the ablation bench;
  /// intermediate materialization is what the rewrites try to shrink).
  double cost = 0;
  /// BoundQuery::tables index of the pre-aggregated input, or -1 when the
  /// plan aggregates only at the top.
  int pre_agg_table = -1;
  /// False when the pre-aggregate's groups are already the final groups:
  /// the result is then a projection of the join output, with each
  /// aggregate read from the pre-aggregate's partial value.
  bool final_aggregation = true;
};

PhysicalPlan Optimize(BoundQuery query, const OptimizerOptions& options);

/// EXPLAIN "optimized" stage: the join tree with estimates and filter
/// placement.
std::string ToString(const PhysicalPlan& plan);

}  // namespace vcq::sql

#endif  // VCQ_SQL_OPTIMIZER_H_
