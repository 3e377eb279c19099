// Ablation: the SQL optimizer's plan-shaping passes — predicate pushdown,
// greedy join ordering and eager aggregation (sql/optimizer.h) — on Q3-,
// Q9- and Q18-shaped statements written with an adversarial FROM order
// (the fact table first, the selective dimension filters last). Five
// configs {off, pushdown only, join order only, both, both + eager
// aggregation} are compared on three axes: the optimizer's own cost
// estimate (Σ estimated join and pre-aggregate rows), the interpreter's
// measured intermediate-tuple count (sql/lower.h VolcanoStats: Σ join
// output tuples — ground truth the estimate is supposed to track), and
// Tectorwise wall time. The acceptance bar: measured intermediate tuples
// fall strictly from "off" to "both" on every statement, and from "both"
// to "eager-agg" on the statement whose aggregates read one join input
// (Q18-shaped) without rising on the others; the bench exits nonzero when
// a statement misses it.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "benchutil/bench.h"
#include "datagen/tpch.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/sql.h"

namespace {

using namespace vcq;

struct Config {
  const char* name;
  sql::OptimizerOptions options;
};

struct Workload {
  const char* name;
  const char* text;
  bool eager;  // eager aggregation applies and must cut join tuples
};

// Every statement lists lineitem first so the unoptimized left-deep plan
// joins the fact table before any filter has a chance to shrink it.
const Workload kWorkloads[] = {
    {"Q3-shaped",
     "SELECT o_orderkey, SUM(l_extendedprice) AS v"
     " FROM lineitem, orders, customer"
     " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
     " AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'"
     " GROUP BY o_orderkey",
     false},
    {"Q9-shaped",
     "SELECT n_name, SUM(l_extendedprice - l_quantity) AS profit"
     " FROM lineitem, partsupp, supplier, nation, part"
     " WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey"
     " AND s_suppkey = l_suppkey AND n_nationkey = s_nationkey"
     " AND p_partkey = l_partkey AND p_name LIKE '%green%'"
     " GROUP BY n_name",
     false},
    // The large-order report: only lineitem feeds the aggregate, and the
    // group key o_orderkey plus the key joins to orders and customer make
    // each final group one pre-aggregated lineitem group, so HAVING can
    // filter before any join.
    {"Q18-shaped",
     "SELECT c_name, o_orderkey, o_totalprice, SUM(l_quantity) AS q"
     " FROM lineitem, orders, customer"
     " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
     " GROUP BY c_name, o_orderkey, o_totalprice"
     " HAVING SUM(l_quantity) > 300",
     true},
};

}  // namespace

int main() {
  const double sf = benchutil::EnvSf(0.2);
  const int reps = benchutil::EnvReps(3);
  const size_t threads = benchutil::EnvThreads(4);

  std::printf("SQL optimizer ablation — TPC-H SF=%.2f, tectorwise x%zu, "
              "%d reps\n",
              sf, threads, reps);
  const runtime::Database db = datagen::GenerateTpch(sf);
  const auto catalog = sql::MakeCatalog(db);

  const Config configs[] = {
      {"off", {.fold_constants = true, .pushdown = false, .join_order = false,
               .eager_aggregation = false}},
      {"pushdown", {.fold_constants = true, .pushdown = true,
                    .join_order = false, .eager_aggregation = false}},
      {"join-order", {.fold_constants = true, .pushdown = false,
                      .join_order = true, .eager_aggregation = false}},
      {"both", {.fold_constants = true, .pushdown = true, .join_order = true,
                .eager_aggregation = false}},
      {"eager-agg", {.fold_constants = true, .pushdown = true,
                     .join_order = true, .eager_aggregation = true}},
  };

  runtime::QueryOptions tw_opt;
  tw_opt.threads = threads;
  const runtime::QueryOptions volcano_opt;
  const runtime::QueryParams no_params;

  bool strict_reduction = true;
  for (const Workload& w : kWorkloads) {
    std::printf("\n=== %s ===\n%s\n", w.name, w.text);
    std::printf("  %-11s %14s %18s %10s\n", "config", "est. cost",
                "measured interm.", "tw ms");
    uint64_t off_tuples = 0;
    uint64_t both_tuples = 0;
    uint64_t eager_tuples = 0;
    std::optional<runtime::QueryResult> reference;
    for (const Config& c : configs) {
      const sql::CompileResult compiled =
          sql::Compile(catalog, w.text, c.options);
      if (!compiled.ok()) {
        std::fprintf(stderr, "compile failed under %s: %s\n", c.name,
                     compiled.error->Format().c_str());
        return 1;
      }
      sql::VolcanoStats stats;
      const runtime::QueryResult result =
          compiled.query->RunVolcano(volcano_opt, no_params, &stats);
      if (!reference) reference = result;
      if (result != *reference) {
        std::fprintf(stderr, "%s: %s changed the result\n", w.name, c.name);
        return 1;
      }
      const benchutil::Measurement m = benchutil::Measure(
          [&] { compiled.query->LowerTectorwise().Run(tw_opt, no_params); },
          reps);
      std::printf("  %-11s %14.0f %18llu %10.2f\n", c.name,
                  compiled.query->cost(),
                  static_cast<unsigned long long>(stats.intermediate_tuples),
                  m.ms);
      if (!std::strcmp(c.name, "off")) off_tuples = stats.intermediate_tuples;
      if (!std::strcmp(c.name, "both"))
        both_tuples = stats.intermediate_tuples;
      if (!std::strcmp(c.name, "eager-agg"))
        eager_tuples = stats.intermediate_tuples;
    }
    if (both_tuples >= off_tuples) {
      std::fprintf(stderr,
                   "%s: full optimizer did not reduce intermediate tuples "
                   "(%llu -> %llu)\n",
                   w.name, static_cast<unsigned long long>(off_tuples),
                   static_cast<unsigned long long>(both_tuples));
      strict_reduction = false;
    }
    if (w.eager ? eager_tuples >= both_tuples : eager_tuples > both_tuples) {
      std::fprintf(stderr,
                   "%s: eager aggregation did not %s intermediate tuples "
                   "(%llu -> %llu)\n",
                   w.name, w.eager ? "reduce" : "keep",
                   static_cast<unsigned long long>(both_tuples),
                   static_cast<unsigned long long>(eager_tuples));
      strict_reduction = false;
    }
  }
  if (!strict_reduction) return 1;
  std::printf("\nthe optimizer strictly reduced measured intermediate "
              "tuples on every workload, eager aggregation where it "
              "applies\n");
  return 0;
}
