#include "sql/sql.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/tpch.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "sql/catalog.h"
#include "sql/fuzz.h"
#include "sql/reference_queries.h"

// The SQL front door's own contract (the cross-engine byte-identity of the
// nine workload queries lives in sql_differential_test.cc):
//  - malformed SQL fails at COMPILE time with a 1-based line:column
//    position, and Session::PrepareSql turns that into a loud prepare-time
//    death — an Execute can never see a compile error;
//  - the binder's semantic guards (unknown names, type mixing, unsupported
//    shapes) all carry positions;
//  - compiled feature queries (expressions, BETWEEN/IN/LIKE, EXTRACT,
//    GROUP BY/HAVING, AVG, parameters) agree byte-for-byte between the
//    Tectorwise lowering and the Volcano interpreter;
//  - the optimizer's pushdown + join ordering strictly reduce plan cost on
//    join queries with an adversarial FROM order;
//  - constant arithmetic that overflows int64 is a positioned compile
//    error on every path (binder, rescale, folding), never a wrapped value;
//  - the catalog trusts only verified keys, and eager aggregation returns
//    the same rows as the plain plan whether or not it drops the final
//    aggregation;
//  - EXPLAIN exposes all four stages.

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.01));
  return *db;
}

std::shared_ptr<const sql::Catalog> TpchCatalog() {
  static const std::shared_ptr<const sql::Catalog>* cat =
      new std::shared_ptr<const sql::Catalog>(sql::MakeCatalog(TpchDb()));
  return *cat;
}

sql::CompileResult CompileTpch(std::string_view text,
                               const sql::OptimizerOptions& opt = {}) {
  return sql::Compile(TpchCatalog(), text, opt);
}

/// Compiles `text` and runs it on both backends, asserting byte identity;
/// returns the Tectorwise result for further checks.
QueryResult BothEngines(std::string_view text, const QueryParams& params = {},
                        size_t threads = 1) {
  sql::CompileResult c = CompileTpch(text);
  EXPECT_TRUE(c.ok()) << (c.error ? c.error->Format() : "") << "\n" << text;
  if (!c.ok()) return QueryResult::Failed(runtime::ExecStatus::kInternalError);
  QueryOptions opt;
  opt.threads = threads;
  const QueryResult tw = c.query->LowerTectorwise().Run(opt, params);
  QueryOptions vopt;
  vopt.threads = 1;
  const QueryResult volcano = c.query->RunVolcano(vopt, params);
  EXPECT_EQ(tw, volcano) << text << "\n-- tectorwise --\n"
                         << tw.ToString(10) << "-- volcano --\n"
                         << volcano.ToString(10);
  return tw;
}

// ---------------------------------------------------------------------------
// Compile errors: positioned, at compile time only
// ---------------------------------------------------------------------------

struct ErrorCase {
  const char* sql;
  const char* message_part;  // substring of the diagnostic
};

TEST(SqlCompileErrorTest, PositionedDiagnostics) {
  const ErrorCase cases[] = {
      {"SELEC n_name FROM nation", "expected select"},
      {"SELECT n_name FROM no_such_table", "unknown table"},
      {"SELECT no_such_col FROM nation", "unknown column"},
      {"SELECT n_name FROM nation WHERE n_name < 3", "string"},
      {"SELECT n_name FROM nation WHERE n_nationkey = 'x'", "cannot compare"},
      {"SELECT n_name FROM nation, region", "not connected"},
      {"SELECT n_name FROM nation, nation", "duplicate table"},
      {"SELECT SUM(n_nationkey) FROM nation HAVING SUM(n_nationkey) > 1",
       "HAVING requires GROUP BY"},
      {"SELECT n_name FROM nation ORDER BY n_regionkey",
       "not in the select list"},
      {"SELECT n_name, COUNT(*) FROM nation", "requires GROUP BY"},
      {"SELECT n_name FROM nation WHERE n_regionkey IN (1, 2, 3)",
       "more than two"},
      {"SELECT n_name FROM nation WHERE n_regionkey IN (1, $p)",
       "all constants or all parameters"},
      {"SELECT n_name FROM nation WHERE n_name = "
       "'an impossibly long literal that cannot fit a char(25) column'",
       "wider than column"},
      {"SELECT n_regionkey FROM nation GROUP BY n_regionkey, n_regionkey",
       "duplicate group key"},
      {"SELECT SUM(1) FROM nation", "must reference a table column"},
      {"SELECT AVG(n_name) FROM nation", "numeric argument"},
      {"SELECT n_name FROM nation WHERE n_name LIKE 'a_b'", "LIKE"},
      {"SELECT n_name FROM nation LIMIT", "LIMIT"},
  };
  for (const ErrorCase& c : cases) {
    sql::CompileResult r = CompileTpch(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_NE(r.error->message.find(c.message_part), std::string::npos)
        << c.sql << " -> " << r.error->Format();
    EXPECT_GE(r.error->line, 1u) << c.sql;
    EXPECT_GE(r.error->col, 1u) << c.sql;
  }
}

TEST(SqlCompileErrorTest, PositionPointsAtOffendingToken) {
  // Line 2, the unknown column after the two leading spaces.
  sql::CompileResult r = CompileTpch("SELECT n_name FROM nation\nWHERE  nope = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->line, 2u);
  EXPECT_EQ(r.error->col, 8u);
  EXPECT_NE(r.error->Format().find("2:8"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checked constant arithmetic
// ---------------------------------------------------------------------------

struct OverflowCase {
  const char* path;
  const char* sql;
  const char* token;  // the diagnostic points at its first occurrence
};

TEST(SqlOverflowTest, ConstantOverflowIsAPositionedError) {
  const OverflowCase cases[] = {
      // A predicate bound the binder evaluates.
      {"binder",
       "SELECT COUNT(*) AS n FROM lineitem "
       "WHERE l_orderkey < 4000000000 * 4000000000",
       "* 4000000000"},
      // A scale-0 bound raised to l_discount's scale 2 (×100).
      {"rescale",
       "SELECT COUNT(*) AS n FROM lineitem "
       "WHERE l_discount < 100000000000000000",
       "100000000000000000"},
      // A constant subtree inside a column expression, which the optimizer
      // folds (or, with folding off, still evaluates for the lowerings).
      {"folding",
       "SELECT SUM(l_quantity + 4000000000 * 4000000000) AS s FROM lineitem",
       "* 4000000000"},
  };
  for (const OverflowCase& c : cases) {
    for (const bool fold : {true, false}) {
      sql::OptimizerOptions opt;
      opt.fold_constants = fold;
      sql::CompileResult r = CompileTpch(c.sql, opt);
      ASSERT_FALSE(r.ok()) << c.path << ": " << c.sql;
      EXPECT_NE(r.error->message.find("integer overflow"), std::string::npos)
          << c.path << " -> " << r.error->Format();
      EXPECT_EQ(r.error->line, 1u) << c.path;
      EXPECT_EQ(r.error->col, std::string_view(c.sql).find(c.token) + 1)
          << c.path << " -> " << r.error->Format();
    }
  }
  // Large values that fit stay legal on the same paths.
  for (const char* ok :
       {"SELECT COUNT(*) AS n FROM lineitem WHERE l_orderkey < 4000000000 * 2",
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_discount < 10000000000",
        "SELECT SUM(l_quantity + 4000000000 * 2) AS s FROM lineitem"}) {
    EXPECT_TRUE(CompileTpch(ok).ok()) << ok;
  }
}

// ---------------------------------------------------------------------------
// Keys and eager aggregation
// ---------------------------------------------------------------------------

std::vector<std::string> KeyNames(const sql::TableDef& t) {
  std::vector<std::string> out;
  for (const uint32_t k : t.key) out.push_back(t.columns[k].name);
  return out;
}

TEST(SqlCatalogTest, DeclaredKeysAreVerified) {
  const sql::Catalog& cat = *TpchCatalog();
  using V = std::vector<std::string>;
  EXPECT_EQ(KeyNames(*cat.Find("orders")), V{"o_orderkey"});
  EXPECT_EQ(KeyNames(*cat.Find("customer")), V{"c_custkey"});
  EXPECT_EQ(KeyNames(*cat.Find("region")), V{"r_regionkey"});
  EXPECT_EQ(KeyNames(*cat.Find("partsupp")), (V{"ps_partkey", "ps_suppkey"}));
  EXPECT_TRUE(cat.Find("lineitem")->key.empty());
}

/// orders ⋈ lineitem over hand-made rows; `dup_key` repeats o_orderkey 2.
Database SmallOrders(bool dup_key) {
  Database db;
  runtime::Relation& o = db.Add("orders");
  const std::vector<int32_t> okeys =
      dup_key ? std::vector<int32_t>{1, 2, 2, 3} : std::vector<int32_t>{1, 2, 3, 4};
  auto ok = o.AddColumn<int32_t>("o_orderkey", okeys.size());
  auto prio = o.AddColumn<int32_t>("o_shippriority", okeys.size());
  for (size_t i = 0; i < okeys.size(); ++i) {
    ok[i] = okeys[i];
    prio[i] = 0;
  }
  runtime::Relation& l = db.Add("lineitem");
  const std::vector<int32_t> lkeys{1, 1, 2, 3, 3, 3, 4};
  auto lk = l.AddColumn<int32_t>("l_orderkey", lkeys.size());
  auto qty = l.AddColumn<int64_t>("l_quantity", lkeys.size());
  for (size_t i = 0; i < lkeys.size(); ++i) {
    lk[i] = lkeys[i];
    qty[i] = 100 * static_cast<int64_t>(i + 1);
  }
  return db;
}

TEST(SqlCatalogTest, DuplicatedKeyIsDroppedAndResultsStayCorrect) {
  const char* q =
      "SELECT o_orderkey, o_shippriority, SUM(l_quantity) AS q, "
      "COUNT(*) AS n FROM orders, lineitem WHERE o_orderkey = l_orderkey "
      "GROUP BY o_orderkey, o_shippriority HAVING COUNT(*) > 1";
  for (const bool dup : {false, true}) {
    const Database db = SmallOrders(dup);
    const auto catalog = sql::MakeCatalog(db);
    EXPECT_EQ(catalog->Find("orders")->key.empty(), dup);
    sql::CompileResult eager = sql::Compile(catalog, q);
    sql::CompileResult plain =
        sql::Compile(catalog, q, sql::OptimizerOptions{.eager_aggregation = false});
    ASSERT_TRUE(eager.ok() && plain.ok());
    // Only a verified key lets the pre-aggregated rows stand as the final
    // groups; a duplicated o_orderkey must keep the final aggregation.
    EXPECT_EQ(eager.query->plan().pre_agg_table >= 0 &&
                  !eager.query->plan().final_aggregation,
              !dup)
        << eager.query->ExplainOptimized();
    QueryOptions opt;
    opt.threads = 2;
    const QueryResult got = eager.query->LowerTectorwise().Run(opt, {});
    EXPECT_EQ(got, plain.query->RunVolcano(opt, {}));
    EXPECT_EQ(got, eager.query->RunVolcano(opt, {}));
    // Order 1: two lines (1.00 + 2.00). With the duplicate, order 2 meets
    // its single line twice (count 2); order 3 has three lines.
    std::vector<std::vector<std::string>> want = {{"1", "0", "3.00", "2"}};
    if (dup) want.push_back({"2", "0", "6.00", "2"});
    want.push_back({"3", "0", "15.00", "3"});
    EXPECT_EQ(got.rows, want) << got.ToString(10);
  }
}

TEST(SqlOptimizerTest, EagerAggregationMatchesThePlainPlan) {
  // Each statement aggregates one join input only. The Q18 shape drops the
  // final aggregation and pushes HAVING down; the others keep a final
  // aggregation over pre-aggregated partials (COUNT becomes a SUM of
  // counts, AVG a SUM over a hidden COUNT).
  struct Case {
    const char* sql;
    bool drops_final;
  };
  const Case cases[] = {
      {"SELECT c_name, o_orderkey, SUM(l_quantity) AS q FROM lineitem, "
       "orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = "
       "c_custkey GROUP BY c_name, o_orderkey HAVING SUM(l_quantity) > 250",
       true},
      {"SELECT EXTRACT(YEAR FROM o_orderdate) AS y, COUNT(*) AS n, "
       "SUM(l_quantity) AS q, MIN(l_discount) AS lo, MAX(l_tax) AS hi, "
       "AVG(l_extendedprice) AS p FROM lineitem, orders "
       "WHERE l_orderkey = o_orderkey "
       "GROUP BY EXTRACT(YEAR FROM o_orderdate) HAVING COUNT(*) > 10",
       false},
      {"SELECT SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem, orders "
       "WHERE l_orderkey = o_orderkey",
       false},
  };
  for (const Case& c : cases) {
    sql::CompileResult eager = CompileTpch(c.sql);
    sql::CompileResult plain =
        CompileTpch(c.sql, sql::OptimizerOptions{.eager_aggregation = false});
    ASSERT_TRUE(eager.ok() && plain.ok()) << c.sql;
    const sql::PhysicalPlan& plan = eager.query->plan();
    EXPECT_GE(plan.pre_agg_table, 0) << eager.query->ExplainOptimized();
    EXPECT_EQ(!plan.final_aggregation, c.drops_final)
        << eager.query->ExplainOptimized();
    EXPECT_LT(plain.query->plan().pre_agg_table, 0);
    const QueryResult reference = plain.query->RunVolcano({}, {});
    ASSERT_FALSE(reference.rows.empty()) << c.sql;
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      QueryOptions opt;
      opt.threads = threads;
      EXPECT_EQ(eager.query->LowerTectorwise().Run(opt, {}), reference)
          << c.sql;
    }
    EXPECT_EQ(eager.query->RunVolcano({}, {}), reference) << c.sql;
  }
}

TEST(SqlOptimizerTest, ParameterBetweenCountsOnceAtAQuarter) {
  // A lower and an upper parameter bound on one column are one range
  // guess (1/4), not two independent 0.3 guesses (0.09).
  sql::CompileResult c = CompileTpch(
      "SELECT COUNT(*) AS n FROM orders "
      "WHERE o_totalprice BETWEEN $lo AND $hi");
  ASSERT_TRUE(c.ok());
  const double rows = static_cast<double>(TpchDb()["orders"].tuple_count());
  EXPECT_DOUBLE_EQ(c.query->plan().root->est_rows, rows / 4);
  // A one-sided parameter bound keeps the 0.3 guess.
  sql::CompileResult one = CompileTpch(
      "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice >= $lo");
  ASSERT_TRUE(one.ok());
  EXPECT_DOUBLE_EQ(one.query->plan().root->est_rows, rows * 0.3);
}

TEST(SqlOptimizerTest, KeyJoinEstimateFollowsTheForeignKeySide) {
  // partsupp ⋈ lineitem on the composite key: every lineitem row meets
  // exactly one partsupp row, so the estimate is |lineitem|, not the
  // product of per-column 1/ndv.
  sql::CompileResult c = CompileTpch(
      "SELECT COUNT(*) AS n FROM lineitem, partsupp "
      "WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey");
  ASSERT_TRUE(c.ok());
  const double rows = static_cast<double>(TpchDb()["lineitem"].tuple_count());
  EXPECT_DOUBLE_EQ(c.query->plan().root->est_rows, rows);
}

TEST(SqlSessionDeathTest, PrepareSqlDiesOnMalformedSql) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  EXPECT_DEATH(session.PrepareSql("SELECT FROM nowhere"), "SQL error at");
  EXPECT_DEATH(session.PrepareSql("SELECT COUNT(*) FROM nation",
                                  Engine::kTyper),
               "Typer");
  EXPECT_DEATH(session.ExplainSql("SELECT nope FROM nation"), "SQL error at");
}

TEST(SqlSessionDeathTest, SqlHandleGuards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k");
  EXPECT_DEATH(q.query(), "no catalog Query id");
  EXPECT_DEATH(q.Set("unknown", int64_t{1}), "unknown parameter");
  EXPECT_DEATH(q.Set("k", "not an int"), "integer");
}

// ---------------------------------------------------------------------------
// Correctness on small relations (hand-computable references)
// ---------------------------------------------------------------------------

TEST(SqlCorrectnessTest, CountAndSumAgainstStorage) {
  const auto& nation = TpchDb()["nation"];
  const auto keys = nation.Col<int32_t>("n_nationkey");
  int64_t sum = 0;
  for (size_t i = 0; i < nation.tuple_count(); ++i) sum += keys[i];
  const QueryResult r = BothEngines(
      "SELECT COUNT(*) AS n, SUM(n_nationkey) AS s FROM nation");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], std::to_string(nation.tuple_count()));
  EXPECT_EQ(r.rows[0][1], std::to_string(sum));
}

TEST(SqlCorrectnessTest, GroupByWithOrderAndLimit) {
  const QueryResult r = BothEngines(
      "SELECT n_regionkey, COUNT(*) AS members FROM nation "
      "GROUP BY n_regionkey ORDER BY n_regionkey LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0], "0");
  EXPECT_EQ(r.rows[1][0], "1");
  EXPECT_EQ(r.rows[2][0], "2");
  ASSERT_EQ(r.column_names,
            (std::vector<std::string>{"n_regionkey", "members"}));
}

TEST(SqlCorrectnessTest, JoinProjection) {
  // Every nation paired with its region name; row count must equal the
  // nation table's cardinality.
  const QueryResult r = BothEngines(
      "SELECT n_name, r_name FROM nation, region "
      "WHERE n_regionkey = r_regionkey");
  EXPECT_EQ(r.rows.size(), TpchDb()["nation"].tuple_count());
}

// ---------------------------------------------------------------------------
// Feature queries: Tectorwise == Volcano (1 and 4 threads)
// ---------------------------------------------------------------------------

TEST(SqlDifferentialFeatureTest, FeatureQueriesAgreeAcrossEngines) {
  const char* queries[] = {
      // Expressions + multi-aggregate + AVG.
      "SELECT l_returnflag, SUM(l_extendedprice * (1.00 - l_discount)) AS v,"
      " AVG(l_quantity) AS aq, MIN(l_discount) AS lo, MAX(l_tax) AS hi,"
      " COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"
      " ORDER BY l_returnflag",
      // BETWEEN + date comparison + ungrouped aggregates.
      "SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n FROM lineitem"
      " WHERE l_discount BETWEEN 0.04 AND 0.06"
      " AND l_shipdate < DATE '1996-01-01'",
      // LIKE prefix (range rewrite) and substring (Contains).
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE 'a%'",
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE '%green%'",
      // IN on strings, OR-pair on numerics.
      "SELECT COUNT(*) AS n FROM nation WHERE n_name IN ('FRANCE','KENYA')",
      "SELECT COUNT(*) AS n FROM nation"
      " WHERE n_regionkey = 1 OR n_regionkey = 3",
      // EXTRACT(YEAR) as group key and output.
      "SELECT EXTRACT(YEAR FROM o_orderdate) AS y, COUNT(*) AS n"
      " FROM orders GROUP BY EXTRACT(YEAR FROM o_orderdate) ORDER BY y",
      // HAVING above a join.
      "SELECT o_orderkey, SUM(l_quantity) AS q FROM orders, lineitem"
      " WHERE o_orderkey = l_orderkey GROUP BY o_orderkey"
      " HAVING SUM(l_quantity) > 200.00 ORDER BY q DESC, o_orderkey LIMIT 5",
      // MIN/MAX over dates.
      "SELECT MIN(l_shipdate) AS lo, MAX(l_shipdate) AS hi FROM lineitem",
      // Arithmetic between columns of different scales.
      "SELECT SUM(l_extendedprice - l_quantity) AS d FROM lineitem"
      " WHERE l_linenumber = 1",
  };
  for (const char* q : queries) {
    BothEngines(q, {}, 1);
    BothEngines(q, {}, 4);
  }
}

TEST(SqlParamTest, ParametersMatchInlinedLiterals) {
  const char* with_params =
      "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem"
      " WHERE l_shipdate >= $lo AND l_shipdate < $hi"
      " AND l_discount BETWEEN $dlo AND $dhi AND l_returnflag = $flag";
  const char* inlined =
      "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem"
      " WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE "
      "'1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07"
      " AND l_returnflag = 'R'";
  QueryParams params;
  params.SetDate("lo", "1994-01-01");
  params.SetDate("hi", "1995-01-01");
  params.SetInt("dlo", 5);
  params.SetInt("dhi", 7);
  params.SetString("flag", "R");
  const QueryResult a = BothEngines(with_params, params);
  const QueryResult b = BothEngines(inlined);
  EXPECT_EQ(a.rows, b.rows);
}

TEST(SqlParamTest, SessionBindingRoundTrip) {
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k");
  EXPECT_TRUE(q.is_sql());
  EXPECT_EQ(q.info().name, "SQL");
  ASSERT_EQ(q.info().params.size(), 1u);
  EXPECT_EQ(q.info().params[0].name, "k");
  q.Set("k", int64_t{5});
  const QueryResult r5 = q.Execute();
  ASSERT_TRUE(r5.ok());
  ASSERT_EQ(r5.rows.size(), 1u);
  EXPECT_EQ(r5.rows[0][0], "5");
  q.Set("k", int64_t{10});
  EXPECT_EQ(q.Execute().rows[0][0], "10");
  // Volcano engine through the same Session surface, same bindings.
  PreparedQuery v = session.PrepareSql(
      "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < $k",
      Engine::kVolcano);
  v.Set("k", int64_t{10});
  EXPECT_EQ(v.Execute(), q.Execute());
}

TEST(SqlParamTest, ParameterizedLikeUsesRawSubstring) {
  QueryParams params;
  params.SetString("needle", "green");
  const QueryResult a = BothEngines(
      "SELECT COUNT(*) AS n FROM part WHERE p_name LIKE $needle", params);
  const QueryResult b =
      BothEngines("SELECT COUNT(*) AS n FROM part WHERE p_name LIKE "
                  "'%green%'");
  EXPECT_EQ(a.rows, b.rows);
}

// ---------------------------------------------------------------------------
// EXPLAIN and optimizer behavior
// ---------------------------------------------------------------------------

TEST(SqlExplainTest, AllFourStagesPresent) {
  Session session(TpchDb());
  const std::string out = session.ExplainSql(
      "SELECT n_name, COUNT(*) AS n FROM nation, region "
      "WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' "
      "GROUP BY n_name");
  EXPECT_NE(out.find("-- ast --"), std::string::npos);
  EXPECT_NE(out.find("-- logical --"), std::string::npos);
  EXPECT_NE(out.find("-- optimized --"), std::string::npos);
  EXPECT_NE(out.find("-- physical (tectorwise) --"), std::string::npos);
}

TEST(SqlExplainTest, ExplainAnalyzePrintsEstimatesBesideRows) {
  Session session(TpchDb());
  PreparedQuery q = session.PrepareSql(
      "SELECT n_name, COUNT(*) AS n FROM nation, supplier "
      "WHERE s_nationkey = n_nationkey GROUP BY n_name");
  const std::string out = q.ExplainAnalyze();
  // The join's estimate (|supplier|: every supplier has one nation) sits
  // right after its measured row count.
  const size_t join = out.find("hash-join");
  ASSERT_NE(join, std::string::npos) << out;
  const std::string rows =
      "rows=" + std::to_string(TpchDb()["supplier"].tuple_count()) + " est=" +
      std::to_string(TpchDb()["supplier"].tuple_count()) + " ";
  EXPECT_NE(out.find(rows, join), std::string::npos) << out;
}

TEST(SqlOptimizerTest, JoinOrderingAndPushdownReduceCost) {
  // Adversarial FROM order: the fact table first, the selective dimension
  // filter last. The full optimizer must beat the FROM-order baseline.
  const char* q3ish =
      "SELECT o_orderkey, SUM(l_extendedprice) AS v"
      " FROM lineitem, orders, customer"
      " WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
      " AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'"
      " GROUP BY o_orderkey";
  sql::OptimizerOptions off;
  off.pushdown = false;
  off.join_order = false;
  sql::CompileResult baseline = CompileTpch(q3ish, off);
  sql::CompileResult full = CompileTpch(q3ish);
  ASSERT_TRUE(baseline.ok() && full.ok());
  EXPECT_LT(full.query->cost(), baseline.query->cost());

  // The measured interpreter confirms the estimate: fewer tuples flow
  // through the joins under the optimized order.
  QueryOptions opt;
  opt.threads = 1;
  sql::VolcanoStats base_stats;
  sql::VolcanoStats full_stats;
  const QueryResult a = baseline.query->RunVolcano(opt, {}, &base_stats);
  const QueryResult b = full.query->RunVolcano(opt, {}, &full_stats);
  EXPECT_EQ(a, b);  // plans differ, results must not
  EXPECT_LT(full_stats.intermediate_tuples, base_stats.intermediate_tuples);
}

TEST(SqlOptimizerTest, OptimizerConfigsAgreeOnResults) {
  const char* q =
      "SELECT n_name, COUNT(*) AS n FROM nation, supplier"
      " WHERE s_nationkey = n_nationkey AND s_suppkey < 50.00 + 50.00"
      " GROUP BY n_name ORDER BY n_name";
  QueryResult reference;
  bool first = true;
  for (const bool fold : {false, true}) {
    for (const bool pushdown : {false, true}) {
      for (const bool join_order : {false, true}) {
        sql::OptimizerOptions o;
        o.fold_constants = fold;
        o.pushdown = pushdown;
        o.join_order = join_order;
        sql::CompileResult c = CompileTpch(q, o);
        ASSERT_TRUE(c.ok());
        QueryOptions opt;
        opt.threads = 2;
        const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
        const QueryResult volcano = c.query->RunVolcano(opt, {});
        EXPECT_EQ(tw, volcano);
        if (first) {
          reference = tw;
          first = false;
        } else {
          EXPECT_EQ(tw, reference);
        }
      }
    }
  }
}

TEST(SqlFuzzTest, SmokeSeedsAgreeAcrossEngines) {
  // A handful of seeds inline (the 200-query sweep runs in
  // sql_differential_test.cc and the sql_fuzz example).
  auto catalog = TpchCatalog();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string text = sql::GenerateFuzzQuery(*catalog, seed);
    sql::CompileResult c = sql::Compile(catalog, text);
    ASSERT_TRUE(c.ok()) << "seed " << seed << ":\n"
                        << text << "\n"
                        << (c.error ? c.error->Format() : "");
    QueryOptions opt;
    opt.threads = 2;
    const QueryResult tw = c.query->LowerTectorwise().Run(opt, {});
    const QueryResult volcano = c.query->RunVolcano(opt, {});
    EXPECT_EQ(tw, volcano) << "seed " << seed << ":\n"
                           << text << "\n-- tectorwise --\n"
                           << tw.ToString(10) << "-- volcano --\n"
                           << volcano.ToString(10);
  }
}

TEST(SqlReferenceTest, AllNineTextsCompile) {
  for (const char* name :
       {"Q1", "Q6", "Q3", "Q9", "Q18", "SSB-Q1.1", "SSB-Q2.1", "SSB-Q3.1",
        "SSB-Q4.1"}) {
    const char* text = sql::SqlTextFor(name);
    ASSERT_NE(text, nullptr) << name;
  }
  EXPECT_EQ(sql::SqlTextFor("Q99"), nullptr);
}

}  // namespace
}  // namespace vcq
