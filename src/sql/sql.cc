#include "sql/sql.h"

#include <functional>
#include <string>
#include <utility>

#include "runtime/trace.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/logical.h"
#include "sql/parser.h"

namespace vcq::sql {

uint64_t CompiledQuery::ScannedTuples() const {
  uint64_t total = 0;
  const std::function<void(const JoinTree&)> walk = [&](const JoinTree& t) {
    if (t.IsLeaf()) {
      total += plan_.query.Table(static_cast<uint32_t>(t.table)).tuple_count;
      return;
    }
    if (t.IsPreAgg()) {
      walk(*t.input);
      return;
    }
    walk(*t.build);
    walk(*t.probe);
  };
  walk(*plan_.root);
  return total;
}

std::string CompiledQuery::ExplainPhysical() const {
  return std::move(LowerTectorwise()).TakePlan().ToString();
}

namespace {

/// Records one compile-stage span; stages failing mid-way still record
/// (the scope closes on the exception path), so a trace shows where
/// compilation stopped.
struct StageSpan : runtime::TraceScope {
  StageSpan(runtime::QueryTrace* trace, const char* name)
      : runtime::TraceScope(trace, "sql", name) {}
};

}  // namespace

CompileResult Compile(std::shared_ptr<const Catalog> catalog,
                      std::string_view text, const OptimizerOptions& options,
                      runtime::QueryTrace* trace) {
  CompileResult result;
  try {
    std::optional<ast::Select> select;
    {
      StageSpan span(trace, "sql.parse");
      select.emplace(Parse(text));
    }
    std::string ast_dump = ToString(*select);
    std::optional<BoundQuery> bound;
    {
      StageSpan span(trace, "sql.bind");
      bound.emplace(Bind(*catalog, *select));
    }
    std::string logical_dump = ToString(*bound);
    std::optional<PhysicalPlan> plan;
    {
      StageSpan span(trace, "sql.optimize");
      plan.emplace(Optimize(std::move(*bound), options));
    }
    result.query = std::make_shared<CompiledQuery>(
        std::move(catalog), std::string(text), std::move(*plan),
        std::move(ast_dump), std::move(logical_dump));
  } catch (const internal::SqlException& e) {
    result.error = e.error;
  }
  return result;
}

CompileResult Compile(const runtime::Database& db, std::string_view text,
                      const OptimizerOptions& options) {
  return Compile(MakeCatalog(db), text, options);
}

std::string Explain(const CompiledQuery& query) {
  std::string out;
  out += "-- ast --\n" + query.ExplainAst();
  out += "-- logical --\n" + query.ExplainLogical();
  out += "-- optimized --\n" + query.ExplainOptimized();
  out += "-- physical (tectorwise) --\n" + query.ExplainPhysical();
  return out;
}

}  // namespace vcq::sql
