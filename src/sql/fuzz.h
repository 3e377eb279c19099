#ifndef VCQ_SQL_FUZZ_H_
#define VCQ_SQL_FUZZ_H_

#include <cstdint>
#include <string>

#include "sql/catalog.h"
#include "sql/optimizer.h"

// Seeded random SQL generator for the differential harness: every
// generated query compiles against the given catalog and lowers onto both
// backends (Tectorwise and Volcano), so the harness can assert
// byte-identical results instead of filtering out rejects. Queries stay
// inside the supported subset by construction — join sets are random
// connected subtrees of the workload's foreign-key graph, predicates draw
// literals from the catalog's min/max statistics (numerics) or from actual
// stored rows (strings), and multiplication is kept out of generated
// expressions so fixed-point sums cannot overflow. A share of the grouped
// queries groups on a join column and carries a HAVING conjunct, so the
// eager-aggregation rewrite's dropped final aggregation and HAVING
// pushdown are exercised too.

namespace vcq::sql {

/// Deterministic: the same (catalog schema, seed) yields the same text.
std::string GenerateFuzzQuery(const Catalog& catalog, uint64_t seed);

/// Optimizer options for the oracle side of a differential run: FROM-order
/// joins and no eager aggregation. The side under test compiles with the
/// defaults, so a wrong join-order or aggregation rewrite shows up as a
/// mismatch instead of being shared by both backends.
inline constexpr OptimizerOptions kFuzzOracleOptions{
    .fold_constants = true,
    .pushdown = true,
    .join_order = false,
    .eager_aggregation = false};

}  // namespace vcq::sql

#endif  // VCQ_SQL_FUZZ_H_
