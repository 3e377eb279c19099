#include "sql/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace vcq::sql {
namespace {

/// Evaluates every constant subtree of `s` with checked arithmetic (an
/// overflow is a positioned SqlError) and, when `fold`, replaces the
/// subtree with its value. Checking without folding keeps the lowerings'
/// residual constant evaluation overflow-free.
void FoldScalar(Scalar* s, bool fold) {
  for (Scalar& a : s->args) FoldScalar(&a, fold);
  if (s->op != ScalarOp::kAdd && s->op != ScalarOp::kSub &&
      s->op != ScalarOp::kMul)
    return;
  const bool lhs_const = s->args[0].TableMask() == 0;
  const bool rhs_const = s->args[1].TableMask() == 0;
  // Tectorwise lowers `x - c` as `x + (-c)`.
  if (s->op == ScalarOp::kSub && !lhs_const && rhs_const)
    CheckedArith(ScalarOp::kSub, 0, EvalConst(s->args[1]), s->pos);
  if (!lhs_const || !rhs_const) return;
  const int64_t v = EvalConst(*s);
  if (!fold) return;
  s->op = ScalarOp::kConst;
  s->value = v;
  s->args.clear();
}

/// Unknown-value guesses for predicates the statistics cannot answer.
constexpr double kGuessEq = 0.1;
constexpr double kGuessRange = 0.3;

bool IsRange(CmpOp op) { return op != CmpOp::kEq; }
bool IsLowerBound(CmpOp op) { return op == CmpOp::kGt || op == CmpOp::kGe; }

class Optimizer {
 public:
  Optimizer(BoundQuery query, const OptimizerOptions& options)
      : plan_{std::move(query), options, nullptr, 0} {}

  PhysicalPlan Run() {
    BoundQuery& q = plan_.query;
    const bool fold = plan_.options.fold_constants;
    for (Predicate& p : q.filters) FoldScalar(&p.lhs, fold);
    for (Scalar& v : q.values) FoldScalar(&v, fold);
    for (Aggregate& a : q.aggs)
      if (a.has_arg) FoldScalar(&a.arg, fold);

    Candidate best = Build(/*eager_table=*/-1, /*drop_final=*/false);
    if (const int t = EagerTable(); t >= 0) {
      Candidate alt = Build(t, FinalGroupsArePreAggRows(t));
      if (alt.Total() < best.Total()) best = std::move(alt);
    }
    plan_.root = std::move(best.root);
    plan_.cost = best.cost;
    plan_.pre_agg_table = best.pre_agg_table;
    plan_.final_aggregation = best.final_aggregation;
    return std::move(plan_);
  }

 private:
  /// One complete plan shape and its estimated cost.
  struct Candidate {
    std::unique_ptr<JoinTree> root;
    double cost = 0;
    int pre_agg_table = -1;
    bool final_aggregation = true;
    double final_input = 0;  // rows the top aggregation reads (0 if none)

    double Total() const { return cost + final_input; }
  };

  const BoundQuery& q() const { return plan_.query; }

  Candidate Build(int eager_table, bool drop_final) {
    cost_ = 0;
    placed_.assign(q().filters.size(), false);
    std::vector<std::unique_ptr<JoinTree>> items;
    for (uint32_t t = 0; t < q().tables.size(); ++t) {
      std::unique_ptr<JoinTree> leaf = MakeLeaf(t);
      if (static_cast<int>(t) == eager_table)
        leaf = MakePreAgg(std::move(leaf), drop_final);
      items.push_back(std::move(leaf));
    }
    if (plan_.options.join_order) {
      Greedy(&items);
    } else {
      FromOrder(&items);
    }
    VCQ_CHECK(items.size() == 1);
    Candidate c;
    c.root = std::move(items[0]);

    // Anything unplaced (all filters, when pushdown is off) lands above the
    // last join.
    for (uint32_t f = 0; f < q().filters.size(); ++f) {
      if (placed_[f]) continue;
      c.root->filters.push_back(f);
      c.root->est_rows *= Selectivity(q().filters[f]);
      placed_[f] = true;
    }
    c.cost = cost_;
    c.pre_agg_table = eager_table;
    c.final_aggregation = !drop_final;
    if (!q().aggs.empty() && c.final_aggregation)
      c.final_input = c.root->est_rows;
    return c;
  }

  // ---- cardinality model ----

  /// True when `id` alone is its table's verified key.
  bool IsSingleKey(ColumnId id) const {
    const std::vector<uint32_t>& key = q().Table(id.table).key;
    return key.size() == 1 && key[0] == id.col;
  }

  double TableRows(uint32_t t) const {
    return std::max<double>(1, q().Table(t).tuple_count);
  }

  double Ndv(ColumnId id) const {
    const ColumnDef& c = q().Column(id);
    const double rows = TableRows(id.table);
    double ndv;
    if (!c.stats.valid) {
      ndv = c.stats.string_ndv > 0 ? static_cast<double>(c.stats.string_ndv)
                                   : std::max(1.0, rows * 0.1);
    } else {
      const double width = static_cast<double>(c.stats.max) -
                           static_cast<double>(c.stats.min) + 1;
      ndv = std::clamp(width, 1.0, rows);
    }
    // A foreign key takes at most as many values as the key it references.
    for (const JoinEdge& e : q().joins) {
      for (const auto& key : e.keys) {
        for (int side = 0; side < 2; ++side) {
          if (key[side] == id && IsSingleKey(key[1 - side]))
            ndv = std::min(ndv, TableRows(key[1 - side].table));
        }
      }
    }
    return ndv;
  }

  /// True when `p` is a parameter range bound whose opposite bound on the
  /// same expression is a parameter too (a BETWEEN $lo AND $hi).
  bool HasParamPartner(const Predicate& p) const {
    for (const Predicate& o : q().filters) {
      if (&o == &p || o.kind != PredKind::kCmp || !IsRange(o.cmp) ||
          IsLowerBound(o.cmp) == IsLowerBound(p.cmp) || !o.rhs[0].is_param)
        continue;
      if (ScalarEqual(o.lhs, p.lhs)) return true;
    }
    return false;
  }

  double Selectivity(const Predicate& p) const {
    if (p.kind == PredKind::kContains) return 0.05;
    const bool param =
        std::any_of(p.rhs.begin(), p.rhs.end(),
                    [](const Operand& o) { return o.is_param; });
    const bool range = p.kind == PredKind::kCmp && IsRange(p.cmp);
    const bool plain = p.lhs.IsColumn();
    const ColumnStats* stats = plain ? &q().Column(p.lhs.col).stats : nullptr;
    if (param || p.is_string || stats == nullptr || !stats->valid) {
      // The value or the column's range is unknown. A range guesses 0.3,
      // and a BETWEEN $lo AND $hi pair 1/2 each — 1/4 together; equality
      // takes 1/ndv where the catalog knows ndv.
      if (range) return param && HasParamPartner(p) ? 0.5 : kGuessRange;
      const bool known =
          stats != nullptr && (stats->valid || stats->string_ndv > 0);
      const double one = known ? 1.0 / Ndv(p.lhs.col) : kGuessEq;
      return std::min(1.0, p.kind == PredKind::kEqOr2 ? 2 * one : one);
    }
    const double lo = static_cast<double>(stats->min);
    const double hi = static_cast<double>(stats->max);
    const double width = hi - lo + 1;
    const double v = static_cast<double>(p.rhs[0].num);
    const double ndv = Ndv(p.lhs.col);
    double sel = kGuessRange;
    switch (p.kind) {
      case PredKind::kEqOr2:
        sel = 2.0 / ndv;
        break;
      case PredKind::kCmp:
        switch (p.cmp) {
          case CmpOp::kEq:
            sel = 1.0 / ndv;
            break;
          case CmpOp::kLt:
            sel = (v - lo) / width;
            break;
          case CmpOp::kLe:
            sel = (v - lo + 1) / width;
            break;
          case CmpOp::kGt:
            sel = (hi - v) / width;
            break;
          case CmpOp::kGe:
            sel = (hi - v + 1) / width;
            break;
        }
        break;
      case PredKind::kContains:
        break;
    }
    return std::clamp(sel, 0.0, 1.0);
  }

  /// Rows of a table whose verified key `cols` fully cover (the smallest
  /// such table when several qualify); 0 when they cover none.
  double CoveredKeyRows(const std::vector<ColumnId>& cols) const {
    double rows = 0;
    for (const ColumnId& c : cols) {
      const std::vector<uint32_t>& key = q().Table(c.table).key;
      if (key.empty()) continue;
      const bool covered = std::all_of(key.begin(), key.end(), [&](uint32_t k) {
        return std::any_of(cols.begin(), cols.end(), [&](const ColumnId& o) {
          return o.table == c.table && o.col == k;
        });
      });
      const double t = TableRows(c.table);
      if (covered && (rows == 0 || t < rows)) rows = t;
    }
    return rows;
  }

  /// Key pairs joining `a` and `b`, oriented {a column, b column}.
  std::vector<std::array<ColumnId, 2>> KeysBetween(const JoinTree& a,
                                                   const JoinTree& b) const {
    std::vector<std::array<ColumnId, 2>> keys;
    for (const JoinEdge& e : q().joins) {
      if ((e.mask & a.mask) == 0 || (e.mask & b.mask) == 0) continue;
      if ((e.mask & ~(a.mask | b.mask)) != 0) continue;
      for (auto key : e.keys) {
        if ((1u << key[0].table) & b.mask) std::swap(key[0], key[1]);
        keys.push_back(key);
      }
    }
    return keys;
  }

  double JoinEstimate(const JoinTree& a, const JoinTree& b,
                      const std::vector<std::array<ColumnId, 2>>& keys) const {
    std::vector<ColumnId> acols;
    std::vector<ColumnId> bcols;
    for (const auto& k : keys) {
      acols.push_back(k[0]);
      bcols.push_back(k[1]);
    }
    // FK ⋈ PK: each row of the other side meets at most one key-side row,
    // present with the key side's filter selectivity.
    double est = 0;
    if (const double rows = CoveredKeyRows(bcols); rows > 0)
      est = a.est_rows * b.est_rows / rows;
    if (const double rows = CoveredKeyRows(acols); rows > 0) {
      const double e = b.est_rows * a.est_rows / rows;
      est = est > 0 ? std::min(est, e) : e;
    }
    if (est == 0) {
      est = a.est_rows * b.est_rows;
      for (const auto& k : keys) est /= std::max(Ndv(k[0]), Ndv(k[1]));
    }
    return std::max(est, 1.0);
  }

  // ---- eager aggregation ----

  /// The table every aggregate argument reads, when there is exactly one
  /// and the query joins it to something; -1 otherwise.
  int EagerTable() const {
    if (!plan_.options.eager_aggregation || !plan_.options.pushdown ||
        q().aggs.empty() || q().tables.size() < 2)
      return -1;
    uint32_t mask = 0;
    for (const Aggregate& a : q().aggs) {
      if (!a.has_arg) continue;
      const uint32_t m = a.arg.TableMask();
      if (m == 0 || (mask != 0 && m != mask) || (m & (m - 1)) != 0) return -1;
      mask = m;
    }
    if (mask == 0) return -1;
    return __builtin_ctz(mask);
  }

  static void AddColumn(ColumnId c, uint32_t table,
                        std::vector<ColumnId>* out) {
    if (c.table == table && std::find(out->begin(), out->end(), c) == out->end())
      out->push_back(c);
  }

  static void AddColumns(const Scalar& s, uint32_t table,
                         std::vector<ColumnId>* out) {
    if (s.IsColumn()) AddColumn(s.col, table, out);
    for (const Scalar& a : s.args) AddColumns(a, table, out);
  }

  /// The pre-aggregate's group keys: every column of table `t` the plan
  /// above it still reads — join columns, group-by columns, and the
  /// columns of filters spanning `t` and other tables.
  std::vector<ColumnId> PreAggKeys(int t) const {
    const auto table = static_cast<uint32_t>(t);
    std::vector<ColumnId> keys;
    for (const JoinEdge& e : q().joins)
      for (const auto& k : e.keys)
        for (const ColumnId& c : k) AddColumn(c, table, &keys);
    for (const Scalar& v : q().values) AddColumns(v, table, &keys);
    for (const Predicate& p : q().filters)
      if (p.TableMask() != (1u << table)) AddColumns(p.lhs, table, &keys);
    return keys;
  }

  /// True when every final group is exactly one pre-aggregated row of
  /// table `t`: (1) walking the join graph out from `t`, every table is
  /// reached through an edge covering its verified key, so each
  /// pre-aggregated row joins at most one row of the rest; (2) every group
  /// key of the pre-aggregate is a GROUP BY column or joined to one, so
  /// distinct pre-aggregated rows never share a final group.
  bool FinalGroupsArePreAggRows(int t) const {
    if (!q().grouped) return false;
    uint32_t reached = 1u << t;
    const uint32_t all = (1u << q().tables.size()) - 1;
    for (bool grew = true; grew && reached != all;) {
      grew = false;
      for (const JoinEdge& e : q().joins) {
        const uint32_t fresh = e.mask & ~reached;
        if (fresh == 0 || fresh == e.mask) continue;
        std::vector<ColumnId> cols;
        for (const auto& k : e.keys)
          for (const ColumnId& c : k)
            if ((1u << c.table) == fresh) cols.push_back(c);
        if (CoveredKeyRows(cols) == 0) continue;
        reached |= fresh;
        grew = true;
      }
    }
    if (reached != all) return false;
    const auto grouped_on = [&](const ColumnId& c) {
      return std::any_of(q().values.begin(), q().values.end(),
                         [&](const Scalar& v) {
                           return v.IsColumn() && v.col == c;
                         });
    };
    for (const ColumnId& k : PreAggKeys(t)) {
      bool ok = grouped_on(k);
      for (const JoinEdge& e : q().joins)
        for (const auto& pair : e.keys)
          ok = ok || (pair[0] == k && grouped_on(pair[1])) ||
               (pair[1] == k && grouped_on(pair[0]));
      if (!ok) return false;
    }
    return true;
  }

  std::unique_ptr<JoinTree> MakePreAgg(std::unique_ptr<JoinTree> input,
                                       bool having) {
    auto node = std::make_unique<JoinTree>();
    node->mask = input->mask;
    node->group_keys = PreAggKeys(input->table);
    double groups = 1;
    for (const ColumnId& k : node->group_keys)
      groups = std::min(groups * Ndv(k), input->est_rows);
    node->est_unfiltered = std::max(1.0, groups);
    node->est_rows = node->est_unfiltered;
    node->having = having;
    if (having) {
      for (const HavingPred& h : q().having)
        node->est_rows *= h.cmp == CmpOp::kEq ? kGuessEq : kGuessRange;
    }
    cost_ += input->est_rows;
    node->input = std::move(input);
    return node;
  }

  // ---- join ordering ----

  std::unique_ptr<JoinTree> MakeLeaf(uint32_t t) {
    auto leaf = std::make_unique<JoinTree>();
    leaf->table = static_cast<int>(t);
    leaf->mask = 1u << t;
    leaf->est_unfiltered = TableRows(t);
    leaf->est_rows = leaf->est_unfiltered;
    if (plan_.options.pushdown) {
      for (uint32_t f = 0; f < q().filters.size(); ++f) {
        if (q().filters[f].TableMask() == leaf->mask) {
          leaf->filters.push_back(f);
          leaf->est_rows *= Selectivity(q().filters[f]);
          placed_[f] = true;
        }
      }
    }
    return leaf;
  }

  /// Joins two subtrees: smaller side becomes the hash-table build (unless
  /// `keep_sides`, the join_order=off mode, which keeps `a` as build).
  std::unique_ptr<JoinTree> Merge(std::unique_ptr<JoinTree> a,
                                  std::unique_ptr<JoinTree> b,
                                  bool keep_sides) {
    std::vector<std::array<ColumnId, 2>> keys = KeysBetween(*a, *b);
    VCQ_CHECK_MSG(!keys.empty(), "merging unconnected subtrees");
    const double est = JoinEstimate(*a, *b, keys);
    auto node = std::make_unique<JoinTree>();
    node->mask = a->mask | b->mask;
    if (!keep_sides && b->est_rows < a->est_rows) {
      for (auto& key : keys) std::swap(key[0], key[1]);
      std::swap(a, b);
    }
    node->keys = std::move(keys);
    node->build = std::move(a);
    node->probe = std::move(b);
    node->est_unfiltered = est;
    node->est_rows = est;
    cost_ += est;
    if (plan_.options.pushdown) {
      for (uint32_t f = 0; f < q().filters.size(); ++f) {
        if (placed_[f]) continue;
        const uint32_t m = q().filters[f].TableMask();
        if ((m & ~node->mask) == 0) {
          node->filters.push_back(f);
          node->est_rows *= Selectivity(q().filters[f]);
          placed_[f] = true;
        }
      }
    }
    return node;
  }

  bool Connected(const JoinTree& a, const JoinTree& b) const {
    for (const JoinEdge& e : q().joins) {
      if ((e.mask & a.mask) != 0 && (e.mask & b.mask) != 0 &&
          (e.mask & ~(a.mask | b.mask)) == 0)
        return true;
    }
    return false;
  }

  void Greedy(std::vector<std::unique_ptr<JoinTree>>* items) {
    while (items->size() > 1) {
      size_t best_i = 0;
      size_t best_j = 0;
      double best = -1;
      for (size_t i = 0; i < items->size(); ++i) {
        for (size_t j = i + 1; j < items->size(); ++j) {
          const JoinTree& a = *(*items)[i];
          const JoinTree& b = *(*items)[j];
          if (!Connected(a, b)) continue;
          const double est = JoinEstimate(a, b, KeysBetween(a, b));
          if (best < 0 || est < best) {
            best = est;
            best_i = i;
            best_j = j;
          }
        }
      }
      VCQ_CHECK_MSG(best >= 0, "join graph disconnected");
      auto merged = Merge(std::move((*items)[best_i]),
                          std::move((*items)[best_j]),
                          /*keep_sides=*/false);
      (*items)[best_i] = std::move(merged);
      items->erase(items->begin() + static_cast<ptrdiff_t>(best_j));
    }
  }

  void FromOrder(std::vector<std::unique_ptr<JoinTree>>* items) {
    std::unique_ptr<JoinTree> acc = std::move((*items)[0]);
    items->erase(items->begin());
    while (!items->empty()) {
      size_t next = SIZE_MAX;
      for (size_t i = 0; i < items->size(); ++i) {
        if (Connected(*acc, *(*items)[i])) {
          next = i;
          break;
        }
      }
      VCQ_CHECK_MSG(next != SIZE_MAX, "join graph disconnected");
      acc = Merge(std::move(acc), std::move((*items)[next]),
                  /*keep_sides=*/true);
      items->erase(items->begin() + static_cast<ptrdiff_t>(next));
    }
    items->push_back(std::move(acc));
  }

  PhysicalPlan plan_;
  std::vector<bool> placed_;
  double cost_ = 0;
};

std::string ColumnName(const BoundQuery& q, ColumnId c) {
  return ToString(q, Scalar{.op = ScalarOp::kColumn, .col = c});
}

void Dump(const PhysicalPlan& p, const JoinTree& t, int indent,
          std::string* out) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  auto filters = [&](const JoinTree& n) {
    std::string s;
    for (uint32_t f : n.filters)
      s += " [" + ToString(p.query, p.query.filters[f].lhs) + " " +
           CmpOpName(p.query.filters[f].cmp) + " ...]";
    return s;
  };
  char est[32];
  std::snprintf(est, sizeof est, "%.0f", t.est_rows);
  if (t.IsLeaf()) {
    *out += pad + "scan " + p.query.Table(static_cast<uint32_t>(t.table)).name +
            " est=" + est + filters(t) + "\n";
    return;
  }
  if (t.IsPreAgg()) {
    std::string keys;
    for (const ColumnId& k : t.group_keys)
      keys += (keys.empty() ? " by " : ", ") + ColumnName(p.query, k);
    *out += pad + "pre-aggregate est=" + est + keys +
            (t.having ? " [having]" : "") + "\n";
    Dump(p, *t.input, indent + 1, out);
    return;
  }
  std::string keys;
  for (const auto& k : t.keys) {
    keys += keys.empty() ? " on " : ", ";
    keys += ColumnName(p.query, k[0]) + " = " + ColumnName(p.query, k[1]);
  }
  *out += pad + "hashjoin est=" + est + keys + filters(t) + "\n";
  Dump(p, *t.build, indent + 1, out);
  Dump(p, *t.probe, indent + 1, out);
}

}  // namespace

PhysicalPlan Optimize(BoundQuery query, const OptimizerOptions& options) {
  Optimizer opt(std::move(query), options);
  return opt.Run();
}

std::string ToString(const PhysicalPlan& plan) {
  std::string out;
  char cost[32];
  std::snprintf(cost, sizeof cost, "%.0f", plan.cost);
  out += "cost=" + std::string(cost) +
         " (estimated join + pre-aggregate rows)\n";
  Dump(plan, *plan.root, 0, &out);
  if (!plan.final_aggregation)
    out += "project (pre-aggregated groups are final)\n";
  else if (plan.query.grouped || !plan.query.aggs.empty())
    out += plan.query.grouped ? "group + aggregate\n" : "aggregate\n";
  return out;
}

}  // namespace vcq::sql
