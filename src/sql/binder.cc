#include "sql/binder.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sql/error.h"

namespace vcq::sql {
namespace {

using ast::Expr;

[[noreturn]] void FailAt(ast::Pos pos, std::string message) {
  internal::Fail(pos.line, pos.col, std::move(message));
}

int64_t Pow10(int n, ast::Pos pos) {
  int64_t v = 1;
  for (int i = 0; i < n; ++i) {
    if (v > INT64_MAX / 10) FailAt(pos, "numeric scale out of range");
    v *= 10;
  }
  return v;
}

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kEq:
      return CmpOp::kEq;
  }
  return op;
}

bool ContainsAgg(const Expr& e) {
  if (e.kind == Expr::Kind::kAgg) return true;
  for (const ast::ExprPtr& a : e.args)
    if (ContainsAgg(*a)) return true;
  return false;
}

class Binder {
 public:
  Binder(const Catalog& catalog, const ast::Select& sel)
      : catalog_(catalog), sel_(sel) {
    q_.catalog = &catalog;
  }

  BoundQuery Run() {
    BindFrom();
    if (sel_.where) Condition(*sel_.where);
    MergeJoinEdges();
    CheckConnected();
    ValidateFilters();
    BindGroupBy();
    BindSelectList();
    BindHaving();
    BindOrderBy();
    if (sel_.limit >= 0) q_.limit = static_cast<uint64_t>(sel_.limit);
    return std::move(q_);
  }

 private:
  // ---- FROM ----

  void BindFrom() {
    for (const ast::TableRef& t : sel_.from) {
      const TableDef* def = catalog_.Find(t.name);
      if (def == nullptr) FailAt(t.pos, "unknown table '" + t.name + "'");
      for (uint32_t i : q_.tables)
        if (&catalog_.tables()[i] == def)
          FailAt(t.pos, "duplicate table '" + t.name +
                            "' (self joins are not supported)");
      const size_t index = def - catalog_.tables().data();
      q_.tables.push_back(static_cast<uint32_t>(index));
    }
    if (q_.tables.size() > 16)
      FailAt(sel_.from[16].pos, "too many tables (at most 16)");
  }

  // ---- scalar binding ----

  Scalar BindScalar(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kColumn:
        return ResolveColumn(e);
      case Expr::Kind::kIntLit: {
        Scalar s;
        s.op = ScalarOp::kConst;
        s.type = SqlType{TypeKind::kNumeric, e.scale};
        s.value = e.int_val;
        s.pos = e.pos;
        return s;
      }
      case Expr::Kind::kDateLit: {
        Scalar s;
        s.op = ScalarOp::kConst;
        s.type = SqlType{TypeKind::kDate, 0};
        s.value = e.int_val;
        s.pos = e.pos;
        return s;
      }
      case Expr::Kind::kStrLit:
        FailAt(e.pos, "string literals are only supported in predicates");
      case Expr::Kind::kParam:
        FailAt(e.pos,
               "parameters are only supported as predicate bounds ($" +
                   e.str + ")");
      case Expr::Kind::kNeg: {
        Scalar arg = BindScalar(*e.args[0]);
        RequireNumeric(arg, e.pos, "unary minus");
        Scalar zero;
        zero.op = ScalarOp::kConst;
        zero.type = arg.type;
        zero.value = 0;
        zero.pos = e.pos;
        Scalar s;
        s.op = ScalarOp::kSub;
        s.type = arg.type;
        s.pos = e.pos;
        s.args.push_back(std::move(zero));
        s.args.push_back(std::move(arg));
        return s;
      }
      case Expr::Kind::kBinary:
        return BindArithmetic(e);
      case Expr::Kind::kYear: {
        Scalar arg = BindScalar(*e.args[0]);
        if (arg.type.kind != TypeKind::kDate)
          FailAt(e.pos, "EXTRACT(YEAR ...) requires a date argument, got " +
                            TypeName(arg.type));
        Scalar s;
        s.op = ScalarOp::kYear;
        s.type = SqlType{TypeKind::kNumeric, 0};
        s.pos = e.pos;
        s.args.push_back(std::move(arg));
        return s;
      }
      case Expr::Kind::kAgg:
        FailAt(e.pos, "aggregates are not allowed in this context");
      default:
        FailAt(e.pos, "expected a scalar expression");
    }
  }

  Scalar ResolveColumn(const Expr& e) {
    Scalar s;
    s.op = ScalarOp::kColumn;
    s.pos = e.pos;
    if (!e.table.empty()) {
      for (uint32_t t = 0; t < q_.tables.size(); ++t) {
        const TableDef& def = q_.Table(t);
        if (def.name != e.table) continue;
        const size_t c = def.IndexOf(e.str);
        if (c == SIZE_MAX)
          FailAt(e.pos, "unknown column '" + e.table + "." + e.str + "'");
        s.col = ColumnId{t, static_cast<uint32_t>(c)};
        s.type = def.columns[c].type;
        return s;
      }
      FailAt(e.pos, "table '" + e.table + "' is not in the FROM clause");
    }
    bool found = false;
    for (uint32_t t = 0; t < q_.tables.size(); ++t) {
      const size_t c = q_.Table(t).IndexOf(e.str);
      if (c == SIZE_MAX) continue;
      if (found)
        FailAt(e.pos, "ambiguous column '" + e.str + "'");
      found = true;
      s.col = ColumnId{t, static_cast<uint32_t>(c)};
      s.type = q_.Table(t).columns[c].type;
    }
    if (!found) FailAt(e.pos, "unknown column '" + e.str + "'");
    return s;
  }

  void RequireNumeric(const Scalar& s, ast::Pos pos, const char* what) {
    if (s.type.kind != TypeKind::kNumeric)
      FailAt(pos, std::string(what) + " requires numeric operands, got " +
                      TypeName(s.type));
  }

  /// Multiplies `s` by 10^diff so its scale becomes `scale`.
  Scalar Rescale(Scalar s, int scale) {
    if (s.type.scale == scale) return s;
    VCQ_CHECK(s.type.scale < scale);
    const ast::Pos pos = s.pos;
    Scalar factor;
    factor.op = ScalarOp::kConst;
    factor.type = SqlType{TypeKind::kNumeric, 0};
    factor.value = Pow10(scale - s.type.scale, pos);
    factor.pos = pos;
    Scalar out;
    out.op = ScalarOp::kMul;
    out.type = SqlType{TypeKind::kNumeric, scale};
    out.pos = pos;
    out.args.push_back(std::move(s));
    out.args.push_back(std::move(factor));
    return out;
  }

  Scalar BindArithmetic(const Expr& e) {
    if (e.op == ast::BinOp::kDiv)
      FailAt(e.pos, "division is not supported");
    if (e.op != ast::BinOp::kAdd && e.op != ast::BinOp::kSub &&
        e.op != ast::BinOp::kMul)
      FailAt(e.pos, "comparison is not a scalar value here");
    Scalar a = BindScalar(*e.args[0]);
    Scalar b = BindScalar(*e.args[1]);
    // date - date is the number of days between them; no other date math.
    if (e.op == ast::BinOp::kSub && a.type.kind == TypeKind::kDate &&
        b.type.kind == TypeKind::kDate) {
      Scalar s;
      s.op = ScalarOp::kSub;
      s.type = SqlType{TypeKind::kNumeric, 0};
      s.pos = e.pos;
      s.args.push_back(std::move(a));
      s.args.push_back(std::move(b));
      return s;
    }
    RequireNumeric(a, e.pos, "arithmetic");
    RequireNumeric(b, e.pos, "arithmetic");
    Scalar s;
    s.pos = e.pos;
    if (e.op == ast::BinOp::kMul) {
      s.op = ScalarOp::kMul;
      s.type = SqlType{TypeKind::kNumeric, a.type.scale + b.type.scale};
    } else {
      const int scale = std::max(a.type.scale, b.type.scale);
      a = Rescale(std::move(a), scale);
      b = Rescale(std::move(b), scale);
      s.op = e.op == ast::BinOp::kAdd ? ScalarOp::kAdd : ScalarOp::kSub;
      s.type = SqlType{TypeKind::kNumeric, scale};
    }
    s.args.push_back(std::move(a));
    s.args.push_back(std::move(b));
    return s;
  }

  // ---- parameters ----

  void DeclareParam(const std::string& name, runtime::ParamType type,
                    ast::Pos pos) {
    for (const ParamDecl& d : q_.params) {
      if (d.name != name) continue;
      if (d.type != type)
        FailAt(pos, "parameter '$" + name + "' used with conflicting types");
      return;
    }
    q_.params.push_back(ParamDecl{name, type});
  }

  // ---- predicates ----

  void Condition(const Expr& e) {
    if (e.kind == Expr::Kind::kBinary && e.op == ast::BinOp::kAnd) {
      Condition(*e.args[0]);
      Condition(*e.args[1]);
      return;
    }
    if (e.kind == Expr::Kind::kBinary && e.op == ast::BinOp::kOr) {
      OrPattern(e);
      return;
    }
    if (e.kind == Expr::Kind::kBetween) {
      Scalar lhs = BindScalar(*e.args[0]);
      AddCmp(lhs, CmpOp::kGe, *e.args[1], e.pos);
      AddCmp(std::move(lhs), CmpOp::kLe, *e.args[2], e.pos);
      return;
    }
    if (e.kind == Expr::Kind::kIn) {
      InPattern(e);
      return;
    }
    if (e.kind == Expr::Kind::kLike) {
      LikePattern(e);
      return;
    }
    if (e.kind == Expr::Kind::kBinary) {
      if (e.op == ast::BinOp::kNe)
        FailAt(e.pos, "'<>' predicates are not supported");
      Comparison(e);
      return;
    }
    FailAt(e.pos, "expected a predicate");
  }

  static bool IsOperandExpr(const Expr& e) {
    return e.kind == Expr::Kind::kParam || e.kind == Expr::Kind::kStrLit;
  }

  CmpOp AstCmp(ast::BinOp op, ast::Pos pos) {
    switch (op) {
      case ast::BinOp::kLt:
        return CmpOp::kLt;
      case ast::BinOp::kLe:
        return CmpOp::kLe;
      case ast::BinOp::kGt:
        return CmpOp::kGt;
      case ast::BinOp::kGe:
        return CmpOp::kGe;
      case ast::BinOp::kEq:
        return CmpOp::kEq;
      default:
        FailAt(pos, "expected a comparison");
    }
  }

  void Comparison(const Expr& e) {
    CmpOp op = AstCmp(e.op, e.pos);
    const Expr* lhs = e.args[0].get();
    const Expr* rhs = e.args[1].get();
    // Put the parameter/string-literal operand on the right.
    if (IsOperandExpr(*lhs) && !IsOperandExpr(*rhs)) {
      std::swap(lhs, rhs);
      op = FlipCmp(op);
    }
    if (IsOperandExpr(*rhs)) {
      AddCmp(BindScalar(*lhs), op, *rhs, e.pos);
      return;
    }
    // Both sides are scalar expressions.
    Scalar a = BindScalar(*lhs);
    Scalar b = BindScalar(*rhs);
    const bool a_const = a.TableMask() == 0;
    const bool b_const = b.TableMask() == 0;
    if (a_const && b_const)
      FailAt(e.pos, "predicate references no table column");
    if (a_const) {
      std::swap(a, b);
      op = FlipCmp(op);
    }
    if (b.TableMask() == 0) {
      AddCmpScalarConst(std::move(a), op, std::move(b), e.pos);
      return;
    }
    // column-to-column. Cross-table plain-column equality is a join edge.
    if (op == CmpOp::kEq && a.IsColumn() && b.IsColumn() &&
        a.col.table != b.col.table) {
      AddJoinKey(a, b, e.pos);
      return;
    }
    if (a.type.kind == TypeKind::kString || b.type.kind == TypeKind::kString)
      FailAt(e.pos, "string column comparisons are only supported against "
                    "literals and parameters");
    // Normalize to (a - b) CMP 0.
    Scalar diff;
    diff.pos = e.pos;
    diff.op = ScalarOp::kSub;
    if (a.type.kind == TypeKind::kDate && b.type.kind == TypeKind::kDate) {
      diff.type = SqlType{TypeKind::kNumeric, 0};
    } else {
      RequireNumeric(a, e.pos, "comparison");
      RequireNumeric(b, e.pos, "comparison");
      const int scale = std::max(a.type.scale, b.type.scale);
      a = Rescale(std::move(a), scale);
      b = Rescale(std::move(b), scale);
      diff.type = SqlType{TypeKind::kNumeric, scale};
    }
    diff.args.push_back(std::move(a));
    diff.args.push_back(std::move(b));
    Scalar zero;
    zero.op = ScalarOp::kConst;
    zero.type = diff.type;
    zero.value = 0;
    zero.pos = e.pos;
    AddCmpScalarConst(std::move(diff), op, std::move(zero), e.pos);
  }

  /// lhs CMP operand-expression (param / string literal / constant scalar).
  void AddCmp(Scalar lhs, CmpOp op, const Expr& rhs, ast::Pos pos) {
    if (lhs.TableMask() == 0)
      FailAt(pos, "predicate references no table column");
    if (rhs.kind == Expr::Kind::kParam) {
      Operand o;
      o.is_param = true;
      o.param = rhs.str;
      DeclareParam(rhs.str, ParamTypeFor(lhs.type, rhs.pos), rhs.pos);
      PushCmp(std::move(lhs), op, std::move(o), pos);
      return;
    }
    if (rhs.kind == Expr::Kind::kStrLit) {
      if (lhs.type.kind != TypeKind::kString)
        FailAt(rhs.pos, "cannot compare " + TypeName(lhs.type) +
                            " with a string literal");
      Operand o;
      o.str = rhs.str;
      PushCmp(std::move(lhs), op, std::move(o), pos);
      return;
    }
    Scalar bound = BindScalar(rhs);
    if (bound.TableMask() != 0)
      FailAt(rhs.pos, "predicate bound must be a constant or parameter");
    AddCmpScalarConst(std::move(lhs), op, std::move(bound), pos);
  }

  /// lhs CMP const-scalar, with scale/type unification.
  void AddCmpScalarConst(Scalar lhs, CmpOp op, Scalar konst, ast::Pos pos) {
    if (lhs.type.kind == TypeKind::kString)
      FailAt(pos, "cannot compare a string column with " +
                      TypeName(konst.type));
    Operand o;
    if (lhs.type.kind == TypeKind::kDate) {
      if (konst.type.kind != TypeKind::kDate)
        FailAt(pos, "cannot compare a date with " + TypeName(konst.type));
      o.num = EvalConst(konst);
      PushCmp(std::move(lhs), op, std::move(o), pos);
      return;
    }
    if (konst.type.kind != TypeKind::kNumeric)
      FailAt(pos, "cannot compare " + TypeName(lhs.type) + " with " +
                      TypeName(konst.type));
    // Unify scales: scale the constant up, or — when the literal carries
    // more fractional digits than the column — the column expression.
    if (konst.type.scale < lhs.type.scale)
      konst = Rescale(std::move(konst), lhs.type.scale);
    else if (konst.type.scale > lhs.type.scale)
      lhs = Rescale(std::move(lhs), konst.type.scale);
    o.num = EvalConst(konst);
    PushCmp(std::move(lhs), op, std::move(o), pos);
  }

  void PushCmp(Scalar lhs, CmpOp op, Operand o, ast::Pos pos) {
    Predicate p;
    p.kind = PredKind::kCmp;
    p.cmp = op;
    p.is_string = lhs.type.kind == TypeKind::kString;
    if (p.is_string && !lhs.IsColumn())
      FailAt(pos, "string predicates support only plain columns");
    p.lhs = std::move(lhs);
    p.rhs.push_back(std::move(o));
    p.pos = pos;
    q_.filters.push_back(std::move(p));
  }

  runtime::ParamType ParamTypeFor(const SqlType& t, ast::Pos pos) {
    switch (t.kind) {
      case TypeKind::kNumeric:
        return runtime::ParamType::kInt;
      case TypeKind::kDate:
        return runtime::ParamType::kDate;
      case TypeKind::kString:
        return runtime::ParamType::kString;
    }
    FailAt(pos, "untyped parameter");
  }

  Operand BindOperand(const Expr& e, const SqlType& lhs_type) {
    Operand o;
    if (e.kind == Expr::Kind::kParam) {
      o.is_param = true;
      o.param = e.str;
      DeclareParam(e.str, ParamTypeFor(lhs_type, e.pos), e.pos);
      return o;
    }
    if (e.kind == Expr::Kind::kStrLit) {
      if (lhs_type.kind != TypeKind::kString)
        FailAt(e.pos, "cannot compare " + TypeName(lhs_type) +
                          " with a string literal");
      o.str = e.str;
      return o;
    }
    Scalar bound = BindScalar(e);
    if (bound.TableMask() != 0)
      FailAt(e.pos, "operand must be a constant or parameter");
    if (lhs_type.kind == TypeKind::kString)
      FailAt(e.pos, "cannot compare a string column with " +
                        TypeName(bound.type));
    if (lhs_type.kind == TypeKind::kDate) {
      if (bound.type.kind != TypeKind::kDate)
        FailAt(e.pos, "cannot compare a date with " + TypeName(bound.type));
    } else if (bound.type.kind != TypeKind::kNumeric ||
               bound.type.scale > lhs_type.scale) {
      FailAt(e.pos, "operand type mismatch (" + TypeName(bound.type) +
                        " vs " + TypeName(lhs_type) + ")");
    } else {
      bound = Rescale(std::move(bound), lhs_type.scale);
    }
    o.num = EvalConst(bound);
    return o;
  }

  void InPattern(const Expr& e) {
    Scalar lhs = BindScalar(*e.args[0]);
    if (lhs.TableMask() == 0)
      FailAt(e.pos, "predicate references no table column");
    const size_t n = e.args.size() - 1;
    if (n > 2)
      FailAt(e.pos, "IN lists with more than two values are not supported");
    if (lhs.type.kind == TypeKind::kString && !lhs.IsColumn())
      FailAt(e.pos, "string predicates support only plain columns");
    std::vector<Operand> ops;
    for (size_t i = 1; i < e.args.size(); ++i)
      ops.push_back(BindOperand(*e.args[i], lhs.type));
    Predicate p;
    p.is_string = lhs.type.kind == TypeKind::kString;
    p.pos = e.pos;
    if (n == 1) {
      p.kind = PredKind::kCmp;
      p.cmp = CmpOp::kEq;
    } else {
      p.kind = PredKind::kEqOr2;
    }
    p.lhs = std::move(lhs);
    p.rhs = std::move(ops);
    q_.filters.push_back(std::move(p));
  }

  void OrPattern(const Expr& e) {
    // Only `col = a OR col = b` (same column) is supported — it lowers to
    // the engines' EqOr2 primitive.
    const Expr* sides[2] = {e.args[0].get(), e.args[1].get()};
    Scalar col[2];
    Operand ops[2];
    for (int i = 0; i < 2; ++i) {
      const Expr& s = *sides[i];
      if (s.kind != Expr::Kind::kBinary || s.op != ast::BinOp::kEq)
        FailAt(e.pos, "OR is only supported as 'col = x OR col = y'");
      const Expr* l = s.args[0].get();
      const Expr* r = s.args[1].get();
      if (l->kind != Expr::Kind::kColumn) std::swap(l, r);
      if (l->kind != Expr::Kind::kColumn)
        FailAt(e.pos, "OR is only supported as 'col = x OR col = y'");
      col[i] = BindScalar(*l);
      ops[i] = BindOperand(*r, col[i].type);
    }
    if (!ScalarEqual(col[0], col[1]))
      FailAt(e.pos, "OR branches must test the same column");
    Predicate p;
    p.kind = PredKind::kEqOr2;
    p.is_string = col[0].type.kind == TypeKind::kString;
    p.lhs = std::move(col[0]);
    p.rhs.push_back(std::move(ops[0]));
    p.rhs.push_back(std::move(ops[1]));
    p.pos = e.pos;
    q_.filters.push_back(std::move(p));
  }

  void LikePattern(const Expr& e) {
    Scalar lhs = BindScalar(*e.args[0]);
    if (lhs.type.kind != TypeKind::kString || !lhs.IsColumn())
      FailAt(e.pos, "LIKE requires a string column");
    if (e.args.size() == 2) {
      // LIKE $param: the binding is a raw substring needle evaluated with
      // the engines' Contains primitive (variable-length columns only —
      // same restriction as literal '%substring%').
      const ColumnDef& col = q_.Column(lhs.col);
      if (col.tag != runtime::TypeTag::kVarchar)
        FailAt(e.pos,
               "parameterized LIKE is only supported on varchar columns");
      const Expr& pat = *e.args[1];
      Operand o;
      o.is_param = true;
      o.param = pat.str;
      DeclareParam(pat.str, runtime::ParamType::kString, pat.pos);
      Predicate p;
      p.kind = PredKind::kContains;
      p.is_string = true;
      p.lhs = std::move(lhs);
      p.rhs.push_back(std::move(o));
      p.pos = e.pos;
      q_.filters.push_back(std::move(p));
      return;
    }
    const std::string& pat = e.str;
    if (pat.find('_') != std::string::npos)
      FailAt(e.pos, "unsupported LIKE pattern (no '_' wildcards)");
    const size_t first = pat.find('%');
    if (first == std::string::npos) {
      // Exact match.
      Operand o;
      o.str = pat;
      PushCmp(std::move(lhs), CmpOp::kEq, std::move(o), e.pos);
      return;
    }
    if (first == pat.size() - 1 && first > 0) {
      // 'prefix%': two range comparisons over the column's sort order.
      const std::string prefix = pat.substr(0, first);
      std::string upper = prefix;
      size_t i = upper.size();
      while (i > 0 && static_cast<unsigned char>(upper[i - 1]) == 0xFF) --i;
      if (i == 0)
        FailAt(e.pos, "unsupported LIKE prefix");
      upper.resize(i);
      upper.back() = static_cast<char>(upper.back() + 1);
      Operand lo;
      lo.str = prefix;
      Operand hi;
      hi.str = upper;
      Scalar lhs2 = lhs;
      PushCmp(std::move(lhs), CmpOp::kGe, std::move(lo), e.pos);
      PushCmp(std::move(lhs2), CmpOp::kLt, std::move(hi), e.pos);
      return;
    }
    if (first == 0 && pat.size() > 2 && pat.back() == '%' &&
        pat.find('%', 1) == pat.size() - 1) {
      // '%substring%': engine Contains primitive, variable-length only.
      const ColumnDef& col = q_.Column(lhs.col);
      if (col.tag != runtime::TypeTag::kVarchar)
        FailAt(e.pos,
               "substring LIKE is only supported on varchar columns");
      Predicate p;
      p.kind = PredKind::kContains;
      p.is_string = true;
      p.lhs = std::move(lhs);
      Operand o;
      o.str = pat.substr(1, pat.size() - 2);
      p.rhs.push_back(std::move(o));
      p.pos = e.pos;
      q_.filters.push_back(std::move(p));
      return;
    }
    FailAt(e.pos,
           "unsupported LIKE pattern (only 'prefix%' and '%substring%')");
  }

  // ---- joins ----

  void AddJoinKey(const Scalar& a, const Scalar& b, ast::Pos pos) {
    const ColumnDef& ca = q_.Column(a.col);
    const ColumnDef& cb = q_.Column(b.col);
    if (ca.type.kind == TypeKind::kString ||
        cb.type.kind == TypeKind::kString)
      FailAt(pos, "string join keys are not supported");
    if (ca.tag != cb.tag)
      FailAt(pos, "join key physical types must match");
    JoinEdge edge;
    edge.keys.push_back({a.col, b.col});
    edge.mask = (1u << a.col.table) | (1u << b.col.table);
    raw_edges_.push_back(std::move(edge));
    raw_edge_pos_.push_back(pos);
  }

  void MergeJoinEdges() {
    for (size_t i = 0; i < raw_edges_.size(); ++i) {
      JoinEdge& e = raw_edges_[i];
      JoinEdge* merged = nullptr;
      for (JoinEdge& m : q_.joins)
        if (m.mask == e.mask) merged = &m;
      if (merged == nullptr) {
        q_.joins.push_back(std::move(e));
        continue;
      }
      // Orient the new pair the same way as the existing keys.
      auto pair = e.keys[0];
      if (pair[0].table != merged->keys[0][0].table) std::swap(pair[0], pair[1]);
      merged->keys.push_back(pair);
      if (merged->keys.size() > 2)
        FailAt(raw_edge_pos_[i], "joins support at most two key columns");
      // Composite keys are packed into one 64-bit value by the Volcano
      // lowering, so both pairs must be 32-bit.
      for (const auto& k : merged->keys)
        for (const ColumnId& c : k)
          if (q_.Column(c).tag != runtime::TypeTag::kInt32)
            FailAt(raw_edge_pos_[i],
                   "composite join keys must be 32-bit columns");
    }
  }

  /// Lowering-time physical limits the predicate builders cannot see
  /// locally: string literals must fit the column's storage (Char<N>::From
  /// aborts on overflow), and two-value IN/OR lists must be uniformly
  /// constants or parameters — the engines' EqOr2 primitives have no
  /// mixed form.
  void ValidateFilters() {
    for (const Predicate& p : q_.filters) {
      if (p.kind == PredKind::kEqOr2 &&
          p.rhs[0].is_param != p.rhs[1].is_param)
        FailAt(p.pos, "IN/OR lists must be all constants or all parameters");
      if (!p.is_string || p.kind == PredKind::kContains) continue;
      const ColumnDef& col = q_.Column(p.lhs.col);
      const size_t cap = col.tag == runtime::TypeTag::kVarchar
                             ? col.elem_size - 1
                             : col.elem_size;
      for (const Operand& o : p.rhs)
        if (!o.is_param && o.str.size() > cap)
          FailAt(p.pos, "string literal is wider than column '" + col.name +
                            "' (" + std::to_string(cap) + " chars)");
    }
  }

  void CheckConnected() {
    if (q_.tables.size() <= 1) return;
    uint32_t reached = 1u;  // table 0
    bool grew = true;
    while (grew) {
      grew = false;
      for (const JoinEdge& e : q_.joins) {
        if ((e.mask & reached) != 0 && (e.mask & ~reached) != 0) {
          reached |= e.mask;
          grew = true;
        }
      }
    }
    for (uint32_t t = 0; t < q_.tables.size(); ++t) {
      if ((reached & (1u << t)) == 0)
        FailAt(sel_.from[t].pos,
               "table '" + q_.Table(t).name +
                   "' is not connected by a join predicate (cross products "
                   "are not supported)");
    }
  }

  // ---- GROUP BY / select list / aggregates ----

  void BindGroupBy() {
    if (sel_.group_by.empty()) return;
    q_.grouped = true;
    for (const ast::ExprPtr& g : sel_.group_by) {
      Scalar s = BindScalar(*g);
      if (s.type.kind == TypeKind::kString && !s.IsColumn())
        FailAt(g->pos, "string group keys must be plain columns");
      if (s.TableMask() == 0)
        FailAt(g->pos, "group key references no table column");
      for (const Scalar& prev : q_.values)
        if (ScalarEqual(prev, s)) FailAt(g->pos, "duplicate group key");
      q_.values.push_back(std::move(s));
    }
  }

  uint32_t FindOrAddAgg(ast::AggFn fn, bool has_arg, Scalar arg,
                        ast::Pos pos) {
    SqlType type = has_arg ? arg.type : SqlType{TypeKind::kNumeric, 0};
    if (fn == ast::AggFn::kCount) {
      has_arg = false;  // COUNT(x) == COUNT(*): no NULLs in this library
      type = SqlType{TypeKind::kNumeric, 0};
    }
    for (uint32_t i = 0; i < q_.aggs.size(); ++i) {
      const Aggregate& a = q_.aggs[i];
      if (a.fn != fn || a.has_arg != has_arg) continue;
      if (!has_arg || ScalarEqual(a.arg, arg)) return i;
    }
    Aggregate a;
    a.fn = fn;
    a.has_arg = has_arg;
    if (has_arg) a.arg = std::move(arg);
    a.type = type;
    q_.aggs.push_back(std::move(a));
    if (q_.aggs.size() > 32) FailAt(pos, "too many aggregates");
    return static_cast<uint32_t>(q_.aggs.size() - 1);
  }

  /// Binds one aggregate call; returns the Output (unnamed).
  Output BindAggItem(const Expr& e) {
    Output out;
    const ast::AggFn fn = e.agg;
    Scalar arg;
    bool has_arg = !e.args.empty();
    if (has_arg) {
      arg = BindScalar(*e.args[0]);
      if (ContainsAgg(*e.args[0]))
        FailAt(e.pos, "aggregates cannot be nested");
    }
    switch (fn) {
      case ast::AggFn::kSum:
      case ast::AggFn::kAvg:
        if (!has_arg || arg.type.kind != TypeKind::kNumeric)
          FailAt(e.pos, std::string(ast::AggFnName(fn)) +
                            " requires a numeric argument");
        if (arg.TableMask() == 0)
          FailAt(e.pos, "aggregate arguments must reference a table column");
        break;
      case ast::AggFn::kMin:
      case ast::AggFn::kMax:
        if (!has_arg || (arg.type.kind != TypeKind::kNumeric &&
                         arg.type.kind != TypeKind::kDate))
          FailAt(e.pos, std::string(ast::AggFnName(fn)) +
                            " requires a numeric or date argument");
        if (arg.TableMask() == 0)
          FailAt(e.pos, "aggregate arguments must reference a table column");
        break;
      case ast::AggFn::kCount:
        break;
    }
    if (fn == ast::AggFn::kAvg) {
      const SqlType arg_type = arg.type;
      out.src = Output::Src::kAvg;
      out.index = FindOrAddAgg(ast::AggFn::kSum, true, std::move(arg), e.pos);
      out.count_index =
          FindOrAddAgg(ast::AggFn::kCount, false, Scalar{}, e.pos);
      // Rendered via ResultBuilder::Avg(sum, count, in_scale, 2); the
      // input scale travels as the SUM aggregate's type.
      (void)arg_type;
      out.type = SqlType{TypeKind::kNumeric, 2};
      return out;
    }
    out.src = Output::Src::kAgg;
    out.index = FindOrAddAgg(fn, has_arg, std::move(arg), e.pos);
    out.type = q_.aggs[out.index].type;
    return out;
  }

  std::string DefaultName(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kColumn:
        return e.str;
      case Expr::Kind::kAgg:
        return ast::AggFnName(e.agg);
      case Expr::Kind::kYear:
        return "year";
      default:
        return "expr";
    }
  }

  void BindSelectList() {
    bool any_agg = false;
    bool any_plain = false;
    for (const ast::SelectItem& item : sel_.items)
      (ContainsAgg(*item.expr) ? any_agg : any_plain) = true;
    if (any_agg && any_plain && !q_.grouped)
      FailAt(sel_.items[0].expr->pos,
             "mixing aggregates and plain columns requires GROUP BY");
    if (q_.grouped && !any_agg && !any_plain)
      FailAt(sel_.items[0].expr->pos, "empty select list");

    for (const ast::SelectItem& item : sel_.items) {
      const Expr& e = *item.expr;
      Output out;
      if (ContainsAgg(e)) {
        if (e.kind != Expr::Kind::kAgg)
          FailAt(e.pos,
                 "aggregates cannot be nested in expressions");
        out = BindAggItem(e);
      } else {
        Scalar s = BindScalar(e);
        if (q_.grouped || any_agg) {
          // Must match a group key.
          bool found = false;
          for (uint32_t v = 0; v < q_.values.size(); ++v) {
            if (ScalarEqual(q_.values[v], s)) {
              out.index = v;
              found = true;
              break;
            }
          }
          if (!found)
            FailAt(e.pos,
                   "select expression must be an aggregate or appear in "
                   "GROUP BY");
        } else {
          if (s.TableMask() == 0)
            FailAt(e.pos, "constant select expressions are not supported");
          out.index = static_cast<uint32_t>(q_.values.size());
          q_.values.push_back(std::move(s));
        }
        out.src = Output::Src::kValue;
        out.type = q_.values[out.index].type;
      }
      out.name = item.alias.empty() ? DefaultName(e) : item.alias;
      q_.outputs.push_back(std::move(out));
    }
  }

  // ---- HAVING ----

  void BindHaving() {
    if (!sel_.having) return;
    if (!q_.grouped)
      FailAt(sel_.having->pos, "HAVING requires GROUP BY");
    HavingCondition(*sel_.having);
  }

  void HavingCondition(const Expr& e) {
    if (e.kind == Expr::Kind::kBinary && e.op == ast::BinOp::kAnd) {
      HavingCondition(*e.args[0]);
      HavingCondition(*e.args[1]);
      return;
    }
    if (e.kind != Expr::Kind::kBinary)
      FailAt(e.pos, "HAVING supports only 'aggregate CMP constant'");
    if (e.op == ast::BinOp::kNe)
      FailAt(e.pos, "'<>' predicates are not supported");
    CmpOp op = AstCmp(e.op, e.pos);
    const Expr* lhs = e.args[0].get();
    const Expr* rhs = e.args[1].get();
    if (lhs->kind != Expr::Kind::kAgg) {
      std::swap(lhs, rhs);
      op = FlipCmp(op);
    }
    if (lhs->kind != Expr::Kind::kAgg)
      FailAt(e.pos, "HAVING supports only 'aggregate CMP constant'");
    const Output agg_out = BindAggItem(*lhs);
    if (agg_out.src == Output::Src::kAvg)
      FailAt(lhs->pos, "AVG is not supported in HAVING");
    HavingPred h;
    h.agg = agg_out.index;
    h.cmp = op;
    h.rhs = BindOperand(*rhs, q_.aggs[h.agg].type);
    h.pos = e.pos;
    q_.having.push_back(std::move(h));
  }

  // ---- ORDER BY ----

  void BindOrderBy() {
    for (const ast::OrderItem& item : sel_.order_by) {
      const Expr& e = *item.expr;
      size_t index = SIZE_MAX;
      if (e.kind == Expr::Kind::kIntLit && e.scale == 0) {
        if (e.int_val < 1 ||
            e.int_val > static_cast<int64_t>(q_.outputs.size()))
          FailAt(e.pos, "ORDER BY ordinal out of range");
        index = static_cast<size_t>(e.int_val - 1);
      } else if (e.kind == Expr::Kind::kColumn && e.table.empty()) {
        for (size_t i = 0; i < q_.outputs.size(); ++i)
          if (q_.outputs[i].name == e.str) {
            index = i;
            break;
          }
      }
      if (index == SIZE_MAX && e.kind == Expr::Kind::kAgg) {
        const Output probe = BindAggItem(e);
        for (size_t i = 0; i < q_.outputs.size(); ++i) {
          const Output& o = q_.outputs[i];
          if (o.src == probe.src && o.index == probe.index) {
            index = i;
            break;
          }
        }
      }
      if (index == SIZE_MAX && e.kind != Expr::Kind::kIntLit) {
        // Fall back to matching the bound scalar against value outputs.
        if (e.kind != Expr::Kind::kAgg) {
          const Scalar s = BindScalar(e);
          for (size_t i = 0; i < q_.outputs.size(); ++i) {
            const Output& o = q_.outputs[i];
            if (o.src == Output::Src::kValue &&
                ScalarEqual(q_.values[o.index], s)) {
              index = i;
              break;
            }
          }
        }
      }
      if (index == SIZE_MAX)
        FailAt(e.pos, "ORDER BY expression is not in the select list");
      q_.order_by.emplace_back(static_cast<uint32_t>(index), item.desc);
    }
  }

 private:
  const Catalog& catalog_;
  const ast::Select& sel_;
  BoundQuery q_;
  std::vector<JoinEdge> raw_edges_;
  std::vector<ast::Pos> raw_edge_pos_;
};

}  // namespace

BoundQuery Bind(const Catalog& catalog, const ast::Select& select) {
  Binder binder(catalog, select);
  return binder.Run();
}

}  // namespace vcq::sql
