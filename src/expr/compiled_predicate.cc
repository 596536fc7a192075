// CompiledPredicate: the common predicate service's compiled form for
// pushed range filters. The tree walker in evaluator.cc stays the
// reference semantics; the differential fuzz test in tests/expr_test.cc
// holds the two together.

#include <cstdint>
#include <utility>

#include "src/expr/evaluator.h"

namespace dmx {

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble;
}

// Bit (c + 1) of the mask is the comparison's result for three-way c.
uint8_t TruthMask(ExprOp op) {
  switch (op) {
    case ExprOp::kEq: return 0b010;
    case ExprOp::kNe: return 0b101;
    case ExprOp::kLt: return 0b001;
    case ExprOp::kLe: return 0b011;
    case ExprOp::kGt: return 0b100;
    case ExprOp::kGe: return 0b110;
    default: return 0;
  }
}

// The mask of `b OP a` given that of `a OP b`: c becomes -c.
uint8_t Mirror(uint8_t truth) {
  return (truth & 0b010) | ((truth & 0b001) << 2) | ((truth & 0b100) >> 2);
}

// Value::Compare's three-way result; NaN compares "equal".
template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

// Appends the conjuncts of `e` to terms_, or returns false when some part
// of it is not `numeric field OP numeric constant or parameter`.
bool CompiledPredicate::AddConjuncts(const Expr& e, const Schema& schema,
                                     const std::vector<Value>& params) {
  if (e.op() == ExprOp::kAnd) {
    for (const ExprPtr& child : e.children()) {
      if (!AddConjuncts(*child, schema, params)) return false;
    }
    return true;
  }
  uint8_t truth = TruthMask(e.op());
  if (truth == 0 || e.children().size() != 2) return false;
  const Expr* field = e.child(0).get();
  const Expr* operand = e.child(1).get();
  if (field->op() != ExprOp::kField) {
    std::swap(field, operand);
    truth = Mirror(truth);
  }
  if (field->op() != ExprOp::kField || field->field_index() < 0 ||
      static_cast<size_t>(field->field_index()) >= schema.num_columns()) {
    return false;
  }
  const TypeId field_type =
      schema.column(static_cast<size_t>(field->field_index())).type;
  const Value* value = nullptr;
  if (operand->op() == ExprOp::kConst) {
    value = &operand->constant();
  } else if (operand->op() == ExprOp::kParam && operand->param_index() >= 0 &&
             static_cast<size_t>(operand->param_index()) < params.size()) {
    value = &params[static_cast<size_t>(operand->param_index())];
  }
  // A NULL value would make every row UNKNOWN; the walker handles it.
  if (value == nullptr || !IsNumeric(field_type) ||
      !IsNumeric(value->type())) {
    return false;
  }
  Term t;
  t.field = static_cast<uint16_t>(field->field_index());
  t.field_is_int = field_type == TypeId::kInt64;
  t.int_compare = t.field_is_int && value->type() == TypeId::kInt64;
  t.truth = truth;
  if (value->type() == TypeId::kInt64) t.i = value->int_value();
  t.d = value->AsDouble();
  terms_.push_back(t);
  if (t.field + size_t{1} > min_fields_) min_fields_ = t.field + size_t{1};
  return true;
}

void ExprEvaluator::Compile(const Expr& e, const Schema& schema,
                            CompiledPredicate* out) const {
  *out = CompiledPredicate();
  out->expr_ = &e;
  out->walker_ = this;
  out->schema_ = &schema;
  out->compiled_ = out->AddConjuncts(e, schema, params_);
  if (!out->compiled_) out->terms_.clear();
}

Status CompiledPredicate::EvalPredicate(const RecordView& row,
                                        bool* passes) const {
  if (!compiled_ || row.schema() != schema_ ||
      row.num_fields() < min_fields_) {
    return walker_->EvalPredicate(*expr_, row, passes);
  }
  // No term can fail, so the first one that is not TRUE (FALSE, or
  // UNKNOWN on a NULL field) decides the AND.
  *passes = false;
  for (const Term& t : terms_) {
    if (row.IsNull(t.field)) return Status::OK();
    int c;
    if (t.int_compare) {
      c = ThreeWay(row.GetInt(t.field), t.i);
    } else {
      c = ThreeWay(t.field_is_int ? static_cast<double>(row.GetInt(t.field))
                                  : row.GetDouble(t.field),
                   t.d);
    }
    if (((t.truth >> (c + 1)) & 1) == 0) return Status::OK();
  }
  *passes = true;
  return Status::OK();
}

}  // namespace dmx
