// ExprEvaluator: the common-service predicate evaluation facility.
//
// Shared by the query execution engine, storage-method and access-path
// filtering, and integrity-constraint attachments. Evaluates directly
// against a RecordView, i.e. against field bytes that may still live in an
// extension's buffer pool — no copy-out of the record is required.

#ifndef DMX_EXPR_EVALUATOR_H_
#define DMX_EXPR_EVALUATOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/types/record.h"

namespace dmx {

class CompiledPredicate;

/// A user function callable from expressions ("the predicate evaluator will
/// be able to call functions that are passed to it").
using UserFunction =
    std::function<Status(const std::vector<Value>& args, Value* result)>;

/// Field source abstraction: lets the evaluator run against packed records
/// (zero-copy, in the buffer pool) and against materialized value rows
/// (joined tuples in the executor) through one code path.
class TupleAccessor {
 public:
  virtual ~TupleAccessor() = default;
  virtual bool valid() const = 0;
  virtual size_t num_fields() const = 0;
  virtual Status GetField(int index, Value* out) const = 0;
};

/// Accessor over a packed record image.
class RecordAccessor : public TupleAccessor {
 public:
  explicit RecordAccessor(const RecordView& view) : view_(view) {}
  bool valid() const override { return view_.valid(); }
  size_t num_fields() const override {
    return view_.schema()->num_columns();
  }
  Status GetField(int index, Value* out) const override {
    *out = view_.GetValue(static_cast<size_t>(index));
    return Status::OK();
  }

 private:
  const RecordView& view_;
};

/// Accessor over a materialized row of values.
class ValuesAccessor : public TupleAccessor {
 public:
  explicit ValuesAccessor(const std::vector<Value>& values)
      : values_(values) {}
  bool valid() const override { return true; }
  size_t num_fields() const override { return values_.size(); }
  Status GetField(int index, Value* out) const override {
    *out = values_[static_cast<size_t>(index)];
    return Status::OK();
  }

 private:
  const std::vector<Value>& values_;
};

/// Evaluates expression trees with SQL-style three-valued NULL semantics.
///
/// Thread-compatible: one evaluator per execution context; the function
/// registry may be shared after setup.
class ExprEvaluator {
 public:
  ExprEvaluator() = default;

  /// Register a function callable via ExprOp::kCall nodes.
  void RegisterFunction(const std::string& name, UserFunction fn);

  /// Bind runtime parameters referenced by ExprOp::kParam nodes
  /// ("variable data can be used by the predicate evaluator").
  void SetParams(std::vector<Value> params) { params_ = std::move(params); }

  /// Evaluate `e` against a tuple. NULL inputs propagate per SQL semantics.
  Status Eval(const Expr& e, const TupleAccessor& row, Value* result) const;

  /// Zero-copy convenience: evaluate against a packed record image.
  Status Eval(const Expr& e, const RecordView& row, Value* result) const {
    RecordAccessor acc(row);
    return Eval(e, acc, result);
  }
  /// Convenience: evaluate against a materialized value row.
  Status Eval(const Expr& e, const std::vector<Value>& row,
              Value* result) const {
    ValuesAccessor acc(row);
    return Eval(e, acc, result);
  }

  /// Evaluate a filter predicate: `*passes` is true iff the result is the
  /// non-NULL boolean TRUE (a NULL predicate result filters the row out).
  Status EvalPredicate(const Expr& e, const TupleAccessor& row,
                       bool* passes) const;
  Status EvalPredicate(const Expr& e, const RecordView& row,
                       bool* passes) const {
    RecordAccessor acc(row);
    return EvalPredicate(e, acc, passes);
  }
  Status EvalPredicate(const Expr& e, const std::vector<Value>& row,
                       bool* passes) const {
    ValuesAccessor acc(row);
    return EvalPredicate(e, acc, passes);
  }

  /// Evaluate with no row (constants/params/calls only).
  Status EvalConst(const Expr& e, Value* result) const {
    RecordView none;
    return Eval(e, none, result);
  }

  /// Compile the filter predicate `e` for records of `schema`. Constants
  /// and the parameters bound now are resolved once, so a later SetParams
  /// does not reach `out`. `e`, `schema` and this
  /// evaluator must outlive `out`.
  void Compile(const Expr& e, const Schema& schema,
               CompiledPredicate* out) const;

 private:
  Status EvalComparison(const Expr& e, const TupleAccessor& row,
                        Value* result) const;
  Status EvalArithmetic(const Expr& e, const TupleAccessor& row,
                        Value* result) const;
  Status EvalSpatial(const Expr& e, const TupleAccessor& row,
                     Value* result) const;

  std::map<std::string, UserFunction> functions_;
  std::vector<Value> params_;
};

/// A filter predicate compiled against one schema: the AND of comparisons
/// between a numeric field and a numeric constant or parameter, the shape
/// of a pushed range filter such as `branch = ? AND balance > ?`. Each row
/// is decided straight from its bytes (RecordView::IsNull, GetInt,
/// GetDouble) with Value::Compare's semantics; no Value is built and no
/// virtual call made. Any other predicate (OR, NOT, IS NULL, LIKE, string
/// or bool comparisons, calls, arithmetic, spatial operators, an
/// out-of-range field, a NULL or unbound parameter) does not compile:
/// every row then goes to the tree walker, so results and errors stay the
/// walker's. A row with another schema object or too few fields also goes
/// to the walker.
class CompiledPredicate {
 public:
  /// True when rows run the compiled form, false when they go to the
  /// walker.
  bool compiled() const { return compiled_; }

  /// Same contract as ExprEvaluator::EvalPredicate. Valid once Compile
  /// has filled this object.
  Status EvalPredicate(const RecordView& row, bool* passes) const;

 private:
  friend class ExprEvaluator;

  // One conjunct, `field OP value`, with the value resolved once.
  struct Term {
    uint16_t field = 0;
    bool field_is_int = false;
    bool int_compare = false;  // INT field vs INT value: compare as int64
    uint8_t truth = 0;         // bit (c + 1) set: three-way result c passes
    int64_t i = 0;
    double d = 0;  // the value widened as Value::AsDouble does
  };

  bool AddConjuncts(const Expr& e, const Schema& schema,
                    const std::vector<Value>& params);

  const Expr* expr_ = nullptr;
  const ExprEvaluator* walker_ = nullptr;
  const Schema* schema_ = nullptr;
  bool compiled_ = false;
  size_t min_fields_ = 0;  // a row needs this many fields to run compiled
  std::vector<Term> terms_;
};

/// SQL LIKE matcher with `%` (any run) and `_` (any single char).
bool LikeMatch(const Slice& text, const Slice& pattern);

}  // namespace dmx

#endif  // DMX_EXPR_EVALUATOR_H_
