// Unit tests for the common predicate-evaluation service.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>

#include "src/core/database.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"
#include "src/types/record.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

Schema TestSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, true},
                 {"salary", TypeId::kDouble, true},
                 {"active", TypeId::kBool, true}});
}

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : schema_(TestSchema()) {
    Record::Encode(schema_,
                   {Value::Int(42), Value::String("guttman"),
                    Value::Double(1250.5), Value::Bool(true)},
                   &rec_);
    view_ = rec_.View(&schema_);
  }

  Value Eval(const ExprPtr& e) {
    Value v;
    Status s = eval_.Eval(*e, view_, &v);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return v;
  }

  bool Passes(const ExprPtr& e) {
    bool p = false;
    Status s = eval_.EvalPredicate(*e, view_, &p);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return p;
  }

  Schema schema_;
  Record rec_;
  RecordView view_;
  ExprEvaluator eval_;
};

TEST_F(ExprTest, ConstAndField) {
  EXPECT_EQ(Eval(Expr::Const(Value::Int(7))).int_value(), 7);
  EXPECT_EQ(Eval(Expr::Field(0)).int_value(), 42);
  EXPECT_EQ(Eval(Expr::Field(1)).string_value(), "guttman");
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kEq, 0, Value::Int(42))));
  EXPECT_FALSE(Passes(Expr::Cmp(ExprOp::kEq, 0, Value::Int(43))));
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kGt, 2, Value::Double(1000.0))));
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kLe, 0, Value::Int(42))));
  EXPECT_FALSE(Passes(Expr::Cmp(ExprOp::kLt, 0, Value::Int(42))));
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kNe, 1, Value::String("x"))));
  // Cross-type numeric: int field vs double constant.
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kGt, 0, Value::Double(41.5))));
}

TEST_F(ExprTest, MirroredComparison) {
  // const < field  ==  field > const
  auto e = Expr::Binary(ExprOp::kLt, Expr::Const(Value::Int(10)),
                        Expr::Field(0));
  EXPECT_TRUE(Passes(e));
}

TEST_F(ExprTest, LogicalOps) {
  auto t = Expr::Cmp(ExprOp::kEq, 0, Value::Int(42));
  auto f = Expr::Cmp(ExprOp::kEq, 0, Value::Int(0));
  EXPECT_TRUE(Passes(Expr::And(t, t)));
  EXPECT_FALSE(Passes(Expr::And(t, f)));
  EXPECT_TRUE(Passes(Expr::Or(f, t)));
  EXPECT_FALSE(Passes(Expr::Or(f, f)));
  EXPECT_TRUE(Passes(Expr::Unary(ExprOp::kNot, f)));
  EXPECT_FALSE(Passes(Expr::Unary(ExprOp::kNot, t)));
}

TEST_F(ExprTest, NullSemantics) {
  Record rec;
  ASSERT_TRUE(Record::Encode(schema_,
                             {Value::Int(1), Value::Null(), Value::Null(),
                              Value::Null()},
                             &rec)
                  .ok());
  RecordView v = rec.View(&schema_);
  ExprEvaluator ev;
  // NULL = anything -> NULL -> predicate fails.
  bool p = true;
  auto cmp = Expr::Cmp(ExprOp::kEq, 2, Value::Double(1.0));
  ASSERT_TRUE(ev.EvalPredicate(*cmp, v, &p).ok());
  EXPECT_FALSE(p);
  // IS NULL.
  auto isnull = Expr::Unary(ExprOp::kIsNull, Expr::Field(2));
  ASSERT_TRUE(ev.EvalPredicate(*isnull, v, &p).ok());
  EXPECT_TRUE(p);
  // NULL OR TRUE = TRUE (Kleene).
  auto t = Expr::Cmp(ExprOp::kEq, 0, Value::Int(1));
  ASSERT_TRUE(ev.EvalPredicate(*Expr::Or(cmp, t), v, &p).ok());
  EXPECT_TRUE(p);
  // NULL AND FALSE = FALSE, NULL AND TRUE = NULL.
  Value out;
  ASSERT_TRUE(ev.Eval(*Expr::And(cmp, t), v, &out).ok());
  EXPECT_TRUE(out.is_null());
}

TEST_F(ExprTest, Arithmetic) {
  auto e = Expr::Binary(ExprOp::kAdd, Expr::Field(0), Expr::Const(Value::Int(8)));
  EXPECT_EQ(Eval(e).int_value(), 50);
  auto d = Expr::Binary(ExprOp::kMul, Expr::Field(2),
                        Expr::Const(Value::Double(2.0)));
  EXPECT_EQ(Eval(d).double_value(), 2501.0);
  // Division by zero is an error, not a crash.
  Value v;
  auto bad = Expr::Binary(ExprOp::kDiv, Expr::Field(0),
                          Expr::Const(Value::Int(0)));
  EXPECT_FALSE(eval_.Eval(*bad, view_, &v).ok());
  // Integer overflow is an error too (INT64_MIN / -1 used to trap).
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  auto trap = Expr::Binary(ExprOp::kDiv, Expr::Const(Value::Int(kMin)),
                           Expr::Const(Value::Int(-1)));
  EXPECT_TRUE(eval_.Eval(*trap, view_, &v).IsInvalidArgument());
  auto wrap = Expr::Binary(ExprOp::kSub, Expr::Const(Value::Int(kMin)),
                           Expr::Const(Value::Int(1)));
  EXPECT_TRUE(eval_.Eval(*wrap, view_, &v).IsInvalidArgument());
}

TEST_F(ExprTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("gutt%")));
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("%man")));
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("%ttm%")));
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("g_ttman")));
  EXPECT_FALSE(LikeMatch(Slice("guttman"), Slice("g_tman")));
  EXPECT_TRUE(LikeMatch(Slice(""), Slice("%")));
  EXPECT_FALSE(LikeMatch(Slice(""), Slice("_")));
  EXPECT_TRUE(LikeMatch(Slice("abc"), Slice("abc")));
  EXPECT_FALSE(LikeMatch(Slice("abc"), Slice("ab")));

  auto e = Expr::Binary(ExprOp::kLike, Expr::Field(1),
                        Expr::Const(Value::String("gut%")));
  EXPECT_TRUE(Passes(e));
}

TEST_F(ExprTest, UserFunctionsAndParams) {
  eval_.RegisterFunction("double_it",
                         [](const std::vector<Value>& args, Value* out) {
                           *out = Value::Int(args[0].int_value() * 2);
                           return Status::OK();
                         });
  eval_.SetParams({Value::Int(84)});
  // double_it(f0) == $0
  auto e = Expr::Eq(Expr::Call("double_it", {Expr::Field(0)}), Expr::Param(0));
  EXPECT_TRUE(Passes(e));
  // Unknown function errors.
  Value v;
  EXPECT_TRUE(eval_.Eval(*Expr::Call("nope", {}), view_, &v).IsNotFound());
  // Unbound param errors.
  EXPECT_FALSE(eval_.Eval(*Expr::Param(3), view_, &v).ok());
}

TEST_F(ExprTest, SpatialPredicates) {
  Schema rect_schema({{"xmin", TypeId::kDouble, false},
                      {"ymin", TypeId::kDouble, false},
                      {"xmax", TypeId::kDouble, false},
                      {"ymax", TypeId::kDouble, false}});
  Record rec;
  ASSERT_TRUE(Record::Encode(rect_schema,
                             {Value::Double(0), Value::Double(0),
                              Value::Double(10), Value::Double(10)},
                             &rec)
                  .ok());
  RecordView v = rec.View(&rect_schema);
  ExprEvaluator ev;
  auto rect_fields = [] {
    return std::vector<ExprPtr>{Expr::Field(0), Expr::Field(1), Expr::Field(2),
                                Expr::Field(3)};
  };
  auto query = [](double a, double b, double c, double d) {
    return std::vector<ExprPtr>{
        Expr::Const(Value::Double(a)), Expr::Const(Value::Double(b)),
        Expr::Const(Value::Double(c)), Expr::Const(Value::Double(d))};
  };
  bool p;
  // Record [0,10]^2 ENCLOSES [2,4]^2.
  auto enc = Expr::Spatial(ExprOp::kEncloses, rect_fields(), query(2, 2, 4, 4));
  ASSERT_TRUE(ev.EvalPredicate(*enc, v, &p).ok());
  EXPECT_TRUE(p);
  // Record does not enclose [5,15]^2.
  enc = Expr::Spatial(ExprOp::kEncloses, rect_fields(), query(5, 5, 15, 15));
  ASSERT_TRUE(ev.EvalPredicate(*enc, v, &p).ok());
  EXPECT_FALSE(p);
  // But it overlaps it.
  auto ovl = Expr::Spatial(ExprOp::kOverlaps, rect_fields(), query(5, 5, 15, 15));
  ASSERT_TRUE(ev.EvalPredicate(*ovl, v, &p).ok());
  EXPECT_TRUE(p);
  // Disjoint: no overlap.
  ovl = Expr::Spatial(ExprOp::kOverlaps, rect_fields(), query(11, 11, 12, 12));
  ASSERT_TRUE(ev.EvalPredicate(*ovl, v, &p).ok());
  EXPECT_FALSE(p);
  // Record within [−1, 11]^2.
  auto win = Expr::Spatial(ExprOp::kWithin, rect_fields(), query(-1, -1, 11, 11));
  ASSERT_TRUE(ev.EvalPredicate(*win, v, &p).ok());
  EXPECT_TRUE(p);
}

TEST_F(ExprTest, CollectFields) {
  auto e = Expr::And(Expr::Cmp(ExprOp::kGt, 2, Value::Double(1.0)),
                     Expr::Or(Expr::Cmp(ExprOp::kEq, 0, Value::Int(1)),
                              Expr::Cmp(ExprOp::kEq, 2, Value::Double(2.0))));
  std::vector<int> fields;
  e->CollectFields(&fields);
  EXPECT_EQ(fields.size(), 2u);  // {2, 0}, deduplicated
}

TEST_F(ExprTest, EncodeDecodeRoundTrip) {
  auto e = Expr::And(
      Expr::Cmp(ExprOp::kGe, 0, Value::Int(10)),
      Expr::Or(Expr::Binary(ExprOp::kLike, Expr::Field(1),
                            Expr::Const(Value::String("a%"))),
               Expr::Call("f", {Expr::Param(0), Expr::Field(2)})));
  std::string buf;
  e->EncodeTo(&buf);
  Slice in(buf);
  ExprPtr back;
  ASSERT_TRUE(Expr::DecodeFrom(&in, &back).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(e->ToString(), back->ToString());
}

TEST_F(ExprTest, DecodeRejectsGarbage) {
  std::string garbage = "\x07\x01";
  Slice in(garbage);
  ExprPtr out;
  EXPECT_FALSE(Expr::DecodeFrom(&in, &out).ok());
}

TEST_F(ExprTest, SplitAndJoinConjuncts) {
  auto a = Expr::Cmp(ExprOp::kEq, 0, Value::Int(1));
  auto b = Expr::Cmp(ExprOp::kGt, 2, Value::Double(5.0));
  auto c = Expr::Cmp(ExprOp::kNe, 1, Value::String("x"));
  auto e = Expr::And(Expr::And(a, b), c);
  std::vector<ExprPtr> parts;
  SplitConjuncts(e, &parts);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->ToString(), a->ToString());
  auto joined = JoinConjuncts(parts);
  std::vector<ExprPtr> again;
  SplitConjuncts(joined, &again);
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(JoinConjuncts({}), nullptr);
}

TEST_F(ExprTest, MatchFieldCompare) {
  int field;
  ExprOp op;
  Value constant;
  auto e = Expr::Cmp(ExprOp::kLt, 2, Value::Double(9.0));
  ASSERT_TRUE(MatchFieldCompare(e, &field, &op, &constant));
  EXPECT_EQ(field, 2);
  EXPECT_EQ(op, ExprOp::kLt);
  EXPECT_EQ(constant.AsDouble(), 9.0);
  // Mirrored: 5 <= f0  ->  f0 >= 5.
  auto m = Expr::Binary(ExprOp::kLe, Expr::Const(Value::Int(5)), Expr::Field(0));
  ASSERT_TRUE(MatchFieldCompare(m, &field, &op, &constant));
  EXPECT_EQ(field, 0);
  EXPECT_EQ(op, ExprOp::kGe);
  // Not a field-vs-const comparison.
  auto ff = Expr::Eq(Expr::Field(0), Expr::Field(1));
  EXPECT_FALSE(MatchFieldCompare(ff, &field, &op, &constant));
}

TEST_F(ExprTest, MatchSpatial) {
  const int rect[4] = {0, 1, 2, 3};
  auto e = Expr::Spatial(
      ExprOp::kOverlaps,
      {Expr::Field(0), Expr::Field(1), Expr::Field(2), Expr::Field(3)},
      {Expr::Const(Value::Double(1)), Expr::Const(Value::Double(2)),
       Expr::Const(Value::Double(3)), Expr::Const(Value::Double(4))});
  ExprOp op;
  double q[4];
  ASSERT_TRUE(MatchSpatial(e, rect, &op, q));
  EXPECT_EQ(op, ExprOp::kOverlaps);
  EXPECT_EQ(q[0], 1.0);
  EXPECT_EQ(q[3], 4.0);
  // Different field order: no match.
  const int other[4] = {3, 2, 1, 0};
  EXPECT_FALSE(MatchSpatial(e, other, &op, q));
  // Non-spatial op: no match.
  EXPECT_FALSE(MatchSpatial(Expr::Cmp(ExprOp::kEq, 0, Value::Int(1)), rect,
                            &op, q));
}

TEST_F(ExprTest, TypeMismatchComparisonErrors) {
  Value v;
  auto e = Expr::Cmp(ExprOp::kEq, 1, Value::Int(5));  // string vs int
  EXPECT_TRUE(eval_.Eval(*e, view_, &v).IsInvalidArgument());
}

// -- compiled predicates against the tree walker ------------------------------

// Fixed so a failure reproduces; DMX_TORTURE_SEED overrides it (the nightly
// randomizes it).
uint64_t FuzzSeed() {
  if (const char* env = std::getenv("DMX_TORTURE_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 15;
}

// Random schemas, rows, parameters and predicates. Values come from small
// pools so comparisons tie, NULLs are common, and LIKE patterns match.
// Half the predicates are range filters, the shape that compiles (an AND
// of numeric field-vs-value comparisons), with operands that sometimes
// break it; the rest mix in every other node (OR, NOT, IS NULL, LIKE,
// arithmetic, calls, spatial operators), so both the compiled path and the
// fallback run.
class PredicateFuzzer {
 public:
  explicit PredicateFuzzer(uint64_t seed) : rng_(seed) {}

  Schema RandomSchema() {
    std::vector<Column> cols;
    const int n = 1 + Uniform(6);
    for (int i = 0; i < n; ++i) {
      cols.push_back({"c" + std::to_string(i), RandomType(), true});
    }
    return Schema(std::move(cols));
  }

  std::vector<Value> RandomRow(const Schema& schema) {
    std::vector<Value> row;
    for (const Column& c : schema.columns()) {
      row.push_back(Coin(20) ? Value::Null() : RandomValue(c.type));
    }
    return row;
  }

  // Up to four parameters: bound or NULL, and of any type, so a reference
  // may be unbound or mistyped for the place it is used.
  std::vector<Value> RandomParams() {
    std::vector<Value> params;
    const int n = Coin(75) ? 4 : Uniform(4);
    for (int i = 0; i < n; ++i) {
      const TypeId t = Coin(70) ? (Coin(50) ? TypeId::kInt64 : TypeId::kDouble)
                                : RandomType();
      params.push_back(Coin(15) ? Value::Null() : RandomValue(t));
    }
    return params;
  }

  ExprPtr Filter(const Schema& schema) {
    return Coin(75) ? RangeFilter(schema, 2) : Predicate(schema, 3);
  }

  // An AND of range terms, now and then nesting another AND or holding a
  // predicate of any shape.
  ExprPtr RangeFilter(const Schema& schema, int depth) {
    std::vector<ExprPtr> kids;
    const int n = 1 + Uniform(3);
    for (int i = 0; i < n; ++i) {
      const int r = Uniform(100);
      if (r < 85 || depth <= 0) {
        kids.push_back(RangeTerm(schema));
      } else if (r < 93) {
        kids.push_back(RangeFilter(schema, depth - 1));
      } else {
        kids.push_back(Predicate(schema, 1));
      }
    }
    return kids.size() == 1 && Coin(50) ? kids[0]
                                        : Expr::Nary(ExprOp::kAnd,
                                                     std::move(kids));
  }

  ExprPtr Predicate(const Schema& schema, int depth) {
    const int r = Uniform(100);
    if (depth <= 0 || r < 35) return Comparison(schema);
    if (r < 55) {
      std::vector<ExprPtr> kids;
      const int n = 1 + Uniform(3);
      for (int i = 0; i < n; ++i) kids.push_back(Predicate(schema, depth - 1));
      return Expr::Nary(Coin(50) ? ExprOp::kAnd : ExprOp::kOr,
                        std::move(kids));
    }
    if (r < 63) {
      return Expr::Unary(ExprOp::kNot, Predicate(schema, depth - 1));
    }
    if (r < 70) {
      return Expr::Unary(ExprOp::kIsNull,
                         Coin(50) ? Operand(schema, RandomType())
                                  : Predicate(schema, depth - 1));
    }
    if (r < 78) {
      return Expr::Binary(ExprOp::kLike, Operand(schema, TypeId::kString),
                          Operand(schema, TypeId::kString));
    }
    if (r < 84) return Operand(schema, TypeId::kBool);
    if (r < 88) {
      // Bool against bool, either side a predicate.
      return Expr::Binary(CompareOp(), Predicate(schema, depth - 1),
                          Coin(50) ? Operand(schema, TypeId::kBool)
                                   : Predicate(schema, depth - 1));
    }
    if (r < 93) {  // arithmetic: never compiles
      return Expr::Binary(
          CompareOp(),
          Expr::Binary(Coin(50) ? ExprOp::kAdd : ExprOp::kDiv,
                       Operand(schema, TypeId::kInt64),
                       Operand(schema, TypeId::kDouble)),
          Operand(schema, TypeId::kDouble));
    }
    if (r < 97) {  // a call: "id" is registered, "nope" is not
      return Expr::Binary(
          CompareOp(),
          Expr::Call(Coin(70) ? "id" : "nope",
                     {Operand(schema, TypeId::kInt64)}),
          Operand(schema, TypeId::kInt64));
    }
    std::vector<ExprPtr> rect, query;
    for (int i = 0; i < 4; ++i) {
      rect.push_back(Operand(schema, TypeId::kDouble));
      query.push_back(Expr::Const(RandomValue(TypeId::kDouble)));
    }
    return Expr::Spatial(ExprOp::kOverlaps, std::move(rect),
                         std::move(query));
  }

 private:
  // A numeric field (usually) against a numeric constant or parameter
  // (usually), either way round.
  ExprPtr RangeTerm(const Schema& schema) {
    std::vector<int> numeric;
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const TypeId t = schema.column(i).type;
      if (t == TypeId::kInt64 || t == TypeId::kDouble) {
        numeric.push_back(static_cast<int>(i));
      }
    }
    ExprPtr a = !numeric.empty() && !Coin(10)
                    ? Expr::Field(numeric[static_cast<size_t>(
                          Uniform(static_cast<int>(numeric.size())))])
                    : Operand(schema, RandomType());
    ExprPtr b;
    const int r = Uniform(100);
    if (r < 60) {
      b = Expr::Const(Coin(5) ? Value::Null()
                              : RandomValue(Coin(50) ? TypeId::kInt64
                                                     : TypeId::kDouble));
    } else if (r < 92) {
      b = Expr::Param(Uniform(4));
    } else {
      b = Operand(schema, RandomType());
    }
    if (Coin(30)) std::swap(a, b);
    return Expr::Binary(CompareOp(), a, b);
  }

  ExprPtr Comparison(const Schema& schema) {
    TypeId t = RandomType();
    ExprPtr a = Operand(schema, t);
    if (Coin(30)) {  // mixed numeric, or a clash the walker may report
      t = Coin(50) ? (t == TypeId::kInt64 ? TypeId::kDouble : TypeId::kInt64)
                   : RandomType();
    }
    ExprPtr b = Operand(schema, t);
    if (Coin(50)) std::swap(a, b);
    return Expr::Binary(CompareOp(), a, b);
  }

  // A leaf, usually of type `want`: a field, a constant (sometimes NULL)
  // or a parameter; now and then a field index past the schema.
  ExprPtr Operand(const Schema& schema, TypeId want) {
    const int r = Uniform(100);
    if (r < 45) {
      std::vector<int> fits;
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        if (schema.column(i).type == want) fits.push_back(static_cast<int>(i));
      }
      if (!fits.empty() && !Coin(10)) {
        return Expr::Field(fits[static_cast<size_t>(Uniform(
            static_cast<int>(fits.size())))]);
      }
      if (Coin(30)) {
        return Expr::Field(
            Uniform(static_cast<int>(schema.num_columns()) + 1));
      }
    }
    if (r < 80) {
      return Expr::Const(Coin(8) ? Value::Null() : RandomValue(want));
    }
    return Expr::Param(Uniform(4));
  }

  Value RandomValue(TypeId t) {
    switch (t) {
      case TypeId::kBool:
        return Value::Bool(Coin(50));
      case TypeId::kInt64: {
        static const int64_t kInts[] = {
            -2, -1, 0, 1, 2, 3, int64_t{1} << 53, (int64_t{1} << 53) + 1,
            std::numeric_limits<int64_t>::min()};
        return Value::Int(kInts[Uniform(9)]);
      }
      case TypeId::kDouble: {
        static const double kDoubles[] = {
            -1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 9007199254740992.0,
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity()};
        return Value::Double(kDoubles[Uniform(9)]);
      }
      default: {
        static const char* const kStrings[] = {
            "", "a", "ab", "abc", "b", "A", "%", "a%", "_b", "%b%", "\xff"};
        return Value::String(kStrings[Uniform(11)]);
      }
    }
  }

  TypeId RandomType() {
    static const TypeId kTypes[] = {TypeId::kBool, TypeId::kInt64,
                                    TypeId::kDouble, TypeId::kString};
    return kTypes[Uniform(4)];
  }

  ExprOp CompareOp() {
    static const ExprOp kOps[] = {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt,
                                  ExprOp::kLe, ExprOp::kGt, ExprOp::kGe};
    return kOps[Uniform(6)];
  }

  int Uniform(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  bool Coin(int pct) { return Uniform(100) < pct; }

  std::mt19937_64 rng_;
};

std::string RowString(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

TEST(CompiledPredicateTest, AgreesWithWalkerOnRandomPredicates) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("DMX_TORTURE_SEED=" + std::to_string(seed));
  PredicateFuzzer fuzz(seed);
  ExprEvaluator ev;
  ev.RegisterFunction("id", [](const std::vector<Value>& args, Value* out) {
    *out = args[0];
    return Status::OK();
  });
  uint64_t cases = 0, compiled_cases = 0, compiled_passes = 0;
  uint64_t walker_errors = 0, mismatches = 0;
  for (int round = 0; round < 400; ++round) {
    const Schema schema = fuzz.RandomSchema();
    std::vector<Record> records(16);
    std::vector<std::vector<Value>> rows;
    for (Record& rec : records) {
      rows.push_back(fuzz.RandomRow(schema));
      ASSERT_TRUE(Record::Encode(schema, rows.back(), &rec).ok());
    }
    ev.SetParams(fuzz.RandomParams());
    for (int k = 0; k < 20; ++k) {
      const ExprPtr pred = fuzz.Filter(schema);
      CompiledPredicate compiled;
      ev.Compile(*pred, schema, &compiled);
      // One extra case: a view with no bytes.
      for (size_t r = 0; r <= records.size(); ++r) {
        const RecordView view = r < records.size()
                                    ? records[r].View(&schema)
                                    : RecordView(Slice(), &schema);
        bool want = false, got = false;
        const Status ws = ev.EvalPredicate(*pred, view, &want);
        const Status cs = compiled.EvalPredicate(view, &got);
        ++cases;
        if (compiled.compiled()) {
          ++compiled_cases;
          if (cs.ok() && got) ++compiled_passes;
        }
        if (!ws.ok()) ++walker_errors;
        if (ws.code() != cs.code() || (ws.ok() && want != got)) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << pred->ToString() << " on "
                          << (r < rows.size() ? RowString(rows[r]) : "<empty>")
                          << (compiled.compiled() ? " compiled" : " walker")
                          << ": walker " << ws.ToString() << "/" << want
                          << ", compiled " << cs.ToString() << "/" << got;
          }
        }
      }
    }
  }
  RecordProperty("cases", std::to_string(cases));
  RecordProperty("compiled_cases", std::to_string(compiled_cases));
  RecordProperty("compiled_passes", std::to_string(compiled_passes));
  RecordProperty("walker_errors", std::to_string(walker_errors));
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(cases, 100000u);
  // Both paths, and walker errors, are exercised in earnest.
  EXPECT_GT(compiled_cases, cases / 4);
  EXPECT_LT(compiled_cases, cases * 9 / 10);
  EXPECT_GT(compiled_passes, compiled_cases / 10);
  EXPECT_GT(walker_errors, cases / 50);
}

Schema AcctSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"branch", TypeId::kInt64, true},
                 {"balance", TypeId::kDouble, true},
                 {"name", TypeId::kString, true}});
}

TEST(CompiledPredicateTest, ParameterizedRangeFilterCompiles) {
  const Schema schema = AcctSchema();
  ExprEvaluator ev;
  ev.SetParams({Value::Int(3), Value::Double(500.0)});
  // branch = ? AND balance > ?
  const ExprPtr pred =
      Expr::And(Expr::Eq(Expr::Field(1), Expr::Param(0)),
                Expr::Binary(ExprOp::kGt, Expr::Field(2), Expr::Param(1)));
  CompiledPredicate compiled;
  ev.Compile(*pred, schema, &compiled);
  EXPECT_TRUE(compiled.compiled());

  // The parameters are the ones bound at compile time.
  Record rec;
  ASSERT_TRUE(Record::Encode(schema,
                             {Value::Int(1), Value::Int(3),
                              Value::Double(600.0), Value::String("x")},
                             &rec)
                  .ok());
  ev.SetParams({Value::Int(4), Value::Double(500.0)});
  bool passes = false;
  ASSERT_TRUE(compiled.EvalPredicate(rec.View(&schema), &passes).ok());
  EXPECT_TRUE(passes);

  // An unbound parameter falls back to the walker and keeps its error.
  ev.SetParams({Value::Int(3)});
  ev.Compile(*pred, schema, &compiled);
  EXPECT_FALSE(compiled.compiled());
  EXPECT_TRUE(
      compiled.EvalPredicate(rec.View(&schema), &passes).IsInvalidArgument());
}

// Each storage method that takes a pushed filter returns the rows an
// unfiltered scan returns once the walker filters them, with the same
// error when the walker fails.
TEST(CompiledPredicateTest, PushedFiltersMatchWalkerInEveryStorageMethod) {
  testing::TempDir dir("pushed");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  const Schema schema({{"id", TypeId::kInt64, false},
                       {"i", TypeId::kInt64, true},
                       {"d", TypeId::kDouble, true},
                       {"s", TypeId::kString, true},
                       {"b", TypeId::kBool, true}});
  const char* const kMethods[] = {"heap", "mainmemory", "btree"};
  PredicateFuzzer fuzz(FuzzSeed());
  Transaction* txn = db->Begin();
  for (const char* sm : kMethods) {
    AttrList attrs;
    if (std::string(sm) == "btree") attrs.Add("key", "id");
    ASSERT_TRUE(db->CreateRelation(txn, sm, schema, sm, attrs).ok());
  }
  for (int64_t id = 0; id < 200; ++id) {
    std::vector<Value> row = fuzz.RandomRow(schema);
    row[0] = Value::Int(id);
    for (const char* sm : kMethods) {
      ASSERT_TRUE(db->Insert(txn, sm, row).ok());
    }
  }
  ASSERT_TRUE(db->Commit(txn).ok());

  // Keys of the rows a scan returns, and the status that ended it.
  auto scan = [&](const char* rel, const ExprPtr& pushed,
                  const ExprPtr& walked, std::vector<std::string>* keys) {
    keys->clear();
    Transaction* t = db->Begin();
    ScanSpec spec;
    spec.filter = pushed;
    std::unique_ptr<Scan> it;
    Status s = db->OpenScan(t, rel, AccessPathId::StorageMethod(), spec, &it);
    ScanItem item;
    while (s.ok() && (s = it->Next(&item)).ok()) {
      bool passes = true;
      if (walked != nullptr) {
        s = db->evaluator()->EvalPredicate(*walked, item.view, &passes);
      }
      if (s.ok() && passes) keys->push_back(item.record_key);
    }
    it.reset();
    EXPECT_TRUE(db->Commit(t).ok());
    return s;
  };

  int nonempty = 0;
  for (int k = 0; k < 60; ++k) {
    db->evaluator()->SetParams(fuzz.RandomParams());
    const ExprPtr pred = fuzz.Filter(schema);
    for (const char* sm : kMethods) {
      SCOPED_TRACE(std::string(sm) + ": " + pred->ToString());
      std::vector<std::string> pushed, walked;
      const Status ps = scan(sm, pred, nullptr, &pushed);
      const Status ws = scan(sm, nullptr, pred, &walked);
      EXPECT_EQ(ps.code(), ws.code()) << ps.ToString() << " vs "
                                      << ws.ToString();
      EXPECT_EQ(pushed, walked);
      if (!pushed.empty()) ++nonempty;
    }
  }
  db->evaluator()->SetParams({});
  EXPECT_GT(nonempty, 20);
}

}  // namespace
}  // namespace dmx
