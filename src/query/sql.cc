#include "src/query/sql.h"

#include <algorithm>
#include <cctype>

#include "src/sm/key_codec.h"

namespace dmx {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

namespace {

enum class TokType { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokType type = TokType::kEnd;
  std::string text;  // identifiers upper-cased only for keyword checks

  bool IsKw(const char* kw) const {
    if (type != TokType::kIdent) return false;
    if (text.size() != strlen(kw)) return false;
    for (size_t i = 0; i < text.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text[i])) != kw[i]) {
        return false;
      }
    }
    return true;
  }
  bool IsSym(const char* s) const {
    return type == TokType::kSymbol && text == s;
  }
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : in_(input) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < in_.size()) {
      char c = in_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t b = i;
        while (i < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[i])) ||
                in_[i] == '_')) {
          ++i;
        }
        out->push_back({TokType::kIdent, in_.substr(b, i - b)});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < in_.size() &&
           std::isdigit(static_cast<unsigned char>(in_[i + 1])) &&
           NumberContext(out))) {
        size_t b = i;
        if (c == '-') ++i;
        bool has_dot = false;
        while (i < in_.size() &&
               (std::isdigit(static_cast<unsigned char>(in_[i])) ||
                (in_[i] == '.' && !has_dot))) {
          if (in_[i] == '.') has_dot = true;
          ++i;
        }
        out->push_back({TokType::kNumber, in_.substr(b, i - b)});
        continue;
      }
      if (c == '\'') {
        std::string s;
        ++i;
        while (i < in_.size()) {
          if (in_[i] == '\'') {
            if (i + 1 < in_.size() && in_[i + 1] == '\'') {
              s.push_back('\'');
              i += 2;
              continue;
            }
            break;
          }
          s.push_back(in_[i++]);
        }
        if (i >= in_.size()) return Status::InvalidArgument("unclosed string");
        ++i;  // closing quote
        out->push_back({TokType::kString, std::move(s)});
        continue;
      }
      // Multi-char operators first.
      if (i + 1 < in_.size()) {
        std::string two = in_.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          out->push_back({TokType::kSymbol, two == "!=" ? "<>" : two});
          i += 2;
          continue;
        }
      }
      static const std::string kSingles = "(),.*=<>+-/;?";
      if (kSingles.find(c) != std::string::npos) {
        out->push_back({TokType::kSymbol, std::string(1, c)});
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "'");
    }
    out->push_back({TokType::kEnd, ""});
    return Status::OK();
  }

 private:
  // A leading '-' is a numeric sign only if the previous token cannot end
  // an operand (crude but sufficient for this grammar).
  bool NumberContext(const std::vector<Token>* out) const {
    if (out->empty()) return true;
    const Token& prev = out->back();
    if (prev.type == TokType::kNumber || prev.type == TokType::kString) {
      return false;
    }
    if (prev.type == TokType::kIdent) return prev.IsKw("VALUES") ? true : false;
    return !prev.IsSym(")");
  }

  const std::string& in_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

// Column binding context for expression parsing: maps (optionally
// qualified) names to field indexes in the row flowing through execution.
struct NameScope {
  // (qualifier, column) -> index; unqualified lookups match any qualifier
  // if unambiguous.
  std::vector<std::pair<std::pair<std::string, std::string>, int>> names;

  void Add(const std::string& table, const Schema& schema, int base) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      names.push_back(
          {{table, schema.column(i).name}, base + static_cast<int>(i)});
    }
  }

  Status Resolve(const std::string& qualifier, const std::string& column,
                 int* out) const {
    int found = -1;
    for (const auto& [key, index] : names) {
      if (key.second != column) continue;
      if (!qualifier.empty() && key.first != qualifier) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column '" + column + "'");
      }
      found = index;
    }
    if (found < 0) {
      return Status::InvalidArgument("unknown column '" + column + "'");
    }
    *out = found;
    return Status::OK();
  }
};

class Parser {
 public:
  Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  Token Take() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool TakeKw(const char* kw) {
    if (Peek().IsKw(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool TakeSym(const char* s) {
    if (Peek().IsSym(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKw(const char* kw) {
    if (!TakeKw(kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw +
                                     " near '" + Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectSym(const char* s) {
    if (!TakeSym(s)) {
      return Status::InvalidArgument(std::string("expected '") + s +
                                     "' near '" + Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectIdent(std::string* out) {
    if (Peek().type != TokType::kIdent) {
      return Status::InvalidArgument("expected identifier near '" +
                                     Peek().text + "'");
    }
    *out = Take().text;
    return Status::OK();
  }
  bool AtEnd() {
    TakeSym(";");
    return Peek().type == TokType::kEnd;
  }

  // expr := or; standard precedence OR < AND < NOT < cmp < add < mul.
  Status ParseExpr(const NameScope& scope, ExprPtr* out) {
    return ParseOr(scope, out);
  }

 private:
  Status ParseOr(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseAnd(scope, &left));
    while (TakeKw("OR")) {
      ExprPtr right;
      DMX_RETURN_IF_ERROR(ParseAnd(scope, &right));
      left = Expr::Or(left, right);
    }
    *out = left;
    return Status::OK();
  }

  Status ParseAnd(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseNot(scope, &left));
    while (TakeKw("AND")) {
      ExprPtr right;
      DMX_RETURN_IF_ERROR(ParseNot(scope, &right));
      left = Expr::And(left, right);
    }
    *out = left;
    return Status::OK();
  }

  Status ParseNot(const NameScope& scope, ExprPtr* out) {
    if (TakeKw("NOT")) {
      ExprPtr inner;
      DMX_RETURN_IF_ERROR(ParseNot(scope, &inner));
      *out = Expr::Unary(ExprOp::kNot, inner);
      return Status::OK();
    }
    return ParseComparison(scope, out);
  }

  Status ParseComparison(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseAdditive(scope, &left));
    if (TakeKw("IS")) {
      bool negated = TakeKw("NOT");
      DMX_RETURN_IF_ERROR(ExpectKw("NULL"));
      ExprPtr test = Expr::Unary(ExprOp::kIsNull, left);
      *out = negated ? Expr::Unary(ExprOp::kNot, test) : test;
      return Status::OK();
    }
    if (TakeKw("LIKE")) {
      ExprPtr right;
      DMX_RETURN_IF_ERROR(ParseAdditive(scope, &right));
      *out = Expr::Binary(ExprOp::kLike, left, right);
      return Status::OK();
    }
    if (TakeKw("BETWEEN")) {
      ExprPtr lo, hi;
      DMX_RETURN_IF_ERROR(ParseAdditive(scope, &lo));
      DMX_RETURN_IF_ERROR(ExpectKw("AND"));
      DMX_RETURN_IF_ERROR(ParseAdditive(scope, &hi));
      *out = Expr::And(Expr::Binary(ExprOp::kGe, left, lo),
                       Expr::Binary(ExprOp::kLe, left, hi));
      return Status::OK();
    }
    if (TakeKw("IN")) {
      DMX_RETURN_IF_ERROR(ExpectSym("("));
      std::vector<ExprPtr> alternatives;
      while (true) {
        ExprPtr option;
        DMX_RETURN_IF_ERROR(ParseAdditive(scope, &option));
        alternatives.push_back(Expr::Binary(ExprOp::kEq, left, option));
        if (TakeSym(",")) continue;
        DMX_RETURN_IF_ERROR(ExpectSym(")"));
        break;
      }
      ExprPtr any = alternatives[0];
      for (size_t i = 1; i < alternatives.size(); ++i) {
        any = Expr::Or(any, alternatives[i]);
      }
      *out = any;
      return Status::OK();
    }
    struct {
      const char* sym;
      ExprOp op;
    } kOps[] = {{"<=", ExprOp::kLe}, {">=", ExprOp::kGe},
                {"<>", ExprOp::kNe}, {"=", ExprOp::kEq},
                {"<", ExprOp::kLt},  {">", ExprOp::kGt}};
    for (const auto& candidate : kOps) {
      if (TakeSym(candidate.sym)) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParseAdditive(scope, &right));
        *out = Expr::Binary(candidate.op, left, right);
        return Status::OK();
      }
    }
    *out = left;
    return Status::OK();
  }

  Status ParseAdditive(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseMultiplicative(scope, &left));
    while (true) {
      if (TakeSym("+")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParseMultiplicative(scope, &right));
        left = Expr::Binary(ExprOp::kAdd, left, right);
      } else if (TakeSym("-")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParseMultiplicative(scope, &right));
        left = Expr::Binary(ExprOp::kSub, left, right);
      } else {
        break;
      }
    }
    *out = left;
    return Status::OK();
  }

  Status ParseMultiplicative(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParsePrimary(scope, &left));
    while (true) {
      if (TakeSym("*")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParsePrimary(scope, &right));
        left = Expr::Binary(ExprOp::kMul, left, right);
      } else if (TakeSym("/")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParsePrimary(scope, &right));
        left = Expr::Binary(ExprOp::kDiv, left, right);
      } else {
        break;
      }
    }
    *out = left;
    return Status::OK();
  }

  Status ParsePrimary(const NameScope& scope, ExprPtr* out) {
    const Token& t = Peek();
    if (t.IsSym("(")) {
      Take();
      DMX_RETURN_IF_ERROR(ParseExpr(scope, out));
      return ExpectSym(")");
    }
    if (t.type == TokType::kNumber) {
      std::string text = Take().text;
      if (text.find('.') != std::string::npos) {
        *out = Expr::Const(Value::Double(std::stod(text)));
      } else {
        *out = Expr::Const(Value::Int(std::stoll(text)));
      }
      return Status::OK();
    }
    if (t.type == TokType::kString) {
      *out = Expr::Const(Value::String(Take().text));
      return Status::OK();
    }
    if (t.IsKw("TRUE")) {
      Take();
      *out = Expr::Const(Value::Bool(true));
      return Status::OK();
    }
    if (t.IsKw("FALSE")) {
      Take();
      *out = Expr::Const(Value::Bool(false));
      return Status::OK();
    }
    if (t.IsKw("NULL")) {
      Take();
      *out = Expr::Const(Value::Null());
      return Status::OK();
    }
    if (t.IsSym("?")) {
      Take();
      *out = Expr::Param(next_param_++);
      return Status::OK();
    }
    if (t.type == TokType::kIdent) {
      std::string first = Take().text;
      std::string qualifier, column;
      if (TakeSym(".")) {
        qualifier = first;
        DMX_RETURN_IF_ERROR(ExpectIdent(&column));
      } else {
        column = first;
      }
      int index;
      DMX_RETURN_IF_ERROR(scope.Resolve(qualifier, column, &index));
      *out = Expr::Field(index);
      return Status::OK();
    }
    return Status::InvalidArgument("unexpected token '" + t.text + "'");
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int next_param_ = 0;
};

// Parse a literal Value (INSERT tuples).
Status ParseLiteral(Parser* p, Value* out) {
  const Token& t = p->Peek();
  if (t.type == TokType::kNumber) {
    std::string text = p->Take().text;
    if (text.find('.') != std::string::npos) {
      *out = Value::Double(std::stod(text));
    } else {
      *out = Value::Int(std::stoll(text));
    }
    return Status::OK();
  }
  if (t.type == TokType::kString) {
    *out = Value::String(p->Take().text);
    return Status::OK();
  }
  if (t.IsKw("TRUE")) {
    p->Take();
    *out = Value::Bool(true);
    return Status::OK();
  }
  if (t.IsKw("FALSE")) {
    p->Take();
    *out = Value::Bool(false);
    return Status::OK();
  }
  if (t.IsKw("NULL")) {
    p->Take();
    *out = Value::Null();
    return Status::OK();
  }
  return Status::InvalidArgument("expected literal near '" + t.text + "'");
}

std::string Upper(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Friend of Session; implements each statement kind.
class SqlExecutor {
 public:
  SqlExecutor(Session* session, const std::string& sql)
      : session_(session), db_(session->db_), sql_(sql) {}

  Status Run(QueryResult* result) {
    std::vector<Token> tokens;
    DMX_RETURN_IF_ERROR(Lexer(sql_).Tokenize(&tokens));
    parser_ = std::make_unique<Parser>(std::move(tokens));
    Parser& p = *parser_;

    if (p.TakeKw("EXPLAIN")) {
      // EXPLAIN shows the bound plan without running it; EXPLAIN ANALYZE
      // runs the query and reports per-operator row counts and wall time.
      analyze_ = p.TakeKw("ANALYZE");
      explain_ = !analyze_;
      DMX_RETURN_IF_ERROR(p.ExpectKw("SELECT"));
      return Select(result);
    }
    if (p.TakeKw("GRANT")) return GrantStmt(result, /*grant=*/true);
    if (p.TakeKw("REVOKE")) return GrantStmt(result, /*grant=*/false);
    if (p.TakeKw("SET")) {
      if (p.TakeKw("DURABILITY")) {
        bool relaxed;
        if (p.TakeKw("STRICT")) {
          relaxed = false;
        } else if (p.TakeKw("RELAXED")) {
          relaxed = true;
        } else {
          return Status::InvalidArgument(
              "expected STRICT or RELAXED after SET DURABILITY");
        }
        session_->has_durability_override_ = true;
        session_->relaxed_durability_ = relaxed;
        // The open transaction's commit is what the user is about to run:
        // apply the new mode to it as well, not just to future begins.
        if (session_->txn_ != nullptr) {
          session_->txn_->set_relaxed_durability(relaxed);
        }
        result->message =
            std::string("SET DURABILITY ") + (relaxed ? "RELAXED" : "STRICT");
        return Status::OK();
      }
      DMX_RETURN_IF_ERROR(p.ExpectKw("USER"));
      std::string user;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&user));
      session_->set_user(user);
      result->message = "SET USER " + user;
      return Status::OK();
    }
    if (p.TakeKw("CHECKPOINT")) {
      DMX_RETURN_IF_ERROR(db_->Checkpoint());
      result->message = "CHECKPOINT";
      return Status::OK();
    }
    if (p.TakeKw("BACKUP")) return BackupStmt(result);
    if (p.TakeKw("RESTORE")) return RestoreStmt(result);
    if (p.TakeKw("CHECK")) return CheckStmt(result);
    if (p.TakeKw("REPAIR")) return RepairStmt(result);
    if (p.TakeKw("BEGIN")) return Begin(result);
    if (p.TakeKw("COMMIT")) return Commit(result);
    if (p.TakeKw("ROLLBACK")) {
      if (p.TakeKw("TO")) return RollbackTo(result);
      return Rollback(result);
    }
    if (p.TakeKw("SAVEPOINT")) return SavepointStmt(result);
    if (p.TakeKw("CREATE")) {
      if (p.TakeKw("TABLE")) return CreateTable(result);
      if (p.TakeKw("ATTACHMENT")) return CreateAttachmentStmt(result);
      bool unique = p.TakeKw("UNIQUE");
      if (p.TakeKw("INDEX")) return CreateIndex(unique, result);
      return Status::InvalidArgument(
          "expected TABLE, INDEX, or ATTACHMENT after CREATE");
    }
    if (p.TakeKw("ALTER")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("TABLE"));
      return AlterTable(result);
    }
    if (p.TakeKw("DESCRIBE")) return Describe(result);
    if (p.TakeKw("DROP")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("TABLE"));
      return DropTable(result);
    }
    if (p.TakeKw("INSERT")) return Insert(result);
    if (p.TakeKw("SELECT")) return Select(result);
    if (p.TakeKw("UPDATE")) return Update(result);
    if (p.TakeKw("DELETE")) return Delete(result);
    return Status::InvalidArgument("unrecognized statement");
  }

 private:
  // Runs `fn` in the session transaction, or an autocommit one.
  // Begins a transaction as the session user, applying the session's
  // SET DURABILITY override (when set) over the database default.
  Transaction* BeginSessionTxn() {
    Transaction* txn = db_->BeginAs(session_->user());
    if (session_->has_durability_override_) {
      txn->set_relaxed_durability(session_->relaxed_durability_);
    }
    return txn;
  }

  template <typename Fn>
  Status InTxn(Fn&& fn) {
    if (session_->txn_ != nullptr) return fn(session_->txn_);
    Transaction* txn = BeginSessionTxn();
    Status s = fn(txn);
    if (!s.ok()) {
      (void)db_->Abort(txn);  // the statement's failure is what to report
      return s;
    }
    // A failed Commit has already rolled the transaction back and freed it.
    return db_->Commit(txn);
  }

  Status Begin(QueryResult* result) {
    if (session_->txn_ != nullptr) {
      return Status::InvalidArgument("transaction already open");
    }
    session_->txn_ = BeginSessionTxn();
    result->message = "BEGIN";
    return Status::OK();
  }

  Status Commit(QueryResult* result) {
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    Transaction* txn = session_->txn_;
    session_->txn_ = nullptr;
    // A failed Commit has already rolled the transaction back and freed it.
    DMX_RETURN_IF_ERROR(db_->Commit(txn));
    result->message = "COMMIT";
    return Status::OK();
  }

  Status Rollback(QueryResult* result) {
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    Transaction* txn = session_->txn_;
    session_->txn_ = nullptr;
    DMX_RETURN_IF_ERROR(db_->Abort(txn));
    result->message = "ROLLBACK";
    return Status::OK();
  }

  Status SavepointStmt(QueryResult* result) {
    std::string name;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&name));
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    DMX_RETURN_IF_ERROR(db_->Savepoint(session_->txn_, name));
    result->message = "SAVEPOINT " + name;
    return Status::OK();
  }

  Status RollbackTo(QueryResult* result) {
    parser_->TakeKw("SAVEPOINT");
    std::string name;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&name));
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    DMX_RETURN_IF_ERROR(db_->RollbackToSavepoint(session_->txn_, name));
    result->message = "ROLLBACK TO " + name;
    return Status::OK();
  }

  Status GrantStmt(QueryResult* result, bool grant) {
    Parser& p = *parser_;
    uint8_t privileges = 0;
    while (true) {
      if (p.TakeKw("ALL")) {
        privileges |= kAllPrivileges;
      } else if (p.TakeKw("SELECT")) {
        privileges |= static_cast<uint8_t>(Privilege::kSelect);
      } else if (p.TakeKw("INSERT")) {
        privileges |= static_cast<uint8_t>(Privilege::kInsert);
      } else if (p.TakeKw("UPDATE")) {
        privileges |= static_cast<uint8_t>(Privilege::kUpdate);
      } else if (p.TakeKw("DELETE")) {
        privileges |= static_cast<uint8_t>(Privilege::kDelete);
      } else {
        return Status::InvalidArgument("expected privilege name");
      }
      if (!p.TakeSym(",")) break;
    }
    DMX_RETURN_IF_ERROR(p.ExpectKw("ON"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectKw(grant ? "TO" : "FROM"));
    std::string user;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&user));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    if (grant) {
      db_->authorization()->Grant(user, desc->id, privileges);
      result->message = "GRANT";
    } else {
      db_->authorization()->Revoke(user, desc->id, privileges);
      result->message = "REVOKE";
    }
    return Status::OK();
  }

  // CREATE ATTACHMENT ON t USING type [WITH (k = v, ...)] — the generic
  // DDL shape of the paper: a type name plus an attribute/value list
  // validated by the extension itself.
  Status CreateAttachmentStmt(QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("ON"));
    std::string table, at_type;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectKw("USING"));
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&at_type));
    AttrList attrs;
    if (p.TakeKw("WITH")) {
      DMX_RETURN_IF_ERROR(p.ExpectSym("("));
      while (true) {
        std::string k;
        DMX_RETURN_IF_ERROR(p.ExpectIdent(&k));
        DMX_RETURN_IF_ERROR(p.ExpectSym("="));
        const Token& v = p.Peek();
        if (v.type != TokType::kIdent && v.type != TokType::kString &&
            v.type != TokType::kNumber) {
          return Status::InvalidArgument("bad attribute value");
        }
        attrs.Add(k, p.Take().text);
        if (p.TakeSym(",")) continue;
        DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
        break;
      }
    }
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateAttachment(txn, table, at_type, attrs);
    }));
    result->message = "CREATE ATTACHMENT ON " + table;
    return Status::OK();
  }

  // ALTER TABLE t ADD [DEFERRED] CHECK (expr) [NAME ident]
  //           | SET STORAGE sm [WITH (k = v, ...)]
  Status AlterTable(QueryResult* result) {
    Parser& p = *parser_;
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    if (p.TakeKw("SET")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("STORAGE"));
      std::string sm;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&sm));
      AttrList attrs;
      if (p.TakeKw("WITH")) {
        DMX_RETURN_IF_ERROR(p.ExpectSym("("));
        while (true) {
          std::string k;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&k));
          DMX_RETURN_IF_ERROR(p.ExpectSym("="));
          const Token& v = p.Peek();
          if (v.type != TokType::kIdent && v.type != TokType::kString &&
              v.type != TokType::kNumber) {
            return Status::InvalidArgument("bad attribute value");
          }
          attrs.Add(k, p.Take().text);
          if (p.TakeSym(",")) continue;
          DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
          break;
        }
      }
      DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
        return db_->ChangeStorageMethod(txn, table, sm, attrs);
      }));
      result->message = "ALTER TABLE " + table + " SET STORAGE " + sm;
      return Status::OK();
    }
    DMX_RETURN_IF_ERROR(p.ExpectKw("ADD"));
    bool deferred = p.TakeKw("DEFERRED");
    DMX_RETURN_IF_ERROR(p.ExpectKw("CHECK"));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    NameScope scope;
    scope.Add(table, desc->schema, 0);
    DMX_RETURN_IF_ERROR(p.ExpectSym("("));
    ExprPtr predicate;
    DMX_RETURN_IF_ERROR(p.ParseExpr(scope, &predicate));
    DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
    AttrList attrs;
    std::string encoded;
    predicate->EncodeTo(&encoded);
    attrs.Add("predicate", encoded);
    if (p.TakeKw("NAME")) {
      std::string name;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&name));
      attrs.Add("name", name);
    }
    const char* at_type = deferred ? "deferred_check" : "check";
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateAttachment(txn, table, at_type, attrs);
    }));
    result->message = std::string("ALTER TABLE ") + table + " ADD " +
                      (deferred ? "DEFERRED CHECK" : "CHECK");
    return Status::OK();
  }

  // Administrative statements (BACKUP/RESTORE) are superuser-only: they
  // move whole-database state, which per-relation privileges cannot scope.
  Status RequireSuperuser(const char* what) {
    if (!session_->user().empty()) {
      return Status::Constraint("user '" + session_->user() + "' may not " +
                                what + " (superuser only)");
    }
    return Status::OK();
  }

  Status ExpectStringLit(const char* what, std::string* out) {
    if (parser_->Peek().type != TokType::kString) {
      return Status::InvalidArgument(std::string("expected a quoted ") + what +
                                     " near '" + parser_->Peek().text + "'");
    }
    *out = parser_->Take().text;
    return Status::OK();
  }

  // BACKUP TO 'dir': online fuzzy backup (writers keep running).
  Status BackupStmt(QueryResult* result) {
    DMX_RETURN_IF_ERROR(parser_->ExpectKw("TO"));
    std::string dir;
    DMX_RETURN_IF_ERROR(ExpectStringLit("directory", &dir));
    DMX_RETURN_IF_ERROR(RequireSuperuser("BACKUP"));
    BackupResult backup;
    DMX_RETURN_IF_ERROR(db_->Backup(dir, &backup));
    result->message = "BACKUP TO " + dir + ": " +
                      std::to_string(backup.files) + " file(s), " +
                      std::to_string(backup.pages) + " page(s), lsn " +
                      std::to_string(backup.begin_lsn) + " .. " +
                      std::to_string(backup.end_lsn);
    return Status::OK();
  }

  // RESTORE FROM 'backup' INTO 'dir' [ARCHIVE 'dir'] [TO LSN n]:
  // offline point-in-time recovery into a fresh directory.
  Status RestoreStmt(QueryResult* result) {
    DMX_RETURN_IF_ERROR(parser_->ExpectKw("FROM"));
    RestoreOptions opts;
    DMX_RETURN_IF_ERROR(ExpectStringLit("backup directory", &opts.backup_dir));
    DMX_RETURN_IF_ERROR(parser_->ExpectKw("INTO"));
    DMX_RETURN_IF_ERROR(ExpectStringLit("target directory", &opts.target_dir));
    if (parser_->TakeKw("ARCHIVE")) {
      DMX_RETURN_IF_ERROR(
          ExpectStringLit("archive directory", &opts.archive_dir));
    }
    if (parser_->TakeKw("TO")) {
      DMX_RETURN_IF_ERROR(parser_->ExpectKw("LSN"));
      if (parser_->Peek().type != TokType::kNumber) {
        return Status::InvalidArgument("expected an LSN near '" +
                                       parser_->Peek().text + "'");
      }
      const std::string text = parser_->Take().text;
      if (text.find('.') != std::string::npos) {
        return Status::InvalidArgument("LSN must be an integer");
      }
      opts.target_lsn = static_cast<Lsn>(std::stoull(text));
    }
    DMX_RETURN_IF_ERROR(RequireSuperuser("RESTORE"));
    opts.env = db_->env();
    Lsn replayed = 0;
    DMX_RETURN_IF_ERROR(Database::Restore(opts, &replayed));
    result->message = "RESTORE FROM " + opts.backup_dir + " INTO " +
                      opts.target_dir + ": replayed through lsn " +
                      std::to_string(replayed);
    return Status::OK();
  }

  // DESCRIBE t: render the extensible relation descriptor.
  Status Describe(QueryResult* result) {
    std::string table;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&table));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    result->columns = {"property", "value"};
    auto add = [&](const std::string& k, const std::string& v) {
      result->rows.push_back({Value::String(k), Value::String(v)});
    };
    add("relation", desc->name + " (id " + std::to_string(desc->id) +
                        ", version " + std::to_string(desc->version) + ")");
    add("storage method",
        std::string(db_->registry()->sm_ops(desc->sm_id).name) + " (id " +
            std::to_string(desc->sm_id) + ", descriptor " +
            std::to_string(desc->sm_desc.size()) + " bytes)");
    for (size_t i = 0; i < desc->schema.num_columns(); ++i) {
      const Column& col = desc->schema.column(i);
      add("column " + std::to_string(i),
          col.name + " " + TypeName(col.type) +
              (col.nullable ? "" : " NOT NULL"));
    }
    for (AtId at = 0; at < db_->registry()->num_attachment_types(); ++at) {
      if (!desc->HasAttachment(at)) continue;
      const AtOps& ops = db_->registry()->at_ops(at);
      std::string detail =
          "descriptor field " + std::to_string(at) + ", " +
          std::to_string(ops.instance_count(Slice(desc->at_desc[at]))) +
          " instance(s)";
      add(std::string("attachment ") + ops.name, detail);
    }
    if (desc->sm_quarantined) {
      add("quarantine", "storage: " + desc->sm_quarantine_reason);
    }
    for (const RelationDescriptor::QuarantineEntry& q : desc->quarantined) {
      add("quarantine",
          std::string(db_->registry()->at_ops(q.at).name) + "#" +
              std::to_string(q.instance) + ": " + q.reason);
    }
    if (db_->degraded()) {
      add("db.degraded",
          "read-only (" + db_->error_handler()->degraded_reason() +
              "); background recovery in progress");
    }
    const uint64_t unflushed = db_->unflushed_commits();
    if (unflushed > 0) {
      add("db.unflushed_commits",
          std::to_string(unflushed) +
              " relaxed commit(s) acknowledged, not yet durable");
    }
    if (BufferPool* pool = db_->buffer_pool()) {
      const BufferPoolStats& bp = pool->stats();
      add("db.bufferpool",
          std::to_string(bp.hits) + " hits, " + std::to_string(bp.misses) +
              " misses, " + std::to_string(bp.flushes) + " writebacks, " +
              std::to_string(bp.io_waits) + " io_waits");
    }
    if (db_->last_backup_lsn() > 0) {
      add("db.last_backup_lsn", std::to_string(db_->last_backup_lsn()));
    }
    if (db_->archiver() != nullptr) {
      const uint64_t lag = db_->archive_lag();
      add("db.archive_lag",
          std::to_string(lag) + " sealed segment(s) awaiting archive" +
              (lag > 0 ? " (retained until archived)" : ""));
    }
    return Status::OK();
  }

  // CHECK t: run every registered verify op and report findings.
  Status CheckStmt(QueryResult* result) {
    std::string table;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&table));
    CheckResult check;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CheckRelation(txn, table, &check);
    }));
    result->columns = {"component", "status", "detail"};
    auto add = [&](const std::string& c, const std::string& s,
                   const std::string& d) {
      result->rows.push_back(
          {Value::String(c), Value::String(s), Value::String(d)});
    };
    for (const CheckFinding& f : check.findings) {
      add(f.component, "damaged", f.detail);
    }
    for (const std::string& q : check.quarantined) {
      add(q, "quarantined", "access path disabled until REPAIR");
    }
    for (const std::string& c : check.cleared) {
      add(c, "cleared", "verified clean; quarantine lifted");
    }
    result->message =
        check.clean
            ? "CHECK " + table + ": clean (" + std::to_string(check.items) +
                  " items verified)"
            : "CHECK " + table + ": " +
                  std::to_string(check.findings.size()) + " finding(s)";
    return Status::OK();
  }

  // REPAIR t: rebuild quarantined attachment instances from the base
  // relation and lift their quarantine on success.
  Status RepairStmt(QueryResult* result) {
    std::string table;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&table));
    RepairResult rep;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->RepairRelation(txn, table, &rep);
    }));
    result->columns = {"component", "status"};
    for (const std::string& r : rep.repaired) {
      result->rows.push_back({Value::String(r), Value::String("repaired")});
    }
    for (const std::string& u : rep.unrepaired) {
      result->rows.push_back({Value::String(u), Value::String("unrepaired")});
    }
    result->message =
        rep.unrepaired.empty()
            ? "REPAIR " + table + ": " + std::to_string(rep.repaired.size()) +
                  " component(s) repaired"
            : "REPAIR " + table + ": " +
                  std::to_string(rep.unrepaired.size()) +
                  " component(s) still damaged";
    return Status::OK();
  }

  Status CreateTable(QueryResult* result) {
    Parser& p = *parser_;
    std::string name;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&name));
    DMX_RETURN_IF_ERROR(p.ExpectSym("("));
    std::vector<Column> columns;
    while (true) {
      Column col;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&col.name));
      std::string type;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&type));
      std::string ut = Upper(type);
      if (ut == "INT" || ut == "INTEGER" || ut == "BIGINT") {
        col.type = TypeId::kInt64;
      } else if (ut == "DOUBLE" || ut == "FLOAT" || ut == "REAL") {
        col.type = TypeId::kDouble;
      } else if (ut == "STRING" || ut == "TEXT" || ut == "VARCHAR") {
        col.type = TypeId::kString;
        // Tolerate VARCHAR(n).
        if (p.TakeSym("(")) {
          p.Take();
          DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
        }
      } else if (ut == "BOOL" || ut == "BOOLEAN") {
        col.type = TypeId::kBool;
      } else {
        return Status::InvalidArgument("unknown type '" + type + "'");
      }
      if (p.TakeKw("NOT")) {
        DMX_RETURN_IF_ERROR(p.ExpectKw("NULL"));
        col.nullable = false;
      }
      columns.push_back(std::move(col));
      if (p.TakeSym(",")) continue;
      DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
      break;
    }
    std::string sm = "heap";
    AttrList attrs;
    if (p.TakeKw("USING")) {
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&sm));
      if (p.TakeKw("WITH")) {
        DMX_RETURN_IF_ERROR(p.ExpectSym("("));
        while (true) {
          std::string k;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&k));
          DMX_RETURN_IF_ERROR(p.ExpectSym("="));
          const Token& v = p.Peek();
          if (v.type != TokType::kIdent && v.type != TokType::kString &&
              v.type != TokType::kNumber) {
            return Status::InvalidArgument("bad attribute value");
          }
          attrs.Add(k, p.Take().text);
          if (p.TakeSym(",")) continue;
          DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
          break;
        }
      }
    }
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateRelation(txn, name, Schema(std::move(columns)), sm,
                                 attrs);
    }));
    result->message = "CREATE TABLE " + name;
    return Status::OK();
  }

  Status DropTable(QueryResult* result) {
    std::string name;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&name));
    DMX_RETURN_IF_ERROR(InTxn(
        [&](Transaction* txn) { return db_->DropRelation(txn, name); }));
    result->message = "DROP TABLE " + name;
    return Status::OK();
  }

  Status CreateIndex(bool unique, QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("ON"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectSym("("));
    std::string fields;
    while (true) {
      std::string col;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&col));
      if (!fields.empty()) fields += ",";
      fields += col;
      if (p.TakeSym(",")) continue;
      DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
      break;
    }
    std::string at_type = "btree_index";
    if (p.TakeKw("USING")) {
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&at_type));
    }
    AttrList attrs;
    attrs.Add("fields", fields);
    if (unique) attrs.Add("unique", "1");
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateAttachment(txn, table, at_type, attrs);
    }));
    result->message = "CREATE INDEX ON " + table;
    return Status::OK();
  }

  Status Insert(QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("INTO"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectKw("VALUES"));
    std::vector<std::vector<Value>> tuples;
    while (true) {
      DMX_RETURN_IF_ERROR(p.ExpectSym("("));
      std::vector<Value> tuple;
      while (true) {
        Value v;
        DMX_RETURN_IF_ERROR(ParseLiteral(&p, &v));
        tuple.push_back(std::move(v));
        if (p.TakeSym(",")) continue;
        DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
        break;
      }
      tuples.push_back(std::move(tuple));
      if (!p.TakeSym(",")) break;
    }
    int64_t inserted = 0;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) -> Status {
      for (const auto& tuple : tuples) {
        DMX_RETURN_IF_ERROR(db_->Insert(txn, table, tuple));
        ++inserted;
      }
      return Status::OK();
    }));
    result->affected = inserted;
    result->message = "INSERT " + std::to_string(inserted);
    return Status::OK();
  }

  // SELECT --------------------------------------------------------------

  struct SelectItem {
    bool star = false;
    AggKind agg = AggKind::kCount;
    bool is_agg = false;
    std::string qualifier, column;
    std::string label;
  };

  Status Select(QueryResult* result) {
    Parser& p = *parser_;
    std::vector<SelectItem> items;
    DMX_RETURN_IF_ERROR(ParseSelectList(&items));
    DMX_RETURN_IF_ERROR(p.ExpectKw("FROM"));
    std::string t1, t2;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&t1));
    bool join = p.TakeSym(",");
    if (join) DMX_RETURN_IF_ERROR(p.ExpectIdent(&t2));

    const RelationDescriptor *d1, *d2 = nullptr;
    DMX_RETURN_IF_ERROR(db_->FindRelation(t1, &d1));
    NameScope scope;
    scope.Add(t1, d1->schema, 0);
    if (join) {
      DMX_RETURN_IF_ERROR(db_->FindRelation(t2, &d2));
      scope.Add(t2, d2->schema, static_cast<int>(d1->schema.num_columns()));
    }

    ExprPtr where;
    if (p.TakeKw("WHERE")) {
      DMX_RETURN_IF_ERROR(p.ParseExpr(scope, &where));
    }
    int order_col = -1;
    bool order_desc = false;
    if (p.TakeKw("ORDER")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("BY"));
      std::string first, column, qualifier;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&first));
      if (p.TakeSym(".")) {
        qualifier = first;
        DMX_RETURN_IF_ERROR(p.ExpectIdent(&column));
      } else {
        column = first;
      }
      DMX_RETURN_IF_ERROR(scope.Resolve(qualifier, column, &order_col));
      if (p.TakeKw("DESC")) {
        order_desc = true;
      } else {
        p.TakeKw("ASC");
      }
    }
    int64_t limit = -1;
    if (p.TakeKw("LIMIT")) {
      if (p.Peek().type != TokType::kNumber) {
        return Status::InvalidArgument("LIMIT expects a number");
      }
      limit = std::stoll(p.Take().text);
    }
    if (!p.AtEnd()) {
      return Status::InvalidArgument("trailing tokens near '" +
                                     p.Peek().text + "'");
    }

    // Which record fields does this query read? (projection + predicate +
    // order column). A '*' or COUNT(*) needs everything -> no list.
    std::vector<int> needed;
    bool needed_known = true;
    for (const SelectItem& item : items) {
      if (item.star && !item.is_agg) {
        needed_known = false;
        break;
      }
      if (item.star) continue;  // COUNT(*): no field read
      int index;
      DMX_RETURN_IF_ERROR(scope.Resolve(item.qualifier, item.column, &index));
      needed.push_back(index);
    }
    if (order_col >= 0) needed.push_back(order_col);

    return InTxn([&](Transaction* txn) -> Status {
      std::unique_ptr<RowSource> source;
      std::shared_ptr<const BoundPlan> plan_holder;
      if (!join) {
        DMX_RETURN_IF_ERROR(BuildSingle(txn, t1, where,
                                        needed_known ? &needed : nullptr,
                                        &plan_holder, &source));
      } else {
        DMX_RETURN_IF_ERROR(
            BuildJoin(txn, d1, d2, where, &plan_holder, &source));
      }
      if (explain_) {
        result->columns = {"access_path", "est_cost", "selectivity"};
        const AccessPlan& access = plan_holder->access;
        result->rows.push_back(
            {Value::String(access.DebugString(db_->registry())),
             Value::Double(access.cost.total()),
             Value::Double(access.cost.selectivity)});
        if (join) {
          result->rows.push_back(
              {Value::String("join method: " + join_method_), Value::Null(),
               Value::Null()});
        }
        if (access.parallel_workers >= 2) {
          result->rows.push_back(
              {Value::String("parallel workers: " +
                             std::to_string(access.parallel_workers)),
               Value::Null(), Value::Null()});
        }
        // Surface degraded plans: quarantined access paths were skipped
        // during enumeration, so the chosen path routes around damage.
        for (const RelationDescriptor* d : {d1, d2}) {
          if (d == nullptr) continue;
          for (const RelationDescriptor::QuarantineEntry& q : d->quarantined) {
            result->rows.push_back(
                {Value::String(
                     "quarantined (not considered): " +
                     std::string(db_->registry()->at_ops(q.at).name) + "#" +
                     std::to_string(q.instance) + " on " + d->name),
                 Value::Null(), Value::Null()});
          }
        }
        return Status::OK();
      }
      if (analyze_) {
        // Run the query to completion, then report the operator tree
        // (root first, children indented) instead of the result rows.
        QueryResult scratch;
        DMX_RETURN_IF_ERROR(Materialize(std::move(source), items, scope, d1,
                                        d2, order_col, order_desc, limit,
                                        &scratch));
        profile_.FinalizeRowsIn();
        result->columns = {"operator", "rows_in", "rows_out", "time_ms"};
        if (!profile_.ops.empty()) {
          EmitProfileNode(profile_.ops.size() - 1, 0, result);
        }
        result->affected = scratch.affected;
        return Status::OK();
      }
      return Materialize(std::move(source), items, scope, d1, d2,
                         order_col, order_desc, limit, result);
    });
  }

  Status ParseSelectList(std::vector<SelectItem>* items) {
    Parser& p = *parser_;
    if (p.TakeSym("*")) {
      SelectItem star_item;
      star_item.star = true;
      items->push_back(std::move(star_item));
      return Status::OK();
    }
    while (true) {
      SelectItem item;
      const Token& t = p.Peek();
      auto agg_of = [](const Token& tok, AggKind* kind) {
        if (tok.IsKw("COUNT")) *kind = AggKind::kCount;
        else if (tok.IsKw("SUM")) *kind = AggKind::kSum;
        else if (tok.IsKw("AVG")) *kind = AggKind::kAvg;
        else if (tok.IsKw("MIN")) *kind = AggKind::kMin;
        else if (tok.IsKw("MAX")) *kind = AggKind::kMax;
        else return false;
        return true;
      };
      AggKind kind;
      if (t.type == TokType::kIdent && p.Peek(1).IsSym("(") &&
          agg_of(t, &kind)) {
        item.is_agg = true;
        item.agg = kind;
        item.label = Upper(t.text);
        p.Take();
        p.Take();  // '('
        if (kind == AggKind::kCount && p.TakeSym("*")) {
          item.star = true;
        } else {
          std::string first;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&first));
          if (p.TakeSym(".")) {
            item.qualifier = first;
            DMX_RETURN_IF_ERROR(p.ExpectIdent(&item.column));
          } else {
            item.column = first;
          }
          item.label += "(" + item.column + ")";
        }
        DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
      } else {
        std::string first;
        DMX_RETURN_IF_ERROR(p.ExpectIdent(&first));
        if (p.TakeSym(".")) {
          item.qualifier = first;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&item.column));
        } else {
          item.column = first;
        }
        item.label = item.column;
      }
      items->push_back(std::move(item));
      if (!p.TakeSym(",")) break;
    }
    return Status::OK();
  }

  Status BuildSingle(Transaction* txn, const std::string& table,
                     const ExprPtr& where,
                     const std::vector<int>* needed_fields,
                     std::shared_ptr<const BoundPlan>* plan_holder,
                     std::unique_ptr<RowSource>* source) {
    DMX_RETURN_IF_ERROR(session_->plans_.GetAccessPlan(
        txn, table, where, /*key=*/sql_, plan_holder, needed_fields));
    const AccessPlan& access = (*plan_holder)->access;
    if (access.parallel_workers >= 2) {
      // Exchange operator over the storage method's partitioned scan; the
      // filter runs below the exchange inside each worker's scan.
      auto psrc = std::make_unique<ParallelScanSource>(
          db_, txn, plan_holder->get(), access.parallel_workers);
      parallel_src_ = psrc.get();
      std::vector<size_t> worker_nodes;
      if (analyze_) {
        for (int i = 0; i < access.parallel_workers; ++i) {
          worker_nodes.push_back(
              profile_.Add("worker " + std::to_string(i)));
        }
        psrc->EnableProfile(&profile_, worker_nodes);
      }
      *source = std::move(psrc);
      *source = Profiled(
          std::move(*source),
          "parallel_scan(" + table + "): " +
              access.DebugString(db_->registry()) + " [" +
              std::to_string(access.parallel_workers) + " workers]",
          std::move(worker_nodes));
      return Status::OK();
    }
    *source = std::make_unique<AccessSource>(db_, txn, plan_holder->get());
    *source = Profiled(
        std::move(*source),
        "access(" + table + "): " +
            (*plan_holder)->access.DebugString(db_->registry()));
    return Status::OK();
  }

  // Find an equality conjunct t1.col = t2.col between the two relations.
  static bool FindEquiJoin(const ExprPtr& where, size_t left_width,
                           int* left_col, int* right_col,
                           std::vector<ExprPtr>* rest) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(where, &conjuncts);
    bool found = false;
    for (const ExprPtr& c : conjuncts) {
      if (!found && c->op() == ExprOp::kEq && c->children().size() == 2 &&
          c->child(0)->op() == ExprOp::kField &&
          c->child(1)->op() == ExprOp::kField) {
        int a = c->child(0)->field_index();
        int b = c->child(1)->field_index();
        int lw = static_cast<int>(left_width);
        if (a < lw && b >= lw) {
          *left_col = a;
          *right_col = b - lw;
          found = true;
          continue;
        }
        if (b < lw && a >= lw) {
          *left_col = b;
          *right_col = a - lw;
          found = true;
          continue;
        }
      }
      rest->push_back(c);
    }
    return found;
  }

  // Pick an index access path on `desc` keyed by exactly `field`.
  bool FindJoinIndexPath(Transaction* txn, const RelationDescriptor* desc,
                         int field, AccessPathId* out) {
    const ExtensionRegistry* registry = db_->registry();
    for (const char* name : {"hash_index", "btree_index"}) {
      int at = registry->FindAttachmentType(name);
      if (at < 0 || !desc->HasAttachment(static_cast<AtId>(at))) continue;
      const AtOps& ops = registry->at_ops(static_cast<AtId>(at));
      if (ops.list_instances == nullptr || ops.cost == nullptr) continue;
      std::vector<uint32_t> instances;
      if (!ops.list_instances(Slice(desc->at_desc[at]), &instances).ok()) {
        continue;
      }
      // Probe relevance with a synthetic equality predicate on the field.
      std::vector<ExprPtr> probe = {
          Expr::Cmp(ExprOp::kEq, field, Value::Int(0))};
      for (uint32_t inst : instances) {
        AccessCost cost;
        AccessPathId path = AccessPathId::Attachment(static_cast<AtId>(at),
                                                     inst);
        if (db_->EstimateCost(txn, desc, path, probe, &cost).ok() &&
            cost.usable) {
          *out = path;
          return true;
        }
      }
    }
    return false;
  }

  Status BuildJoin(Transaction* txn, const RelationDescriptor* d1,
                   const RelationDescriptor* d2, const ExprPtr& where,
                   std::shared_ptr<const BoundPlan>* plan_holder,
                   std::unique_ptr<RowSource>* source) {
    int left_col = -1, right_col = -1;
    std::vector<ExprPtr> rest;
    bool equi = FindEquiJoin(where, d1->schema.num_columns(), &left_col,
                             &right_col, &rest);

    // Outer side: full scan of d1 with its single-relation conjuncts...
    // (kept simple: outer scans everything; residual applies post-join).
    auto outer_plan = std::make_shared<BoundPlan>();
    outer_plan->relation = *d1;
    outer_plan->dependencies = {{d1->id, d1->version}};
    DMX_RETURN_IF_ERROR(
        PlanAccess(db_, txn, d1, nullptr, &outer_plan->access));
    *plan_holder = outer_plan;
    std::unique_ptr<RowSource> outer =
        std::make_unique<AccessSource>(db_, txn, outer_plan.get());
    outer = Profiled(std::move(outer),
                     "access(" + d1->name + "): " +
                         outer_plan->access.DebugString(db_->registry()));
    const size_t outer_idx = top_idx_;

    if (equi) {
      AccessPathId inner_path;
      if (FindJoinIndexPath(txn, d2, right_col, &inner_path)) {
        join_method_ = std::string("index nested loop (inner ") +
                       db_->registry()->at_ops(inner_path.at_id()).name +
                       "#" + std::to_string(inner_path.instance) + ")";
        std::unique_ptr<RowSource> join = std::make_unique<IndexJoinSource>(
            db_, txn, std::move(outer), d2, inner_path,
            std::vector<int>{left_col});
        join = Profiled(std::move(join),
                        "index_join(" + d2->name + "): " + join_method_,
                        {outer_idx});
        ExprPtr residual = JoinConjuncts(rest);
        if (residual != nullptr) {
          const size_t join_idx = top_idx_;
          *source = std::make_unique<FilterSource>(db_, std::move(join),
                                                   residual);
          *source = Profiled(std::move(*source), "filter(residual)",
                             {join_idx});
        } else {
          *source = std::move(join);
        }
        return Status::OK();
      }
    }

    // Plain nested loop with the whole predicate on combined rows.
    join_method_ = "nested loop (inner rescanned per outer row)";
    Database* db = db_;
    const RelationDescriptor* inner_desc = d2;
    auto inner_plan = std::make_shared<BoundPlan>();
    inner_plan->relation = *d2;
    inner_plan->dependencies = {{d2->id, d2->version}};
    DMX_RETURN_IF_ERROR(
        PlanAccess(db_, txn, d2, nullptr, &inner_plan->access));
    // Every rescan of the inner accumulates into one profile node, so the
    // paper's call-amplification shows up as rows_out >> the table size.
    size_t inner_idx = 0;
    if (analyze_) {
      inner_idx = profile_.Add(
          "access(" + d2->name + "): " +
          inner_plan->access.DebugString(db_->registry()) +
          " [rescanned per outer row]");
    }
    const bool analyze = analyze_;
    PlanProfile* profile = &profile_;
    auto factory = [db, txn, inner_plan, analyze, profile, inner_idx](
                       std::unique_ptr<RowSource>* out) -> Status {
      *out = std::make_unique<AccessSource>(db, txn, inner_plan.get());
      if (analyze) {
        *out = std::make_unique<ProfiledSource>(std::move(*out), profile,
                                                inner_idx);
      }
      return Status::OK();
    };
    (void)inner_desc;
    *source = std::make_unique<NestedLoopJoinSource>(
        db_, std::move(outer), std::move(factory), where);
    *source = Profiled(std::move(*source), "nested_loop_join",
                       {outer_idx, inner_idx});
    return Status::OK();
  }

  Status Materialize(std::unique_ptr<RowSource> source,
                     const std::vector<SelectItem>& items,
                     const NameScope& scope, const RelationDescriptor* d1,
                     const RelationDescriptor* d2, int order_col,
                     bool order_desc, int64_t limit, QueryResult* result) {
    // Aggregates: single aggregate item supported.
    if (items.size() == 1 && items[0].is_agg) {
      int column = 0;
      if (!items[0].star) {
        DMX_RETURN_IF_ERROR(
            scope.Resolve(items[0].qualifier, items[0].column, &column));
      }
      std::unique_ptr<RowSource> agg;
      if (parallel_src_ != nullptr && d2 == nullptr) {
        // Push the aggregation below the exchange: workers pre-aggregate
        // their partitions, the merge combines one partial row each.
        parallel_src_->EnablePartialAggregate(items[0].agg, column);
        agg = std::make_unique<ParallelAggregateMergeSource>(
            std::move(source), items[0].agg);
        agg = Profiled(std::move(agg),
                       "aggregate(" + items[0].label + ") [partial merge]",
                       {top_idx_});
      } else {
        agg = std::make_unique<AggregateSource>(std::move(source),
                                                items[0].agg, column);
        agg = Profiled(std::move(agg), "aggregate(" + items[0].label + ")",
                       {top_idx_});
      }
      std::vector<Row> rows;
      DMX_RETURN_IF_ERROR(CollectRows(agg.get(), &rows));
      result->columns = {items[0].label};
      for (Row& row : rows) result->rows.push_back(std::move(row.values));
      return Status::OK();
    }
    (void)order_desc;
    // Column projection (or *).
    std::vector<int> projection;
    if (items.size() == 1 && items[0].star) {
      for (const auto& col : d1->schema.columns()) {
        result->columns.push_back(col.name);
      }
      if (d2 != nullptr) {
        for (const auto& col : d2->schema.columns()) {
          result->columns.push_back(col.name);
        }
      }
      for (size_t i = 0; i < result->columns.size(); ++i) {
        projection.push_back(static_cast<int>(i));
      }
    } else {
      for (const SelectItem& item : items) {
        if (item.is_agg || item.star) {
          return Status::InvalidArgument(
              "aggregates cannot mix with plain columns");
        }
        int index;
        DMX_RETURN_IF_ERROR(
            scope.Resolve(item.qualifier, item.column, &index));
        projection.push_back(index);
        result->columns.push_back(item.label);
      }
    }
    // ORDER BY sorts on the *pre-projection* column index, so sort the
    // child rows before projecting.
    std::unique_ptr<RowSource> ordered;
    if (order_col >= 0) {
      std::vector<Row> all;
      DMX_RETURN_IF_ERROR(CollectRows(source.get(), &all));
      std::stable_sort(all.begin(), all.end(),
                       [order_col, order_desc](const Row& a, const Row& b) {
                         int c = a.values[static_cast<size_t>(order_col)]
                                     .Compare(b.values[static_cast<size_t>(
                                         order_col)]);
                         return order_desc ? c > 0 : c < 0;
                       });
      class VectorSource : public RowSource {
       public:
        explicit VectorSource(std::vector<Row> rows)
            : rows_(std::move(rows)) {}
        Status Next(Row* row) override {
          if (pos_ >= rows_.size()) return Status::NotFound("end");
          *row = std::move(rows_[pos_++]);
          return Status::OK();
        }

       private:
        std::vector<Row> rows_;
        size_t pos_ = 0;
      };
      ordered = std::make_unique<VectorSource>(std::move(all));
      ordered = Profiled(std::move(ordered),
                         "sort(column " + std::to_string(order_col) + ")",
                         {top_idx_});
    } else {
      ordered = std::move(source);
    }
    std::unique_ptr<RowSource> project =
        std::make_unique<ProjectSource>(std::move(ordered), projection);
    project = Profiled(std::move(project), "project", {top_idx_});
    std::vector<Row> rows;
    Row row;
    while (limit < 0 ||
           static_cast<int64_t>(rows.size()) < limit) {
      Status s = project->Next(&row);
      if (s.IsNotFound()) break;
      DMX_RETURN_IF_ERROR(s);
      rows.push_back(std::move(row));
    }
    for (Row& r : rows) result->rows.push_back(std::move(r.values));
    result->affected = static_cast<int64_t>(result->rows.size());
    return Status::OK();
  }

  // UPDATE / DELETE -------------------------------------------------------

  Status Update(QueryResult* result) {
    Parser& p = *parser_;
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    NameScope scope;
    scope.Add(table, desc->schema, 0);

    DMX_RETURN_IF_ERROR(p.ExpectKw("SET"));
    std::vector<std::pair<int, ExprPtr>> sets;
    while (true) {
      std::string col;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&col));
      int index;
      DMX_RETURN_IF_ERROR(scope.Resolve("", col, &index));
      DMX_RETURN_IF_ERROR(p.ExpectSym("="));
      ExprPtr value;
      DMX_RETURN_IF_ERROR(p.ParseExpr(scope, &value));
      sets.emplace_back(index, std::move(value));
      if (!p.TakeSym(",")) break;
    }
    ExprPtr where;
    if (p.TakeKw("WHERE")) DMX_RETURN_IF_ERROR(p.ParseExpr(scope, &where));

    int64_t updated = 0;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) -> Status {
      // Collect target keys first (avoid scanning while mutating).
      std::vector<std::pair<std::string, std::vector<Value>>> targets;
      {
        AccessPlan access;
        DMX_RETURN_IF_ERROR(PlanAccess(db_, txn, desc, where, &access));
        BoundPlan plan;
        plan.relation = *desc;
        plan.access = access;
        AccessSource source(db_, txn, &plan);
        Row row;
        while (true) {
          Status s = source.Next(&row);
          if (s.IsNotFound()) break;
          DMX_RETURN_IF_ERROR(s);
          targets.emplace_back(row.record_key, row.values);
        }
      }
      for (auto& [key, values] : targets) {
        std::vector<Value> new_values = values;
        for (const auto& [index, expr] : sets) {
          Value v;
          DMX_RETURN_IF_ERROR(db_->evaluator()->Eval(*expr, values, &v));
          new_values[static_cast<size_t>(index)] = std::move(v);
        }
        DMX_RETURN_IF_ERROR(
            db_->Update(txn, table, Slice(key), new_values));
        ++updated;
      }
      return Status::OK();
    }));
    result->affected = updated;
    result->message = "UPDATE " + std::to_string(updated);
    return Status::OK();
  }

  Status Delete(QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("FROM"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    NameScope scope;
    scope.Add(table, desc->schema, 0);
    ExprPtr where;
    if (p.TakeKw("WHERE")) DMX_RETURN_IF_ERROR(p.ParseExpr(scope, &where));

    int64_t deleted = 0;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) -> Status {
      std::vector<std::string> keys;
      {
        AccessPlan access;
        DMX_RETURN_IF_ERROR(PlanAccess(db_, txn, desc, where, &access));
        BoundPlan plan;
        plan.relation = *desc;
        plan.access = access;
        AccessSource source(db_, txn, &plan);
        Row row;
        while (true) {
          Status s = source.Next(&row);
          if (s.IsNotFound()) break;
          DMX_RETURN_IF_ERROR(s);
          keys.push_back(row.record_key);
        }
      }
      for (const std::string& key : keys) {
        Status s = db_->Delete(txn, table, Slice(key));
        if (s.IsNotFound()) continue;  // cascaded away already
        DMX_RETURN_IF_ERROR(s);
        ++deleted;
      }
      return Status::OK();
    }));
    result->affected = deleted;
    result->message = "DELETE " + std::to_string(deleted);
    return Status::OK();
  }

  // Wrap `src` in a profiling recorder under EXPLAIN ANALYZE; `children`
  // are the profile indices of the operators `src` pulls from. Updates
  // top_idx_ to the new node so the caller can chain wrappers upward.
  std::unique_ptr<RowSource> Profiled(std::unique_ptr<RowSource> src,
                                      std::string name,
                                      std::vector<size_t> children = {}) {
    if (!analyze_) return src;
    top_idx_ = profile_.Add(std::move(name), std::move(children));
    return std::make_unique<ProfiledSource>(std::move(src), &profile_,
                                            top_idx_);
  }

  void EmitProfileNode(size_t idx, int depth, QueryResult* result) {
    const OperatorStats& op = profile_.ops[idx];
    result->rows.push_back(
        {Value::String(std::string(static_cast<size_t>(2 * depth), ' ') +
                       op.name),
         Value::Int(static_cast<int64_t>(op.rows_in)),
         Value::Int(static_cast<int64_t>(op.rows_out)),
         Value::Double(static_cast<double>(op.wall_ns) / 1e6)});
    for (size_t child : op.children) {
      EmitProfileNode(child, depth + 1, result);
    }
  }

  Session* session_;
  Database* db_;
  const std::string& sql_;
  std::unique_ptr<Parser> parser_;
  bool explain_ = false;
  bool analyze_ = false;
  PlanProfile profile_;
  size_t top_idx_ = 0;  // profile index of the current plan-tree root
  std::string join_method_;
  /// Set by BuildSingle when the plan runs a parallel scan, so Materialize
  /// can push a single aggregate below the exchange. Joins never set it.
  ParallelScanSource* parallel_src_ = nullptr;
};

Session::~Session() {
  // Destructor cleanup; errors are unreportable here.
  if (txn_ != nullptr) (void)db_->Abort(txn_);
}

Status Session::Execute(const std::string& sql, QueryResult* result) {
  return Execute(sql, {}, result);
}

Status Session::Execute(const std::string& sql,
                        const std::vector<Value>& params,
                        QueryResult* result) {
  *result = QueryResult();
  db_->evaluator()->SetParams(params);
  SqlExecutor executor(this, sql);
  Status s = executor.Run(result);
  db_->evaluator()->SetParams({});
  return s;
}

std::string QueryResult::ToString() const {
  std::string out;
  if (!columns.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i) out += " | ";
      out += columns[i];
    }
    out += "\n";
    out += std::string(out.size() > 1 ? out.size() - 1 : 0, '-');
    out += "\n";
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  if (!message.empty()) out += message + "\n";
  return out;
}

}  // namespace dmx
