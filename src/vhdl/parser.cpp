#include "vhdl/parser.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "vhdl/lexer.hpp"

namespace amdrel::vhdl {

const Entity* DesignFile::find_entity(const std::string& name) const {
  for (const auto& e : entities) {
    if (iequals(e.name, name)) return &e;
  }
  return nullptr;
}

const Architecture* DesignFile::find_architecture(
    const std::string& entity) const {
  for (const auto& a : architectures) {
    if (iequals(a.entity_name, entity)) return &a;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string file)
      : tokens_(std::move(tokens)), file_(std::move(file)) {}

  DesignFile parse_design_file() {
    DesignFile df;
    for (;;) {
      skip_context_clauses();
      if (at_eof()) break;
      if (peek_kw("entity")) {
        df.entities.push_back(parse_entity());
      } else if (peek_kw("architecture")) {
        df.architectures.push_back(parse_architecture());
      } else {
        fail("expected 'entity' or 'architecture'");
      }
    }
    return df;
  }

 private:
  // ------------------------------------------------------------- helpers --
  const Token& cur() const { return tokens_[pos_]; }
  const Token& next(int off = 1) const {
    std::size_t p = pos_ + static_cast<std::size_t>(off);
    return p < tokens_.size() ? tokens_[p] : tokens_.back();
  }
  bool at_eof() const { return cur().kind == TokenKind::kEof; }
  void advance() {
    if (!at_eof()) ++pos_;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(file_, cur().line,
                     msg + " (got '" + cur().text + "')");
  }

  bool peek_kw(const std::string& kw, int off = 0) const {
    const Token& t = next(off);
    return t.kind == TokenKind::kIdentifier && t.text == kw;
  }
  bool peek_sym(const std::string& s, int off = 0) const {
    const Token& t = next(off);
    return t.kind == TokenKind::kSymbol && t.text == s;
  }

  void expect_kw(const std::string& kw) {
    if (!peek_kw(kw)) fail("expected '" + kw + "'");
    advance();
  }
  void expect_sym(const std::string& s) {
    if (!peek_sym(s)) fail("expected '" + s + "'");
    advance();
  }
  std::string expect_identifier(const char* what) {
    if (cur().kind != TokenKind::kIdentifier) fail(std::string("expected ") + what);
    std::string name = cur().text;
    advance();
    return name;
  }
  /// Accepts a keyword or consumes nothing; returns whether consumed.
  bool accept_kw(const std::string& kw) {
    if (peek_kw(kw)) {
      advance();
      return true;
    }
    return false;
  }
  bool accept_sym(const std::string& s) {
    if (peek_sym(s)) {
      advance();
      return true;
    }
    return false;
  }

  void skip_context_clauses() {
    // library X; / use X.Y.all;
    for (;;) {
      if (peek_kw("library") || peek_kw("use")) {
        while (!at_eof() && !peek_sym(";")) advance();
        expect_sym(";");
      } else {
        return;
      }
    }
  }

  // ---------------------------------------------------------------- types --
  TypeRef parse_type() {
    TypeRef t;
    std::string type_name = expect_identifier("type name");
    if (type_name == "std_logic" || type_name == "std_ulogic" ||
        type_name == "bit") {
      t.is_vector = false;
      return t;
    }
    if (type_name == "std_logic_vector" || type_name == "std_ulogic_vector" ||
        type_name == "bit_vector" || type_name == "unsigned" ||
        type_name == "signed") {
      t.is_vector = true;
      expect_sym("(");
      t.left = parse_static_int();
      if (accept_kw("downto")) {
        t.downto = true;
      } else if (accept_kw("to")) {
        t.downto = false;
      } else {
        fail("expected 'downto' or 'to'");
      }
      t.right = parse_static_int();
      expect_sym(")");
      if (t.width() <= 0) fail("vector has non-positive width");
      return t;
    }
    fail("unsupported type '" + type_name + "' (subset: std_logic[_vector])");
  }

  long long parse_static_int() {
    bool neg = accept_sym("-");
    if (cur().kind != TokenKind::kInteger) fail("expected integer");
    const long long v = integer_literal();
    advance();
    return neg ? -v : v;
  }

  /// The value of the current integer literal (digits only: the lexer
  /// drops underscores). A literal past the 64-bit signed range is a
  /// ParseError naming its line.
  long long integer_literal() const {
    std::uint64_t v = 0;
    try {
      v = parse_u64(cur().text, "integer literal");
    } catch (const Error&) {
      fail("integer literal out of range");
    }
    if (v > static_cast<std::uint64_t>(
                std::numeric_limits<long long>::max())) {
      fail("integer literal out of range");
    }
    return static_cast<long long>(v);
  }

  // --------------------------------------------------------------- entity --
  Entity parse_entity() {
    Entity e;
    e.line = cur().line;
    expect_kw("entity");
    e.name = expect_identifier("entity name");
    expect_kw("is");
    if (accept_kw("generic")) {
      fail("generics are not supported in this subset");
    }
    if (accept_kw("port")) {
      expect_sym("(");
      for (;;) {
        // name {, name} : in|out type
        std::vector<std::string> names;
        names.push_back(expect_identifier("port name"));
        while (accept_sym(",")) names.push_back(expect_identifier("port name"));
        expect_sym(":");
        bool is_input;
        if (accept_kw("in")) {
          is_input = true;
        } else if (accept_kw("out")) {
          is_input = false;
        } else if (peek_kw("inout") || peek_kw("buffer")) {
          fail("inout/buffer ports are not supported");
        } else {
          fail("expected port direction");
        }
        TypeRef type = parse_type();
        for (const auto& n : names) {
          e.ports.push_back(Port{n, is_input, type, cur().line});
        }
        if (accept_sym(";")) continue;
        expect_sym(")");
        break;
      }
      expect_sym(";");
    }
    expect_kw("end");
    accept_kw("entity");
    if (cur().kind == TokenKind::kIdentifier) advance();  // optional name
    expect_sym(";");
    return e;
  }

  // --------------------------------------------------------- architecture --
  Architecture parse_architecture() {
    Architecture a;
    a.line = cur().line;
    expect_kw("architecture");
    a.name = expect_identifier("architecture name");
    expect_kw("of");
    a.entity_name = expect_identifier("entity name");
    expect_kw("is");
    // Declarations.
    while (!peek_kw("begin")) {
      if (accept_kw("signal")) {
        std::vector<std::string> names;
        names.push_back(expect_identifier("signal name"));
        while (accept_sym(",")) names.push_back(expect_identifier("signal name"));
        expect_sym(":");
        TypeRef t = parse_type();
        if (accept_sym(":=")) {
          // Default value ignored for synthesis (registers use reset logic).
          skip_to_semicolon();
        }
        expect_sym(";");
        for (const auto& n : names) {
          a.signals.push_back(SignalDecl{n, t, cur().line});
        }
      } else if (peek_kw("component")) {
        skip_component_declaration();
      } else if (peek_kw("constant") || peek_kw("type") ||
                 peek_kw("attribute")) {
        fail("declaration kind not supported in subset: " + cur().text);
      } else {
        fail("unexpected token in architecture declarations");
      }
    }
    expect_kw("begin");
    while (!peek_kw("end")) {
      a.body.push_back(parse_concurrent());
    }
    expect_kw("end");
    accept_kw("architecture");
    if (cur().kind == TokenKind::kIdentifier) advance();
    expect_sym(";");
    return a;
  }

  void skip_to_semicolon() {
    while (!at_eof() && !peek_sym(";")) advance();
  }

  void skip_component_declaration() {
    expect_kw("component");
    while (!at_eof() && !(peek_kw("end") && peek_kw("component", 1))) advance();
    expect_kw("end");
    expect_kw("component");
    if (cur().kind == TokenKind::kIdentifier) advance();
    expect_sym(";");
  }

  // ------------------------------------------------ concurrent statements --
  Concurrent parse_concurrent() {
    Concurrent c;
    c.line = cur().line;

    // Optional label: ident ':' (not followed by a type keyword... labels
    // precede process/instances; signal assignments can also be labelled).
    if (cur().kind == TokenKind::kIdentifier && peek_sym(":", 1)) {
      // Distinguish "label : process" / "label : entity" / "label : comp
      // port map" from nothing else; VHDL requires labels on instances.
      c.label = cur().text;
      advance();
      advance();  // ':'
    }

    if (peek_kw("process")) {
      parse_process(c);
      return c;
    }
    if (peek_kw("entity") || (cur().kind == TokenKind::kIdentifier &&
                              (peek_kw("port", 1) || peek_kw("generic", 1)))) {
      parse_instance(c);
      return c;
    }
    if (peek_kw("with")) {
      parse_selected_assign(c);
      return c;
    }
    // Plain or conditional signal assignment.
    parse_signal_assign(c);
    return c;
  }

  void parse_process(Concurrent& c) {
    c.kind = ConcurrentKind::kProcess;
    expect_kw("process");
    if (accept_sym("(")) {
      for (;;) {
        c.sensitivity.push_back(expect_identifier("sensitivity signal"));
        if (accept_sym(",")) continue;
        expect_sym(")");
        break;
      }
    }
    accept_kw("is");
    if (peek_kw("variable")) fail("process variables are not supported");
    expect_kw("begin");
    while (!peek_kw("end")) {
      c.body.push_back(parse_statement());
    }
    expect_kw("end");
    expect_kw("process");
    if (cur().kind == TokenKind::kIdentifier) advance();
    expect_sym(";");
  }

  void parse_instance(Concurrent& c) {
    c.kind = ConcurrentKind::kInstance;
    if (c.label.empty()) fail("instances require a label");
    if (accept_kw("entity")) {
      // entity work.foo or entity foo
      std::string lib_or_name = expect_identifier("entity name");
      if (accept_sym(".")) {
        c.entity_name = expect_identifier("entity name");
      } else {
        c.entity_name = lib_or_name;
      }
    } else {
      c.entity_name = expect_identifier("component name");
    }
    if (accept_kw("generic")) fail("generic maps are not supported");
    expect_kw("port");
    expect_kw("map");
    expect_sym("(");
    for (;;) {
      std::string formal = expect_identifier("formal port name");
      expect_sym("=>");
      if (peek_kw("open")) {
        advance();
        c.port_map.push_back({formal, nullptr});
      } else {
        c.port_map.push_back({formal, parse_expression()});
      }
      if (accept_sym(",")) continue;
      expect_sym(")");
      break;
    }
    expect_sym(";");
  }

  void parse_selected_assign(Concurrent& c) {
    c.kind = ConcurrentKind::kSelected;
    expect_kw("with");
    c.selector = parse_expression();
    expect_kw("select");
    c.target = parse_name_expression();
    expect_sym("<=");
    for (;;) {
      SelectedChoice choice;
      choice.value = parse_expression();
      expect_kw("when");
      if (accept_kw("others")) {
        // empty choices = others
      } else {
        choice.choices.push_back(parse_expression());
        while (accept_sym("|")) choice.choices.push_back(parse_expression());
      }
      c.selected.push_back(std::move(choice));
      if (accept_sym(",")) continue;
      expect_sym(";");
      break;
    }
  }

  void parse_signal_assign(Concurrent& c) {
    c.target = parse_name_expression();
    expect_sym("<=");
    ExprPtr first = parse_expression();
    if (peek_kw("when")) {
      c.kind = ConcurrentKind::kConditional;
      advance();
      ConditionalChoice cc;
      cc.value = std::move(first);
      cc.condition = parse_expression();
      c.conditional.push_back(std::move(cc));
      while (accept_kw("else")) {
        ConditionalChoice alt;
        alt.value = parse_expression();
        if (accept_kw("when")) {
          alt.condition = parse_expression();
          c.conditional.push_back(std::move(alt));
        } else {
          c.conditional.push_back(std::move(alt));
          break;
        }
      }
      expect_sym(";");
    } else {
      c.kind = ConcurrentKind::kAssign;
      c.value = std::move(first);
      expect_sym(";");
    }
  }

  // ---------------------------------------------------------- statements --
  StmtPtr parse_statement() {
    if (peek_kw("if")) return parse_if();
    if (peek_kw("case")) return parse_case();
    if (peek_kw("null")) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kNull;
      s->line = cur().line;
      advance();
      expect_sym(";");
      return s;
    }
    // Signal assignment.
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kAssign;
    s->line = cur().line;
    s->target = parse_name_expression();
    if (peek_sym(":=")) fail("variables are not supported; use signals");
    expect_sym("<=");
    s->value = parse_expression();
    expect_sym(";");
    return s;
  }

  StmtPtr parse_if() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kIf;
    s->line = cur().line;
    expect_kw("if");
    IfBranch first;
    first.condition = parse_expression();
    expect_kw("then");
    while (!peek_kw("elsif") && !peek_kw("else") && !peek_kw("end")) {
      first.body.push_back(parse_statement());
    }
    s->branches.push_back(std::move(first));
    while (accept_kw("elsif")) {
      IfBranch b;
      b.condition = parse_expression();
      expect_kw("then");
      while (!peek_kw("elsif") && !peek_kw("else") && !peek_kw("end")) {
        b.body.push_back(parse_statement());
      }
      s->branches.push_back(std::move(b));
    }
    if (accept_kw("else")) {
      IfBranch b;  // no condition
      while (!peek_kw("end")) b.body.push_back(parse_statement());
      s->branches.push_back(std::move(b));
    }
    expect_kw("end");
    expect_kw("if");
    expect_sym(";");
    return s;
  }

  StmtPtr parse_case() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kCase;
    s->line = cur().line;
    expect_kw("case");
    s->selector = parse_expression();
    expect_kw("is");
    while (accept_kw("when")) {
      CaseArm arm;
      if (accept_kw("others")) {
        // empty = others
      } else {
        arm.choices.push_back(parse_expression());
        while (accept_sym("|")) arm.choices.push_back(parse_expression());
      }
      expect_sym("=>");
      while (!peek_kw("when") && !peek_kw("end")) {
        arm.body.push_back(parse_statement());
      }
      s->arms.push_back(std::move(arm));
    }
    expect_kw("end");
    expect_kw("case");
    expect_sym(";");
    return s;
  }

  // --------------------------------------------------------- expressions --
  // Precedence (loosest to tightest): logical (and/or/xor/nand/nor/xnor),
  // relational (= /= < <= > >=), additive (+ - &), multiplicative (* /),
  // unary (not -), primary.
  ExprPtr parse_expression() { return parse_logical(); }

  bool peek_logical_op() const {
    return peek_kw("and") || peek_kw("or") || peek_kw("xor") ||
           peek_kw("nand") || peek_kw("nor") || peek_kw("xnor");
  }

  ExprPtr parse_logical() {
    ExprPtr lhs = parse_relational();
    while (peek_logical_op()) {
      std::string op = cur().text;
      int line = cur().line;
      advance();
      ExprPtr rhs = parse_relational();
      auto e = Expr::make(ExprKind::kBinary, line);
      e->name = op;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  bool peek_relational_op() const {
    return peek_sym("=") || peek_sym("/=") || peek_sym("<") ||
           peek_sym(">") || peek_sym("<=") || peek_sym(">=");
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_additive();
    if (peek_relational_op()) {
      std::string op = cur().text;
      int line = cur().line;
      advance();
      ExprPtr rhs = parse_additive();
      auto e = Expr::make(ExprKind::kBinary, line);
      e->name = op;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      return e;
    }
    return lhs;
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (peek_sym("+") || peek_sym("-") || peek_sym("&")) {
      std::string op = cur().text;
      int line = cur().line;
      advance();
      ExprPtr rhs = parse_multiplicative();
      auto e = Expr::make(ExprKind::kBinary, line);
      e->name = op;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (peek_sym("*") || peek_sym("/")) {
      std::string op = cur().text;
      int line = cur().line;
      advance();
      ExprPtr rhs = parse_unary();
      auto e = Expr::make(ExprKind::kBinary, line);
      e->name = op;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (peek_kw("not")) {
      int line = cur().line;
      advance();
      auto e = Expr::make(ExprKind::kUnary, line);
      e->name = "not";
      e->args.push_back(parse_unary());
      return e;
    }
    if (peek_sym("-")) {
      int line = cur().line;
      advance();
      auto e = Expr::make(ExprKind::kUnary, line);
      e->name = "-";
      e->args.push_back(parse_unary());
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const int line = cur().line;
    if (accept_sym("(")) {
      // Parenthesized expression or (others => 'x') aggregate.
      if (peek_kw("others")) {
        advance();
        expect_sym("=>");
        if (cur().kind != TokenKind::kCharLit) fail("expected '0' or '1'");
        auto e = Expr::make(ExprKind::kOthers, line);
        e->text = cur().text;
        advance();
        expect_sym(")");
        return e;
      }
      ExprPtr inner = parse_expression();
      expect_sym(")");
      return inner;
    }
    if (cur().kind == TokenKind::kCharLit) {
      auto e = Expr::make(ExprKind::kCharLit, line);
      e->text = cur().text;
      advance();
      return e;
    }
    if (cur().kind == TokenKind::kStringLit) {
      auto e = Expr::make(ExprKind::kStringLit, line);
      e->text = cur().text;
      advance();
      return e;
    }
    if (cur().kind == TokenKind::kInteger) {
      auto e = Expr::make(ExprKind::kIntLit, line);
      e->value = integer_literal();
      advance();
      return e;
    }
    if (cur().kind == TokenKind::kIdentifier) {
      return parse_name_expression();
    }
    fail("expected expression");
  }

  /// Parses name / name(expr) / name(hi downto lo) / name'attr / call(args).
  ExprPtr parse_name_expression() {
    const int line = cur().line;
    std::string name = expect_identifier("name");
    // conv_integer / to_integer style casts collapse to their argument.
    ExprPtr result;
    if (accept_sym("(")) {
      // Could be index, slice, or a call with one argument.
      ExprPtr first = parse_expression();
      if (accept_kw("downto") || peek_kw("to")) {
        bool down = true;
        if (peek_kw("to")) {
          advance();
          down = false;
        }
        ExprPtr second = parse_expression();
        expect_sym(")");
        auto e = Expr::make(ExprKind::kSlice, line);
        e->name = name;
        e->downto = down;
        e->args.push_back(std::move(first));
        e->args.push_back(std::move(second));
        result = std::move(e);
      } else {
        expect_sym(")");
        if (name == "rising_edge" || name == "falling_edge" ||
            name == "to_integer" || name == "unsigned" || name == "signed" ||
            name == "std_logic_vector" || name == "conv_integer") {
          auto e = Expr::make(ExprKind::kCall, line);
          e->name = name;
          e->args.push_back(std::move(first));
          result = std::move(e);
        } else {
          auto e = Expr::make(ExprKind::kIndex, line);
          e->name = name;
          e->args.push_back(std::move(first));
          result = std::move(e);
        }
      }
    } else {
      auto e = Expr::make(ExprKind::kName, line);
      e->name = name;
      result = std::move(e);
    }
    // Attribute.
    if (peek_sym("'") && next(1).kind == TokenKind::kIdentifier) {
      advance();
      std::string attr = expect_identifier("attribute");
      auto e = Expr::make(ExprKind::kAttribute, line);
      e->name = attr;
      e->args.push_back(std::move(result));
      return e;
    }
    return result;
  }

  std::vector<Token> tokens_;
  std::string file_;
  std::size_t pos_ = 0;
};

}  // namespace

DesignFile parse_vhdl(const std::string& source, const std::string& filename) {
  Parser parser(lex_vhdl(source, filename), filename);
  return parser.parse_design_file();
}

}  // namespace amdrel::vhdl
