#include "vhdl/synth.hpp"

#include <map>
#include <optional>
#include <set>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "vhdl/parser.hpp"

namespace amdrel::vhdl {
namespace {

using netlist::kNoSignal;
using netlist::LatchInit;
using netlist::Network;
using netlist::SignalId;
using netlist::TruthTable;

[[noreturn]] void synth_fail(int line, const std::string& msg) {
  throw ParseError("<vhdl>", line, msg);
}

// A single bit value: either a constant or a netlist signal.
struct Bit {
  bool is_const = false;
  bool const_val = false;
  SignalId sig = kNoSignal;

  static Bit constant(bool v) { return Bit{true, v, kNoSignal}; }
  static Bit signal(SignalId s) { return Bit{false, false, s}; }
  bool operator==(const Bit& o) const {
    return is_const == o.is_const && const_val == o.const_val && sig == o.sig;
  }
};

// An evaluated expression: a bit vector (LSB first) and/or an integer.
struct Value {
  std::vector<Bit> bits;
  bool is_int = false;
  long long int_val = 0;

  int width() const { return static_cast<int>(bits.size()); }
};

/// Builds gates with structural hashing and constant folding.
class GateBuilder {
 public:
  explicit GateBuilder(Network& net) : net_(&net) {}

  SignalId fresh(const std::string& hint) {
    for (;;) {
      std::string name = strprintf("%s_n%d", hint.c_str(), counter_++);
      if (net_->find_signal(name) == kNoSignal) return net_->add_signal(name);
    }
  }

  /// Materializes a Bit as a signal (constants become constant gates).
  SignalId materialize(const Bit& b) {
    if (!b.is_const) return b.sig;
    SignalId& cached = b.const_val ? const1_ : const0_;
    if (cached == kNoSignal) {
      cached = fresh(b.const_val ? "const1" : "const0");
      net_->add_gate(strprintf("c%d", counter_++),
                     TruthTable::constant(b.const_val), {}, cached);
    }
    return cached;
  }

  /// Emits (or reuses) a gate computing `table` over `ins`; returns the
  /// output bit. Performs constant folding and single-input simplification.
  Bit make(TruthTable table, std::vector<Bit> ins) {
    // Fold constant inputs.
    for (int i = static_cast<int>(ins.size()) - 1; i >= 0; --i) {
      if (ins[static_cast<std::size_t>(i)].is_const) {
        table = table.cofactor(i, ins[static_cast<std::size_t>(i)].const_val);
        ins.erase(ins.begin() + i);
      }
    }
    // Drop non-supporting inputs.
    for (int i = static_cast<int>(ins.size()) - 1; i >= 0; --i) {
      if (!table.depends_on(i)) {
        table = table.cofactor(i, false);
        ins.erase(ins.begin() + i);
      }
    }
    if (table.n_inputs() == 0) return Bit::constant(table.constant_value());
    if (table == TruthTable::identity()) return ins[0];

    // Structural hash.
    std::string key = table.to_hex();
    for (const Bit& b : ins) {
      key += ',';
      key += std::to_string(b.sig);
    }
    auto it = strash_.find(key);
    if (it != strash_.end()) return Bit::signal(it->second);

    std::vector<SignalId> sig_ins;
    sig_ins.reserve(ins.size());
    for (const Bit& b : ins) sig_ins.push_back(b.sig);
    SignalId out = fresh("n");
    net_->add_gate(strprintf("g%d", counter_++), std::move(table),
                   std::move(sig_ins), out);
    strash_.emplace(std::move(key), out);
    return Bit::signal(out);
  }

  Bit b_not(Bit a) {
    if (a.is_const) return Bit::constant(!a.const_val);
    return make(TruthTable::inverter(), {a});
  }
  Bit b_and(Bit a, Bit b) { return make(TruthTable::and_n(2), {a, b}); }
  Bit b_or(Bit a, Bit b) { return make(TruthTable::or_n(2), {a, b}); }
  Bit b_xor(Bit a, Bit b) { return make(TruthTable::xor_n(2), {a, b}); }
  /// sel ? b : a
  Bit b_mux(Bit sel, Bit a, Bit b) {
    if (sel.is_const) return sel.const_val ? b : a;
    if (a == b) return a;
    return make(TruthTable::mux2(), {sel, a, b});
  }

  /// Drives existing signal `target` with bit `v` (identity/constant gate).
  void drive(SignalId target, const Bit& v, int line) {
    (void)line;
    if (v.is_const) {
      net_->add_gate(strprintf("drv%d", counter_++),
                     TruthTable::constant(v.const_val), {}, target);
    } else {
      net_->add_gate(strprintf("drv%d", counter_++),
                     TruthTable::identity(), {v.sig}, target);
    }
  }

 private:
  Network* net_;
  int counter_ = 0;
  SignalId const0_ = kNoSignal;
  SignalId const1_ = kNoSignal;
  std::map<std::string, SignalId> strash_;
};

// A VHDL signal bound to netlist signals (one per bit, LSB first) plus its
// declared type (for index arithmetic).
struct BoundSignal {
  TypeRef type;
  std::vector<SignalId> bits;  // LSB first
  bool is_port_input = false;
};

using Env = std::map<std::string, BoundSignal>;

/// Per-process symbolic state: target name → per-bit pending assignment.
using AssignMap = std::map<std::string, std::vector<std::optional<Bit>>>;

class Elaborator {
 public:
  Elaborator(const DesignFile& design, Network& net)
      : design_(&design), net_(net), gb_(net) {}

  void elaborate_top(const std::string& top) {
    const Entity* ent = design_->find_entity(to_lower(top));
    if (ent == nullptr) throw Error("top entity not found: " + top);
    const Architecture* arch = design_->find_architecture(ent->name);
    if (arch == nullptr) {
      throw Error("no architecture for entity: " + ent->name);
    }
    net_.set_name(ent->name);

    Env env;
    for (const Port& p : ent->ports) {
      if (p.type.is_vector && !p.type.downto) {
        synth_fail(p.line, "only 'downto' vector ranges are supported");
      }
      BoundSignal bs;
      bs.type = p.type;
      bs.is_port_input = p.is_input;
      for (int i = 0; i < p.type.width(); ++i) {
        std::string name =
            p.type.is_vector ? strprintf("%s_%d", p.name.c_str(), i) : p.name;
        bs.bits.push_back(net_.add_signal(name));
      }
      if (p.is_input) {
        for (SignalId s : bs.bits) net_.add_input(s);
      }
      env.emplace(p.name, std::move(bs));
    }
    elaborate_architecture(*arch, env, "");
    for (const Port& p : ent->ports) {
      if (p.is_input) continue;
      for (SignalId s : env.at(p.name).bits) net_.add_output(s);
    }
  }

 private:
  // ----------------------------------------------------------- elaborate --
  void elaborate_architecture(const Architecture& arch, Env& env,
                              const std::string& prefix) {
    for (const SignalDecl& d : arch.signals) {
      if (env.count(d.name)) {
        synth_fail(d.line, "signal shadows a port: " + d.name);
      }
      if (d.type.is_vector && !d.type.downto) {
        synth_fail(d.line, "only 'downto' vector ranges are supported");
      }
      BoundSignal bs;
      bs.type = d.type;
      for (int i = 0; i < d.type.width(); ++i) {
        std::string name = prefix + d.name +
                           (d.type.is_vector ? strprintf("_%d", i) : "");
        // Uniquify against anything already present.
        while (net_.find_signal(name) != kNoSignal) name += "_x";
        bs.bits.push_back(net_.add_signal(name));
      }
      env.emplace(d.name, std::move(bs));
    }
    for (const Concurrent& c : arch.body) {
      switch (c.kind) {
        case ConcurrentKind::kAssign:
          do_concurrent_assign(c, env);
          break;
        case ConcurrentKind::kConditional:
          do_conditional_assign(c, env);
          break;
        case ConcurrentKind::kSelected:
          do_selected_assign(c, env);
          break;
        case ConcurrentKind::kProcess:
          do_process(c, env, prefix);
          break;
        case ConcurrentKind::kInstance:
          do_instance(c, env, prefix);
          break;
      }
    }
  }

  // Target reference: the netlist signals being assigned.
  std::vector<SignalId> eval_target(const Expr& target, const Env& env) {
    if (target.kind == ExprKind::kName) {
      auto it = env.find(target.name);
      if (it == env.end()) {
        synth_fail(target.line, "unknown signal: " + target.name);
      }
      if (it->second.is_port_input) {
        synth_fail(target.line, "cannot assign to input port: " + target.name);
      }
      return it->second.bits;
    }
    if (target.kind == ExprKind::kIndex) {
      auto it = env.find(target.name);
      if (it == env.end()) {
        synth_fail(target.line, "unknown signal: " + target.name);
      }
      long long idx = eval_static_int(*target.args[0], env);
      return {bit_at(it->second, idx, target.line)};
    }
    if (target.kind == ExprKind::kSlice) {
      auto it = env.find(target.name);
      if (it == env.end()) {
        synth_fail(target.line, "unknown signal: " + target.name);
      }
      long long a = eval_static_int(*target.args[0], env);
      long long b = eval_static_int(*target.args[1], env);
      return slice_of(it->second, a, b, target.line);
    }
    synth_fail(target.line, "unsupported assignment target");
  }

  SignalId bit_at(const BoundSignal& bs, long long idx, int line) {
    if (!bs.type.is_vector) synth_fail(line, "indexing a scalar signal");
    long long off = bs.type.downto ? idx - bs.type.right : idx - bs.type.left;
    if (off < 0 || off >= static_cast<long long>(bs.bits.size())) {
      synth_fail(line, strprintf("index %lld out of range", idx));
    }
    return bs.bits[static_cast<std::size_t>(off)];
  }

  std::vector<SignalId> slice_of(const BoundSignal& bs, long long a,
                                 long long b, int line) {
    // a..b given in declaration order (hi downto lo, or lo to hi).
    std::vector<SignalId> out;
    if (bs.type.downto) {
      for (long long i = b; i <= a; ++i) out.push_back(bit_at(bs, i, line));
    } else {
      for (long long i = a; i <= b; ++i) out.push_back(bit_at(bs, i, line));
    }
    if (out.empty()) synth_fail(line, "empty slice");
    return out;
  }

  long long eval_static_int(const Expr& e, const Env& env) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return e.value;
      case ExprKind::kBinary: {
        long long a = eval_static_int(*e.args[0], env);
        long long b = eval_static_int(*e.args[1], env);
        if (e.name == "+") return a + b;
        if (e.name == "-") return a - b;
        if (e.name == "*") return a * b;
        synth_fail(e.line, "unsupported static operator: " + e.name);
      }
      case ExprKind::kUnary:
        if (e.name == "-") return -eval_static_int(*e.args[0], env);
        synth_fail(e.line, "unsupported static operator");
      default:
        synth_fail(e.line, "expected a static integer expression");
    }
  }

  // ------------------------------------------------- expression evaluation --
  // `local` carries in-process assigned values (combinational processes read
  // their own updates); null for contexts that read committed signals only.
  Value eval(const Expr& e, const Env& env, const AssignMap* local) {
    switch (e.kind) {
      case ExprKind::kCharLit: {
        if (e.text == "0" || e.text == "1") {
          Value v;
          v.bits.push_back(Bit::constant(e.text == "1"));
          return v;
        }
        synth_fail(e.line, "unsupported std_logic literal '" + e.text + "'");
      }
      case ExprKind::kStringLit: {
        Value v;
        for (auto it = e.text.rbegin(); it != e.text.rend(); ++it) {
          if (*it != '0' && *it != '1') {
            synth_fail(e.line, "unsupported vector literal");
          }
          v.bits.push_back(Bit::constant(*it == '1'));
        }
        return v;
      }
      case ExprKind::kIntLit: {
        Value v;
        v.is_int = true;
        v.int_val = e.value;
        return v;
      }
      case ExprKind::kOthers:
        synth_fail(e.line, "(others => ...) is only allowed as a full "
                           "assignment right-hand side");
      case ExprKind::kName:
        return read_signal(e.name, env, local, e.line);
      case ExprKind::kIndex: {
        Value whole = read_signal(e.name, env, local, e.line);
        auto it = env.find(e.name);
        long long idx = eval_static_int(*e.args[0], env);
        const auto& t = it->second.type;
        long long off = t.downto ? idx - t.right : idx - t.left;
        if (off < 0 || off >= whole.width()) {
          synth_fail(e.line, "index out of range");
        }
        Value v;
        v.bits.push_back(whole.bits[static_cast<std::size_t>(off)]);
        return v;
      }
      case ExprKind::kSlice: {
        Value whole = read_signal(e.name, env, local, e.line);
        auto it = env.find(e.name);
        const auto& t = it->second.type;
        long long a = eval_static_int(*e.args[0], env);
        long long b = eval_static_int(*e.args[1], env);
        Value v;
        if (t.downto) {
          for (long long i = b; i <= a; ++i) {
            long long off = i - t.right;
            if (off < 0 || off >= whole.width()) {
              synth_fail(e.line, "slice out of range");
            }
            v.bits.push_back(whole.bits[static_cast<std::size_t>(off)]);
          }
        } else {
          for (long long i = a; i <= b; ++i) {
            long long off = i - t.left;
            if (off < 0 || off >= whole.width()) {
              synth_fail(e.line, "slice out of range");
            }
            v.bits.push_back(whole.bits[static_cast<std::size_t>(off)]);
          }
        }
        return v;
      }
      case ExprKind::kCall: {
        if (e.name == "rising_edge" || e.name == "falling_edge") {
          synth_fail(e.line,
                     "rising_edge is only supported as a clocked-process "
                     "condition");
        }
        // Type conversions collapse to their argument.
        return eval(*e.args[0], env, local);
      }
      case ExprKind::kAttribute:
        synth_fail(e.line, "attribute '" + e.name +
                               "' only supported in clock conditions");
      case ExprKind::kUnary: {
        Value a = eval(*e.args[0], env, local);
        if (e.name == "not") {
          require_bits(a, e.line);
          Value v;
          for (const Bit& b : a.bits) v.bits.push_back(gb_.b_not(b));
          return v;
        }
        synth_fail(e.line, "unsupported unary operator: " + e.name);
      }
      case ExprKind::kBinary:
        return eval_binary(e, env, local);
    }
    synth_fail(e.line, "unsupported expression");
  }

  void require_bits(const Value& v, int line) {
    if (v.is_int || v.bits.empty()) {
      synth_fail(line, "expected a std_logic value here");
    }
  }

  /// Converts an integer literal to constant bits of the given width.
  Value int_to_bits(long long value, int width, int line) {
    if (value < 0) synth_fail(line, "negative literals are not supported");
    Value v;
    for (int i = 0; i < width; ++i) {
      v.bits.push_back(Bit::constant((value >> i) & 1));
    }
    if (width < 63 && (value >> width) != 0) {
      synth_fail(line, strprintf("literal %lld does not fit in %d bits",
                                 value, width));
    }
    return v;
  }

  /// Harmonizes the widths of two operands (int literals adapt).
  void harmonize(Value& a, Value& b, int line) {
    if (a.is_int && b.is_int) synth_fail(line, "two integer operands");
    if (a.is_int) a = int_to_bits(a.int_val, b.width(), line);
    if (b.is_int) b = int_to_bits(b.int_val, a.width(), line);
    if (a.width() != b.width()) {
      synth_fail(line, strprintf("width mismatch: %d vs %d", a.width(),
                                 b.width()));
    }
  }

  Value eval_binary(const Expr& e, const Env& env, const AssignMap* local) {
    const std::string& op = e.name;
    // Concatenation: RHS of '&' is the low part in VHDL.
    if (op == "&") {
      Value a = eval(*e.args[0], env, local);
      Value b = eval(*e.args[1], env, local);
      require_bits(a, e.line);
      require_bits(b, e.line);
      Value v;
      v.bits = b.bits;
      v.bits.insert(v.bits.end(), a.bits.begin(), a.bits.end());
      return v;
    }

    Value a = eval(*e.args[0], env, local);
    Value b = eval(*e.args[1], env, local);

    if (op == "and" || op == "or" || op == "xor" || op == "nand" ||
        op == "nor" || op == "xnor") {
      require_bits(a, e.line);
      require_bits(b, e.line);
      if (a.width() != b.width()) synth_fail(e.line, "width mismatch");
      Value v;
      for (int i = 0; i < a.width(); ++i) {
        Bit x = a.bits[static_cast<std::size_t>(i)];
        Bit y = b.bits[static_cast<std::size_t>(i)];
        Bit r;
        if (op == "and") r = gb_.b_and(x, y);
        else if (op == "or") r = gb_.b_or(x, y);
        else if (op == "xor") r = gb_.b_xor(x, y);
        else if (op == "nand") r = gb_.b_not(gb_.b_and(x, y));
        else if (op == "nor") r = gb_.b_not(gb_.b_or(x, y));
        else r = gb_.b_not(gb_.b_xor(x, y));
        v.bits.push_back(r);
      }
      return v;
    }

    if (op == "+" || op == "-") {
      harmonize(a, b, e.line);
      Value v;
      Bit carry = Bit::constant(op == "-");  // borrow via two's complement
      for (int i = 0; i < a.width(); ++i) {
        Bit x = a.bits[static_cast<std::size_t>(i)];
        Bit y = b.bits[static_cast<std::size_t>(i)];
        if (op == "-") y = gb_.b_not(y);
        Bit sum = gb_.b_xor(gb_.b_xor(x, y), carry);
        Bit c1 = gb_.b_and(x, y);
        Bit c2 = gb_.b_and(gb_.b_xor(x, y), carry);
        carry = gb_.b_or(c1, c2);
        v.bits.push_back(sum);
      }
      return v;
    }

    if (op == "=" || op == "/=" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      harmonize(a, b, e.line);
      Value v;
      if (op == "=" || op == "/=") {
        Bit eq = Bit::constant(true);
        for (int i = 0; i < a.width(); ++i) {
          Bit same = gb_.b_not(gb_.b_xor(a.bits[static_cast<std::size_t>(i)],
                                         b.bits[static_cast<std::size_t>(i)]));
          eq = gb_.b_and(eq, same);
        }
        v.bits.push_back(op == "=" ? eq : gb_.b_not(eq));
        return v;
      }
      // Unsigned magnitude compare: a < b.
      Bit lt = Bit::constant(false);
      Bit eq = Bit::constant(true);
      for (int i = a.width() - 1; i >= 0; --i) {
        Bit x = a.bits[static_cast<std::size_t>(i)];
        Bit y = b.bits[static_cast<std::size_t>(i)];
        Bit xi_lt = gb_.b_and(gb_.b_not(x), y);
        lt = gb_.b_or(lt, gb_.b_and(eq, xi_lt));
        eq = gb_.b_and(eq, gb_.b_not(gb_.b_xor(x, y)));
      }
      Bit result;
      if (op == "<") result = lt;
      else if (op == ">=") result = gb_.b_not(lt);
      else if (op == ">") result = gb_.b_and(gb_.b_not(lt), gb_.b_not(eq));
      else result = gb_.b_or(lt, eq);  // <=
      v.bits.push_back(result);
      return v;
    }

    synth_fail(e.line, "unsupported operator: " + op);
  }

  Value read_signal(const std::string& name, const Env& env,
                    const AssignMap* local, int line) {
    auto it = env.find(name);
    if (it == env.end()) synth_fail(line, "unknown signal: " + name);
    Value v;
    const auto& bits = it->second.bits;
    const std::vector<std::optional<Bit>>* pending = nullptr;
    if (local != nullptr) {
      auto lit = local->find(name);
      if (lit != local->end()) pending = &lit->second;
    }
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (pending != nullptr && i < pending->size() &&
          (*pending)[i].has_value()) {
        v.bits.push_back((*pending)[i].value());
      } else {
        v.bits.push_back(Bit::signal(bits[i]));
      }
    }
    return v;
  }

  /// Single-bit boolean from a condition expression.
  Bit eval_condition(const Expr& e, const Env& env, const AssignMap* local) {
    Value v = eval(e, env, local);
    require_bits(v, e.line);
    if (v.width() != 1) synth_fail(e.line, "condition must be 1 bit");
    return v.bits[0];
  }

  /// Evaluates the RHS of an assignment, resolving (others=>) against the
  /// target width and width-adapting integer literals.
  std::vector<Bit> eval_rhs(const Expr& value, int target_width,
                            const Env& env, const AssignMap* local) {
    if (value.kind == ExprKind::kOthers) {
      return std::vector<Bit>(static_cast<std::size_t>(target_width),
                              Bit::constant(value.text == "1"));
    }
    Value v = eval(value, env, local);
    if (v.is_int) v = int_to_bits(v.int_val, target_width, value.line);
    if (v.width() != target_width) {
      synth_fail(value.line,
                 strprintf("assignment width mismatch: %d-bit value to "
                           "%d-bit target",
                           v.width(), target_width));
    }
    return v.bits;
  }

  // ------------------------------------------------ concurrent statements --
  void do_concurrent_assign(const Concurrent& c, Env& env) {
    std::vector<SignalId> targets = eval_target(*c.target, env);
    std::vector<Bit> bits =
        eval_rhs(*c.value, static_cast<int>(targets.size()), env, nullptr);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      gb_.drive(targets[i], bits[i], c.line);
    }
  }

  void do_conditional_assign(const Concurrent& c, Env& env) {
    std::vector<SignalId> targets = eval_target(*c.target, env);
    const int w = static_cast<int>(targets.size());
    // Build from the tail (unconditional else) backwards.
    std::vector<Bit> result;
    bool have_result = false;
    for (auto it = c.conditional.rbegin(); it != c.conditional.rend(); ++it) {
      std::vector<Bit> v = eval_rhs(*it->value, w, env, nullptr);
      if (it->condition == nullptr) {
        result = std::move(v);
        have_result = true;
      } else {
        if (!have_result) {
          synth_fail(c.line,
                     "conditional assignment needs a final unconditional "
                     "else");
        }
        Bit cond = eval_condition(*it->condition, env, nullptr);
        for (int i = 0; i < w; ++i) {
          result[static_cast<std::size_t>(i)] =
              gb_.b_mux(cond, result[static_cast<std::size_t>(i)],
                        v[static_cast<std::size_t>(i)]);
        }
      }
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
      gb_.drive(targets[i], result[i], c.line);
    }
  }

  void do_selected_assign(const Concurrent& c, Env& env) {
    std::vector<SignalId> targets = eval_target(*c.target, env);
    const int w = static_cast<int>(targets.size());
    Value sel = eval(*c.selector, env, nullptr);
    require_bits(sel, c.line);

    std::vector<Bit> result;
    bool have_result = false;
    // Process in reverse; "others" (empty choices) acts as the base.
    for (auto it = c.selected.rbegin(); it != c.selected.rend(); ++it) {
      std::vector<Bit> v = eval_rhs(*it->value, w, env, nullptr);
      if (it->choices.empty()) {
        result = std::move(v);
        have_result = true;
        continue;
      }
      if (!have_result) {
        synth_fail(c.line, "selected assignment needs a 'when others'");
      }
      Bit match = Bit::constant(false);
      for (const auto& choice : it->choices) {
        match = gb_.b_or(match, selector_equals(sel, *choice, env));
      }
      for (int i = 0; i < w; ++i) {
        result[static_cast<std::size_t>(i)] =
            gb_.b_mux(match, result[static_cast<std::size_t>(i)],
                      v[static_cast<std::size_t>(i)]);
      }
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
      gb_.drive(targets[i], result[i], c.line);
    }
  }

  Bit selector_equals(const Value& sel, const Expr& choice, const Env& env) {
    Value cv = eval(choice, env, nullptr);
    Value sel_copy = sel;
    harmonize(sel_copy, cv, choice.line);
    Bit eq = Bit::constant(true);
    for (int i = 0; i < sel_copy.width(); ++i) {
      eq = gb_.b_and(eq, gb_.b_not(gb_.b_xor(
                             sel_copy.bits[static_cast<std::size_t>(i)],
                             cv.bits[static_cast<std::size_t>(i)])));
    }
    return eq;
  }

  // --------------------------------------------------------- instances --
  void do_instance(const Concurrent& c, Env& env, const std::string& prefix) {
    const Entity* ent = design_->find_entity(c.entity_name);
    if (ent == nullptr) {
      synth_fail(c.line, "unknown entity: " + c.entity_name);
    }
    const Architecture* arch = design_->find_architecture(ent->name);
    if (arch == nullptr) {
      synth_fail(c.line, "no architecture for entity: " + ent->name);
    }
    if (++instance_depth_ > 64) {
      synth_fail(c.line, "instantiation recursion too deep");
    }

    Env child_env;
    for (const Port& p : ent->ports) {
      const Expr* actual = nullptr;
      for (const auto& [formal, expr] : c.port_map) {
        if (formal == p.name) {
          actual = expr.get();
          break;
        }
      }
      BoundSignal bs;
      bs.type = p.type;
      if (p.is_input) {
        if (actual == nullptr) {
          synth_fail(c.line, "input port not mapped: " + p.name);
        }
        // Evaluate the actual in the parent and materialize as signals.
        std::vector<Bit> bits =
            eval_rhs(*actual, p.type.width(), env, nullptr);
        for (const Bit& b : bits) bs.bits.push_back(gb_.materialize(b));
        // Inside the child these are read-only.
        bs.is_port_input = true;
      } else {
        if (actual == nullptr) {
          // open: fresh dangling signals.
          for (int i = 0; i < p.type.width(); ++i) {
            bs.bits.push_back(gb_.fresh(prefix + c.label + "_" + p.name));
          }
        } else {
          bs.bits = eval_target(*actual, env);
          if (static_cast<int>(bs.bits.size()) != p.type.width()) {
            synth_fail(c.line, "port width mismatch on " + p.name);
          }
        }
      }
      child_env.emplace(p.name, std::move(bs));
    }
    elaborate_architecture(*arch, child_env, prefix + c.label + "_");
    --instance_depth_;
  }

  // --------------------------------------------------------- processes --
  bool is_edge_condition(const Expr& e, std::string* clock_name) {
    // rising_edge(clk)
    if (e.kind == ExprKind::kCall && e.name == "rising_edge" &&
        e.args.size() == 1 && e.args[0]->kind == ExprKind::kName) {
      *clock_name = e.args[0]->name;
      return true;
    }
    // clk'event and clk = '1'
    if (e.kind == ExprKind::kBinary && e.name == "and") {
      const Expr* ev = nullptr;
      const Expr* cmp = nullptr;
      if (e.args[0]->kind == ExprKind::kAttribute) {
        ev = e.args[0].get();
        cmp = e.args[1].get();
      } else if (e.args[1]->kind == ExprKind::kAttribute) {
        ev = e.args[1].get();
        cmp = e.args[0].get();
      }
      if (ev != nullptr && ev->name == "event" &&
          ev->args[0]->kind == ExprKind::kName && cmp != nullptr &&
          cmp->kind == ExprKind::kBinary && cmp->name == "=" &&
          cmp->args[0]->kind == ExprKind::kName &&
          cmp->args[1]->kind == ExprKind::kCharLit &&
          cmp->args[1]->text == "1" &&
          cmp->args[0]->name == ev->args[0]->name) {
        *clock_name = ev->args[0]->name;
        return true;
      }
    }
    return false;
  }

  void do_process(const Concurrent& c, Env& env, const std::string& prefix) {
    (void)prefix;
    // Clocked-process pattern: the body is a single if statement whose
    // first or second branch condition is a clock edge.
    if (c.body.size() == 1 && c.body[0]->kind == StmtKind::kIf) {
      const Stmt& s = *c.body[0];
      std::string clock;
      // Pattern A: if rising_edge(clk) then ... end if;
      if (!s.branches.empty() && s.branches[0].condition != nullptr &&
          is_edge_condition(*s.branches[0].condition, &clock)) {
        if (s.branches.size() > 1) {
          synth_fail(s.line, "else branch after a clock edge is not "
                             "synthesizable");
        }
        synth_clocked(c, env, clock, /*reset_cond=*/nullptr,
                      /*reset_body=*/nullptr, &s.branches[0].body);
        return;
      }
      // Pattern B: if <reset> then ... elsif rising_edge(clk) then ... end if
      if (s.branches.size() == 2 && s.branches[0].condition != nullptr &&
          s.branches[1].condition != nullptr &&
          is_edge_condition(*s.branches[1].condition, &clock)) {
        synth_clocked(c, env, clock, s.branches[0].condition.get(),
                      &s.branches[0].body, &s.branches[1].body);
        return;
      }
    }
    synth_combinational(c, env);
  }

  AssignMap exec_block(const std::vector<StmtPtr>& stmts, const Env& env,
                       AssignMap current, bool reads_see_updates) {
    for (const StmtPtr& sp : stmts) {
      const Stmt& s = *sp;
      const AssignMap* local = reads_see_updates ? &current : nullptr;
      switch (s.kind) {
        case StmtKind::kNull:
          break;
        case StmtKind::kAssign: {
          apply_assign(s, env, current, local);
          break;
        }
        case StmtKind::kIf: {
          current = exec_if(s, env, std::move(current), reads_see_updates);
          break;
        }
        case StmtKind::kCase: {
          current = exec_case(s, env, std::move(current), reads_see_updates);
          break;
        }
      }
    }
    return current;
  }

  void apply_assign(const Stmt& s, const Env& env, AssignMap& current,
                    const AssignMap* local) {
    // Identify target signal + bit range.
    const Expr& t = *s.target;
    std::string name;
    long long lo_off = 0;
    int width = 0;
    auto it = env.end();
    if (t.kind == ExprKind::kName) {
      name = t.name;
      it = const_cast<Env&>(env).find(name);
      if (it == env.end()) synth_fail(t.line, "unknown signal: " + name);
      width = static_cast<int>(it->second.bits.size());
      lo_off = 0;
    } else if (t.kind == ExprKind::kIndex) {
      name = t.name;
      it = const_cast<Env&>(env).find(name);
      if (it == env.end()) synth_fail(t.line, "unknown signal: " + name);
      long long idx = eval_static_int(*t.args[0], env);
      const auto& ty = it->second.type;
      lo_off = ty.downto ? idx - ty.right : idx - ty.left;
      width = 1;
    } else if (t.kind == ExprKind::kSlice) {
      name = t.name;
      it = const_cast<Env&>(env).find(name);
      if (it == env.end()) synth_fail(t.line, "unknown signal: " + name);
      long long a = eval_static_int(*t.args[0], env);
      long long b = eval_static_int(*t.args[1], env);
      const auto& ty = it->second.type;
      long long lo = ty.downto ? b : a;
      lo_off = ty.downto ? lo - ty.right : lo - ty.left;
      width = static_cast<int>(ty.downto ? a - b + 1 : b - a + 1);
    } else {
      synth_fail(t.line, "unsupported assignment target");
    }
    if (it->second.is_port_input) {
      synth_fail(t.line, "cannot assign to input port: " + name);
    }
    if (lo_off < 0 ||
        lo_off + width > static_cast<long long>(it->second.bits.size())) {
      synth_fail(t.line, "assignment range out of bounds");
    }

    std::vector<Bit> bits = eval_rhs(*s.value, width, env, local);
    auto& slot = current[name];
    if (slot.empty()) slot.resize(it->second.bits.size());
    for (int i = 0; i < width; ++i) {
      slot[static_cast<std::size_t>(lo_off + i)] =
          bits[static_cast<std::size_t>(i)];
    }
  }

  AssignMap exec_if(const Stmt& s, const Env& env, AssignMap current,
                    bool reads_see_updates) {
    // Build else-first, then fold branches from the back.
    // result = branch0.cond ? exec(branch0) : (branch1.cond ? ... : base)
    const AssignMap* local = reads_see_updates ? &current : nullptr;
    std::vector<Bit> conds;
    std::vector<AssignMap> results;
    bool has_else = false;
    AssignMap else_map = current;
    for (const IfBranch& b : s.branches) {
      if (b.condition == nullptr) {
        has_else = true;
        else_map = exec_block(b.body, env, current, reads_see_updates);
      } else {
        conds.push_back(eval_condition(*b.condition, env, local));
        results.push_back(exec_block(b.body, env, current, reads_see_updates));
      }
    }
    (void)has_else;
    AssignMap merged = std::move(else_map);
    for (int i = static_cast<int>(conds.size()) - 1; i >= 0; --i) {
      merged = merge_assign_maps(conds[static_cast<std::size_t>(i)],
                                 results[static_cast<std::size_t>(i)], merged,
                                 env, s.line);
    }
    return merged;
  }

  AssignMap exec_case(const Stmt& s, const Env& env, AssignMap current,
                      bool reads_see_updates) {
    const AssignMap* local = reads_see_updates ? &current : nullptr;
    Value sel = eval(*s.selector, env, local);
    require_bits(sel, s.line);

    AssignMap merged = current;
    bool saw_others = false;
    std::vector<std::pair<Bit, AssignMap>> arms;
    for (const CaseArm& arm : s.arms) {
      AssignMap r = exec_block(arm.body, env, current, reads_see_updates);
      if (arm.choices.empty()) {
        saw_others = true;
        merged = std::move(r);
      } else {
        Bit match = Bit::constant(false);
        for (const auto& choice : arm.choices) {
          match = gb_.b_or(match, selector_equals(sel, *choice, env));
        }
        arms.push_back({match, std::move(r)});
      }
    }
    (void)saw_others;
    for (int i = static_cast<int>(arms.size()) - 1; i >= 0; --i) {
      merged = merge_assign_maps(arms[static_cast<std::size_t>(i)].first,
                                 arms[static_cast<std::size_t>(i)].second,
                                 merged, env, s.line);
    }
    return merged;
  }

  /// merged = cond ? then_map : else_map, per target bit. A bit assigned on
  /// one side only falls back to that side's base (the other side's value
  /// or "keep", represented by nullopt → resolved by the caller).
  AssignMap merge_assign_maps(Bit cond, const AssignMap& then_map,
                              const AssignMap& else_map, const Env& env,
                              int line) {
    AssignMap out;
    auto names = std::map<std::string, bool>();
    for (const auto& [n, v] : then_map) names[n] = true;
    for (const auto& [n, v] : else_map) names[n] = true;
    for (const auto& [name, unused] : names) {
      (void)unused;
      auto ti = then_map.find(name);
      auto ei = else_map.find(name);
      std::size_t width = env.at(name).bits.size();
      std::vector<std::optional<Bit>> merged(width);
      for (std::size_t i = 0; i < width; ++i) {
        std::optional<Bit> tv =
            ti != then_map.end() && i < ti->second.size() ? ti->second[i]
                                                          : std::nullopt;
        std::optional<Bit> ev =
            ei != else_map.end() && i < ei->second.size() ? ei->second[i]
                                                          : std::nullopt;
        if (!tv.has_value() && !ev.has_value()) {
          continue;
        }
        if (tv.has_value() && ev.has_value()) {
          merged[i] = gb_.b_mux(cond, *ev, *tv);
        } else if (tv.has_value()) {
          // Assigned only when cond: the else path keeps the old value —
          // a latch in combinational context, handled at finalization by
          // requiring full assignment; in clocked context "keep" means the
          // register holds, so feed back Q.
          merged[i] = gb_.b_mux(cond, Bit::signal(env.at(name).bits[i]), *tv);
          partial_targets_.insert(strprintf("%s#%zu", name.c_str(), i));
          (void)line;
        } else {
          merged[i] = gb_.b_mux(cond, *ev, Bit::signal(env.at(name).bits[i]));
          partial_targets_.insert(strprintf("%s#%zu", name.c_str(), i));
        }
      }
      out[name] = std::move(merged);
    }
    return out;
  }

  void synth_clocked(const Concurrent& c, Env& env, const std::string& clock,
                     const Expr* reset_cond,
                     const std::vector<StmtPtr>* reset_body,
                     const std::vector<StmtPtr>* body) {
    auto clk_it = env.find(clock);
    if (clk_it == env.end()) synth_fail(c.line, "unknown clock: " + clock);
    SignalId clk_sig = clk_it->second.bits[0];

    partial_targets_.clear();
    AssignMap next =
        exec_block(*body, env, AssignMap{}, /*reads_see_updates=*/false);

    // Reset values (must be constants) applied as a synchronous mux +
    // latch init.
    AssignMap reset_map;
    Bit rst = Bit::constant(false);
    if (reset_cond != nullptr) {
      rst = eval_condition(*reset_cond, env, nullptr);
      reset_map = exec_block(*reset_body, env, AssignMap{},
                             /*reads_see_updates=*/false);
    }

    for (auto& [name, bits] : next) {
      const BoundSignal& bs = env.at(name);
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (!bits[i].has_value()) continue;  // bit never assigned: no FF
        SignalId q = bs.bits[i];
        Bit d = *bits[i];
        LatchInit init = LatchInit::kZero;
        if (reset_cond != nullptr) {
          auto ri = reset_map.find(name);
          if (ri != reset_map.end() && i < ri->second.size() &&
              ri->second[i].has_value()) {
            const Bit& rv = *ri->second[i];
            if (!rv.is_const) {
              synth_fail(c.line, "reset value must be constant for " + name);
            }
            init = rv.const_val ? LatchInit::kOne : LatchInit::kZero;
            d = gb_.b_mux(rst, d, rv);
          }
        }
        // New intermediate D signal; the latch drives q.
        SignalId d_sig = gb_.materialize(d);
        net_.add_latch(strprintf("%s_%zu_ff", name.c_str(), i), d_sig, q,
                       clk_sig, init);
      }
    }
    // Registers assigned only in the reset branch but not in the body.
    if (reset_cond != nullptr) {
      for (auto& [name, bits] : reset_map) {
        if (next.count(name)) continue;
        const BoundSignal& bs = env.at(name);
        for (std::size_t i = 0; i < bits.size(); ++i) {
          if (!bits[i].has_value()) continue;
          const Bit& rv = *bits[i];
          if (!rv.is_const) synth_fail(c.line, "reset value must be constant");
          SignalId q = bs.bits[i];
          Bit d = gb_.b_mux(rst, Bit::signal(q), rv);
          net_.add_latch(strprintf("%s_%zu_ff", name.c_str(), i),
                         gb_.materialize(d), q, clk_sig,
                         rv.const_val ? LatchInit::kOne : LatchInit::kZero);
        }
      }
    }
  }

  void synth_combinational(const Concurrent& c, Env& env) {
    partial_targets_.clear();
    AssignMap result =
        exec_block(c.body, env, AssignMap{}, /*reads_see_updates=*/true);
    for (auto& [name, bits] : result) {
      const BoundSignal& bs = env.at(name);
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (!bits[i].has_value()) continue;
        if (partial_targets_.count(strprintf("%s#%zu", name.c_str(), i))) {
          synth_fail(c.line,
                     "signal '" + name + "' is not assigned on every path "
                     "of a combinational process (latch inference is not "
                     "supported)");
        }
        gb_.drive(bs.bits[i], *bits[i], c.line);
      }
    }
  }

  const DesignFile* design_;
  Network& net_;
  GateBuilder gb_;
  int instance_depth_ = 0;
  std::set<std::string> partial_targets_;
};

}  // namespace

Network synthesize(const DesignFile& design, const std::string& top) {
  obs::Span span("vhdl.synth");
  Network net;
  Elaborator elab(design, net);
  elab.elaborate_top(top);
  net.validate();
  static obs::Counter& c_gates = obs::counter("vhdl.gates");
  static obs::Counter& c_latches = obs::counter("vhdl.latches");
  c_gates.add(net.gates().size());
  c_latches.add(net.latches().size());
  if (span.active()) {
    span.metric("gates", static_cast<double>(net.gates().size()));
    span.metric("latches", static_cast<double>(net.latches().size()));
  }
  return net;
}

Network synthesize_vhdl(const std::string& source, const std::string& top,
                        const std::string& filename) {
  DesignFile df = parse_vhdl(source, filename);
  return synthesize(df, top);
}

}  // namespace amdrel::vhdl
