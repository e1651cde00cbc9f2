#include "netlist/edif.hpp"

#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::netlist {
namespace {

// ---------------------------------------------------------------- S-expr --

struct SExpr {
  // Either an atom (leaf) or a list.
  std::string atom;
  std::vector<SExpr> items;
  bool is_atom = false;
  int line = 0;  ///< where the element starts

  const std::string& head() const {
    static const std::string empty;
    if (items.empty() || !items[0].is_atom) return empty;
    return items[0].atom;
  }
  /// First child list whose head equals `name` (nullptr if none).
  const SExpr* child(const std::string& name) const {
    for (const auto& it : items) {
      if (!it.is_atom && iequals(it.head(), name)) return &it;
    }
    return nullptr;
  }
  /// All child lists whose head equals `name`.
  std::vector<const SExpr*> children(const std::string& name) const {
    std::vector<const SExpr*> out;
    for (const auto& it : items) {
      if (!it.is_atom && iequals(it.head(), name)) out.push_back(&it);
    }
    return out;
  }
  /// Second element as atom (typical "(name value...)" accessor).
  std::string arg() const {
    if (items.size() >= 2 && items[1].is_atom) return items[1].atom;
    return "";
  }
};

class SExprParser {
 public:
  SExprParser(std::istream& in, std::string filename)
      : in_(in), file_(std::move(filename)) {}

  SExpr parse() {
    skip_ws();
    SExpr e = parse_one();
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError(file_, line_, msg);
  }

  int get() {
    int c = in_.get();
    if (c == '\n') ++line_;
    return c;
  }
  int peek() { return in_.peek(); }

  void skip_ws() {
    for (;;) {
      int c = peek();
      if (c == EOF) return;
      if (std::isspace(c)) {
        get();
        continue;
      }
      return;
    }
  }

  SExpr parse_one() {
    skip_ws();
    int c = peek();
    if (c == EOF) fail("unexpected end of file");
    if (c == '(') {
      SExpr list;
      list.line = line_;
      get();
      for (;;) {
        skip_ws();
        c = peek();
        if (c == EOF) fail("unterminated list");
        if (c == ')') {
          get();
          return list;
        }
        list.items.push_back(parse_one());
      }
    }
    if (c == ')') fail("unexpected ')'");
    // Atom (possibly quoted string).
    SExpr atom;
    atom.is_atom = true;
    atom.line = line_;
    if (c == '"') {
      get();
      for (;;) {
        int d = get();
        if (d == EOF) fail("unterminated string");
        if (d == '"') break;
        atom.atom.push_back(static_cast<char>(d));
      }
    } else {
      while (peek() != EOF && !std::isspace(peek()) && peek() != '(' &&
             peek() != ')') {
        atom.atom.push_back(static_cast<char>(get()));
      }
    }
    return atom;
  }

  std::istream& in_;
  std::string file_;
  int line_ = 1;
};

// ---------------------------------------------------------- cell library --

struct StdCell {
  const char* name;
  TruthTable (*make)();
};

TruthTable make_inv() { return TruthTable::inverter(); }
TruthTable make_buf() { return TruthTable::identity(); }
TruthTable make_and2() { return TruthTable::and_n(2); }
TruthTable make_or2() { return TruthTable::or_n(2); }
TruthTable make_nand2() { return TruthTable::and_n(2, true); }
TruthTable make_nor2() { return TruthTable::or_n(2, true); }
TruthTable make_xor2() { return TruthTable::xor_n(2); }
TruthTable make_xnor2() { return TruthTable::xor_n(2, true); }
TruthTable make_and3() { return TruthTable::and_n(3); }
TruthTable make_or3() { return TruthTable::or_n(3); }
TruthTable make_mux2() { return TruthTable::mux2(); }

const StdCell kStdCells[] = {
    {"INV", make_inv},     {"BUF", make_buf},   {"AND2", make_and2},
    {"OR2", make_or2},     {"NAND2", make_nand2}, {"NOR2", make_nor2},
    {"XOR2", make_xor2},   {"XNOR2", make_xnor2}, {"AND3", make_and3},
    {"OR3", make_or3},     {"MUX2", make_mux2},
};

/// Finds a standard cell matching the truth table; returns nullptr if none.
const StdCell* match_std_cell(const TruthTable& t) {
  for (const auto& cell : kStdCells) {
    if (cell.make() == t) return &cell;
  }
  return nullptr;
}

const StdCell* find_std_cell(const std::string& name) {
  for (const auto& cell : kStdCells) {
    if (iequals(cell.name, name)) return &cell;
  }
  return nullptr;
}

/// EDIF identifiers must start with a letter; escape others with '&'.
std::string edif_name(const std::string& raw) {
  std::string out;
  if (raw.empty() || !std::isalpha(static_cast<unsigned char>(raw[0]))) {
    out = "&";
  }
  for (char c : raw) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  return out;
}

}  // namespace

// -------------------------------------------------------------- writing --

void write_edif(const Network& network, std::ostream& out) {
  // Collect the cells used.
  struct UsedLut {
    std::string cell_name;
    const Gate* gate;
  };
  std::map<std::string, const Gate*> lut_cells;  // cell name → exemplar gate
  std::map<std::string, std::string> gate_cell;  // gate name → cell name
  bool uses_dff = !network.latches().empty();

  for (const auto& g : network.gates()) {
    if (const StdCell* cell = match_std_cell(g.table)) {
      gate_cell[g.name] = cell->name;
    } else {
      std::string cell_name =
          strprintf("LUT%d_%s", g.table.n_inputs(), g.table.to_hex().c_str());
      lut_cells.emplace(cell_name, &g);
      gate_cell[g.name] = cell_name;
    }
  }

  out << "(edif " << edif_name(network.name()) << "\n"
      << "  (edifVersion 2 0 0)\n  (edifLevel 0)\n"
      << "  (keywordMap (keywordLevel 0))\n"
      << "  (status (written (timeStamp 2004 1 1 0 0 0)"
      << " (program \"DIVINER\" (version \"1.0\"))))\n";

  // Primitive library.
  out << "  (library PRIMS (edifLevel 0) (technology (numberDefinition))\n";
  auto emit_prim = [&](const std::string& name,
                       const std::vector<std::string>& ins,
                       const std::vector<std::string>& outs,
                       const std::string& truth_prop) {
    out << "    (cell " << name << " (cellType GENERIC)\n"
        << "      (view netlist (viewType NETLIST)\n        (interface";
    for (const auto& p : ins) {
      out << " (port " << p << " (direction INPUT))";
    }
    for (const auto& p : outs) {
      out << " (port " << p << " (direction OUTPUT))";
    }
    out << ")";
    if (!truth_prop.empty()) {
      out << "\n        (property truth (string \"" << truth_prop << "\"))";
    }
    out << "))\n";
  };
  std::set<std::string> emitted;
  for (const auto& [gname, cname] : gate_cell) {
    if (!emitted.insert(cname).second) continue;
    auto lut_it = lut_cells.find(cname);
    if (lut_it != lut_cells.end()) {
      std::vector<std::string> ins;
      for (int i = 0; i < lut_it->second->table.n_inputs(); ++i) {
        ins.push_back(strprintf("I%d", i));
      }
      emit_prim(cname, ins, {"O"},
                strprintf("%d:%s", lut_it->second->table.n_inputs(),
                          lut_it->second->table.to_hex().c_str()));
    } else {
      const StdCell* cell = find_std_cell(cname);
      AMDREL_CHECK(cell != nullptr);
      int n = cell->make().n_inputs();
      std::vector<std::string> ins;
      for (int i = 0; i < n; ++i) ins.push_back(strprintf("I%d", i));
      emit_prim(cname, ins, {"O"}, "");
    }
  }
  if (uses_dff) emit_prim("DFF", {"D", "C"}, {"Q"}, "");
  out << "  )\n";

  // Design library.
  out << "  (library DESIGNS (edifLevel 0) (technology (numberDefinition))\n"
      << "    (cell " << edif_name(network.name()) << " (cellType GENERIC)\n"
      << "      (view netlist (viewType NETLIST)\n"
      << "        (interface\n";
  for (SignalId s : network.inputs()) {
    out << "          (port " << edif_name(network.signal_name(s))
        << " (direction INPUT))\n";
  }
  for (SignalId s : network.outputs()) {
    out << "          (port " << edif_name(network.signal_name(s))
        << " (direction OUTPUT))\n";
  }
  out << "        )\n        (contents\n";

  // Instances.
  for (const auto& g : network.gates()) {
    out << "          (instance " << edif_name("g_" + g.name)
        << " (viewRef netlist (cellRef " << gate_cell[g.name]
        << " (libraryRef PRIMS))))\n";
  }
  for (const auto& l : network.latches()) {
    out << "          (instance " << edif_name("l_" + l.name)
        << " (viewRef netlist (cellRef DFF (libraryRef PRIMS))))\n";
  }

  // Nets: one per signal, joining the driver port and all sink ports.
  for (SignalId s = 0; s < network.num_signals(); ++s) {
    std::vector<std::string> refs;
    // Driver.
    if (network.is_input(s)) {
      refs.push_back("(portRef " + edif_name(network.signal_name(s)) + ")");
    }
    for (const auto& g : network.gates()) {
      if (g.output == s) {
        refs.push_back("(portRef O (instanceRef " + edif_name("g_" + g.name) +
                       "))");
      }
      for (std::size_t i = 0; i < g.inputs.size(); ++i) {
        if (g.inputs[i] == s) {
          refs.push_back(strprintf("(portRef I%zu (instanceRef %s))", i,
                                   edif_name("g_" + g.name).c_str()));
        }
      }
    }
    for (const auto& l : network.latches()) {
      if (l.q == s) {
        refs.push_back("(portRef Q (instanceRef " + edif_name("l_" + l.name) +
                       "))");
      }
      if (l.d == s) {
        refs.push_back("(portRef D (instanceRef " + edif_name("l_" + l.name) +
                       "))");
      }
      if (l.clock == s) {
        refs.push_back("(portRef C (instanceRef " + edif_name("l_" + l.name) +
                       "))");
      }
    }
    if (network.is_output(s)) {
      refs.push_back("(portRef " + edif_name(network.signal_name(s)) + ")");
    }
    if (refs.size() < 2 && !network.is_output(s) && !network.is_input(s)) {
      // Dangling internal net: skip.
      if (refs.empty()) continue;
    }
    out << "          (net " << edif_name(network.signal_name(s))
        << " (joined";
    for (const auto& r : refs) out << " " << r;
    out << "))\n";
  }
  out << "        )))\n  )\n"
      << "  (design " << edif_name(network.name()) << " (cellRef "
      << edif_name(network.name()) << " (libraryRef DESIGNS)))\n)\n";
}

std::string write_edif_string(const Network& network) {
  std::ostringstream out;
  write_edif(network, out);
  return out.str();
}

// -------------------------------------------------------------- reading --

namespace {

/// An interface port is an input unless its (direction ...) says other.
bool is_input_port(const SExpr& port) {
  const SExpr* dir = port.child("direction");
  return dir == nullptr || iequals(dir->arg(), "INPUT");
}

/// Input ports on a primitive cell's interface.
int count_input_ports(const SExpr& view) {
  const SExpr* interface = view.child("interface");
  if (interface == nullptr) return 0;
  int n = 0;
  for (const SExpr* port : interface->children("port")) {
    if (is_input_port(*port)) ++n;
  }
  return n;
}

/// A LUT cell's truth property "N:hex": N inputs, equal to the cell's
/// input port count and at most 16, then the table in hex with row 0 in
/// the last digit's low bit (TruthTable::to_hex) and no bit set past row
/// 2^N - 1.
TruthTable parse_truth(const SExpr& str, int n_ports,
                       const std::string& cell, const std::string& file) {
  const std::string text = str.arg();
  const auto fail = [&](const std::string& why) {
    throw ParseError(file, str.line,
                     "cell " + cell + ": truth '" + text + "': " + why);
  };
  const auto parts = split_char(text, ':');
  if (parts.size() != 2) fail("expected 'N:hex'");
  int n = 0;
  try {
    n = parse_int(parts[0], "input count");
  } catch (const Error& e) {
    fail(e.what());
  }
  if (n < 0 || n > 16) fail("input count must be in [0, 16]");
  if (n != n_ports) {
    fail(strprintf("%d inputs, but the cell has %d input ports", n,
                   n_ports));
  }
  TruthTable t(n);
  const std::string& hex = parts[1];
  if (hex.empty() || hex.size() > (t.n_rows() + 3) / 4) {
    fail(strprintf("expected 1 to %llu hex digits",
                   static_cast<unsigned long long>((t.n_rows() + 3) / 4)));
  }
  for (std::size_t k = 0; k < hex.size(); ++k) {  // k-th digit from the end
    const char c = hex[hex.size() - 1 - k];
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      fail(std::string("'") + c + "' is not a hex digit");
    }
    const int v = std::isdigit(static_cast<unsigned char>(c))
                      ? c - '0'
                      : 10 + (std::tolower(static_cast<unsigned char>(c)) -
                              'a');
    for (int b = 0; b < 4; ++b) {
      if (((v >> b) & 1) == 0) continue;
      const std::uint64_t row = 4 * k + static_cast<std::uint64_t>(b);
      if (row >= t.n_rows()) {
        fail(strprintf("bit of row %llu set, but the table has %llu rows",
                       static_cast<unsigned long long>(row),
                       static_cast<unsigned long long>(t.n_rows())));
      }
      t.set(row, true);
    }
  }
  return t;
}

}  // namespace

Network read_edif(std::istream& in, const std::string& filename) {
  obs::Span span("netlist.read_edif");
  SExprParser parser(in, filename);
  SExpr root = parser.parse();
  if (root.is_atom || !iequals(root.head(), "edif")) {
    throw ParseError(filename, 1, "not an EDIF file");
  }

  Network net(root.arg());

  // Index primitive cells: name → (n_inputs, truth table or std cell).
  struct PrimInfo {
    TruthTable table;
    bool is_dff = false;
  };
  std::map<std::string, PrimInfo> prims;

  const SExpr* design_cell = nullptr;

  for (const SExpr* lib : root.children("library")) {
    for (const SExpr* cell : lib->children("cell")) {
      const std::string cell_name = cell->arg();
      const SExpr* view = cell->child("view");
      if (view == nullptr) continue;
      const SExpr* contents = view->child("contents");
      if (contents != nullptr && !contents->items.empty() &&
          contents->items.size() > 1) {
        // A cell with contents = the design.
        design_cell = cell;
        continue;
      }
      // Primitive.
      PrimInfo info;
      if (iequals(cell_name, "DFF")) {
        info.is_dff = true;
        prims[cell_name] = info;
        continue;
      }
      const SExpr* prop = view->child("property");
      bool have_truth = false;
      if (prop != nullptr && iequals(prop->arg(), "truth")) {
        const SExpr* str = prop->child("string");
        if (str != nullptr) {
          info.table = parse_truth(*str, count_input_ports(*view),
                                   cell_name, filename);
          have_truth = true;
        }
      }
      if (!have_truth) {
        const StdCell* std_cell = find_std_cell(cell_name);
        if (std_cell != nullptr) {
          info.table = std_cell->make();
        } else {
          // Unknown primitive without truth table: skip (DRUID drops
          // vendor-specific helper cells).
          continue;
        }
      }
      prims[cell_name] = info;
    }
  }
  if (design_cell == nullptr) {
    throw ParseError(filename, 1, "no design cell with contents found");
  }

  const SExpr* view = design_cell->child("view");
  const SExpr* interface = view->child("interface");
  const SExpr* contents = view->child("contents");
  AMDREL_CHECK(interface != nullptr && contents != nullptr);

  std::vector<std::pair<std::string, bool>> ports;  // name, is_input
  for (const SExpr* port : interface->children("port")) {
    ports.push_back({port->arg(), is_input_port(*port)});
  }

  // Instances.
  struct Inst {
    std::string cell;
  };
  std::map<std::string, Inst> instances;
  for (const SExpr* inst : contents->children("instance")) {
    const SExpr* view_ref = inst->child("viewRef");
    const SExpr* cell_ref =
        view_ref != nullptr ? view_ref->child("cellRef") : nullptr;
    if (cell_ref == nullptr) continue;
    instances[inst->arg()] = Inst{cell_ref->arg()};
  }

  // Nets → connectivity: for each instance port, which net.
  std::map<std::string, std::map<std::string, std::string>> inst_pins;
  std::map<std::string, std::string> top_port_net;  // port name → net name
  for (const SExpr* n : contents->children("net")) {
    const std::string net_name = n->arg();
    const SExpr* joined = n->child("joined");
    if (joined == nullptr) continue;
    for (const SExpr* pr : joined->children("portRef")) {
      const std::string port_name = pr->arg();
      const SExpr* ir = pr->child("instanceRef");
      if (ir == nullptr) {
        top_port_net[port_name] = net_name;
      } else {
        inst_pins[ir->arg()][port_name] = net_name;
      }
    }
  }

  // Build the network: signals are nets.
  for (const auto& [port, is_input] : ports) {
    auto it = top_port_net.find(port);
    const std::string net_name = it != top_port_net.end() ? it->second : port;
    SignalId s = net.get_or_add_signal(net_name);
    if (is_input) {
      net.add_input(s);
    } else {
      net.add_output(s);
    }
  }
  for (const auto& [iname, inst] : instances) {
    auto prim_it = prims.find(inst.cell);
    if (prim_it == prims.end()) {
      throw ParseError(filename, 1, "instance of unknown cell: " + inst.cell);
    }
    const auto& pins = inst_pins[iname];
    auto pin = [&](const std::string& p) -> SignalId {
      auto it = pins.find(p);
      if (it == pins.end()) return kNoSignal;
      return net.get_or_add_signal(it->second);
    };
    if (prim_it->second.is_dff) {
      SignalId d = pin("D"), q = pin("Q"), c = pin("C");
      if (d == kNoSignal || q == kNoSignal) {
        throw ParseError(filename, 1, "DFF with unconnected D/Q: " + iname);
      }
      net.add_latch(iname, d, q, c, LatchInit::kZero);
    } else {
      const TruthTable& t = prim_it->second.table;
      std::vector<SignalId> ins;
      for (int i = 0; i < t.n_inputs(); ++i) {
        SignalId s = pin(strprintf("I%d", i));
        if (s == kNoSignal) {
          throw ParseError(filename, 1,
                           strprintf("unconnected input I%d on instance %s",
                                     i, iname.c_str()));
        }
        ins.push_back(s);
      }
      SignalId o = pin("O");
      if (o == kNoSignal) {
        throw ParseError(filename, 1, "unconnected output on " + iname);
      }
      net.add_gate(iname, t, std::move(ins), o);
    }
  }
  span.metric("gates", static_cast<double>(net.gates().size()));
  return net;
}

Network read_edif_string(const std::string& text) {
  std::istringstream in(text);
  return read_edif(in);
}

Network read_edif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open EDIF file: " + path);
  return read_edif(in, path);
}

}  // namespace amdrel::netlist
