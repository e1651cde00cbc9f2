#include "netlist/blif.hpp"

#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::netlist {
namespace {

struct Cover {
  std::string output;
  std::vector<std::string> inputs;
  std::vector<std::pair<std::string, char>> cubes;  // (input pattern, out)
  int line = 0;
};

TruthTable cover_to_table(const Cover& cover, const std::string& file) {
  const int n = static_cast<int>(cover.inputs.size());
  if (n > 16) {
    throw ParseError(file, cover.line,
                     strprintf("gate '%s' has too many inputs (%d > 16)",
                               cover.output.c_str(), n));
  }
  // Decide polarity: all cube outputs must agree (standard BLIF).
  bool on_set = true;
  if (!cover.cubes.empty()) {
    on_set = cover.cubes.front().second == '1';
    for (const auto& [pat, out] : cover.cubes) {
      if ((out == '1') != on_set) {
        throw ParseError(file, cover.line,
                         "mixed on-set/off-set cover for '" + cover.output +
                             "'");
      }
    }
  } else {
    // Empty cover = constant 0 (".names x" with no cubes).
    on_set = true;
  }

  TruthTable t(n);
  for (std::uint64_t row = 0; row < t.n_rows(); ++row) {
    bool covered = false;
    for (const auto& [pat, out] : cover.cubes) {
      bool match = true;
      for (int i = 0; i < n; ++i) {
        const char c = pat[static_cast<std::size_t>(i)];
        const bool bit = (row >> i) & 1;
        if (c == '-') continue;
        if ((c == '1') != bit) {
          match = false;
          break;
        }
      }
      if (match) {
        covered = true;
        break;
      }
    }
    t.set(row, on_set ? covered : !covered);
  }
  return t;
}

}  // namespace

Network read_blif(std::istream& in, const std::string& filename) {
  obs::Span span("netlist.read_blif");
  Network net;
  bool saw_model = false, saw_end = false;
  std::vector<std::string> input_names, output_names;
  std::vector<Cover> covers;
  struct RawLatch {
    std::string d, q, clock;
    LatchInit init;
    int line;
  };
  std::vector<RawLatch> raw_latches;

  std::string line;
  std::string pending;
  int lineno = 0;
  int first_pending_line = 0;
  int open_cover = -1;  // index into covers (stable across reallocation)

  auto flush_pending = [&]() { pending.clear(); };

  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments.
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Handle continuations.
    std::string t = trim(line);
    if (!t.empty() && t.back() == '\\') {
      if (pending.empty()) first_pending_line = lineno;
      pending += t.substr(0, t.size() - 1) + " ";
      continue;
    }
    std::string full = pending + t;
    int at_line = pending.empty() ? lineno : first_pending_line;
    flush_pending();
    if (full.empty()) continue;

    auto tokens = split_ws(full);
    if (tokens.empty()) continue;
    const std::string& head = tokens[0];

    if (head == ".model") {
      if (tokens.size() >= 2) net.set_name(tokens[1]);
      saw_model = true;
      open_cover = -1;
    } else if (head == ".inputs") {
      input_names.insert(input_names.end(), tokens.begin() + 1, tokens.end());
      open_cover = -1;
    } else if (head == ".outputs") {
      output_names.insert(output_names.end(), tokens.begin() + 1,
                          tokens.end());
      open_cover = -1;
    } else if (head == ".names") {
      if (tokens.size() < 2) {
        throw ParseError(filename, at_line, ".names needs an output");
      }
      Cover c;
      c.output = tokens.back();
      c.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
      c.line = at_line;
      covers.push_back(std::move(c));
      open_cover = static_cast<int>(covers.size()) - 1;
    } else if (head == ".latch") {
      // .latch <input> <output> [<type> <control>] [<init>]
      if (tokens.size() < 3) {
        throw ParseError(filename, at_line, ".latch needs input and output");
      }
      RawLatch l;
      l.d = tokens[1];
      l.q = tokens[2];
      l.init = LatchInit::kDontCare;
      std::size_t idx = 3;
      if (tokens.size() >= 5 &&
          (tokens[3] == "re" || tokens[3] == "fe" || tokens[3] == "ah" ||
           tokens[3] == "al" || tokens[3] == "as")) {
        l.clock = tokens[4];
        idx = 5;
      }
      if (tokens.size() > idx) {
        const std::string& init = tokens[idx];
        if (init == "0") l.init = LatchInit::kZero;
        else if (init == "1") l.init = LatchInit::kOne;
        else l.init = LatchInit::kDontCare;
      }
      l.line = at_line;
      raw_latches.push_back(std::move(l));
      open_cover = -1;
    } else if (head == ".end") {
      saw_end = true;
      open_cover = -1;
      break;
    } else if (head[0] == '.') {
      // Unknown directive (e.g. .clock, .default_input_arrival): ignored but
      // closes any open cover.
      open_cover = -1;
    } else {
      // Cube line for the open cover.
      if (open_cover < 0) {
        throw ParseError(filename, at_line, "cube outside .names: " + full);
      }
      Cover& oc = covers[static_cast<std::size_t>(open_cover)];
      if (oc.inputs.empty()) {
        // Constant: single column "1" or "0".
        if (tokens.size() != 1 || (tokens[0] != "0" && tokens[0] != "1")) {
          throw ParseError(filename, at_line, "bad constant cube: " + full);
        }
        oc.cubes.push_back({"", tokens[0][0]});
      } else {
        if (tokens.size() != 2 || tokens[0].size() != oc.inputs.size()) {
          throw ParseError(filename, at_line, "bad cube: " + full);
        }
        for (char c : tokens[0]) {
          if (c != '0' && c != '1' && c != '-') {
            throw ParseError(filename, at_line, "bad cube literal: " + full);
          }
        }
        if (tokens[1] != "0" && tokens[1] != "1") {
          throw ParseError(filename, at_line, "bad cube output: " + full);
        }
        oc.cubes.push_back({tokens[0], tokens[1][0]});
      }
    }
  }
  if (!saw_model) throw ParseError(filename, 1, "missing .model");
  (void)saw_end;  // .end is optional in practice

  for (const auto& name : input_names) {
    net.add_input(net.get_or_add_signal(name));
  }
  for (const auto& c : covers) {
    std::vector<SignalId> ins;
    ins.reserve(c.inputs.size());
    for (const auto& n : c.inputs) ins.push_back(net.get_or_add_signal(n));
    SignalId out = net.get_or_add_signal(c.output);
    net.add_gate(c.output, cover_to_table(c, filename), std::move(ins), out);
  }
  for (const auto& l : raw_latches) {
    SignalId d = net.get_or_add_signal(l.d);
    SignalId q = net.get_or_add_signal(l.q);
    SignalId clk = l.clock.empty() || l.clock == "NIL"
                       ? kNoSignal
                       : net.get_or_add_signal(l.clock);
    net.add_latch(l.q, d, q, clk, l.init);
  }
  for (const auto& name : output_names) {
    SignalId s = net.find_signal(name);
    if (s == kNoSignal) {
      throw ParseError(filename, lineno, "undriven output: " + name);
    }
    net.add_output(s);
  }
  span.metric("gates", static_cast<double>(net.gates().size()));
  return net;
}

Network read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open BLIF file: " + path);
  return read_blif(in, path);
}

Network read_blif_string(const std::string& text) {
  std::istringstream in(text);
  return read_blif(in);
}

void write_blif(const Network& network, std::ostream& out) {
  out << ".model " << network.name() << "\n";
  out << ".inputs";
  for (SignalId s : network.inputs()) out << " " << network.signal_name(s);
  out << "\n.outputs";
  for (SignalId s : network.outputs()) out << " " << network.signal_name(s);
  out << "\n";
  for (const auto& l : network.latches()) {
    out << ".latch " << network.signal_name(l.d) << " "
        << network.signal_name(l.q);
    if (l.clock != kNoSignal) {
      out << " re " << network.signal_name(l.clock);
    }
    switch (l.init) {
      case LatchInit::kZero: out << " 0"; break;
      case LatchInit::kOne: out << " 1"; break;
      case LatchInit::kDontCare: out << " 2"; break;
    }
    out << "\n";
  }
  for (const auto& g : network.gates()) {
    out << ".names";
    for (SignalId s : g.inputs) out << " " << network.signal_name(s);
    out << " " << network.signal_name(g.output) << "\n";
    // Emit the on-set minterms (or "0"-cover if the on-set is everything
    // but small off-set... keep it simple: on-set minterms; constant-1 uses
    // the empty-pattern form).
    if (g.table.n_inputs() == 0) {
      if (g.table.constant_value()) out << "1\n";
      // constant 0: no cubes
    } else {
      for (std::uint64_t row = 0; row < g.table.n_rows(); ++row) {
        if (!g.table.get(row)) continue;
        std::string pat(static_cast<std::size_t>(g.table.n_inputs()), '0');
        for (int i = 0; i < g.table.n_inputs(); ++i) {
          if ((row >> i) & 1) pat[static_cast<std::size_t>(i)] = '1';
        }
        out << pat << " 1\n";
      }
    }
  }
  out << ".end\n";
}

std::string write_blif_string(const Network& network) {
  std::ostringstream out;
  write_blif(network, out);
  return out.str();
}

}  // namespace amdrel::netlist
