#include "arch/arch.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::arch {

GridSize size_grid(const ArchSpec& spec, int n_clusters, int n_ios) {
  AMDREL_CHECK(n_clusters >= 0 && n_ios >= 0);
  GridSize g;
  for (int side = 1;; ++side) {
    const int clb_capacity = side * side;
    const int io_capacity = 4 * side * spec.io_per_tile;
    if (clb_capacity >= n_clusters && io_capacity >= n_ios) {
      g.nx = g.ny = side;
      return g;
    }
  }
}

void write_arch(const ArchSpec& spec, std::ostream& out) {
  out << "# DUTYS architecture file — AMDREL island-style FPGA\n";
  out << "name " << spec.name << "\n";
  out << "lut_inputs " << spec.k << "\n";
  out << "cluster_size " << spec.n << "\n";
  out << "gated_clock_ble " << (spec.gated_clock_ble ? 1 : 0) << "\n";
  out << "gated_clock_clb " << (spec.gated_clock_clb ? 1 : 0) << "\n";
  out << "channel_width " << spec.channel_width << "\n";
  out << "segment_length " << spec.segment_length << "\n";
  out << "fs " << spec.fs << "\n";
  out << strprintf("fc_in %.6g\n", spec.fc_in);
  out << strprintf("fc_out %.6g\n", spec.fc_out);
  out << strprintf("switch_width_x %.6g\n", spec.switch_width_x);
  out << "io_per_tile " << spec.io_per_tile << "\n";
  out << strprintf("t_lut %.6g\n", spec.t_lut);
  out << strprintf("t_local_mux %.6g\n", spec.t_local_mux);
  out << strprintf("t_ff_clk_q %.6g\n", spec.t_ff_clk_q);
  out << strprintf("t_ff_setup %.6g\n", spec.t_ff_setup);
  out << strprintf("r_switch %.6g\n", spec.r_switch);
  out << strprintf("c_switch %.6g\n", spec.c_switch);
  out << strprintf("r_wire_tile %.6g\n", spec.r_wire_tile);
  out << strprintf("c_wire_tile %.6g\n", spec.c_wire_tile);
  out << strprintf("t_io %.6g\n", spec.t_io);
}

std::string write_arch_string(const ArchSpec& spec) {
  std::ostringstream out;
  write_arch(spec, out);
  return out.str();
}

ArchSpec read_arch(std::istream& in, const std::string& filename) {
  ArchSpec spec;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    if (tokens.size() != 2) {
      throw ParseError(filename, lineno, "expected 'key value'");
    }
    const std::string& key = tokens[0];
    const std::string& val = tokens[1];
    // Every value is parsed whole and range-checked on its own line, so a
    // bad one is a ParseError naming that line (and can never reach
    // size_grid or the RR graph as a zero or negative capacity).
    const auto parse = [&](auto parse_number) {
      try {
        return parse_number(val, key);
      } catch (const Error& e) {
        throw ParseError(filename, lineno, e.what());
      }
    };
    const auto as_int = [&](int lo, int hi) {
      const int v = parse(parse_int);
      if (v < lo || v > hi) {
        throw ParseError(filename, lineno,
                         strprintf("%s must be in [%d, %d], got %d",
                                   key.c_str(), lo, hi, v));
      }
      return v;
    };
    const auto as_double = [&](bool positive, double hi, const char* range) {
      const double v = parse(parse_double);
      if (!std::isfinite(v) || (positive ? v <= 0.0 : v < 0.0) || v > hi) {
        throw ParseError(filename, lineno,
                         key + " must be " + range + ", got '" + val + "'");
      }
      return v;
    };
    const auto as_flag = [&] { return as_int(0, 1) != 0; };
    const double inf = std::numeric_limits<double>::infinity();
    const auto fraction = [&] { return as_double(true, 1.0, "in (0, 1]"); };
    const auto positive = [&] {
      return as_double(true, inf, "finite and positive");
    };
    const auto non_negative = [&] {
      return as_double(false, inf, "finite and non-negative");
    };
    if (key == "name") spec.name = val;
    else if (key == "lut_inputs") spec.k = as_int(2, 8);
    else if (key == "cluster_size") spec.n = as_int(1, 64);
    else if (key == "gated_clock_ble") spec.gated_clock_ble = as_flag();
    else if (key == "gated_clock_clb") spec.gated_clock_clb = as_flag();
    else if (key == "channel_width") spec.channel_width = as_int(2, 1024);
    else if (key == "segment_length") spec.segment_length = as_int(1, 64);
    else if (key == "fs") spec.fs = as_int(1, 64);
    else if (key == "fc_in") spec.fc_in = fraction();
    else if (key == "fc_out") spec.fc_out = fraction();
    else if (key == "switch_width_x") spec.switch_width_x = positive();
    else if (key == "io_per_tile") spec.io_per_tile = as_int(1, 64);
    else if (key == "t_lut") spec.t_lut = non_negative();
    else if (key == "t_local_mux") spec.t_local_mux = non_negative();
    else if (key == "t_ff_clk_q") spec.t_ff_clk_q = non_negative();
    else if (key == "t_ff_setup") spec.t_ff_setup = non_negative();
    else if (key == "r_switch") spec.r_switch = non_negative();
    else if (key == "c_switch") spec.c_switch = non_negative();
    else if (key == "r_wire_tile") spec.r_wire_tile = non_negative();
    else if (key == "c_wire_tile") spec.c_wire_tile = non_negative();
    else if (key == "t_io") spec.t_io = non_negative();
    else throw ParseError(filename, lineno, "unknown key: " + key);
  }
  return spec;
}

ArchSpec read_arch_string(const std::string& text) {
  std::istringstream in(text);
  return read_arch(in);
}

}  // namespace amdrel::arch
