#include "cells/primitives.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::cells {

using spice::kGround;
using spice::MosType;

InverterPorts add_inverter(Circuit& c, const std::string& prefix, NodeId vdd,
                           NodeId in, NodeId out, double wn, double wp) {
  if (wp <= 0) wp = wn * kPnRatio;
  c.add_mosfet(prefix + ".mp", MosType::kPmos, out, in, vdd, wp);
  c.add_mosfet(prefix + ".mn", MosType::kNmos, out, in, kGround, wn);
  return {in, out};
}

Nand2Ports add_nand2(Circuit& c, const std::string& prefix, NodeId vdd,
                     NodeId a, NodeId b, NodeId out, double wn, double wp) {
  if (wp <= 0) wp = wn * kPnRatio;
  // Parallel PMOS pull-up, series NMOS pull-down (a at the bottom).
  c.add_mosfet(prefix + ".mpa", MosType::kPmos, out, a, vdd, wp);
  c.add_mosfet(prefix + ".mpb", MosType::kPmos, out, b, vdd, wp);
  NodeId mid = c.new_node();
  c.add_mosfet(prefix + ".mnb", MosType::kNmos, out, b, mid, 2.0 * wn);
  c.add_mosfet(prefix + ".mna", MosType::kNmos, mid, a, kGround, 2.0 * wn);
  return {a, b, out};
}

void add_tgate(Circuit& c, const std::string& prefix, NodeId a, NodeId b,
               NodeId en, NodeId enb, double wn, double wp) {
  if (wp <= 0) wp = wn * kPnRatio;
  c.add_mosfet(prefix + ".mn", MosType::kNmos, a, en, b, wn);
  c.add_mosfet(prefix + ".mp", MosType::kPmos, a, enb, b, wp);
}

void add_pass_nmos(Circuit& c, const std::string& prefix, NodeId a, NodeId b,
                   NodeId en, double w) {
  c.add_mosfet(prefix + ".mn", MosType::kNmos, a, en, b, w);
}

void add_tristate_inverter(Circuit& c, const std::string& prefix, NodeId vdd,
                           NodeId in, NodeId out, NodeId en, NodeId enb,
                           TriStateType type, double wn, double wp) {
  if (wp <= 0) wp = wn * kPnRatio;
  NodeId pmid = c.new_node();
  NodeId nmid = c.new_node();
  if (type == TriStateType::kClockedAtOutput) {
    // VDD - P(in) - pmid - P(enb) - out ; out - N(en) - nmid - N(in) - GND
    c.add_mosfet(prefix + ".mpd", MosType::kPmos, pmid, in, vdd, wp);
    c.add_mosfet(prefix + ".mpc", MosType::kPmos, out, enb, pmid, wp);
    c.add_mosfet(prefix + ".mnc", MosType::kNmos, out, en, nmid, wn);
    c.add_mosfet(prefix + ".mnd", MosType::kNmos, nmid, in, kGround, wn);
  } else {
    // VDD - P(enb) - pmid - P(in) - out ; out - N(in) - nmid - N(en) - GND
    c.add_mosfet(prefix + ".mpc", MosType::kPmos, pmid, enb, vdd, wp);
    c.add_mosfet(prefix + ".mpd", MosType::kPmos, out, in, pmid, wp);
    c.add_mosfet(prefix + ".mnd", MosType::kNmos, out, in, nmid, wn);
    c.add_mosfet(prefix + ".mnc", MosType::kNmos, nmid, en, kGround, wn);
  }
}

void add_keeper(Circuit& c, const std::string& prefix, NodeId vdd, NodeId a,
                double l_um) {
  NodeId ab = c.node(prefix + ".x");
  const double w = 0.28;
  const double l = l_um;  // long channel → weak
  c.add_mosfet(prefix + ".k1p", MosType::kPmos, ab, a, vdd, w * kPnRatio, l);
  c.add_mosfet(prefix + ".k1n", MosType::kNmos, ab, a, kGround, w, l);
  c.add_mosfet(prefix + ".k2p", MosType::kPmos, a, ab, vdd, w * kPnRatio, l);
  c.add_mosfet(prefix + ".k2n", MosType::kNmos, a, ab, kGround, w, l);
}

NodeId add_buffer_chain(Circuit& c, const std::string& prefix, NodeId vdd,
                        NodeId in, int n_stages, double w_first, double taper) {
  AMDREL_CHECK(n_stages >= 1);
  NodeId cur = in;
  double w = w_first;
  for (int i = 0; i < n_stages; ++i) {
    NodeId next = c.node(strprintf("%s.s%d", prefix.c_str(), i));
    add_inverter(c, strprintf("%s.inv%d", prefix.c_str(), i), vdd, cur, next,
                 w);
    cur = next;
    w *= taper;
  }
  return cur;
}

}  // namespace amdrel::cells
