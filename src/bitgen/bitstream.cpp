#include "bitgen/bitstream.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::bitgen {

using netlist::kNoSignal;
using netlist::LatchInit;
using netlist::Network;
using netlist::SignalId;
using netlist::TruthTable;
using place::BlockKind;
using route::RrNode;
using route::RrType;

long long Bitstream::config_bits() const {
  long long bits = 0;
  const int lut_bits_n = 1 << k;
  const int sel_bits = 6;  // enough for I + N + "unused"
  for (const auto& clb : clbs) {
    bits += 1;  // CLB clock enable
    bits += static_cast<long long>(clb.bles.size()) *
            (lut_bits_n + 3 + k * sel_bits);
  }
  bits += static_cast<long long>(wire_switches.size() +
                                 opin_switches.size() + ipin_switches.size());
  return bits;
}

namespace {

WireRef wire_of(const RrNode& n) {
  WireRef w;
  w.horizontal = n.type == RrType::kChanX;
  w.x = n.x;
  w.y = n.y;
  w.track = n.track;
  return w;
}

// Walks every routed edge and classifies the switch it configures, in
// the canonical order: nets ascending, tree order within a net,
// wire-wire switches deduplicated to their first occurrence. Repeated
// scans therefore yield identical sequences — the streaming emitter
// relies on that. Fills the per-cluster signal→IPIN map if requested.
template <typename WwFn, typename OpFn, typename IpFn>
void scan_switches(const place::Placement& placement,
                   const route::RrGraph& graph,
                   const route::RouteResult& routing,
                   std::map<int, std::map<SignalId, int>>* ipin_of, WwFn&& ww,
                   OpFn&& op, IpFn&& ip) {
  std::set<std::tuple<bool, int, int, int, bool, int, int, int>> seen_ww;
  for (std::size_t ni = 0; ni < routing.routes.size(); ++ni) {
    const auto& route = routing.routes[ni];
    const SignalId sig = placement.nets()[ni].signal;
    for (std::size_t kk = 1; kk < route.nodes.size(); ++kk) {
      const RrNode child = graph.node_info(route.nodes[kk]);
      const RrNode parent = graph.node_info(
          route.nodes[static_cast<std::size_t>(route.parent[kk])]);
      const bool child_wire =
          child.type == RrType::kChanX || child.type == RrType::kChanY;
      const bool parent_wire =
          parent.type == RrType::kChanX || parent.type == RrType::kChanY;
      if (parent_wire && child_wire) {
        WireWireSwitch sw{wire_of(parent), wire_of(child)};
        if (sw.b < sw.a) std::swap(sw.a, sw.b);
        auto key = std::tuple_cat(sw.a.key(), sw.b.key());
        if (seen_ww.insert(key).second) ww(sw);
      } else if (parent.type == RrType::kOpin && child_wire) {
        const auto& loc = placement.location(parent.block);
        op(OpinSwitch{loc.x, loc.y, parent.pin, wire_of(child)});
      } else if (parent_wire && child.type == RrType::kIpin) {
        const auto& loc = placement.location(child.block);
        ip(IpinSwitch{wire_of(parent), loc.x, loc.y, child.pin});
        if (ipin_of != nullptr &&
            placement.blocks()[static_cast<std::size_t>(child.block)].kind ==
                BlockKind::kClb) {
          (*ipin_of)[child.block][sig] = child.pin;
        }
      }
      // IPIN→SINK edges carry no configuration.
    }
  }
}

// Global clock: the latch clock signal (paper fabric: one clock/CLB).
std::string detect_clock(const Network& net) {
  std::set<SignalId> clocks;
  for (const auto& l : net.latches()) {
    if (l.clock != kNoSignal) clocks.insert(l.clock);
  }
  AMDREL_CHECK_MSG(clocks.size() <= 1,
                   "bitstream supports a single global clock");
  return clocks.empty() ? std::string() : net.signal_name(*clocks.begin());
}

// One CLB's configuration frame — the only per-tile state either
// emission path (materialized or streaming) ever holds.
ClbConfig make_clb_config(
    const pack::PackedNetlist& packed, const place::Placement& placement,
    const arch::ArchSpec& spec, int ci,
    const std::map<int, std::map<SignalId, int>>& ipin_of) {
  const Network& net = packed.network();
  const auto& cluster = packed.clusters()[static_cast<std::size_t>(ci)];
  const int block = placement.block_of_cluster(ci);
  const auto& loc = placement.location(block);
  ClbConfig clb;
  clb.x = loc.x;
  clb.y = loc.y;
  clb.bles.resize(static_cast<std::size_t>(spec.n));

  // BLE slot of each intra-cluster signal (for feedback selects).
  std::map<SignalId, int> slot_of;
  for (std::size_t s = 0; s < cluster.bles.size(); ++s) {
    slot_of[packed.bles()[static_cast<std::size_t>(cluster.bles[s])].output] =
        static_cast<int>(s);
  }

  for (std::size_t s = 0; s < cluster.bles.size(); ++s) {
    const auto& ble = packed.bles()[static_cast<std::size_t>(cluster.bles[s])];
    BleConfig& cfg = clb.bles[s];
    cfg.used = true;
    cfg.input_sel.assign(static_cast<std::size_t>(spec.k), -1);

    // LUT function: the mapped LUT, or a route-through for FF-only BLEs.
    TruthTable tt = TruthTable::identity();
    std::vector<SignalId> lut_inputs = ble.inputs;
    if (ble.lut_gate >= 0) {
      tt = net.gates()[static_cast<std::size_t>(ble.lut_gate)].table;
    }
    AMDREL_CHECK(static_cast<int>(lut_inputs.size()) <= spec.k);
    // Expand to K inputs (don't-care padding).
    while (tt.n_inputs() < spec.k) tt = tt.extend(tt.n_inputs() + 1);
    cfg.lut_bits = 0;
    for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
      if (tt.get(row)) cfg.lut_bits |= 1u << row;
    }
    for (std::size_t i = 0; i < lut_inputs.size(); ++i) {
      const SignalId in = lut_inputs[i];
      auto fb = slot_of.find(in);
      if (fb != slot_of.end()) {
        cfg.input_sel[i] = spec.cluster_inputs() + fb->second;
      } else {
        static const std::map<SignalId, int> kNoPins;
        auto pm = ipin_of.find(block);
        const auto& pin_map = pm == ipin_of.end() ? kNoPins : pm->second;
        auto it = pin_map.find(in);
        AMDREL_CHECK_MSG(it != pin_map.end(),
                         "cluster input signal was not routed to a pin: " +
                             net.signal_name(in));
        cfg.input_sel[i] = it->second;
      }
    }
    if (ble.latch >= 0) {
      const auto& l = net.latches()[static_cast<std::size_t>(ble.latch)];
      cfg.use_ff = true;
      cfg.ff_init = l.init == LatchInit::kOne;
      cfg.clock_enable = true;
      clb.clb_clock_enable = true;
    }
  }
  return clb;
}

}  // namespace

Bitstream generate_bitstream(const pack::PackedNetlist& packed,
                             const place::Placement& placement,
                             const route::RrGraph& graph,
                             const route::RouteResult& routing,
                             const arch::ArchSpec& spec) {
  AMDREL_CHECK_MSG(routing.success, "cannot generate bitstream: unrouted");
  AMDREL_CHECK_MSG(spec.k <= 5, "bitstream frame format supports K <= 5");
  obs::Span span("bitgen.generate");
  const Network& net = packed.network();

  Bitstream bs;
  bs.design = net.name();
  bs.nx = placement.nx();
  bs.ny = placement.ny();
  bs.channel_width = graph.channel_width();
  bs.k = spec.k;
  bs.n = spec.n;
  bs.cluster_inputs = spec.cluster_inputs();
  bs.clock_name = detect_clock(net);

  // ---- pads ----
  for (std::size_t bi = 0; bi < placement.blocks().size(); ++bi) {
    const auto& blk = placement.blocks()[bi];
    if (blk.kind == BlockKind::kClb) continue;
    const auto& loc = placement.location(static_cast<int>(bi));
    PadConfig pad;
    pad.x = loc.x;
    pad.y = loc.y;
    pad.sub = loc.sub;
    pad.is_input = blk.kind == BlockKind::kInputPad;
    pad.signal = net.signal_name(blk.signal);
    bs.pads.push_back(std::move(pad));
  }

  // ---- routing switches + per-cluster signal→IPIN map ----
  // ipin_of[cluster block][signal] = input pin index carrying it.
  std::map<int, std::map<SignalId, int>> ipin_of;
  scan_switches(
      placement, graph, routing, &ipin_of,
      [&](const WireWireSwitch& s) { bs.wire_switches.push_back(s); },
      [&](const OpinSwitch& s) { bs.opin_switches.push_back(s); },
      [&](const IpinSwitch& s) { bs.ipin_switches.push_back(s); });

  // ---- CLB frames ----
  for (std::size_t ci = 0; ci < packed.clusters().size(); ++ci) {
    bs.clbs.push_back(
        make_clb_config(packed, placement, spec, static_cast<int>(ci),
                        ipin_of));
  }
  const std::uint64_t switches = bs.wire_switches.size() +
                                 bs.opin_switches.size() +
                                 bs.ipin_switches.size();
  static obs::Counter& c_switches = obs::counter("bitgen.switches");
  static obs::Counter& c_bits = obs::counter("bitgen.config_bits");
  c_switches.add(switches);
  c_bits.add(static_cast<std::uint64_t>(bs.config_bits()));
  if (span.active()) {
    span.metric("switches", static_cast<double>(switches));
    span.metric("config_bits", static_cast<double>(bs.config_bits()));
    span.metric("clbs", static_cast<double>(bs.clbs.size()));
  }
  return bs;
}

// --------------------------------------------------------- serialization --

void FileSink::put(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  AMDREL_CHECK_MSG(std::fwrite(data, 1, n, file_) == n,
                   "bitstream file write failed");
}

namespace {

/// Buffered little-endian writer over a BitSink.
class ByteWriter {
 public:
  explicit ByteWriter(BitSink* sink) : sink_(sink) { buf_.reserve(kBufSize); }
  ~ByteWriter() { flush(); }
  void u8(std::uint8_t v) {
    if (buf_.size() == kBufSize) flush();
    buf_.push_back(v);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (char c : s) u8(static_cast<std::uint8_t>(c));
  }
  void flush() {
    if (!buf_.empty()) {
      sink_->write(buf_.data(), buf_.size());
      buf_.clear();
    }
  }

 private:
  static constexpr std::size_t kBufSize = 1 << 16;
  BitSink* sink_;
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(&bytes) {}
  std::uint8_t u8() {
    AMDREL_CHECK_MSG(pos_ < bytes_->size(), "bitstream truncated");
    return (*bytes_)[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::string str() {
    std::uint32_t n = u32();
    AMDREL_CHECK_MSG(pos_ + n <= bytes_->size(), "bitstream truncated");
    std::string s(reinterpret_cast<const char*>(bytes_->data() + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;
};

constexpr std::uint32_t kMagic = 0x4c444d41;  // "AMDL"

void put_wire(ByteWriter& w, const WireRef& wire) {
  w.u8(wire.horizontal ? 1 : 0);
  w.i32(wire.x);
  w.i32(wire.y);
  w.i32(wire.track);
}

WireRef get_wire(ByteReader& r) {
  WireRef w;
  w.horizontal = r.u8() != 0;
  w.x = r.i32();
  w.y = r.i32();
  w.track = r.i32();
  return w;
}

void put_header(ByteWriter& w, const std::string& design, int nx, int ny,
                int channel_width, int k, int n, int cluster_inputs,
                const std::string& clock_name) {
  w.u32(kMagic);
  w.str(design);
  w.i32(nx);
  w.i32(ny);
  w.i32(channel_width);
  w.i32(k);
  w.i32(n);
  w.i32(cluster_inputs);
  w.str(clock_name);
}

void put_pad(ByteWriter& w, const PadConfig& p) {
  w.i32(p.x);
  w.i32(p.y);
  w.i32(p.sub);
  w.u8(p.is_input ? 1 : 0);
  w.str(p.signal);
}

void put_clb(ByteWriter& w, const ClbConfig& clb) {
  w.i32(clb.x);
  w.i32(clb.y);
  w.u8(clb.clb_clock_enable ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(clb.bles.size()));
  for (const auto& b : clb.bles) {
    w.u8(b.used ? 1 : 0);
    w.u32(b.lut_bits);
    w.u8(b.use_ff ? 1 : 0);
    w.u8(b.ff_init ? 1 : 0);
    w.u8(b.clock_enable ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(b.input_sel.size()));
    for (int sel : b.input_sel) w.i32(sel);
  }
}

void put_ww(ByteWriter& w, const WireWireSwitch& s) {
  put_wire(w, s.a);
  put_wire(w, s.b);
}

void put_op(ByteWriter& w, const OpinSwitch& s) {
  w.i32(s.x);
  w.i32(s.y);
  w.i32(s.pin);
  put_wire(w, s.wire);
}

void put_ip(ByteWriter& w, const IpinSwitch& s) {
  put_wire(w, s.wire);
  w.i32(s.x);
  w.i32(s.y);
  w.i32(s.pin);
}

}  // namespace

void serialize_to(const Bitstream& bs, BitSink* sink) {
  AMDREL_CHECK(sink != nullptr);
  obs::Span span("bitgen.serialize");
  const std::uint64_t start = sink->bytes_written();
  {
    ByteWriter w(sink);
    put_header(w, bs.design, bs.nx, bs.ny, bs.channel_width, bs.k, bs.n,
               bs.cluster_inputs, bs.clock_name);
    w.u32(static_cast<std::uint32_t>(bs.pads.size()));
    for (const auto& p : bs.pads) put_pad(w, p);
    w.u32(static_cast<std::uint32_t>(bs.clbs.size()));
    for (const auto& clb : bs.clbs) put_clb(w, clb);
    w.u32(static_cast<std::uint32_t>(bs.wire_switches.size()));
    for (const auto& s : bs.wire_switches) put_ww(w, s);
    w.u32(static_cast<std::uint32_t>(bs.opin_switches.size()));
    for (const auto& s : bs.opin_switches) put_op(w, s);
    w.u32(static_cast<std::uint32_t>(bs.ipin_switches.size()));
    for (const auto& s : bs.ipin_switches) put_ip(w, s);
  }
  const std::uint64_t bytes = sink->bytes_written() - start;
  static obs::Counter& c_bytes = obs::counter("bitgen.bytes");
  c_bytes.add(bytes);
  if (span.active()) {
    span.metric("bytes", static_cast<double>(bytes));
  }
}

std::vector<std::uint8_t> serialize(const Bitstream& bs) {
  VectorSink sink;
  serialize_to(bs, &sink);
  return sink.take();
}

void stream_bitstream(const pack::PackedNetlist& packed,
                      const place::Placement& placement,
                      const route::RrGraph& graph,
                      const route::RouteResult& routing,
                      const arch::ArchSpec& spec, BitSink* sink) {
  AMDREL_CHECK_MSG(routing.success, "cannot generate bitstream: unrouted");
  AMDREL_CHECK_MSG(spec.k <= 5, "bitstream frame format supports K <= 5");
  AMDREL_CHECK(sink != nullptr);
  obs::Span span("bitgen.stream");
  const Network& net = packed.network();
  const std::uint64_t start = sink->bytes_written();

  // Count pass: section sizes plus the signal→IPIN map CLB frames need.
  std::uint32_t n_ww = 0, n_op = 0, n_ip = 0;
  std::map<int, std::map<SignalId, int>> ipin_of;
  scan_switches(placement, graph, routing, &ipin_of,
                [&](const WireWireSwitch&) { ++n_ww; },
                [&](const OpinSwitch&) { ++n_op; },
                [&](const IpinSwitch&) { ++n_ip; });

  ByteWriter w(sink);
  put_header(w, net.name(), placement.nx(), placement.ny(),
             graph.channel_width(), spec.k, spec.n, spec.cluster_inputs(),
             detect_clock(net));

  std::uint32_t n_pads = 0;
  for (const auto& blk : placement.blocks()) {
    n_pads += blk.kind != BlockKind::kClb;
  }
  w.u32(n_pads);
  for (std::size_t bi = 0; bi < placement.blocks().size(); ++bi) {
    const auto& blk = placement.blocks()[bi];
    if (blk.kind == BlockKind::kClb) continue;
    const auto& loc = placement.location(static_cast<int>(bi));
    PadConfig pad;
    pad.x = loc.x;
    pad.y = loc.y;
    pad.sub = loc.sub;
    pad.is_input = blk.kind == BlockKind::kInputPad;
    pad.signal = net.signal_name(blk.signal);
    put_pad(w, pad);
  }

  // CLB frames, one tile at a time.
  w.u32(static_cast<std::uint32_t>(packed.clusters().size()));
  for (std::size_t ci = 0; ci < packed.clusters().size(); ++ci) {
    put_clb(w, make_clb_config(packed, placement, spec,
                               static_cast<int>(ci), ipin_of));
  }

  // Switch sections: one emit pass per section, canonical scan order.
  auto drop_ww = [](const WireWireSwitch&) {};
  auto drop_op = [](const OpinSwitch&) {};
  auto drop_ip = [](const IpinSwitch&) {};
  w.u32(n_ww);
  scan_switches(placement, graph, routing, nullptr,
                [&](const WireWireSwitch& s) { put_ww(w, s); }, drop_op,
                drop_ip);
  w.u32(n_op);
  scan_switches(placement, graph, routing, nullptr, drop_ww,
                [&](const OpinSwitch& s) { put_op(w, s); }, drop_ip);
  w.u32(n_ip);
  scan_switches(placement, graph, routing, nullptr, drop_ww, drop_op,
                [&](const IpinSwitch& s) { put_ip(w, s); });
  w.flush();

  const std::uint64_t bytes = sink->bytes_written() - start;
  static obs::Counter& c_switches = obs::counter("bitgen.switches");
  static obs::Counter& c_bytes = obs::counter("bitgen.bytes");
  c_switches.add(n_ww + n_op + n_ip);
  c_bytes.add(bytes);
  if (span.active()) {
    span.metric("bytes", static_cast<double>(bytes));
    span.metric("switches", static_cast<double>(n_ww + n_op + n_ip));
  }
}

Bitstream deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  AMDREL_CHECK_MSG(r.u32() == kMagic, "not an AMDREL bitstream");
  Bitstream bs;
  bs.design = r.str();
  bs.nx = r.i32();
  bs.ny = r.i32();
  bs.channel_width = r.i32();
  bs.k = r.i32();
  bs.n = r.i32();
  bs.cluster_inputs = r.i32();
  bs.clock_name = r.str();

  const std::uint32_t n_pads = r.u32();
  for (std::uint32_t i = 0; i < n_pads; ++i) {
    PadConfig p;
    p.x = r.i32();
    p.y = r.i32();
    p.sub = r.i32();
    p.is_input = r.u8() != 0;
    p.signal = r.str();
    bs.pads.push_back(std::move(p));
  }
  const std::uint32_t n_clbs = r.u32();
  for (std::uint32_t i = 0; i < n_clbs; ++i) {
    ClbConfig clb;
    clb.x = r.i32();
    clb.y = r.i32();
    clb.clb_clock_enable = r.u8() != 0;
    const std::uint32_t n_bles = r.u32();
    for (std::uint32_t j = 0; j < n_bles; ++j) {
      BleConfig b;
      b.used = r.u8() != 0;
      b.lut_bits = r.u32();
      b.use_ff = r.u8() != 0;
      b.ff_init = r.u8() != 0;
      b.clock_enable = r.u8() != 0;
      const std::uint32_t n_sel = r.u32();
      for (std::uint32_t s = 0; s < n_sel; ++s) b.input_sel.push_back(r.i32());
      clb.bles.push_back(std::move(b));
    }
    bs.clbs.push_back(std::move(clb));
  }
  const std::uint32_t n_ww = r.u32();
  for (std::uint32_t i = 0; i < n_ww; ++i) {
    WireWireSwitch s;
    s.a = get_wire(r);
    s.b = get_wire(r);
    bs.wire_switches.push_back(s);
  }
  const std::uint32_t n_op = r.u32();
  for (std::uint32_t i = 0; i < n_op; ++i) {
    OpinSwitch s;
    s.x = r.i32();
    s.y = r.i32();
    s.pin = r.i32();
    s.wire = get_wire(r);
    bs.opin_switches.push_back(s);
  }
  const std::uint32_t n_ip = r.u32();
  for (std::uint32_t i = 0; i < n_ip; ++i) {
    IpinSwitch s;
    s.wire = get_wire(r);
    s.x = r.i32();
    s.y = r.i32();
    s.pin = r.i32();
    bs.ipin_switches.push_back(s);
  }
  return bs;
}

// ------------------------------------------------------- fabric decoding --

Network decode_to_network(const Bitstream& bs) {
  Network net(bs.design + "_decoded");

  // Union-find over wire segments to recover net connectivity.
  std::map<WireRef, int> wire_ids;
  auto wire_id = [&](const WireRef& w) {
    auto it = wire_ids.find(w);
    if (it != wire_ids.end()) return it->second;
    int id = static_cast<int>(wire_ids.size());
    wire_ids.emplace(w, id);
    return id;
  };
  std::vector<int> parent;
  std::function<int(int)> find = [&](int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  };
  auto ensure = [&](int id) {
    while (static_cast<int>(parent.size()) <= id) {
      parent.push_back(static_cast<int>(parent.size()));
    }
  };
  auto unite = [&](int a, int b) {
    ensure(std::max(a, b));
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
  };
  for (const auto& s : bs.wire_switches) {
    int a = wire_id(s.a), b = wire_id(s.b);
    ensure(std::max(a, b));
    unite(a, b);
  }
  // Make sure isolated wires referenced only by pin switches exist.
  for (const auto& s : bs.opin_switches) ensure(wire_id(s.wire));
  for (const auto& s : bs.ipin_switches) ensure(wire_id(s.wire));

  // ---- create PIs and clock ----
  std::map<std::string, SignalId> pi_signal;
  for (const auto& pad : bs.pads) {
    if (!pad.is_input) continue;
    SignalId s = net.add_signal(pad.signal);
    net.add_input(s);
    pi_signal[pad.signal] = s;
  }
  SignalId clock = kNoSignal;
  if (!bs.clock_name.empty()) {
    auto it = pi_signal.find(bs.clock_name);
    if (it != pi_signal.end()) {
      clock = it->second;
    } else {
      clock = net.add_signal(bs.clock_name);
      net.add_input(clock);
    }
  }

  // ---- BLE output signals per tile ----
  std::map<std::pair<int, int>, const ClbConfig*> clb_at;
  for (const auto& clb : bs.clbs) clb_at[{clb.x, clb.y}] = &clb;
  std::map<std::tuple<int, int, int>, SignalId> ble_out;  // (x, y, slot)
  for (const auto& clb : bs.clbs) {
    for (std::size_t s = 0; s < clb.bles.size(); ++s) {
      if (!clb.bles[s].used) continue;
      ble_out[{clb.x, clb.y, static_cast<int>(s)}] =
          net.add_signal(strprintf("clb%d_%d_b%zu", clb.x, clb.y, s));
    }
  }

  // ---- driver signal per wire component ----
  std::map<int, SignalId> comp_driver;
  for (const auto& s : bs.opin_switches) {
    SignalId driver = kNoSignal;
    const bool is_core = s.x >= 1 && s.x <= bs.nx && s.y >= 1 && s.y <= bs.ny;
    if (is_core) {
      auto it = ble_out.find({s.x, s.y, s.pin});
      AMDREL_CHECK_MSG(it != ble_out.end(),
                       "bitstream routes from an unused BLE output");
      driver = it->second;
    } else {
      // Input pad at (x, y, sub=pin).
      driver = kNoSignal;
      for (const auto& pad : bs.pads) {
        if (pad.is_input && pad.x == s.x && pad.y == s.y && pad.sub == s.pin) {
          driver = pi_signal.at(pad.signal);
          break;
        }
      }
      AMDREL_CHECK_MSG(driver != kNoSignal,
                       "bitstream routes from an unconfigured pad");
    }
    const int comp = find(wire_id(s.wire));
    auto [it, inserted] = comp_driver.emplace(comp, driver);
    AMDREL_CHECK_MSG(inserted || it->second == driver,
                     "two drivers on one routing component");
  }

  // ---- signal arriving at each (tile, input pin) ----
  std::map<std::tuple<int, int, int>, SignalId> at_ipin;
  for (const auto& s : bs.ipin_switches) {
    const int comp = find(wire_id(s.wire));
    auto it = comp_driver.find(comp);
    AMDREL_CHECK_MSG(it != comp_driver.end(),
                     "routing component has no driver");
    at_ipin[{s.x, s.y, s.pin}] = it->second;
  }

  // ---- constant-0 for unused LUT inputs ----
  SignalId const0 = kNoSignal;
  auto get_const0 = [&]() {
    if (const0 == kNoSignal) {
      const0 = net.add_signal("fabric_const0");
      net.add_gate("fabric_const0_drv", TruthTable::constant(false), {},
                   const0);
    }
    return const0;
  };

  // ---- instantiate BLEs ----
  for (const auto& clb : bs.clbs) {
    for (std::size_t slot = 0; slot < clb.bles.size(); ++slot) {
      const BleConfig& b = clb.bles[slot];
      if (!b.used) continue;
      SignalId out = ble_out.at({clb.x, clb.y, static_cast<int>(slot)});

      std::vector<SignalId> ins;
      TruthTable tt(bs.k);
      for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
        tt.set(row, (b.lut_bits >> row) & 1);
      }
      for (int i = 0; i < bs.k; ++i) {
        const int sel = b.input_sel[static_cast<std::size_t>(i)];
        if (sel < 0) {
          ins.push_back(get_const0());
        } else if (sel < bs.cluster_inputs) {
          auto it = at_ipin.find({clb.x, clb.y, sel});
          AMDREL_CHECK_MSG(it != at_ipin.end(),
                           "LUT input selects an unrouted cluster pin");
          ins.push_back(it->second);
        } else {
          const int fb = sel - bs.cluster_inputs;
          auto it = ble_out.find({clb.x, clb.y, fb});
          AMDREL_CHECK_MSG(it != ble_out.end(),
                           "LUT input selects an unused BLE feedback");
          ins.push_back(it->second);
        }
      }

      const std::string base = net.signal_name(out);
      if (b.use_ff) {
        SignalId d = net.add_signal(base + "_d");
        net.add_gate(base + "_lut", tt, std::move(ins), d);
        net.add_latch(base + "_ff", d, out, clock,
                      b.ff_init ? LatchInit::kOne : LatchInit::kZero);
      } else {
        net.add_gate(base + "_lut", tt, std::move(ins), out);
      }
    }
  }

  // ---- primary outputs from output pads ----
  for (const auto& pad : bs.pads) {
    if (pad.is_input) continue;
    auto it = at_ipin.find({pad.x, pad.y, pad.sub});
    AMDREL_CHECK_MSG(it != at_ipin.end(),
                     "output pad not reached by routing: " + pad.signal);
    SignalId po = net.add_signal(pad.signal);
    net.add_gate(pad.signal + "_obuf", TruthTable::identity(), {it->second},
                 po);
    net.add_output(po);
  }

  net.validate();
  return net;
}

}  // namespace amdrel::bitgen
