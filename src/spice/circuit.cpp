#include "spice/circuit.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::spice {

Waveform Waveform::dc(double volts) {
  Waveform w;
  w.kind_ = Kind::kDc;
  w.dc_ = volts;
  return w;
}

Waveform Waveform::pulse(double v0, double v1, double delay, double rise,
                         double fall, double width, double period) {
  AMDREL_CHECK(rise > 0 && fall > 0 && width >= 0 && period > 0);
  AMDREL_CHECK(rise + width + fall <= period);
  Waveform w;
  w.kind_ = Kind::kPulse;
  w.v0_ = v0;
  w.v1_ = v1;
  w.delay_ = delay;
  w.rise_ = rise;
  w.fall_ = fall;
  w.width_ = width;
  w.period_ = period;
  return w;
}

Waveform Waveform::pwl(std::vector<std::pair<double, double>> points) {
  AMDREL_CHECK(!points.empty());
  for (std::size_t i = 1; i < points.size(); ++i) {
    AMDREL_CHECK_MSG(points[i].first >= points[i - 1].first,
                     "PWL points must be time-sorted");
  }
  Waveform w;
  w.kind_ = Kind::kPwl;
  w.points_ = std::move(points);
  return w;
}

double Waveform::at(double t) const {
  switch (kind_) {
    case Kind::kDc:
      return dc_;
    case Kind::kPulse: {
      if (t < delay_) return v0_;
      double tp = std::fmod(t - delay_, period_);
      if (tp < rise_) return v0_ + (v1_ - v0_) * (tp / rise_);
      tp -= rise_;
      if (tp < width_) return v1_;
      tp -= width_;
      if (tp < fall_) return v1_ + (v0_ - v1_) * (tp / fall_);
      return v0_;
    }
    case Kind::kPwl: {
      if (t <= points_.front().first) return points_.front().second;
      if (t >= points_.back().first) return points_.back().second;
      for (std::size_t i = 1; i < points_.size(); ++i) {
        if (t <= points_[i].first) {
          const auto& [t0, v0] = points_[i - 1];
          const auto& [t1, v1] = points_[i];
          if (t1 == t0) return v1;
          return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        }
      }
      return points_.back().second;
    }
  }
  return 0.0;
}

Circuit::Circuit(const process::Tech018& tech) : tech_(&tech) {
  names_by_id_.push_back("0");
}

NodeId Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = node_names_.find(name);
  if (it != node_names_.end()) return it->second;
  NodeId id = next_node_++;
  node_names_.emplace(name, id);
  names_by_id_.push_back(name);
  return id;
}

NodeId Circuit::new_node() {
  NodeId id = next_node_++;
  names_by_id_.push_back(strprintf("$n%d", id));
  return id;
}

bool Circuit::has_node(const std::string& name) const {
  return node_names_.count(name) > 0;
}

NodeId Circuit::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = node_names_.find(name);
  AMDREL_CHECK_MSG(it != node_names_.end(), "unknown node: " + name);
  return it->second;
}

std::string Circuit::node_name(NodeId n) const {
  AMDREL_CHECK(n >= 0 && n < next_node_);
  return names_by_id_[static_cast<std::size_t>(n)];
}

void Circuit::add_mosfet(const std::string& name, MosType type, NodeId d,
                         NodeId g, NodeId s, double w_um, double l_um) {
  AMDREL_CHECK(w_um > 0);
  if (l_um <= 0) l_um = tech_->l_min_um;
  mosfets_.push_back(Mosfet{name, type, d, g, s, w_um, l_um});
}

void Circuit::add_resistor(const std::string& name, NodeId a, NodeId b,
                           double ohms) {
  AMDREL_CHECK(ohms > 0);
  resistors_.push_back(Resistor{name, a, b, ohms});
}

void Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b,
                            double farads) {
  AMDREL_CHECK(farads >= 0);
  if (farads == 0) return;
  capacitors_.push_back(Capacitor{name, a, b, farads});
}

void Circuit::add_cap_to_ground(NodeId n, double farads) {
  if (farads <= 0 || n == kGround) return;
  for (auto& c : capacitors_) {
    if (c.a == n && c.b == kGround) {
      c.farads += farads;
      return;
    }
  }
  capacitors_.push_back(
      Capacitor{strprintf("cnode%d", n), n, kGround, farads});
}

void Circuit::add_vsource(const std::string& name, NodeId pos, NodeId neg,
                          Waveform wave) {
  vsources_.push_back(VSource{name, pos, neg, std::move(wave)});
}

double Circuit::total_transistor_width_um() const {
  double total = 0;
  for (const auto& m : mosfets_) total += m.w_um;
  return total;
}

double Circuit::device_area_um2() const {
  double total = 0;
  for (const auto& m : mosfets_) total += tech_->transistor_area_um2(m.w_um);
  return total;
}

}  // namespace amdrel::spice
