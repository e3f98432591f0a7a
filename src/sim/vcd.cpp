#include "sim/vcd.hpp"

#include <map>
#include <sstream>

#include "util/assert.hpp"

namespace lrsizer::sim {

namespace {

/// VCD identifier codes: printable ASCII 33..126, shortest-first.
std::string vcd_id(std::int32_t index) {
  std::string id;
  std::int32_t v = index;
  do {
    id.push_back(static_cast<char>(33 + v % 94));
    v = v / 94 - 1;
  } while (v >= 0);
  return id;
}

}  // namespace

void write_vcd(const netlist::LogicNetlist& netlist, const SimResult& result,
               std::ostream& out, const std::string& timescale) {
  LRSIZER_ASSERT(netlist.finalized());
  LRSIZER_ASSERT(result.num_nets() == netlist.num_gates_logic());

  out << "$date lrsizer simulation $end\n";
  out << "$version lrsizer 1.0 $end\n";
  out << "$timescale " << timescale << " $end\n";
  out << "$scope module circuit $end\n";
  const std::int32_t n = netlist.num_gates_logic();
  for (std::int32_t g = 0; g < n; ++g) {
    out << "$var wire 1 " << vcd_id(g) << " " << netlist.gate(g).name << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";

  // Dump each net's initial value, and merge its toggles (all inside
  // [0, horizon)) into one time-ordered stream.
  std::vector<int> value(static_cast<std::size_t>(n));
  std::map<SimTime, std::vector<std::int32_t>> events;
  out << "#0\n$dumpvars\n";
  for (std::int32_t g = 0; g < n; ++g) {
    const Waveform waveform = result.waveform(g);
    value[static_cast<std::size_t>(g)] = waveform.initial_value();
    out << waveform.initial_value() << vcd_id(g) << "\n";
    for (SimTime t : waveform.toggles()) events[t].push_back(g);
  }
  out << "$end\n";
  for (const auto& [t, nets] : events) {
    out << "#" << t << "\n";
    for (std::int32_t g : nets) {
      auto& v = value[static_cast<std::size_t>(g)];
      v = 1 - v;
      out << v << vcd_id(g) << "\n";
    }
  }
  out << "#" << result.horizon << "\n";
}

std::string to_vcd_string(const netlist::LogicNetlist& netlist, const SimResult& result,
                          const std::string& timescale) {
  std::ostringstream os;
  write_vcd(netlist, result, os, timescale);
  return os.str();
}

}  // namespace lrsizer::sim
