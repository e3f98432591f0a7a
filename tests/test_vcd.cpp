// Direct coverage for sim/vcd.hpp: header structure, identifier uniqueness,
// and an initial-value/toggle round-trip through a small VCD reader.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"

namespace lrsizer {
namespace {

sim::SimResult simulate_netlist(const netlist::LogicNetlist& logic,
                                std::int32_t vectors = 8) {
  const auto inputs = sim::random_vectors(
      static_cast<std::int32_t>(logic.primary_inputs().size()), vectors, 11);
  return sim::simulate(logic, inputs);
}

/// Minimal VCD reader for the subset write_vcd emits: declared ids in order,
/// per-id initial value, and per-id toggle times.
struct ParsedVcd {
  std::string timescale;
  std::vector<std::string> ids;       ///< declaration order
  std::vector<std::string> names;     ///< parallel to ids
  std::map<std::string, int> initial; ///< id -> 0/1
  std::map<std::string, std::vector<sim::SimTime>> toggles;
  std::map<std::string, std::vector<int>> values;  ///< value after each toggle
  sim::SimTime last_timestamp = -1;
};

ParsedVcd parse_vcd(const std::string& text) {
  ParsedVcd vcd;
  std::istringstream in(text);
  std::string line;
  bool in_dumpvars = false;
  bool definitions_done = false;
  sim::SimTime now = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("$timescale", 0) == 0) {
      // "$timescale 1ps $end"
      std::istringstream ls(line);
      std::string keyword;
      ls >> keyword >> vcd.timescale;
      continue;
    }
    if (line.rfind("$var", 0) == 0) {
      // "$var wire 1 <id> <name> $end"
      std::istringstream ls(line);
      std::string keyword, kind, width, id, name;
      ls >> keyword >> kind >> width >> id >> name;
      EXPECT_EQ(kind, "wire");
      EXPECT_EQ(width, "1");
      vcd.ids.push_back(id);
      vcd.names.push_back(name);
      continue;
    }
    if (line == "$enddefinitions $end") {
      definitions_done = true;
      continue;
    }
    if (!definitions_done) continue;
    if (line == "$dumpvars") {
      in_dumpvars = true;
      continue;
    }
    if (line == "$end") {
      in_dumpvars = false;
      continue;
    }
    if (line[0] == '#') {
      now = std::stoll(line.substr(1));
      vcd.last_timestamp = now;
      continue;
    }
    if (line[0] == '0' || line[0] == '1') {
      const int value = line[0] - '0';
      const std::string id = line.substr(1);
      if (in_dumpvars) {
        vcd.initial[id] = value;
      } else {
        vcd.toggles[id].push_back(now);
        vcd.values[id].push_back(value);
      }
    }
  }
  return vcd;
}

TEST(Vcd, HeaderDeclaresTimescaleAndEveryNet) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = simulate_netlist(logic);
  const std::string text = sim::to_vcd_string(logic, result);

  const ParsedVcd vcd = parse_vcd(text);
  EXPECT_EQ(vcd.timescale, "1ps");
  ASSERT_EQ(vcd.ids.size(),
            static_cast<std::size_t>(logic.num_gates_logic()));
  for (std::int32_t g = 0; g < logic.num_gates_logic(); ++g) {
    EXPECT_EQ(vcd.names[static_cast<std::size_t>(g)], logic.gate(g).name);
  }
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module circuit $end"), std::string::npos);
}

TEST(Vcd, CustomTimescaleIsEmitted) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = simulate_netlist(logic);
  const ParsedVcd vcd = parse_vcd(sim::to_vcd_string(logic, result, "10ns"));
  EXPECT_EQ(vcd.timescale, "10ns");
}

TEST(Vcd, InitialValuesAndTogglesRoundTrip) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = simulate_netlist(logic, 16);
  const ParsedVcd vcd = parse_vcd(sim::to_vcd_string(logic, result));

  std::int64_t total_toggles = 0;
  for (std::int32_t g = 0; g < logic.num_gates_logic(); ++g) {
    const auto& id = vcd.ids[static_cast<std::size_t>(g)];
    const sim::Waveform waveform = result.waveform(g);
    ASSERT_TRUE(vcd.initial.count(id)) << "missing initial value for " << id;
    EXPECT_EQ(vcd.initial.at(id), waveform.initial_value());

    // Expected: exactly the waveform's toggles, all inside [0, horizon).
    const std::vector<sim::SimTime>& expected = waveform.toggles();
    const auto it = vcd.toggles.find(id);
    const std::vector<sim::SimTime> actual =
        it == vcd.toggles.end() ? std::vector<sim::SimTime>{} : it->second;
    EXPECT_EQ(actual, expected) << "toggle times for net "
                                << logic.gate(g).name;

    // Values must alternate starting from the initial value.
    if (it != vcd.toggles.end()) {
      int value = waveform.initial_value();
      for (int emitted : vcd.values.at(id)) {
        value = 1 - value;
        EXPECT_EQ(emitted, value);
      }
    }
    total_toggles += static_cast<std::int64_t>(expected.size());
  }
  EXPECT_GT(total_toggles, 0) << "test vectors produced no switching at all";

  // The stream is closed by a final timestamp at the horizon.
  EXPECT_EQ(vcd.last_timestamp, result.horizon);
}

TEST(Vcd, IdentifiersStayUniqueBeyondOneCharacter) {
  // > 94 nets forces multi-character identifier codes; every id must still
  // be unique and declared exactly once.
  netlist::GeneratorSpec spec;
  spec.num_gates = 120;
  spec.num_wires = 240;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.depth = 8;
  spec.seed = 5;
  const auto logic = netlist::generate_circuit(spec);
  ASSERT_GT(logic.num_gates_logic(), 94);

  const auto result = simulate_netlist(logic, 4);
  const ParsedVcd vcd = parse_vcd(sim::to_vcd_string(logic, result));
  ASSERT_EQ(vcd.ids.size(), static_cast<std::size_t>(logic.num_gates_logic()));
  std::map<std::string, int> seen;
  bool saw_multichar = false;
  for (const auto& id : vcd.ids) {
    EXPECT_EQ(seen[id]++, 0) << "duplicate vcd id " << id;
    if (id.size() > 1) saw_multichar = true;
  }
  EXPECT_TRUE(saw_multichar);
}

TEST(Vcd, OutputIsDeterministic) {
  const auto logic = netlist::parse_bench_string(netlist::kIscas85C17);
  const auto result = simulate_netlist(logic);
  EXPECT_EQ(sim::to_vcd_string(logic, result), sim::to_vcd_string(logic, result));
}

}  // namespace
}  // namespace lrsizer
