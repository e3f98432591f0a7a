// Parser for the ISCAS85 `.bench` netlist format:
//
//   # comment
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
//   G11 = NOT(G10)
//
// Supported ops: AND, NAND, OR, NOR, NOT, BUF/BUFF, XOR, XNOR. Forward
// references are resolved (the format does not require definition order).
// Errors (unknown op, undefined signal, double definition, syntax, a
// BUF/NOT with other than one input, a signal that is neither read nor an
// OUTPUT) raise BenchParseError with a line number, so no text reaches an
// assertion inside LogicNetlist.
#pragma once

#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netlist/logic_netlist.hpp"

namespace lrsizer::netlist {

class BenchParseError : public std::runtime_error {
 public:
  BenchParseError(int line, const std::string& message)
      : std::runtime_error("bench parse error at line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parse a `.bench` stream into a finalized LogicNetlist.
LogicNetlist parse_bench(std::istream& in);

/// Convenience overload for in-memory text (tests, embedded circuits).
LogicNetlist parse_bench_string(const std::string& text);

/// Read the `# size <node> <kind> <net> <value>` annotation comments that
/// bench_writer/the CLI append to sized outputs. Returns (circuit NodeId,
/// size) pairs in file order. Lines that are not size annotations are
/// ignored (they are comments to every .bench reader, including parse_bench
/// above); a line counts as an annotation only when its third token is an
/// integer node id, so `# size ...` prose stays prose. Truncated or
/// out-of-range annotations raise BenchParseError. Feeds
/// api::SizingSession::warm_start / `lrsizer --warm-start`.
std::vector<std::pair<std::int32_t, double>> read_size_annotations(std::istream& in);

/// The real ISCAS85 c17 netlist, shipped in-tree (also in data/c17.bench).
extern const char* const kIscas85C17;

}  // namespace lrsizer::netlist
