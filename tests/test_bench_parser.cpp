// ISCAS85 .bench parser: happy path (c17), formats, and error reporting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "netlist/bench_parser.hpp"
#include "netlist/logic_netlist.hpp"

namespace {

using namespace lrsizer;
using netlist::LogicOp;

TEST(BenchParser, ParsesC17) {
  const auto n = netlist::parse_bench_string(netlist::kIscas85C17);
  EXPECT_EQ(n.primary_inputs().size(), 5u);
  EXPECT_EQ(n.primary_outputs().size(), 2u);
  EXPECT_EQ(n.num_real_gates(), 6);
  EXPECT_EQ(n.depth(), 3);  // c17's longest path is 3 NAND levels
}

TEST(BenchParser, C17GateTypesAreNand) {
  const auto n = netlist::parse_bench_string(netlist::kIscas85C17);
  int nands = 0;
  for (const auto& g : n.gates()) {
    if (g.op == LogicOp::kNand) ++nands;
  }
  EXPECT_EQ(nands, 6);
}

TEST(BenchParser, HandlesForwardReferences) {
  // out is defined before its fanin.
  const auto n = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(out)\nout = NOT(mid)\nmid = BUF(a)\n");
  EXPECT_EQ(n.num_real_gates(), 2);
  EXPECT_EQ(n.depth(), 2);
}

TEST(BenchParser, AllGateTypes) {
  const auto n = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\n"
      "OUTPUT(o1)\nOUTPUT(o2)\nOUTPUT(o3)\nOUTPUT(o4)\n"
      "OUTPUT(o5)\nOUTPUT(o6)\nOUTPUT(o7)\nOUTPUT(o8)\n"
      "o1 = AND(a, b)\no2 = NAND(a, b)\no3 = OR(a, b)\no4 = NOR(a, b)\n"
      "o5 = XOR(a, b)\no6 = XNOR(a, b)\no7 = NOT(a)\no8 = BUFF(b)\n");
  const LogicOp expected[] = {LogicOp::kAnd, LogicOp::kNand, LogicOp::kOr,
                              LogicOp::kNor, LogicOp::kXor, LogicOp::kXnor,
                              LogicOp::kNot, LogicOp::kBuf};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(n.gate(2 + i).op, expected[i]) << "gate " << i;
  }
}

TEST(BenchParser, CommentsAndBlankLines) {
  const auto n = netlist::parse_bench_string(
      "# header comment\n\nINPUT(x)  # trailing comment\n\nOUTPUT(y)\n"
      "y = NOT(x)\n");
  EXPECT_EQ(n.num_real_gates(), 1);
}

TEST(BenchParser, CaseInsensitiveOps) {
  const auto n = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = nand(a, b)\n");
  EXPECT_EQ(n.gate(2).op, LogicOp::kNand);
}

TEST(BenchParser, SingleInputAndDegeneratesToBuf) {
  const auto n =
      netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n");
  EXPECT_EQ(n.gate(1).op, LogicOp::kBuf);
}

TEST(BenchParser, SingleInputNandDegeneratesToNot) {
  const auto n =
      netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n");
  EXPECT_EQ(n.gate(1).op, LogicOp::kNot);
}

TEST(BenchParser, ErrorUnknownOp) {
  EXPECT_THROW(
      netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
      netlist::BenchParseError);
}

TEST(BenchParser, ErrorUndefinedSignal) {
  try {
    netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n");
    FAIL() << "expected BenchParseError";
  } catch (const netlist::BenchParseError& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(BenchParser, ErrorDoubleDefinition) {
  EXPECT_THROW(netlist::parse_bench_string(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorCombinationalCycle) {
  EXPECT_THROW(netlist::parse_bench_string(
                   "INPUT(a)\nOUTPUT(p)\np = NOT(q)\nq = NOT(p)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorMalformedLine) {
  EXPECT_THROW(netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny NOT(a)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorNoInputs) {
  EXPECT_THROW(netlist::parse_bench_string("OUTPUT(y)\ny = NOT(y)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorOutputUndefined) {
  EXPECT_THROW(netlist::parse_bench_string("INPUT(a)\nOUTPUT(nope)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorReportsLineNumber) {
  try {
    netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const netlist::BenchParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

/// Parse `text`, expecting a BenchParseError at `line` whose message names
/// `signal` and contains `what`.
void expect_parse_error(const std::string& text, int line, const std::string& signal,
                        const std::string& what) {
  try {
    netlist::parse_bench_string(text);
    ADD_FAILURE() << "expected BenchParseError for:\n" << text;
  } catch (const netlist::BenchParseError& e) {
    const std::string message = e.what();
    EXPECT_EQ(e.line(), line) << message;
    EXPECT_NE(message.find("'" + signal + "'"), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

// Each of these used to reach a LogicNetlist assertion and abort the
// process (a shared server included); the parser now rejects them.
TEST(BenchParser, ErrorNotOrBufWithTwoInputs) {
  expect_parse_error("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", 4, "y",
                     "NOT takes exactly one input, got 2");
  expect_parse_error("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = BUFF(a, b)\n", 4, "y",
                     "BUFF takes exactly one input, got 2");
}

TEST(BenchParser, ErrorUnreadInput) {
  expect_parse_error("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\n", 2, "b",
                     "is never read and is not an OUTPUT");
}

TEST(BenchParser, ErrorUnreadGate) {
  expect_parse_error("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\nz = AND(a, b)\n", 5,
                     "z", "is never read and is not an OUTPUT");
}

TEST(BenchParser, ErrorSingleInputXorLeavesAnInputUnread) {
  // XOR(a) degenerates to a buffer of a, so b is read by nothing.
  expect_parse_error("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a)\n", 2, "b",
                     "is never read and is not an OUTPUT");
}

TEST(BenchParser, ErrorNamesTheEarliestUnreadSignal) {
  expect_parse_error("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nz = OR(a, b)\ny = NOT(a)\n",
                     3, "c", "is never read");
}

TEST(BenchParser, TrailingCommaAddsNoFaninAndStreamsParseAlike) {
  // Like std::getline, a trailing ',' ends the list without an empty name.
  const auto n = netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a,)");
  EXPECT_EQ(n.gate(1).op, LogicOp::kBuf);
  std::istringstream in(netlist::kIscas85C17);
  const auto streamed = netlist::parse_bench(in);
  const auto direct = netlist::parse_bench_string(netlist::kIscas85C17);
  ASSERT_EQ(streamed.num_gates_logic(), direct.num_gates_logic());
  for (std::int32_t g = 0; g < direct.num_gates_logic(); ++g) {
    EXPECT_EQ(streamed.gate(g).name, direct.gate(g).name);
    EXPECT_EQ(streamed.gate(g).fanin, direct.gate(g).fanin);
  }
}

TEST(BenchParser, ReadsSizeAnnotations) {
  // The shape `lrsizer --out` appends; ordinary comments are skipped, and
  // "# size" prose (non-integer third token) stays an ordinary comment.
  std::istringstream in(
      "# sized by lrsizer: c17 seed 1\n"
      "INPUT(a)\n"
      "#\n"
      "# size annotations follow\n"
      "# component sizes: node kind net size\n"
      "# size 4 gate G10 1.25\n"
      "# size 5 wire G10 0.5\n");
  const auto sizes = netlist::read_size_annotations(in);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].first, 4);
  EXPECT_DOUBLE_EQ(sizes[0].second, 1.25);
  EXPECT_EQ(sizes[1].first, 5);
  EXPECT_DOUBLE_EQ(sizes[1].second, 0.5);
}

TEST(BenchParser, RejectsMalformedSizeAnnotations) {
  std::istringstream truncated("# size 4 gate\n");
  EXPECT_THROW(netlist::read_size_annotations(truncated), netlist::BenchParseError);
  std::istringstream negative("# size -2 gate G1 1.0\n");
  EXPECT_THROW(netlist::read_size_annotations(negative), netlist::BenchParseError);
  std::istringstream zero("# size 4 gate G1 0\n");
  EXPECT_THROW(netlist::read_size_annotations(zero), netlist::BenchParseError);
}

}  // namespace
