#include "netlist/bench_parser.hpp"

#include <cctype>
#include <charconv>
#include <iterator>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lrsizer::netlist {

const char* const kIscas85C17 =
    "# c17 — smallest ISCAS85 benchmark (6 NAND gates)\n"
    "INPUT(1)\n"
    "INPUT(2)\n"
    "INPUT(3)\n"
    "INPUT(6)\n"
    "INPUT(7)\n"
    "\n"
    "OUTPUT(22)\n"
    "OUTPUT(23)\n"
    "\n"
    "10 = NAND(1, 3)\n"
    "11 = NAND(3, 6)\n"
    "16 = NAND(2, 11)\n"
    "19 = NAND(11, 7)\n"
    "22 = NAND(10, 16)\n"
    "23 = NAND(16, 19)\n";

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string_view strip(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Case-insensitive (ASCII) test that `s` starts with the upper-case `prefix`.
bool starts_with_upper(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  for (std::size_t k = 0; k < prefix.size(); ++k) {
    if (std::toupper(static_cast<unsigned char>(s[k])) != prefix[k]) return false;
  }
  return true;
}

LogicOp op_from_name(std::string_view name, int line) {
  static constexpr std::pair<std::string_view, LogicOp> kOps[] = {
      {"AND", LogicOp::kAnd}, {"NAND", LogicOp::kNand}, {"OR", LogicOp::kOr},
      {"NOR", LogicOp::kNor}, {"NOT", LogicOp::kNot},   {"INV", LogicOp::kNot},
      {"BUF", LogicOp::kBuf}, {"BUFF", LogicOp::kBuf},  {"XOR", LogicOp::kXor},
      {"XNOR", LogicOp::kXnor}};
  for (const auto& [op_name, op] : kOps) {
    if (name.size() == op_name.size() && starts_with_upper(name, op_name)) return op;
  }
  throw BenchParseError(line, "unknown gate type '" + std::string(name) + "'");
}

std::string quoted(std::string_view name) { return "'" + std::string(name) + "'"; }

struct PendingGate {
  std::string_view name;
  LogicOp op;
  std::vector<std::string_view> fanin_names;
  int line;
};

/// A declared signal: where it is defined, which pending gate drives it (-1
/// for a primary input), and its LogicNetlist index once emitted (-1 before).
struct Signal {
  int line = 0;
  std::int32_t pending = -1;
  std::int32_t id = -1;
};

/// Parse `text`. Names are views into it, so it must outlive the call.
LogicNetlist parse_bench_text(std::string_view text) {
  std::vector<std::string_view> input_names;
  std::vector<std::string_view> output_names;
  std::vector<PendingGate> pending;
  std::unordered_map<std::string_view, Signal> signals;

  // One line per '\n'-terminated segment, plus an unterminated last one —
  // the lines std::getline would yield.
  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    ++line_no;
    std::string_view line = strip(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = strip(line.substr(0, hash));
    }
    if (line.empty()) continue;

    const bool is_input = starts_with_upper(line, "INPUT");
    if (is_input || starts_with_upper(line, "OUTPUT")) {
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close <= open) {
        throw BenchParseError(line_no, "malformed INPUT/OUTPUT declaration");
      }
      const std::string_view name = strip(line.substr(open + 1, close - open - 1));
      if (name.empty()) throw BenchParseError(line_no, "empty signal name");
      if (is_input) {
        if (!signals.try_emplace(name, Signal{line_no}).second) {
          throw BenchParseError(line_no, "signal " + quoted(name) + " defined twice");
        }
        input_names.push_back(name);
      } else {
        output_names.push_back(name);
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw BenchParseError(line_no, "expected 'name = OP(args)'");
    }
    const std::string_view name = strip(line.substr(0, eq));
    const std::string_view rhs = strip(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (name.empty() || open == std::string_view::npos ||
        close == std::string_view::npos || close <= open) {
      throw BenchParseError(line_no, "malformed gate definition");
    }
    if (!signals
             .try_emplace(name,
                          Signal{line_no, static_cast<std::int32_t>(pending.size())})
             .second) {
      throw BenchParseError(line_no, "signal " + quoted(name) + " defined twice");
    }

    PendingGate gate;
    gate.name = name;
    const std::string_view op_name = strip(rhs.substr(0, open));
    gate.op = op_from_name(op_name, line_no);
    gate.line = line_no;
    // Comma-separated fanins; like std::getline, a trailing ',' adds none.
    const std::string_view args = rhs.substr(open + 1, close - open - 1);
    for (std::size_t start = 0; start < args.size();) {
      const auto comma = args.find(',', start);
      const std::string_view arg = strip(args.substr(
          start, comma == std::string_view::npos ? std::string_view::npos : comma - start));
      if (arg.empty()) throw BenchParseError(line_no, "empty fanin name");
      gate.fanin_names.push_back(arg);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    if (gate.fanin_names.empty()) {
      throw BenchParseError(line_no, "gate with no fanin");
    }
    if (!logic_op_is_multi_input(gate.op) && gate.fanin_names.size() != 1) {
      throw BenchParseError(line_no, "gate " + quoted(name) + ": " +
                                         std::string(op_name) +
                                         " takes exactly one input, got " +
                                         std::to_string(gate.fanin_names.size()));
    }
    pending.push_back(std::move(gate));
  }

  if (input_names.empty()) throw BenchParseError(line_no, "no INPUT declarations");
  if (output_names.empty()) throw BenchParseError(line_no, "no OUTPUT declarations");

  LogicNetlist netlist;
  std::vector<int> defined_at;  // by netlist index: the defining line
  defined_at.reserve(signals.size());
  for (const std::string_view name : input_names) {
    Signal& signal = signals.find(name)->second;
    signal.id = netlist.add_input(std::string(name));
    defined_at.push_back(signal.line);
  }

  // The format allows any definition order; topologically order the gates.
  // DFS from every gate to emit fanins first; detects cycles.
  std::vector<int> state(pending.size(), 0);  // 0 = new, 1 = visiting, 2 = done
  std::vector<std::int32_t> stack;
  for (std::size_t root = 0; root < pending.size(); ++root) {
    if (state[root] == 2) continue;
    stack.push_back(static_cast<std::int32_t>(root));
    while (!stack.empty()) {
      const auto g = static_cast<std::size_t>(stack.back());
      if (state[g] == 2) {
        stack.pop_back();
        continue;
      }
      bool ready = true;
      state[g] = 1;
      for (const std::string_view fname : pending[g].fanin_names) {
        const auto it = signals.find(fname);
        if (it == signals.end()) {
          throw BenchParseError(pending[g].line,
                                "undefined signal " + quoted(fname));
        }
        if (it->second.id >= 0) continue;  // input or emitted gate
        const auto dep = static_cast<std::size_t>(it->second.pending);
        if (state[dep] == 1) {
          throw BenchParseError(pending[g].line,
                                "combinational cycle through " + quoted(fname));
        }
        if (state[dep] == 0) {
          stack.push_back(it->second.pending);
          ready = false;
        }
      }
      if (!ready) continue;
      std::vector<std::int32_t> fanin;
      fanin.reserve(pending[g].fanin_names.size());
      for (const std::string_view fname : pending[g].fanin_names) {
        fanin.push_back(signals.find(fname)->second.id);
      }
      // The .bench format writes NAND(a, a) occasionally via duplicated
      // names; LogicNetlist accepts duplicate fanins (they become separate
      // wires during elaboration, as in a real layout).
      LogicOp op = pending[g].op;
      if (fanin.size() == 1 && logic_op_is_multi_input(op)) {
        // Single-argument AND/OR degenerate to a buffer; NAND/NOR/XNOR to NOT.
        op = (op == LogicOp::kNand || op == LogicOp::kNor || op == LogicOp::kXnor)
                 ? LogicOp::kNot
                 : LogicOp::kBuf;
      }
      signals.find(pending[g].name)->second.id =
          netlist.add_gate(std::string(pending[g].name), op, std::move(fanin));
      defined_at.push_back(pending[g].line);
      state[g] = 2;
      stack.pop_back();
    }
  }

  std::vector<char> read(defined_at.size(), 0);
  for (const std::string_view name : output_names) {
    const auto it = signals.find(name);
    if (it == signals.end()) {
      throw BenchParseError(0, "OUTPUT references undefined signal " + quoted(name));
    }
    netlist.mark_output(it->second.id);
    read[static_cast<std::size_t>(it->second.id)] = 1;
  }

  // LogicNetlist::finalize requires every net to be read; name the
  // earliest-defined one that is not.
  for (const auto& gate : netlist.gates()) {
    for (std::int32_t f : gate.fanin) read[static_cast<std::size_t>(f)] = 1;
  }
  std::size_t unread = read.size();
  for (std::size_t g = 0; g < read.size(); ++g) {
    if (read[g] == 0 && (unread == read.size() || defined_at[g] < defined_at[unread])) {
      unread = g;
    }
  }
  if (unread < read.size()) {
    throw BenchParseError(defined_at[unread],
                          "signal " + quoted(netlist.gates()[unread].name) +
                              " is never read and is not an OUTPUT");
  }

  netlist.finalize();
  return netlist;
}

}  // namespace

LogicNetlist parse_bench(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return parse_bench_text(text);
}

LogicNetlist parse_bench_string(const std::string& text) { return parse_bench_text(text); }

std::vector<std::pair<std::int32_t, double>> read_size_annotations(std::istream& in) {
  std::vector<std::pair<std::int32_t, double>> sizes;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Annotation shape (bench_writer/CLI): "# size <node> <kind> <net> <value>".
    // A line only counts as an annotation when its third token is an
    // integer node id; "# size ..." prose comments stay ordinary comments.
    std::istringstream fields(line);
    std::string hash, keyword, node_token;
    if (!(fields >> hash >> keyword >> node_token) || hash != "#" ||
        keyword != "size") {
      continue;
    }
    std::int32_t node = 0;
    const auto [end, ec] = std::from_chars(
        node_token.data(), node_token.data() + node_token.size(), node);
    if (ec != std::errc{} || end != node_token.data() + node_token.size()) {
      continue;  // "# size annotations follow" and the like
    }
    std::string kind, net;
    double value = 0.0;
    if (!(fields >> kind >> net >> value)) {
      throw BenchParseError(line_no, "malformed size annotation: '" + line + "'");
    }
    if (node < 0) {
      throw BenchParseError(line_no, "size annotation names negative node " +
                                         std::to_string(node));
    }
    if (!(value > 0.0)) {
      throw BenchParseError(line_no, "size annotation for node " +
                                         std::to_string(node) +
                                         " must be > 0, got " + std::to_string(value));
    }
    sizes.emplace_back(node, value);
  }
  return sizes;
}

}  // namespace lrsizer::netlist
