// Plain-text table formatting for the bench harnesses.
//
// The benches print paper-style tables (Table 1, the Figure 10 series) to
// stdout; this class handles column sizing and alignment so every bench
// produces consistent, diff-able output.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace lrsizer::util {

class TextTable {
 public:
  /// Column headers; every subsequent row must have the same arity.
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Formats a double with `precision` significant decimal digits.
  static std::string num(double value, int precision = 2);
  static std::string integer(long long value);

  /// Render with a header underline; numeric-looking cells right-aligned.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lrsizer::util
