#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "util/assert.hpp"

namespace lrsizer::util {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  LRSIZER_ASSERT(!headers_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  LRSIZER_ASSERT_MSG(cells.size() == headers_.size(), "row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TextTable::integer(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return buf;
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit_seen = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E' && c != '%') {
      return false;
    }
  }
  return digit_seen;
}

}  // namespace

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      if (looks_numeric(row[c])) {
        os << std::string(pad, ' ') << row[c];
      } else {
        os << row[c] << std::string(pad, ' ');
      }
      os << (c + 1 == row.size() ? "\n" : "  ");
    }
  };

  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c > 0 ? 2 : 0);
  os << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace lrsizer::util
