// Small statistics helpers: used by the Figure 10 benches to quantify the
// paper's linearity claims (least-squares fit + R²) and by tests.
#pragma once

#include <vector>

namespace lrsizer::util {

double mean(const std::vector<double>& xs);

/// Least-squares line y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination in [0, 1]
};

/// Fit requires xs.size() == ys.size() >= 2 and non-constant xs.
LinearFit fit_line(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace lrsizer::util
