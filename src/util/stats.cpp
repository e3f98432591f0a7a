#include "util/stats.hpp"

#include "util/assert.hpp"

namespace lrsizer::util {

double mean(const std::vector<double>& xs) {
  LRSIZER_ASSERT(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

LinearFit fit_line(const std::vector<double>& xs, const std::vector<double>& ys) {
  LRSIZER_ASSERT(xs.size() == ys.size());
  LRSIZER_ASSERT(xs.size() >= 2);
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  LRSIZER_ASSERT_MSG(sxx > 0.0, "fit_line needs non-constant x values");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace lrsizer::util
