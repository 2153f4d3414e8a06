#include "common/statistics.h"

#include <cmath>
#include <limits>

namespace crh {

double InverseNormalCdf(double p) {
  if (!(p >= 0.0 && p <= 1.0)) return std::numeric_limits<double>::quiet_NaN();
  // Exact boundary checks on the caller-supplied probability, not on a
  // computed value; the open interval (0, 1) goes through the approximation.
  if (p == 0.0) return -std::numeric_limits<double>::infinity();  // analyzer:allow(float-equality)
  if (p == 1.0) return std::numeric_limits<double>::infinity();  // analyzer:allow(float-equality)

  // Acklam's rational approximation with the standard breakpoints.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double p_low = 0.02425;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double ChiSquaredQuantile(double p, double dof) {
  if (!(p > 0.0 && p < 1.0) || !(dof > 0.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Wilson-Hilferty: chi2_p(n) ~ n * (1 - 2/(9n) + z_p * sqrt(2/(9n)))^3.
  const double z = InverseNormalCdf(p);
  const double t = 2.0 / (9.0 * dof);
  const double cube = 1.0 - t + z * std::sqrt(t);
  const double approx = dof * cube * cube * cube;
  // The cube can go negative for tiny dof and extreme p; clamp at a small
  // positive value so confidence weights stay usable.
  return approx > 1e-12 ? approx : 1e-12;
}

}  // namespace crh
