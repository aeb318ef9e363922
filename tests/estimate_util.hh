/**
 * @file
 * Confidence-interval coverage check shared by the estimator tests.
 */

#ifndef SBN_TESTS_ESTIMATE_UTIL_HH
#define SBN_TESTS_ESTIMATE_UTIL_HH

#include <cmath>

#include "stats/accumulator.hh"

namespace sbn {

/** True if |value - est.mean| <= est.halfWidth + slack. */
inline bool
covers(const Estimate &est, double value, double slack = 0.0)
{
    return std::abs(value - est.mean) <= est.halfWidth + slack;
}

} // namespace sbn

#endif // SBN_TESTS_ESTIMATE_UTIL_HH
