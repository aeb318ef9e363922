#include "stats/accumulator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace sbn {

void
Accumulator::reset()
{
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

Accumulator
Accumulator::fromMoments(std::uint64_t count, double mean, double m2,
                         double min, double max)
{
    Accumulator out;
    if (count == 0)
        return out;
    out.count_ = count;
    out.mean_ = mean;
    out.m2_ = std::max(m2, 0.0); // guard tiny negative round-off
    out.min_ = min;
    out.max_ = max;
    return out;
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

double
Accumulator::stderror() const
{
    if (count_ < 1)
        return 0.0;
    return stddev() / std::sqrt(static_cast<double>(count_));
}

double
Accumulator::confidenceHalfWidth(double level) const
{
    if (count_ < 2)
        return std::numeric_limits<double>::infinity();
    return studentTQuantile(count_ - 1, level) * stderror();
}

namespace {

// Two-sided Student-t critical values for dof 1..30, then selected
// larger dofs; indexed by [level][dof bucket].
constexpr double kT90[] = {
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
    1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
    1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
constexpr double kT95[] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
constexpr double kT99[] = {
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
    3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
    2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750};

} // namespace

double
studentTQuantile(std::uint64_t dof, double level)
{
    sbn_assert(dof >= 1, "t quantile needs dof >= 1");
    const double *table = nullptr;
    double asymptote = 0.0;
    if (level <= 0.901) {
        table = kT90;
        asymptote = 1.645;
    } else if (level <= 0.951) {
        table = kT95;
        asymptote = 1.960;
    } else {
        table = kT99;
        asymptote = 2.576;
    }
    if (dof <= 30)
        return table[dof - 1];
    if (dof <= 40)
        return table[29] - (table[29] - asymptote) * 0.25;
    if (dof <= 60)
        return table[29] - (table[29] - asymptote) * 0.50;
    if (dof <= 120)
        return table[29] - (table[29] - asymptote) * 0.75;
    return asymptote;
}

} // namespace sbn
