#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : Histogram(HistogramScale::Linear, lo, hi, bins)
{
}

Histogram::Histogram(HistogramScale scale, double lo, double hi,
                     std::size_t bins)
    : scale_(scale), lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(bins)), bins_(bins, 0)
{
    sbn_assert(hi > lo, "histogram range must be non-empty");
    sbn_assert(bins >= 1, "histogram needs at least one bin");
    if (scale_ == HistogramScale::Log) {
        sbn_assert(lo > 0.0, "log-scale histogram requires lo > 0");
        logLo_ = std::log(lo_);
        logStep_ = (std::log(hi_) - logLo_) / static_cast<double>(bins);
    }
}

Histogram
Histogram::logScale(double lo, double hi, std::size_t bins)
{
    return Histogram(HistogramScale::Log, lo, hi, bins);
}

void
Histogram::add(double sample)
{
    ++count_;
    sum_ += sample;
    if (count_ == 1 || sample > maxSample_)
        maxSample_ = sample;
    if (sample < lo_) {
        ++underflow_;
    } else if (sample >= hi_) {
        ++overflow_;
    } else if (scale_ == HistogramScale::Log) {
        // Rounding in log() can push a sample fractionally across a
        // bin edge but never outside [0, bins): clamp both ends.
        const double t = (std::log(sample) - logLo_) / logStep_;
        auto idx = static_cast<std::size_t>(std::max(t, 0.0));
        idx = std::min(idx, bins_.size() - 1);
        ++bins_[idx];
    } else {
        auto idx = static_cast<std::size_t>((sample - lo_) / width_);
        idx = std::min(idx, bins_.size() - 1);
        ++bins_[idx];
    }
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::binLow(std::size_t i) const
{
    if (scale_ == HistogramScale::Log)
        return std::exp(logLo_ + logStep_ * static_cast<double>(i));
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::maxSample() const
{
    return count_ ? maxSample_
                  : std::numeric_limits<double>::quiet_NaN();
}

double
Histogram::quantile(double q) const
{
    sbn_assert(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = underflow_;
    if (seen >= target)
        return lo_;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= target)
            return binLow(i + 1);
    }
    // Only overflow mass remains (including the all-overflow case).
    return hi_;
}

bool
Histogram::compatibleWith(const Histogram &other) const
{
    return scale_ == other.scale_ && lo_ == other.lo_ &&
           hi_ == other.hi_ && bins_.size() == other.bins_.size();
}

void
Histogram::merge(const Histogram &other)
{
    if (!compatibleWith(other)) {
        sbn_fatal("histogram merge with incompatible bin layout: ",
                  "[", lo_, ", ", hi_, ") x", bins_.size(),
                  (scale_ == HistogramScale::Log ? " log" : " linear"),
                  " vs [", other.lo_, ", ", other.hi_, ") x",
                  other.bins_.size(),
                  (other.scale_ == HistogramScale::Log ? " log"
                                                       : " linear"));
    }
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    if (other.count_ &&
        (count_ == 0 || other.maxSample_ > maxSample_)) {
        maxSample_ = other.maxSample_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

std::string
Histogram::render(std::size_t width) const
{
    std::uint64_t peak = 1;
    for (auto c : bins_)
        peak = std::max(peak, c);

    std::ostringstream os;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (!bins_[i])
            continue;
        os << '[' << binLow(i) << ", " << binLow(i + 1) << ") "
           << std::string(
                  std::max<std::size_t>(
                      static_cast<std::size_t>(
                          static_cast<double>(bins_[i]) /
                          static_cast<double>(peak) *
                          static_cast<double>(width)),
                      1),
                  '#')
           << ' ' << bins_[i] << '\n';
    }
    if (underflow_)
        os << "underflow " << underflow_ << '\n';
    if (overflow_)
        os << "overflow " << overflow_ << '\n';
    return os.str();
}

std::string
Histogram::renderFlatJson() const
{
    std::string counts;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (!bins_[i])
            continue;
        if (!counts.empty())
            counts += ' ';
        counts += std::to_string(i) + ':' + std::to_string(bins_[i]);
    }
    return FlatWriter()
        .string("type", "sbn.hist.v1")
        .string("scale", scale_ == HistogramScale::Log ? "log" : "linear")
        .exact("lo", lo_)
        .exact("hi", hi_)
        .unsignedInt("bins", bins_.size())
        .unsignedInt("count", count_)
        .unsignedInt("underflow", underflow_)
        .unsignedInt("overflow", overflow_)
        .exact("sum", sum_)
        .string("counts", counts)
        .finish();
}

void
Histogram::reset()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    underflow_ = overflow_ = count_ = 0;
    sum_ = 0.0;
    maxSample_ = 0.0;
}

} // namespace sbn
