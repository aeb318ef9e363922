/**
 * @file
 * Online statistics accumulator (Welford's algorithm).
 */

#ifndef SBN_STATS_ACCUMULATOR_HH
#define SBN_STATS_ACCUMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <limits>

namespace sbn {

/**
 * Numerically stable accumulator for count / mean / variance / extrema
 * of a stream of samples. Suitable both for per-run metrics and for
 * across-replication summaries.
 */
class Accumulator
{
  public:
    Accumulator() { reset(); }

    /** Forget all samples. */
    void reset();

    /**
     * Add one sample. Inline, so a kernel's flattened driver loop
     * makes no call per completion; the golden meanWait bits depend
     * on these operations in this order.
     */
    void
    add(double sample)
    {
        ++count_;
        const double delta = sample - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (sample - mean_);
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }

    /** Merge another accumulator (parallel Welford combine). */
    void merge(const Accumulator &other);

    /**
     * Build an accumulator from precomputed moments: @p m2 is the sum
     * of squared deviations from @p mean (n * population variance).
     * For callers that accumulate exact integer sums in a hot loop
     * (e.g. the FastStat kernel's tick-valued waits) and summarize
     * once at the end.
     */
    static Accumulator fromMoments(std::uint64_t count, double mean,
                                   double m2, double min, double max);

    /** Number of samples added. */
    std::uint64_t count() const { return count_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sum of samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Standard error of the mean: stddev / sqrt(count). */
    double stderror() const;

    /** Smallest sample seen; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample seen; -inf when empty. */
    double max() const { return max_; }

    /**
     * Half-width of the two-sided confidence interval on the mean at
     * the given level (0.90, 0.95 or 0.99), using the Student-t
     * quantile for count-1 degrees of freedom. Returns +inf with fewer
     * than two samples.
     */
    double confidenceHalfWidth(double level = 0.95) const;

  private:
    std::uint64_t count_;
    double mean_;
    double m2_;
    double min_;
    double max_;
};

/**
 * Two-sided Student-t quantile t_{(1+level)/2, dof} for the confidence
 * levels 0.90 / 0.95 / 0.99 (tabulated for small dof, normal
 * approximation above 120 dof).
 */
double studentTQuantile(std::uint64_t dof, double level);

/** Confidence interval summary produced by estimators. */
struct Estimate
{
    double mean = 0.0;      //!< point estimate
    double halfWidth = 0.0; //!< CI half width at the requested level
    std::uint64_t samples = 0;
};

} // namespace sbn

#endif // SBN_STATS_ACCUMULATOR_HH
