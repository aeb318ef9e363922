/**
 * @file
 * Fixed-bin histogram for latency/waiting-time distributions.
 */

#ifndef SBN_STATS_HISTOGRAM_HH
#define SBN_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace sbn {

/** How a Histogram spaces its bin edges over [lo, hi). */
enum class HistogramScale
{
    Linear, //!< uniform bin width (hi - lo) / bins
    Log,    //!< geometric bins: edge i = lo * (hi/lo)^(i/bins)
};

class TickBins;

/**
 * Histogram over [lo, hi) with uniform or logarithmic bins plus
 * underflow/overflow counters. Also tracks exact mean via a running
 * sum so the histogram can double as a summary statistic.
 *
 * Bin counts and the sample count are integers, and the running sum
 * of integer-valued samples is exact in a double far past any
 * realistic sample volume, so two histograms built from the same
 * multiset of samples are identical regardless of insertion order -
 * which is what makes renderFlatJson() byte-stable across thread
 * counts and shard/serial execution.
 */
class Histogram
{
  public:
    /**
     * @param lo    inclusive lower bound of the tracked range
     * @param hi    exclusive upper bound
     * @param bins  number of uniform bins (>= 1)
     */
    Histogram(double lo, double hi, std::size_t bins);

    /**
     * A histogram with @p bins geometrically spaced bins over
     * [lo, hi); requires 0 < lo < hi. Samples below lo (e.g. a
     * zero-cycle wait when lo is one cycle) land in underflow.
     */
    static Histogram logScale(double lo, double hi, std::size_t bins);

    /** Record one sample. */
    void add(double sample);

    /**
     * Record the integer sample @p tick, exactly as add(tick) would.
     * @p bins tabulates this histogram's layout; a tick at or past its
     * end goes through add(). Inline, for the kernels' hot loops.
     */
    inline void addTick(std::uint64_t tick, const TickBins &bins);

    /** Total samples including under/overflow. */
    std::uint64_t count() const { return count_; }

    /** Mean of all samples. */
    double mean() const;

    /** Count in bin i. */
    std::uint64_t binCount(std::size_t i) const { return bins_.at(i); }

    /** Inclusive lower edge of bin i. */
    double binLow(std::size_t i) const;

    /** Bin-edge spacing rule. */
    HistogramScale scale() const { return scale_; }

    /** Tracked range. */
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /** Largest sample seen (NaN before any sample). */
    double maxSample() const;

    /** Samples below lo / at-or-above hi. */
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Smallest x such that at least quantile*count samples are < x
     * (resolved to bin granularity; underflow maps to lo, and a
     * quantile that falls in the overflow mass maps to hi). NaN when
     * the histogram is empty.
     */
    double quantile(double q) const;

    /** True if @p other has the identical bin layout (scale, range,
     *  bin count), i.e. the two may be merged. */
    bool compatibleWith(const Histogram &other) const;

    /**
     * Fold @p other's samples into this histogram. Incompatible bin
     * layouts are a fatal error: silently re-binning would corrupt
     * the distribution.
     */
    void merge(const Histogram &other);

    /** Multi-line ASCII rendering (one row per non-empty bin). */
    std::string render(std::size_t width = 50) const;

    /**
     * One-line flat JSON rendering (sbn.hist.v1) through the one
     * flat-JSON codec (util/flatjson.hh). Key order is fixed and doubles
     * use the canonical exact %.17g form, so two histograms holding
     * the same samples render byte-identically. Bin counts are a
     * sparse "index:count" list; empty bins are omitted.
     */
    std::string renderFlatJson() const;

    /** Drop all samples. */
    void reset();

  private:
    friend class TickBins;

    /** Slot values for samples outside [lo, hi). */
    static constexpr std::uint32_t kUnderflowSlot = 0xffffffffu;
    static constexpr std::uint32_t kOverflowSlot = 0xfffffffeu;

    Histogram(HistogramScale scale, double lo, double hi,
              std::size_t bins);

    /** Bin index of @p sample, or an under/overflow slot. */
    std::uint32_t slotOf(double sample) const;

    /** The count, sum and max updates every sample makes. */
    void
    noteSample(double sample)
    {
        ++count_;
        sum_ += sample;
        if (count_ == 1 || sample > maxSample_)
            maxSample_ = sample;
    }

    void
    place(std::uint32_t slot)
    {
        if (slot == kUnderflowSlot)
            ++underflow_;
        else if (slot == kOverflowSlot)
            ++overflow_;
        else
            ++bins_[slot];
    }

    HistogramScale scale_;
    double lo_, hi_, width_;
    double logLo_ = 0.0, logStep_ = 0.0; //!< cached for Log scale
    std::vector<std::uint64_t> bins_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double maxSample_ = 0.0;
};

/**
 * The slot of every integer sample in [0, size()) under one histogram
 * layout: a bin index, or underflow/overflow. Computed once with the
 * exact expression Histogram::add() uses, so Histogram::addTick()
 * places small integer samples without a logarithm, and always where
 * add() would.
 */
class TickBins
{
  public:
    /** Tabulate ticks [0, size) for @p layout's scale, range and bins. */
    TickBins(const Histogram &layout, std::size_t size);

    /** Ticks covered: [0, size()). */
    std::size_t size() const { return slot_.size(); }

  private:
    friend class Histogram;

    std::vector<std::uint32_t> slot_;
    Histogram layout_; //!< empty copy, for the debug-build layout check
};

inline void
Histogram::addTick(std::uint64_t tick, const TickBins &bins)
{
    sbn_debug_assert(compatibleWith(bins.layout_),
                     "tick bins of another histogram layout");
    if (tick >= bins.size()) {
        add(static_cast<double>(tick));
        return;
    }
    noteSample(static_cast<double>(tick));
    place(bins.slot_[tick]);
}

} // namespace sbn

#endif // SBN_STATS_HISTOGRAM_HH
