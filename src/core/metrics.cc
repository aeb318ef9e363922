#include "core/metrics.hh"

namespace sbn {

const TickBins &
latencyTickBins()
{
    static const TickBins bins(makeLatencyHistogram(), 4096);
    return bins;
}

LatencySummary
summarizeLatency(const Histogram &wait, const Histogram &residence)
{
    LatencySummary s;
    s.samples = wait.count();
    s.waitP50 = wait.quantile(0.50);
    s.waitP90 = wait.quantile(0.90);
    s.waitP99 = wait.quantile(0.99);
    s.waitMax = wait.maxSample();
    s.residenceP50 = residence.quantile(0.50);
    s.residenceP90 = residence.quantile(0.90);
    s.residenceP99 = residence.quantile(0.99);
    s.residenceMax = residence.maxSample();
    return s;
}

} // namespace sbn
