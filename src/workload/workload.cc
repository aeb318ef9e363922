#include "workload/workload.hh"

#include <cmath>
#include <cstdio>

#include "core/fingerprint.hh"
#include "util/flatjson.hh"
#include "util/logging.hh"

namespace sbn {

const char *
referencePatternName(ReferencePattern pattern)
{
    switch (pattern) {
    case ReferencePattern::Uniform:
        return "uniform";
    case ReferencePattern::HotSpot:
        return "hotspot";
    case ReferencePattern::Favorite:
        return "favorite";
    case ReferencePattern::Weighted:
        return "weighted";
    }
    return "?";
}

std::vector<double>
WorkloadConfig::moduleProbabilities(int proc, int m) const
{
    const double uniform_share = 1.0 / static_cast<double>(m);
    std::vector<double> probs(static_cast<std::size_t>(m),
                              uniform_share);
    switch (pattern) {
    case ReferencePattern::Uniform:
        break;
    case ReferencePattern::HotSpot:
        for (double &q : probs)
            q *= 1.0 - hotFraction;
        probs[static_cast<std::size_t>(hotModule)] += hotFraction;
        break;
    case ReferencePattern::Favorite:
        for (double &q : probs)
            q *= 1.0 - favoriteFraction;
        probs[static_cast<std::size_t>(proc % m)] += favoriteFraction;
        break;
    case ReferencePattern::Weighted: {
        double total = 0.0;
        for (double w : moduleWeights)
            total += w;
        for (std::size_t i = 0; i < probs.size(); ++i)
            probs[i] = moduleWeights[i] / total;
        break;
    }
    }
    return probs;
}

double
WorkloadConfig::thinkProbability(int proc, double base_p) const
{
    switch (think) {
    case ThinkModel::Homogeneous:
        return base_p;
    case ThinkModel::TwoClass:
        return proc < fastCount ? fastProbability : slowProbability;
    case ThinkModel::PerProcessor:
        return thinkProbabilities[static_cast<std::size_t>(proc)];
    }
    return base_p;
}

void
WorkloadConfig::validate(int n, int m) const
{
    const auto probability = [](double p, const char *what) {
        if (!(p >= 0.0 && p <= 1.0))
            sbn_fatal("workload: ", what, " must be in [0,1], got ", p);
    };

    switch (pattern) {
    case ReferencePattern::Uniform:
        break;
    case ReferencePattern::HotSpot:
        probability(hotFraction, "hotFraction");
        if (hotModule < 0 || hotModule >= m)
            sbn_fatal("workload: hotModule ", hotModule,
                      " out of range for ", m, " modules");
        break;
    case ReferencePattern::Favorite:
        probability(favoriteFraction, "favoriteFraction");
        break;
    case ReferencePattern::Weighted:
        if (static_cast<int>(moduleWeights.size()) != m)
            sbn_fatal("workload: moduleWeights size ",
                      moduleWeights.size(), " != numModules ", m);
        for (double w : moduleWeights)
            if (!(w > 0.0) || !std::isfinite(w))
                sbn_fatal("workload: moduleWeights entries must be "
                          "finite and > 0, got ", w);
        break;
    }

    switch (think) {
    case ThinkModel::Homogeneous:
        break;
    case ThinkModel::TwoClass:
        if (fastCount < 0 || fastCount > n)
            sbn_fatal("workload: fastCount ", fastCount,
                      " out of range for ", n, " processors");
        probability(fastProbability, "fastProbability");
        probability(slowProbability, "slowProbability");
        break;
    case ThinkModel::PerProcessor:
        if (static_cast<int>(thinkProbabilities.size()) != n)
            sbn_fatal("workload: thinkProbabilities size ",
                      thinkProbabilities.size(), " != numProcessors ",
                      n);
        for (double p : thinkProbabilities)
            probability(p, "thinkProbabilities entries");
        break;
    }
}

std::string
formatWorkload(const WorkloadConfig &workload)
{
    std::string out = referencePatternName(workload.pattern);
    switch (workload.pattern) {
    case ReferencePattern::Uniform:
        break;
    case ReferencePattern::HotSpot:
        out += ":h=" + formatExactDouble(workload.hotFraction) +
               ",module=" + std::to_string(workload.hotModule);
        break;
    case ReferencePattern::Favorite:
        out += ":f=" + formatExactDouble(workload.favoriteFraction);
        break;
    case ReferencePattern::Weighted:
        out += ":w=";
        for (std::size_t i = 0; i < workload.moduleWeights.size(); ++i) {
            if (i > 0)
                out += ',';
            out += formatExactDouble(workload.moduleWeights[i]);
        }
        break;
    }

    switch (workload.think) {
    case ThinkModel::Homogeneous:
        break;
    case ThinkModel::TwoClass:
        out += ";think=two:fast=" + std::to_string(workload.fastCount) +
               "@" + formatExactDouble(workload.fastProbability) +
               ",slow=" + formatExactDouble(workload.slowProbability);
        break;
    case ThinkModel::PerProcessor:
        out += ";think=vec:";
        for (std::size_t i = 0;
             i < workload.thinkProbabilities.size(); ++i) {
            if (i > 0)
                out += ',';
            out += formatExactDouble(workload.thinkProbabilities[i]);
        }
        break;
    }
    return out;
}

std::uint64_t
mixWorkloadFingerprint(std::uint64_t state,
                       const WorkloadConfig &workload)
{
    state = fingerprintMix(
        state, static_cast<std::uint64_t>(workload.pattern));
    state = fingerprintMix(state,
                           doubleBits(workload.hotFraction));
    state = fingerprintMix(
        state, static_cast<std::uint64_t>(workload.hotModule));
    state = fingerprintMix(
        state, doubleBits(workload.favoriteFraction));
    state = fingerprintMix(state, workload.moduleWeights.size());
    for (double w : workload.moduleWeights)
        state = fingerprintMix(state, doubleBits(w));
    state =
        fingerprintMix(state, static_cast<std::uint64_t>(workload.think));
    state = fingerprintMix(
        state, static_cast<std::uint64_t>(workload.fastCount));
    state = fingerprintMix(
        state, doubleBits(workload.fastProbability));
    state = fingerprintMix(
        state, doubleBits(workload.slowProbability));
    state = fingerprintMix(state, workload.thinkProbabilities.size());
    for (double p : workload.thinkProbabilities)
        state = fingerprintMix(state, doubleBits(p));
    return state;
}

AliasTable::AliasTable(const std::vector<double> &weights)
{
    const std::size_t k = weights.size();
    sbn_assert(k >= 1, "alias table needs at least one outcome");
    accept_.assign(k, 1.0);
    alias_.resize(k);

    // Zero weights are legitimate (e.g. Favorite f = 1 puts zero
    // mass on every non-home module); only the total must be
    // positive.
    double total = 0.0;
    for (double w : weights) {
        sbn_assert(w >= 0.0 && std::isfinite(w),
                   "alias table weights must be finite and >= 0");
        total += w;
    }
    sbn_assert(total > 0.0, "alias table needs positive total weight");

    // Vose's method with index-ordered worklists: deterministic
    // pairing of under- and over-full slots, so the table - and the
    // RNG-to-sample mapping - is identical on every platform.
    std::vector<double> scaled(k);
    for (std::size_t i = 0; i < k; ++i)
        scaled[i] = weights[i] * static_cast<double>(k) / total;

    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < k; ++i) {
        alias_[i] = static_cast<std::uint32_t>(i);
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));
    }

    while (!small.empty() && !large.empty()) {
        const std::uint32_t under = small.back();
        small.pop_back();
        const std::uint32_t over = large.back();
        accept_[under] = scaled[under];
        alias_[under] = over;
        scaled[over] -= 1.0 - scaled[under];
        if (scaled[over] < 1.0) {
            large.pop_back();
            small.push_back(over);
        }
    }
    // Leftovers (rounding) keep accept = 1: always take the slot.
    for (const std::uint32_t i : small)
        accept_[i] = 1.0;
    for (const std::uint32_t i : large)
        accept_[i] = 1.0;
}

WorkloadModel::WorkloadModel(const WorkloadConfig &workload, int n,
                             int m, double base_p)
    : numModules_(static_cast<std::uint64_t>(m)),
      uniform_(workload.uniformReference())
{
    thinkP_.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p)
        thinkP_[static_cast<std::size_t>(p)] =
            workload.thinkProbability(p, base_p);

    if (uniform_)
        return;

    tableOf_.assign(static_cast<std::size_t>(n), 0);
    if (workload.processorIndependentReference()) {
        tables_.emplace_back(workload.moduleProbabilities(0, m));
        return;
    }
    // Favorite: one table per home module actually in use (home =
    // proc mod m, so the first min(n, m) residues).
    const int homes = n < m ? n : m;
    tables_.reserve(static_cast<std::size_t>(homes));
    for (int home = 0; home < homes; ++home)
        tables_.emplace_back(workload.moduleProbabilities(home, m));
    for (int p = 0; p < n; ++p)
        tableOf_[static_cast<std::size_t>(p)] =
            static_cast<std::uint32_t>(p % m);
}

} // namespace sbn
