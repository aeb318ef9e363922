#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace sbn {

namespace {

/** SplitMix64 step, used to expand a single seed into generator state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

RandomGenerator::RandomGenerator(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
RandomGenerator::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &word : s_)
        word = splitMix64(x);
}

std::int64_t
RandomGenerator::uniformRange(std::int64_t lo, std::int64_t hi)
{
    sbn_assert(lo <= hi, "uniformRange requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
RandomGenerator::exponential(double mean)
{
    sbn_assert(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = uniformReal();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

std::uint64_t
RandomGenerator::geometric(double p)
{
    if (p >= 1.0)
        return 0;
    sbn_assert(p > 0.0, "geometric requires p in (0, 1]");
    std::uint64_t failures = 0;
    while (!bernoulli(p))
        ++failures;
    return failures;
}

void
RandomGenerator::shuffle(std::vector<std::size_t> &values)
{
    for (std::size_t i = values.size(); i > 1; --i) {
        const std::size_t j = pickIndex(i);
        std::swap(values[i - 1], values[j]);
    }
}

std::uint64_t
RandomGenerator::deriveSeed()
{
    return next();
}

CounterRng::CounterRng(std::uint64_t key, std::uint64_t stream)
{
    // Derive a well-separated per-stream key: two SplitMix64 steps
    // over the family key, the stream index folded in between, so
    // nearby (key, stream) pairs land in unrelated Weyl sequences.
    std::uint64_t x = key;
    std::uint64_t mixed = splitMix64(x);
    x = mixed ^ (0xd1342543de82ef95ull * (stream + 1));
    key_ = splitMix64(x);
}

} // namespace sbn
