#include "core/fingerprint.hh"

#include "util/flatjson.hh"

namespace sbn {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** Running FNV-1a over typed field values. */
class Hasher
{
  public:
    void
    u64(std::uint64_t value)
    {
        state_ = fingerprintMix(state_, value);
    }

    void
    i64(std::int64_t value)
    {
        u64(static_cast<std::uint64_t>(value));
    }

    void
    f64(double value)
    {
        // Hash the IEEE-754 bit pattern: two configs fingerprint
        // equal exactly when the doubles compare bit-equal, which is
        // the same equivalence the bit-exact record format uses.
        u64(doubleBits(value));
    }

    std::uint64_t
    digest() const
    {
        return state_;
    }

  private:
    std::uint64_t state_ = kFnvOffset;
};

} // namespace

std::uint64_t
fingerprintMix(std::uint64_t state, std::uint64_t value)
{
    constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
    for (int byte = 0; byte < 8; ++byte) {
        state ^= (value >> (8 * byte)) & 0xffu;
        state *= kFnvPrime;
    }
    return state;
}

std::uint64_t
configFingerprint(const SystemConfig &config)
{
    Hasher h;
    // A leading version tag so a field addition changes every
    // fingerprint at once instead of colliding silently. V02: the
    // workload layer replaced the bare moduleWeights vector (records
    // written under V01 no longer match and are discarded on resume,
    // which is the safe direction).
    h.u64(0x53424e4650563032ull); // "SBNFPV02"
    h.i64(config.numProcessors);
    h.i64(config.numModules);
    h.i64(config.memoryRatio);
    h.f64(config.requestProbability);
    h.i64(static_cast<std::int64_t>(config.policy));
    h.i64(static_cast<std::int64_t>(config.selection));
    h.u64(config.buffered ? 1 : 0);
    h.i64(config.inputCapacity);
    h.i64(config.outputCapacity);
    // Workload fields fold into an independent sub-hash (seeded at
    // the FNV offset) committed as one value.
    h.u64(mixWorkloadFingerprint(kFnvOffset, config.workload));
    h.u64(config.seed);
    h.u64(static_cast<std::uint64_t>(config.warmupCycles));
    h.u64(static_cast<std::uint64_t>(config.measureCycles));
    // The kernel folds in only when it is not the exact default, so
    // every fingerprint ever computed for a CycleSkip config stays
    // valid, while FastStat records can never collide with (or
    // satisfy a resume of) an exact-kernel sweep. The tag keeps a
    // future third kernel from colliding with a field extension.
    if (config.kernel != KernelKind::CycleSkip) {
        h.u64(0x4b45524e454c4b44ull); // "KERNELKD"
        h.i64(static_cast<std::int64_t>(config.kernel));
    }
    return h.digest();
}

} // namespace sbn
