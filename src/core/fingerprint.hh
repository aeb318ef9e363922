/**
 * @file
 * Stable configuration fingerprinting for sharded-sweep records.
 *
 * A fingerprint is a 64-bit FNV-1a hash over every SystemConfig field
 * that determines simulation *results*: grid coordinates, policies,
 * buffering, the full workload description, seed and window lengths.
 * Presentation-only fields (the per-module and latency collection
 * toggles) are excluded. The leading version tag is SBNFPV02 (the
 * workload layer replaced the bare moduleWeights vector; V01 records
 * never match and are discarded on resume).
 *
 * Fingerprints identify grid points across processes, hosts and
 * repository revisions (they are pure arithmetic over field values,
 * no pointers, no platform-dependent layout), which is what lets a
 * resumed shard prove a previously written record belongs to the
 * point it is about to skip.
 */

#ifndef SBN_CORE_FINGERPRINT_HH
#define SBN_CORE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "core/config.hh"

namespace sbn {

/** 64-bit result-determining fingerprint of @p config. */
std::uint64_t configFingerprint(const SystemConfig &config);

/**
 * The FNV-1a mixing step all sbn fingerprints are built from: fold
 * the 8 bytes of @p value into @p state (little-endian byte order).
 * Derived fingerprints (e.g. the shard layer's run fingerprints)
 * must extend configFingerprint() through this same function so the
 * two can never drift apart.
 */
std::uint64_t fingerprintMix(std::uint64_t state, std::uint64_t value);

} // namespace sbn

#endif // SBN_CORE_FINGERPRINT_HH
