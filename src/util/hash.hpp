#pragma once
// Checksums for data-integrity checks (checkpoint payload validation)
// and stable 64-bit hashing (condition-cache keys, rate-limiter slots).

#include <cstddef>
#include <cstdint>
#include <string>

namespace aero::util {

/// CRC-32 (IEEE 802.3 polynomial, reflected). `seed` allows incremental
/// computation: pass the previous result to continue over a new chunk.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// FNV-1a 64-bit hash with an avalanche finaliser (splitmix64). Stable
/// across runs and platforms. `seed` continues a previous hash, letting
/// callers mix several fields without concatenating.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);
std::uint64_t fnv1a64(const std::string& text,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace aero::util
