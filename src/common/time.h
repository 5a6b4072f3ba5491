// Simulation time primitives.
//
// All simulation timestamps and durations are expressed as SimTime, a signed
// 64-bit count of microseconds since the start of the simulation. A signed
// type is used so that durations (differences of timestamps) are expressible
// in the same type without conversion pitfalls.
#pragma once

#include <cstdint>

namespace sora {

/// Microseconds since simulation start (timestamps) or a span of
/// microseconds (durations).
using SimTime = std::int64_t;

/// Sentinel meaning "no deadline" / "never".
inline constexpr SimTime kSimTimeNever = INT64_MAX;

// -- Duration constructors ---------------------------------------------------

constexpr SimTime usec(std::int64_t n) { return n; }
constexpr SimTime msec(std::int64_t n) { return n * 1000; }
constexpr SimTime sec(std::int64_t n) { return n * 1'000'000; }
constexpr SimTime minutes(std::int64_t n) { return n * 60'000'000; }

/// Fractional seconds to SimTime (rounds toward zero).
constexpr SimTime sec_f(double s) { return static_cast<SimTime>(s * 1e6); }

// -- Conversions back to floating point --------------------------------------

constexpr double to_sec(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double to_msec(SimTime t) { return static_cast<double>(t) / 1e3; }

}  // namespace sora
