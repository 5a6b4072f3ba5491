// Host-speed calibration for timings taken on a shared host.
//
// Co-tenants of a shared VM slow this process by up to 2x for minutes at a
// time: identical cart_sora runs took 6.0-10.3 s within four minutes, with
// wall time equal to CPU time (the slowdown is in the core and the memory
// system, not in scheduling). A fixed miniature of the simulator's hot
// loop — a binary-heap event queue, hash-map state, small allocations — is
// timed right after every measured slice, and the slice's time is scaled
// by nominal / measured kernel time. Over ten cart_sora seeds on a shared
// 4-core VM this cut the run-to-run spread (IQR / median) of run_s from 26%
// to 3.5%, while a deliberate slowdown of the simulator still showed in
// full.
//
// The kernel belongs to the benchmark, not to the program under test: a
// change to the simulator moves the slice times, not the scale.
#pragma once

namespace perfbench {

/// Kernel time on an uncontended host, milliseconds: the scale in which
/// normalized times are expressed (seconds at nominal host speed).
constexpr double kNominalKernelMs = 4.0;

/// The calibration kernel's time now: the fastest of three back-to-back
/// runs (the first may find its caches cold), milliseconds.
double kernel_ms();

/// `seconds` measured just before kernel_ms() returned `kernel`, expressed
/// at nominal host speed.
inline double at_nominal_speed(double seconds, double kernel) {
  return seconds * kNominalKernelMs / kernel;
}

}  // namespace perfbench
