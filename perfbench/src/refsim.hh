/**
 * @file
 * The host-speed gauge's kernel: the simulator itself, as it was when
 * the benchmark was written. `perfbench/ref/` holds a copy of the
 * library sources a simulation needs, built into its own static library
 * with the `mcd` namespace renamed to `mcdref`, so the copy links into
 * one program beside the live library without sharing a symbol, and a
 * later change to the library does not change the gauge.
 *
 * This header names nothing of either copy, so any translation unit can
 * include it.
 */

#ifndef PERFBENCH_REFSIM_HH
#define PERFBENCH_REFSIM_HH

#include <cstdint>

namespace perfbench
{

/** Simulates `instructions` of paper app `bench` on the reference copy,
 *  from reset (a fresh workload, machine and clocks), uncontrolled at
 *  the maximum frequencies. Returns the instructions committed. */
std::uint64_t referenceSimulation(const char *bench,
                                  std::uint64_t instructions);

} // namespace perfbench

#endif // PERFBENCH_REFSIM_HH
