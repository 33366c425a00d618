/**
 * @file
 * Host-speed gauge. The benchmark runs on a shared host whose speed
 * drifts by tens of percent, and at times by a factor of two, over
 * minutes: the same fixed work takes 1.3 s in one minute and 2.6 s in
 * another, with CPU time equal to wall time throughout. Small fixed
 * kernels (an ALU and table loop, 512 distinct functions, pointer
 * chases over 1 to 8 MiB) slowed by far less than the simulator did,
 * and by different amounts at different times, so none of them could
 * stand in for it.
 *
 * The gauge's slices therefore run the simulator itself, as it was
 * when the benchmark was written (see refsim.hh), interleaved with the
 * workload's own units on the threads that run them. The slices' time
 * over their nominal time is the host's slowdown over a round, and a
 * round's host time divided by it is the round's time at nominal host
 * speed: a change to the library moves that time, a busy neighbour
 * moves it far less.
 */

#ifndef PERFBENCH_GAUGE_HH
#define PERFBENCH_GAUGE_HH

#include <atomic>
#include <cstdint>

namespace perfbench
{

class HostGauge
{
  public:
    /** Runs one slice on the calling thread; returns its host
     *  nanoseconds. Thread-safe. */
    std::uint64_t slice();

    /** Slice time over nominal slice time since the last reset (1.0
     *  when nothing was recorded). */
    double slowdown() const;

    void reset();

  private:
    std::atomic<std::uint64_t> ns_{0};
    std::atomic<std::uint64_t> slices_{0};
};

} // namespace perfbench

#endif // PERFBENCH_GAUGE_HH
