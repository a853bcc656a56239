/**
 * @file
 * The benchmark's reference kernel. The host the benchmark runs on is
 * shared: for seconds to minutes at a time, other tenants slow every
 * core by up to about 2x, and a run's median pass time moves with
 * them. The kernel is fixed, benchmark-owned work in the simulator's
 * style (an event queue feeding a hash map), run between the steps of
 * every pass, so its median time over a run measures the host's speed
 * during that run (see toReferenceSeconds in metrics.hh). No change to
 * the simulator can change the kernel's time.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

namespace perfbench
{

/**
 * The kernel's time on a quiet core of the 4-core Xeon container the
 * benchmark was defined on, so that reference seconds read close to
 * quiet-host seconds there.
 */
constexpr double kReferenceNominalS = 0.0085;

/** Run the reference kernel once; returns its host seconds. */
double timeReference();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
