/**
 * @file
 * Deterministic request-set generator shared by the fleet bench, the
 * fleetctl sweep command, the fleet test suite, and the
 * smoke_fleet_daemon ctest.  loadPoint(i) is a pure function of the
 * index, so every consumer — any worker count, any failure schedule,
 * the single-node reference — drives the exact same request
 * population, which is what makes their byte-identity comparisons
 * meaningful.
 */

#ifndef PITON_FLEET_LOAD_HH
#define PITON_FLEET_LOAD_HH

#include <cstddef>

#include "service/request.hh"

namespace piton::fleet
{

/**
 * The i-th point of the fleet saturation load: smoke-sized
 * characterization requests over a grid of operating points, with
 * every 4th point a warm-startable Sweep (two tails off a shared
 * prefix) so the cache-aware routing path is exercised alongside
 * exact-key routing.
 */
service::ExperimentRequest loadPoint(std::size_t index);

} // namespace piton::fleet

#endif // PITON_FLEET_LOAD_HH
