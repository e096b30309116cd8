// Software prefetch for the engine's pointer-chasing hot loops (DESIGN.md
// §10): the DCB ring walk reads each successor's link before it can visit
// it, so a hint issued one member ahead lets the miss overlap the visit.

#pragma once

#include "util/annotations.h"

namespace flashroute::util {

/// Hints that the cache line holding `address` will be read soon.  A hint
/// only: it never faults, not even on an address past the end of an array,
/// and changes no value the program can observe.
FR_HOT inline void prefetch(const void* address) noexcept {
  // fr-lint: allow(hot-call): compiler builtin; a cache hint that neither
  // allocates, blocks nor faults.
  __builtin_prefetch(address);
}

}  // namespace flashroute::util
