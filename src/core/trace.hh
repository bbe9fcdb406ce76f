/**
 * @file
 * The memory-reference record exchanged between workload generators
 * and the core model.
 *
 * The simulator is trace-driven at the L2-miss level: each
 * record is one reference that reaches the shared L3, annotated with
 * the number of instructions the core executed since the previous
 * reference, the PC of the issuing instruction (for the MAP-I
 * predictor) and whether downstream computation depends on the loaded
 * value immediately (pointer-chasing loads serialise the core;
 * streaming loads overlap via MSHRs).
 */

#ifndef BEAR_CORE_TRACE_HH
#define BEAR_CORE_TRACE_HH

#include <cstdint>

#include "common/types.hh"

namespace bear
{

/** One memory reference of a simulated core. */
struct MemRef
{
    Addr vaddr = 0;           ///< virtual byte address
    Pc pc = 0;                ///< issuing instruction address
    std::uint32_t instGap = 0; ///< instructions since the previous ref
    bool isWrite = false;     ///< store (dirties the line on chip)
    bool dependent = false;   ///< load value needed immediately
};

/** Generator interface: an endless stream of references. */
class RefStream
{
  public:
    virtual ~RefStream() = default;
    virtual MemRef next() = 0;
};

} // namespace bear

#endif // BEAR_CORE_TRACE_HH
