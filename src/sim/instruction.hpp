/**
 * @file
 * Micro-op representation and the instruction source interface.
 *
 * The simulator is trace-agnostic: any InstructionSource can feed the
 * pipeline. The workload library provides synthetic SPEC-like sources;
 * tests provide tiny hand-built ones.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace mimoarch {

/** Functional classes of micro-ops, mapped to functional units. */
enum class OpClass : uint8_t {
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,
};

/** Number of OpClass values (for counter arrays). */
constexpr size_t kNumOpClasses = 9;

/**
 * One dynamic micro-op as produced by an instruction source. 24 bytes:
 * the small fields share the first word.
 */
struct MicroOp
{
    OpClass cls = OpClass::IntAlu;

    /** Branch outcome for Branch ops. */
    bool taken = false;

    /**
     * Data dependencies, expressed as distances (in dynamic micro-ops)
     * back to the producing op. 0 means "no dependency / outside the
     * window". Distances larger than the ROB never stall.
     */
    uint16_t srcDist0 = 0;
    uint16_t srcDist1 = 0;

    /** Effective address for loads/stores (byte-granular). */
    uint64_t addr = 0;

    /** Program counter (drives I-cache and branch predictor indexing). */
    uint64_t pc = 0;
};

static_assert(sizeof(MicroOp) == 24);

/** Pull interface the core fetches from. */
class InstructionSource
{
  public:
    virtual ~InstructionSource() = default;

    /** Produce the next dynamic micro-op. Sources are infinite streams. */
    virtual MicroOp next() = 0;
};

} // namespace mimoarch
