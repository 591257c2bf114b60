//===- interp/TraceSink.h - Profiling event interface ----------------------==//
//
// Events emitted by annotated sequential execution (Section 5.1's annotating
// instructions plus automatic memory events). The TEST hardware model
// consumes them at zero cost; the software-only profiler model charges a
// callback penalty per event via the return values.
//
// Delivery is one virtual call per event, in program order, for every
// producer: live interpretation (interp::ExecContext), .jtrace replay
// (trace::replay, trace::CachedTrace) and the recording tee. The comparator
// banks listen passively (paper Section 5), so a sink sees exactly the
// stream the annotated run produced, one event at a time.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_TRACESINK_H
#define JRPM_INTERP_TRACESINK_H

#include <cstdint>

namespace jrpm {
namespace interp {

class TraceSink {
public:
  virtual ~TraceSink() = default;

  /// Every method returns extra cycles charged to the traced program (0 for
  /// the hardware tracer, the callback cost for software-only profiling).
  virtual std::uint32_t onHeapLoad(std::uint32_t Addr, std::uint64_t Cycle,
                                   std::int32_t Pc) = 0;
  virtual std::uint32_t onHeapStore(std::uint32_t Addr, std::uint64_t Cycle,
                                    std::int32_t Pc) = 0;
  virtual std::uint32_t onLocalLoad(std::uint64_t Activation,
                                    std::uint16_t Reg, std::uint64_t Cycle,
                                    std::int32_t Pc) = 0;
  virtual std::uint32_t onLocalStore(std::uint64_t Activation,
                                     std::uint16_t Reg, std::uint64_t Cycle,
                                     std::int32_t Pc) = 0;
  virtual std::uint32_t onLoopStart(std::uint32_t LoopId,
                                    std::uint64_t Activation,
                                    std::uint64_t Cycle) = 0;
  virtual std::uint32_t onLoopIter(std::uint32_t LoopId,
                                   std::uint64_t Cycle) = 0;
  virtual std::uint32_t onLoopEnd(std::uint32_t LoopId,
                                  std::uint64_t Cycle) = 0;
  /// Fired when a function activation returns so the tracer can release
  /// any loop state the activation failed to close explicitly.
  virtual void onReturn(std::uint64_t Activation) = 0;

  /// Optional call-boundary events used by the method-level speculation
  /// coverage analysis (Section 4.1 considers call-return decompositions
  /// before focusing on loops). Default: ignored.
  virtual void onCallSite(std::int32_t CallPc, std::uint64_t Cycle) {
    (void)CallPc;
    (void)Cycle;
  }
  virtual void onCallReturn(std::uint64_t Cycle) { (void)Cycle; }

  /// Statistics read-out at an STL exit. Returns the cycles the read-out
  /// routine consumes (0 when the loop's annotations have been disabled —
  /// the paper nops them out once enough data is collected).
  virtual std::uint32_t onReadStats(std::uint32_t LoopId,
                                    std::uint64_t Cycle) {
    (void)LoopId;
    (void)Cycle;
    return 0;
  }
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_TRACESINK_H
