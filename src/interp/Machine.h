//===- interp/Machine.h - Sequential whole-program simulator ---------------==//
//
// Runs a module to completion on one Hydra core: one instruction per cycle
// plus L1 miss latency, with optional profiling (TraceSink) and optional
// speculative dispatch of selected STLs (LoopDispatcher, implemented by the
// Hydra TLS engine).
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_MACHINE_H
#define JRPM_INTERP_MACHINE_H

#include "interp/ExecContext.h"
#include "interp/Heap.h"
#include "interp/MemoryPort.h"
#include "interp/TraceSink.h"
#include "sim/CacheModel.h"
#include "sim/Config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace metrics {
class Registry;
class Timeline;
} // namespace metrics

namespace interp {

class Machine;

/// Hook invoked when sequential execution reaches one of the block starts
/// the dispatcher names; the Hydra engine uses it to take over selected
/// loop headers.
class LoopDispatcher {
public:
  virtual ~LoopDispatcher() = default;

  /// Flat PCs (block starts of the machine's image) at which the machine
  /// calls onBlockStart(); it runs straight through every other PC.
  virtual const std::vector<exec::FlatPc> &dispatchPcs() const = 0;

  /// Returns true if the dispatcher executed the loop speculatively: the
  /// context is then positioned at the loop exit and the consumed cycles
  /// were added via Machine::addCycles().
  virtual bool onBlockStart(ExecContext &Ctx, Machine &M) = 0;
};

/// Direct (non-speculative) memory port: the heap plus one core's L1
/// timing model.
class DirectMemoryPort : public MemoryPort {
public:
  DirectMemoryPort(Heap &H, const sim::HydraConfig &Cfg)
      : H(H), L1(Cfg), MissCycles(Cfg.L2HitExtraCycles) {}

  std::uint64_t load(std::uint32_t Addr, std::uint32_t &ExtraCycles) override {
    ++Loads;
    if (!L1.access(Addr)) {
      ++Misses;
      ExtraCycles += MissCycles;
    }
    return H.load(Addr);
  }

  void store(std::uint32_t Addr, std::uint64_t Value,
             std::uint32_t &ExtraCycles) override {
    (void)ExtraCycles; // write-through via the write buffer: 1 cycle
    ++Stores;
    L1.access(Addr);
    H.store(Addr, Value);
  }

  std::uint32_t allocWords(std::uint32_t Count) override {
    return H.allocWords(Count);
  }

  std::uint64_t loads() const { return Loads; }
  std::uint64_t stores() const { return Stores; }
  std::uint64_t misses() const { return Misses; }

private:
  Heap &H;
  sim::L1CacheModel L1;
  std::uint32_t MissCycles;
  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t Misses = 0;
};

/// Result of a whole-program run.
struct RunResult {
  std::uint64_t Cycles = 0;
  std::uint64_t Instructions = 0;
  std::uint64_t ReturnValue = 0;
  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t L1Misses = 0;
};

class Machine {
public:
  Machine(const ir::Module &M, const sim::HydraConfig &Cfg)
      : M(M), Cfg(Cfg), Ctx(M, this->Cfg), Port(TheHeap, this->Cfg) {}

  void setTraceSink(TraceSink *S) { Sink = S; }
  void setDispatcher(LoopDispatcher *D) { Dispatcher = D; }

  /// Attaches the observability layer: at the end of run() the machine
  /// exports its run counters under "interp.<phase>." into \p Reg and, when
  /// \p TL is non-null, emits one whole-run span on \p TrackId. Costs
  /// nothing on the per-instruction path — everything is derived from the
  /// totals run() already accumulates.
  void setObservability(metrics::Registry *Reg, std::string Phase,
                        metrics::Timeline *TL = nullptr,
                        std::uint32_t TrackId = 0) {
    Metrics = Reg;
    MetricsPhase = std::move(Phase);
    Timeline = TL;
    TimelineTrack = TrackId;
  }

  /// Runs the entry function to completion.
  RunResult run(const std::vector<std::uint64_t> &Args = {});

  Heap &heap() { return TheHeap; }
  const ir::Module &module() const { return M; }
  const sim::HydraConfig &config() const { return Cfg; }
  std::uint64_t clock() const { return Clock; }
  void addCycles(std::uint64_t C) { Clock += C; }

private:
  const ir::Module &M;
  /// Held by value: callers routinely pass temporaries, and the contexts
  /// below keep references into this copy for the machine's lifetime.
  sim::HydraConfig Cfg;
  Heap TheHeap;
  ExecContext Ctx;
  DirectMemoryPort Port;
  TraceSink *Sink = nullptr;
  LoopDispatcher *Dispatcher = nullptr;
  metrics::Registry *Metrics = nullptr;
  metrics::Timeline *Timeline = nullptr;
  std::uint32_t TimelineTrack = 0;
  std::string MetricsPhase;
  std::uint64_t Clock = 0;
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_MACHINE_H
