//===- hydra/TlsEngine.h - Speculative execution of selected STLs ----------==//
//
// Cycle-level model of Hydra's four-core thread-level speculation. When
// sequential execution reaches the header of a selected STL, the engine
// takes over: loop iterations are assigned to cores in sequential order,
// stores are buffered per thread (Table 1 limits), loads forward from the
// nearest earlier uncommitted thread, a store by an earlier thread to data
// a later thread already read violates and restarts the later thread (and
// everything more speculative), buffer overflows stall a thread until it
// becomes the head, and the head thread committing the loop-exit path ends
// the STL. Fixed overheads follow Table 2.
//
// Each core runs from one shared event to the next (ExecContext::runToStop
// over a per-flat-PC stop mask), and the scheduler visits only the cycles
// at which some core reaches one; DESIGN.md argues why every cross-core
// event keeps the (cycle, core) slot a one-instruction-per-cycle schedule
// would give it.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_HYDRA_TLSENGINE_H
#define JRPM_HYDRA_TLSENGINE_H

#include "exec/CodeImage.h"
#include "hydra/EpochTable.h"
#include "interp/ExecContext.h"
#include "interp/Machine.h"
#include "jit/TlsPlan.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "sim/CacheModel.h"
#include "sim/Config.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace jrpm {
namespace hydra {

/// Per-loop speculative execution statistics.
///
/// Thread identity: every spawned thread lifetime resolves exactly once, so
///   ThreadsStarted == CommittedThreads + Restarts + ThreadsDiscarded
///                     + ThreadsExited.
///
/// Cycle identity: the six *Cycles buckets partition every core-cycle the
/// loop occupied, so
///   UsefulCycles + ForkCommitCycles + ViolationDiscardCycles
///     + BufferStallCycles + SyncStallCycles + IdleCycles
///   == NumCores * SpecCycles.
struct TlsLoopRunStats {
  std::uint64_t Invocations = 0;
  std::uint64_t CommittedThreads = 0;
  std::uint64_t Violations = 0;
  std::uint64_t Restarts = 0;
  std::uint64_t OverflowStalls = 0;
  std::uint64_t SyncStalls = 0;
  std::uint64_t SpecCycles = 0;
  std::uint64_t ThreadsStarted = 0;
  /// Threads whose loop-exit path was adopted by the sequential context.
  std::uint64_t ThreadsExited = 0;
  /// Live threads thrown away when another thread's exit ended the loop.
  std::uint64_t ThreadsDiscarded = 0;
  // Table-2 style overhead buckets, in core-cycles.
  std::uint64_t UsefulCycles = 0;
  std::uint64_t ForkCommitCycles = 0;
  std::uint64_t ViolationDiscardCycles = 0;
  std::uint64_t BufferStallCycles = 0;
  std::uint64_t SyncStallCycles = 0;
  std::uint64_t IdleCycles = 0;
};

class TlsEngine : public interp::LoopDispatcher {
public:
  /// \p M is the plain (unannotated) module the sequential machine runs;
  /// \p Plans describe the selected STLs.
  TlsEngine(const ir::Module &M, const sim::HydraConfig &Cfg,
            std::vector<jit::TlsLoopPlan> Plans);

  const std::vector<exec::FlatPc> &dispatchPcs() const override {
    return HeaderPcs;
  }
  bool onBlockStart(interp::ExecContext &Ctx, interp::Machine &M) override;

  const std::map<std::uint32_t, TlsLoopRunStats> &loopStats() const {
    return Stats;
  }

  /// Aggregate statistics over all loops.
  TlsLoopRunStats totals() const;

  /// Attaches the span recorder: one track per core for thread lifetimes,
  /// stall sub-spans and violation markers, plus \p EngineTrack for loop
  /// invocation spans. \p Cores must hold one track per configured core.
  void setObservability(metrics::Timeline *Timeline, metrics::TrackId Engine,
                        std::vector<metrics::TrackId> Cores) {
    TL = Timeline;
    EngineTrack = Engine;
    CoreTracks = std::move(Cores);
  }

  /// Exports the aggregate stats as "spec.*" counters and histograms.
  void exportMetrics(metrics::Registry &R) const;

private:
  struct PreparedLoop {
    jit::TlsLoopPlan Plan;
    /// Index of the globalized clone within EngineModule (0 = not yet
    /// prepared).
    std::uint32_t TlsFunc = 0;
    /// Flat PC of the clone's header block in EngineImage: spec threads
    /// spawn here and an iteration is done when control returns here.
    exec::FlatPc HeaderPcTls = 0;
    std::vector<std::uint32_t> SpillAddrs; // sorted for membership checks
    bool Ready = false;

    bool isSpillAddr(std::uint32_t Addr) const {
      return std::binary_search(SpillAddrs.begin(), SpillAddrs.end(), Addr);
    }
  };

  /// One core's speculative thread state. A core holds a live thread in
  /// every state but Idle.
  struct SpecThread {
    /// Faulted: the thread trapped (or loaded outside the heap) while not
    /// the head. It stays parked on the faulting instruction until a
    /// squash discards the fault or it becomes the head and re-executes
    /// the instruction, so only a fault of the sequential program surfaces.
    enum class St {
      Idle,
      Running,
      WaitHead,
      WaitSync,
      IterDone,
      Exited,
      Faulted
    };
    enum class Stall { None, Buffer, Sync };
    St State = St::Idle;
    std::uint64_t Iter = 0;
    std::uint64_t ReadyAt = 0;
    std::uint32_t ExitBlock = 0;
    /// Spill address a WaitSync thread spins on.
    std::uint32_t SyncAddr = 0;
    // Cycle-attribution state for the current lifetime (spawn..resolve).
    std::uint64_t StartAt = 0;
    /// Cycle up to which this lifetime is charged as fork/commit overhead
    /// (restart penalty, end-of-iteration handling); == ReadyAt at spawn.
    std::uint64_t SpawnOverheadUntil = 0;
    std::uint64_t StallStart = 0;
    Stall StallKind = Stall::None;
    std::uint64_t BufStallAcc = 0;
    std::uint64_t SyncStallAcc = 0;
    std::unique_ptr<interp::ExecContext> Ctx;
    std::unique_ptr<sim::L1CacheModel> L1;
    StoreBuffer StoreBuf;
    EpochIndex StoreLines;
    /// Read state (violation keys and lines); never kept for the head.
    EpochIndex ReadSet;
    EpochIndex ReadLines;
  };

  /// MemoryPort adapter binding a core index to the engine.
  class SpecPort : public interp::MemoryPort {
  public:
    SpecPort(TlsEngine &E, std::uint32_t Core) : E(E), Core(Core) {}
    std::uint64_t load(std::uint32_t Addr, std::uint32_t &Extra) override {
      return E.specLoad(Core, Addr, Extra);
    }
    void store(std::uint32_t Addr, std::uint64_t Value,
               std::uint32_t &Extra) override {
      E.specStore(Core, Addr, Value, Extra);
    }
    std::uint32_t allocWords(std::uint32_t Count) override;

  private:
    TlsEngine &E;
    std::uint32_t Core;
  };

  void prepareLoop(PreparedLoop &PL, interp::Machine &M);
  void runLoop(PreparedLoop &PL, interp::ExecContext &Ctx,
               interp::Machine &M);

  /// How a thread lifetime ended; decides which bucket its active cycles
  /// land in (Commit/Exit -> useful, Squash/Discard -> violation discard).
  enum class Outcome { Commit, Exit, Squash, Discard };
  void openStall(std::uint32_t Core, SpecThread::Stall Kind);
  void closeStall(std::uint32_t Core);
  /// Closes the current lifetime of \p Core's thread at the current Cycle:
  /// decomposes [StartAt, Cycle) into fork/commit + stall + active time,
  /// charges the buckets, and accounts the core occupancy.
  void resolveLifetime(std::uint32_t Core, Outcome O);

  std::uint64_t specLoad(std::uint32_t Core, std::uint32_t Addr,
                         std::uint32_t &Extra);
  void specStore(std::uint32_t Core, std::uint32_t Addr, std::uint64_t Value,
                 std::uint32_t &Extra);

  /// Rebuilds StopMask over EngineImage: see DESIGN.md for the event
  /// model it encodes.
  void buildStopMask();

  // --- runLoop helpers (valid only during runLoop) -------------------------
  /// Every State write goes through here to keep the WaitSync and Idle
  /// counts the scheduler tests instead of scanning the cores.
  void setState(SpecThread &T, SpecThread::St S);
  /// Core running iteration \p Iter. Live iterations are exactly
  /// [HeadIter, NextIter), at most NumCores of them, so Iter mod NumCores
  /// names a unique core.
  std::uint32_t coreOf(std::uint64_t Iter) const {
    return IterCore[Iter % IterCore.size()];
  }
  /// Parks \p Core's non-head thread on a fault (see St::Faulted).
  void parkFaulted(std::uint32_t Core);
  /// Fills \p Regs (a recycled buffer; capacity is reused) with the spawn
  /// register file for iteration \p Iter.
  void fillSpawnRegs(std::vector<std::uint64_t> &Regs,
                     std::uint64_t Iter) const;
  void spawnThread(std::uint32_t Core, std::uint64_t Iter);
  void squashThread(std::uint32_t Core);
  /// Resumes WaitSync threads whose producer has delivered (or finished).
  void resumeSyncWaiters();
  void commitThread(std::uint32_t Core);
  void flushStoreBuffer(SpecThread &T);
  void accumulateReductions(SpecThread &T);
  void recomputeExitCap();
  std::uint32_t violationKey(std::uint32_t Addr) const {
    return Cfg.ViolationGrain == sim::ViolationGranularity::Word
               ? Addr
               : lineOf(Addr);
  }
  std::uint32_t lineOf(std::uint32_t Addr) const {
    return Addr / Cfg.WordsPerLine;
  }

  /// Held by value (reentrancy audit): sweep jobs build engines from
  /// per-job configs in temporaries; a reference member would dangle.
  sim::HydraConfig Cfg;
  ir::Module EngineModule; // plain module + appended globalized clones
  /// Image of EngineModule, rebuilt by assignment whenever prepareLoop
  /// appends a clone. Appending keeps every existing flat PC stable
  /// (finalize numbers instructions in function order), so PCs cached in
  /// HeaderPcs and in already-prepared loops stay valid, and the spec
  /// contexts reference this member by address across rebuilds.
  exec::CodeImage EngineImage;
  std::vector<PreparedLoop> Loops;
  /// Sequential-image flat PC of each selected loop's header block start,
  /// indexed like Loops. The sequential machine's context and EngineImage
  /// are compiled from content-identical modules, so their flat PCs agree;
  /// the machine stops only at these PCs.
  std::vector<exec::FlatPc> HeaderPcs;
  std::map<std::uint32_t, TlsLoopRunStats> Stats;
  /// One byte per EngineImage instruction: nonzero where a core's run
  /// must stop so the instruction executes at its exact cycle.
  std::vector<std::uint8_t> StopMask;

  // Live state of the current runLoop invocation.
  interp::Heap *CurHeap = nullptr;
  const PreparedLoop *Cur = nullptr;
  TlsLoopRunStats *CurStats = nullptr;
  std::vector<SpecThread> Threads; // one per core
  std::vector<std::unique_ptr<SpecPort>> Ports;
  std::vector<std::uint32_t> IterCore; // see coreOf()
  std::uint32_t NumWaitSync = 0;
  std::uint32_t NumIdle = 0;
  /// Set when a core's run may have enabled a head, sync-resume or refill
  /// transition (a thread finished its iteration or left the loop, a
  /// violation squashed threads, or a store landed while a sync waiter
  /// exists), so the scheduler visits the next cycle to apply it. Stalls
  /// and parked faults enable none: a stalled or parked thread only moves
  /// again through another thread's event, which sets this itself.
  bool Recheck = false;
  std::uint64_t Cycle = 0;
  std::uint64_t HeadIter = 0;
  std::uint64_t NextIter = 0;
  std::optional<std::uint64_t> ExitCap;
  std::vector<std::uint64_t> EntryRegs;
  std::vector<std::uint64_t> ReductionAcc;
  /// Recycled register-file buffers: every spawn displaces the previous
  /// activation's file via ExecContext::resetAtPc and reuses it for the
  /// next spawn instead of allocating per iteration.
  std::vector<std::vector<std::uint64_t>> RegPool;
  /// Set by specLoad when a load must be retried (a synchronized load
  /// whose producer has not stored yet, or a parked fault); runLoop rewinds
  /// the context so the load re-issues later.
  bool RewindPending = false;

  // Observability state. CoreBusy accumulates resolved lifetime lengths per
  // core within the current invocation; what remains of the invocation's
  // span is idle time by definition.
  metrics::Timeline *TL = nullptr;
  metrics::TrackId EngineTrack = 0;
  std::vector<metrics::TrackId> CoreTracks;
  std::vector<std::uint64_t> CoreBusy;
  /// Machine clock at runLoop entry; global ts = ClockBase + local Cycle.
  std::uint64_t ClockBase = 0;
  metrics::Histogram ThreadActiveCycles;
  metrics::Histogram InvocationCycles;
};

} // namespace hydra
} // namespace jrpm

#endif // JRPM_HYDRA_TLSENGINE_H
