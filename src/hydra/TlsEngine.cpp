//===- hydra/TlsEngine.cpp ------------------------------------------------==//

#include "hydra/TlsEngine.h"

#include "hydra/TlsCodegen.h"
#include "interp/Trap.h"
#include "support/Bits.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cassert>

using namespace jrpm;
using namespace jrpm::hydra;

TlsEngine::TlsEngine(const ir::Module &M, const sim::HydraConfig &Cfg,
                     std::vector<jit::TlsLoopPlan> Plans)
    : Cfg(Cfg), EngineModule(M), EngineImage(EngineModule) {
  Loops.reserve(Plans.size());
  for (jit::TlsLoopPlan &Plan : Plans) {
    PreparedLoop PL;
    PL.Plan = std::move(Plan);
    HeaderPcs.push_back(EngineImage.blockStart(PL.Plan.Func, PL.Plan.Header));
    Loops.push_back(std::move(PL));
  }
  Threads.resize(Cfg.NumCores);
  IterCore.assign(Cfg.NumCores, 0);
  NumIdle = Cfg.NumCores;
  for (std::uint32_t C = 0; C < Cfg.NumCores; ++C) {
    Threads[C].Ctx = std::make_unique<interp::ExecContext>(EngineImage, Cfg);
    Threads[C].L1 = std::make_unique<sim::L1CacheModel>(Cfg);
    Ports.push_back(std::make_unique<SpecPort>(*this, C));
  }
  buildStopMask();
}

std::uint32_t TlsEngine::SpecPort::allocWords(std::uint32_t Count) {
  (void)Count;
  JRPM_FATAL("heap allocation inside a speculative thread (the candidate "
             "screen should have rejected this loop)");
}

TlsLoopRunStats TlsEngine::totals() const {
  TlsLoopRunStats T;
  for (const auto &[LoopId, S] : Stats) {
    T.Invocations += S.Invocations;
    T.CommittedThreads += S.CommittedThreads;
    T.Violations += S.Violations;
    T.Restarts += S.Restarts;
    T.OverflowStalls += S.OverflowStalls;
    T.SyncStalls += S.SyncStalls;
    T.SpecCycles += S.SpecCycles;
    T.ThreadsStarted += S.ThreadsStarted;
    T.ThreadsExited += S.ThreadsExited;
    T.ThreadsDiscarded += S.ThreadsDiscarded;
    T.UsefulCycles += S.UsefulCycles;
    T.ForkCommitCycles += S.ForkCommitCycles;
    T.ViolationDiscardCycles += S.ViolationDiscardCycles;
    T.BufferStallCycles += S.BufferStallCycles;
    T.SyncStallCycles += S.SyncStallCycles;
    T.IdleCycles += S.IdleCycles;
  }
  return T;
}

void TlsEngine::exportMetrics(metrics::Registry &R) const {
  TlsLoopRunStats T = totals();
  R.counter("spec.invocations").inc(T.Invocations);
  R.counter("spec.threads_started").inc(T.ThreadsStarted);
  // "Committed" work is work the sequential context kept: iteration commits
  // plus the adopted loop-exit threads. With threads_violated == Restarts,
  // started == committed + violated + discarded holds exactly.
  R.counter("spec.threads_committed").inc(T.CommittedThreads + T.ThreadsExited);
  R.counter("spec.threads_violated").inc(T.Restarts);
  R.counter("spec.threads_discarded").inc(T.ThreadsDiscarded);
  R.counter("spec.violations").inc(T.Violations);
  R.counter("spec.overflow_stalls").inc(T.OverflowStalls);
  R.counter("spec.sync_stalls").inc(T.SyncStalls);
  R.counter("spec.cycles.useful").inc(T.UsefulCycles);
  R.counter("spec.cycles.fork_commit").inc(T.ForkCommitCycles);
  R.counter("spec.cycles.violation_discard").inc(T.ViolationDiscardCycles);
  R.counter("spec.cycles.buffer_stall").inc(T.BufferStallCycles);
  R.counter("spec.cycles.sync_stall").inc(T.SyncStallCycles);
  R.counter("spec.cycles.idle").inc(T.IdleCycles);
  R.counter("spec.cycles.total")
      .inc(std::uint64_t(Cfg.NumCores) * T.SpecCycles);
  R.histogram("spec.thread_active_cycles").merge(ThreadActiveCycles);
  R.histogram("spec.invocation_cycles").merge(InvocationCycles);
}

void TlsEngine::openStall(std::uint32_t Core, SpecThread::Stall Kind) {
  SpecThread &T = Threads[Core];
  if (T.StallKind != SpecThread::Stall::None)
    return;
  T.StallKind = Kind;
  T.StallStart = Cycle;
  if (TL && Core < CoreTracks.size())
    TL->begin(CoreTracks[Core],
              Kind == SpecThread::Stall::Buffer ? "stall.buffer"
                                                : "stall.sync",
              ClockBase + Cycle);
}

void TlsEngine::closeStall(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  if (T.StallKind == SpecThread::Stall::None)
    return;
  std::uint64_t Len = Cycle - T.StallStart;
  if (T.StallKind == SpecThread::Stall::Buffer)
    T.BufStallAcc += Len;
  else
    T.SyncStallAcc += Len;
  T.StallKind = SpecThread::Stall::None;
  if (TL && Core < CoreTracks.size())
    TL->end(CoreTracks[Core], ClockBase + Cycle);
}

void TlsEngine::resolveLifetime(std::uint32_t Core, Outcome O) {
  SpecThread &T = Threads[Core];
  closeStall(Core);
  // Decompose the lifetime into fork/commit overhead, stalls, and active
  // time. Each component is clamped to what remains, so the four parts
  // always sum to exactly Cycle - StartAt whatever interleaving produced
  // them — the bucket-sum identity depends on this, not on the stall
  // intervals being disjoint from the spawn penalty.
  std::uint64_t Lifetime = Cycle - T.StartAt;
  std::uint64_t Fc = std::min(T.SpawnOverheadUntil - T.StartAt, Lifetime);
  std::uint64_t Buf = std::min(T.BufStallAcc, Lifetime - Fc);
  std::uint64_t Sync = std::min(T.SyncStallAcc, Lifetime - Fc - Buf);
  std::uint64_t Active = Lifetime - Fc - Buf - Sync;
  CurStats->ForkCommitCycles += Fc;
  CurStats->BufferStallCycles += Buf;
  CurStats->SyncStallCycles += Sync;
  if (O == Outcome::Commit || O == Outcome::Exit) {
    CurStats->UsefulCycles += Active;
    ThreadActiveCycles.record(Active);
  } else {
    CurStats->ViolationDiscardCycles += Active;
  }
  if (O == Outcome::Exit)
    ++CurStats->ThreadsExited;
  else if (O == Outcome::Discard)
    ++CurStats->ThreadsDiscarded;
  CoreBusy[Core] += Lifetime;
  T.BufStallAcc = 0;
  T.SyncStallAcc = 0;
  if (TL && Core < CoreTracks.size())
    TL->end(CoreTracks[Core], ClockBase + Cycle);
}

void TlsEngine::prepareLoop(PreparedLoop &PL, interp::Machine &M) {
  if (PL.Ready)
    return;
  PL.SpillAddrs.clear();
  for (std::size_t K = 0; K < PL.Plan.CarriedLocals.size(); ++K)
    PL.SpillAddrs.push_back(M.heap().allocWords(1));
  std::sort(PL.SpillAddrs.begin(), PL.SpillAddrs.end());
  ir::Function Clone = globalizeLoopBody(
      EngineModule.Functions[PL.Plan.Func], PL.Plan, PL.SpillAddrs);
  EngineModule.Functions.push_back(std::move(Clone));
  PL.TlsFunc = static_cast<std::uint32_t>(EngineModule.Functions.size() - 1);
  EngineModule.finalize();
  // Recompile the image in place: the append leaves every existing flat PC
  // unchanged, so the spec contexts (which hold a reference to the member)
  // and previously prepared loops stay consistent.
  EngineImage = exec::CodeImage(EngineModule);
  PL.HeaderPcTls = EngineImage.blockStart(PL.TlsFunc, PL.Plan.Header);
  PL.Ready = true;
  buildStopMask();
}

void TlsEngine::buildStopMask() {
  const std::uint32_t N = EngineImage.numInsts();
  const sim::CostModel &C = Cfg.Costs;
  if (!C.Basic || !C.IntDiv || !C.FloatDiv || !C.FloatSqrt ||
      !C.CallOverhead || !Cfg.LocalAnnoCost) {
    // A zero-cost instruction still occupies its core for one cycle when
    // stepped alone; only single-instruction runs reproduce that.
    StopMask.assign(N, 1);
    return;
  }
  StopMask.assign(N, 0);
  // Instructions other cores can observe, wherever they run: heap traffic
  // (forwarding, violations, buffer stalls) and traps (parking keeps their
  // cycle). Alloc needs no stop: it is fatal in every speculative thread.
  for (exec::FlatPc Pc = 0; Pc < N; ++Pc) {
    switch (EngineImage.inst(Pc).Op) {
    case ir::Opcode::Load:
    case ir::Opcode::Store:
    case ir::Opcode::Div:
    case ir::Opcode::Rem:
      StopMask[Pc] = 1;
      break;
    default:
      break;
    }
  }
  // Per prepared clone, which runs only at call depth 1: the control
  // transfers that end an iteration or leave the loop, the blocks they
  // land on, and returns (a thread leaving the STL's function).
  for (const PreparedLoop &PL : Loops) {
    if (!PL.Ready)
      continue;
    const exec::FuncDesc &F = EngineImage.func(PL.TlsFunc);
    auto Ends = [&](exec::FlatPc Target) {
      return Target == PL.HeaderPcTls ||
             !PL.Plan.containsBlock(EngineImage.blockOf(Target));
    };
    for (std::uint32_t B = 0; B < F.NumBlocks; ++B) {
      const exec::BlockDesc &BD = EngineImage.blockDesc(F.FirstBlock + B);
      if (BD.StartPc == PL.HeaderPcTls || !PL.Plan.containsBlock(B))
        StopMask[BD.StartPc] = 1;
      const exec::FlatPc TermPc = BD.StartPc + BD.NumInsts - 1;
      const exec::DecodedInst &T = EngineImage.inst(TermPc);
      bool Stop = false;
      switch (T.Op) {
      case ir::Opcode::Ret:
        Stop = true;
        break;
      case ir::Opcode::Br:
        Stop = Ends(static_cast<exec::FlatPc>(T.Imm));
        break;
      case ir::Opcode::CondBr:
        Stop = Ends(static_cast<exec::FlatPc>(T.Imm)) ||
               Ends(static_cast<exec::FlatPc>(T.Imm2));
        break;
      default:
        break;
      }
      if (Stop)
        StopMask[TermPc] = 1;
    }
  }
}

bool TlsEngine::onBlockStart(interp::ExecContext &Ctx, interp::Machine &M) {
  auto It = std::find(HeaderPcs.begin(), HeaderPcs.end(), Ctx.pc());
  if (It == HeaderPcs.end())
    return false;
  PreparedLoop &PL = Loops[It - HeaderPcs.begin()];
  prepareLoop(PL, M);
  runLoop(PL, Ctx, M);
  return true;
}

void TlsEngine::fillSpawnRegs(std::vector<std::uint64_t> &Regs,
                              std::uint64_t Iter) const {
  Regs = EntryRegs; // copy-assign reuses the recycled buffer's capacity
  for (const auto &[Reg, Step] : Cur->Plan.Inductors)
    Regs[Reg] = EntryRegs[Reg] +
                Iter * static_cast<std::uint64_t>(Step);
  for (const auto &[Reg, Kind] : Cur->Plan.Reductions) {
    (void)Kind; // both integer 0 and +0.0 are the zero bit pattern
    Regs[Reg] = 0;
  }
}

void TlsEngine::setState(SpecThread &T, SpecThread::St S) {
  using St = SpecThread::St;
  NumWaitSync += (S == St::WaitSync);
  NumWaitSync -= (T.State == St::WaitSync);
  NumIdle += (S == St::Idle);
  NumIdle -= (T.State == St::Idle);
  T.State = S;
}

void TlsEngine::spawnThread(std::uint32_t Core, std::uint64_t Iter) {
  SpecThread &T = Threads[Core];
  setState(T, SpecThread::St::Running);
  T.Iter = Iter;
  IterCore[Iter % IterCore.size()] = Core;
  T.StoreBuf.clear();
  T.StoreLines.clear();
  T.ReadSet.clear();
  T.ReadLines.clear();
  ++CurStats->ThreadsStarted;
  T.StartAt = Cycle;
  // Callers that charge a spawn penalty (restart, end-of-iteration) raise
  // this together with ReadyAt right after the call.
  T.SpawnOverheadUntil = Cycle;
  T.StallKind = SpecThread::Stall::None;
  T.BufStallAcc = 0;
  T.SyncStallAcc = 0;
  if (TL && Core < CoreTracks.size())
    TL->begin(CoreTracks[Core], "thread", ClockBase + Cycle);
  std::vector<std::uint64_t> Regs;
  if (!RegPool.empty()) {
    Regs = std::move(RegPool.back());
    RegPool.pop_back();
  }
  fillSpawnRegs(Regs, Iter);
  std::vector<std::uint64_t> Displaced =
      T.Ctx->resetAtPc(Cur->HeaderPcTls, std::move(Regs));
  if (!Displaced.empty())
    RegPool.push_back(std::move(Displaced));
}

void TlsEngine::squashThread(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  ++CurStats->Restarts;
  if (TL && Core < CoreTracks.size())
    TL->instant(CoreTracks[Core], "violation", ClockBase + Cycle);
  resolveLifetime(Core, Outcome::Squash);
  std::uint64_t Iter = T.Iter;
  spawnThread(Core, Iter);
  T.ReadyAt = Cycle + Cfg.ViolationRestartCycles + Cur->Plan.NumInvariants;
  T.SpawnOverheadUntil = T.ReadyAt;
}

void TlsEngine::parkFaulted(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  assert(T.Iter != HeadIter && "a head fault is the program's own");
  setState(T, SpecThread::St::Faulted);
}

void TlsEngine::flushStoreBuffer(SpecThread &T) {
  T.StoreBuf.forEach([this](std::uint32_t Addr, std::uint64_t Value) {
    CurHeap->store(Addr, Value);
  });
  T.StoreBuf.clear();
  T.StoreLines.clear();
}

void TlsEngine::accumulateReductions(SpecThread &T) {
  const std::vector<std::uint64_t> &Regs = T.Ctx->topRegs();
  for (std::size_t K = 0; K < Cur->Plan.Reductions.size(); ++K) {
    auto [Reg, Kind] = Cur->Plan.Reductions[K];
    if (Kind == analysis::ReductionKind::SumFloat) {
      double Sum = bits::asF(ReductionAcc[K]) + bits::asF(Regs[Reg]);
      ReductionAcc[K] = bits::asU(Sum);
    } else {
      ReductionAcc[K] += Regs[Reg];
    }
  }
}

void TlsEngine::resumeSyncWaiters() {
  for (std::uint32_t C = 0; C < Threads.size(); ++C) {
    SpecThread &T = Threads[C];
    if (T.State != SpecThread::St::WaitSync)
      continue;
    // The predecessor is live iff the waiter is not the head.
    const SpecThread *Pred =
        T.Iter != HeadIter ? &Threads[coreOf(T.Iter - 1)] : nullptr;
    bool Ready = !Pred || Pred->State == SpecThread::St::IterDone ||
                 Pred->State == SpecThread::St::Exited ||
                 Pred->StoreBuf.contains(T.SyncAddr);
    if (Ready) {
      closeStall(C);
      setState(T, SpecThread::St::Running);
      T.ReadyAt = std::max(T.ReadyAt, Cycle);
    }
  }
}

void TlsEngine::recomputeExitCap() {
  ExitCap.reset();
  for (const SpecThread &T : Threads)
    if (T.State == SpecThread::St::Exited)
      ExitCap = ExitCap ? std::min(*ExitCap, T.Iter) : T.Iter;
}

void TlsEngine::commitThread(std::uint32_t Core) {
  SpecThread &T = Threads[Core];
  flushStoreBuffer(T);
  accumulateReductions(T);
  ++CurStats->CommittedThreads;
  resolveLifetime(Core, Outcome::Commit);
  ++HeadIter;
  // The core picks up the next iteration after the end-of-iteration
  // handling overhead.
  if (!ExitCap || NextIter < *ExitCap) {
    spawnThread(Core, NextIter++);
    T.ReadyAt = Cycle + Cfg.EndOfIterationCycles;
    T.SpawnOverheadUntil = T.ReadyAt;
  } else {
    setState(T, SpecThread::St::Idle);
  }
}

std::uint64_t TlsEngine::specLoad(std::uint32_t Core, std::uint32_t Addr,
                                  std::uint32_t &Extra) {
  SpecThread &T = Threads[Core];
  const bool IsHead = T.Iter == HeadIter;
  // A load outside the heap by a mis-speculated thread must not reach the
  // heap: park it. The head takes the sequential machine's path.
  if (!IsHead && Addr >= CurHeap->allocatedWords()) {
    parkFaulted(Core);
    RewindPending = true;
    T.Ctx->requestStop();
    return 0; // dummy; the load re-issues if the thread becomes the head
  }

  // Own speculative store buffer first.
  if (const std::uint64_t *Own = T.StoreBuf.find(Addr))
    return *Own;

  // Synchronized carried locals (Section 3.2): spin until the predecessor
  // thread has produced the value instead of speculating through it.
  if (Cfg.SyncCarriedLocals && !IsHead && Cur->isSpillAddr(Addr)) {
    const SpecThread &Pred = Threads[coreOf(T.Iter - 1)];
    bool Produced = Pred.State == SpecThread::St::IterDone ||
                    Pred.State == SpecThread::St::Exited ||
                    Pred.StoreBuf.contains(Addr);
    if (!Produced) {
      setState(T, SpecThread::St::WaitSync);
      T.SyncAddr = Addr;
      RewindPending = true;
      ++CurStats->SyncStalls;
      openStall(Core, SpecThread::Stall::Sync);
      T.Ctx->requestStop();
      return 0; // dummy; the load re-issues after the producer stores
    }
  }

  // Forward from the nearest earlier uncommitted thread holding the word.
  const std::uint64_t *Forwarded = nullptr;
  for (std::uint64_t It = T.Iter; It-- > HeadIter && !Forwarded;)
    Forwarded = Threads[coreOf(It)].StoreBuf.find(Addr);

  std::uint64_t Value;
  if (Forwarded) {
    Extra += Cfg.StoreLoadCommCycles;
    Value = *Forwarded;
  } else {
    if (!T.L1->access(Addr))
      Extra += Cfg.L2HitExtraCycles;
    Value = CurHeap->load(Addr);
  }

  // Track speculative read state for violation detection and overflow.
  // Only threads after the head are ever checked, and the head stays the
  // head until it commits, so the head keeps none.
  if (!IsHead) {
    T.ReadSet.insert(violationKey(Addr));
    T.ReadLines.insert(lineOf(Addr));
    if (T.ReadLines.size() > Cfg.SpecLoadLines) {
      setState(T, SpecThread::St::WaitHead);
      ++CurStats->OverflowStalls;
      openStall(Core, SpecThread::Stall::Buffer);
      T.Ctx->requestStop();
    }
  }
  return Value;
}

void TlsEngine::specStore(std::uint32_t Core, std::uint32_t Addr,
                          std::uint64_t Value, std::uint32_t &Extra) {
  (void)Extra;
  SpecThread &T = Threads[Core];
  T.StoreBuf.store(Addr, Value);
  T.StoreLines.insert(lineOf(Addr));
  if (T.StoreLines.size() > Cfg.SpecStoreLines) {
    if (T.Iter == HeadIter) {
      // The head thread can always drain its buffer safely.
      flushStoreBuffer(T);
    } else {
      setState(T, SpecThread::St::WaitHead);
      ++CurStats->OverflowStalls;
      openStall(Core, SpecThread::Stall::Buffer);
      T.Ctx->requestStop();
    }
  }
  // A sync waiter may be spinning on this store.
  if (NumWaitSync)
    Recheck = true;

  // RAW violation detection: the earliest later thread that already
  // consumed this word restarts, together with everything more
  // speculative than it.
  std::uint32_t Key = violationKey(Addr);
  std::uint64_t MinViolated = T.Iter + 1;
  while (MinViolated < NextIter &&
         !Threads[coreOf(MinViolated)].ReadSet.contains(Key))
    ++MinViolated;
  if (MinViolated == NextIter)
    return;
  ++CurStats->Violations;
  Recheck = true;
  bool HadExit = ExitCap.has_value();
  for (std::uint32_t C = 0; C < Threads.size(); ++C)
    if (Threads[C].State != SpecThread::St::Idle &&
        Threads[C].Iter >= MinViolated)
      squashThread(C);
  if (HadExit)
    recomputeExitCap();
}

void TlsEngine::runLoop(PreparedLoop &PL, interp::ExecContext &Ctx,
                        interp::Machine &M) {
  using St = SpecThread::St;
  Cur = &PL;
  CurHeap = &M.heap();
  CurStats = &Stats[PL.Plan.LoopId];
  ++CurStats->Invocations;
  ClockBase = M.clock();
  CoreBusy.assign(Cfg.NumCores, 0);
  if (TL)
    TL->begin(EngineTrack, "loop#" + std::to_string(PL.Plan.LoopId),
              ClockBase);

  EntryRegs = Ctx.topRegs();
  assert(EntryRegs.size() >=
             EngineModule.Functions[PL.Plan.Func].NumRegs &&
         "entry registers too small");

  // Loop startup (Table 2): initialize loop locals in the spill area and
  // snapshot reduction accumulators.
  for (std::size_t K = 0; K < PL.Plan.CarriedLocals.size(); ++K)
    CurHeap->store(PL.SpillAddrs[K], EntryRegs[PL.Plan.CarriedLocals[K]]);
  ReductionAcc.clear();
  for (const auto &[Reg, Kind] : PL.Plan.Reductions) {
    (void)Kind;
    ReductionAcc.push_back(EntryRegs[Reg]);
  }

  Cycle = Cfg.LoopStartupCycles;
  HeadIter = 0;
  NextIter = 0;
  ExitCap.reset();
  for (std::uint32_t C = 0; C < Cfg.NumCores; ++C) {
    spawnThread(C, NextIter++);
    Threads[C].ReadyAt = Cycle;
  }

  SpecThread *ExitThread = nullptr;
  const std::uint8_t *Stops = StopMask.data();
  // Guards against engine bugs; generous for the largest loops.
  constexpr std::uint64_t MaxLoopCycles = 20ull * 1000 * 1000 * 1000;
  // Longest stretch a core runs before yielding to the scheduler. Private
  // code need not end: a thread that read a stale trip count may loop in
  // registers until its predecessor's store squashes it, which needs the
  // other cores to run. The budget is tested at block starts, which are
  // private unless marked in the mask, and the extra scheduler visit is
  // one the one-instruction-per-cycle reference makes too.
  constexpr std::uint64_t RunQuantum = 4096;
  while (true) {
    // Head-state transitions first: resume, commit, or finish.
    const std::uint32_t HeadCore = coreOf(HeadIter);
    SpecThread &H = Threads[HeadCore];
    if (H.State == St::WaitHead || H.State == St::Faulted) {
      closeStall(HeadCore);
      setState(H, St::Running);
      H.ReadyAt = std::max(H.ReadyAt, Cycle);
    } else if (H.State == St::IterDone) {
      commitThread(HeadCore);
      continue;
    } else if (H.State == St::Exited) {
      ExitThread = &H;
      break;
    }

    if (NumWaitSync)
      resumeSyncWaiters();

    // Refill idle cores when iterations are available (iterations past a
    // speculatively-exited thread would only be squashed).
    for (std::uint32_t C = 0; NumIdle && C < Threads.size(); ++C) {
      if (Threads[C].State != St::Idle)
        continue;
      if (ExitCap && NextIter >= *ExitCap)
        break;
      spawnThread(C, NextIter++);
      Threads[C].ReadyAt = Cycle;
    }

    // Run every thread whose core is free this cycle to its next shared
    // event, in core order.
    Recheck = false;
    for (std::uint32_t C = 0; C < Threads.size(); ++C) {
      SpecThread &T = Threads[C];
      if (T.State != St::Running || T.ReadyAt > Cycle)
        continue;
      std::uint64_t Cost;
      try {
        Cost = T.Ctx->runToStop(*Ports[C], nullptr, Cycle, Stops,
                                Cycle + RunQuantum);
      } catch (const interp::TrapError &) {
        // Traps are stop instructions, so this one ran first, at its exact
        // cycle. The head's trap is the sequential program's own.
        if (T.Iter == HeadIter)
          throw;
        parkFaulted(C);
        continue;
      }
      T.ReadyAt = Cycle + Cost;
      if (RewindPending) {
        // The load could not be satisfied: undo it so it re-issues when
        // the thread is released.
        RewindPending = false;
        T.Ctx->rewindTop();
        continue;
      }
      if (T.Ctx->finished())
        JRPM_FATAL("speculative thread returned out of the STL's function");
      // Control transfers are inspected only at the loop's own call depth.
      if (T.State == St::Running && T.Ctx->callDepth() == 1 &&
          T.Ctx->atBlockStart()) {
        exec::FlatPc Pc = T.Ctx->pc();
        if (Pc == PL.HeaderPcTls) {
          setState(T, St::IterDone);
          Recheck = true;
        } else {
          std::uint32_t B = EngineImage.blockOf(Pc);
          if (!PL.Plan.containsBlock(B)) {
            setState(T, St::Exited);
            T.ExitBlock = B;
            recomputeExitCap();
            Recheck = true;
          }
        }
      }
    }

    // Visit the next cycle if a transition may be due there; otherwise no
    // state the transitions test can change before the next core is
    // ready, so jump straight to it.
    std::uint64_t Next = ~std::uint64_t(0);
    if (!Recheck)
      for (const SpecThread &T : Threads)
        if (T.State == St::Running)
          Next = std::min(Next, T.ReadyAt);
    Cycle = Next == ~std::uint64_t(0) ? Cycle + 1 : std::max(Cycle + 1, Next);
    if (Cycle > MaxLoopCycles)
      JRPM_FATAL("TLS loop exceeded the cycle watchdog (engine livelock?)");
  }

  // Close every live lifetime at the loop's end cycle, then charge the
  // invocation-level overheads. Per core, resolved lifetimes tile
  // [LoopStartupCycles, Cycle] without overlap, so the remainder is idle
  // time and the six buckets sum to exactly NumCores * final SpecCycles.
  for (std::uint32_t C = 0; C < Threads.size(); ++C) {
    if (Threads[C].State == St::Idle)
      continue;
    resolveLifetime(C, &Threads[C] == ExitThread ? Outcome::Exit
                                                 : Outcome::Discard);
  }
  CurStats->ForkCommitCycles +=
      std::uint64_t(Cfg.NumCores) *
      (Cfg.LoopStartupCycles + Cfg.LoopShutdownCycles);
  for (std::uint32_t C = 0; C < Cfg.NumCores; ++C)
    CurStats->IdleCycles += (Cycle - Cfg.LoopStartupCycles) - CoreBusy[C];

  // Loop shutdown: adopt the exiting thread's state into the sequential
  // context, complete reductions, and reload carried locals from memory.
  SpecThread &T = *ExitThread;
  flushStoreBuffer(T);
  accumulateReductions(T);
  std::vector<std::uint64_t> FinalRegs = T.Ctx->topRegs();
  for (std::size_t K = 0; K < PL.Plan.CarriedLocals.size(); ++K)
    FinalRegs[PL.Plan.CarriedLocals[K]] = CurHeap->load(PL.SpillAddrs[K]);
  for (std::size_t K = 0; K < PL.Plan.Reductions.size(); ++K)
    FinalRegs[PL.Plan.Reductions[K].first] = ReductionAcc[K];

  std::uint32_t ExitBlock = T.ExitBlock;
  // Spawns clear the speculative tables, so only the states need resetting.
  for (SpecThread &U : Threads)
    setState(U, St::Idle);

  Cycle += Cfg.LoopShutdownCycles;
  CurStats->SpecCycles += Cycle;
  InvocationCycles.record(Cycle);
  if (TL)
    TL->end(EngineTrack, ClockBase + Cycle);
  M.addCycles(Cycle);
  Ctx.repositionTop(ExitBlock, std::move(FinalRegs));
  Cur = nullptr;
  CurHeap = nullptr;
  CurStats = nullptr;
}
