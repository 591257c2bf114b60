//===- tests/tracer_engine_test.cpp - Comparator-bank analysis tests -------==//
//
// Drives the TraceEngine with synthetic event streams that mirror the
// paper's Figure 3 and Figure 4 walk-throughs, pins the full observable
// surface of two mixed streams, and checks the annotation cycle charges.
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"
#include "sim/Config.h"
#include "trace/Reader.h"
#include "tracer/TraceEngine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

using namespace jrpm;
using namespace jrpm::tracer;

namespace {

sim::HydraConfig smallConfig() {
  sim::HydraConfig Cfg;
  Cfg.ComparatorBanks = 2;
  Cfg.LocalVarSlots = 4;
  return Cfg;
}

std::vector<LoopTraceInfo> loops(std::size_t N,
                                 std::vector<std::uint16_t> Locals = {}) {
  std::vector<LoopTraceInfo> L(N);
  for (auto &Info : L)
    Info.AnnotatedLocals = Locals;
  return L;
}

/// Builds trace::Event streams for trace::dispatchEvent.
struct EventBuilder {
  std::vector<trace::Event> Ev;

  trace::Event &add(trace::EventKind K, std::uint64_t Cycle) {
    trace::Event E;
    E.Kind = K;
    E.Cycle = Cycle;
    Ev.push_back(E);
    return Ev.back();
  }
  void heapLoad(std::uint32_t Addr, std::uint64_t Cycle, std::int32_t Pc) {
    trace::Event &E = add(trace::EventKind::HeapLoad, Cycle);
    E.Addr = Addr;
    E.Pc = Pc;
  }
  void heapStore(std::uint32_t Addr, std::uint64_t Cycle, std::int32_t Pc) {
    trace::Event &E = add(trace::EventKind::HeapStore, Cycle);
    E.Addr = Addr;
    E.Pc = Pc;
  }
  void localLoad(std::uint64_t Act, std::uint16_t Reg, std::uint64_t Cycle,
                 std::int32_t Pc) {
    trace::Event &E = add(trace::EventKind::LocalLoad, Cycle);
    E.Activation = Act;
    E.Reg = Reg;
    E.Pc = Pc;
  }
  void localStore(std::uint64_t Act, std::uint16_t Reg, std::uint64_t Cycle,
                  std::int32_t Pc) {
    trace::Event &E = add(trace::EventKind::LocalStore, Cycle);
    E.Activation = Act;
    E.Reg = Reg;
    E.Pc = Pc;
  }
  void loopStart(std::uint32_t LoopId, std::uint64_t Act,
                 std::uint64_t Cycle) {
    trace::Event &E = add(trace::EventKind::LoopStart, Cycle);
    E.LoopId = LoopId;
    E.Activation = Act;
  }
  void loopIter(std::uint32_t LoopId, std::uint64_t Cycle) {
    add(trace::EventKind::LoopIter, Cycle).LoopId = LoopId;
  }
  void loopEnd(std::uint32_t LoopId, std::uint64_t Cycle) {
    add(trace::EventKind::LoopEnd, Cycle).LoopId = LoopId;
  }
  void ret(std::uint64_t Act) {
    add(trace::EventKind::Return, 0).Activation = Act;
  }
  void callSite(std::int32_t Pc, std::uint64_t Cycle) {
    add(trace::EventKind::CallSite, Cycle).Pc = Pc;
  }
  void callReturn(std::uint64_t Cycle) {
    add(trace::EventKind::CallReturn, Cycle);
  }
  void readStats(std::uint32_t LoopId, std::uint64_t Cycle) {
    add(trace::EventKind::ReadStats, Cycle).LoopId = LoopId;
  }
};

/// A stream that mixes events outside any loop, a single traced loop, a
/// nested traced pair, a third nest over the two-bank budget (untraced
/// frame), local variables with shadowing reservations across two
/// activations, call markers, an unbalanced exit via return, and a
/// readstats probe.
std::vector<trace::Event> mixedStream() {
  EventBuilder B;
  std::uint64_t C = 0;
  // Outside any loop: heap traffic only feeds the store history.
  B.heapStore(100, ++C, 1);
  B.heapLoad(100, ++C, 2);
  B.localStore(7, 3, ++C, 3); // no reservation: ignored
  // One traced bank.
  B.loopStart(0, /*act*/ 7, ++C);
  B.localStore(7, 3, ++C, 4);
  B.heapStore(104, ++C, 5);
  B.loopIter(0, ++C);
  B.heapLoad(104, ++C, 6);   // prev-thread arc
  B.localLoad(7, 3, ++C, 7); // prev-thread local arc
  B.loopIter(0, ++C);
  B.heapLoad(104, ++C, 19); // store predates the previous thread: earlier arc
  // Nested traced bank with a shadowed register: reg 3 is already
  // reserved by loop 0's frame of the same activation.
  B.loopStart(1, 7, ++C);
  B.localStore(7, 3, ++C, 8); // resolves to loop 0's slot
  B.localStore(7, 4, ++C, 9); // loop 1's own slot
  B.callSite(41, ++C);
  B.callReturn(++C);
  // Third nest: over the two-bank budget, so the frame is untraced.
  B.loopStart(2, 9, ++C);
  B.localLoad(9, 5, ++C, 10); // activation 9 has no reservations
  B.loopIter(2, ++C);         // untraced frame: no bank iterates
  B.loopIter(1, ++C);
  B.localLoad(7, 4, ++C, 11); // prev-thread arc in the nested bank
  B.heapStore(108, ++C, 12);
  B.loopIter(1, ++C);
  B.heapLoad(108, ++C, 13); // prev-thread arc
  B.heapLoad(104, ++C, 14); // earlier-thread arc
  B.loopEnd(2, ++C);
  B.readStats(1, ++C);
  B.loopIter(0, ++C);
  B.loopEnd(1, ++C); // closes the nested bank
  // Unbalanced exit: return pops activation 7's remaining frame.
  B.ret(7);
  // Re-enter with a fresh activation to recycle released slots.
  B.loopStart(0, 11, ++C);
  B.localStore(11, 3, ++C, 15);
  B.loopIter(0, ++C);
  B.localLoad(11, 3, ++C, 16);
  B.heapStore(112, ++C, 17);
  B.loopIter(0, ++C);
  B.heapLoad(112, ++C, 18);
  B.loopEnd(0, ++C);
  return B.Ev;
}

/// One traced loop of six threads, each storing a word the next thread
/// loads, run with a disable threshold of three threads.
std::vector<trace::Event> disabledLoopStream() {
  EventBuilder B;
  std::uint64_t C = 0;
  B.loopStart(0, 7, ++C);
  for (int I = 0; I < 6; ++I) {
    B.heapStore(100, ++C, 1);
    B.loopIter(0, ++C);
    B.heapLoad(100, ++C, 2);
  }
  B.loopEnd(0, ++C);
  return B.Ev;
}

/// StlStats from its counters, in declaration order, plus its PC bins.
StlStats stlStats(std::uint64_t Cycles, std::uint64_t Threads,
                  std::uint64_t Entries, std::uint64_t Untraced,
                  std::uint64_t ArcsPrev, std::uint64_t LenPrev,
                  std::uint64_t ArcsEarlier, std::uint64_t LenEarlier,
                  std::uint64_t Overflow, std::uint64_t MaxLoad,
                  std::uint64_t MaxStore,
                  std::map<std::int32_t, PcBinStats> Bins) {
  StlStats S;
  S.Cycles = Cycles;
  S.Threads = Threads;
  S.Entries = Entries;
  S.UntracedEntries = Untraced;
  S.CritArcsPrev = ArcsPrev;
  S.CritLenPrev = LenPrev;
  S.CritArcsEarlier = ArcsEarlier;
  S.CritLenEarlier = LenEarlier;
  S.OverflowThreads = Overflow;
  S.MaxLoadLines = MaxLoad;
  S.MaxStoreLines = MaxStore;
  S.PcBins = std::move(Bins);
  return S;
}

std::string metricsJson(const TraceEngine &E) {
  metrics::Registry R;
  E.exportMetrics(R);
  return R.toJson().dump();
}

} // namespace

TEST(TraceEngine, CriticalArcToPreviousThread) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 100);
  // Thread 0: two stores.
  E.onHeapStore(40, 110, 1);
  E.onHeapStore(44, 118, 2);
  E.onLoopIter(0, 120); // thread 1 starts
  // Thread 1 loads both; arcs 130-110=20 and 134-118=16; critical = 16.
  E.onHeapLoad(40, 130, 3);
  E.onHeapLoad(44, 134, 4);
  E.onLoopEnd(0, 140);

  const StlStats &S = E.stats(0);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Threads, 2u);
  EXPECT_EQ(S.Cycles, 40u);
  EXPECT_EQ(S.CritArcsPrev, 1u);
  EXPECT_EQ(S.CritLenPrev, 16u);
  EXPECT_EQ(S.CritArcsEarlier, 0u);
}

TEST(TraceEngine, ArcToEarlierThreadBinnedSeparately) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(40, 5, 1); // thread 0
  E.onLoopIter(0, 10);     // thread 1
  E.onLoopIter(0, 20);     // thread 2
  E.onHeapLoad(40, 25, 2); // store was before thread 1 start: earlier bin
  E.onLoopEnd(0, 30);
  const StlStats &S = E.stats(0);
  EXPECT_EQ(S.CritArcsPrev, 0u);
  EXPECT_EQ(S.CritArcsEarlier, 1u);
  EXPECT_EQ(S.CritLenEarlier, 20u);
}

TEST(TraceEngine, SameThreadStoreLoadIsNotAnArc) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(40, 5, 1);
  E.onHeapLoad(40, 8, 2); // same thread
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
  EXPECT_EQ(E.stats(0).CritArcsEarlier, 0u);
}

TEST(TraceEngine, PreLoopStoreIgnored) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onHeapStore(40, 5, 1); // before the loop
  E.onLoopStart(0, 1, 10);
  E.onLoopIter(0, 20);
  E.onHeapLoad(40, 25, 2); // depends on pre-loop code, not a thread
  E.onLoopEnd(0, 30);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
  EXPECT_EQ(E.stats(0).CritArcsEarlier, 0u);
}

TEST(TraceEngine, LocalVariableArcs) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1, {/*reg*/ 7}));
  E.onLoopStart(0, /*activation*/ 9, 0);
  E.onLocalStore(9, 7, 4, 1);
  E.onLoopIter(0, 10);
  E.onLocalLoad(9, 7, 12, 2); // arc of length 8, like Figure 3's in_p
  E.onLoopEnd(0, 20);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 1u);
  EXPECT_EQ(E.stats(0).CritLenPrev, 8u);
}

TEST(TraceEngine, LocalsOfOtherActivationsIgnored) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1, {7}));
  E.onLoopStart(0, 9, 0);
  E.onLocalStore(42, 7, 4, 1); // different activation: no slot
  E.onLoopIter(0, 10);
  E.onLocalLoad(42, 7, 12, 2);
  E.onLoopEnd(0, 20);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
}

TEST(TraceEngine, OverflowCountsThreadsExceedingStoreLimit) {
  sim::HydraConfig Cfg;
  Cfg.SpecStoreLines = 2;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  // Thread 0 writes three distinct lines (words 0, 4, 8).
  E.onHeapStore(0, 1, 1);
  E.onHeapStore(4, 2, 1);
  E.onHeapStore(8, 3, 1);
  E.onLoopIter(0, 10);
  // Thread 1 writes a single line twice: no overflow.
  E.onHeapStore(16, 11, 1);
  E.onHeapStore(17, 12, 1);
  E.onLoopEnd(0, 20);
  const StlStats &S = E.stats(0);
  EXPECT_EQ(S.Threads, 2u);
  EXPECT_EQ(S.OverflowThreads, 1u);
  EXPECT_EQ(S.MaxStoreLines, 3u);
}

TEST(TraceEngine, OverflowCountsLoadLines) {
  sim::HydraConfig Cfg;
  Cfg.SpecLoadLines = 2;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapLoad(0, 1, 1);
  E.onHeapLoad(4, 2, 1);
  E.onHeapLoad(8, 3, 1);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).OverflowThreads, 1u);
  EXPECT_EQ(E.stats(0).MaxLoadLines, 3u);
}

TEST(TraceEngine, RepeatedLineInSameThreadCountsOnce) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapLoad(0, 1, 1);
  E.onHeapLoad(1, 2, 1); // same line
  E.onHeapLoad(2, 3, 1);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).MaxLoadLines, 1u);
}

TEST(TraceEngine, BankExhaustionSkipsDeepLoops) {
  sim::HydraConfig Cfg = smallConfig(); // 2 banks
  TraceEngine E(Cfg, loops(3));
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 1);
  E.onLoopStart(2, 1, 2); // no bank left
  E.onLoopIter(2, 5);
  E.onLoopEnd(2, 6);
  E.onLoopEnd(1, 8);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(2).Entries, 0u);
  EXPECT_EQ(E.stats(2).UntracedEntries, 1u);
  EXPECT_EQ(E.stats(0).Entries, 1u);
  EXPECT_EQ(E.peakBanksInUse(), 2u);
}

TEST(TraceEngine, SlotExhaustionSkipsLoop) {
  sim::HydraConfig Cfg = smallConfig(); // 4 local slots
  TraceEngine E(Cfg, loops(2, {1, 2, 3}));
  E.onLoopStart(0, 1, 0); // reserves 3 slots
  E.onLoopStart(1, 2, 1); // different activation: needs 3 more, only 1 free
  E.onLoopEnd(1, 5);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).Entries, 1u);
  EXPECT_EQ(E.stats(1).UntracedEntries, 1u);
}

TEST(TraceEngine, SharedLocalSlotAcrossNestedLoops) {
  // The inner loop annotates the same register in the same activation; it
  // must not reserve a second slot.
  sim::HydraConfig Cfg = smallConfig();
  TraceEngine E(Cfg, loops(2, {1, 2, 3}));
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 1); // same activation: registers already covered
  EXPECT_EQ(E.peakLocalSlots(), 3u);
  E.onLoopEnd(1, 5);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(1).Entries, 1u);
}

TEST(TraceEngine, DisableAfterThreadsFreesBank) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1));
  E.setDisableLoopAfterThreads(2);
  for (int Entry = 0; Entry < 3; ++Entry) {
    std::uint64_t T = 100 * Entry;
    E.onLoopStart(0, 1, T);
    E.onLoopIter(0, T + 10);
    E.onLoopEnd(0, T + 20);
  }
  // Two threads per traced entry; after the first entry the count (2)
  // reaches the threshold, so later entries are untraced.
  EXPECT_EQ(E.stats(0).Threads, 2u);
  EXPECT_EQ(E.stats(0).UntracedEntries, 2u);
}

TEST(TraceEngine, DynamicParentsFollowNesting) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(3));
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 1);
  E.onLoopEnd(1, 5);
  E.onLoopEnd(0, 10);
  E.onLoopStart(2, 1, 20);
  E.onLoopEnd(2, 25);
  std::vector<int> P = E.dynamicParents();
  EXPECT_EQ(P[0], -1);
  EXPECT_EQ(P[1], 0);
  EXPECT_EQ(P[2], -1);
}

TEST(TraceEngine, ReturnClosesOpenBanks) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(2));
  E.onLoopStart(0, 5, 0);
  E.onLoopStart(1, 5, 10);
  E.onHeapLoad(0, 15, 1);
  E.onReturn(5); // both banks belong to activation 5
  // Stats were finalized; re-entering works normally.
  EXPECT_EQ(E.stats(0).Entries, 1u);
  EXPECT_EQ(E.stats(1).Entries, 1u);
  E.onLoopStart(0, 6, 20);
  E.onLoopEnd(0, 30);
  EXPECT_EQ(E.stats(0).Entries, 2u);
}

TEST(TraceEngine, MismatchedELoopIgnored) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(2));
  E.onLoopStart(0, 1, 0);
  E.onLoopEnd(1, 5); // loop 1 never started: must not pop loop 0
  E.onLoopIter(0, 8);
  E.onLoopEnd(0, 10);
  EXPECT_EQ(E.stats(0).Threads, 2u);
  EXPECT_EQ(E.stats(1).Entries, 0u);
}

TEST(TraceEngine, PcBinningRecordsCriticalArcSites) {
  sim::HydraConfig Cfg;
  TraceEngine E(Cfg, loops(1), /*ExtendedPcBinning=*/true);
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(40, 4, 1);
  E.onHeapStore(44, 6, 1);
  E.onLoopIter(0, 10);
  E.onHeapLoad(40, 12, /*Pc=*/101); // len 8
  E.onHeapLoad(44, 18, /*Pc=*/102); // len 12: not critical
  E.onLoopEnd(0, 20);
  const StlStats &S = E.stats(0);
  ASSERT_EQ(S.PcBins.size(), 1u);
  EXPECT_EQ(S.PcBins.begin()->first, 101);
  EXPECT_EQ(S.PcBins.begin()->second.CriticalArcs, 1u);
  EXPECT_EQ(S.PcBins.begin()->second.AccumulatedLength, 8u);
}

TEST(TraceEngine, HistoryFifoLimitsArcDetection) {
  sim::HydraConfig Cfg;
  Cfg.HeapTimestampFifoLines = 2;
  TraceEngine E(Cfg, loops(1));
  E.onLoopStart(0, 1, 0);
  E.onHeapStore(0, 1, 1);   // line 0
  E.onHeapStore(16, 2, 1);  // line 4
  E.onHeapStore(32, 3, 1);  // line 8 -> line 0 evicted
  E.onLoopIter(0, 10);
  E.onHeapLoad(0, 12, 2); // history lost: no arc
  E.onLoopEnd(0, 20);
  EXPECT_EQ(E.stats(0).CritArcsPrev, 0u);
}

TEST(TraceEngine, SlotsReleasedInStackOrderAcrossNesting) {
  // Three nested loops each reserving locals; the eloop order releases
  // them innermost-first and the file ends empty (reusable).
  sim::HydraConfig Cfg;
  Cfg.LocalVarSlots = 8;
  std::vector<LoopTraceInfo> Infos(3);
  Infos[0].AnnotatedLocals = {1, 2};
  Infos[1].AnnotatedLocals = {3};
  Infos[2].AnnotatedLocals = {4, 5, 6};
  TraceEngine E(Cfg, Infos);
  for (int Round = 0; Round < 3; ++Round) {
    std::uint64_t T = Round * 100;
    E.onLoopStart(0, 1, T);
    E.onLoopStart(1, 1, T + 1);
    E.onLoopStart(2, 1, T + 2);
    E.onLoopEnd(2, T + 10);
    E.onLoopEnd(1, T + 20);
    E.onLoopEnd(0, T + 30);
  }
  EXPECT_EQ(E.peakLocalSlots(), 6u);
  EXPECT_EQ(E.stats(0).Entries, 3u);
  EXPECT_EQ(E.stats(2).Entries, 3u);
}

TEST(TraceEngine, InterleavedEnginesStayIndependent) {
  // Two engines with different hardware configs, driven in lockstep from
  // interleaved event streams, must each produce exactly the stats they
  // produce when driven alone. This is the reentrancy contract the sweep
  // pool relies on: no shared mutable state between engine instances.
  using Ev = void (*)(TraceEngine &, std::uint64_t);
  const Ev Events[] = {
      [](TraceEngine &E, std::uint64_t B) { E.onLoopStart(0, 1, B); },
      [](TraceEngine &E, std::uint64_t B) { E.onHeapStore(40, B + 10, 1); },
      // Second store on a different line: with a 1-line FIFO it evicts the
      // line-10 timestamp, so the load below finds no arc there.
      [](TraceEngine &E, std::uint64_t B) { E.onHeapStore(44, B + 18, 2); },
      [](TraceEngine &E, std::uint64_t B) { E.onLoopIter(0, B + 20); },
      [](TraceEngine &E, std::uint64_t B) { E.onHeapLoad(40, B + 30, 3); },
      [](TraceEngine &E, std::uint64_t B) { E.onLoopEnd(0, B + 40); },
  };
  sim::HydraConfig CfgA; // defaults
  sim::HydraConfig CfgB; // starved history: loses the line-10 store
  CfgB.HeapTimestampFifoLines = 1;

  TraceEngine RefA(CfgA, loops(1)), RefB(CfgB, loops(1));
  for (Ev E : Events)
    E(RefA, 100);
  for (Ev E : Events)
    E(RefB, 500);

  TraceEngine A(CfgA, loops(1)), B(CfgB, loops(1));
  for (Ev E : Events) {
    E(A, 100);
    E(B, 500);
  }

  for (auto [Got, Want] : {std::pair{&A, &RefA}, std::pair{&B, &RefB}}) {
    const StlStats &G = Got->stats(0), &W = Want->stats(0);
    EXPECT_EQ(G.Entries, W.Entries);
    EXPECT_EQ(G.Threads, W.Threads);
    EXPECT_EQ(G.Cycles, W.Cycles);
    EXPECT_EQ(G.CritArcsPrev, W.CritArcsPrev);
    EXPECT_EQ(G.CritLenPrev, W.CritLenPrev);
    EXPECT_EQ(G.CritArcsEarlier, W.CritArcsEarlier);
    EXPECT_EQ(Got->peakBanksInUse(), Want->peakBanksInUse());
  }
  // The starved-history engine really did behave differently from the
  // default one, so the interleaving mixed two distinct analyses.
  EXPECT_NE(A.stats(0).CritArcsPrev, B.stats(0).CritArcsPrev);
}

TEST(TraceEngine, ConfigHeldByValueSurvivesCaller) {
  // Regression for the sweep reentrancy audit: the engine used to hold its
  // HydraConfig by reference, dangling when a sweep job built the config in
  // a temporary scope. It must copy.
  std::unique_ptr<TraceEngine> E;
  {
    sim::HydraConfig Cfg;
    Cfg.HeapTimestampFifoLines = 2;
    E = std::make_unique<TraceEngine>(Cfg, loops(1));
  } // Cfg destroyed; the engine must keep operating on its own copy
  E->onLoopStart(0, 1, 0);
  E->onHeapStore(0, 1, 1);
  E->onHeapStore(16, 2, 1);
  E->onHeapStore(32, 3, 1); // line 0 evicted from the 2-line FIFO
  E->onLoopIter(0, 10);
  E->onHeapLoad(0, 12, 2); // history lost: no arc
  E->onLoopEnd(0, 20);
  EXPECT_EQ(E->stats(0).CritArcsPrev, 0u);
}

TEST(TraceEngine, OutOfOrderELoopClosesInnerBanks) {
  // An eloop for the outer loop with the inner still open (a return-like
  // unwinding) must close the inner bank too and keep slot accounting
  // consistent for later entries.
  sim::HydraConfig Cfg;
  std::vector<LoopTraceInfo> Infos(2);
  Infos[0].AnnotatedLocals = {1};
  Infos[1].AnnotatedLocals = {2};
  TraceEngine E(Cfg, Infos);
  E.onLoopStart(0, 1, 0);
  E.onLoopStart(1, 1, 5);
  E.onLoopEnd(0, 20); // inner (1) never closed explicitly
  EXPECT_EQ(E.stats(1).Entries, 1u);
  // The slot file must be empty again: a fresh deep nest fits.
  E.onLoopStart(0, 2, 100);
  E.onLoopStart(1, 2, 105);
  E.onLoopEnd(1, 110);
  E.onLoopEnd(0, 120);
  EXPECT_EQ(E.stats(0).Entries, 2u);
  EXPECT_EQ(E.stats(1).Entries, 2u);
}

// The two stream pins below hold the values the engine produced for these
// streams before the batched event transport was removed, so they carry
// forward what the block-vs-per-event differential tests compared.

TEST(TraceEngine, MixedStreamPinsFullObservableSurface) {
  TraceEngine E(smallConfig(), loops(3, {3, 4}), /*ExtendedPcBinning=*/true);
  for (const trace::Event &Ev : mixedStream())
    trace::dispatchEvent(Ev, E);

  EXPECT_EQ(E.stats(0), stlStats(32, 7, 2, 0, 3, 6, 1, 5, 0, 2, 1,
                                 {{6, {1, 2}},
                                  {16, {1, 2}},
                                  {18, {1, 2}},
                                  {19, {1, 5}}}));
  EXPECT_EQ(E.stats(1),
            stlStats(17, 3, 1, 0, 2, 9, 0, 0, 0, 2, 1, {{11, {1, 7}},
                                                        {13, {1, 2}}}));
  EXPECT_EQ(E.stats(2), stlStats(0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, {}));
  EXPECT_EQ(E.dynamicParents(), (std::vector<int>{-1, 0, 1}));
  EXPECT_EQ(E.peakBanksInUse(), 2u);
  EXPECT_EQ(E.peakLocalSlots(), 2u);
  EXPECT_EQ(E.peakDynamicNest(), 3u);
  EXPECT_EQ(metricsJson(E), R"({
  "counters": {
    "tracer.crit_arcs_earlier": 1,
    "tracer.crit_arcs_prev": 5,
    "tracer.crit_len_earlier": 5,
    "tracer.crit_len_prev": 15,
    "tracer.entries": 3,
    "tracer.events.heap_load": 6,
    "tracer.events.heap_store": 4,
    "tracer.events.local_load": 4,
    "tracer.events.local_store": 5,
    "tracer.events.loop_end": 3,
    "tracer.events.loop_iter": 8,
    "tracer.events.loop_start": 4,
    "tracer.events.read_stats": 1,
    "tracer.events.return": 1,
    "tracer.heap_ts.evictions": 0,
    "tracer.line_table.evictions": 0,
    "tracer.local_ts.release_errors": 0,
    "tracer.overflow_threads": 0,
    "tracer.threads": 10,
    "tracer.untraced_entries": 1
  },
  "gauges": {
    "tracer.heap_ts.peak_occupancy": 4,
    "tracer.line_table.peak_occupancy": 6,
    "tracer.peak_banks": 2,
    "tracer.peak_local_slots": 2,
    "tracer.peak_nest": 3
  },
  "histograms": {
    "tracer.thread_size_cycles": {
      "count": 10,
      "max": 18,
      "mean": 4.9000000000000004,
      "min": 1,
      "p50": 3,
      "p95": 18,
      "p99": 18,
      "sum": 49
    }
  },
  "schema": "jrpm-metrics-v1"
}
)");
}

TEST(TraceEngine, DisabledLoopStreamPinsFullObservableSurface) {
  // The threshold is checked when a loop is entered, so the one entry here
  // stays traced for all six threads.
  TraceEngine E(smallConfig(), loops(1), /*ExtendedPcBinning=*/true);
  E.setDisableLoopAfterThreads(3);
  for (const trace::Event &Ev : disabledLoopStream())
    trace::dispatchEvent(Ev, E);

  EXPECT_EQ(E.stats(0),
            stlStats(19, 7, 1, 0, 6, 12, 0, 0, 0, 1, 1, {{2, {6, 12}}}));
  EXPECT_EQ(E.dynamicParents(), (std::vector<int>{-1}));
  EXPECT_EQ(E.peakBanksInUse(), 1u);
  EXPECT_EQ(E.peakLocalSlots(), 0u);
  EXPECT_EQ(E.peakDynamicNest(), 1u);
  EXPECT_EQ(metricsJson(E), R"({
  "counters": {
    "tracer.crit_arcs_earlier": 0,
    "tracer.crit_arcs_prev": 6,
    "tracer.crit_len_earlier": 0,
    "tracer.crit_len_prev": 12,
    "tracer.entries": 1,
    "tracer.events.heap_load": 6,
    "tracer.events.heap_store": 6,
    "tracer.events.local_load": 0,
    "tracer.events.local_store": 0,
    "tracer.events.loop_end": 1,
    "tracer.events.loop_iter": 6,
    "tracer.events.loop_start": 1,
    "tracer.events.read_stats": 0,
    "tracer.events.return": 0,
    "tracer.heap_ts.evictions": 0,
    "tracer.line_table.evictions": 0,
    "tracer.local_ts.release_errors": 0,
    "tracer.overflow_threads": 0,
    "tracer.threads": 7,
    "tracer.untraced_entries": 0
  },
  "gauges": {
    "tracer.heap_ts.peak_occupancy": 1,
    "tracer.line_table.peak_occupancy": 2,
    "tracer.peak_banks": 1,
    "tracer.peak_local_slots": 0,
    "tracer.peak_nest": 1
  },
  "histograms": {
    "tracer.thread_size_cycles": {
      "count": 7,
      "max": 3,
      "mean": 2.7142857142857144,
      "min": 2,
      "p50": 3,
      "p95": 3,
      "p99": 3,
      "sum": 19
    }
  },
  "schema": "jrpm-metrics-v1"
}
)");
}

TEST(TraceEngine, AnnotationChargesCostMinusOneUntilLoopIsDisabled) {
  sim::HydraConfig Cfg;
  Cfg.SLoopCost = 5;
  Cfg.ELoopCost = 7;
  Cfg.EoiCost = 3;
  Cfg.ReadStatsCost = 11;
  TraceEngine E(Cfg, loops(1));
  E.setDisableLoopAfterThreads(3);

  // Entry 1, enabled (threads 0 -> 2): every annotation charges its
  // configured cost minus the instruction's own cycle.
  EXPECT_EQ(E.onLoopStart(0, 1, 0), 4u);
  EXPECT_EQ(E.onLoopIter(0, 10), 2u);
  EXPECT_EQ(E.onReadStats(0, 15), 10u);
  EXPECT_EQ(E.onLoopEnd(0, 20), 6u);
  EXPECT_EQ(E.stats(0).Threads, 2u);

  // Entry 2 is still traced. Its first eoi reaches the threshold and is
  // charged (the loop was enabled when it issued); from then on the loop is
  // disabled, so the second eoi and the closing eloop are nops (paper §5)
  // although the bank keeps tracing to the end of the entry.
  EXPECT_EQ(E.onLoopStart(0, 1, 100), 4u);
  EXPECT_EQ(E.onLoopIter(0, 110), 2u);
  EXPECT_EQ(E.stats(0).Threads, 3u);
  EXPECT_EQ(E.onLoopIter(0, 120), 0u);
  EXPECT_EQ(E.stats(0).Threads, 4u);
  EXPECT_EQ(E.onLoopEnd(0, 130), 0u);

  // Entry 3: disabled with no traced bank, so every annotation is free.
  EXPECT_EQ(E.onLoopStart(0, 1, 200), 0u);
  EXPECT_EQ(E.onLoopIter(0, 210), 0u);
  EXPECT_EQ(E.onReadStats(0, 215), 0u);
  EXPECT_EQ(E.onLoopEnd(0, 220), 0u);
  EXPECT_EQ(E.stats(0).Entries, 2u);
  EXPECT_EQ(E.stats(0).UntracedEntries, 1u);
}
