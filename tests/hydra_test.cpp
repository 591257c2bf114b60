//===- tests/hydra_test.cpp - TLS engine behavioural tests -----------------==//
//
// Builds small loops, recompiles them with buildTlsPlan/TlsEngine, and
// checks speculative execution against sequential ground truth: results,
// violations, forwarding, overflow stalls, reductions, inductors,
// loop-exit state, and faults of mis-speculated threads. Also covers the
// engine's flat epoch-cleared tables.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "hydra/TlsCodegen.h"
#include "hydra/TlsEngine.h"
#include "interp/Trap.h"
#include "jit/TlsPlan.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::makeMain;
using jrpm::testutil::runModule;

namespace {

/// Runs \p M speculatively with every non-rejected loop selected.
struct TlsRun {
  interp::RunResult Result;
  hydra::TlsLoopRunStats Totals;
};

TlsRun runAllLoopsTls(const ir::Module &M,
                      sim::HydraConfig Cfg = sim::HydraConfig()) {
  analysis::ModuleAnalysis MA(M);
  std::vector<jit::TlsLoopPlan> Plans;
  for (const auto &C : MA.candidates())
    if (!C.Rejected)
      Plans.push_back(jit::buildTlsPlan(MA, C));
  hydra::TlsEngine Engine(M, Cfg, std::move(Plans));
  interp::Machine Machine(M, Cfg);
  Machine.setDispatcher(&Engine);
  TlsRun R;
  R.Result = Machine.run();
  R.Totals = Engine.totals();
  return R;
}

} // namespace

TEST(TlsCodegen, GlobalizesCarriedLocal) {
  ir::Module M = makeMain(seq({
      assign("x", c(1)),
      assign("n", c(10)),
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              assign("x", add(mul(v("x"), c(2)), v("i")))),
      ret(v("x")),
  }));
  analysis::ModuleAnalysis MA(M);
  ASSERT_EQ(MA.candidates().size(), 1u);
  jit::TlsLoopPlan Plan = jit::buildTlsPlan(MA, MA.candidates()[0]);
  ASSERT_EQ(Plan.CarriedLocals.size(), 1u);
  ASSERT_EQ(Plan.Inductors.size(), 1u);

  std::vector<std::uint32_t> Spill = {1000};
  ir::Function G =
      hydra::globalizeLoopBody(M.Functions[0], Plan, Spill);
  // Same block structure, extra load/store instructions at the spill
  // address inside loop blocks.
  EXPECT_EQ(G.Blocks.size(), M.Functions[0].Blocks.size());
  std::uint64_t SpillLoads = 0, SpillStores = 0;
  for (const auto &BB : G.Blocks)
    for (const auto &I : BB.Instructions) {
      if (I.Op == ir::Opcode::Load && I.Imm == 1000 && I.A == ir::NoReg)
        ++SpillLoads;
      if (I.Op == ir::Opcode::Store && I.Imm == 1000 && I.A == ir::NoReg)
        ++SpillStores;
    }
  EXPECT_GE(SpillLoads, 1u);
  EXPECT_GE(SpillStores, 1u);
}

TEST(TlsEngine, ParallelLoopSpeedsUpAndMatches) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(256))),
      forLoop("i", c(0), lt(v("i"), c(256)), 1,
              seq({
                  assign("acc", v("i")),
                  forLoop("k", c(0), lt(v("k"), c(20)), 1,
                          assign("acc",
                                 band(add(mul(v("acc"), c(33)), c(7)),
                                      c(0xFFFFF)))),
                  store(v("a"), v("i"), v("acc")),
              })),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(256)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_LT(Tls.Result.Cycles, Seq.Cycles); // real speedup
  EXPECT_GT(Tls.Totals.CommittedThreads, 250u);
}

TEST(TlsEngine, SerialChainStaysCorrectDespiteViolations) {
  // a[i] = a[i-1] * 3 + 1: every iteration depends on the previous one.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(128))),
      store(v("a"), c(0), c(1)),
      forLoop("i", c(1), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"),
                    add(mul(ld(v("a"), sub(v("i"), c(1))), c(3)), c(1)))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", bxor(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.Violations, 0u); // speculation kept failing
}

TEST(TlsEngine, IntReductionExact) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(512))),
      forLoop("i", c(0), lt(v("i"), c(512)), 1,
              store(v("a"), v("i"), mul(v("i"), c(7)))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(512)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, FloatReductionExactForSingleAddPerIteration) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"),
                    fdiv(cf(1.0), itof(add(v("i"), c(1)))))),
      assign("s", cf(0.0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", fadd(v("s"), ld(v("a"), v("i"))))),
      ret(ftoi(fmul(v("s"), cf(1e9)))),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  // Single-iteration threads commit in order, so even the float bits match.
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, InductorFinalValueCorrect) {
  // The loop's return value depends on the inductor's final value.
  ir::Module M = makeMain(seq({
      assign("i", c(0)),
      assign("s", c(0)),
      whileLoop(lt(v("i"), c(77)),
                seq({
                    assign("s", add(v("s"), c(2))),
                    assign("i", add(v("i"), c(3))),
                })),
      ret(add(mul(v("i"), c(1000)), v("s"))),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, ZeroIterationLoop) {
  ir::Module M = makeMain(seq({
      assign("n", c(0)),
      assign("s", c(5)),
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              assign("s", add(v("s"), c(100)))),
      ret(v("s")),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_EQ(Tls.Result.ReturnValue, 5u);
}

TEST(TlsEngine, BreakExitAdoptsCorrectState) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"), srem(mul(v("i"), c(29)), c(97)))),
      assign("found", c(-1)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              iff(eq(ld(v("a"), v("i")), c(42)),
                  seq({assign("found", v("i")), brk()}))),
      ret(v("found")),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, StoreBufferOverflowStallsButStaysCorrect) {
  sim::HydraConfig Cfg;
  Cfg.SpecStoreLines = 4; // tiny buffer: 16 words
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(64 * 40))),
      forLoop("i", c(0), lt(v("i"), c(40)), 1,
              forLoop("k", c(0), lt(v("k"), c(64)), 1,
                      store(v("a"), add(mul(v("i"), c(64)), v("k")),
                            add(v("i"), v("k"))))),
      ret(ld(v("a"), c(64 * 39 + 63))),
  }));
  auto Seq = runModule(M, Cfg);
  auto Tls = runAllLoopsTls(M, Cfg);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(Tls.Totals.OverflowStalls, 0u);
}

TEST(TlsEngine, ForwardingDeliversEarlierThreadsStores) {
  // Iteration i reads the slot written by iteration i-1 *early* in the
  // body and writes its own slot immediately: short arcs, so forwarding
  // (not violation) should dominate and the loop still speeds up a bit.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(300))),
      store(v("a"), c(0), c(7)),
      forLoop(
          "i", c(1), lt(v("i"), c(256)), 1,
          seq({
              assign("prev", ld(v("a"), sub(v("i"), c(1)))),
              store(v("a"), v("i"), add(v("prev"), c(1))),
              // Trailing independent work keeps the arc short relative to
              // the thread size.
              assign("w", v("i")),
              forLoop("k", c(0), lt(v("k"), c(12)), 1,
                      assign("w", band(add(mul(v("w"), c(33)), c(7)),
                                       c(0xFFFFF)))),
              store(v("a"), v("i"), 32, v("w")),
          })),
      ret(add(ld(v("a"), c(255)), ld(v("a"), c(100 + 32)))),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, WordVsLineGranularity) {
  // Neighbouring iterations touch different words of the same line: word
  // granularity sees no violations, line granularity sees many — results
  // stay identical either way (the ablation of Section 5.3's note).
  auto Build = [] {
    return makeMain(seq({
        assign("a", allocWords(c(256))),
        store(v("a"), c(0), c(3)),
        forLoop("i", c(1), lt(v("i"), c(256)), 1,
                store(v("a"), v("i"), add(v("i"), ld(v("a"), c(0))))),
        assign("s", c(0)),
        forLoop("i", c(0), lt(v("i"), c(256)), 1,
                assign("s", add(v("s"), ld(v("a"), v("i"))))),
        ret(v("s")),
    }));
  };
  sim::HydraConfig Word;
  Word.ViolationGrain = sim::ViolationGranularity::Word;
  sim::HydraConfig Line;
  Line.ViolationGrain = sim::ViolationGranularity::Line;
  ir::Module M1 = Build();
  ir::Module M2 = Build();
  auto RWord = runAllLoopsTls(M1, Word);
  auto RLine = runAllLoopsTls(M2, Line);
  EXPECT_EQ(RWord.Result.ReturnValue, RLine.Result.ReturnValue);
  EXPECT_GE(RLine.Totals.Violations, RWord.Totals.Violations);
}

TEST(TlsEngine, NestedCallInsideThreadWorks) {
  ProgramDef P;
  FuncDef Work;
  Work.Name = "work";
  Work.Params = {"x"};
  Work.Body = seq({
      assign("r", v("x")),
      forLoop("k", c(0), lt(v("k"), c(8)), 1,
              assign("r", band(add(mul(v("r"), c(31)), c(11)), c(0xFFFF)))),
      ret(v("r")),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(64))),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              store(v("a"), v("i"), call("work", {v("i")}))),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  });
  P.Functions.push_back(std::move(Work));
  P.Functions.push_back(std::move(Main));
  ir::Module M = front::lowerProgram(P);
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, MultipleInvocationsOfSameLoop) {
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(32))),
      assign("total", c(0)),
      forLoop("round", c(0), lt(v("round"), c(5)), 1,
              seq({
                  // Inner loop re-entered every round. The outer loop is
                  // rejected for selection here by nesting (both get
                  // selected in runAllLoopsTls, exercising nested-STL
                  // suppression inside the engine).
                  forLoop("i", c(0), lt(v("i"), c(32)), 1,
                          store(v("a"), v("i"),
                                add(v("round"), mul(v("i"), c(3))))),
                  assign("total", add(v("total"), ld(v("a"), c(31)))),
              })),
      ret(v("total")),
  }));
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, SyncLocksReduceRestartsOnCarriedChain) {
  // x = f(x) at the top of the body followed by heavy independent work:
  // with plain restarts the consumer speculates through x and restarts;
  // with Section 3.2's synchronization locks it waits for the producer's
  // store instead. Results must be identical; restarts must drop.
  auto Build = [] {
    return makeMain(seq({
        assign("a", allocWords(c(160))),
        assign("x", c(7)),
        forLoop("i", c(0), lt(v("i"), c(150)), 1,
                seq({
                    assign("x", band(add(mul(v("x"), c(33)), c(11)),
                                     c(0xFFFF))),
                    assign("w", add(v("x"), v("i"))),
                    forLoop("k", c(0), lt(v("k"), c(15)), 1,
                            assign("w", band(add(mul(v("w"), c(17)), c(5)),
                                             c(0xFFFFF)))),
                    store(v("a"), v("i"), v("w")),
                })),
        assign("s", v("x")),
        forLoop("i", c(0), lt(v("i"), c(150)), 1,
                assign("s", add(v("s"), ld(v("a"), v("i"))))),
        ret(v("s")),
    }));
  };
  sim::HydraConfig Restart;
  sim::HydraConfig Sync;
  Sync.SyncCarriedLocals = true;
  ir::Module M1 = Build();
  ir::Module M2 = Build();
  auto Seq = runModule(M1);
  auto RRestart = runAllLoopsTls(M1, Restart);
  auto RSync = runAllLoopsTls(M2, Sync);
  EXPECT_EQ(RRestart.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_EQ(RSync.Result.ReturnValue, Seq.ReturnValue);
  EXPECT_GT(RSync.Totals.SyncStalls, 0u);
  EXPECT_LT(RSync.Totals.Restarts, RRestart.Totals.Restarts);
}

TEST(TlsEngine, SyncModeWholeSuiteStyleLoopStillCorrect) {
  // Break-exit plus carried local under sync mode: the waiter chain must
  // unwind when the producing thread exits the loop speculatively.
  ir::Module M = makeMain(seq({
      assign("a", allocWords(c(128))),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              store(v("a"), v("i"), srem(mul(v("i"), c(41)), c(113)))),
      assign("x", c(0)),
      assign("found", c(-1)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              seq({
                  assign("x", add(v("x"), ld(v("a"), v("i")))),
                  iff(gt(v("x"), c(2500)),
                      seq({assign("found", v("i")), brk()})),
              })),
      ret(add(v("found"), mul(v("x"), c(1000)))),
  }));
  sim::HydraConfig Sync;
  Sync.SyncCarriedLocals = true;
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M, Sync);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
}

TEST(TlsEngine, SelectedLoopInsideCalleeDispatches) {
  // A selected STL that lives in a helper function must be taken over by
  // the engine when the sequential machine reaches it at call depth > 1.
  ProgramDef P;
  FuncDef Fill;
  Fill.Name = "fill";
  Fill.Params = {"a", "n", "bias"};
  Fill.Body = seq({
      forLoop("i", c(0), lt(v("i"), v("n")), 1,
              seq({
                  assign("w", add(v("i"), v("bias"))),
                  forLoop("k", c(0), lt(v("k"), c(10)), 1,
                          assign("w", band(add(mul(v("w"), c(29)), c(3)),
                                           c(0xFFFFF)))),
                  store(v("a"), v("i"), v("w")),
              })),
      ret(),
  });
  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq({
      assign("a", allocWords(c(128))),
      exprStmt(call("fill", {v("a"), c(128), c(7)})),
      exprStmt(call("fill", {v("a"), c(64), c(11)})),
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(128)), 1,
              assign("s", add(v("s"), ld(v("a"), v("i"))))),
      ret(v("s")),
  });
  P.Functions.push_back(std::move(Fill));
  P.Functions.push_back(std::move(Main));
  ir::Module M = front::lowerProgram(P);
  auto Seq = runModule(M);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, Seq.ReturnValue);
  // The callee's loop ran speculatively on both invocations.
  EXPECT_GT(Tls.Totals.Invocations, 2u);
  EXPECT_GT(Tls.Totals.CommittedThreads, 150u);
  EXPECT_LT(Tls.Result.Cycles, Seq.Cycles);
}

namespace {

/// a[i] = a[i-1] + 1 from a[0] = 1, where each iteration first derives q
/// (through \p Hazard, which must assign it) from a[i-1] in a way that is
/// only safe for the sequential (nonzero) value: iterations that speculate
/// past their predecessor's store read a stale 0.
ir::Module makeStaleReadLoop(St Hazard) {
  return makeMain(seq({
      assign("a", allocWords(c(300))),
      assign("b", allocWords(c(8))),
      store(v("a"), c(0), c(1)),
      forLoop("i", c(1), lt(v("i"), c(256)), 1,
              seq({
                  assign("prev", ld(v("a"), sub(v("i"), c(1)))),
                  Hazard,
                  store(v("a"), v("i"),
                        add(add(v("prev"), c(1)), band(v("q"), c(0)))),
              })),
      ret(ld(v("a"), c(255))),
  }));
}

} // namespace

TEST(TlsEngine, MisspeculatedDivideByZeroIsSquashedNotThrown) {
  // q = 1000 / prev: a stale prev of 0 traps in a speculative thread.
  ir::Module M = makeStaleReadLoop(assign("q", sdiv(c(1000), v("prev"))));
  auto Seq = runModule(M);
  ASSERT_EQ(Seq.ReturnValue, 256u);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, 256u);
  EXPECT_GT(Tls.Totals.Violations, 0u); // the faulting threads were squashed
  EXPECT_GT(Tls.Totals.CommittedThreads, 200u);
}

TEST(TlsEngine, MisspeculatedOutOfHeapLoadIsSquashedNotExecuted) {
  // q = b[4000000 * (prev == 0)]: in bounds for every sequential prev, far
  // outside the heap for a stale 0.
  ir::Module M = makeStaleReadLoop(
      assign("q", ld(v("b"), mul(c(4000000), eq(v("prev"), c(0))))));
  auto Seq = runModule(M);
  ASSERT_EQ(Seq.ReturnValue, 256u);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, 256u);
  EXPECT_GT(Tls.Totals.Violations, 0u);
  EXPECT_GT(Tls.Totals.CommittedThreads, 200u);
}

TEST(TlsEngine, MisspeculatedRegisterOnlyLoopIsSquashedNotRunForever) {
  // An inner loop with trip count 2 * prev - 1 that touches no memory: a
  // stale prev of 0 makes it run for 2^64 iterations, with nothing in it
  // that another core can observe. The thread must still yield to the
  // other cores so its predecessor's store can squash it.
  ir::Module M = makeStaleReadLoop(
      seq({assign("q", c(0)),
           forLoop("j", c(0), ne(v("j"), sub(mul(c(2), v("prev")), c(1))), 1,
                   assign("q", add(v("q"), v("j"))))}));
  auto Seq = runModule(M);
  ASSERT_EQ(Seq.ReturnValue, 256u);
  auto Tls = runAllLoopsTls(M);
  EXPECT_EQ(Tls.Result.ReturnValue, 256u);
  EXPECT_GT(Tls.Totals.Violations, 0u);
  EXPECT_GT(Tls.Totals.CommittedThreads, 200u);
}

TEST(TlsEngine, RealFaultSurfacesWhenTheThreadBecomesHead) {
  // Iteration 40 divides by zero in the sequential program too: the
  // speculative thread parks, becomes the head, re-executes, and the trap
  // escapes exactly as it does sequentially.
  ir::Module M = makeMain(seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(64)), 1,
              assign("s", add(v("s"), sdiv(c(1000), sub(v("i"), c(40)))))),
      ret(v("s")),
  }));
  try {
    runModule(M);
    FAIL() << "the sequential run should trap";
  } catch (const interp::TrapError &E) {
    EXPECT_EQ(E.kind(), interp::TrapKind::DivideByZero);
  }
  try {
    runAllLoopsTls(M);
    FAIL() << "the speculative run should trap";
  } catch (const interp::TrapError &E) {
    EXPECT_EQ(E.kind(), interp::TrapKind::DivideByZero);
  }
}

TEST(EpochTable, IndexNumbersDenselyGrowsAndClearsInConstantTime) {
  hydra::EpochIndex Set;
  // Far past the initial capacity, with keys that collide in the low bits.
  for (std::uint32_t K = 0; K < 5000; ++K) {
    EXPECT_TRUE(Set.insert(K * 64));
    EXPECT_FALSE(Set.insert(K * 64));
  }
  ASSERT_EQ(Set.size(), 5000u);
  for (std::uint32_t K = 0; K < 5000; ++K)
    ASSERT_EQ(Set.find(K * 64), K) << "dense numbers follow insertion order";
  EXPECT_FALSE(Set.contains(1));
  for (int Round = 0; Round < 3; ++Round) {
    Set.clear();
    EXPECT_EQ(Set.size(), 0u);
    for (std::uint32_t K = 0; K < 5000; ++K)
      ASSERT_FALSE(Set.contains(K * 64)) << "stale member after clear";
    bool Added = false;
    EXPECT_EQ(Set.insert(128, Added), 0u);
    EXPECT_TRUE(Added);
    EXPECT_EQ(Set.insert(128, Added), 0u);
    EXPECT_FALSE(Added);
  }
}

TEST(EpochTable, StoreBufferOverwritesAndDrainsInInsertionOrder) {
  hydra::StoreBuffer Buf;
  Buf.store(40, 1);
  Buf.store(8, 2);
  Buf.store(40, 3); // overwrite keeps the first insertion's position
  ASSERT_NE(Buf.find(40), nullptr);
  EXPECT_EQ(*Buf.find(40), 3u);
  EXPECT_EQ(Buf.find(12), nullptr);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> Drained;
  Buf.forEach([&](std::uint32_t A, std::uint64_t V) {
    Drained.emplace_back(A, V);
  });
  EXPECT_EQ(Drained, (std::vector<std::pair<std::uint32_t, std::uint64_t>>{
                         {40, 3}, {8, 2}}));
  Buf.clear();
  EXPECT_FALSE(Buf.contains(40));
  Buf.forEach([](std::uint32_t, std::uint64_t) { FAIL() << "not empty"; });
}
