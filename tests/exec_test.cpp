//===- tests/exec_test.cpp - CodeImage / flat execution tests --------------==//
//
// Covers the pre-decoded execution image (layout, target resolution,
// digest-keyed sharing), the flat-PC ExecContext surface the TLS engine
// depends on (startAt with an oversized register file, rewindTop re-issue,
// repositionTop at a loop exit), deterministic divide-by-zero traps, and
// step()/runToStop()/run() equivalence on random programs.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"
#include "analysis/Candidates.h"
#include "exec/CodeImage.h"
#include "interp/Trap.h"
#include "jit/TlsPlan.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::front;
using jrpm::testutil::makeMain;
using jrpm::testutil::runModule;

namespace {

ir::Module makeCallProgram() {
  ProgramDef P;
  FuncDef Helper;
  Helper.Name = "mix";
  Helper.Params = {"a", "b"};
  Helper.Body = seq({
      iff(lt(v("a"), v("b")), ret(sub(v("b"), v("a")))),
      ret(add(mul(v("a"), c(3)), v("b"))),
  });
  FuncDef Main;
  Main.Body = seq({
      assign("s", c(0)),
      forLoop("i", c(0), lt(v("i"), c(8)), 1,
              assign("s", add(v("s"), call("mix", {v("i"), c(5)})))),
      ret(v("s")),
  });
  Main.Name = "main";
  P.Functions.push_back(std::move(Helper));
  P.Functions.push_back(std::move(Main));
  return lowerProgram(P);
}

/// Stop mask marking every block start of \p Image: runToStop() over it
/// executes one basic block at a time.
std::vector<std::uint8_t> blockStarts(const exec::CodeImage &Image) {
  std::vector<std::uint8_t> Mask(Image.numInsts());
  for (exec::FlatPc Pc = 0; Pc < Mask.size(); ++Pc)
    Mask[Pc] = Image.isBlockStart(Pc);
  return Mask;
}

/// Direct port that, when bound to a context, asks it to stop after every
/// load, as the TLS engine does when a load stalls its thread.
class StopAfterLoadPort : public interp::DirectMemoryPort {
public:
  StopAfterLoadPort(interp::Heap &H, const sim::HydraConfig &Cfg)
      : DirectMemoryPort(H, Cfg) {}
  interp::ExecContext *Ctx = nullptr;
  std::uint64_t load(std::uint32_t Addr, std::uint32_t &Extra) override {
    if (Ctx)
      Ctx->requestStop();
    return DirectMemoryPort::load(Addr, Extra);
  }
};

/// Runs \p M to completion twice, once by runToStop() over \p Mask and
/// once by step(). At every stop the step() context, advanced over the
/// same instructions, must agree on PC, frame depth, registers and
/// summed cycles; the run must stop in front of a masked PC (or after a
/// load when \p StopAfterLoads), and never pass one. Returns the number
/// of runs.
std::uint64_t expectRunToStopMatchesStep(const ir::Module &M,
                                         const std::vector<std::uint8_t> &Mask,
                                         bool StopAfterLoads,
                                         const std::string &Label) {
  sim::HydraConfig Cfg;
  interp::Heap H1, H2;
  interp::DirectMemoryPort Port1(H1, Cfg);
  StopAfterLoadPort Port2(H2, Cfg);
  interp::ExecContext Ref(M, Cfg), Run(M, Cfg);
  Port2.Ctx = StopAfterLoads ? &Run : nullptr;
  Ref.start(M.EntryFunction, {});
  Run.start(M.EntryFunction, {});
  EXPECT_EQ(Mask.size(), Run.image().numInsts()) << Label;
  std::uint64_t RefClock = 0, RunClock = 0, Runs = 0;
  while (!Run.finished()) {
    ++Runs;
    RunClock += Run.runToStop(Port2, nullptr, RunClock, Mask.data());
    bool LastWasLoad = false;
    bool First = true;
    while (Ref.instructionsExecuted() < Run.instructionsExecuted()) {
      if (!First) {
        EXPECT_FALSE(Mask[Ref.pc()])
            << Label << ": ran past a stop at pc " << Ref.pc();
        EXPECT_FALSE(StopAfterLoads && LastWasLoad)
            << Label << ": ran past a requested stop";
      }
      First = false;
      LastWasLoad = Ref.image().inst(Ref.pc()).Op == ir::Opcode::Load;
      RefClock += Ref.step(Port1, nullptr, RefClock);
    }
    EXPECT_EQ(RefClock, RunClock) << Label << " run " << Runs;
    EXPECT_EQ(Ref.finished(), Run.finished()) << Label << " run " << Runs;
    if (Run.finished())
      break;
    EXPECT_TRUE(Mask[Run.pc()] || (StopAfterLoads && LastWasLoad))
        << Label << ": stopped at an unmarked pc " << Run.pc();
    EXPECT_EQ(Ref.pc(), Run.pc()) << Label << " run " << Runs;
    EXPECT_EQ(Ref.callDepth(), Run.callDepth()) << Label << " run " << Runs;
    EXPECT_EQ(Ref.topRegs(), Run.topRegs()) << Label << " run " << Runs;
    if (::testing::Test::HasFailure())
      break;
  }
  EXPECT_TRUE(Ref.finished()) << Label;
  EXPECT_EQ(Ref.returnValue(), Run.returnValue()) << Label;
  EXPECT_EQ(Ref.instructionsExecuted(), Run.instructionsExecuted()) << Label;
  return Runs;
}

} // namespace

TEST(CodeImage, LayoutMatchesModule) {
  ir::Module M = makeCallProgram();
  M.finalize();
  exec::CodeImage Img(M);

  std::uint32_t TotalInsts = 0, TotalBlocks = 0;
  for (const ir::Function &F : M.Functions) {
    TotalBlocks += F.Blocks.size();
    for (const ir::BasicBlock &BB : F.Blocks)
      TotalInsts += BB.Instructions.size();
  }
  ASSERT_EQ(Img.numInsts(), TotalInsts);
  ASSERT_EQ(Img.numBlocks(), TotalBlocks);
  ASSERT_EQ(Img.numFuncs(), M.Functions.size());

  // For a finalized module the flat PC equals the tracer PC, every operand
  // field survives decoding, and exactly the first instruction of each
  // block carries the block-start flag.
  exec::FlatPc Pc = 0;
  for (std::uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    const ir::Function &F = M.Functions[FI];
    EXPECT_EQ(Img.entry(FI), Pc);
    EXPECT_EQ(Img.func(FI).NumRegs, F.NumRegs);
    EXPECT_EQ(Img.func(FI).NumParams, F.NumParams);
    for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
      EXPECT_EQ(Img.blockStart(FI, BI), Pc);
      for (std::uint32_t II = 0; II < F.Blocks[BI].Instructions.size();
           ++II, ++Pc) {
        const ir::Instruction &Src = F.Blocks[BI].Instructions[II];
        const exec::DecodedInst &D = Img.inst(Pc);
        EXPECT_EQ(static_cast<std::int32_t>(Pc), Src.Pc);
        EXPECT_EQ(D.Pc, Src.Pc);
        EXPECT_EQ(D.Op, Src.Op);
        EXPECT_EQ(D.isBlockStart(), II == 0);
        EXPECT_EQ(Img.funcOf(Pc), FI);
        EXPECT_EQ(Img.blockOf(Pc), BI);
        // Branch targets are pre-resolved to block-start flat PCs.
        if (Src.Op == ir::Opcode::Br) {
          EXPECT_EQ(static_cast<exec::FlatPc>(D.Imm),
                    Img.blockStart(FI, static_cast<std::uint32_t>(Src.Imm)));
        } else if (Src.Op == ir::Opcode::CondBr) {
          EXPECT_EQ(static_cast<exec::FlatPc>(D.Imm),
                    Img.blockStart(FI, static_cast<std::uint32_t>(Src.Imm)));
          EXPECT_EQ(static_cast<exec::FlatPc>(D.Imm2),
                    Img.blockStart(FI, static_cast<std::uint32_t>(Src.Imm2)));
        } else {
          EXPECT_EQ(D.Imm, Src.Imm);
        }
      }
    }
  }
}

TEST(CodeImage, TerminatorClassification) {
  ir::Module M = makeCallProgram();
  M.finalize();
  exec::CodeImage Img(M);
  std::uint32_t Returns = 0, CondJumps = 0, Jumps = 0;
  for (std::uint32_t B = 0; B < Img.numBlocks(); ++B) {
    switch (Img.blockDesc(B).Term) {
    case exec::TermClass::Return:
      ++Returns;
      break;
    case exec::TermClass::CondJump:
      ++CondJumps;
      break;
    case exec::TermClass::Jump:
      ++Jumps;
      break;
    }
  }
  EXPECT_GE(Returns, 3u); // two in mix, one in main
  EXPECT_GE(CondJumps, 2u); // the iff and the loop header
  EXPECT_GE(Jumps, 1u); // the loop latch
}

TEST(CodeImage, DigestSharingAndCache) {
  exec::CodeImage::clearCache();
  ir::Module A = makeCallProgram();
  ir::Module B = makeCallProgram();
  A.finalize();
  B.finalize();
  EXPECT_EQ(exec::moduleDigest(A), exec::moduleDigest(B));

  auto S1 = exec::CodeImage::getShared(A);
  auto S2 = exec::CodeImage::getShared(B);
  EXPECT_EQ(S1.get(), S2.get()); // content-identical modules share an image
  EXPECT_EQ(S1->digest(), exec::moduleDigest(A));

  exec::ImageCacheStats St = exec::CodeImage::cacheStats();
  EXPECT_GE(St.Hits, 1u);
  EXPECT_GE(St.Misses, 1u);

  // A different program digests differently and gets its own image.
  ir::Module C = makeMain(ret(c(7)));
  C.finalize();
  EXPECT_NE(exec::moduleDigest(C), exec::moduleDigest(A));
  EXPECT_NE(exec::CodeImage::getShared(C).get(), S1.get());
}

TEST(CodeImageCache, LruEvictsLeastRecentlyUsed) {
  exec::CodeImage::clearCache();
  exec::CodeImage::setCacheCapacity(2);

  // Three content-distinct programs.
  ir::Module A = makeMain(ret(c(11)));
  ir::Module B = makeMain(ret(c(22)));
  ir::Module C = makeMain(ret(c(33)));
  A.finalize();
  B.finalize();
  C.finalize();

  auto SA = exec::CodeImage::getShared(A);
  auto SB = exec::CodeImage::getShared(B);
  // Touch A so B becomes the least recently used entry...
  EXPECT_EQ(exec::CodeImage::getShared(A).get(), SA.get());
  // ...and inserting C evicts B, not A.
  auto SC = exec::CodeImage::getShared(C);

  exec::ImageCacheStats St = exec::CodeImage::cacheStats();
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.Entries, 2u);
  EXPECT_EQ(St.Capacity, 2u);

  // A is still resident; B rebuilds (a fresh image — the old shared_ptr
  // keeps the evicted one alive independently).
  EXPECT_EQ(exec::CodeImage::getShared(A).get(), SA.get());
  auto SB2 = exec::CodeImage::getShared(B);
  EXPECT_NE(SB2.get(), SB.get());
  EXPECT_EQ(SB2->digest(), SB->digest());

  exec::CodeImage::clearCache();
}

TEST(CodeImageCache, ShrinkingCapacityEvictsImmediately) {
  exec::CodeImage::clearCache();
  exec::CodeImage::setCacheCapacity(8);

  std::vector<ir::Module> Mods;
  for (int I = 0; I < 4; ++I) {
    Mods.push_back(makeMain(ret(c(100 + I))));
    Mods.back().finalize();
    exec::CodeImage::getShared(Mods.back());
  }
  EXPECT_EQ(exec::CodeImage::cacheStats().Entries, 4u);

  std::size_t Prev = exec::CodeImage::setCacheCapacity(1);
  EXPECT_EQ(Prev, 8u);
  exec::ImageCacheStats St = exec::CodeImage::cacheStats();
  EXPECT_EQ(St.Entries, 1u);
  EXPECT_EQ(St.Evictions, 3u);

  exec::CodeImage::clearCache();
}

TEST(ExecContext, StepGranularitiesAgreeOnRandomPrograms) {
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    testutil::ProgramGenerator Gen(Seed);
    ir::Module M = Gen.generate();
    sim::HydraConfig Cfg;
    interp::RunResult Machine = runModule(M, Cfg); // run() fast path

    // One instruction at a time.
    interp::Heap H1;
    interp::DirectMemoryPort Port1(H1, Cfg);
    interp::ExecContext C1(M, Cfg);
    C1.start(M.EntryFunction, {});
    std::uint64_t Clock1 = 0;
    while (!C1.finished())
      Clock1 += C1.step(Port1, nullptr, Clock1);

    // One block at a time: every block start is a stop.
    interp::Heap H2;
    interp::DirectMemoryPort Port2(H2, Cfg);
    interp::ExecContext C2(M, Cfg);
    const std::vector<std::uint8_t> Blocks = blockStarts(C2.image());
    C2.start(M.EntryFunction, {});
    std::uint64_t Clock2 = 0;
    while (!C2.finished()) {
      ASSERT_TRUE(C2.atBlockStart());
      Clock2 += C2.runToStop(Port2, nullptr, Clock2, Blocks.data());
    }

    // Whole run under a cycle budget: resuming after a budget return must
    // not change any totals.
    interp::Heap H3;
    interp::DirectMemoryPort Port3(H3, Cfg);
    interp::ExecContext C3(M, Cfg);
    C3.start(M.EntryFunction, {});
    std::uint64_t Clock3 = C3.run(Port3, nullptr, 0, Machine.Cycles / 2);
    if (!C3.finished()) {
      EXPECT_TRUE(C3.atBlockStart()) << "seed " << Seed;
      EXPECT_GT(Clock3, Machine.Cycles / 2) << "seed " << Seed;
      Clock3 += C3.run(Port3, nullptr, Clock3, ~0ull);
    }
    EXPECT_TRUE(C3.finished()) << "seed " << Seed;

    EXPECT_EQ(Clock1, Machine.Cycles) << "seed " << Seed;
    EXPECT_EQ(Clock2, Machine.Cycles) << "seed " << Seed;
    EXPECT_EQ(Clock3, Machine.Cycles) << "seed " << Seed;
    EXPECT_EQ(C1.instructionsExecuted(), Machine.Instructions)
        << "seed " << Seed;
    EXPECT_EQ(C2.instructionsExecuted(), Machine.Instructions)
        << "seed " << Seed;
    EXPECT_EQ(C3.instructionsExecuted(), Machine.Instructions)
        << "seed " << Seed;
    EXPECT_EQ(C1.returnValue(), Machine.ReturnValue) << "seed " << Seed;
    EXPECT_EQ(C2.returnValue(), Machine.ReturnValue) << "seed " << Seed;
    EXPECT_EQ(C3.returnValue(), Machine.ReturnValue) << "seed " << Seed;
  }
}

TEST(ExecContext, RunToStopAgreesWithStepForArbitraryMasks) {
  // Random masks of several densities over random programs, including the
  // empty mask (one run to completion) and the full mask (one instruction
  // per run).
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    testutil::ProgramGenerator Gen(Seed);
    ir::Module M = Gen.generate();
    const std::uint32_t N = exec::CodeImage(M).numInsts();
    std::uint64_t Rng = Seed * 0x9E3779B97F4A7C15ull;
    for (std::uint32_t Density : {0u, 3u, 20u, 60u, 100u}) {
      std::vector<std::uint8_t> Mask(N);
      for (std::uint8_t &B : Mask) {
        Rng ^= Rng << 13;
        Rng ^= Rng >> 7;
        Rng ^= Rng << 17;
        B = Rng % 100 < Density;
      }
      std::string Label = "seed " + std::to_string(Seed) + " density " +
                          std::to_string(Density);
      std::uint64_t Runs = expectRunToStopMatchesStep(M, Mask, false, Label);
      if (Density == 0) {
        EXPECT_EQ(Runs, 1u) << Label;
      }
      expectRunToStopMatchesStep(M, Mask, true, Label + " stop-after-load");
    }
  }
}

TEST(ExecContext, RunToStopStopsOnCalleeEntryAndReturn) {
  // Stops on the callee's entry (reached through a Call inside a run) and
  // on the caller's resume point (reached through a Ret inside a run).
  ir::Module M = makeCallProgram();
  exec::CodeImage Image(M);
  std::uint32_t Callee = M.EntryFunction == 0 ? 1 : 0;
  std::vector<std::uint8_t> Mask(Image.numInsts(), 0);
  Mask[Image.entry(Callee)] = 1;
  std::uint32_t ResumePoints = 0;
  for (exec::FlatPc Pc = 0; Pc < Image.numInsts(); ++Pc)
    if (Image.inst(Pc).Op == ir::Opcode::Call) {
      Mask[Pc + 1] = 1;
      ++ResumePoints;
    }
  ASSERT_GT(ResumePoints, 0u);

  sim::HydraConfig Cfg;
  interp::Heap H;
  interp::DirectMemoryPort Port(H, Cfg);
  interp::ExecContext Ctx(M, Cfg);
  Ctx.start(M.EntryFunction, {});
  std::uint64_t Clock = 0, AtEntry = 0, AtResume = 0;
  while (!Ctx.finished()) {
    Clock += Ctx.runToStop(Port, nullptr, Clock, Mask.data());
    if (Ctx.finished())
      break;
    if (Ctx.pc() == Image.entry(Callee)) {
      EXPECT_EQ(Ctx.callDepth(), 2u);
      ++AtEntry;
    } else {
      EXPECT_EQ(Ctx.callDepth(), 1u);
      EXPECT_EQ(Image.inst(Ctx.pc() - 1).Op, ir::Opcode::Call);
      ++AtResume;
    }
  }
  EXPECT_EQ(AtEntry, 8u); // one call per iteration
  EXPECT_EQ(AtResume, 8u);
  EXPECT_EQ(Ctx.returnValue(), runModule(M).ReturnValue);
  EXPECT_EQ(Clock, runModule(M).Cycles);
  expectRunToStopMatchesStep(M, Mask, false, "call program");
}

TEST(ExecContext, RewindTopReissuesInstruction) {
  ir::Module M = makeMain(seq({
      assign("x", c(4)),
      assign("y", add(v("x"), c(2))),
      ret(v("y")),
  }));
  sim::HydraConfig Cfg;
  interp::Heap H;
  interp::DirectMemoryPort Port(H, Cfg);
  interp::ExecContext Ctx(M, Cfg);
  Ctx.start(M.EntryFunction, {});

  Ctx.step(Port, nullptr, 0); // consti: pc now mid-block
  ASSERT_FALSE(Ctx.atBlockStart());
  exec::FlatPc Before = Ctx.pc();
  Ctx.step(Port, nullptr, 0); // the add
  Ctx.rewindTop();            // undo the PC advance, as the TLS sync path does
  EXPECT_EQ(Ctx.pc(), Before);
  Ctx.step(Port, nullptr, 0); // re-issue the add
  EXPECT_EQ(Ctx.pc(), Before + 1);

  std::uint64_t Clock = 0;
  while (!Ctx.finished())
    Clock += Ctx.step(Port, nullptr, Clock);
  // The re-issued instruction is idempotent: the program still returns 6.
  EXPECT_EQ(Ctx.returnValue(), 6u);
}

TEST(ExecContext, StartAtAcceptsOversizedRegisterFile) {
  ir::Module M = makeMain(seq({
      assign("x", c(11)),
      assign("y", mul(v("x"), c(3))),
      ret(v("y")),
  }));
  M.finalize();
  sim::HydraConfig Cfg;
  std::uint64_t Expected = runModule(M, Cfg).ReturnValue;

  interp::Heap H;
  interp::DirectMemoryPort Port(H, Cfg);
  interp::ExecContext Ctx(M, Cfg);
  // Spawn-style entry: the register file is deliberately larger than the
  // function needs (the TLS engine recycles buffers across clones whose
  // register counts differ).
  std::vector<std::uint64_t> Regs(M.Functions[M.EntryFunction].NumRegs + 16,
                                  0);
  Ctx.startAt(M.EntryFunction, 0, std::move(Regs));
  EXPECT_TRUE(Ctx.atBlockStart());
  const std::vector<std::uint8_t> Blocks = blockStarts(Ctx.image());
  std::uint64_t Clock = 0;
  while (!Ctx.finished())
    Clock += Ctx.runToStop(Port, nullptr, Clock, Blocks.data());
  EXPECT_EQ(Ctx.returnValue(), Expected);
}

TEST(ExecContext, RepositionTopAdoptsLoopExitState) {
  // Mirrors the TLS shutdown path: one context runs the loop to its exit
  // and a second context, parked at the loop header, adopts the exit block
  // and register file via repositionTop and must finish identically.
  ir::Module M = makeMain(seq({
      assign("x", c(1)),
      forLoop("i", c(0), lt(v("i"), c(37)), 1,
              assign("x", band(add(mul(v("x"), c(33)), v("i")), c(0xFFFF)))),
      ret(v("x")),
  }));
  analysis::ModuleAnalysis MA(M);
  ASSERT_FALSE(MA.candidates().empty());
  jit::TlsLoopPlan Plan = jit::buildTlsPlan(MA, MA.candidates()[0]);

  sim::HydraConfig Cfg;
  interp::Heap H1;
  interp::DirectMemoryPort P1(H1, Cfg);
  interp::ExecContext A(M, Cfg);
  const std::vector<std::uint8_t> Blocks = blockStarts(A.image());
  A.start(M.EntryFunction, {});
  std::uint64_t C1 = 0;
  bool SeenLoop = false;
  std::uint32_t ExitBlock = ~0u;
  std::vector<std::uint64_t> ExitRegs;
  while (!A.finished()) {
    if (A.callDepth() == 1 && A.atBlockStart()) {
      std::uint32_t B = A.currentBlock();
      if (B == Plan.Header || Plan.containsBlock(B))
        SeenLoop = true;
      else if (SeenLoop && ExitBlock == ~0u) {
        ExitBlock = B;
        ExitRegs = A.topRegs();
      }
    }
    C1 += A.runToStop(P1, nullptr, C1, Blocks.data());
  }
  ASSERT_NE(ExitBlock, ~0u) << "loop exit never reached";

  interp::Heap H2;
  interp::DirectMemoryPort P2(H2, Cfg);
  interp::ExecContext B(M, Cfg);
  B.start(M.EntryFunction, {});
  std::uint64_t C2 = 0;
  while (!(B.atBlockStart() && B.currentBlock() == Plan.Header))
    C2 += B.runToStop(P2, nullptr, C2, Blocks.data());
  B.repositionTop(ExitBlock, ExitRegs);
  EXPECT_TRUE(B.atBlockStart());
  EXPECT_EQ(B.currentBlock(), ExitBlock);
  while (!B.finished())
    C2 += B.runToStop(P2, nullptr, C2, Blocks.data());
  EXPECT_EQ(B.returnValue(), A.returnValue());
}

TEST(Trap, DivideByZeroThrowsInAllBuildModes) {
  ir::Module M = makeMain(seq({
      assign("z", c(0)),
      ret(sdiv(c(7), v("z"))),
  }));
  sim::HydraConfig Cfg;
  interp::Machine Machine(M, Cfg);
  try {
    Machine.run();
    FAIL() << "expected TrapError";
  } catch (const interp::TrapError &E) {
    EXPECT_EQ(E.kind(), interp::TrapKind::DivideByZero);
    EXPECT_GE(E.pc(), 0);
    EXPECT_NE(std::string(E.what()).find("division by zero"),
              std::string::npos);
  }
}

TEST(Trap, RemainderByZeroThrows) {
  ir::Module M = makeMain(seq({
      assign("z", c(0)),
      ret(srem(c(9), v("z"))),
  }));
  sim::HydraConfig Cfg;
  interp::Machine Machine(M, Cfg);
  EXPECT_THROW(Machine.run(), interp::TrapError);
}

TEST(Trap, NonZeroDivisorDoesNotTrap) {
  EXPECT_EQ(testutil::evalMain(seq({
                assign("z", c(3)),
                ret(sdiv(c(9), v("z"))),
            })),
            3u);
  EXPECT_EQ(testutil::evalMain(seq({
                assign("z", c(4)),
                ret(srem(c(9), v("z"))),
            })),
            1u);
}
