//===- tests/pipeline_test.cpp - End-to-end Jrpm pipeline tests ------------==//

#include "jrpm/Pipeline.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace jrpm;
using namespace jrpm::pipeline;

TEST(Pipeline, HuffmanEndToEnd) {
  const workloads::Workload *W = workloads::findWorkload("Huffman");
  ASSERT_NE(W, nullptr);
  Jrpm J(W->Build(), PipelineConfig{});
  PipelineResult R = J.runAll();

  // Step 2: profiling is a mild slowdown, not a 100x one.
  EXPECT_GT(R.profilingSlowdown(), 1.0);
  EXPECT_LT(R.profilingSlowdown(), 2.0);

  // Step 3: the decode loop family is found; several STLs selected.
  EXPECT_GE(R.Selection.SelectedLoops.size(), 3u);
  EXPECT_GT(R.Selection.PredictedSpeedup, 1.2);

  // Step 5: speculative execution is faster and bit-identical.
  EXPECT_EQ(R.TlsRun.ReturnValue, R.PlainRun.ReturnValue);
  EXPECT_GT(R.actualSpeedup(), 1.1);

  // The decode loop's threads match the paper's granularity (~108 cycles).
  bool FoundDecodeLike = false;
  for (const auto &Rep : R.Selection.Loops) {
    double T = Rep.Stats.avgThreadSize();
    if (Rep.Selected && Rep.Stats.Threads > 2000 && T > 60 && T < 200 &&
        Rep.Stats.CritArcsPrev > 1000)
      FoundDecodeLike = true;
  }
  EXPECT_TRUE(FoundDecodeLike);
}

TEST(Pipeline, ProfileIsDeterministic) {
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  Jrpm J1(W->Build(), PipelineConfig{});
  Jrpm J2(W->Build(), PipelineConfig{});
  auto P1 = J1.profileAndSelect();
  auto P2 = J2.profileAndSelect();
  EXPECT_EQ(P1.Run.Cycles, P2.Run.Cycles);
  ASSERT_EQ(P1.Selection.Loops.size(), P2.Selection.Loops.size());
  for (std::size_t I = 0; I < P1.Selection.Loops.size(); ++I) {
    EXPECT_EQ(P1.Selection.Loops[I].Stats.Threads,
              P2.Selection.Loops[I].Stats.Threads);
    EXPECT_EQ(P1.Selection.Loops[I].Selected,
              P2.Selection.Loops[I].Selected);
  }
}

TEST(Pipeline, BaseAnnotationsCostMoreThanOptimized) {
  const workloads::Workload *W = workloads::findWorkload("Huffman");
  PipelineConfig Base;
  Base.Level = jit::AnnotationLevel::Base;
  PipelineConfig Opt;
  Opt.Level = jit::AnnotationLevel::Optimized;
  Jrpm JB(W->Build(), Base);
  Jrpm JO(W->Build(), Opt);
  auto RB = JB.profileAndSelect();
  auto RO = JO.profileAndSelect();
  EXPECT_GT(RB.Run.Cycles, RO.Run.Cycles);
}

TEST(Pipeline, EightBanksCoverTypicalNests) {
  // Paper Section 6.1: "eight comparator banks are sufficient to analyze
  // most of the benchmark programs".
  const workloads::Workload *W = workloads::findWorkload("Assignment");
  Jrpm J(W->Build(), PipelineConfig{});
  auto P = J.profileAndSelect();
  EXPECT_LE(P.PeakBanksInUse, 8u);
  EXPECT_LE(P.PeakLocalSlots, 64u);
}

TEST(Pipeline, PcBinningIdentifiesDependencySites) {
  const workloads::Workload *W = workloads::findWorkload("Huffman");
  PipelineConfig Cfg;
  Cfg.ExtendedPcBinning = true;
  Jrpm J(W->Build(), Cfg);
  auto P = J.profileAndSelect();
  // At least one selected loop carries PC-binned critical arc data.
  bool FoundBins = false;
  for (const auto &Rep : P.Selection.Loops)
    if (Rep.Selected && !Rep.Stats.PcBins.empty())
      FoundBins = true;
  EXPECT_TRUE(FoundBins);
}

TEST(Pipeline, DisableAfterThreadsPinsLiveProfileCycles) {
  // Disabled loops stop charging for their annotations, which the live
  // profiled cycle count shows directly. Pinned figures for BitOps.
  const workloads::Workload *W = workloads::findWorkload("BitOps");
  ASSERT_NE(W, nullptr);
  PipelineConfig Default;
  PipelineConfig Disabling;
  Disabling.DisableLoopAfterThreads = 100;
  EXPECT_EQ(Jrpm(W->Build(), Default).profileAndSelect().Run.Cycles, 862031u);
  EXPECT_EQ(Jrpm(W->Build(), Disabling).profileAndSelect().Run.Cycles,
            861911u);
  // The default eoi costs its own cycle only, so the figures above cannot
  // show an eoi charge. At 3 cycles they do: the loops cross the threshold
  // mid-entry, with their bank still open, and every later eoi of that
  // entry is a nop (908,277 cycles if it kept charging).
  PipelineConfig CostlyEoi;
  CostlyEoi.Hw.EoiCost = 3;
  EXPECT_EQ(Jrpm(W->Build(), CostlyEoi).profileAndSelect().Run.Cycles,
            908397u);
  CostlyEoi.DisableLoopAfterThreads = 100;
  EXPECT_EQ(Jrpm(W->Build(), CostlyEoi).profileAndSelect().Run.Cycles,
            862911u);
}
