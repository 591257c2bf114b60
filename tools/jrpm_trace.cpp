//===- tools/jrpm_trace.cpp - Record/inspect/replay .jtrace files ----------==//
//
// Usage:
//   jrpm-trace record <workload> [-o <path>] [capture options]
//       Run the annotated profiling interpretation once, streaming the
//       event stream to disk, and print the capture summary.
//   jrpm-trace info <path>
//       Print the trace header and footer (O(1) — no event decoding).
//   jrpm-trace dump <path> [--events <n>]
//       Pretty-print the first n events (default 40).
//   jrpm-trace replay <path> [analysis options]
//       Re-drive the TEST analysis from the trace (no interpretation) and
//       print the resulting STL selection. Defaults to the capture-time
//       configuration; any option overrides it, so one recorded trace
//       feeds arbitrarily many analysis configurations.
//   jrpm-trace diff <a> <b>
//       Event-by-event comparison for golden-trace regression. Exit 1 and
//       print the first divergence when the traces differ.
//
// Capture options: --base --sync --line-grain --banks <n> --history <n>
//                  --disable-after <n>
// Analysis options: --sync --line-grain --banks <n> --history <n>
//                   --disable-after <n>
//
// Numeric values are plain decimal numbers; a malformed value or a tracer
// geometry sim::checkTracerGeometry rejects prints usage and exits 2.
//
//===----------------------------------------------------------------------===//

#include "jrpm/Pipeline.h"
#include "support/Format.h"
#include "support/Table.h"
#include "trace/Dump.h"
#include "trace/Replay.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

using namespace jrpm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jrpm-trace record <workload> [-o <path>] [options]\n"
      "       jrpm-trace info <path>\n"
      "       jrpm-trace dump <path> [--events <n>]\n"
      "       jrpm-trace replay <path> [options]\n"
      "       jrpm-trace diff <a> <b>\n"
      "options: --base --sync --line-grain --banks <n> --history <n> "
      "--disable-after <n>\n");
  return 2;
}

struct OptionOverrides {
  bool Ok = true;
  bool Base = false;
  bool Sync = false;
  bool LineGrain = false;
  std::optional<std::uint32_t> Banks;
  std::optional<std::uint32_t> History;
  std::optional<std::uint64_t> DisableAfter;
  std::string OutPath;
  std::uint64_t Events = 40;
};

OptionOverrides parseOptions(int Argc, char **Argv, int First) {
  OptionOverrides O;
  for (int I = First; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        O.Ok = false;
        return "0";
      }
      return Argv[++I];
    };
    auto NextNum = [&](std::uint64_t Max) -> std::uint64_t {
      std::uint64_t V = 0;
      const char *Text = Next();
      if (!parseUnsigned(Text, Max, V)) {
        std::fprintf(stderr, "bad value for %s: %s\n", A.c_str(), Text);
        O.Ok = false;
      }
      return V;
    };
    if (A == "--base")
      O.Base = true;
    else if (A == "--sync")
      O.Sync = true;
    else if (A == "--line-grain")
      O.LineGrain = true;
    else if (A == "--banks")
      O.Banks = static_cast<std::uint32_t>(NextNum(UINT32_MAX));
    else if (A == "--history")
      O.History = static_cast<std::uint32_t>(NextNum(UINT32_MAX));
    else if (A == "--disable-after")
      O.DisableAfter = NextNum(UINT64_MAX);
    else if (A == "-o")
      O.OutPath = Next();
    else if (A == "--events")
      O.Events = NextNum(UINT64_MAX);
    else {
      std::fprintf(stderr, "unknown option: %s\n", A.c_str());
      O.Ok = false;
    }
  }
  return O;
}

/// Applies the command-line overrides to \p Hw. Returns false, after
/// reporting, when the result is a tracer geometry the engine cannot build.
bool applyTracerOverrides(const OptionOverrides &O, sim::HydraConfig &Hw) {
  if (O.Sync)
    Hw.SyncCarriedLocals = true;
  if (O.LineGrain)
    Hw.ViolationGrain = sim::ViolationGranularity::Line;
  if (O.Banks)
    Hw.ComparatorBanks = *O.Banks;
  if (O.History)
    Hw.HeapTimestampFifoLines = *O.History;
  std::string Why = sim::checkTracerGeometry(Hw);
  if (Why.empty())
    return true;
  std::fprintf(stderr, "bad tracer geometry: %s\n", Why.c_str());
  return false;
}

void printSelection(const tracer::SelectionResult &Selection) {
  TextTable T;
  T.setHeader({"loop", "state", "cov%", "threads", "thr size", "arcs(t-1)",
               "arc len", "ovf%", "Eq.1"});
  for (const auto &Rep : Selection.Loops) {
    std::string State = Rep.Stats.Threads == 0
                            ? "untraced"
                            : (Rep.Selected ? "SELECTED" : "candidate");
    T.addRow({formatString("#%u", Rep.LoopId), State,
              formatString("%.1f", Rep.Coverage * 100),
              formatString("%llu",
                           static_cast<unsigned long long>(
                               Rep.Stats.Threads)),
              formatString("%.0f", Rep.Stats.avgThreadSize()),
              formatString("%llu", static_cast<unsigned long long>(
                                       Rep.Stats.CritArcsPrev)),
              formatString("%.0f", Rep.Stats.avgArcPrev()),
              formatString("%.1f", Rep.Stats.overflowFreq() * 100),
              formatString("%.2f", Rep.Estimate.Speedup)});
  }
  T.print();
  std::printf("selected %zu of %zu loops, predicted speedup %.2fx\n",
              Selection.SelectedLoops.size(), Selection.Loops.size(),
              Selection.PredictedSpeedup);
}

int cmdRecord(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  const workloads::Workload *W = workloads::findWorkload(Argv[2]);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (try: jrpm-run list)\n",
                 Argv[2]);
    return 2;
  }
  OptionOverrides O = parseOptions(Argc, Argv, 3);
  if (!O.Ok)
    return usage();

  pipeline::PipelineConfig Cfg;
  Cfg.ExtendedPcBinning = true;
  Cfg.WorkloadName = W->Name;
  Cfg.RecordTracePath =
      O.OutPath.empty() ? W->Name + ".jtrace" : O.OutPath;
  if (O.Base)
    Cfg.Level = jit::AnnotationLevel::Base;
  if (O.DisableAfter)
    Cfg.DisableLoopAfterThreads = *O.DisableAfter;
  if (!applyTracerOverrides(O, Cfg.Hw))
    return usage();

  pipeline::Jrpm J(W->Build(), Cfg);
  auto P = J.profileAndSelect();

  trace::Reader R(Cfg.RecordTracePath);
  const trace::TraceFooter &F = R.footer();
  std::printf("recorded %s -> %s\n", W->Name.c_str(),
              Cfg.RecordTracePath.c_str());
  std::printf("  events       : %s\n",
              withCommas(static_cast<std::int64_t>(F.TotalEvents)).c_str());
  std::printf("  cycles       : %s\n",
              withCommas(static_cast<std::int64_t>(F.Run.Cycles)).c_str());
  std::printf("  selected     : %zu of %zu loops, predicted %.2fx\n",
              P.Selection.SelectedLoops.size(), P.Selection.Loops.size(),
              P.Selection.PredictedSpeedup);
  return 0;
}

int cmdInfo(const std::string &Path) {
  trace::Reader R(Path);
  const trace::TraceHeader &H = R.header();
  const trace::TraceFooter &F = R.footer();
  std::printf("trace        : %s\n", Path.c_str());
  std::printf("workload     : %s\n",
              H.WorkloadName.empty() ? "(unnamed)" : H.WorkloadName.c_str());
  std::printf("annotations  : %s\n",
              H.AnnotationLevel == 0 ? "base" : "optimized");
  std::printf("pc binning   : %s\n", H.ExtendedPcBinning ? "extended" : "off");
  std::printf("loops        : %zu\n", H.LoopLocals.size());
  std::printf("hw           : %u banks, %u history lines, %s grain%s\n",
              H.Hw.ComparatorBanks, H.Hw.HeapTimestampFifoLines,
              H.Hw.ViolationGrain == sim::ViolationGranularity::Word
                  ? "word"
                  : "line",
              H.Hw.SyncCarriedLocals ? ", synced locals" : "");
  std::printf("events       : %s\n",
              withCommas(static_cast<std::int64_t>(F.TotalEvents)).c_str());
  for (std::uint32_t K = 0; K < trace::NumEventKinds; ++K)
    if (F.EventCounts[K])
      std::printf("  %-5s      : %s\n",
                  trace::eventKindName(static_cast<trace::EventKind>(K)),
                  withCommas(static_cast<std::int64_t>(F.EventCounts[K]))
                      .c_str());
  std::printf("last cycle   : %s\n",
              withCommas(static_cast<std::int64_t>(F.LastCycle)).c_str());
  std::printf("run cycles   : %s (checksum %llu)\n",
              withCommas(static_cast<std::int64_t>(F.Run.Cycles)).c_str(),
              static_cast<unsigned long long>(F.Run.ReturnValue));
  return 0;
}

int cmdDump(int Argc, char **Argv) {
  OptionOverrides O = parseOptions(Argc, Argv, 3);
  if (!O.Ok)
    return usage();
  trace::Reader R(Argv[2]);
  trace::dumpTrace(R, stdout, O.Events);
  return 0;
}

int cmdReplay(int Argc, char **Argv) {
  OptionOverrides O = parseOptions(Argc, Argv, 3);
  if (!O.Ok)
    return usage();
  trace::Reader R(Argv[2]);
  trace::ReplayConfig Cfg = trace::recordedConfig(R);
  if (!applyTracerOverrides(O, Cfg.Hw))
    return usage();
  if (O.DisableAfter)
    Cfg.DisableLoopAfterThreads = *O.DisableAfter;

  trace::ReplayOutcome Out = trace::selectFromTrace(R, Cfg);
  std::printf("replayed %s events of %s (%s)\n",
              withCommas(static_cast<std::int64_t>(Out.EventsReplayed))
                  .c_str(),
              R.path().c_str(),
              R.header().WorkloadName.empty()
                  ? "unnamed workload"
                  : R.header().WorkloadName.c_str());
  std::printf("peak banks %u, peak local slots %u, peak nest %u\n\n",
              Out.PeakBanksInUse, Out.PeakLocalSlots, Out.PeakDynamicNest);
  printSelection(Out.Selection);
  return 0;
}

int cmdDiff(const std::string &A, const std::string &B) {
  trace::Reader RA(A);
  trace::Reader RB(B);
  trace::DiffResult D = trace::diffTraces(RA, RB);
  if (D.Identical) {
    std::printf("traces identical: %s events\n",
                withCommas(static_cast<std::int64_t>(D.FirstDivergence))
                    .c_str());
    return 0;
  }
  std::printf("traces differ: %s\n", D.Detail.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  try {
    if (Cmd == "record")
      return cmdRecord(Argc, Argv);
    if (Cmd == "info" && Argc == 3)
      return cmdInfo(Argv[2]);
    if (Cmd == "dump" && Argc >= 3)
      return cmdDump(Argc, Argv);
    if (Cmd == "replay" && Argc >= 3)
      return cmdReplay(Argc, Argv);
    if (Cmd == "diff" && Argc == 4)
      return cmdDiff(Argv[2], Argv[3]);
  } catch (const trace::Error &E) {
    std::fprintf(stderr, "jrpm-trace: %s\n", E.what());
    return 1;
  }
  return usage();
}
