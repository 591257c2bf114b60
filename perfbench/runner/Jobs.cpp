//===- perfbench/runner/Jobs.cpp ------------------------------------------==//

#include "Jobs.h"

#include "corpus/Oracles.h"
#include "corpus/Template.h"
#include "corpus/Variant.h"
#include "exec/CodeImage.h"
#include "ir/AnnotationVerifier.h"
#include "jit/TlsPlan.h"
#include "jrpm/Pipeline.h"
#include "metrics/Metrics.h"
#include "support/Format.h"
#include "support/Prng.h"
#include "trace/Replay.h"
#include "trace/Writer.h"
#include "workloads/Workload.h"

#include <ctime>
#include <filesystem>
#include <iterator>
#include <optional>
#include <utility>

using namespace jrpm;

namespace perfbench {

const std::vector<SimCycles> Workload::NoSim;

CpuClock::time_point CpuClock::now() noexcept {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return time_point(duration(static_cast<rep>(T.tv_sec) * 1000000000 +
                             T.tv_nsec));
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

std::uint32_t SpanLog::open(const char *Name, const char *Layer) {
  Span S;
  S.Job = CurJob;
  S.Parent = Stack.empty() ? -1 : static_cast<std::int64_t>(Stack.back());
  S.Name = Name;
  S.Layer = Layer;
  S.Start = Clock::now();
  S.End = S.Start;
  Spans.push_back(std::move(S));
  std::uint32_t Id = static_cast<std::uint32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void SpanLog::close(std::uint32_t Id) {
  Spans[Id].End = Clock::now();
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

void SpanLog::cover(std::uint32_t Id, std::uint32_t Covered) {
  Spans[Id].Covers.push_back(Covered);
}

Json SpanLog::toJson() const {
  Json Out = Json::array();
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Json J = Json::object();
    J["id"] = static_cast<std::uint64_t>(I);
    J["job"] = S.Job;
    J["parent"] = S.Parent;
    J["name"] = S.Name;
    J["layer"] = S.Layer;
    J["start_ms"] = msBetween(Origin, S.Start);
    J["end_ms"] = msBetween(Origin, S.End);
    Json C = Json::array();
    for (std::uint32_t Id : S.Covers)
      C.push(static_cast<std::uint64_t>(Id));
    J["covers"] = std::move(C);
    Out.push(std::move(J));
  }
  return Out;
}

namespace {

std::string hex(std::uint64_t V) {
  return formatString("%016llx", static_cast<unsigned long long>(V));
}

/// Seed-and-pass specific shuffle of [0, N).
std::vector<std::size_t> shuffled(std::size_t N, Prng &Rng) {
  std::vector<std::size_t> Order(N);
  for (std::size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (std::size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  return Order;
}

Prng passRng(std::uint64_t Seed, unsigned Pass) {
  return Prng((Seed + 1) * 0x9E3779B97F4A7C15ull ^
              (static_cast<std::uint64_t>(Pass) + 1) * 0xD1B54A32D192ED03ull);
}

const char *levelName(jit::AnnotationLevel L) {
  return L == jit::AnnotationLevel::Base ? "base" : "optimized";
}

/// Events the tracer consumed, from its public metrics export.
std::uint64_t tracerEvents(const tracer::TraceEngine &E) {
  metrics::Registry R;
  E.exportMetrics(R);
  std::uint64_t N = 0;
  for (const auto &[Name, C] : R.counters())
    if (Name.rfind("tracer.events.", 0) == 0)
      N += C.value();
  return N;
}

double counter(const metrics::Registry &R, const char *Name) {
  auto It = R.counters().find(Name);
  return It == R.counters().end() ? 0.0
                                  : static_cast<double>(It->second.value());
}

/// Checks one pipeline run and records what the reference pins.
void checkPipeline(const pipeline::PipelineResult &R,
                   const sim::HydraConfig &Hw, JobOutcome &Out) {
  auto Fail = [&Out](std::string Msg) {
    Out.Failures.push_back(Out.Key + ": " + std::move(Msg));
  };
  if (R.TlsRun.ReturnValue != R.PlainRun.ReturnValue)
    Fail(formatString("TLS returned %llu, plain run %llu",
                      (unsigned long long)R.TlsRun.ReturnValue,
                      (unsigned long long)R.PlainRun.ReturnValue));
  if (R.ProfiledRun.ReturnValue != R.PlainRun.ReturnValue)
    Fail(formatString("annotated run returned %llu, plain run %llu",
                      (unsigned long long)R.ProfiledRun.ReturnValue,
                      (unsigned long long)R.PlainRun.ReturnValue));
  // The two Table-2 identities, per loop.
  for (const auto &[Loop, S] : R.TlsLoopStats) {
    std::uint64_t Resolved = S.CommittedThreads + S.ThreadsExited +
                             S.Restarts + S.ThreadsDiscarded;
    if (S.ThreadsStarted != Resolved)
      Fail(formatString("loop %u: %llu threads started, %llu resolved", Loop,
                        (unsigned long long)S.ThreadsStarted,
                        (unsigned long long)Resolved));
    std::uint64_t Buckets = S.UsefulCycles + S.ForkCommitCycles +
                            S.ViolationDiscardCycles + S.BufferStallCycles +
                            S.SyncStallCycles + S.IdleCycles;
    if (Buckets != std::uint64_t(Hw.NumCores) * S.SpecCycles)
      Fail(formatString("loop %u: cycle buckets sum to %llu, not %u x %llu",
                        Loop, (unsigned long long)Buckets, Hw.NumCores,
                        (unsigned long long)S.SpecCycles));
  }
  Out.HasSim = true;
  Out.Sim = {R.PlainRun.Cycles, R.ProfiledRun.Cycles, R.TlsRun.Cycles,
             R.Selection.PredictedCycles};
  Json P = Json::object();
  P["plain_cycles"] = R.PlainRun.Cycles;
  P["profiled_cycles"] = R.ProfiledRun.Cycles;
  P["tls_cycles"] = R.TlsRun.Cycles;
  P["return_value"] = R.PlainRun.ReturnValue;
  P["selection_digest"] = hex(tracer::selectionDigest(R.Selection));
  Out.Pinned = std::move(P);
}

/// One full pipeline run, as a user calls it.
void runPipeline(ir::Module M, jit::AnnotationLevel Level, JobOutcome &Out) {
  pipeline::PipelineConfig Cfg;
  Cfg.Level = Level;
  pipeline::Jrpm J(std::move(M), Cfg);
  pipeline::PipelineResult R = J.runAll();
  checkPipeline(R, Cfg.Hw, Out);
  Out.Ops += static_cast<double>(R.PlainRun.Instructions +
                                 R.ProfiledRun.Instructions +
                                 R.TlsRun.Instructions +
                                 tracerEvents(*J.lastTracer()));
}

/// The same pipeline with a span around every call into a layer. The
/// compound calls (profileAndSelect, runSpeculative) are split by calling
/// the public functions they use on the same inputs: annotateModule, the
/// annotated program run with no tracer attached, selectStls and
/// buildTlsPlan. The compound span covers those, so its self time is the
/// tracer drain and the Hydra simulation respectively. The real
/// runSpeculative also covers the empty-selection run, which only the traced
/// run does, so the Hydra layer's self time is that of the real call alone.
void runPipelineTraced(SpanLog &Log, ir::Module M, jit::AnnotationLevel Level,
                       JobOutcome &Out) {
  metrics::Registry Reg;
  pipeline::PipelineConfig Cfg;
  Cfg.Level = Level;
  Cfg.Metrics = &Reg;
  auto Fail = [&Out](std::string Msg) {
    Out.Failures.push_back(Out.Key + ": " + std::move(Msg));
  };
  Out.Counts["frontend.ir_insts"] += M.totalInstructions();

  std::optional<pipeline::Jrpm> J;
  {
    ScopedSpan S(&Log, "analysis.jrpm_ctor", "analysis");
    J.emplace(std::move(M), Cfg);
  }
  {
    ScopedSpan S(&Log, "exec.image", "exec");
    exec::CodeImage::getShared(J->program());
  }
  pipeline::PipelineResult R;
  {
    ScopedSpan S(&Log, "interp.run_plain", "interp");
    R.PlainRun = J->runPlain();
  }
  std::optional<jit::AnnotatedModule> AM;
  std::uint32_t Annotate = 0, NoSink = 0, Select = 0, Profile = 0, Plan = 0,
                Seq = 0;
  {
    ScopedSpan S(&Log, "jit.annotate", "jit");
    Annotate = S.id();
    AM.emplace(jit::annotateModule(J->program(), J->moduleAnalysis(), Level));
    std::vector<ir::LoopAnnotationInfo> Infos;
    for (const tracer::LoopTraceInfo &Info : AM->LoopInfos)
      Infos.push_back({Info.AnnotatedLocals});
    for (const std::string &E : ir::verifyAnnotations(AM->Module, Infos))
      Fail("annotation verifier: " + E);
  }
  interp::RunResult Bare;
  {
    ScopedSpan S(&Log, "interp.run_annotated_nosink", "interp");
    NoSink = S.id();
    interp::Machine Mach(AM->Module, Cfg.Hw);
    Bare = Mach.run();
  }
  pipeline::Jrpm::ProfileOutcome P;
  {
    ScopedSpan S(&Log, "tracer.profile_and_select", "tracer");
    Profile = S.id();
    P = J->profileAndSelect();
  }
  {
    ScopedSpan S(&Log, "tracer.select_stls", "tracer");
    Select = S.id();
    tracer::SelectionResult Again =
        tracer::selectStls(*J->lastTracer(), P.Run.Cycles, Cfg.Hw);
    if (!(Again == P.Selection))
      Fail("selectStls on the profiled tracer differs from profileAndSelect");
  }
  if (Bare.ReturnValue != R.PlainRun.ReturnValue)
    Fail("annotated run without a tracer returned a different value");
  std::size_t Plans = 0;
  {
    ScopedSpan S(&Log, "jit.plan", "jit");
    Plan = S.id();
    for (std::uint32_t LoopId : P.Selection.SelectedLoops) {
      const analysis::CandidateStl &C = J->moduleAnalysis().candidate(LoopId);
      if (C.Rejected)
        continue;
      jit::TlsLoopPlan TP = jit::buildTlsPlan(J->moduleAnalysis(), C);
      for (const std::string &E : jit::verifyTlsPlan(J->program(), TP))
        Fail("tls plan verifier: " + E);
      ++Plans;
    }
  }
  {
    ScopedSpan S(&Log, "hydra.run_speculative_empty", "hydra");
    Seq = S.id();
    pipeline::Jrpm::TlsOutcome Empty =
        J->runSpeculative(tracer::SelectionResult{});
    if (Empty.Run.ReturnValue != R.PlainRun.ReturnValue)
      Fail("speculative run with no loops selected changed the result");
  }
  std::uint32_t Spec = 0;
  {
    ScopedSpan S(&Log, "hydra.run_speculative", "hydra");
    Spec = S.id();
    pipeline::Jrpm::TlsOutcome T = J->runSpeculative(P.Selection);
    R.TlsRun = T.Run;
    R.TlsLoopStats = std::move(T.LoopStats);
  }
  Log.cover(Profile, Annotate);
  Log.cover(Profile, NoSink);
  Log.cover(Profile, Select);
  Log.cover(Spec, Plan);
  Log.cover(Spec, Seq);

  R.ProfiledRun = P.Run;
  R.Selection = std::move(P.Selection);
  checkPipeline(R, Cfg.Hw, Out);
  const std::uint64_t Events = tracerEvents(*J->lastTracer());
  Out.Ops += static_cast<double>(R.PlainRun.Instructions +
                                 R.ProfiledRun.Instructions +
                                 R.TlsRun.Instructions + Events);

  std::uint64_t SpecCycles = 0;
  for (const auto &[Loop, S] : R.TlsLoopStats)
    SpecCycles += S.SpecCycles;
  std::uint32_t Rejected = 0;
  for (const analysis::CandidateStl &C : J->moduleAnalysis().candidates())
    Rejected += C.Rejected;
  std::map<std::string, double> &K = Out.Counts;
  K["hydra.spec_cycles"] += static_cast<double>(SpecCycles);
  K["hydra.threads_started"] += counter(Reg, "spec.threads_started");
  K["hydra.threads_violated"] += counter(Reg, "spec.threads_violated");
  K["hydra.useful_cycles"] += counter(Reg, "spec.cycles.useful");
  K["hydra.core_cycles"] += counter(Reg, "spec.cycles.total");
  K["tracer.events"] += static_cast<double>(Events);
  K["tracer.overflow_threads"] += counter(Reg, "tracer.overflow_threads");
  K["interp.plain_insts"] += static_cast<double>(R.PlainRun.Instructions);
  K["interp.profiled_insts"] += static_cast<double>(Bare.Instructions);
  K["analysis.candidates"] +=
      static_cast<double>(J->moduleAnalysis().candidates().size());
  K["analysis.static_rejects"] += Rejected;
  K["jit.plans"] += static_cast<double>(Plans);
}

//===----------------------------------------------------------------------===//
// registry
//===----------------------------------------------------------------------===//

struct PipelineJob {
  std::size_t Workload = 0; ///< index into workloads::allWorkloads()
  jit::AnnotationLevel Level = jit::AnnotationLevel::Optimized;
  std::string Key;
};

std::vector<PipelineJob> registryJobs() {
  std::vector<PipelineJob> Jobs;
  const auto &All = workloads::allWorkloads();
  for (std::size_t W = 0; W < All.size(); ++W)
    for (jit::AnnotationLevel L :
         {jit::AnnotationLevel::Base, jit::AnnotationLevel::Optimized})
      Jobs.push_back({W, L, All[W].Name + "/" + levelName(L)});
  return Jobs;
}

class RegistryWorkload : public Workload {
public:
  void setup(const std::string &, bool, Json &Info) override {
    exec::CodeImage::clearCache();
    Built.clear();
    for (const workloads::Workload &W : workloads::allWorkloads())
      Built.push_back(W.Build());
    // Warm-up: one pass, so every code image is built before timing.
    std::size_t Warm = 0;
    for (const JobSpec &J : pool())
      Warm += run(J, nullptr).Failures.size();
    Info["warmup_failures"] = static_cast<std::uint64_t>(Warm);
  }

  std::vector<JobSpec> pass(std::uint64_t Seed, unsigned Pass) const override {
    Prng Rng = passRng(Seed, Pass);
    std::vector<JobSpec> Out;
    for (std::size_t I : shuffled(Jobs.size(), Rng))
      Out.push_back({I, 0});
    return Out;
  }

  std::vector<JobSpec> pool() const override {
    std::vector<JobSpec> Out;
    for (std::size_t I = 0; I < Jobs.size(); ++I)
      Out.push_back({I, 0});
    return Out;
  }

  unsigned minPasses() const override { return 2; }

  JobOutcome run(const JobSpec &Spec, SpanLog *Log) override {
    const PipelineJob &J = Jobs[Spec.Index];
    JobOutcome Out;
    Out.Key = J.Key;
    if (!Log) {
      runPipeline(Built[J.Workload], J.Level, Out);
      return Out;
    }
    ir::Module M;
    {
      ScopedSpan S(Log, "frontend.build", "frontend");
      M = workloads::allWorkloads()[J.Workload].Build();
    }
    runPipelineTraced(*Log, std::move(M), J.Level, Out);
    return Out;
  }

private:
  std::vector<PipelineJob> Jobs = registryJobs();
  std::vector<ir::Module> Built;
};

//===----------------------------------------------------------------------===//
// replay_sweep
//===----------------------------------------------------------------------===//

/// One point of the tracer-side knob grid: a change to the default
/// configuration, which every capture was recorded under.
struct GridPoint {
  const char *Name;
  void (*Apply)(trace::ReplayConfig &);
};

constexpr GridPoint ReplayGrid[] = {
    {"capture", [](trace::ReplayConfig &) {}},
    {"banks2", [](trace::ReplayConfig &C) { C.Hw.ComparatorBanks = 2; }},
    {"banks16", [](trace::ReplayConfig &C) { C.Hw.ComparatorBanks = 16; }},
    {"history48",
     [](trace::ReplayConfig &C) { C.Hw.HeapTimestampFifoLines = 48; }},
    {"history768",
     [](trace::ReplayConfig &C) { C.Hw.HeapTimestampFifoLines = 768; }},
    {"assoc4", [](trace::ReplayConfig &C) { C.Hw.OverflowTableAssoc = 4; }},
    {"slots16", [](trace::ReplayConfig &C) { C.Hw.LocalVarSlots = 16; }},
    {"pc-binning", [](trace::ReplayConfig &C) { C.ExtendedPcBinning = true; }},
    {"disable-after",
     [](trace::ReplayConfig &C) { C.DisableLoopAfterThreads = 3000; }},
};
constexpr std::size_t NumPoints = std::size(ReplayGrid);

class ReplayWorkload : public Workload {
public:
  void setup(const std::string &WorkDir, bool Traced, Json &Info) override {
    exec::CodeImage::clearCache();
    std::filesystem::path Dir = std::filesystem::path(WorkDir) / "captures";
    std::filesystem::create_directories(Dir);
    Captures.clear();
    Sim.clear();
    std::vector<ir::Module> Built;
    for (const workloads::Workload &W : workloads::allWorkloads())
      Built.push_back(W.Build());
    // Capture every registry job once, through the full pipeline: the live
    // selection digest is the replay's reference at the capture point, and
    // the TLS step of these runs gives this workload's simulated metrics.
    Json Failures = Json::array();
    for (const PipelineJob &J : registryJobs()) {
      Capture C;
      C.Key = J.Key;
      C.Path = (Dir / (workloads::allWorkloads()[J.Workload].Name + "-" +
                       levelName(J.Level) + ".jtrace"))
                   .string();
      pipeline::PipelineConfig Cfg;
      Cfg.Level = J.Level;
      Cfg.RecordTracePath = C.Path;
      Cfg.WorkloadName = workloads::allWorkloads()[J.Workload].Name;
      pipeline::Jrpm P(Built[J.Workload], Cfg);
      pipeline::PipelineResult R = P.runAll();
      JobOutcome Check;
      Check.Key = J.Key;
      checkPipeline(R, Cfg.Hw, Check);
      for (const std::string &F : Check.Failures)
        Failures.push(F);
      C.LiveDigest = tracer::selectionDigest(R.Selection);
      Sim.push_back(Check.Sim);
      Captures.push_back(std::move(C));
    }
    Info["failures"] = std::move(Failures);
    if (Traced)
      measureWrites(Info);
  }

  std::vector<JobSpec> pass(std::uint64_t Seed, unsigned Pass) const override {
    Prng Rng = passRng(Seed, Pass);
    std::vector<JobSpec> Out;
    for (std::size_t I : shuffled(jobCount(), Rng))
      Out.push_back({I, 0});
    return Out;
  }

  std::vector<JobSpec> pool() const override {
    std::vector<JobSpec> Out;
    for (std::size_t I = 0; I < jobCount(); ++I)
      Out.push_back({I, 0});
    return Out;
  }

  unsigned minPasses() const override { return 1; }

  const std::vector<SimCycles> &setupSim() const override { return Sim; }

  JobOutcome run(const JobSpec &Spec, SpanLog *Log) override {
    const Capture &C = Captures[Spec.Index / NumPoints];
    const GridPoint &P = ReplayGrid[Spec.Index % NumPoints];
    trace::ReplayConfig RC;
    P.Apply(RC);
    JobOutcome Out;
    Out.Key = C.Key + "/" + P.Name;
    std::uint64_t Digest = 0;
    if (!Log) {
      trace::Reader R(C.Path);
      trace::ReplayOutcome O = trace::selectFromTrace(R, RC);
      Digest = tracer::selectionDigest(O.Selection);
      Out.Ops = static_cast<double>(O.EventsReplayed);
    } else {
      // trace::selectFromTrace split into its public steps: decode the
      // capture, drain it into a fresh engine, select.
      std::optional<trace::CachedTrace> T;
      {
        ScopedSpan S(Log, "trace.decode", "trace");
        trace::Reader R(C.Path);
        T.emplace(R);
      }
      std::vector<tracer::LoopTraceInfo> Loops;
      for (const std::vector<std::uint16_t> &L : T->header().LoopLocals)
        Loops.push_back({L});
      tracer::TraceEngine Engine(RC.Hw, Loops, RC.ExtendedPcBinning);
      if (RC.DisableLoopAfterThreads)
        Engine.setDisableLoopAfterThreads(RC.DisableLoopAfterThreads);
      std::uint64_t Events = 0;
      {
        ScopedSpan S(Log, "tracer.replay_drain", "tracer");
        Events = T->replay(Engine);
      }
      {
        ScopedSpan S(Log, "tracer.select_stls", "tracer");
        Digest = tracer::selectionDigest(
            tracer::selectStls(Engine, T->footer().Run.Cycles, RC.Hw));
      }
      metrics::Registry Reg;
      Engine.exportMetrics(Reg);
      Out.Ops = static_cast<double>(Events);
      Out.Counts["tracer.events"] += static_cast<double>(Events);
      Out.Counts["tracer.overflow_threads"] +=
          counter(Reg, "tracer.overflow_threads");
    }
    if (Spec.Index % NumPoints == 0 && Digest != C.LiveDigest)
      Out.Failures.push_back(Out.Key + ": replayed selection digest " +
                             hex(Digest) + " != live " + hex(C.LiveDigest));
    Out.Pinned = hex(Digest);
    return Out;
  }

private:
  struct Capture {
    std::string Key;
    std::string Path;
    std::uint64_t LiveDigest = 0;
  };

  std::size_t jobCount() const {
    return Captures.size() * NumPoints;
  }

  /// trace.write_ms: re-encodes every decoded capture with trace::Writer,
  /// so the write layer is timed on its own.
  void measureWrites(Json &Info) const {
    double Ms = 0, Bytes = 0, Events = 0;
    for (const Capture &C : Captures) {
      trace::CachedTrace T(C.Path);
      std::string Copy = C.Path + ".rewrite";
      Clock::time_point T0 = Clock::now();
      {
        trace::Writer W(Copy, T.header());
        for (const trace::Event &E : T.events())
          W.append(E);
        W.finish(T.footer().Run);
        Bytes += static_cast<double>(W.bytesWritten());
        Events += static_cast<double>(W.eventsWritten());
      }
      Ms += msBetween(T0, Clock::now());
      std::filesystem::remove(Copy);
    }
    Info["trace.write_ms"] = Ms / static_cast<double>(Captures.size());
    Info["trace.bytes_per_event"] = Events ? Bytes / Events : 0.0;
  }

  std::vector<Capture> Captures;
  std::vector<SimCycles> Sim;
};

//===----------------------------------------------------------------------===//
// corpus
//===----------------------------------------------------------------------===//

/// Variant seeds the corpus draws from; the reference pins all of them.
constexpr std::uint64_t CorpusPoolSeeds = 8;

class CorpusWorkload : public Workload {
public:
  void setup(const std::string &, bool, Json &Info) override {
    exec::CodeImage::clearCache();
    Templates = corpus::extractRegistryTemplates();
    Info["templates"] = static_cast<std::uint64_t>(Templates.size());
    // Warm-up: the first variant of every template, one pass.
    std::size_t Warm = 0;
    for (std::size_t T = 0; T < Templates.size(); ++T)
      Warm += run({T, 1}, nullptr).Failures.size();
    Info["warmup_failures"] = static_cast<std::uint64_t>(Warm);
  }

  /// Every template once, in a seed- and pass-specific order. The seed
  /// picks each template's first variant seed; pass P runs the one P
  /// further on, so any CorpusPoolSeeds consecutive passes run the whole
  /// pool once and every run does the same mix of work.
  std::vector<JobSpec> pass(std::uint64_t Seed, unsigned Pass) const override {
    Prng First = passRng(Seed, ~0u);
    std::vector<std::uint64_t> Start;
    for (std::size_t T = 0; T < Templates.size(); ++T)
      Start.push_back(First.nextBelow(CorpusPoolSeeds));
    Prng Rng = passRng(Seed, Pass);
    std::vector<JobSpec> Out;
    for (std::size_t T : shuffled(Templates.size(), Rng))
      Out.push_back({T, 1 + (Start[T] + Pass) % CorpusPoolSeeds});
    return Out;
  }

  std::vector<JobSpec> pool() const override {
    std::vector<JobSpec> Out;
    for (std::size_t T = 0; T < Templates.size(); ++T)
      for (std::uint64_t S = 1; S <= CorpusPoolSeeds; ++S)
        Out.push_back({T, S});
    return Out;
  }

  unsigned minPasses() const override { return CorpusPoolSeeds; }
  /// The whole pool, so the simulated metrics are the same for every seed.
  unsigned simPasses() const override { return CorpusPoolSeeds; }

  JobOutcome run(const JobSpec &Spec, SpanLog *Log) override {
    const corpus::Template &T = Templates[Spec.Index];
    JobOutcome Out;
    Out.Key = T.Id + "#" + std::to_string(Spec.Variant);
    std::optional<corpus::Variant> V;
    {
      ScopedSpan S(Log, "frontend.build", "frontend");
      V.emplace(corpus::instantiate(T, Spec.Variant));
    }
    corpus::OracleOutcome O;
    {
      ScopedSpan S(Log, "corpus.run_oracles", "corpus");
      O = corpus::runOracles(T, *V, corpus::OracleConfig{});
    }
    if (Log)
      runPipelineTraced(*Log, V->Module, jit::AnnotationLevel::Optimized,
                        Out);
    else
      runPipeline(V->Module, jit::AnnotationLevel::Optimized, Out);

    for (const corpus::OracleFailure &F : O.Failures)
      Out.Failures.push_back(Out.Key + ": oracle " +
                             corpus::oracleKindName(F.Kind) + ": " + F.Detail);
    if (O.FalseRejects)
      Out.Failures.push_back(Out.Key + ": " +
                             std::to_string(O.FalseRejects) +
                             " false static rejections");
    if (O.SeqReturn != Out.Pinned["return_value"].asUint() ||
        O.SeqCycles != Out.Sim.Plain)
      Out.Failures.push_back(Out.Key + ": oracle sequential run differs "
                                       "from the pipeline's plain run");
    Out.Ops += 2.0 * static_cast<double>(O.EventsReplayed);
    // One line per variant in the reference: the program digest, then a
    // digest of every checked output of the oracles and the pipeline.
    Out.Pinned = hex(V->Digest) + ":" +
                 hex(corpus::fnv1a(O.toJson().dump() + Out.Pinned.dump()));
    if (Log) {
      Out.Counts["corpus.variants"] += 1;
      Out.Counts["corpus.false_rejects"] += O.FalseRejects;
    }
    return Out;
  }

private:
  std::vector<corpus::Template> Templates;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "registry")
    return std::make_unique<RegistryWorkload>();
  if (Name == "replay_sweep")
    return std::make_unique<ReplayWorkload>();
  if (Name == "corpus")
    return std::make_unique<CorpusWorkload>();
  return nullptr;
}

} // namespace perfbench
