//===- perfbench/runner/main.cpp - Pipeline benchmark runner ---------------==//
//
// Runs one workload of the pipeline benchmark in a closed loop (one client,
// one thread, jobs back to back) and writes the raw measurements as JSON;
// perfbench/run.py turns them into the benchmark's metrics.
//
//   perfbench_jrpm run --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --work <dir> --refs <dir> --out <file>
//   perfbench_jrpm pin --workload <name> --work <dir> --refs <dir>
//
// `run` sets the workload up SetupRuns times (the median is setup_s), then
// times whole passes of jobs until --seconds of wall time have gone by and
// at least the workload's minimum number of passes has run. Times are host
// (CPU) time, and host-speed probes run between the jobs (see probeMs).
// With --trace 1 it instead times one pass plainly, repeats it with spans
// around every layer call, and keeps tracing whole passes until --seconds
// are used. Every job's outputs are checked; the result says how many
// failed.
//
// `pin` runs every job of the workload's pool once and writes the
// reference the checks compare against (perfbench/reference/<name>.json).
//
//===----------------------------------------------------------------------===//

#include "Jobs.h"

#include "exec/CodeImage.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>

using namespace jrpm;
using namespace perfbench;

namespace {

constexpr std::size_t MaxReportedFailures = 20;
constexpr unsigned SetupRuns = 3; ///< cold set-ups per untraced run

struct Args {
  std::string Mode;
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Work;
  std::string Refs;
  std::string Out;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_jrpm: %s\n"
               "usage: perfbench_jrpm run --workload <registry|replay_sweep|"
               "corpus> --seed <n>\n"
               "                          --seconds <s> --trace <0|1> "
               "--work <dir> --refs <dir>\n"
               "                          --out <file>\n"
               "       perfbench_jrpm pin --workload <name> --work <dir> "
               "--refs <dir>\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage("missing mode");
  Args A;
  A.Mode = Argv[1];
  if (A.Mode != "run" && A.Mode != "pin")
    usage("mode must be run or pin");
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work")
      A.Work = V;
    else if (K == "--refs")
      A.Refs = V;
    else if (K == "--out")
      A.Out = V;
    else
      usage(("unknown option " + K).c_str());
  }
  if (A.Workload.empty() || A.Work.empty() || A.Refs.empty() ||
      (A.Mode == "run" && A.Out.empty()))
    usage("missing required option");
  return A;
}

std::string refPath(const Args &A) {
  return A.Refs + "/" + A.Workload + ".json";
}

Json loadReference(const Args &A) {
  std::ifstream In(refPath(A));
  std::stringstream SS;
  SS << In.rdbuf();
  Json Doc;
  std::string Err;
  if (!In || !Json::parse(SS.str(), Doc, &Err) || !Doc.find("entries")) {
    std::fprintf(stderr, "perfbench_jrpm: cannot read reference %s %s\n",
                 refPath(A).c_str(), Err.c_str());
    std::exit(1);
  }
  return *Doc.find("entries");
}

/// Steal and total jiffies of the whole host so far, from /proc/stat; zeros
/// where it is unreadable.
std::pair<double, double> hostStealJiffies() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double V = 0, Total = 0, Steal = 0;
  In >> Cpu;
  for (int Field = 0; Cpu == "cpu" && Field < 8 && In >> V; ++Field) {
    Total += V;
    if (Field == 7)
      Steal = V;
  }
  return {Steal, Total};
}

/// Host-speed probe: fixed work in the benchmark's own code, independent of
/// the program under test. Branchy, data-dependent integer work over a
/// 32 KiB table, so it fits the L1 cache and takes about 2 ms. It slows
/// down when the shared host does (a busy sibling hyperthread, a lower
/// clock), and its host time is the yardstick stats.py scales the timings
/// by (see BENCH.md, "Host-speed scaling").
double probeMs() {
  static std::vector<std::uint32_t> Tab = [] {
    std::vector<std::uint32_t> T(8192);
    for (std::size_t I = 0; I < T.size(); ++I)
      T[I] = static_cast<std::uint32_t>(I * 2654435761u);
    return T;
  }();
  Clock::time_point T0 = Clock::now();
  std::uint32_t I = 1;
  std::uint64_t H = 0;
  for (std::uint32_t K = 0; K < 200000; ++K) {
    std::uint32_t V = Tab[I];
    if ((V & 3) == 0)
      H += V;
    else if ((V & 3) == 1)
      H ^= static_cast<std::uint64_t>(V) << 3;
    else if ((V & 3) == 2)
      H = H * 31 + V;
    else
      H -= K;
    Tab[I] = V + static_cast<std::uint32_t>(H);
    I = (I * 1103515245u + 12345u + static_cast<std::uint32_t>(H)) & 8191;
  }
  asm volatile("" : : "r"(H));
  return msBetween(T0, Clock::now());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

Json provenance() {
  Json P = Json::object();
  P["compiler"] = "GCC " __VERSION__;
  P["build_type"] = PERFBENCH_BUILD_TYPE;
  P["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  P["hardware_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  return P;
}

/// Runs the jobs, collects outcomes and checks them against the reference.
class Runner {
public:
  Runner(Workload &W, const Json &Ref) : W(W), Ref(Ref) {}

  JobOutcome job(const JobSpec &Spec, SpanLog *Log, std::uint64_t JobId,
                 double &Ms) {
    Clock::time_point T0 = Clock::now();
    JobOutcome O;
    std::uint32_t Root = 0;
    if (Log) {
      Log->setJob(JobId);
      Root = Log->open("job", "bench");
    }
    try {
      O = W.run(Spec, Log);
    } catch (const std::exception &E) {
      O.Failures.push_back(std::string("job threw: ") + E.what());
    }
    if (Log)
      Log->close(Root);
    Ms = msBetween(T0, Clock::now());
    const Json *Want = Ref.find(O.Key);
    if (!Want)
      O.Failures.push_back(O.Key + ": no reference entry");
    else if (Want->dump() != O.Pinned.dump())
      O.Failures.push_back(O.Key + ": outputs differ from the reference: got " +
                           O.Pinned.dump() + " want " + Want->dump());
    ++Attempted;
    if (!O.Failures.empty()) {
      ++Failed;
      for (const std::string &F : O.Failures)
        note(F);
    }
    return O;
  }

  struct PassTime {
    double Ms = 0;     ///< host (CPU) time, as every metric uses
    double WallMs = 0; ///< for the record
  };

  /// Runs one pass and times it.
  PassTime pass(unsigned P, std::uint64_t Seed, SpanLog *Log,
                std::vector<double> *JobMs, std::vector<JobOutcome> *Keep,
                double *Ops = nullptr) {
    std::size_t ProbesBefore = Probes ? Probes->size() : 0;
    Clock::time_point T0 = Clock::now();
    WallClock::time_point W0 = WallClock::now();
    double ProbeWallMs = 0;
    for (const JobSpec &Spec : W.pass(Seed, P)) {
      if (Probes && (Probes->size() == ProbesBefore ||
                     msBetween(LastProbe, Clock::now()) > ProbeEveryMs)) {
        WallClock::time_point PW = WallClock::now();
        Probes->push_back(probeMs());
        ProbeWallMs += msBetween(PW, WallClock::now());
        LastProbe = Clock::now();
      }
      double Ms = 0;
      JobOutcome O = job(Spec, Log, NextJob++, Ms);
      if (JobMs)
        JobMs->push_back(Ms);
      if (Ops)
        *Ops += O.Ops;
      if (Keep)
        Keep->push_back(std::move(O));
    }
    // The probes' own time is not the pass's.
    double ProbeCpuMs = 0;
    if (Probes)
      for (std::size_t I = ProbesBefore; I < Probes->size(); ++I)
        ProbeCpuMs += (*Probes)[I];
    return {msBetween(T0, Clock::now()) - ProbeCpuMs,
            msBetween(W0, WallClock::now()) - ProbeWallMs};
  }

  void note(const std::string &F) {
    if (Failures.size() < MaxReportedFailures)
      Failures.push_back(F);
    std::fprintf(stderr, "FAIL %s\n", F.c_str());
  }

  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Failures;
  /// Where pass() records host-speed probes: one before its first job and
  /// then one before a job whenever ProbeEveryMs of host time went by
  /// since the last; null for none.
  std::vector<double> *Probes = nullptr;
  static constexpr double ProbeEveryMs = 100;
  Clock::time_point LastProbe;

private:
  Workload &W;
  const Json &Ref;
  std::uint64_t NextJob = 0;
};

Json simJson(const std::vector<SimCycles> &Sim) {
  Json Out = Json::array();
  for (const SimCycles &S : Sim) {
    Json Row = Json::array();
    Row.push(S.Plain);
    Row.push(S.Profiled);
    Row.push(S.Tls);
    Row.push(S.Predicted);
    Out.push(std::move(Row));
  }
  return Out;
}

int runMode(const Args &A, Workload &W) {
  Json Ref = loadReference(A);

  Json Doc = Json::object();
  Doc["workload"] = A.Workload;
  Doc["seed"] = A.Seed;
  Doc["trace"] = A.Trace;
  Doc["provenance"] = provenance();

  // Set-up, from cold, several times; the last one is the one used.
  Json SetupS = Json::array();
  Json SetupInfo;
  Runner R(W, Ref);
  for (unsigned I = 0; I < (A.Trace ? 1u : SetupRuns); ++I) {
    SetupInfo = Json::object();
    Clock::time_point T0 = Clock::now();
    W.setup(A.Work, A.Trace, SetupInfo);
    SetupS.push(msBetween(T0, Clock::now()) / 1000.0);
  }
  Doc["setup_s"] = std::move(SetupS);
  if (const Json *F = SetupInfo.find("failures"))
    for (const Json &E : F->items())
      R.note("set-up: " + E.str());
  if (const Json *F = SetupInfo.find("warmup_failures"); F && F->asUint())
    R.note("set-up: warm-up jobs failed");
  bool SetupFailed = !R.Failures.empty();
  Doc["setup"] = SetupInfo;

  Json Passes = Json::array();
  std::vector<double> JobMs;
  std::vector<SimCycles> Sim;
  WallClock::time_point Start = WallClock::now();
  auto Elapsed = [&Start] {
    return msBetween(Start, WallClock::now()) / 1000.0;
  };
  std::pair<double, double> Steal0 = hostStealJiffies();

  if (!A.Trace) {
    for (unsigned P = 0; P < W.minPasses() || Elapsed() < A.Seconds; ++P) {
      std::vector<JobOutcome> Outcomes;
      double Ops = 0;
      std::size_t Before = JobMs.size();
      std::vector<double> Probes;
      R.Probes = &Probes;
      Runner::PassTime T = R.pass(P, A.Seed, nullptr, &JobMs,
                                  P < W.simPasses() ? &Outcomes : nullptr,
                                  &Ops);
      Json PJ = Json::object();
      PJ["ms"] = T.Ms;
      Json PR = Json::array();
      for (double X : Probes)
        PR.push(X);
      PJ["probes"] = std::move(PR);
      PJ["wall_ms"] = T.WallMs;
      PJ["jobs"] = static_cast<std::uint64_t>(JobMs.size() - Before);
      PJ["ops"] = Ops;
      Passes.push(std::move(PJ));
      for (const JobOutcome &O : Outcomes)
        if (O.HasSim)
          Sim.push_back(O.Sim);
    }
    Doc["measured_s"] = Elapsed();
  } else {
    // Calibration: pass 0 untraced, then the same pass traced.
    double Untraced = R.pass(0, A.Seed, nullptr, nullptr, nullptr).Ms;
    SpanLog Log(Clock::now());
    exec::ImageCacheStats C0 = exec::CodeImage::cacheStats();
    std::map<std::string, double> Counts;
    std::uint64_t TracedJobs = 0;
    double TracedFirst = 0;
    WallClock::time_point TraceStart = WallClock::now();
    for (unsigned P = 0;
         P < W.minPasses() ||
         msBetween(TraceStart, WallClock::now()) / 1000.0 < A.Seconds;
         ++P) {
      std::vector<JobOutcome> Outcomes;
      double Ms = R.pass(P, A.Seed, &Log, nullptr, &Outcomes).Ms;
      if (P == 0)
        TracedFirst = Ms;
      for (const JobOutcome &O : Outcomes) {
        for (const auto &[K, V] : O.Counts)
          Counts[K] += V;
        ++TracedJobs;
      }
    }
    exec::ImageCacheStats C1 = exec::CodeImage::cacheStats();
    Json CJ = Json::object();
    for (const auto &[K, V] : Counts)
      CJ[K] = V;
    CJ["exec.image_hits"] = C1.Hits - C0.Hits;
    CJ["exec.image_misses"] = C1.Misses - C0.Misses;
    Doc["counts"] = std::move(CJ);
    Doc["traced_jobs"] = TracedJobs;
    Json OJ = Json::object();
    OJ["untraced_ms"] = Untraced;
    OJ["traced_ms"] = TracedFirst;
    Doc["overhead"] = std::move(OJ);
    Doc["spans"] = Log.toJson();
    Doc["measured_s"] = Elapsed();
  }
  if (Sim.empty())
    Sim = W.setupSim();
  std::pair<double, double> Steal1 = hostStealJiffies();
  Doc["host_steal_share"] =
      Steal1.second > Steal0.second
          ? (Steal1.first - Steal0.first) / (Steal1.second - Steal0.second)
          : 0.0;

  Doc["passes"] = std::move(Passes);
  Json JM = Json::array();
  for (double Ms : JobMs)
    JM.push(Ms);
  Doc["job_ms"] = std::move(JM);
  Doc["sim"] = simJson(Sim);
  Doc["attempted"] = R.Attempted;
  Doc["failed"] = R.Failed;
  Doc["correct"] = R.Failed == 0 && !SetupFailed;
  Json FJ = Json::array();
  for (const std::string &F : R.Failures)
    FJ.push(F);
  Doc["failures"] = std::move(FJ);
  Doc["peak_rss_mb"] = peakRssMb();

  std::ofstream Out(A.Out);
  Out << Doc.dump();
  if (!Out) {
    std::fprintf(stderr, "perfbench_jrpm: cannot write %s\n", A.Out.c_str());
    return 1;
  }
  return 0;
}

/// One-line rendering of a reference entry.
std::string compact(const Json &V) {
  std::string Pretty = V.dump(), Out;
  for (std::size_t I = 0; I < Pretty.size(); ++I) {
    if (Pretty[I] != '\n') {
      Out += Pretty[I];
      continue;
    }
    while (I + 1 < Pretty.size() && Pretty[I + 1] == ' ')
      ++I;
    bool Closing = I + 1 < Pretty.size() &&
                   (Pretty[I + 1] == '}' || Pretty[I + 1] == ']');
    bool Opened = !Out.empty() && (Out.back() == '{' || Out.back() == '[');
    if (!Closing && !Opened && I + 1 < Pretty.size())
      Out += ' ';
  }
  return Out;
}

int pinMode(const Args &A, Workload &W) {
  Json Info = Json::object();
  W.setup(A.Work, false, Info);
  if (const Json *F = Info.find("failures"); F && !F->items().empty()) {
    for (const Json &E : F->items())
      std::fprintf(stderr, "FAIL set-up: %s\n", E.str().c_str());
    return 1;
  }
  std::string Text = "{\n  \"workload\": \"" + A.Workload +
                     "\",\n  \"entries\": {\n";
  bool First = true;
  std::map<std::string, std::string> Entries;
  for (const JobSpec &Spec : W.pool()) {
    JobOutcome O = W.run(Spec, nullptr);
    if (!O.Failures.empty()) {
      for (const std::string &F : O.Failures)
        std::fprintf(stderr, "FAIL %s\n", F.c_str());
      return 1;
    }
    Entries[O.Key] = compact(O.Pinned);
  }
  for (const auto &[K, V] : Entries) {
    Text += (First ? "" : ",\n") + std::string("    \"") + K + "\": " + V;
    First = false;
  }
  Text += "\n  }\n}\n";
  std::ofstream Out(refPath(A));
  Out << Text;
  std::fprintf(stderr, "pinned %zu entries to %s\n", Entries.size(),
               refPath(A).c_str());
  return Out ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload);
  if (!W)
    usage(("unknown workload " + A.Workload).c_str());
  try {
    return A.Mode == "pin" ? pinMode(A, *W) : runMode(A, *W);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_jrpm: %s\n", E.what());
    return 1;
  }
}
