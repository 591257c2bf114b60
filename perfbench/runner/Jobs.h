//===- perfbench/runner/Jobs.h - Benchmark workloads and their jobs --------==//
//
// The three workloads of the pipeline benchmark (see perfbench/BENCH.md):
//
//   registry      the 26 Table-6 workloads x {base, optimized}, one full
//                 pipeline::Jrpm::runAll per job;
//   replay_sweep  every registry capture re-selected through trace::Reader
//                 under a grid of tracer-side knobs, one capture x point per
//                 job;
//   corpus        template-extracted variants, each instantiated, run
//                 through the pipeline and through corpus::runOracles.
//
// A workload knows how to set itself up from cold, how to order one pass of
// jobs for a seed, and how to run one job, plainly or with spans around
// every call into a layer's public API. It checks each job's outputs and
// returns the values that must match the pinned reference.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's host time: CPU time (user + system) of the benchmark
/// process, from CLOCK_PROCESS_CPUTIME_ID. Every job runs on the one thread
/// of the closed loop, so this is the time the job spent running. Unlike
/// wall time it leaves out the time the thread waited for a core: on a
/// shared host, preemption by other processes and, on a guest kernel with
/// paravirtual steal accounting, the time its virtual CPU was descheduled.
/// Both vary from minute to minute with the neighbours' load.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

using Clock = CpuClock;
/// Wall time, only for how long a run lasts and for the record.
using WallClock = std::chrono::steady_clock;

template <class TimePoint> double msBetween(TimePoint A, TimePoint B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// In-memory spans of the traced run. Every span of one job shares the
/// job id; the root span of a job is named "job". A span may also "cover"
/// sibling spans: work a compound public call (profileAndSelect,
/// runSpeculative) does internally and the benchmark measured by calling
/// the same public function on its own. Self time is the span's duration
/// minus its children and the spans it covers (perfbench/stats.py).
class SpanLog {
public:
  explicit SpanLog(Clock::time_point Origin) : Origin(Origin) {}

  std::uint32_t open(const char *Name, const char *Layer);
  void close(std::uint32_t Id);
  void cover(std::uint32_t Id, std::uint32_t Covered);
  void setJob(std::uint64_t Job) { CurJob = Job; }

  jrpm::Json toJson() const;

private:
  struct Span {
    std::uint64_t Job = 0;
    std::int64_t Parent = -1;
    const char *Name = "";
    const char *Layer = "";
    Clock::time_point Start, End;
    std::vector<std::uint32_t> Covers;
  };
  Clock::time_point Origin;
  std::uint64_t CurJob = 0;
  std::vector<Span> Spans;
  std::vector<std::uint32_t> Stack;
};

/// Opens a span for the enclosing scope; a no-op without a log.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, const char *Layer)
      : Log(Log), Id(Log ? Log->open(Name, Layer) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  std::uint32_t id() const { return Id; }

private:
  SpanLog *Log;
  std::uint32_t Id;
};

/// One job of a pass: an index into the workload's job table, plus the
/// variant seed for corpus jobs.
struct JobSpec {
  std::size_t Index = 0;
  std::uint64_t Variant = 0;
};

/// Simulated cycles of one pipeline run, for the deterministic metrics.
struct SimCycles {
  std::uint64_t Plain = 0;
  std::uint64_t Profiled = 0;
  std::uint64_t Tls = 0;
  double Predicted = 0; ///< Selection.PredictedCycles
};

/// What a job produced.
struct JobOutcome {
  std::string Key;           ///< reference key
  jrpm::Json Pinned;         ///< must equal the reference entry for Key
  std::vector<std::string> Failures;
  double Ops = 0;            ///< simulated operations (see BENCH.md)
  bool HasSim = false;
  SimCycles Sim;
  /// Traced run only: per-job counts, summed into the layer metrics.
  std::map<std::string, double> Counts;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds everything the jobs need, from cold: caches are cleared first,
  /// so every call does the full work. Files go under \p WorkDir, inside
  /// the checkout. \p Info receives set-up facts.
  virtual void setup(const std::string &WorkDir, bool Traced,
                     jrpm::Json &Info) = 0;
  /// Jobs of pass \p Pass, in the order seed \p Seed gives them.
  virtual std::vector<JobSpec> pass(std::uint64_t Seed,
                                    unsigned Pass) const = 0;
  /// Every job the reference pins, in a canonical order.
  virtual std::vector<JobSpec> pool() const = 0;
  /// Passes each run completes at least (>= 100 jobs in total).
  virtual unsigned minPasses() const = 0;
  /// Leading passes the simulated metrics are computed over, so they are
  /// a function of the seed alone.
  virtual unsigned simPasses() const { return 1; }
  virtual JobOutcome run(const JobSpec &J, SpanLog *Log) = 0;
  /// Simulated cycles computed during set-up, for workloads whose timed
  /// jobs run no TLS step.
  virtual const std::vector<SimCycles> &setupSim() const { return NoSim; }

protected:
  static const std::vector<SimCycles> NoSim;
};

/// The workload called \p Name, or null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
