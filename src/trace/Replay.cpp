//===- trace/Replay.cpp ----------------------------------------------------==//

#include "trace/Replay.h"

#include <list>
#include <mutex>
#include <unordered_map>

using namespace jrpm;
using namespace jrpm::trace;

ReplayConfig trace::recordedConfig(const Reader &R) {
  ReplayConfig Cfg;
  Cfg.Hw = R.header().Hw;
  Cfg.ExtendedPcBinning = R.header().ExtendedPcBinning;
  Cfg.DisableLoopAfterThreads = R.header().DisableLoopAfterThreads;
  return Cfg;
}

namespace {

/// Builds the engine's loop tables for \p Header. (The engine copies its
/// HydraConfig, so callers may pass configs in temporaries — a sweep-job
/// requirement; see the reentrancy note in TraceEngine.h.)
std::vector<tracer::LoopTraceInfo> loopInfos(const TraceHeader &Header) {
  std::vector<tracer::LoopTraceInfo> Loops;
  Loops.reserve(Header.LoopLocals.size());
  for (const std::vector<std::uint16_t> &Locals : Header.LoopLocals)
    Loops.push_back({Locals});
  return Loops;
}

ReplayOutcome finishOutcome(tracer::TraceEngine &Engine,
                            const ReplayConfig &Cfg, const RunInfo &Run,
                            std::uint64_t EventsReplayed) {
  ReplayOutcome Out;
  Out.EventsReplayed = EventsReplayed;
  Out.Run = Run;
  Out.Selection = tracer::selectStls(Engine, Out.Run.Cycles, Cfg.Hw);
  Out.PeakBanksInUse = Engine.peakBanksInUse();
  Out.PeakLocalSlots = Engine.peakLocalSlots();
  Out.PeakDynamicNest = Engine.peakDynamicNest();
  if (Cfg.Metrics) {
    Engine.exportMetrics(*Cfg.Metrics);
    Cfg.Metrics->counter("trace.events_replayed").inc(EventsReplayed);
  }
  return Out;
}

} // namespace

ReplayOutcome trace::selectFromTrace(Reader &R, const ReplayConfig &Cfg) {
  tracer::TraceEngine Engine(Cfg.Hw, loopInfos(R.header()),
                             Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Engine.setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);
  std::uint64_t N = replay(R, Engine);
  return finishOutcome(Engine, Cfg, R.footer().Run, N);
}

//===----------------------------------------------------------------------===//
// CachedTrace
//===----------------------------------------------------------------------===//

CachedTrace::CachedTrace(Reader &R) : Header(R.header()) {
  Events.reserve(R.footer().TotalEvents);
  Event E;
  while (R.next(E))
    Events.push_back(E);
  Footer = R.footer();
}

CachedTrace::CachedTrace(const std::string &Path) {
  Reader R(Path);
  *this = CachedTrace(R);
}

std::uint64_t CachedTrace::replay(interp::TraceSink &Sink) const {
  for (const Event &E : Events)
    dispatchEvent(E, Sink);
  return Events.size();
}

ReplayOutcome trace::selectFromTrace(const CachedTrace &T,
                                     const ReplayConfig &Cfg) {
  tracer::TraceEngine Engine(Cfg.Hw, loopInfos(T.header()),
                             Cfg.ExtendedPcBinning);
  if (Cfg.DisableLoopAfterThreads)
    Engine.setDisableLoopAfterThreads(Cfg.DisableLoopAfterThreads);
  std::uint64_t N = T.replay(Engine);
  return finishOutcome(Engine, Cfg, T.footer().Run, N);
}

//===----------------------------------------------------------------------===//
// Shared decoded-trace cache
//===----------------------------------------------------------------------===//

namespace {

struct TraceCache {
  struct Entry {
    std::shared_ptr<const CachedTrace> Trace;
    std::list<std::uint64_t>::iterator LruPos;
  };

  std::mutex Mu;
  std::unordered_map<std::uint64_t, Entry> Map;
  std::list<std::uint64_t> Lru; ///< front = most recently used
  std::size_t Capacity = DefaultTraceCacheCapacity;
  TraceCacheStats Stats;

  void evictOverCapacity() {
    while (Map.size() > Capacity) {
      Map.erase(Lru.back());
      Lru.pop_back();
      ++Stats.Evictions;
    }
  }
};

TraceCache &traceCache() {
  static TraceCache C; // leaked-by-design process-lifetime cache
  return C;
}

} // namespace

std::shared_ptr<const CachedTrace>
trace::getSharedTrace(const std::string &Path, std::uint64_t Key) {
  TraceCache &C = traceCache();
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    auto It = C.Map.find(Key);
    if (It != C.Map.end()) {
      ++C.Stats.Hits;
      C.Lru.splice(C.Lru.begin(), C.Lru, It->second.LruPos);
      return It->second.Trace;
    }
  }
  // Decode outside the lock (it can be hundreds of milliseconds); a racing
  // duplicate decode of the same trace is harmless and the loser adopts
  // the incumbent. Corruption throws here and caches nothing.
  auto Decoded = std::make_shared<const CachedTrace>(Path);
  std::lock_guard<std::mutex> Lock(C.Mu);
  ++C.Stats.Misses;
  auto It = C.Map.find(Key);
  if (It != C.Map.end()) {
    C.Lru.splice(C.Lru.begin(), C.Lru, It->second.LruPos);
    return It->second.Trace;
  }
  C.Lru.push_front(Key);
  C.Map[Key] = TraceCache::Entry{Decoded, C.Lru.begin()};
  C.evictOverCapacity();
  return Decoded;
}

TraceCacheStats trace::traceCacheStats() {
  TraceCache &C = traceCache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  TraceCacheStats S = C.Stats;
  S.Entries = C.Map.size();
  S.Capacity = C.Capacity;
  return S;
}

std::size_t trace::setTraceCacheCapacity(std::size_t Capacity) {
  TraceCache &C = traceCache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  std::size_t Prev = C.Capacity;
  C.Capacity = Capacity ? Capacity : 1;
  C.evictOverCapacity();
  return Prev;
}

void trace::clearTraceCache() {
  TraceCache &C = traceCache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Map.clear();
  C.Lru.clear();
  C.Capacity = DefaultTraceCacheCapacity;
  C.Stats = TraceCacheStats();
}
