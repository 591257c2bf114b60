//===- interp/Machine.cpp -------------------------------------------------==//

#include "interp/Machine.h"

#include "interp/EventBlock.h"
#include "metrics/Metrics.h"
#include "metrics/Timeline.h"
#include "support/Compiler.h"

using namespace jrpm;
using namespace jrpm::interp;

RunResult Machine::run(const std::vector<std::uint64_t> &Args) {
  const std::uint64_t StartClock = Clock;
  if (Timeline)
    Timeline->begin(TimelineTrack, "run." + MetricsPhase, StartClock);
  Ctx.start(M.EntryFunction, Args);
  // Watchdog against runaway programs: generous for our largest workloads.
  constexpr std::uint64_t MaxCycles = 40ull * 1000 * 1000 * 1000;
  if (!Dispatcher) {
    // Nothing to consult: stay inside the interpreter's dispatch loop for
    // the whole run. The context tests the watchdog at block starts.
    Clock += Ctx.run(Port, Sink, Clock, MaxCycles);
  } else {
    // Stop only where the dispatcher may take over (its loop headers);
    // every other block runs straight through the dispatch loop. Headers
    // are block starts, where the watchdog is tested too.
    std::vector<std::uint8_t> Stops(Ctx.image().numInsts(), 0);
    for (exec::FlatPc Pc : Dispatcher->dispatchPcs())
      Stops[Pc] = 1;
    while (!Ctx.finished()) {
      if (Stops[Ctx.pc()] && Dispatcher->onBlockStart(Ctx, *this))
        continue;
      Clock += Ctx.runToStop(Port, Sink, Clock, Stops.data(), MaxCycles);
      if (Clock > MaxCycles)
        break;
    }
  }
  if (Clock > MaxCycles)
    JRPM_FATAL("simulation exceeded the cycle watchdog");
  // The final return's call-return marker may still be deferred in a
  // batched sink's event block; flush it before anyone reads results.
  if (Sink)
    drainPending(*Sink, Sink->eventBlock());
  RunResult R;
  R.Cycles = Clock;
  R.Instructions = Ctx.instructionsExecuted();
  R.ReturnValue = Ctx.returnValue();
  R.Loads = Port.loads();
  R.Stores = Port.stores();
  R.L1Misses = Port.misses();
  if (Timeline)
    Timeline->end(TimelineTrack, Clock);
  if (Metrics) {
    // Exported once per run from the totals above, so the hot loop never
    // touches the registry.
    const std::string P = "interp." + MetricsPhase + ".";
    Metrics->counter(P + "cycles").inc(Clock - StartClock);
    Metrics->counter(P + "instructions").inc(R.Instructions);
    Metrics->counter(P + "loads").inc(R.Loads);
    Metrics->counter(P + "stores").inc(R.Stores);
    Metrics->counter(P + "l1_misses").inc(R.L1Misses);
  }
  return R;
}
