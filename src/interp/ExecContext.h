//===- interp/ExecContext.h - IR instruction stepping ----------------------==//
//
// A call stack plus step functions that execute instructions of a
// pre-decoded exec::CodeImage through a MemoryPort, optionally emitting
// profiling events to a TraceSink. The sequential machine and every
// speculative thread of the Hydra TLS engine are instances of this class.
//
// Frames hold a single flat program counter into the image instead of the
// historical (function, block, instruction) triple; block and function
// identity are recovered from the image's side tables only at control-flow
// boundaries. step() executes exactly one instruction (the reference
// granularity the others are tested against); runToStop() runs until the
// next instruction marked in a caller-supplied per-flat-PC stop mask,
// which is how the TLS engine runs a core to its next shared event and
// how the sequential machine runs between a dispatcher's loop headers;
// run() executes to completion (or a cycle budget) without ever leaving
// the dispatch loop, for sequential runs with no dispatcher attached.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_INTERP_EXECCONTEXT_H
#define JRPM_INTERP_EXECCONTEXT_H

#include "exec/CodeImage.h"
#include "interp/MemoryPort.h"
#include "interp/TraceSink.h"
#include "ir/IR.h"
#include "sim/Config.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace jrpm {
namespace interp {

/// One function activation.
struct Frame {
  exec::FlatPc Pc = 0;
  std::uint64_t Activation = 0;
  std::uint16_t RetDst = ir::NoReg;
  std::vector<std::uint64_t> Regs;
  std::vector<std::uint64_t> StagedArgs;
};

class ExecContext {
public:
  /// Runs on an externally owned image (the Hydra engine shares one image
  /// across its cores and rebuilds it when clones are appended).
  ExecContext(const exec::CodeImage &Image, const sim::HydraConfig &Cfg)
      : Image(Image), Cfg(Cfg) {}

  /// Convenience: compiles (or reuses the memoized) image for \p M.
  ExecContext(const ir::Module &M, const sim::HydraConfig &Cfg)
      : OwnedImage(exec::CodeImage::getShared(M)), Image(*OwnedImage),
        Cfg(Cfg) {}

  const exec::CodeImage &image() const { return Image; }

  /// Begins execution at the entry of function \p Func.
  void start(std::uint32_t Func, const std::vector<std::uint64_t> &Args);

  /// Positions the context at the start of \p Block in \p Func with the
  /// given register file (used by the TLS engine to spawn iteration
  /// threads). The file may be larger than the function needs.
  void startAt(std::uint32_t Func, std::uint32_t Block,
               std::vector<std::uint64_t> Regs);

  /// startAt by flat PC, recycling the previous activation's register file:
  /// the old top-frame file is returned so spawn-heavy callers (the TLS
  /// engine respawning an iteration thread per commit) can reuse its
  /// buffer instead of allocating a fresh vector per spawn.
  std::vector<std::uint64_t> resetAtPc(exec::FlatPc Pc,
                                       std::vector<std::uint64_t> Regs);

  bool finished() const { return Frames.empty(); }
  std::uint64_t returnValue() const { return RetVal; }
  std::uint64_t instructionsExecuted() const { return Executed; }

  std::size_t callDepth() const { return Frames.size(); }
  exec::FlatPc pc() const { return Frames.back().Pc; }
  std::uint32_t currentFunc() const { return Image.funcOf(pc()); }
  std::uint32_t currentBlock() const { return Image.blockOf(pc()); }
  std::uint32_t currentInstr() const {
    return pc() - Image.blockAt(pc()).StartPc;
  }
  bool atBlockStart() const {
    return !Frames.empty() && Image.isBlockStart(Frames.back().Pc);
  }

  /// Register file of the outermost frame (frame 0).
  std::vector<std::uint64_t> &baseRegs() { return Frames.front().Regs; }
  const std::vector<std::uint64_t> &baseRegs() const {
    return Frames.front().Regs;
  }

  /// Register file of the innermost (current) frame.
  std::vector<std::uint64_t> &topRegs() { return Frames.back().Regs; }
  const std::vector<std::uint64_t> &topRegs() const {
    return Frames.back().Regs;
  }

  /// Repositions the innermost frame at the start of \p Block of its
  /// current function with register file \p Regs (used to resume
  /// sequential execution at a loop exit after speculative execution of
  /// the loop).
  void repositionTop(std::uint32_t Block, std::vector<std::uint64_t> Regs) {
    Frame &F = Frames.back();
    F.Pc = Image.blockStart(Image.funcOf(F.Pc), Block);
    F.Regs = std::move(Regs);
  }

  /// Executes one instruction; returns the cycles it consumed. Must not be
  /// called when finished(). Throws TrapError when the program executes an
  /// undefined operation (divide/remainder by zero).
  std::uint32_t step(MemoryPort &Mem, TraceSink *Sink, std::uint64_t Now);

  /// Executes until the program finishes or the running clock (starting at
  /// \p Now, advanced per instruction) exceeds \p MaxCycles — the budget is
  /// tested at block starts. Returns the total cycles consumed. Equivalent
  /// to a step() loop cycle for cycle, but never leaves the dispatch loop,
  /// so sequential runs pay no per-block call boundary.
  std::uint64_t run(MemoryPort &Mem, TraceSink *Sink, std::uint64_t Now,
                    std::uint64_t MaxCycles);

  /// Executes the instruction at the current PC, then keeps executing
  /// until the next instruction whose flat PC is set in \p StopMask (one
  /// byte per image instruction), until a memory-port callback calls
  /// requestStop(), until the program finishes, or until the running
  /// clock exceeds \p MaxCycles at a block start. Returns the summed
  /// cycles, which equal the sum of the step() costs of the same
  /// instructions. The instruction the run stops in front of is not
  /// executed; it starts the next run.
  std::uint64_t runToStop(MemoryPort &Mem, TraceSink *Sink, std::uint64_t Now,
                          const std::uint8_t *StopMask,
                          std::uint64_t MaxCycles = ~std::uint64_t(0));

  /// Ends the current runToStop() right after the load or store whose
  /// memory-port callback makes this call (the TLS engine stalls or
  /// rewinds the thread there). Has no effect on the other granularities.
  void requestStop() { StopRequested = true; }

  /// Rewinds the innermost frame by one instruction, undoing the program
  /// counter advance of the last executed instruction (a step(), or a
  /// runToStop() that stopped on request after a load). Only valid when
  /// that instruction did not transfer control (loads/stores/arithmetic) —
  /// the TLS engine uses this to re-issue a load whose value is not yet
  /// available under synchronized local communication, or that a parked
  /// thread must re-execute.
  void rewindTop() {
    Frame &F = Frames.back();
    assert(!Image.isBlockStart(F.Pc) && "cannot rewind across a block boundary");
    --F.Pc;
  }

  /// Execution granularity of stepImpl: one instruction, up to a
  /// stop-mask instruction, or a whole run bounded by a cycle budget.
  enum class StepMode : std::uint8_t { Single, ToStop, Run };

private:
  template <StepMode Mode>
  std::uint64_t stepImpl(MemoryPort &Mem, TraceSink *Sink, std::uint64_t Now,
                         std::uint64_t MaxCycles,
                         const std::uint8_t *StopMask = nullptr);

  std::shared_ptr<const exec::CodeImage> OwnedImage; ///< null when external
  const exec::CodeImage &Image;
  const sim::HydraConfig &Cfg;
  std::vector<Frame> Frames;
  std::uint64_t RetVal = 0;
  std::uint64_t Executed = 0;
  std::uint64_t NextActivation = 1;
  bool StopRequested = false;
};

} // namespace interp
} // namespace jrpm

#endif // JRPM_INTERP_EXECCONTEXT_H
