//===- interp/ExecContext.cpp ---------------------------------------------==//

#include "interp/ExecContext.h"

#include "interp/EventBlock.h"
#include "interp/Trap.h"
#include "support/Bits.h"
#include "support/Compiler.h"

#include <cassert>
#include <cmath>

using namespace jrpm;
using namespace jrpm::interp;
using jrpm::bits::asF;
using jrpm::bits::asI;
using jrpm::bits::asU;

void ExecContext::start(std::uint32_t Func,
                        const std::vector<std::uint64_t> &Args) {
  const exec::FuncDesc &F = Image.func(Func);
  assert(Args.size() == F.NumParams && "wrong argument count");
  Frame Fr;
  Fr.Pc = F.EntryPc;
  Fr.Activation = NextActivation++;
  Fr.Regs.assign(F.NumRegs, 0);
  for (std::uint32_t I = 0; I < Args.size(); ++I)
    Fr.Regs[I] = Args[I];
  Frames.clear();
  Frames.push_back(std::move(Fr));
  Executed = 0;
}

void ExecContext::startAt(std::uint32_t Func, std::uint32_t Block,
                          std::vector<std::uint64_t> Regs) {
  assert(Regs.size() >= Image.func(Func).NumRegs &&
         "register file too small");
  Frame Fr;
  Fr.Pc = Image.blockStart(Func, Block);
  Fr.Activation = NextActivation++;
  Fr.Regs = std::move(Regs);
  Frames.clear();
  Frames.push_back(std::move(Fr));
}

std::vector<std::uint64_t>
ExecContext::resetAtPc(exec::FlatPc Pc, std::vector<std::uint64_t> Regs) {
  assert(Image.isBlockStart(Pc) && "resetAtPc targets a block start");
  assert(Regs.size() >= Image.func(Image.funcOf(Pc)).NumRegs &&
         "register file too small");
  std::vector<std::uint64_t> Recycled;
  if (Frames.size() == 1) {
    // Reuse the frame in place: no vector churn on the spawn-per-commit
    // path of the TLS engine.
    Frame &F = Frames.back();
    Recycled = std::move(F.Regs);
    F.Pc = Pc;
    F.Activation = NextActivation++;
    F.RetDst = ir::NoReg;
    F.Regs = std::move(Regs);
    F.StagedArgs.clear();
    return Recycled;
  }
  if (!Frames.empty())
    Recycled = std::move(Frames.front().Regs);
  Frame Fr;
  Fr.Pc = Pc;
  Fr.Activation = NextActivation++;
  Fr.Regs = std::move(Regs);
  Frames.clear();
  Frames.push_back(std::move(Fr));
  return Recycled;
}

template <ExecContext::StepMode Mode>
std::uint64_t ExecContext::stepImpl(MemoryPort &Mem, TraceSink *Sink,
                                    std::uint64_t Now,
                                    std::uint64_t MaxCycles,
                                    const std::uint8_t *StopMask) {
  assert(!Frames.empty() && "stepping a finished context");
  if constexpr (Mode == StepMode::ToStop)
    StopRequested = false;
  const exec::DecodedInst *Insts = Image.insts();
  const sim::CostModel &Costs = Cfg.Costs;
  std::uint64_t Total = 0;
  // The program counter, register-file pointer, and retired-instruction
  // counter are carried in locals; Frame::Pc and Executed are written back
  // only at frame changes, step boundaries, and traps, so the
  // per-instruction path never touches memory the compiler cannot keep in
  // registers across the opaque Mem/Sink calls.
  Frame *F = &Frames.back();
  exec::FlatPc Pc = F->Pc;
  std::uint64_t *Regs = F->Regs.data();
  // Batched sinks expose an EventBlock; zero-cost events are appended to it
  // and drained in blocks, control events drain-then-dispatch (see
  // EventBlock.h for the discipline that keeps this bit-identical).
  EventBlock *Blk = Sink ? Sink->eventBlock() : nullptr;

#if defined(__GNUC__) || defined(__clang__)
  std::uint64_t Exec = Executed;
  const exec::DecodedInst *I = nullptr;
  std::uint32_t Cost = 0;

  // Token-threaded dispatch: the pre-decoded opcode indexes a label table
  // and every handler ends in its own indirect jump, so the branch
  // predictor sees one jump site per handler instead of a single shared
  // dispatch point that mispredicts on almost every opcode change.
  static const void *const JumpTable[] = {
      &&Op_Add,     &&Op_Sub,     &&Op_Mul,     &&Op_Div,     &&Op_Rem,
      &&Op_And,     &&Op_Or,      &&Op_Xor,     &&Op_Shl,     &&Op_Shr,
      &&Op_AddImm,  &&Op_FAdd,    &&Op_FSub,    &&Op_FMul,    &&Op_FDiv,
      &&Op_FNeg,    &&Op_FSqrt,   &&Op_IToF,    &&Op_FToI,    &&Op_CmpEQ,
      &&Op_CmpNE,   &&Op_CmpLT,   &&Op_CmpLE,   &&Op_CmpGT,   &&Op_CmpGE,
      &&Op_FCmpEQ,  &&Op_FCmpLT,  &&Op_FCmpLE,  &&Op_ConstI,  &&Op_ConstF,
      &&Op_Mov,     &&Op_Load,    &&Op_Store,   &&Op_Alloc,   &&Op_Br,
      &&Op_CondBr,  &&Op_Call,    &&Op_Arg,     &&Op_Ret,     &&Op_SLoop,
      &&Op_Eoi,     &&Op_ELoop,   &&Op_LwlAnno, &&Op_SwlAnno,
      &&Op_ReadStats, &&Op_Nop,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) ==
                    static_cast<std::size_t>(ir::Opcode::Nop) + 1,
                "jump table must cover every opcode in enum order");

#define JRPM_RETURN(Val)                                                     \
  do {                                                                       \
    Executed = Exec;                                                         \
    return (Val);                                                            \
  } while (0)

#define JRPM_FETCH()                                                         \
  do {                                                                       \
    I = &Insts[Pc];                                                          \
    ++Exec;                                                                  \
    Cost = Costs.Basic;                                                      \
    goto *JumpTable[static_cast<std::uint8_t>(I->Op)];                       \
  } while (0)

// A memory-port callback may ask a stop-mask run to end right after the
// current load or store (the Pc has already advanced past it).
#define JRPM_MEM_DONE()                                                      \
  do {                                                                       \
    if constexpr (Mode == StepMode::ToStop) {                                \
      if (StopRequested) {                                                   \
        Total += Cost;                                                       \
        F->Pc = Pc;                                                          \
        JRPM_RETURN(Total);                                                  \
      }                                                                      \
    }                                                                        \
    JRPM_NEXT();                                                             \
  } while (0)

#define JRPM_NEXT()                                                          \
  do {                                                                       \
    Total += Cost;                                                           \
    if constexpr (Mode == StepMode::Single) {                                \
      F->Pc = Pc;                                                            \
      JRPM_RETURN(Total);                                                    \
    }                                                                        \
    Now += Cost;                                                             \
    if constexpr (Mode == StepMode::ToStop) {                                \
      if (StopMask[Pc]) {                                                    \
        F->Pc = Pc;                                                          \
        JRPM_RETURN(Total);                                                  \
      }                                                                      \
    }                                                                        \
    if ((Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag) &&             \
        Now > MaxCycles) { /* budget test once per block */                  \
      F->Pc = Pc;                                                            \
      JRPM_RETURN(Total);                                                    \
    }                                                                        \
    JRPM_FETCH();                                                            \
  } while (0)

  JRPM_FETCH();

Op_Add:
  Regs[I->Dst] = Regs[I->A] + Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Sub:
  Regs[I->Dst] = Regs[I->A] - Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Mul:
  Regs[I->Dst] = Regs[I->A] * Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Div: {
  std::int64_t D = asI(Regs[I->B]);
  if (D == 0) {
    F->Pc = Pc; // park the context on the faulting instruction
    Executed = Exec;
    throw TrapError(TrapKind::DivideByZero, I->Pc);
  }
  Regs[I->Dst] = static_cast<std::uint64_t>(asI(Regs[I->A]) / D);
  Cost = Costs.IntDiv;
  ++Pc;
  JRPM_NEXT();
}
Op_Rem: {
  std::int64_t D = asI(Regs[I->B]);
  if (D == 0) {
    F->Pc = Pc;
    Executed = Exec;
    throw TrapError(TrapKind::RemainderByZero, I->Pc);
  }
  Regs[I->Dst] = static_cast<std::uint64_t>(asI(Regs[I->A]) % D);
  Cost = Costs.IntDiv;
  ++Pc;
  JRPM_NEXT();
}
Op_And:
  Regs[I->Dst] = Regs[I->A] & Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Or:
  Regs[I->Dst] = Regs[I->A] | Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Xor:
  Regs[I->Dst] = Regs[I->A] ^ Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_Shl:
  Regs[I->Dst] = Regs[I->A] << (Regs[I->B] & 63);
  ++Pc;
  JRPM_NEXT();
Op_Shr:
  Regs[I->Dst] =
      static_cast<std::uint64_t>(asI(Regs[I->A]) >> (Regs[I->B] & 63));
  ++Pc;
  JRPM_NEXT();
Op_AddImm:
  Regs[I->Dst] = Regs[I->A] + static_cast<std::uint64_t>(I->Imm);
  ++Pc;
  JRPM_NEXT();
Op_FAdd:
  Regs[I->Dst] = asU(asF(Regs[I->A]) + asF(Regs[I->B]));
  ++Pc;
  JRPM_NEXT();
Op_FSub:
  Regs[I->Dst] = asU(asF(Regs[I->A]) - asF(Regs[I->B]));
  ++Pc;
  JRPM_NEXT();
Op_FMul:
  Regs[I->Dst] = asU(asF(Regs[I->A]) * asF(Regs[I->B]));
  ++Pc;
  JRPM_NEXT();
Op_FDiv:
  Regs[I->Dst] = asU(asF(Regs[I->A]) / asF(Regs[I->B]));
  Cost = Costs.FloatDiv;
  ++Pc;
  JRPM_NEXT();
Op_FNeg:
  Regs[I->Dst] = asU(-asF(Regs[I->A]));
  ++Pc;
  JRPM_NEXT();
Op_FSqrt:
  Regs[I->Dst] = asU(std::sqrt(asF(Regs[I->A])));
  Cost = Costs.FloatSqrt;
  ++Pc;
  JRPM_NEXT();
Op_IToF:
  Regs[I->Dst] = asU(static_cast<double>(asI(Regs[I->A])));
  ++Pc;
  JRPM_NEXT();
Op_FToI:
  Regs[I->Dst] =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(asF(Regs[I->A])));
  ++Pc;
  JRPM_NEXT();
Op_CmpEQ:
  Regs[I->Dst] = Regs[I->A] == Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_CmpNE:
  Regs[I->Dst] = Regs[I->A] != Regs[I->B];
  ++Pc;
  JRPM_NEXT();
Op_CmpLT:
  Regs[I->Dst] = asI(Regs[I->A]) < asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_CmpLE:
  Regs[I->Dst] = asI(Regs[I->A]) <= asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_CmpGT:
  Regs[I->Dst] = asI(Regs[I->A]) > asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_CmpGE:
  Regs[I->Dst] = asI(Regs[I->A]) >= asI(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_FCmpEQ:
  Regs[I->Dst] = asF(Regs[I->A]) == asF(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_FCmpLT:
  Regs[I->Dst] = asF(Regs[I->A]) < asF(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_FCmpLE:
  Regs[I->Dst] = asF(Regs[I->A]) <= asF(Regs[I->B]);
  ++Pc;
  JRPM_NEXT();
Op_ConstI:
Op_ConstF:
  Regs[I->Dst] = static_cast<std::uint64_t>(I->Imm);
  ++Pc;
  JRPM_NEXT();
Op_Mov:
  Regs[I->Dst] = Regs[I->A];
  ++Pc;
  JRPM_NEXT();
Op_Load: {
  std::uint64_t Ea = static_cast<std::uint64_t>(I->Imm);
  if (I->A != ir::NoReg)
    Ea += Regs[I->A];
  if (I->B != ir::NoReg)
    Ea += Regs[I->B];
  std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
  std::uint32_t Extra = 0;
  Regs[I->Dst] = Mem.load(Addr, Extra);
  Cost += Extra;
  if (Sink)
    Cost += emitHeapLoad(*Sink, Blk, Addr, Now, I->Pc);
  ++Pc;
  JRPM_MEM_DONE();
}
Op_Store: {
  std::uint64_t Ea = static_cast<std::uint64_t>(I->Imm);
  if (I->A != ir::NoReg)
    Ea += Regs[I->A];
  if (I->B != ir::NoReg)
    Ea += Regs[I->B];
  std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
  std::uint32_t Extra = 0;
  Mem.store(Addr, Regs[I->Dst], Extra);
  Cost += Extra;
  if (Sink)
    Cost += emitHeapStore(*Sink, Blk, Addr, Now, I->Pc);
  ++Pc;
  JRPM_MEM_DONE();
}
Op_Alloc: {
  std::uint32_t Count = I->A != ir::NoReg
                            ? static_cast<std::uint32_t>(Regs[I->A])
                            : static_cast<std::uint32_t>(I->Imm);
  Regs[I->Dst] = Mem.allocWords(Count);
  ++Pc;
  JRPM_NEXT();
}
Op_Br:
  Pc = static_cast<exec::FlatPc>(I->Imm); // pre-resolved target
  JRPM_NEXT();
Op_CondBr:
  Pc = Regs[I->A] != 0 ? static_cast<exec::FlatPc>(I->Imm)
                       : static_cast<exec::FlatPc>(I->Imm2);
  JRPM_NEXT();
Op_Arg:
  F->StagedArgs.push_back(Regs[I->A]);
  ++Pc;
  JRPM_NEXT();
Op_Call: {
  std::uint32_t Callee = static_cast<std::uint32_t>(I->Imm);
  const exec::FuncDesc &CF = Image.func(Callee);
  assert(F->StagedArgs.size() == CF.NumParams && "bad call arity");
  Frame NewF;
  NewF.Pc = CF.EntryPc;
  NewF.Activation = NextActivation++;
  NewF.RetDst = I->Dst;
  NewF.Regs.assign(CF.NumRegs, 0);
  for (std::uint32_t A = 0; A < F->StagedArgs.size(); ++A)
    NewF.Regs[A] = F->StagedArgs[A];
  F->StagedArgs.clear();
  F->Pc = Pc + 1; // resume point after the call
  Cost = Costs.CallOverhead;
  if (Sink)
    emitCallSite(*Sink, Blk, I->Pc, Now);
  Frames.push_back(std::move(NewF)); // invalidates F
  F = &Frames.back();
  Pc = F->Pc;
  Total += Cost;
  // The callee entry is a function's first block start, where the
  // multi-instruction modes test their budget.
  assert(Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag);
  if constexpr (Mode == StepMode::Run || Mode == StepMode::ToStop) {
    Regs = F->Regs.data();
    Now += Cost;
    if constexpr (Mode == StepMode::ToStop) {
      if (StopMask[Pc])
        JRPM_RETURN(Total);
    }
    if (Now > MaxCycles)
      JRPM_RETURN(Total); // F->Pc already holds the callee entry
    JRPM_FETCH();
  }
  JRPM_RETURN(Total);
}
Op_Ret: {
  std::uint64_t Value = I->A != ir::NoReg ? Regs[I->A] : 0;
  if (Sink) {
    drainPending(*Sink, Blk);
    Sink->onReturn(F->Activation);
    emitCallReturn(*Sink, Blk, Now);
  }
  std::uint16_t RetDst = F->RetDst;
  Frames.pop_back();
  Cost = Costs.CallOverhead;
  Total += Cost;
  if (Frames.empty()) {
    RetVal = Value;
    JRPM_RETURN(Total);
  }
  F = &Frames.back();
  Pc = F->Pc; // the caller parked its resume PC before the call
  Regs = F->Regs.data();
  if (RetDst != ir::NoReg)
    Regs[RetDst] = Value;
  if constexpr (Mode == StepMode::Single)
    JRPM_RETURN(Total);
  Now += Cost;
  if constexpr (Mode == StepMode::ToStop) {
    if (StopMask[Pc])
      JRPM_RETURN(Total);
  }
  if ((Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag) &&
      Now > MaxCycles)
    JRPM_RETURN(Total);
  JRPM_FETCH();
}
// Annotation instructions cost one cycle by themselves (the nop they
// degrade to when the runtime disables a loop's tracing); the tracer
// charges the coprocessor interaction on top while it is listening.
Op_SLoop:
  if (Sink) {
    drainPending(*Sink, Blk);
    Cost += Sink->onLoopStart(static_cast<std::uint32_t>(I->Imm),
                              F->Activation, Now);
  }
  ++Pc;
  JRPM_NEXT();
Op_Eoi:
  if (Sink)
    Cost += emitLoopIter(*Sink, Blk, static_cast<std::uint32_t>(I->Imm), Now);
  ++Pc;
  JRPM_NEXT();
Op_ELoop:
  if (Sink) {
    drainPending(*Sink, Blk);
    Cost += Sink->onLoopEnd(static_cast<std::uint32_t>(I->Imm), Now);
  }
  ++Pc;
  JRPM_NEXT();
Op_LwlAnno:
  Cost = Cfg.LocalAnnoCost;
  if (Sink)
    Cost += emitLocalLoad(*Sink, Blk, F->Activation, I->A, Now, I->Pc);
  ++Pc;
  JRPM_NEXT();
Op_SwlAnno:
  Cost = Cfg.LocalAnnoCost;
  if (Sink)
    Cost += emitLocalStore(*Sink, Blk, F->Activation, I->A, Now, I->Pc);
  ++Pc;
  JRPM_NEXT();
Op_ReadStats:
  if (Sink) {
    drainPending(*Sink, Blk);
    Cost += Sink->onReadStats(static_cast<std::uint32_t>(I->Imm), Now);
  }
  ++Pc;
  JRPM_NEXT();
Op_Nop:
  ++Pc;
  JRPM_NEXT();

#undef JRPM_MEM_DONE
#undef JRPM_NEXT
#undef JRPM_FETCH
#undef JRPM_RETURN

#else // portable fallback: shared-dispatch switch loop

  bool FrameChanged = false;
  for (;;) {
    const exec::DecodedInst &I = Insts[Pc];
    ++Executed;
    std::uint32_t Cost = Costs.Basic;
    auto R = [&](std::uint16_t Reg) -> std::uint64_t & { return Regs[Reg]; };

    switch (I.Op) {
    case ir::Opcode::Add:
      R(I.Dst) = R(I.A) + R(I.B);
      ++Pc;
      break;
    case ir::Opcode::Sub:
      R(I.Dst) = R(I.A) - R(I.B);
      ++Pc;
      break;
    case ir::Opcode::Mul:
      R(I.Dst) = R(I.A) * R(I.B);
      ++Pc;
      break;
    case ir::Opcode::Div: {
      std::int64_t D = asI(R(I.B));
      if (D == 0) {
        F->Pc = Pc;
        throw TrapError(TrapKind::DivideByZero, I.Pc);
      }
      R(I.Dst) = static_cast<std::uint64_t>(asI(R(I.A)) / D);
      Cost = Costs.IntDiv;
      ++Pc;
      break;
    }
    case ir::Opcode::Rem: {
      std::int64_t D = asI(R(I.B));
      if (D == 0) {
        F->Pc = Pc;
        throw TrapError(TrapKind::RemainderByZero, I.Pc);
      }
      R(I.Dst) = static_cast<std::uint64_t>(asI(R(I.A)) % D);
      Cost = Costs.IntDiv;
      ++Pc;
      break;
    }
    case ir::Opcode::And:
      R(I.Dst) = R(I.A) & R(I.B);
      ++Pc;
      break;
    case ir::Opcode::Or:
      R(I.Dst) = R(I.A) | R(I.B);
      ++Pc;
      break;
    case ir::Opcode::Xor:
      R(I.Dst) = R(I.A) ^ R(I.B);
      ++Pc;
      break;
    case ir::Opcode::Shl:
      R(I.Dst) = R(I.A) << (R(I.B) & 63);
      ++Pc;
      break;
    case ir::Opcode::Shr:
      R(I.Dst) = static_cast<std::uint64_t>(asI(R(I.A)) >> (R(I.B) & 63));
      ++Pc;
      break;
    case ir::Opcode::AddImm:
      R(I.Dst) = R(I.A) + static_cast<std::uint64_t>(I.Imm);
      ++Pc;
      break;
    case ir::Opcode::FAdd:
      R(I.Dst) = asU(asF(R(I.A)) + asF(R(I.B)));
      ++Pc;
      break;
    case ir::Opcode::FSub:
      R(I.Dst) = asU(asF(R(I.A)) - asF(R(I.B)));
      ++Pc;
      break;
    case ir::Opcode::FMul:
      R(I.Dst) = asU(asF(R(I.A)) * asF(R(I.B)));
      ++Pc;
      break;
    case ir::Opcode::FDiv:
      R(I.Dst) = asU(asF(R(I.A)) / asF(R(I.B)));
      Cost = Costs.FloatDiv;
      ++Pc;
      break;
    case ir::Opcode::FNeg:
      R(I.Dst) = asU(-asF(R(I.A)));
      ++Pc;
      break;
    case ir::Opcode::FSqrt:
      R(I.Dst) = asU(std::sqrt(asF(R(I.A))));
      Cost = Costs.FloatSqrt;
      ++Pc;
      break;
    case ir::Opcode::IToF:
      R(I.Dst) = asU(static_cast<double>(asI(R(I.A))));
      ++Pc;
      break;
    case ir::Opcode::FToI:
      R(I.Dst) = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(asF(R(I.A))));
      ++Pc;
      break;
    case ir::Opcode::CmpEQ:
      R(I.Dst) = R(I.A) == R(I.B);
      ++Pc;
      break;
    case ir::Opcode::CmpNE:
      R(I.Dst) = R(I.A) != R(I.B);
      ++Pc;
      break;
    case ir::Opcode::CmpLT:
      R(I.Dst) = asI(R(I.A)) < asI(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::CmpLE:
      R(I.Dst) = asI(R(I.A)) <= asI(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::CmpGT:
      R(I.Dst) = asI(R(I.A)) > asI(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::CmpGE:
      R(I.Dst) = asI(R(I.A)) >= asI(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::FCmpEQ:
      R(I.Dst) = asF(R(I.A)) == asF(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::FCmpLT:
      R(I.Dst) = asF(R(I.A)) < asF(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::FCmpLE:
      R(I.Dst) = asF(R(I.A)) <= asF(R(I.B));
      ++Pc;
      break;
    case ir::Opcode::ConstI:
    case ir::Opcode::ConstF:
      R(I.Dst) = static_cast<std::uint64_t>(I.Imm);
      ++Pc;
      break;
    case ir::Opcode::Mov:
      R(I.Dst) = R(I.A);
      ++Pc;
      break;
    case ir::Opcode::Load: {
      std::uint64_t Ea = static_cast<std::uint64_t>(I.Imm);
      if (I.A != ir::NoReg)
        Ea += R(I.A);
      if (I.B != ir::NoReg)
        Ea += R(I.B);
      std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
      std::uint32_t Extra = 0;
      R(I.Dst) = Mem.load(Addr, Extra);
      Cost += Extra;
      if (Sink)
        Cost += emitHeapLoad(*Sink, Blk, Addr, Now, I.Pc);
      ++Pc;
      break;
    }
    case ir::Opcode::Store: {
      std::uint64_t Ea = static_cast<std::uint64_t>(I.Imm);
      if (I.A != ir::NoReg)
        Ea += R(I.A);
      if (I.B != ir::NoReg)
        Ea += R(I.B);
      std::uint32_t Addr = static_cast<std::uint32_t>(Ea);
      std::uint32_t Extra = 0;
      Mem.store(Addr, R(I.Dst), Extra);
      Cost += Extra;
      if (Sink)
        Cost += emitHeapStore(*Sink, Blk, Addr, Now, I.Pc);
      ++Pc;
      break;
    }
    case ir::Opcode::Alloc: {
      std::uint32_t Count = I.A != ir::NoReg
                                ? static_cast<std::uint32_t>(R(I.A))
                                : static_cast<std::uint32_t>(I.Imm);
      R(I.Dst) = Mem.allocWords(Count);
      ++Pc;
      break;
    }
    case ir::Opcode::Br:
      Pc = static_cast<exec::FlatPc>(I.Imm); // pre-resolved target
      break;
    case ir::Opcode::CondBr:
      Pc = R(I.A) != 0 ? static_cast<exec::FlatPc>(I.Imm)
                       : static_cast<exec::FlatPc>(I.Imm2);
      break;
    case ir::Opcode::Arg:
      F->StagedArgs.push_back(R(I.A));
      ++Pc;
      break;
    case ir::Opcode::Call: {
      std::uint32_t Callee = static_cast<std::uint32_t>(I.Imm);
      const exec::FuncDesc &CF = Image.func(Callee);
      assert(F->StagedArgs.size() == CF.NumParams && "bad call arity");
      Frame NewF;
      NewF.Pc = CF.EntryPc;
      NewF.Activation = NextActivation++;
      NewF.RetDst = I.Dst;
      NewF.Regs.assign(CF.NumRegs, 0);
      for (std::uint32_t A = 0; A < F->StagedArgs.size(); ++A)
        NewF.Regs[A] = F->StagedArgs[A];
      F->StagedArgs.clear();
      F->Pc = Pc + 1; // resume point after the call
      Cost = Costs.CallOverhead;
      if (Sink)
        emitCallSite(*Sink, Blk, I.Pc, Now);
      Frames.push_back(std::move(NewF)); // invalidates F; reloaded below
      FrameChanged = true;
      break;
    }
    case ir::Opcode::Ret: {
      std::uint64_t Value = I.A != ir::NoReg ? R(I.A) : 0;
      if (Sink) {
        drainPending(*Sink, Blk);
        Sink->onReturn(F->Activation);
        emitCallReturn(*Sink, Blk, Now);
      }
      std::uint16_t RetDst = F->RetDst;
      Frames.pop_back();
      if (Frames.empty())
        RetVal = Value;
      else if (RetDst != ir::NoReg)
        Frames.back().Regs[RetDst] = Value;
      Cost = Costs.CallOverhead;
      FrameChanged = true;
      break;
    }
    case ir::Opcode::SLoop:
      if (Sink) {
        drainPending(*Sink, Blk);
        Cost += Sink->onLoopStart(static_cast<std::uint32_t>(I.Imm),
                                  F->Activation, Now);
      }
      ++Pc;
      break;
    case ir::Opcode::Eoi:
      if (Sink)
        Cost +=
            emitLoopIter(*Sink, Blk, static_cast<std::uint32_t>(I.Imm), Now);
      ++Pc;
      break;
    case ir::Opcode::ELoop:
      if (Sink) {
        drainPending(*Sink, Blk);
        Cost += Sink->onLoopEnd(static_cast<std::uint32_t>(I.Imm), Now);
      }
      ++Pc;
      break;
    case ir::Opcode::LwlAnno:
      Cost = Cfg.LocalAnnoCost;
      if (Sink)
        Cost += emitLocalLoad(*Sink, Blk, F->Activation, I.A, Now, I.Pc);
      ++Pc;
      break;
    case ir::Opcode::SwlAnno:
      Cost = Cfg.LocalAnnoCost;
      if (Sink)
        Cost += emitLocalStore(*Sink, Blk, F->Activation, I.A, Now, I.Pc);
      ++Pc;
      break;
    case ir::Opcode::ReadStats:
      if (Sink) {
        drainPending(*Sink, Blk);
        Cost += Sink->onReadStats(static_cast<std::uint32_t>(I.Imm), Now);
      }
      ++Pc;
      break;
    case ir::Opcode::Nop:
      ++Pc;
      break;
    }

    Total += Cost;
    if (FrameChanged) {
      if (Frames.empty())
        return Total;
      F = &Frames.back();
      Pc = F->Pc;
      Regs = F->Regs.data();
      FrameChanged = false;
    }
    if constexpr (Mode == StepMode::Single) {
      F->Pc = Pc;
      return Total;
    }
    Now += Cost;
    if constexpr (Mode == StepMode::ToStop) {
      if (StopMask[Pc] || StopRequested) {
        F->Pc = Pc;
        return Total;
      }
    }
    if ((Insts[Pc].Flags & exec::DecodedInst::BlockStartFlag) &&
        Now > MaxCycles) { // budget test once per block
      F->Pc = Pc;
      return Total;
    }
  }

#endif
}

std::uint32_t ExecContext::step(MemoryPort &Mem, TraceSink *Sink,
                                std::uint64_t Now) {
  return static_cast<std::uint32_t>(
      stepImpl<StepMode::Single>(Mem, Sink, Now, 0));
}

std::uint64_t ExecContext::runToStop(MemoryPort &Mem, TraceSink *Sink,
                                     std::uint64_t Now,
                                     const std::uint8_t *StopMask,
                                     std::uint64_t MaxCycles) {
  return stepImpl<StepMode::ToStop>(Mem, Sink, Now, MaxCycles, StopMask);
}

std::uint64_t ExecContext::run(MemoryPort &Mem, TraceSink *Sink,
                               std::uint64_t Now, std::uint64_t MaxCycles) {
  return stepImpl<StepMode::Run>(Mem, Sink, Now, MaxCycles);
}
