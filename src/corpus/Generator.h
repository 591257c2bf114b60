//===- corpus/Generator.h - Seeded structured-program generator ------------==//
//
// The shared seeded program generator: deterministic pseudo-random programs
// against the frontend DSL for property testing and corpus work. Every
// generated program terminates (constant loop bounds with a work budget),
// never traps (power-of-two-masked array indices, division by nonzero
// constants, bounded shifts), and returns an order-sensitive integer
// checksum, so sequential and speculative executions can be compared
// bit-for-bit.
//
// Promoted from tests/RandomProgram.h so the fuzz suites and the corpus
// engine (Template.h / Variant.h) consume one generator instead of two
// drifting copies. The generation algorithm is frozen: a given seed must
// produce byte-identical modules forever, because recorded failure seeds
// (fuzz regressions, corpus repro files) reproduce from the seed alone.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_CORPUS_GENERATOR_H
#define JRPM_CORPUS_GENERATOR_H

#include "frontend/Ast.h"
#include "ir/IR.h"
#include "support/Prng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace corpus {

class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t Seed) : Rng(Seed ^ 0xA5A5A5A5) {}

  ir::Module generate();

private:
  static std::string arrayName(int A) { return "arr" + std::to_string(A); }

  /// A small pure helper function over two integer parameters: a bounded
  /// mixing loop, so calls inside generated loops nest activations.
  front::FuncDef makeHelper(int Index);

  std::string freshLoopVar() {
    // Built by appending to the member rather than as "i" + to_string(...):
    // GCC 12 at -O3 reports a false -Wrestrict overlap on that operator+.
    CurLoopVar.assign(1, 'i');
    CurLoopVar += std::to_string(NextLoopVar++);
    return CurLoopVar;
  }
  const std::string &loopVar() const { return CurLoopVar; }

  front::Ex randLocal();

  /// Random integer expression of bounded depth; never traps.
  front::Ex genExpr(int Depth, const std::vector<std::string> &LoopVars);

  front::St genStmt(int Depth, std::uint64_t &Budget);

  static constexpr int NumArrays = 3;
  static constexpr std::int64_t ArraySize = 64; // power of two
  Prng Rng;
  std::vector<std::string> Locals;
  std::vector<std::string> ActiveLoopVars;
  std::string CurLoopVar = "i_none";
  int NextLocal = 0;
  int NextLoopVar = 0;
  int NumHelpers = 0;
};

} // namespace corpus
} // namespace jrpm

#endif // JRPM_CORPUS_GENERATOR_H
