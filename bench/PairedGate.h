//===- bench/PairedGate.h - Paired-pass verdict for the throughput gates ---==//
//
// The throughput benches time an embedded seed engine against the current
// one. A single seed pass against the best of two new passes cannot tell a
// real gap from runner jitter, so the verdict rests on interleaved
// (seed, new) pass pairs instead: each pair yields one speedup ratio, and
// the two passes of a pair run back to back, alternating which side goes
// first, so slow drifts of the host hit both sides alike.
//
// Decision rule over the per-pair ratios, checked once k pairs exist and
// again after every further pair up to 3k:
//   - PASS when the lower quartile clears the gate;
//   - FAIL when the upper quartile misses it;
//   - otherwise UNRESOLVED once 3k pairs are in.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_BENCH_PAIREDGATE_H
#define JRPM_BENCH_PAIREDGATE_H

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace jrpm {
namespace benchutil {

enum class Verdict { Pass, Fail, Unresolved, Diverged };

struct PairedGateResult {
  Verdict Outcome = Verdict::Unresolved;
  std::vector<double> Ratios; ///< new/seed speedup, one per pair, in order
  double Q1 = 0;
  double Median = 0;
  double Q3 = 0;
};

/// Linear-interpolation quantile (the common "type 7" definition) of
/// \p Sorted, which must be non-empty and ascending.
inline double quantile(const std::vector<double> &Sorted, double Q) {
  const double Pos = Q * static_cast<double>(Sorted.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(Pos);
  const std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + Frac * (Sorted[Hi] - Sorted[Lo]);
}

inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantile(V, 0.5);
}

/// Runs up to 3 * \p K pairs through \p RunPair and decides against
/// \p Gate by the rule above. \p RunPair(SeedFirst) times one seed pass and
/// one new pass in the given order and returns the new/seed speedup, or
/// std::nullopt when the two passes disagree on results (the measurement
/// is void: the outcome is Diverged and no further pair runs).
template <typename PairFn>
PairedGateResult decidePaired(std::size_t K, double Gate, PairFn RunPair) {
  PairedGateResult R;
  for (std::size_t I = 0; I < 3 * K; ++I) {
    std::optional<double> Ratio = RunPair(/*SeedFirst=*/I % 2 == 0);
    if (!Ratio) {
      R.Outcome = Verdict::Diverged;
      return R;
    }
    R.Ratios.push_back(*Ratio);
    std::vector<double> Sorted = R.Ratios;
    std::sort(Sorted.begin(), Sorted.end());
    R.Q1 = quantile(Sorted, 0.25);
    R.Median = quantile(Sorted, 0.5);
    R.Q3 = quantile(Sorted, 0.75);
    if (R.Ratios.size() < K)
      continue;
    if (R.Q1 >= Gate) {
      R.Outcome = Verdict::Pass;
      return R;
    }
    if (R.Q3 < Gate) {
      R.Outcome = Verdict::Fail;
      return R;
    }
  }
  R.Outcome = Verdict::Unresolved;
  return R;
}

} // namespace benchutil
} // namespace jrpm

#endif // JRPM_BENCH_PAIREDGATE_H
