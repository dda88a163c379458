#ifndef INFUSERKI_UTIL_RNG_H_
#define INFUSERKI_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace infuserki::util {

/// Deterministic random source. Every stochastic component in the library
/// takes an explicit Rng (or a seed) so experiments are reproducible; there
/// is no global generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal scaled by `stddev` around `mean`.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Serializes the full engine state (the exact mt19937_64 stream
  /// position), so a restored generator continues the identical sequence.
  /// Used by training-state checkpoints for bit-exact resume.
  std::string SaveState() const;

  /// Restores a state captured by SaveState(). The input is parsed and
  /// validated before the engine is touched; on error the generator is
  /// left unchanged.
  Status RestoreState(const std::string& state);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Uniformly samples one element. Requires non-empty input.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    CHECK(!items.empty()) << "Choice() from empty vector";
    return items[static_cast<size_t>(
        UniformInt(0, static_cast<int64_t>(items.size()) - 1))];
  }

  /// Samples `k` distinct indices from [0, n). Requires k <= n.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace infuserki::util

#endif  // INFUSERKI_UTIL_RNG_H_
